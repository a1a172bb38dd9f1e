"""Core concept-network model.

A network is a rooted multi-tree. Each node carries either a concept or an
encapsulated sub-network (a "capsule"), an ordered list of specifier children,
and optionally an external-anchor annotation that reaches across capsule
boundaries. Semantics of an edge: the child further specifies (narrows) its
parent.

A ``Concept`` is a validated ``(label, stemless, sense)`` tuple, so hashing
one, which every dict and set lookup in the engine does, runs in C.
``Concept()`` checks its label; the tree-line reader, whose token pattern
has already made those checks, builds its concepts without them.
``iter_nodes`` and ``concepts`` fill a list by one recursive preorder walk,
which every scan of all of a network's nodes reads.

Networks are immutable after construction by convention: nothing in this
package mutates a node once it is part of a returned network, so networks are
safe to share between threads. ``resolve_anchors`` wires the single mutable
slot (``Node.ref``) exactly once on freshly built nodes.

A node that ``keyed_node`` builds carries its canonical key in ``Node.key``,
computed once from its children's stored keys; every other node has ``key``
None. ``canonicalize``, the chart's rule builds and transfer's outputs all make
their nodes with it, so they make canonical networks in one pass. A node with
a key is canonical and is never copied: ``canonicalize`` returns it as is, so
a network built around canonical fragments (a chart item around the items it
took in) shares their subtrees. Sharing is safe because ``ref`` is the only
slot ever written after construction, and only ``resolve_anchors`` writes it,
on a fresh ``rebuild`` copy, which has no key. A node with a key therefore
never has a ``ref``. No engine code reads ``ref``; ``anchor_resolutions`` and
the exports do.

Anchors are checked where a network enters or leaves the engine, by
``canonicalize`` (on a keyed network that check is all it does): ``realize``
checks its input, ``parse_text`` each complete parse and ``transfer_scored``
each output. A chart item is not checked on its own, because its anchor may
resolve only once a later rule embeds it.

No engine call leaves a reference cycle, so each call's garbage is freed by
reference counting and none waits for the cycle collector. Recursive helpers
are module-level functions, never nested closures (a closure that calls
itself holds itself through its cell), and no caught exception is kept with
its traceback, which holds the frame that keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Sequence

from .errors import MalformedNetworkError

UP = "up"
DOWN = "down"

# Characters that can never appear in a concept label.
STRUCTURAL_CHARS = set(">[](){},=<'#")


class Concept(tuple):
    """An atomic unit of meaning: a stem, or a stemless operator like {past}.

    ``sense`` discriminates homographs; unannotated concepts are sense 1.
    A concept is the tuple ``(label, stemless, sense)``, validated once here,
    so its hash is ``hash((label, stemless, sense))``, computed in C. It is
    equal only to a concept with the same fields (never to a plain tuple),
    and concepts are unordered.
    """

    __slots__ = ()

    def __new__(cls, label: str, stemless: bool = False, sense: int = 1):
        if not label:
            raise MalformedNetworkError("concept label must be nonempty")
        if not STRUCTURAL_CHARS.isdisjoint(label):
            bad = sorted(STRUCTURAL_CHARS.intersection(label))[0]
            raise MalformedNetworkError(
                f"concept label {label!r} contains structural character {bad!r}"
            )
        return tuple.__new__(cls, (label, stemless, sense))

    label = property(itemgetter(0), doc="The stem or operator name.")
    stemless = property(itemgetter(1), doc="Whether this is a {stemless} operator.")
    sense = property(itemgetter(2), doc="The homograph sense, 1 when unannotated.")

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        # False, not NotImplemented: tuple's own == would then compare a
        # plain tuple's items with ours
        return other.__class__ is Concept and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not Concept or tuple.__ne__(self, other)

    def _unordered(self, other):
        # raise, not return NotImplemented: tuple's reflected operator would
        # then order a concept against a plain tuple
        raise TypeError(f"concepts are unordered: cannot compare with {type(other).__name__}")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __reduce__(self):
        # rebuild through __new__, which validates; tuple's default would
        # pass the fields as one argument
        return (Concept, tuple(self))

    def text(self) -> str:
        base = self.label if self.sense == 1 else f"{self.label}#{self.sense}"
        return "{" + base + "}" if self.stemless else base

    def __repr__(self) -> str:
        return f"Concept({self.text()})"


@dataclass(frozen=True)
class Anchor:
    """External-anchor annotation: `>>` (up) possibly repeated, or `<<` (down)."""

    direction: str  # UP or DOWN
    depth: int = 1

    def text(self) -> str:
        return ">>" * self.depth if self.direction == UP else "<<"


_ONE_OF = "node must hold exactly one of concept or capsule"


class Node:
    """One tree node: a concept or a capsule, plus its specifiers.

    ``ref`` is the resolved target of this node's anchor (shared object, not a
    copy), populated by ``resolve_anchors``; it is ignored by equality and
    printing, which work on the anchor annotation itself. ``key`` is the
    canonical key, set only on nodes that ``keyed_node`` builds.
    ``is_capsule`` is set once here: ``capsule`` is never reassigned.
    """

    __slots__ = ("concept", "capsule", "is_capsule", "anchor", "specifiers", "ref", "key")

    def __init__(
        self,
        concept: Concept | None = None,
        capsule: "ConceptNetwork | None" = None,
        anchor: Anchor | None = None,
        specifiers: tuple["Node", ...] = (),
    ):
        if (concept is None) == (capsule is None):
            raise MalformedNetworkError(_ONE_OF)
        self.concept = concept
        self.capsule = capsule
        self.is_capsule = capsule is not None
        self.anchor = anchor
        self.specifiers = tuple(specifiers)
        self.ref: Node | None = None
        self.key: tuple | None = None

    def head_concept(self) -> Concept:
        """The concept this node exposes: itself, or the capsule head."""
        if self.concept is not None:
            return self.concept
        return self.capsule.roots[0].head_concept()

    def __repr__(self) -> str:
        from .treeline import print_network  # local import to avoid a cycle

        return f"Node({print_network(ConceptNetwork((self,)))})"


class ConceptNetwork:
    """A rooted multi-tree of specification edges (usually one root)."""

    __slots__ = ("roots",)

    def __init__(self, roots: tuple[Node, ...] | list[Node]):
        roots = tuple(roots)
        if not roots:
            raise MalformedNetworkError("network must have at least one root")
        self.roots = roots

    def iter_nodes(self) -> list[Node]:
        """All nodes in preorder: each root's tree in turn, where a node
        comes first, then each specifier's subtree in turn, then its
        capsule body's trees."""
        out: list[Node] = []
        for root in self.roots:
            _preorder(root, out)
        return out

    def concepts(self) -> list[Concept]:
        """Multiset of concepts in the network (capsule shells excluded), in
        the order of ``iter_nodes``."""
        return [n.concept for n in self.iter_nodes() if n.concept is not None]

    def __repr__(self) -> str:
        from .treeline import print_network

        return f"ConceptNetwork({print_network(self)!r})"


def _preorder(node: Node, out: list[Node]) -> None:
    out.append(node)
    for s in node.specifiers:
        _preorder(s, out)
    if node.is_capsule:
        for r in node.capsule.roots:
            _preorder(r, out)


def rebuild(node: Node) -> Node:
    """Fresh copy of the tree under ``node``, descending into capsule bodies.
    The copy carries no key."""
    capsule = None
    if node.is_capsule:
        capsule = ConceptNetwork(tuple(map(rebuild, node.capsule.roots)))
    spec = tuple(map(rebuild, node.specifiers))
    return Node(concept=node.concept, capsule=capsule, anchor=node.anchor, specifiers=spec)


# ---------------------------------------------------------------------------
# Canonical form and equality
# ---------------------------------------------------------------------------
#
# Specifier order is meaningless, so equality compares order-normalized keys.
# The total order on sibling specifiers: stemless concepts first, then plain
# concepts, then capsules; within a kind, leaves before branches, then label,
# sense, anchor, and the children's keys. Root lists are order-significant
# (the first root of a capsule body is its head) and are never reordered.

_ANCHOR_NONE = ("", 0)


def _node_key(node: Node):
    if node.key is not None:
        return node.key
    kids = tuple(sorted(_node_key(s) for s in node.specifiers))
    return _key_of(node.concept, node.capsule, node.anchor, kids)


def _key_of(concept: Concept | None, capsule, anchor: Anchor | None, kids: tuple):
    """The key of a node with these fields, given its children's keys,
    already sorted."""
    ak = (anchor.direction, anchor.depth) if anchor else _ANCHOR_NONE
    leaf = 0 if not kids else 1
    if concept is not None:
        label, stemless, sense = concept
        return (0 if stemless else 1, leaf, label, sense, ak, kids)
    body = tuple(_node_key(r) for r in capsule.roots)
    return (2, leaf, body, ak, kids)


_stored_key = attrgetter("key")
_new_node = object.__new__


def keyed_node(
    concept: Concept | None = None,
    capsule: ConceptNetwork | None = None,
    anchor: Anchor | None = None,
    specifiers: Sequence[Node] = (),
) -> Node:
    """A new canonical node over children (and capsule roots) that carry
    their keys: the specifiers sorted by stored key (a stable sort; equal keys
    are interchangeable), and the node's key computed from theirs. It makes
    the node's specifier tuple and its key and sets the slots itself, with
    ``Node()``'s check that it holds exactly one of concept or capsule."""
    if (concept is None) == (capsule is None):
        raise MalformedNetworkError(_ONE_OF)
    if len(specifiers) > 1:
        spec = tuple(sorted(specifiers, key=_stored_key))
    else:
        spec = tuple(specifiers)
    out = _new_node(Node)
    out.concept = concept
    out.capsule = capsule
    out.is_capsule = capsule is not None
    out.anchor = anchor
    out.specifiers = spec
    out.ref = None
    out.key = _key_of(concept, capsule, anchor, tuple([s.key for s in spec]) if spec else ())
    return out


def canonical_node(node: Node) -> Node:
    """``node`` itself if it carries a key, else its canonical copy: every
    node beneath that has no key is copied by ``keyed_node``, bottom-up."""
    if node.key is not None:
        return node
    capsule = None
    if node.is_capsule:
        capsule = ConceptNetwork(tuple(map(canonical_node, node.capsule.roots)))
    return keyed_node(node.concept, capsule, node.anchor, [canonical_node(s) for s in node.specifiers])


def canonicalize(net: ConceptNetwork) -> ConceptNetwork:
    """Order-normalize a network; idempotent.

    Also validates that every anchor annotation resolves to exactly one node,
    raising MalformedNetworkError otherwise; the whole network is checked,
    shared canonical subtrees included. Any previously wired reference edges
    are dropped (canonicalize, then resolve). Nodes that already carry a key
    are kept as they are, so on a network that ``keyed_node`` built this only
    validates the anchors.
    """
    _resolve(net, assign=False)
    return ConceptNetwork(tuple(map(canonical_node, net.roots)))


def equal(a: ConceptNetwork, b: ConceptNetwork) -> bool:
    """Structural equality up to specifier order.

    Purely structural: anchor-open networks (definition bodies like the
    possession macro, whose anchors resolve only once substituted into a
    host) compare fine; canonicalize is where resolvability is enforced.
    """
    return canonical_key(a) == canonical_key(b)


def canonical_key(net: ConceptNetwork):
    """Hashable identity usable for dedup; equal() iff keys match. Stored
    keys are read, not recomputed."""
    return tuple(_node_key(r) for r in net.roots)


# ---------------------------------------------------------------------------
# External-anchor resolution
# ---------------------------------------------------------------------------
#
# An up anchor on node X crosses the boundary of X's innermost enclosing
# capsule; each crossed capsule node that itself carries an up prefix relays
# the reference outward by its own depth (the doubled ">>" spelling). When the
# crossing count is spent, the target is the node that capsule specifies (its
# parent). A down anchor resolves to the single node that specifies the
# innermost enclosing capsule from outside.


def _resolve(net: ConceptNetwork, assign: bool) -> None:
    _resolve_walk(net.roots, None, [], assign)


def _resolve_walk(nodes: tuple[Node, ...], parent: Node | None, frames: list, assign: bool) -> None:
    # frames: innermost-last list of (capsule_node, parent_of_capsule or None)
    for node in nodes:
        if node.anchor is not None and not node.is_capsule:
            target = _target(node, frames)
            if assign:
                node.ref = target
        if node.anchor is not None and node.is_capsule and node.anchor.direction == DOWN:
            raise MalformedNetworkError("'<<' cannot prefix an encapsulation")
        if node.is_capsule:
            _resolve_walk(node.capsule.roots, None, frames + [(node, parent)], assign)
        _resolve_walk(node.specifiers, node, frames, assign)


def _target(node: Node, frames) -> Node:
    anchor = node.anchor
    if not frames:
        raise MalformedNetworkError(
            f"anchor {anchor.text()} on {node.head_concept().text()} has no enclosing encapsulation"
        )
    if anchor.direction == DOWN:
        if anchor.depth != 1:
            raise MalformedNetworkError("'<<' anchors deeper than one boundary are not supported")
        capsule_node, _parent = frames[-1]
        outside = capsule_node.specifiers
        if len(outside) != 1:
            raise MalformedNetworkError(
                f"'<<' anchor needs exactly one specifier on the enclosing encapsulation, found {len(outside)}"
            )
        return outside[0]
    remaining = anchor.depth
    idx = len(frames) - 1
    while True:
        capsule_node, parent = frames[idx]
        remaining -= 1
        if capsule_node.anchor is not None and capsule_node.anchor.direction == UP:
            remaining += capsule_node.anchor.depth  # relay
        if remaining == 0:
            if parent is None:
                raise MalformedNetworkError(
                    f"anchor {anchor.text()} resolves to an encapsulation with no parent"
                )
            return parent
        idx -= 1
        if idx < 0:
            raise MalformedNetworkError(
                f"anchor {anchor.text()} crosses more boundaries than exist"
            )


def resolve_anchors(net: ConceptNetwork) -> ConceptNetwork:
    """Return a copy of the network with reference edges wired.

    Each anchored node's ``ref`` points at its resolved node (shared, not
    copied), so co-reference is detectable downstream. The anchor annotation
    is kept so printing and equality still see the written structure.
    """
    fresh = ConceptNetwork(tuple(rebuild(r) for r in net.roots))
    _resolve(fresh, assign=True)
    return fresh


# ---------------------------------------------------------------------------
# Paths and JSON export
# ---------------------------------------------------------------------------
#
# A path is a tuple of steps from the network: ("r", i) picks root i, ("s", i)
# specifier i, ("b", i) capsule-body root i. Paths identify nodes in fixtures
# and in the JSON export's resolved-reference entries.


def node_paths(net: ConceptNetwork) -> dict[int, tuple]:
    """Map id(node) -> path for every node in the network."""
    paths: dict[int, tuple] = {}
    for i, r in enumerate(net.roots):
        _add_paths(r, (("r", i),), paths)
    return paths


def _add_paths(node: Node, path: tuple, paths: dict[int, tuple]) -> None:
    paths[id(node)] = path
    if node.is_capsule:
        for i, r in enumerate(node.capsule.roots):
            _add_paths(r, path + (("b", i),), paths)
    for i, s in enumerate(node.specifiers):
        _add_paths(s, path + (("s", i),), paths)


def anchor_resolutions(net: ConceptNetwork) -> list[tuple[tuple, tuple]]:
    """(anchor node path, resolved target path) pairs, in document order.

    The network must have been produced by resolve_anchors.
    """
    paths = node_paths(net)
    out = []
    for node in net.iter_nodes():
        if node.ref is not None:
            out.append((paths[id(node)], paths[id(node.ref)]))
    return out


def to_json_dict(net: ConceptNetwork) -> dict:
    """Nested-graph export; format documented in docs/formats.md."""
    paths = node_paths(net)
    return {"roots": [_json_node(r, paths) for r in net.roots]}


def _json_node(node: Node, paths: dict[int, tuple]) -> dict:
    d: dict = {}
    if node.concept is not None:
        d["label"] = node.concept.label
        d["stemless"] = node.concept.stemless
        d["sense"] = node.concept.sense
    else:
        d["capsule"] = {"roots": [_json_node(r, paths) for r in node.capsule.roots]}
    if node.anchor is not None:
        d["anchor"] = {"dir": node.anchor.direction, "depth": node.anchor.depth}
    if node.ref is not None:
        d["ref"] = [list(step) for step in paths[id(node.ref)]]
    d["specifiers"] = [_json_node(s, paths) for s in node.specifiers]
    return d
