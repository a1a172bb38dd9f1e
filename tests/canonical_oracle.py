"""Canonical form as it was before canonical nodes carried their key, and
the builders as they were before they built canonical nodes, kept verbatim
as an oracle.

``_node_key`` here recomputes a whole subtree's key at every call, and
``canonicalize`` copies every node. ``rebuild`` copies a tree with a concept
map and a subtree swap. ``instantiate_reverse`` and ``_apply_selection`` build
unkeyed networks in specifier order, for ``canonicalize`` to sort and key
afterwards. ``tests/test_canonical_oracle.py`` checks that
``conspec.network.canonicalize`` gives the same network and key, and that the
chart's and transfer's builds equal the canonical form of these builds.
"""

from __future__ import annotations

from typing import Callable

from conspec.network import Concept, ConceptNetwork, Node, _resolve
from conspec.rules import ConceptMap, Rule, _transfer_concept, _TransferMatch
from conspec.similarity import Alignment

_ANCHOR_NONE = ("", 0)


def _node_key(node: Node):
    ak = (node.anchor.direction, node.anchor.depth) if node.anchor else _ANCHOR_NONE
    leaf = 0 if not node.specifiers else 1
    kids = tuple(sorted(_node_key(s) for s in node.specifiers))
    if node.concept is not None:
        kind = 0 if node.concept.stemless else 1
        return (kind, leaf, node.concept.label, node.concept.sense, ak, kids)
    body = tuple(_node_key(r) for r in node.capsule.roots)
    return (2, leaf, body, ak, kids)


def _canonical_node(node: Node) -> Node:
    spec = tuple(sorted((_canonical_node(s) for s in node.specifiers), key=_node_key))
    capsule = None
    if node.is_capsule:
        capsule = ConceptNetwork(tuple(_canonical_node(r) for r in node.capsule.roots))
    return Node(concept=node.concept, capsule=capsule, anchor=node.anchor, specifiers=spec)


def canonicalize(net: ConceptNetwork) -> ConceptNetwork:
    """Order-normalize a network; idempotent.

    Also validates that every anchor annotation resolves to exactly one node,
    raising MalformedNetworkError otherwise. Any previously wired reference
    edges are dropped (canonicalize, then resolve).
    """
    _resolve(net, assign=False)
    return ConceptNetwork(tuple(_canonical_node(r) for r in net.roots))


def _same(concept: Concept) -> Concept:
    return concept


def rebuild(
    node: Node,
    concept: Callable[[Concept], Concept] = _same,
    swap: Callable[[Node], Node | None] | None = None,
) -> Node:
    """Fresh copy of the tree under ``node``, descending into capsule bodies.

    Where ``swap(n)`` returns a node, that node stands in for n's whole
    subtree as is; every other node is copied with ``concept`` applied to its
    concept. Nodes are visited in preorder (a node's concept, then its capsule
    body, then its specifiers), which fixes which error ``concept`` raises
    first.
    """

    def copy(n: Node) -> Node:
        if swap is not None:
            got = swap(n)
            if got is not None:
                return got
        mapped = concept(n.concept) if n.concept is not None else None
        capsule = None
        if n.is_capsule:
            capsule = ConceptNetwork(tuple(copy(r) for r in n.capsule.roots))
        return Node(
            concept=mapped,
            capsule=capsule,
            anchor=n.anchor,
            specifiers=tuple(copy(s) for s in n.specifiers),
        )

    return copy(node)


def instantiate_reverse(rule: Rule, alignments: list[Alignment | None]) -> ConceptNetwork:
    """Build an lhs instance around the fragments aligned with each pattern part.

    ``alignments[i]`` aligns parts[i].pattern with its fragment, or is None for
    a literal, which the caller has already checked; ``reverse_score`` gives
    the match score. Uncovered lhs nodes (role markers, capsule shells,
    {implied} insertions) are copied in verbatim. A fragment node with
    nothing changed beneath it is shared, not copied.
    """
    part_frag: dict[int, dict[Node, Node]] = {  # part index -> lhs node -> fragment node
        i: {part.to_lhs[p]: f for p, f in got.binding.items()}
        for i, (part, got) in enumerate(zip(rule.parts, alignments))
        if got is not None
    }

    def part_owned(l: Node) -> Node | None:
        i = rule.part_at.get(id(l))
        if i is None:
            return None
        lhs_to_frag = part_frag[i]
        return graft(lhs_to_frag[l], l, lhs_to_frag, i)

    def graft(f: Node, l: Node, lhs_to_frag: dict[Node, Node], part_idx: int) -> Node:
        # fragment node f is aligned with lhs node l; fragment remainders stay
        frag_of = {id(lhs_to_frag[c]): c for c in l.specifiers if lhs_to_frag.get(c) is not None}
        kept: list[Node] = []
        for child in f.specifiers:
            lc = frag_of.get(id(child))
            if lc is not None:
                kept.append(graft(child, lc, lhs_to_frag, part_idx))
            else:
                kept.append(child)  # fragment remainder, verbatim
        # lhs children outside the part are inserted from the pattern
        for lc in l.specifiers:
            if rule.part_at.get(id(lc)) != part_idx and lhs_to_frag.get(lc) is None:
                kept.append(rebuild(lc, swap=part_owned))
        capsule = f.capsule
        if f.is_capsule:
            body_of = {id(lhs_to_frag[r]): r for r in l.capsule.roots if lhs_to_frag.get(r) is not None}
            roots = []
            for fr in f.capsule.roots:
                lr = body_of.get(id(fr))
                roots.append(graft(fr, lr, lhs_to_frag, part_idx) if lr is not None else fr)
            if roots != list(capsule.roots):  # nodes compare by identity
                capsule = ConceptNetwork(tuple(roots))
        spec = tuple(kept)
        if spec == f.specifiers and capsule is f.capsule:
            return f  # nothing beneath f changed
        return Node(concept=f.concept, capsule=capsule, anchor=f.anchor, specifiers=spec)

    return ConceptNetwork(tuple(rebuild(r, swap=part_owned) for r in rule.lhs.roots))


def _apply_selection(
    net: ConceptNetwork,
    match_at: dict[int, _TransferMatch],
    cmap: ConceptMap,
) -> ConceptNetwork:
    """Rebuild the net applying each selected match at its anchor.

    Selections are disjoint, so each slot fill is deterministic. Concepts
    outside every match go through the concept map.
    """

    def transfer(concept: Concept) -> Concept:
        return _transfer_concept(concept, cmap)

    def at_anchor(node: Node) -> Node | None:
        m = match_at.get(id(node))
        return None if m is None else build_dst(m.rule.dst.roots[0], m)

    def convert(node: Node) -> Node:
        return rebuild(node, transfer, at_anchor)

    def build_dst(d: Node, m: _TransferMatch) -> Node:
        spec = [build_dst(s, m) for s in d.specifiers]
        if d.is_capsule:
            body = ConceptNetwork(tuple(build_dst(r, m) for r in d.capsule.roots))
            return Node(capsule=body, anchor=d.anchor, specifiers=tuple(spec))
        src = m.rule.slots.get(d)
        if src is None:
            return Node(concept=d.concept, anchor=d.anchor, specifiers=tuple(spec))
        t = m.binding[src]
        concept = _transfer_concept(t.concept, cmap) if not t.is_capsule else None
        # remainders (children of t the match left unbound) travel into the slot
        extra = [convert(c) for c in t.specifiers if c not in m.region]
        if t.is_capsule:
            body = ConceptNetwork(tuple(convert(r) for r in t.capsule.roots))
            return Node(capsule=body, anchor=t.anchor, specifiers=tuple(extra + spec))
        return Node(concept=concept, anchor=t.anchor, specifiers=tuple(extra + spec))

    return ConceptNetwork(tuple(convert(r) for r in net.roots))
