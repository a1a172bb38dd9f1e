"""Definition lexicon, stemless registry, and the ancestor ontology.

Definitions express a concept as a network of other concepts (girl = human >
[young, female]). The chain of definition heads (Anne -> girl -> human) is the
ontology behind is_a and similarity. Lexicons are immutable after load;
reloads build a fresh object.

A definition is kept as the statement that made it (``Definition`` is
``treeline.DefinitionStmt``), so a load builds one record per definition.
Derived data is computed at most once per lexicon, and only when first
asked for. Construction runs the cycle check, so a definition cycle fails
the load; it walks only the definitions whose bodies name a defined
concept, as no other can lie on a cycle. The ancestor set of a defined
concept is built the first time ``ancestors`` is asked for it or for a
concept below it, and every later call returns that shared frozenset.
``similarity.concept_sim`` memoizes its answers lazily in
``concept_sim_memo``, and ``similarity.rule_node_sim``, the one scorer of
rule matching (alignments and root-index fills alike), its own in
``rule_sim_memo``, one memo per alpha. Each memo is filled by its own
function only. ``concept_sim_memo`` stores only pairs of defined concepts,
``rule_sim_memo`` pairs of concepts each defined or a registered stemless
concept, so each is bounded by the square of the number of definitions and
registered labels whatever concepts callers pass in. ``root_indexes`` holds
what each rule matcher derives from its rule tuple, built when the matcher
first runs and kept by ``similarity.root_index`` for that tuple: the root
indexes of realize and transfer (``similarity.RootIndex``), each bounded by
the model (realize's also holds each rule's role markers, worked out when
first needed), and the parser's ``_ChartIndex``, built on the model's first
parse, which holds its vocabulary, corner table and part index. Two readers
on different threads may both fill one memo entry or ancestor set; both
write the same value. No cache takes part in equality or repr.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable

from .errors import MalformedNetworkError, ModelLoadError
from .network import Concept, ConceptNetwork, Node, rebuild
from .treeline import (
    MAX_NESTING,
    DefinitionStmt,
    NetworkStmt,
    RuleStmt,
    Statement,
    TransferRuleStmt,
    parse_network,
)

# The registry shipped by default: exactly the stemless labels Table-style
# model corpora use. User models extend it with `declare {label} "..."` lines.
DEFAULT_STEMLESS: dict[str, str] = {
    "past": "past tense",
    "present": "present tense",
    "future": "future tense",
    "past cont.": "past continuous tense",
    "present continuous": "present continuous tense",
    "agent": "agent role",
    "theme": "theme role",
    "recipient": "recipient role",
    "object 1": "first object role",
    "object 2": "second object role",
    "implied": "marks a concept implied rather than surfaced",
    "plural": "plurality",
    "?": "question",
    "!": "exclamation / strong emphasis",
    "emphasis": "emphasis",
    "topic": "topicalization focus",
    "re": "reification of a concept instance",
    "seq": "discourse sequence link",
    "quote": "quoted content",
    "more than": "comparative degree",
    "how": "manner placeholder",
    "verb": "event-concept category",
    "have": "possession macro",
}

# Predefined {have} macro so possessives can be written tersely; every
# Lexicon shares this one body, as networks are never mutated.
_HAVE_BODY = parse_network("(have > [<<{agent}, >>{theme}])")


# A definition is kept as the statement that made it.
Definition = DefinitionStmt


@dataclass
class Lexicon:
    definitions: dict[Concept, Definition] = field(default_factory=dict)
    stemless_registry: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_STEMLESS))
    # defined concept -> its ancestor set; filled by ``ancestors`` as asked
    ancestor_table: dict[Concept, frozenset[Concept]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # (a, b, alpha) -> concept_sim, both concepts defined; filled by similarity
    concept_sim_memo: dict[tuple[Concept, Concept, float], float] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # alpha -> (pattern, target) -> rule_node_sim, each concept defined or a
    # registered stemless concept (sense 1); filled by similarity
    rule_sim_memo: dict[float, dict[tuple[Concept, Concept], float]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # (matcher, alpha) -> that matcher's root index (similarity.RootIndex, or
    # the parser's _ChartIndex holding one) for the rules it last ran; filled
    # by similarity.root_index
    root_indexes: dict[tuple[str, float], object] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        have = Concept("have", True)
        if have not in self.definitions:
            # a copy: the caller's dict is left as it was passed
            have_def = Definition(have, _HAVE_BODY)
            self.definitions = {**self.definitions, have: have_def}
        self._check_cycles()  # so each walk up in ``ancestors`` ends

    def _check_cycles(self) -> None:
        # expansion must terminate: no definition may reach itself. Only a
        # definition whose body names a defined concept can lie on a cycle,
        # so the walk visits those alone, in definition order, each with the
        # defined concepts of its body: the others are leaves, and the walk
        # meets the same first cycle. Depth-first over a stack of edge
        # iterators (the roots, then each open definition's), so a deep chain
        # needs no recursion.
        defined = self.definitions
        edges: dict[Concept, list[Concept]] = {}
        for name, definition in defined.items():
            named = [c for c in definition.body.concepts() if c in defined]
            if named:
                edges[name] = named
        GRAY, BLACK = 1, 2
        color: dict[Concept, int] = {}
        trail: list[Concept] = []  # the open (gray) definitions, outermost first
        stack = [iter(edges)]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                if trail:
                    color[trail.pop()] = BLACK
            elif color.get(nxt) == GRAY:
                names = " -> ".join(c.text() for c in trail[trail.index(nxt) :] + [nxt])
                raise ModelLoadError(f"definition cycle: {names}", line=defined[nxt].line or None)
            elif nxt in edges and nxt not in color:
                color[nxt] = GRAY
                trail.append(nxt)
                stack.append(iter(edges[nxt]))


# The statement fields scanned for stemless labels. A rule's rhs patterns are
# sub-chains of its lhs (build_rule checks), so the lhs covers them.
_NETWORK_FIELDS = {
    NetworkStmt: ("network",),
    DefinitionStmt: ("body",),
    RuleStmt: ("lhs",),
    TransferRuleStmt: ("src", "dst"),
}


def lint_networks(statements: list[Statement]) -> list[ConceptNetwork]:
    """The networks of ``statements`` that the stemless lint scans, in order."""
    return [getattr(s, name) for s in statements for name in _NETWORK_FIELDS.get(type(s), ())]


def undeclared_stemless(networks: Iterable[ConceptNetwork], declared: Container[str]) -> list[str]:
    """Stemless labels the networks use that ``declared`` does not name, in
    order of first use."""
    out: list[str] = []
    for net in networks:
        for c in net.concepts():
            if c.stemless and c.label not in declared and c.label not in out:
                out.append(c.label)
    return out


def ancestors(lex: Lexicon, concept: Concept) -> frozenset[Concept]:
    """The definition-head chain from the concept up, plus the concept itself.

    The set is shared with the lexicon's table, hence a frozenset; an
    undefined concept gets ``frozenset({concept})``. A defined concept's set
    is built on the first ask, top-down: the walk up stops at the first
    concept already in the table (or undefined), and each concept on the way
    gets its parent's set plus itself, so a chain is walked once, not once
    per concept on it.
    """
    table = lex.ancestor_table
    got = table.get(concept)
    if got is not None:
        return got
    defined = lex.definitions
    if concept not in defined:
        return frozenset((concept,))
    trail, cur = [], concept
    while cur not in table and cur in defined:
        trail.append(cur)
        cur = defined[cur].body.roots[0].head_concept()
    got = table.get(cur) or frozenset((cur,))
    for c in reversed(trail):
        got = table[c] = got | {c}
    return got


def is_a(lex: Lexicon, concept: Concept, category: Concept) -> bool:
    return category in ancestors(lex, concept)


def _substitute(node: Node, lex: Lexicon) -> tuple[Node, ...]:
    spec = tuple(n for s in node.specifiers for n in _substitute(s, lex))
    if node.is_capsule:
        body_roots = tuple(n for r in node.capsule.roots for n in _substitute(r, lex))
        return (Node(capsule=ConceptNetwork(body_roots), anchor=node.anchor, specifiers=spec),)
    defn = lex.definitions.get(node.concept)
    if defn is None:
        return (Node(concept=node.concept, anchor=node.anchor, specifiers=spec),)
    body_roots = tuple(rebuild(r) for r in defn.body.roots)
    if not spec and node.anchor is None:
        # bare occurrence: splice the body in directly
        return body_roots
    root = body_roots[0]
    if len(body_roots) == 1 and not root.specifiers:
        if root.is_capsule:
            # single capsule-root body ({have} macro): merge in place
            return (
                Node(
                    capsule=root.capsule,
                    anchor=node.anchor or root.anchor,
                    specifiers=spec,
                ),
            )
        return (Node(concept=root.concept, anchor=node.anchor or root.anchor, specifiers=spec),)
    # specified occurrence of a multi-node body: encapsulate to keep grouping
    return (Node(capsule=ConceptNetwork(body_roots), anchor=node.anchor, specifiers=spec),)


def expand(lex: Lexicon, concept: Concept, depth: int) -> ConceptNetwork:
    """Substitute definition bodies for the concept, ``depth`` levels deep.

    Depth 0 returns the bare concept; primitives return themselves at any
    depth. A multi-node body replaces its concept as an encapsulation whose
    head is the body's first root, so (girl > imaginative) expanded once more
    becomes (human > [young, female]) > imaginative with head human.
    """
    net = ConceptNetwork((Node(concept=concept),))
    for _ in range(depth):
        net = ConceptNetwork(tuple(n for r in net.roots for n in _substitute(r, lex)))
        if _nesting(net) > MAX_NESTING:  # as deep as a parsed network may be
            raise MalformedNetworkError(
                f"expanding {concept.text()} nests deeper than {MAX_NESTING} levels"
            )
    return net


def _nesting(net: ConceptNetwork) -> int:
    """Deepest nesting level in ``net``: 1 for a root, one more per specifier
    step and per step into a capsule body, as the tree-line parser counts."""
    deepest = 0
    stack = [(root, 1) for root in net.roots]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if node.is_capsule:
            stack.extend((root, level + 1) for root in node.capsule.roots)
        stack.extend((spec, level + 1) for spec in node.specifiers)
    return deepest
