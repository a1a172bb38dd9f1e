"""Concept and subnetwork similarity for analogical rule selection.

concept_sim compares two concepts through their definition-ancestor sets;
two concepts whose sets are disjoint score 0 at once.
network_sim finds the best structure-preserving alignment between two
networks; its score is the geometric mean of the aligned concept
similarities. Exact matches score 1; anything involving substitution is
capped by the alpha discount so exact rules always dominate analogues.

The alignment engine here is shared with the rules module, which plugs in a
richer node scorer, ``rule_node_sim`` (an is_a pre-test, memoized on the
lexicon like concept_sim), and allows prefix alignments. align_networks makes
its first checks (capsule flag, anchor, specifier count) before it calls the
scorer. ``RootIndex`` answers, for a tuple of patterns and a target root,
which patterns pass those checks and score above 0 at the root, so realize,
transfer and the chart align only those; it memoizes its answers on the
lexicon by the target's root key, bounded by the model. For realize,
``RootIndex.with_markers`` then drops each admitted rule with a role
marker that ``rule_node_sim`` scores 0 against every child of the target
root. The kernel passes plain (product, count, pairs) results up the tree;
only align_networks builds an Alignment. An alignment is its binding and score
alone: a remainder, a specifier child of a bound target node that is not
itself bound, is worked out from the binding by whoever reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable

from .lexicon import Lexicon, ancestors, is_a
from .network import Concept, ConceptNetwork, Node

DEFAULT_ALPHA = 0.9

NodeSim = Callable[[Concept, Concept], float]


def concept_sim(lex: Lexicon, a: Concept, b: Concept, alpha: float = DEFAULT_ALPHA) -> float:
    """Definition-overlap similarity in [0, 1]; 1 iff identical.

    Answers for two defined concepts are memoized on the lexicon, which
    bounds the memo by its definitions whatever concepts are passed in.
    """
    if a == b:
        return 1.0
    key = (a, b, alpha)
    got = lex.concept_sim_memo.get(key)
    if got is not None:
        return got
    got = _overlap(lex, a, b, alpha)
    if a in lex.definitions and b in lex.definitions:
        lex.concept_sim_memo[key] = got
    return got


def _overlap(lex: Lexicon, a: Concept, b: Concept, alpha: float) -> float:
    """``concept_sim`` of two distinct concepts, computed afresh: 0 at once
    when their ancestor sets are disjoint, which they stay less {a, b}."""
    aa, bb = ancestors(lex, a), ancestors(lex, b)
    if aa.isdisjoint(bb):
        return 0.0
    aa = aa - {a, b}
    bb = bb - {a, b}
    union = aa | bb
    return alpha * len(aa & bb) / len(union) if union else 0.0


def pure_node_sim(lex: Lexicon, alpha: float = DEFAULT_ALPHA) -> NodeSim:
    """network_sim scorer: stemless concepts are grammatical operators and
    must match exactly; everything else scores concept_sim."""

    def sim(pattern: Concept, target: Concept) -> float:
        if pattern == target:
            return 1.0
        if pattern.stemless or target.stemless:
            return 0.0
        return concept_sim(lex, pattern, target, alpha)

    return sim


def rule_node_sim(lex: Lexicon, alpha: float = DEFAULT_ALPHA) -> NodeSim:
    """Rule-matching scorer: is_a is tested before falling back to
    similarity, so a rule written over a definition-level concept (a rule
    over {verb}, or over tool) applies to anything defined beneath it.

    Alignments and ``RootIndex`` fills both ask this one scorer. A
    stemless pattern concept (a role marker such as {agent}) scores above 0
    only against itself or a concept ``is_a`` below it: the overlap is never
    reached. ``RootIndex.with_markers`` rests on that.
    Answers are memoized on the lexicon, one memo per alpha, for pairs of
    concepts each defined or a registered stemless concept (a role marker
    such as {agent}, sense 1, its label in the lexicon's registry): an
    answer depends only on the lexicon and alpha, and the memo is bounded by
    the definitions and the registry whatever concepts are passed in. A
    miss computes the overlap itself, leaving ``concept_sim``'s memo to
    ``concept_sim``.
    """
    memo = lex.rule_sim_memo.setdefault(alpha, {})
    defined, registry = lex.definitions, lex.stemless_registry

    def known(c: Concept) -> bool:
        return c in defined or (c.stemless and c.sense == 1 and c.label in registry)

    def sim(pattern: Concept, target: Concept) -> float:
        if pattern is target or pattern == target:
            return 1.0
        key = (pattern, target)
        got = memo.get(key)
        if got is not None:
            return got
        if is_a(lex, target, pattern):
            got = alpha
        elif pattern.stemless or target.stemless:
            got = 0.0
        else:
            got = _overlap(lex, pattern, target, alpha)
        if known(pattern) and known(target):
            memo[key] = got
        return got

    return sim


@dataclass
class Alignment:
    """A structure-preserving map of pattern nodes onto target nodes."""

    product: float
    count: int
    binding: dict[Node, Node] = field(default_factory=dict)

    @property
    def score(self) -> float:
        if self.count == 0:
            return 1.0
        return self.product ** (1.0 / self.count)


def _fits(pattern: Node, target: Node, total: bool) -> bool:
    """The first checks of a node alignment: capsule flag, anchor and
    specifier count. ``pattern`` can align with ``target`` only if they pass.
    They read no similarity."""
    m, n = len(pattern.specifiers), len(target.specifiers)
    return (
        pattern.is_capsule == target.is_capsule
        and pattern.anchor == target.anchor
        and (m == n if total else m <= n)
    )


class RootIndex:
    """The patterns, of a fixed tuple, that can align with a target at the root.

    ``candidates`` gives the indices, in declaration order and packed by
    ``pack``, of the patterns ``align_networks`` does not reject at the root
    under ``rule_node_sim(lex, alpha)``: the root counts agree, the first
    roots pass ``_fits``, and the pattern root is a capsule or scores above
    0 against the target root's concept. Every other pattern's alignment is
    None.

    The patterns are grouped by their root count, first root's anchor and
    capsule flag, so a target meets only its own group, whose members need
    no more specifiers than it has. The answer depends only on the target's
    root key: root count, anchor, specifier count (clamped at the widest
    pattern root) and root concept (None for a capsule). It is memoized,
    filled as it is first asked for, but only when the concept is None,
    defined or used in some pattern, so the memo is bounded by the model
    whatever targets come. A fill scores with ``rule_node_sim`` itself, so
    the pairs it asks land in the one memo that alignments read.
    """

    def __init__(self, source: object, patterns: tuple[ConceptNetwork, ...], alpha: float, pack):
        self.source = source  # what the patterns were taken from
        self.patterns = patterns
        self.alpha = alpha
        self.pack = pack
        # (root count, anchor, capsule flag) -> [(specifier count, concept,
        # index)] of the patterns' first roots, in declaration order
        self.groups: dict[tuple, list[tuple[int, Concept | None, int]]] = {}
        for i, p in enumerate(patterns):
            root = p.roots[0]
            shape = (len(p.roots), root.anchor, root.is_capsule)
            self.groups.setdefault(shape, []).append((len(root.specifiers), root.concept, i))
        self.widest = max((len(p.roots[0].specifiers) for p in patterns), default=0)
        self.concepts: set[Concept] | None = None  # those the patterns use, once asked for
        self.memo: dict[tuple, object] = {}
        # per pattern, once asked for: (root index, concept) of each stemless
        # child of its roots
        self.markers: list[tuple[tuple[int, Concept], ...] | None] = [None] * len(patterns)

    def candidates(self, roots: tuple[Node, ...], lex: Lexicon):
        root = roots[0]
        group = self.groups.get((len(roots), root.anchor, root.is_capsule))
        if group is None:
            return self.pack(())
        concept, width = root.concept, min(len(root.specifiers), self.widest)
        key = (len(roots), root.anchor, width, concept)
        got = self.memo.get(key)
        if got is None:
            sim = rule_node_sim(lex, self.alpha)
            got = self.pack(
                i for m, head, i in group if m <= width and (head is None or sim(head, concept) > 0)
            )
            if concept is None or concept in lex.definitions or concept in self._used():
                self.memo[key] = got
        return got

    def with_markers(self, picked, roots: tuple[Node, ...], lex: Lexicon) -> list[int]:
        """The patterns of ``picked``, in its order, whose every stemless root
        child (a role marker such as {agent}) is, or is an ancestor of, some
        child concept of the target root at the same index.

        Every other pattern's alignment is None: it must bind each child of a
        pattern root to a distinct child of that target root scoring above 0,
        and ``rule_node_sim`` scores a stemless pattern concept above 0 only
        against itself or a concept ``is_a`` below it.
        """
        held: dict[int, set[Concept]] = {}  # root index -> the ancestors of its children
        out = []
        for i in picked:
            markers = self.markers[i]
            if markers is None:
                markers = self.markers[i] = tuple(
                    (k, s.concept)
                    for k, root in enumerate(self.patterns[i].roots)
                    for s in root.specifiers
                    if not s.is_capsule and s.concept.stemless
                )
            for k, marker in markers:
                got = held.get(k)
                if got is None:
                    children = roots[k].specifiers
                    got = held[k] = set().union(
                        *(ancestors(lex, s.concept) for s in children if not s.is_capsule)
                    )
                if marker not in got:
                    break
            else:
                out.append(i)
        return out

    def _used(self) -> set[Concept]:
        if self.concepts is None:
            self.concepts = {c for p in self.patterns for c in p.concepts()}
        return self.concepts


def root_index(lex: Lexicon, matcher: str, alpha: float, source: object, build):
    """The lexicon's index for ``matcher`` at ``alpha``: the one it holds if
    that was built from ``source`` (by identity), else ``build()``, kept in
    its place. Nothing is built before a matcher first runs."""
    slot = (matcher, alpha)
    index = lex.root_indexes.get(slot)
    if index is None or index.source is not source:
        index = lex.root_indexes[slot] = build()
    return index


# A node alignment as the kernel passes it up: (product, count, pairs), the
# pairs (pattern node, target node) in binding order. Only align_networks
# builds an Alignment.
_Aligned = tuple[float, int, list[tuple[Node, Node]]]


def _align_node(pattern: Node, target: Node, sim: NodeSim, total: bool) -> _Aligned | None:
    if not _fits(pattern, target, total):
        return None
    pc = pattern.specifiers
    body: list[_Aligned] = []
    if pattern.is_capsule:
        proots, troots = pattern.capsule.roots, target.capsule.roots
        if len(proots) != len(troots):
            return None
        for p, t in zip(proots, troots):
            sub = _align_node(p, t, sim, total)
            if sub is None:
                return None
            body.append(sub)
        product, count = 1.0, 0
    else:
        s = sim(pattern.concept, target.concept)
        if s <= 0.0:
            return None
        if not pc:
            return s, 1, [(pattern, target)]  # a leaf: under total the target is one too
        product, count = s, 1
    children = _align_children(pc, target.specifiers, sim, total)
    if children is None:
        return None
    # the node, then its children, then its capsule body: products in that
    # order, and pairs in that binding order
    pairs = [(pattern, target)]
    for sub_product, sub_count, sub_pairs in (children, *body):
        product *= sub_product
        count += sub_count
        pairs += sub_pairs
    return product, count, pairs


def _align_children(
    pc: tuple[Node, ...], tc: tuple[Node, ...], sim: NodeSim, total: bool
) -> _Aligned | None:
    """Best assignment of the pattern children to distinct target children:
    the first, in permutation order, whose product is strictly greatest."""
    if len(pc) == 1:  # the permutations are the target children in order
        best = None
        for t in tc:
            sub = _align_node(pc[0], t, sim, total)
            if sub is not None and (best is None or sub[0] > best[0]):
                best = sub
        return best
    options = [[_align_node(p, t, sim, total) for t in tc] for p in pc]
    if not all(map(any, options)):  # some pattern child aligns with no target child
        return None
    best, best_product = None, 0.0
    for assign in permutations(range(len(tc)), len(pc)):
        product = 1.0  # multiplied left to right
        for i, j in enumerate(assign):
            sub = options[i][j]
            if sub is None:
                break
            product *= sub[0]
        else:
            if best is None or product > best_product:
                best, best_product = assign, product
    if best is None:
        return None
    count, pairs = 0, []
    for i, j in enumerate(best):
        _, sub_count, sub_pairs = options[i][j]
        count += sub_count
        pairs += sub_pairs
    return best_product, count, pairs


def align_networks(
    pattern: ConceptNetwork,
    target: ConceptNetwork,
    sim: NodeSim,
    *,
    total: bool,
) -> Alignment | None:
    """Best alignment of the pattern onto the target's root region.

    Root lists are paired index-wise (root order is significant). With
    ``total`` every target node must be matched (a bijection); otherwise the
    pattern must embed prefix-closed, and a target child left unbound is a
    remainder of its bound parent. Only the binding is returned: no remainder
    list is kept. A node pair fails on capsule flag, anchor or specifier
    count before ``sim`` is called on it.
    """
    if len(pattern.roots) != len(target.roots):
        return None
    product, count, binding = 1.0, 0, {}
    for p, t in zip(pattern.roots, target.roots):
        sub = _align_node(p, t, sim, total)
        if sub is None:
            return None
        product *= sub[0]
        count += sub[1]
        binding.update(sub[2])
    return Alignment(product, count, binding)


def network_sim(
    lex: Lexicon,
    pattern: ConceptNetwork,
    target: ConceptNetwork,
    alpha: float = DEFAULT_ALPHA,
) -> tuple[float, dict[Node, Node]]:
    """Best-alignment similarity between two networks.

    Returns (score, binding). Score 0 with an empty binding when no valid
    alignment exists. The maximum is exact: every structure-preserving
    bijection is considered (networks here are desk-scale).
    """
    got = align_networks(pattern, target, pure_node_sim(lex, alpha), total=True)
    if got is None or got.product <= 0.0:
        return 0.0, {}
    return got.score, got.binding
