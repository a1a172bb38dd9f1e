"""Concept and subnetwork similarity for analogical rule selection.

concept_sim compares two concepts through their definition-ancestor sets.
network_sim finds the best structure-preserving alignment between two
networks; its score is the geometric mean of the aligned concept
similarities. Exact matches score 1; anything involving substitution is
capped by the alpha discount so exact rules always dominate analogues.

The alignment engine here is shared with the rules module, which plugs in a
richer node scorer (is_a pre-test) and allows prefix alignments; callers
need no gate of their own, since align_networks makes its first checks
before it calls the scorer. An alignment is its binding and score alone: a
remainder, a specifier child of a bound target node that is not itself
bound, is worked out from the binding by whoever reads it.
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
    aa = ancestors(lex, a) - {a, b}
    bb = ancestors(lex, b) - {a, b}
    union = aa | bb
    got = alpha * len(aa & bb) / len(union) if union else 0.0
    if a in lex.definitions and b in lex.definitions:
        lex.concept_sim_memo[key] = got
    return got


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
    over {verb}, or over tool) applies to anything defined beneath it."""

    def sim(pattern: Concept, target: Concept) -> float:
        if pattern == target:
            return 1.0
        if is_a(lex, target, pattern):
            return alpha
        if pattern.stemless or target.stemless:
            return 0.0
        return concept_sim(lex, pattern, target, alpha)

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


def _combine(parts: list[Alignment]) -> Alignment:
    out = Alignment(1.0, 0)
    for p in parts:
        out.product *= p.product
        out.count += p.count
        out.binding.update(p.binding)
    return out


def _align_node(pattern: Node, target: Node, sim: NodeSim, total: bool) -> Alignment | None:
    pc, tc = pattern.specifiers, target.specifiers
    if (
        pattern.is_capsule != target.is_capsule
        or pattern.anchor != target.anchor
        or len(pc) > len(tc)
        or (total and len(pc) != len(tc))
    ):
        return None
    parts: list[Alignment] = []
    if pattern.is_capsule:
        proots, troots = pattern.capsule.roots, target.capsule.roots
        if len(proots) != len(troots):
            return None
        for p, t in zip(proots, troots):
            sub = _align_node(p, t, sim, total)
            if sub is None:
                return None
            parts.append(sub)
        self_part = Alignment(1.0, 0, {pattern: target})
    else:
        s = sim(pattern.concept, target.concept)
        if s <= 0.0:
            return None
        self_part = Alignment(s, 1, {pattern: target})
        if not pc:
            return self_part  # a leaf: under total the target is one too
    children = _align_children(pc, tc, sim, total)
    if children is None:
        return None
    return _combine([self_part, children] + parts)


def _align_children(
    pc: tuple[Node, ...], tc: tuple[Node, ...], sim: NodeSim, total: bool
) -> Alignment | None:
    """Best assignment of the pattern children to distinct target children:
    the first, in permutation order, whose product is strictly greatest."""
    options = [[_align_node(p, t, sim, total) for t in tc] for p in pc]
    if not all(map(any, options)):  # some pattern child aligns with no target child
        return None
    best, best_product = None, 0.0
    for assign in permutations(range(len(tc)), len(pc)):
        product = 1.0  # multiplied left to right, as _combine does
        for i, j in enumerate(assign):
            sub = options[i][j]
            if sub is None:
                break
            product *= sub.product
        else:
            if best is None or product > best_product:
                best, best_product = assign, product
    if best is None:
        return None
    return _combine([options[i][j] for i, j in enumerate(best)])


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
    parts = []
    for p, t in zip(pattern.roots, target.roots):
        sub = _align_node(p, t, sim, total)
        if sub is None:
            return None
        parts.append(sub)
    return _combine(parts)


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
