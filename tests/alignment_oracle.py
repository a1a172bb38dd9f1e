"""The specifier alignment as it was before ``align_networks`` made its own
root-shape checks, kept verbatim as an oracle.

``_align_node`` here memoizes each (pattern node, target node) pair by
``id()`` and checks specifier counts only in ``_align_children``, after the
node's own similarity; ``_align_children`` combines every permutation's
alignment before comparing products. ``tests/test_alignment_oracle.py``
checks that ``conspec.similarity.align_networks`` gives the same product,
count and binding order as this version.
"""

from __future__ import annotations

from itertools import permutations

from conspec.network import ConceptNetwork, Node
from conspec.similarity import Alignment, NodeSim


def _combine(parts: list[Alignment]) -> Alignment:
    out = Alignment(1.0, 0)
    for p in parts:
        out.product *= p.product
        out.count += p.count
        out.binding.update(p.binding)
    return out


def _align_node(pattern: Node, target: Node, sim: NodeSim, total: bool, memo) -> Alignment | None:
    key = (id(pattern), id(target))
    if key not in memo:
        memo[key] = None  # until the pair is found to align
        if pattern.is_capsule != target.is_capsule or pattern.anchor != target.anchor:
            return None
        parts: list[Alignment] = []
        if pattern.is_capsule:
            proots, troots = pattern.capsule.roots, target.capsule.roots
            if len(proots) != len(troots):
                return None
            for p, t in zip(proots, troots):
                sub = _align_node(p, t, sim, total, memo)
                if sub is None:
                    return None
                parts.append(sub)
            self_part = Alignment(1.0, 0, {pattern: target})
        else:
            s = sim(pattern.concept, target.concept)
            if s <= 0.0:
                return None
            self_part = Alignment(s, 1, {pattern: target})
            if not pattern.specifiers and not (total and target.specifiers):
                memo[key] = self_part  # a leaf: its children align trivially
                return self_part
        children = _align_children(pattern, target, sim, total, memo)
        if children is None:
            return None
        memo[key] = _combine([self_part, children] + parts)
    return memo[key]


def _align_children(
    pattern: Node, target: Node, sim: NodeSim, total: bool, memo
) -> Alignment | None:
    pc, tc = pattern.specifiers, target.specifiers
    if total and len(pc) != len(tc):
        return None
    if len(pc) > len(tc):
        return None
    if not pc:
        return Alignment(1.0, 0)
    options: list[list[Alignment | None]] = [
        [_align_node(p, t, sim, total, memo) for t in tc] for p in pc
    ]
    best: Alignment | None = None
    for assign in permutations(range(len(tc)), len(pc)):
        picked = []
        ok = True
        for i, j in enumerate(assign):
            sub = options[i][j]
            if sub is None:
                ok = False
                break
            picked.append(sub)
        if not ok:
            continue
        combined = _combine(picked)
        if best is None or combined.product > best.product:
            best = combined
    return best


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
    list is kept.
    """
    if len(pattern.roots) != len(target.roots):
        return None
    memo: dict = {}
    parts = []
    for p, t in zip(pattern.roots, target.roots):
        sub = _align_node(p, t, sim, total, memo)
        if sub is None:
            return None
        parts.append(sub)
    return _combine(parts)
