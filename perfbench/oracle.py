"""Exhaustive reference for ``network_sim``: tries every specifier permutation.

It shares only the concept scorer (``concept_sim``) with the engine, as the
brute force of acceptance criterion 7 does; the search over alignments is its
own. fanout_sim checks every engine score against it to 1e-12.
"""

from __future__ import annotations

from itertools import permutations

import conspec as cs


def _anchor(node):
    return (node.anchor.direction, node.anchor.depth) if node.anchor else None


def _cross(left, right):
    return [(x * y, n + m) for x, n in left for y, m in right]


def _node_sim(lex, p, t, alpha):
    if p == t:
        return 1.0
    if p.stemless or t.stemless:
        return 0.0
    return cs.concept_sim(lex, p, t, alpha)


def brute_force_sim(lex, pattern, target, alpha=0.9) -> float:
    """Best geometric-mean score over every structure-preserving bijection."""
    memo: dict[tuple[int, int], list[tuple[float, int]]] = {}

    def alignments(p, t):
        """Every (product, count) of a bijection of subtree p onto subtree t."""
        key = (id(p), id(t))
        if key not in memo:
            memo[key] = enumerate_alignments(p, t)
        return memo[key]

    def enumerate_alignments(p, t):
        if p.is_capsule != t.is_capsule or _anchor(p) != _anchor(t):
            return []
        if len(p.specifiers) != len(t.specifiers):
            return []
        if p.is_capsule:
            if len(p.capsule.roots) != len(t.capsule.roots):
                return []
            own = [(1.0, 0)]
            for pr, tr in zip(p.capsule.roots, t.capsule.roots):
                own = _cross(own, alignments(pr, tr))
        else:
            s = _node_sim(lex, p.concept, t.concept, alpha)
            own = [(s, 1)] if s > 0.0 else []
        if not own:
            return []
        out = []
        for perm in permutations(t.specifiers):
            acc = own
            for pc, tc in zip(p.specifiers, perm):
                acc = _cross(acc, alignments(pc, tc))
                if not acc:
                    break
            out.extend(acc)
        return out

    if len(pattern.roots) != len(target.roots):
        return 0.0
    totals = [(1.0, 0)]
    for pr, tr in zip(pattern.roots, target.roots):
        totals = _cross(totals, alignments(pr, tr))
    return max((prod ** (1.0 / count) for prod, count in totals if count), default=0.0)
