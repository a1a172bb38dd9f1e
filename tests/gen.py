"""Seeded random network generator used by property and oracle tests.

Anchors are only generated where they resolve (up anchors at depth 1 inside a
capsule that has a parent; down anchors inside a capsule with exactly one
outside specifier), so canonicalize never rejects a generated network.

Two generated models extend the shipped english.cn with copies of a verb
and its rules: ``rule_count_model`` (two rules per copy, for load and match
cost against the rule count) and ``beam_loss_model`` (one rule per copy,
whose analogical realizations crowd realize's beam).

``STRESS_MODEL`` is ``tests/data/stress.cn``, a frozen copy of english.cn.
The oracle and skip tests whose counts have floors run over it beside the
shipped model, so those floors keep a load to stand on whatever edits the
shipped model later gets. ``tests/test_tooling.py`` pins its sha256.
"""

from __future__ import annotations

import random
from importlib import resources
from pathlib import Path

from conspec.network import DOWN, UP, Anchor, Concept, ConceptNetwork, Node

STRESS_MODEL = Path(__file__).resolve().parent / "data" / "stress.cn"

LABELS = ["trust", "jump", "dog", "teacher", "Anne", "rock", "pick up", "berry", "holy cow"]
STEMLESS = ["past", "present", "agent", "theme", "plural", "re", "?"]


def gen_concept(rng: random.Random) -> Concept:
    if rng.random() < 0.35:
        return Concept(rng.choice(STEMLESS), True)
    sense = 2 if rng.random() < 0.1 else 1
    return Concept(rng.choice(LABELS), False, sense)


# swap pools: labels whose pool-mates are definition-similar under the
# test lexicon in test_similarity (same category definition)
SWAP_POOLS = [
    ["trust", "jump", "pick up"],
    ["rock", "berry", "holy cow"],
    ["teacher", "Anne"],
]


def mutate_network(
    rng: random.Random, net: ConceptNetwork, relabel: float = 0.5
) -> ConceptNetwork:
    """Alignable sibling of a network: concepts swap within category pools,
    specifier lists shuffle. With relabel=0 the result stays equal() to the
    input (pure specifier permutation)."""
    pool_of = {label: pool for pool in SWAP_POOLS for label in pool}

    def conv(node: Node) -> Node:
        spec = [conv(s) for s in node.specifiers]
        rng.shuffle(spec)
        if node.is_capsule:
            body = ConceptNetwork(tuple(conv(r) for r in node.capsule.roots))
            return Node(capsule=body, anchor=node.anchor, specifiers=tuple(spec))
        concept = node.concept
        if not concept.stemless and concept.label in pool_of and rng.random() < relabel:
            concept = Concept(rng.choice(pool_of[concept.label]), False, concept.sense)
        return Node(concept=concept, anchor=node.anchor, specifiers=tuple(spec))

    return ConceptNetwork(tuple(conv(r) for r in net.roots))


def shuffle_specifiers(rng: random.Random, net: ConceptNetwork) -> ConceptNetwork:
    """Permute specifier lists only; the result is equal() to the input."""
    return mutate_network(rng, net, relabel=0.0)


def gen_network(
    rng: random.Random,
    max_nodes: int = 8,
    *,
    allow_capsules: bool = True,
    allow_anchors: bool = True,
) -> ConceptNetwork:
    budget = [rng.randint(1, max_nodes)]

    def node(depth: int, up_ok: bool, down_ok: bool, has_parent: bool) -> Node:
        budget[0] -= 1
        anchor = None
        if allow_anchors and depth > 0 and rng.random() < 0.15:
            if up_ok and (not down_ok or rng.random() < 0.7):
                anchor = Anchor(UP, 1)
            elif down_ok:
                anchor = Anchor(DOWN, 1)
        make_capsule = allow_capsules and depth < 2 and budget[0] >= 2 and rng.random() < 0.25
        n_spec = 0
        if budget[0] > 0:
            n_spec = rng.randint(0, min(3, budget[0]))
            budget[0] -= n_spec
        if make_capsule:
            budget[0] -= 1
            body = node(depth + 1, up_ok=has_parent, down_ok=(n_spec == 1), has_parent=False)
            shell = Node(capsule=ConceptNetwork((body,)))
            shell.specifiers = tuple(
                node(depth, up_ok, False, True) for _ in range(n_spec)
            )
            return shell
        out = Node(concept=gen_concept(rng), anchor=anchor)
        out.specifiers = tuple(node(depth, up_ok, False, True) for _ in range(n_spec))
        return out

    root = node(0, up_ok=False, down_ok=False, has_parent=False)
    return ConceptNetwork((root,))


def _english() -> str:
    return (resources.files("conspec.data") / "english.cn").read_text(encoding="utf-8")


def rule_count_model(n: int) -> str:
    """english.cn plus ``n`` copies of a verb ``wK`` with an argument rule and
    a past-tense rule: 35 + 2n rules."""
    lines = [_english()]
    for k in range(n):
        lines += [
            f"w{k} = {{verb}}",
            f"w{k} > [{{agent}} > he, {{theme}} > John] <=> [he, w{k}, John]",
            f"w{k} > {{past}} <=> ['w{k}ed']",
        ]
    return "\n".join(lines) + "\n"


def beam_loss_model(n: int = 20) -> str:
    """english.cn plus ``n`` copies of a verb ``zK`` whose argument rule ends
    in the literal 'qqK'. At 20 copies and beam 16, realize loses the best
    realization of "the rain washed the truck"."""
    lines = [_english()]
    for k in range(n):
        lines += [
            f"z{k} = {{verb}}",
            f"z{k} > [{{agent}} > he, {{theme}} > John] <=> [he, z{k}, John, 'qq{k}']",
        ]
    return "\n".join(lines) + "\n"
