"""``align_networks`` against its oracle, call by call.

``tests/alignment_oracle.py`` keeps the alignment as it was before
``align_networks`` made its own root-shape checks: memoized, with specifier
counts checked after the node's own similarity, and one combined alignment
built per permutation. On every input both must give None, or the same
product (compared with ==), the same count and the same binding, pair for
pair in the same order.

The inputs are:

- every alignment the engine asks for while loading english.cn (and, in a
  second test, the stress model ``tests/gen.STRESS_MODEL``) and
  english_sov.pair, parsing and realizing demo_corpus.tsv and translating
  translations.tsv with that model as the pair's source model: rule parts
  against their lhs, part patterns against chart items, rule patterns
  against realize and transfer regions; and every one it skips because
  ``similarity.RootIndex`` leaves the pattern out for the target, where both
  must give None;
- 500 seeded ``tests/gen.py`` pairs, under ``pure_node_sim`` with
  ``total=True`` and under ``rule_node_sim`` with ``total=False``;
- fan-out pairs of up to 7 specifiers whose similarities tie, so that the
  first best assignment must be the same one.
"""

from __future__ import annotations

import random
from dataclasses import replace
from importlib import resources

import pytest

import conspec.parser
import conspec.rules
from conspec.model import load_corpus, load_model
from conspec.network import Concept, ConceptNetwork, Node
from conspec.parser import parse_text
from conspec.realizer import realize
from conspec.similarity import (
    Alignment,
    RootIndex,
    align_networks,
    pure_node_sim,
    rule_node_sim,
)
from conspec.transfer import load_pair, translate

from . import alignment_oracle
from .gen import STRESS_MODEL, gen_network, mutate_network
from .test_match_skips import left_out
from .test_lexicon import make_lexicon

DATA = resources.files("conspec.data")


def check(pattern: ConceptNetwork, target: ConceptNetwork, sim, total: bool) -> Alignment | None:
    """align_networks(pattern, target, sim, total=total), asserted equal to
    the oracle's answer."""
    got = align_networks(pattern, target, sim, total=total)
    want = alignment_oracle.align_networks(pattern, target, sim, total=total)
    if want is None:
        assert got is None
        return None
    assert got is not None
    assert got.product == want.product
    assert got.count == want.count
    assert [(id(p), id(t)) for p, t in got.binding.items()] == [
        (id(p), id(t)) for p, t in want.binding.items()
    ]
    return got


def engine_alignment_counts(monkeypatch, model_path) -> list[int]:
    """[None, aligned] counts of the engine's alignments, each checked, with
    the model at ``model_path`` as the pair's source model."""
    counts = [0, 0]  # [None, aligned]
    candidates = RootIndex.candidates

    def record(pattern, target, sim, *, total):
        got = check(pattern, target, sim, total)
        counts[got is not None] += 1
        return got

    def record_skips(index, roots, lex):
        """The index's answer; each pattern it leaves out is checked as an
        alignment that gives None."""
        got = candidates(index, roots, lex)
        sim, target = rule_node_sim(lex, index.alpha), ConceptNetwork(roots)
        for pattern in left_out(index, got):
            assert check(pattern, target, sim, False) is None
            counts[0] += 1
        return got

    monkeypatch.setattr(conspec.parser, "align_networks", record)
    monkeypatch.setattr(conspec.rules, "align_networks", record)
    monkeypatch.setattr(RootIndex, "candidates", record_skips)
    model = load_model(str(model_path))
    pair = replace(load_pair(str(DATA / "english_sov.pair")), source_model=model)
    for surface, net, _ in load_corpus(str(DATA / "demo_corpus.tsv")):
        parse_text(model, surface)
        realize(model, net)
    for raw in (DATA / "translations.tsv").read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            translate(pair, raw.split("\t")[0])
    return counts


def test_engine_alignments_match_oracle(monkeypatch):
    assert min(engine_alignment_counts(monkeypatch, DATA / "english.cn")) > 1000


def test_engine_alignments_match_oracle_on_the_stress_model(monkeypatch):
    assert min(engine_alignment_counts(monkeypatch, STRESS_MODEL)) > 1000


def prune(rng: random.Random, node: Node) -> Node:
    """A fresh copy of ``node`` keeping a random prefix-closed part of its
    specifiers (every capsule body root is kept)."""
    spec = tuple(prune(rng, s) for s in node.specifiers if rng.random() < 0.6)
    capsule = None
    if node.is_capsule:
        capsule = ConceptNetwork(tuple(prune(rng, r) for r in node.capsule.roots))
    return Node(concept=node.concept, capsule=capsule, anchor=node.anchor, specifiers=spec)


def test_generated_pairs_match_oracle():
    lex = make_lexicon(
        {
            "trust": "{verb}",
            "jump": "{verb}",
            "pick up": "{verb}",
            "dog": "animal",
            "teacher": "human",
            "Anne": "human",
            "rock": "thing",
            "berry": "thing",
            "holy cow": "thing",
        }
    )
    pure, rule = pure_node_sim(lex), rule_node_sim(lex)
    rng = random.Random(12)
    aligned = [0, 0]  # under pure_node_sim, under rule_node_sim
    for i in range(500):
        target = gen_network(rng, max_nodes=7)
        if i % 3 == 0:
            pattern = gen_network(rng, max_nodes=7)
        elif i % 3 == 1:
            pattern = mutate_network(rng, target)
        else:
            pattern = ConceptNetwork(tuple(prune(rng, r) for r in mutate_network(rng, target).roots))
        aligned[0] += check(pattern, target, pure, True) is not None
        aligned[1] += check(pattern, target, rule, False) is not None
    assert min(aligned) > 150


def fan(prefix: str, n: int) -> ConceptNetwork:
    """A root concept r with n leaf specifiers named prefix0, prefix1, ..."""
    leaves = tuple(Node(concept=Concept(f"{prefix}{i}")) for i in range(n))
    return ConceptNetwork((Node(concept=Concept("r"), specifiers=leaves),))


@pytest.mark.parametrize("k", range(1, 8))
def test_fanout_ties_break_as_oracle(k):
    rng = random.Random(k)
    pattern = fan("p", k)
    shapes = [(n, total) for n, total in ((k, True), (k, False), (k + 1, False)) if n <= 7]
    aligned = 0
    for n, total in shapes:
        target = fan("t", n)
        for values in ((0.5,), (0.25, 0.5, 1.0), (0.3, 0.7, 0.9), (0.0, 0.5, 0.5)):
            table = {(f"p{i}", f"t{j}"): rng.choice(values) for i in range(k) for j in range(n)}

            def sim(a: Concept, b: Concept) -> float:
                return table.get((a.label, b.label), 1.0)

            aligned += check(pattern, target, sim, total) is not None
    assert aligned >= 3 * len(shapes)  # every table without a 0 aligns
