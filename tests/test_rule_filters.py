"""The rule filters skip only rules that cannot match.

The chart's corner filter skips a rule on a span by part count and by its
literal first and last parts; every rule it skips must have no tiling of that
span, checked with ``_tilings``, unmasked, on the chart as it stands when the
span is swept first, over every segmentation of demo_corpus.tsv and of the
English column of translations.tsv.

``rules._find_embeddings`` skips an lhs node whose concept differs from the
rule part's root before aligning the part with it; every node it skips must
have no exact alignment, for every part of the shipped models and for seeded
generated (sub-chain, lhs) pairs.
"""

from __future__ import annotations

import random
from importlib import resources

import pytest

import conspec.parser
import conspec.rules
from conspec.model import load_corpus, load_model
from conspec.network import ConceptNetwork, Node
from conspec.parser import _chart_parse, segment
from conspec.rules import PatternPart, _exact_sim
from conspec.similarity import align_networks
from conspec.transfer import load_pair

from .gen import gen_network
from .test_chart_oracle import unmasked

DATA = resources.files("conspec.data")


def english_surfaces() -> list[str]:
    out = [surface for surface, _, _ in load_corpus(str(DATA / "demo_corpus.tsv"))]
    for raw in (DATA / "translations.tsv").read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            out.append(raw.split("\t")[0])
    return out


def test_corner_filter_skips_only_rules_without_a_tiling(monkeypatch):
    model = load_model(str(DATA / "english.cn"))
    tilings = conspec.parser._tilings
    tiled: dict[tuple, set[int]] = {}  # span -> ids of the rules it tiled
    tileable: dict[tuple, list] = {}  # span -> rules with a tiling at its first sweep
    charts: list = []  # keeps every chart referenced, so its id stays unique

    def open_tilings(rule, tokens, frags, ends, i, j):
        ones, open_ends = unmasked(rule, ends)
        return tilings(rule, ones, tokens, frags, open_ends, i, j)

    def record_tilings(rule, bits, tokens, frags, ends, i, j):
        if not charts or charts[-1] is not frags:
            charts.append(frags)
        span = (id(frags), i, j)
        if span not in tiled:
            # cells below (i, j) are final here; only the one-part pattern
            # rules, which are never skipped, read the cell being filled.
            # Unmasked, a rule has a tiling wherever its parts cover cells
            # that hold items.
            tiled[span] = set()
            tileable[span] = [r for r in model.rules if open_tilings(r, tokens, frags, ends, i, j)]
        tiled[span].add(id(rule))
        return tilings(rule, bits, tokens, frags, ends, i, j)

    monkeypatch.setattr(conspec.parser, "_tilings", record_tilings)
    spans = 0
    for surface in english_surfaces():
        for tokens in segment(model, surface):
            _chart_parse(model, tokens)
            spans += len(tokens) * (len(tokens) + 1) // 2

    assert len(tiled) == spans  # every span tiled some rule, so each was checked
    skipped = 0
    for span, rules in tileable.items():
        missing = [r.rule_id for r in rules if id(r) not in tiled[span]]
        assert missing == [], span
        skipped += len(model.rules) - len(tiled[span])
    assert skipped > 0


@pytest.fixture
def embedding_checks(monkeypatch):
    """A check(pattern, lhs) that runs ``_find_embeddings`` and asserts that
    every lhs node it does not align has no exact alignment; returns it with
    the running [skipped, aligned] counts."""
    aligned_roots: set[int] = set()
    counts = [0, 0]

    def record_align(pattern, target, sim, *, total):
        aligned_roots.add(id(target.roots[0]))
        return align_networks(pattern, target, sim, total=total)

    def check(pattern, lhs):
        aligned_roots.clear()
        got = conspec.rules._find_embeddings(pattern, conspec.rules._nodes_by_concept(lhs))
        for node in lhs.iter_nodes():
            if id(node) in aligned_roots:
                counts[1] += 1
                continue
            counts[0] += 1
            assert align_networks(pattern, ConceptNetwork((node,)), _exact_sim, total=False) is None
        return got

    monkeypatch.setattr(conspec.rules, "align_networks", record_align)
    return check, counts


def test_embedding_gate_skips_only_unalignable_model_parts(embedding_checks):
    check, counts = embedding_checks
    models = [load_model(str(DATA / name)) for name in ("english.cn", "sov.cn")]
    for name in ("english_sov.pair", "english_identity.pair"):
        pair = load_pair(str(DATA / name))
        models += [pair.source_model, pair.receptor_model]
    for model in models:
        for rule in model.rules:
            for part in rule.parts:
                if isinstance(part, PatternPart):
                    assert len(check(part.pattern, rule.lhs)) == 1
    skipped, aligned = counts
    assert skipped > 0 and aligned > 0


def sub_chain(rng: random.Random, node: Node) -> Node:
    """A fresh copy of ``node`` keeping a random prefix-closed part of its
    specifiers (every capsule body root is kept)."""
    spec = tuple(sub_chain(rng, s) for s in node.specifiers if rng.random() < 0.6)
    capsule = None
    if node.is_capsule:
        capsule = ConceptNetwork(tuple(sub_chain(rng, r) for r in node.capsule.roots))
    return Node(concept=node.concept, capsule=capsule, anchor=node.anchor, specifiers=spec)


def test_embedding_gate_skips_only_unalignable_generated_parts(embedding_checks):
    check, counts = embedding_checks
    rng = random.Random(9)
    for _ in range(300):
        lhs = gen_network(rng, max_nodes=8)
        node = rng.choice(list(lhs.iter_nodes()))
        assert check(ConceptNetwork((sub_chain(rng, node),)), lhs)
    skipped, aligned = counts
    assert skipped > 0 and aligned > 0
