"""The rule filters skip only rules that cannot match.

The chart's corner filter skips a rule on a span by part count and by its
literal first and last parts; every rule it skips must have no tiling of that
span, checked with ``_tilings`` on the chart as it stands when the span is
swept first. The root-shape gate in ``rules._match_region`` skips a rule
before aligning it; every pattern and target it skips must have no alignment
under ``align_networks(total=False)``. Inputs are every segmentation of
demo_corpus.tsv and of the English column of translations.tsv, the realize and
translate passes over those corpora, and seeded generated networks against the
english.cn rules and the english_sov.pair transfer rules.
"""

from __future__ import annotations

import random
from importlib import resources

import pytest

import conspec.parser
import conspec.rules
from conspec.model import load_corpus, load_model
from conspec.network import ConceptNetwork
from conspec.parser import _chart_parse, segment
from conspec.realizer import realize
from conspec.rules import _collect_transfer_matches, match_rules
from conspec.similarity import align_networks
from conspec.transfer import load_pair, translate

from .gen import gen_network

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

    def record_tilings(rule, tokens, frags, i, j):
        if not charts or charts[-1] is not frags:
            charts.append(frags)
        span = (id(frags), i, j)
        if span not in tiled:
            # cells below (i, j) are final here; only the one-part pattern
            # rules, which are never skipped, read the cell being filled
            tiled[span] = set()
            tileable[span] = [r for r in model.rules if tilings(r, tokens, frags, i, j)]
        tiled[span].add(id(rule))
        return tilings(rule, tokens, frags, i, j)

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
def gate_checks(monkeypatch):
    """Wrap ``_match_region`` so that each call the gate stops before
    ``align_networks`` is checked against the unfiltered alignment; returns
    the running [gated, aligned] counts."""
    match_region = conspec.rules._match_region
    counts = [0, 0]

    def record_align(pattern, target, sim, *, total):
        counts[1] += 1
        return align_networks(pattern, target, sim, total=total)

    def record_match(pattern, target, sim, tau, owner):
        before = counts[1]
        got = match_region(pattern, target, sim, tau, owner)
        if counts[1] == before:
            counts[0] += 1
            assert got is None
            assert align_networks(pattern, target, sim, total=False) is None
        return got

    monkeypatch.setattr(conspec.rules, "align_networks", record_align)
    monkeypatch.setattr(conspec.rules, "_match_region", record_match)
    return counts


def test_gate_skips_only_unalignable_corpus_matches(gate_checks):
    model = load_model(str(DATA / "english.cn"))
    pair = load_pair(str(DATA / "english_sov.pair"))
    for _, net, _ in load_corpus(str(DATA / "demo_corpus.tsv")):
        realize(model, net)
    for raw in (DATA / "translations.tsv").read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            translate(pair, raw.split("\t")[0])
    gated, aligned = gate_checks
    assert gated > 0 and aligned > 0


def test_gate_skips_only_unalignable_generated_matches(gate_checks):
    model = load_model(str(DATA / "english.cn"))
    pair = load_pair(str(DATA / "english_sov.pair"))
    lex, pragmas = model.lexicon, model.pragmas
    rng = random.Random(8)
    for _ in range(400):
        net = gen_network(rng, max_nodes=6)
        for node in net.iter_nodes():
            region = ConceptNetwork((node,))
            match_rules(model.rules, lex, region, alpha=pragmas.alpha, tau=pragmas.tau)
        _collect_transfer_matches(pair.transfer_rules, lex, net, pragmas.alpha, pragmas.tau)
    gated, aligned = gate_checks
    assert gated > 0 and aligned > 0
