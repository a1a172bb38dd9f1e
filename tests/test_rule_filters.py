"""The rule filters skip only rules that cannot match.

A span's first chart sweep filters the rules twice. The corner table skips a
rule by part count and by its literal first and last parts; every rule it
skips must have no tiling of that span, checked with ``_tilings`` unmasked.
The corner masks then skip a listed rule whose first or last pattern part no
final cell at the span's edge can take, and a one-part pattern rule while the
cell being filled is empty; every rule they skip must have a masked
``_tilings`` of [] on the chart as it stood when the sweep reached it. Both
are checked over every segmentation of demo_corpus.tsv and of the English
column of translations.tsv, at beams 1, 2 and 16, with english.cn and again
with the stress model ``tests/gen.STRESS_MODEL``, and on the constructed
model of ``test_chart_oracle``.

``rules._find_embeddings`` skips an lhs node whose concept differs from the
rule part's root before aligning the part with it; every node it skips must
have no exact alignment, for every part of the shipped models and for seeded
generated (sub-chain, lhs) pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from importlib import resources

import pytest

import conspec.parser
import conspec.rules
from conspec.model import load_corpus, load_model, load_model_text
from conspec.network import ConceptNetwork, Node
from conspec.parser import _chart_parse, _ChartIndex, _tilings, segment
from conspec.rules import PatternPart, _exact_sim
from conspec.similarity import align_networks
from conspec.transfer import load_pair

from .gen import STRESS_MODEL, gen_network
from .test_chart_oracle import CAP_MODEL, final_ends, unmasked

DATA = resources.files("conspec.data")


def english_surfaces() -> list[str]:
    out = [surface for surface, _, _ in load_corpus(str(DATA / "demo_corpus.tsv"))]
    for raw in (DATA / "translations.tsv").read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            out.append(raw.split("\t")[0])
    return out


@dataclass
class Span:
    """One span's fill, as ``chart_sweeps`` saw it."""

    tokens: list[str]
    i: int
    j: int
    first: list  # the (rule number, rule) entries the corner table lists
    called: list = field(default_factory=list)  # rules handed to _tilings, in order
    skipped: list = field(default_factory=list)  # entries of ``first`` never handed to it
    visited: int = 0  # entries of ``first`` the first sweep has passed
    frags: dict = field(default_factory=dict)  # the finished chart's cells
    ends: list = field(default_factory=list)  # its ends, rebuilt from those cells


def chart_sweeps(monkeypatch, model, token_lists) -> list[Span]:
    """Charts each token list and returns every span's fill, in fill order.

    An entry of a span's first sweep that never reaches ``_tilings`` was
    skipped by the corner masks, and must have a masked ``_tilings`` of []
    on the chart as it stood when the sweep passed it. A skip adds nothing,
    so that is the chart at the span's next ``_tilings`` call. Past the
    span's last call it is the finished chart: ``_tilings`` over (i, j)
    reads only cells that were final when (i, j) was filled, and (i, j)
    itself, none of which changes afterwards.
    """
    sweep = _ChartIndex.sweep
    spans: list[Span] = []
    fill = iter(())  # the spans of the chart being filled, in fill order
    index: list[_ChartIndex] = []
    chart_ends: list = []  # the chart's own ends, once some rule reaches _tilings

    def passed(span: Span, frags, ends, upto: int) -> None:
        while span.visited < upto:
            r, rule = span.first[span.visited]
            got = _tilings(rule, index[0].part_bits[r], span.tokens, frags, ends, span.i, span.j)
            assert got == [], (span.tokens, span.i, span.j, rule.rule_id)
            span.skipped.append(rule)
            span.visited += 1

    def recording_sweep(self, first, last, width):
        index[:] = [self]
        tokens, i, j = next(fill)
        assert (first, last, width) == (tokens[i], tokens[j - 1], j - i)
        got = sweep(self, first, last, width)
        spans.append(Span(tokens, i, j, got))
        return got

    def recording_tilings(rule, bits, tokens, frags, ends, i, j):
        span = spans[-1]
        assert (span.tokens, span.i, span.j) == (tokens, i, j)
        chart_ends[:] = [ends]
        rest = [rl for _, rl in span.first[span.visited :]]
        at = next((k for k, rl in enumerate(rest) if rl is rule), None)
        if at is None:  # a later sweep: the first skipped all it had left
            passed(span, frags, ends, len(span.first))
        else:
            passed(span, frags, ends, span.visited + at)
            span.visited += 1
        span.called.append(rule)
        return _tilings(rule, bits, tokens, frags, ends, i, j)

    monkeypatch.setattr(_ChartIndex, "sweep", recording_sweep)
    monkeypatch.setattr(conspec.parser, "_tilings", recording_tilings)
    for tokens in token_lists:
        n = len(tokens)
        fill = iter([(tokens, i, i + w) for w in range(1, n + 1) for i in range(n - w + 1)])
        start, chart_ends[:] = len(spans), []
        frags = _chart_parse(model, tokens)
        assert next(fill, None) is None  # each span was swept first once, in fill order
        ends = final_ends(frags, n)
        assert chart_ends in ([], [ends])
        for span in spans[start:]:
            passed(span, frags, ends, len(span.first))
            span.frags, span.ends = frags, ends
    return spans


def models_and_tokens(beam, model_path=None):
    """The model at ``model_path`` (english.cn unless given) at ``beam``
    with every segmentation of the English surfaces, or the constructed
    model with its one input."""
    if beam == "cap":
        return load_model_text(CAP_MODEL), ["a b c d".split()]
    loaded = load_model(str(model_path or DATA / "english.cn"))
    model = replace(loaded, pragmas=replace(loaded.pragmas, beam=beam))
    return model, [tokens for surface in english_surfaces() for tokens in segment(model, surface)]


def check_filters(monkeypatch, beam, model_path=None) -> None:
    model, token_lists = models_and_tokens(beam, model_path)
    spans = chart_sweeps(monkeypatch, model, token_lists)
    by_table = by_edges = by_cell = 0
    for span in spans:
        # unmasked, a rule has a tiling wherever its parts cover cells that
        # hold items; the finished chart has the cells of the first sweep
        listed = {id(rule) for _, rule in span.first}
        for rule in model.rules:
            if id(rule) in listed:
                continue
            ones, open_ends = unmasked(rule, span.ends)
            assert _tilings(rule, ones, span.tokens, span.frags, open_ends, span.i, span.j) == []
            by_table += 1
        by_edges += sum(len(rule.parts) > 1 for rule in span.skipped)
        by_cell += sum(len(rule.parts) == 1 for rule in span.skipped)
    assert by_table > 0 and by_cell > 0
    if beam != "cap":  # its only rules of several parts span the whole input
        assert by_edges > 0


def test_corner_filter_skips_only_rules_without_a_tiling(monkeypatch):
    check_filters(monkeypatch, 16)  # english.cn's own beam


@pytest.mark.parametrize("beam", [1, 2, "cap"])
def test_corner_filters_skip_only_rules_without_a_tiling_at_other_beams(monkeypatch, beam):
    check_filters(monkeypatch, beam)


@pytest.mark.parametrize("beam", [1, 2, 16])
def test_corner_filters_skip_only_rules_without_a_tiling_on_the_stress_model(monkeypatch, beam):
    check_filters(monkeypatch, beam, STRESS_MODEL)


def _binding_view(binding: dict) -> list:
    return [(id(p), id(t)) for p, t in binding.items()]


@pytest.fixture
def embedding_checks(monkeypatch):
    """A check(pattern, lhs) that runs ``_find_embeddings`` and asserts that
    every lhs node it neither aligns nor places a one-node pattern on has no
    exact alignment, that each binding it returns without the aligner is the
    one the aligner finds at that node (in binding order), and that each
    alignment the aligner finds is exact (product 1, one count per concept
    node bound); returns its bindings with the running [skipped, aligned,
    placed] counts."""
    aligned_roots: set[int] = set()
    counts = [0, 0, 0]

    def record_align(pattern, target, sim, *, total):
        aligned_roots.add(id(target.roots[0]))
        return align_networks(pattern, target, sim, total=total)

    def check(pattern, lhs):
        aligned_roots.clear()
        got = conspec.rules._find_embeddings(pattern, conspec.rules._nodes_by_concept(lhs))
        placed = {id(binding[pattern.roots[0]]): binding for binding in got}
        want = []
        for node in lhs.iter_nodes():
            ref = align_networks(pattern, ConceptNetwork((node,)), _exact_sim, total=False)
            if ref is not None:
                assert ref.product == 1.0
                assert ref.count == sum(p.concept is not None for p in ref.binding)
                want.append(ref.binding)
            if id(node) in aligned_roots:
                counts[1] += 1
            elif id(node) in placed:
                counts[2] += 1
                assert ref is not None
                assert _binding_view(placed[id(node)]) == _binding_view(ref.binding)
            else:
                counts[0] += 1
                assert ref is None
        assert list(map(_binding_view, got)) == list(map(_binding_view, want))
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
    skipped, aligned, placed = counts
    assert skipped > 0 and aligned > 0 and placed > 0


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
    skipped, aligned, placed = counts
    assert skipped > 0 and aligned > 0 and placed > 0
