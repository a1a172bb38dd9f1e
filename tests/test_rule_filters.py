"""The rule filters skip only rules that cannot match.

A span's first chart sweep visits only the rules of at most as many parts
as the span has tokens; every rule it leaves out must have no tiling of that
span, checked with ``_tilings`` unmasked. The gate then passes over a
visited rule whose first or last part's bit no entry at the span's edge
holds, a literal's text as a token or a final cell, and over a one-part
pattern rule while the cell being filled is empty; every rule it skips must
have a masked ``_tilings`` of [] on the chart as it stood when the sweep
reached it, or an empty cell. Both are checked over every segmentation of
demo_corpus.tsv and of the English column of translations.tsv, at beams 1,
2 and 16, with english.cn and again with the stress model
``tests/gen.STRESS_MODEL``; with the rule-count model of ``tests/gen``,
whose one-literal rules meet their text at the first and last token; and on
the constructed model of ``test_chart_oracle``.

``rules._find_embeddings`` skips an lhs node whose concept differs from the
rule part's root before aligning the part with it; every node it skips must
have no exact alignment, for every part of the shipped models and for seeded
generated (sub-chain, lhs) pairs.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field, replace
from importlib import resources

import pytest

import conspec.parser
import conspec.rules
from conspec.model import load_corpus, load_model, load_model_text
from conspec.network import ConceptNetwork, Node
from conspec.parser import _chart_parse, _tilings, chart_index, segment
from conspec.rules import Literal, PatternPart, _exact_sim
from conspec.similarity import align_networks
from conspec.transfer import load_pair

from .gen import STRESS_MODEL, gen_network, rule_count_model
from .test_canonical_oracle import COUNTED_VERBS
from .test_chart_oracle import CAP_MODEL, final_ends, lowest_literal_bit, unmasked

DATA = resources.files("conspec.data")


def english_surfaces() -> list[str]:
    out = [surface for surface, _, _ in load_corpus(str(DATA / "demo_corpus.tsv"))]
    for raw in (DATA / "translations.tsv").read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            out.append(raw.split("\t")[0])
    return out


@dataclass
class Visit:
    """One rule the sweep reached, as the gate saw it."""

    r: int
    rule: object
    cell: bool  # whether the cell being filled held an item
    opened: int  # the OR of the entries starting at the span's start
    closed: int  # and of those ending at its end
    # its masked ``_tilings`` there; for a one-part pattern rule, the cell
    # being filled if it held an item
    tilings: list
    tiled: bool = False  # whether the chart went on to tile it


@dataclass
class Span:
    """One span's fill, as ``chart_sweeps`` saw it."""

    tokens: list[str]
    i: int
    j: int
    visits: list[Visit] = field(default_factory=list)  # in visit order, over every sweep
    frags: dict = field(default_factory=dict)  # the finished chart's cells
    ends: list = field(default_factory=list)  # its ends, rebuilt from its tokens and cells

    @property
    def skipped(self) -> list[Visit]:
        return [v for v in self.visits if not v.tiled]


class _Visits(list):
    """A rule table whose every read, one per rule a sweep visits, is
    reported with the locals of the ``apply_rules_over`` call reading it."""

    def __init__(self, table, report):
        super().__init__(table)
        self.report = report

    def __getitem__(self, r):
        self.report(r, sys._getframe(1).f_locals)
        return super().__getitem__(r)


def chart_sweeps(monkeypatch, model, token_lists) -> list[Span]:
    """Charts each token list and returns every span's fill, in fill order.

    The chart reads ``edges[r]`` once as each sweep visits rule r; that read
    records the gate's inputs, and the rule's masked ``_tilings`` as the
    chart stands then. The rule was tiled if ``_tilings`` or
    ``_aligned_combos`` is called before the next visit: a rule the gate
    passes tiles through ``_tilings`` unless it is a one-part pattern rule,
    whose one tiling goes straight to ``_aligned_combos``.
    """
    index = chart_index(model)
    edges = index.edges
    spans: list[Span] = []
    now: list = []  # the tokens being charted, and the chart's own ends once a rule is visited

    def visit(r, chart):
        tokens, i, j, cell = now[0], chart["i"], chart["j"], bool(chart["cell"])
        if not spans or (spans[-1].tokens, spans[-1].i, spans[-1].j) != (tokens, i, j):
            spans.append(Span(tokens, i, j))
        now[1:] = [chart["ends"]]
        if edges[r] is None:
            tilings = [[(i, j)]] if cell else []
        else:
            tilings = _tilings(index.part_bits[r], chart["ends"], i, j)
        gate = (chart["opened"], chart["closed"])
        spans[-1].visits.append(Visit(r, model.rules[r], cell, *gate, tilings))

    def tiled(fn):
        def call(*args):
            spans[-1].visits[-1].tiled = True
            return fn(*args)

        return call

    monkeypatch.setattr(index, "edges", _Visits(edges, visit))
    monkeypatch.setattr(conspec.parser, "_tilings", tiled(_tilings))
    monkeypatch.setattr(conspec.parser, "_aligned_combos", tiled(conspec.parser._aligned_combos))
    for tokens in token_lists:
        start, now[:] = len(spans), [tokens]
        frags = _chart_parse(model, tokens)
        ends = final_ends(frags, tokens, index.literal_bits)
        assert now[1:] in ([], [ends])
        fill = [(i, i + w) for w in range(1, len(tokens) + 1) for i in range(len(tokens) - w + 1)]
        visited = [(span.i, span.j) for span in spans[start:]]
        assert visited == [span for span in fill if span in visited]  # in fill order, once each
        for span in spans[start:]:
            span.frags, span.ends = frags, ends
    return spans


def models_and_tokens(beam, model_path=None):
    """The model at ``model_path`` (english.cn unless given) at ``beam``
    with every segmentation of the English surfaces, or the constructed
    model with its one input, or the rule-count model with the English
    surfaces and its verbs."""
    if beam == "cap":
        return load_model_text(CAP_MODEL), ["a b c d".split()]
    if beam == "rule count":
        model = load_model_text(rule_count_model(20))
        surfaces = english_surfaces() + COUNTED_VERBS + ["w4ed", "w11ed the dog", "Fred w6ed"]
    else:
        loaded = load_model(str(model_path or DATA / "english.cn"))
        model = replace(loaded, pragmas=replace(loaded.pragmas, beam=beam))
        surfaces = english_surfaces()
    return model, [tokens for surface in surfaces for tokens in segment(model, surface)]


def check_filters(monkeypatch, beam, model_path=None) -> None:
    model, token_lists = models_and_tokens(beam, model_path)
    index = chart_index(model)
    literal, edges = lowest_literal_bit(index), index.edges
    spans = chart_sweeps(monkeypatch, model, token_lists)
    by_width = by_cell = at_literal = at_pattern = 0
    for span in spans:
        # unmasked, a rule has a tiling wherever its parts cover entries;
        # the finished chart has the entries of the first sweep
        visited = {v.r for v in span.visits}
        for r, bits in enumerate(index.part_bits):
            if r not in visited:
                ones, open_ends = unmasked(bits, span.ends, literal)
                assert _tilings(ones, open_ends, span.i, span.j) == [], model.rules[r].rule_id
                by_width += 1
        for v in span.skipped:
            assert v.tilings == [], (span.tokens, span.i, span.j, v.rule.rule_id)
            if edges[v.r] is None:
                by_cell += 1
                continue
            parts, (first, last) = v.rule.parts, edges[v.r]
            outside = [
                part
                for part, bit, edge in ((parts[0], first, v.opened), (parts[-1], last, v.closed))
                if not bit & edge
            ]
            assert outside, (span.tokens, span.i, span.j, v.rule.rule_id)
            at_literal += any(isinstance(part, Literal) for part in outside)
            at_pattern += any(isinstance(part, PatternPart) for part in outside)
    assert by_width > 0 and by_cell > 0
    if beam != "cap":  # no literals, and its rules of several parts span the whole input
        assert at_literal > 0 and at_pattern > 0


def test_corner_filter_skips_only_rules_without_a_tiling(monkeypatch):
    check_filters(monkeypatch, 16)  # english.cn's own beam


@pytest.mark.parametrize("beam", [1, 2, "cap"])
def test_corner_filters_skip_only_rules_without_a_tiling_at_other_beams(monkeypatch, beam):
    check_filters(monkeypatch, beam)


@pytest.mark.parametrize("beam", [1, 2, 16])
def test_corner_filters_skip_only_rules_without_a_tiling_on_the_stress_model(monkeypatch, beam):
    check_filters(monkeypatch, beam, STRESS_MODEL)


def test_corner_filters_skip_only_rules_without_a_tiling_on_the_rule_count_model(monkeypatch):
    check_filters(monkeypatch, "rule count")


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
