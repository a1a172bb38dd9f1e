"""The chart parser against its oracle, cell by cell.

``tests/chart_oracle.py`` holds the chart as it was before per-part
alignments were memoized and later sweeps limited to one-part pattern rules.
For every segmentation of every demo_corpus.tsv surface and every English
column of translations.tsv, at several beams, each cell of the new chart must
hold the same items in the same insertion order, with the same serials,
``repr(score)``, traces and unary counts. Small beams make cells evict items,
which is where an ordering slip would show.

``parser._tilings`` grows tilings part by part. Called unmasked (every part
bit and every cell mask all ones), it must give the same list, in the same
order, as the recursive tiler inside the oracle's chart; called with the
rule's part bits and the chart's cell masks, it must give that list less
each tiling with a pattern part whose cell, other than the one being
filled, holds no item with the part's bit.

``parser._aligned_combos`` cuts each slot to its aligned entries; on seeded
random slots it must give the same combinations as the oracle's
explicit-stack walk, from the same set of ``align`` calls.

No tiling on the shipped corpora has more than ``beam*4`` part combinations,
so a constructed model checks the cap: its four-part rules meet cells of two
items each at beam 2, and only the combinations past the cap align with the
first rule.
"""

from __future__ import annotations

import random
import types
from dataclasses import replace
from functools import reduce
from importlib import resources
from math import prod
from operator import or_

import pytest

import conspec.parser
from conspec.model import load_corpus, load_model, load_model_text
from conspec.parser import _chart_parse, _ChartIndex, segment
from conspec.rules import Literal, PatternPart

from . import chart_oracle

DATA = resources.files("conspec.data")


def surfaces() -> list[str]:
    out = [surface for surface, _, _ in load_corpus(str(DATA / "demo_corpus.tsv"))]
    for raw in (DATA / "translations.tsv").read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            out.append(raw.split("\t")[0])
    return out


def cells(frags) -> dict:
    return {
        span: [(key, it.serial, repr(it.score), it.trace, it.unary) for key, it in cell.items()]
        for span, cell in frags.items()
    }


@pytest.mark.parametrize("beam", [1, 2, 4, 16])
def test_chart_matches_oracle(beam):
    english = load_model(str(DATA / "english.cn"))
    model = replace(english, pragmas=replace(english.pragmas, beam=beam))
    charts = 0
    for surface in surfaces():
        for tokens in segment(model, surface):
            got = cells(_chart_parse(model, tokens))
            assert got == cells(chart_oracle._chart_parse(model, tokens)), (beam, tokens)
            charts += 1
    assert charts >= len(surfaces())


# Each one-part rule gives its token a second item at the same score, after
# the shift item. Part ``a > {plural}`` of rule r5 aligns only with that
# second item, so r5's aligned combinations all sit at product positions 8
# to 15, past the cap of 8; r6's parts align with every item.
CAP_MODEL = """
set beam 2
a > {plural} <=> [a]
b > {plural} <=> [b]
c > {plural} <=> [c]
d > {plural} <=> [d]
go > [{agent} > a > {plural}, {theme} > b, {recipient} > c, {object 1} > d] <=> [a > {plural}, b, c, d]
stay > [{agent} > a, {theme} > b, {recipient} > c, {object 1} > d] <=> [a, b, c, d]
"""


def test_combination_cap_matches_oracle(monkeypatch):
    model = load_model_text(CAP_MODEL)
    cap = model.pragmas.beam * 4
    products: list[int] = []  # the full product size of each oracle tiling
    iter_product = chart_oracle.iter_product

    def record(*slots):
        products.append(prod(map(len, slots)))
        return iter_product(*slots)

    monkeypatch.setattr(chart_oracle, "iter_product", record)
    tokens = "a b c d".split()
    want = cells(chart_oracle._chart_parse(model, tokens))
    assert cells(_chart_parse(model, tokens)) == want
    assert max(products) > cap  # the cap cut a tiling's combinations
    assert len(want[(0, 4)]) == model.pragmas.beam


def oracle_tilings(tokens: list[str], frags):
    """The oracle chart's recursive ``_tilings(rule, i, j)``, bound to one
    chart: its code object with the closure cells it reads from the chart."""
    code = next(
        c for c in chart_oracle._chart_parse.__code__.co_consts
        if isinstance(c, types.CodeType) and c.co_name == "_tilings"
    )
    scope = {"frags": frags, "n": len(tokens), "tokens": tokens}
    closure = tuple(types.CellType(scope[name]) for name in code.co_freevars)
    return types.FunctionType(code, vars(chart_oracle), "_tilings", None, closure)


def unmasked(rule, ends):
    """All-ones part bits for the rule, and ``ends`` with all-ones cell
    masks: ``_tilings`` then reads only whether a cell holds items."""
    return [-1] * len(rule.parts), [[(end, -1) for end, _ in at] for at in ends]


def admitted_by_masks(rule, bits, frags, tiling, i: int, j: int) -> bool:
    """Whether each pattern part of the tiling, outside the cell (i, j) being
    filled, covers a cell with an item whose ``parts`` has the part's bit."""
    return all(
        isinstance(part, Literal)
        or span == (i, j)
        or reduce(or_, [it.parts for it in frags[span].values()], 0) & bits[k]
        for k, (part, span) in enumerate(zip(rule.parts, tiling))
    )


def final_ends(frags, n: int) -> list:
    """The chart's ``ends`` as its finished cells give them."""
    return [
        [
            (b, reduce(or_, [it.parts for it in frags[(a, b)].values()]))
            for b in range(a + 1, n + 1)
            if frags[(a, b)]
        ]
        for a in range(n)
    ]


def test_tilings_match_recursive_tiler_on_first_sweeps(monkeypatch):
    model = load_model(str(DATA / "english.cn"))
    part_bits = _ChartIndex(model.rules, model.lexicon, model.pragmas.alpha).part_bits
    tilings = conspec.parser._tilings
    seen: set[tuple] = set()
    charts: list = []  # keeps every chart referenced, so its id stays unique
    found = dropped = late = 0

    def compare_every_rule(tokens, frags, ends, i, j):
        nonlocal found, dropped
        oracle = oracle_tilings(tokens, frags)
        for other, other_bits in zip(model.rules, part_bits):
            want = oracle(other, i, j)
            ones, open_ends = unmasked(other, ends)
            assert tilings(other, ones, tokens, frags, open_ends, i, j) == want
            got = tilings(other, other_bits, tokens, frags, ends, i, j)
            kept = [t for t in want if admitted_by_masks(other, other_bits, frags, t, i, j)]
            assert got == kept, (tokens, i, j, other.rule_id)
            found += bool(got)
            dropped += len(want) - len(got)

    def compare(rule, bits, tokens, frags, ends, i, j):
        if not charts or charts[-1] is not frags:
            charts.append(frags)
        assert bits == part_bits[model.rules.index(rule)]
        span = (id(frags), i, j)
        if span not in seen:
            # the span's first sweep: every rule, admitted by the corner
            # filter and masks or not
            seen.add(span)
            compare_every_rule(tokens, frags, ends, i, j)
        return tilings(rule, bits, tokens, frags, ends, i, j)

    monkeypatch.setattr(conspec.parser, "_tilings", compare)
    for surface in surfaces():
        for tokens in segment(model, surface):
            frags = _chart_parse(model, tokens)
            charts.append(frags)
            # a span no rule reached gained no item, and the tilers read no
            # cell that was not final when it was swept
            ends = final_ends(frags, len(tokens))
            for i, j in frags:
                if (id(frags), i, j) not in seen:
                    compare_every_rule(tokens, frags, ends, i, j)
                    late += 1
    assert found > 0 and dropped > 0 and late > 0


def test_tilings_match_recursive_tiler_on_random_cells():
    rng = random.Random(12)
    found = dropped = 0
    for _ in range(500):
        tokens = [rng.choice("abc") for _ in range(rng.randint(1, 7))]
        n = len(tokens)
        full = rng.random()
        frags = {
            (a, b): (
                {"item": types.SimpleNamespace(parts=rng.getrandbits(3))}
                if rng.random() < full
                else {}
            )
            for a in range(n)
            for b in range(a + 1, n + 1)
        }
        oracle = oracle_tilings(tokens, frags)
        ends = [
            [(b, frags[(a, b)]["item"].parts) for b in range(a + 1, n + 1) if frags[(a, b)]]
            for a in range(n)
        ]
        for _ in range(4):
            parts = [
                Literal(rng.choice("abc")) if rng.random() < 0.4 else PatternPart(None, {})
                for _ in range(rng.randint(1, 4))
            ]
            rule = types.SimpleNamespace(parts=parts)
            bits = [rng.getrandbits(3) for _ in parts]
            ones, open_ends = unmasked(rule, ends)
            for i in range(n):
                for j in range(i + 1, n + 1):
                    want = oracle(rule, i, j)
                    got = conspec.parser._tilings(rule, ones, tokens, frags, open_ends, i, j)
                    assert got == want, (tokens, frags, parts, i, j)
                    found += len(got) > 1
                    got = conspec.parser._tilings(rule, bits, tokens, frags, ends, i, j)
                    kept = [t for t in want if admitted_by_masks(rule, bits, frags, t, i, j)]
                    assert got == kept, (tokens, frags, parts, bits, i, j)
                    dropped += len(want) - len(got)
    assert found > 0 and dropped > 0


def test_aligned_combos_match_explicit_stack_walk():
    rng = random.Random(22)
    bound = 0
    for _ in range(20_000):
        slots = [
            [None] if rng.random() < 0.2 else [(k, c) for c in range(rng.randint(0, 6))]
            for k in range(rng.randint(1, 5))
        ]
        failing = rng.random()
        fails = {it for slot in slots for it in slot if it is not None and rng.random() < failing}
        cap = rng.randint(1, 64)
        asked: dict[str, set] = {"new": set(), "old": set()}

        def aligner(side):
            def align(k, it):
                asked[side].add((k, it))
                return None if it in fails else ("aligned", k, it)

            return align

        got = conspec.parser._aligned_combos(slots, aligner("new"), cap)
        want = chart_oracle._aligned_combos(slots, aligner("old"), cap)
        assert got == want, (slots, fails, cap)
        assert asked["new"] == asked["old"], (slots, fails, cap)
        # the cap bound where it dropped a combination that aligns
        bound += got != chart_oracle._aligned_combos(slots, aligner("old"), prod(map(len, slots)) + 1)
    assert bound > 2_000, bound
