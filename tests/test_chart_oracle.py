"""The chart parser against its oracle, cell by cell.

``tests/chart_oracle.py`` holds the chart as it was before per-part
alignments were memoized and later sweeps limited to one-part pattern rules.
For every segmentation of every demo_corpus.tsv surface and every English
column of translations.tsv, at several beams, each cell of the new chart must
hold the same items in the same insertion order, with the same serials,
``repr(score)``, traces and unary counts. A new item's trace is its
derivation record rendered by ``parser.render_trace``; the oracle's items
carry the string traces the chart used to copy into each item. Small beams
make cells evict items, which is where an ordering slip would show.

``parser._tilings`` grows tilings part by part through the chart's
entries: each token that is a literal's text, carrying the literal's bit,
and each non-empty final cell, carrying its mask. Called unmasked (every
pattern part's bit and every cell mask all ones below the literal bits), it
must give the same list, in the same order, as the recursive tiler inside
the oracle's chart, for every rule but a one-part pattern rule, whose one
tiling is the cell being filled; called with the rule's part bits and the
chart's cell masks, it must give that list less each tiling with a pattern
part whose cell holds no item with the part's bit. Where a literal entry
and a cell share an end, each part takes only its own.

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
import sys
import types
from dataclasses import replace
from functools import reduce
from importlib import resources
from math import prod
from operator import or_

import pytest

import conspec.parser
from conspec.model import load_corpus, load_model, load_model_text
from conspec.parser import _chart_parse, chart_index, segment
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
    """Each cell's items as (key, serial, score, trace, unary); an item of
    the new chart gives its trace by rendering its derivation record."""
    return {
        span: [(key, it.serial, repr(it.score), trace(it), it.unary) for key, it in cell.items()]
        for span, cell in frags.items()
    }


def trace(item) -> list[str]:
    if isinstance(item, chart_oracle._Item):
        return item.trace
    return conspec.parser.render_trace(item.derivation)


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


def lowest_literal_bit(index) -> int:
    """The bit of the index's first literal text: every pattern part's bit,
    and so every cell mask, is below it."""
    return 1 << len(index.parts.patterns)


def unmasked(bits: list[int], ends, literal: int):
    """``bits`` and ``ends`` with each pattern bit and each cell mask, the
    values below ``literal``, replaced by all the pattern bits: ``_tilings``
    then reads only whether a cell holds items. Literal bits and entries
    stay as they are."""
    ones = literal - 1
    return (
        [bit if bit >= literal else ones for bit in bits],
        [[(end, mask if mask >= literal else ones) for end, mask in at] for at in ends],
    )


def admitted_by_masks(rule, bits, frags, tiling) -> bool:
    """Whether each pattern part of the tiling covers a cell with an item
    whose ``parts`` has the part's bit."""
    return all(
        isinstance(part, Literal)
        or reduce(or_, [it.parts for it in frags[span].values()], 0) & bits[k]
        for k, (part, span) in enumerate(zip(rule.parts, tiling))
    )


def final_ends(frags, tokens: list[str], literal_bits: dict) -> list:
    """The chart's ``ends`` as its tokens and finished cells give them."""
    n = len(tokens)
    ends = [[(a + 1, literal_bits[t])] if t in literal_bits else [] for a, t in enumerate(tokens)]
    for a in range(n):
        for b in range(a + 1, n + 1):
            if frags[(a, b)]:
                ends[a].append((b, reduce(or_, [it.parts for it in frags[(a, b)].values()])))
    return ends


def chart_locals() -> dict:
    """The locals of the ``apply_rules_over`` call that called the caller,
    and ``tokens`` from its ``_chart_parse``: the span ``i``, ``j`` and its
    ``cell``, the chart's ``frags`` and ``ends``, and the rule ``r``,
    ``rule`` (and ``tiling``) being tried. ``_tilings``, ``_aligned_combos``
    and ``_may_admit`` take none of these, so their wrappers read them here."""
    frame = sys._getframe(2)
    assert frame.f_code.co_name == "apply_rules_over"
    return {"tokens": frame.f_back.f_locals["tokens"], **frame.f_locals}


def test_tilings_match_recursive_tiler_on_first_sweeps(monkeypatch):
    model = load_model(str(DATA / "english.cn"))
    index = chart_index(model)
    part_bits, literal = index.part_bits, lowest_literal_bit(index)
    tilings = conspec.parser._tilings
    seen: set[tuple] = set()
    charts: list = []  # keeps every chart referenced, so its id stays unique
    found = dropped = late = 0

    def compare_every_rule(tokens, frags, ends, i, j):
        nonlocal found, dropped
        oracle = oracle_tilings(tokens, frags)
        for other, other_bits in zip(model.rules, part_bits):
            if [type(p) for p in other.parts] == [PatternPart]:
                continue  # its one tiling is the cell being filled
            want = oracle(other, i, j)
            ones, open_ends = unmasked(other_bits, ends, literal)
            assert tilings(ones, open_ends, i, j) == want
            got = tilings(other_bits, ends, i, j)
            kept = [t for t in want if admitted_by_masks(other, other_bits, frags, t)]
            assert got == kept, (tokens, i, j, other.rule_id)
            found += bool(got)
            dropped += len(want) - len(got)

    def compare(bits, ends, i, j):
        chart = chart_locals()
        frags = chart["frags"]
        if not charts or charts[-1] is not frags:
            charts.append(frags)
        assert bits is part_bits[chart["r"]]
        span = (id(frags), i, j)
        if span not in seen:
            # the span's first sweep: every rule, admitted by the gate or not
            seen.add(span)
            compare_every_rule(chart["tokens"], frags, ends, i, j)
        return tilings(bits, ends, i, j)

    monkeypatch.setattr(conspec.parser, "_tilings", compare)
    for surface in surfaces():
        for tokens in segment(model, surface):
            frags = _chart_parse(model, tokens)
            charts.append(frags)
            # a span no rule reached gained no item, and the tilers read no
            # cell that was not final when it was swept
            ends = final_ends(frags, tokens, index.literal_bits)
            for i, j in frags:
                if (id(frags), i, j) not in seen:
                    compare_every_rule(tokens, frags, ends, i, j)
                    late += 1
    assert found > 0 and dropped > 0 and late > 0


# Literal texts for the random cells: "d" is no literal's text. Bits 0 to 2
# are pattern bits.
RANDOM_LITERALS = {"a": 1 << 3, "b": 1 << 4, "c": 1 << 5}


def test_tilings_match_recursive_tiler_on_random_cells():
    rng = random.Random(12)
    found = dropped = shared = 0
    for _ in range(500):
        tokens = [rng.choice("abcd") for _ in range(rng.randint(1, 7))]
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
        ends = final_ends(frags, tokens, RANDOM_LITERALS)
        shared += sum(len({end for end, _ in at}) < len(at) for at in ends)
        for _ in range(4):
            parts = [
                Literal(rng.choice("abc")) if rng.random() < 0.4 else PatternPart(None, {})
                for _ in range(rng.randint(1, 4))
            ]
            rule = types.SimpleNamespace(parts=parts)
            bits = [
                RANDOM_LITERALS[p.text] if isinstance(p, Literal) else 1 << rng.randrange(3)
                for p in parts
            ]
            ones, open_ends = unmasked(bits, ends, 1 << 3)
            for i in range(n):
                for j in range(i + 1, n + 1):
                    want = oracle(rule, i, j)
                    got = conspec.parser._tilings(ones, open_ends, i, j)
                    assert got == want, (tokens, frags, parts, i, j)
                    found += len(got) > 1
                    got = conspec.parser._tilings(bits, ends, i, j)
                    kept = [t for t in want if admitted_by_masks(rule, bits, frags, t)]
                    assert got == kept, (tokens, frags, parts, bits, i, j)
                    dropped += len(want) - len(got)
    assert found > 0 and dropped > 0 and shared > 0


def test_tilings_take_only_their_own_entry_where_a_literal_and_a_cell_share_an_end():
    a, b = RANDOM_LITERALS["a"], RANDOM_LITERALS["b"]
    # tokens "a b": each token is a literal's text and a cell of one item
    # with bit 1; the cell (0, 2) holds an item with bit 2
    ends = [[(1, a), (1, 1), (2, 2)], [(2, b), (2, 1)]]
    tilings = conspec.parser._tilings
    assert tilings([a], ends, 0, 1) == [[(0, 1)]]
    assert tilings([1], ends, 0, 1) == [[(0, 1)]]
    assert tilings([b], ends, 0, 1) == []
    assert tilings([a, b], ends, 0, 2) == [[(0, 1), (1, 2)]]
    assert tilings([a, 1], ends, 0, 2) == [[(0, 1), (1, 2)]]
    assert tilings([1, b], ends, 0, 2) == [[(0, 1), (1, 2)]]
    assert tilings([1, 1], ends, 0, 2) == [[(0, 1), (1, 2)]]
    assert tilings([b, 1], ends, 0, 2) == []
    assert tilings([2], ends, 0, 2) == [[(0, 2)]]
    assert tilings([a | 2], ends, 0, 2) == [[(0, 2)]]  # the cell, not the literal
    assert tilings([2, 1], ends, 0, 2) == []


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
