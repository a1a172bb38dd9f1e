"""Every combination and item the chart skips, against the logic it replaced.

The chart tiles a span only through cells whose part mask admits the part
(``parser._tilings``), enumerates only the part combinations whose parts all
align (``parser._aligned_combos``), and builds an item only where ``add()``
could admit it (``parser._may_admit``). This file keeps what those replaced,
as it stood in ``parser._chart_parse``: ``_part_combos``, ``align_parts``, the
unary cycle guard and ``add()``. For every segmentation of demo_corpus.tsv and
of the English column of translations.tsv, at beams 1, 2 and 16, with
english.cn and again with the stress model ``tests/gen.STRESS_MODEL``, and
for the constructed model of ``test_chart_oracle.CAP_MODEL``, whose tilings
the ``beam*4`` cap cuts:

- Each tiling that ``_tilings`` gives unmasked (all-ones part bits and cell
  masks) and drops with the rule's part bits has no combination of
  ``_part_combos`` whose every part aligns under ``align_parts``.
- ``_aligned_combos`` gives, in order and with the same alignments, exactly
  the combinations of ``_part_combos`` that pass the unary guard and whose
  every part aligns under ``align_parts`` with a memo of its own. So each
  combination it skips has a part whose ``align_networks`` is None, fails the
  guard, or sits at product position ``beam*4`` or later.
- Each item ``_may_admit`` refuses is built here anyway, and ``add()``, run on
  a copy of the cell as it stands, refuses it.
"""

from __future__ import annotations

from dataclasses import replace
from importlib import resources
from itertools import count, islice, product as iter_product
from math import prod

import pytest

import conspec.parser
from conspec.model import load_model, load_model_text
from conspec.network import canonical_key, canonicalize
from conspec.parser import _chart_parse, _Item, segment
from conspec.rules import Literal, instantiate_reverse, reverse_score
from conspec.similarity import align_networks, rule_node_sim

from .gen import STRESS_MODEL
from .test_chart_oracle import CAP_MODEL, unmasked
from .test_rule_filters import english_surfaces

DATA = resources.files("conspec.data")

MAX_UNARY = 2


def old_chart(frags, beam, sim):
    """``align_parts``, ``_part_combos`` and ``add()`` as they stood in
    ``_chart_parse``, bound to one chart and a fresh alignment memo."""
    aligned = {}
    serials = count()

    def add(i: int, j: int, item: _Item) -> bool:
        cell = frags[(i, j)]
        key = canonical_key(item.net)
        prev = cell.get(key)
        if prev is not None:
            if prev.score >= item.score:
                return False
        elif len(cell) >= beam:
            worst_key, worst = min(cell.items(), key=lambda kv: kv[1].score)
            if worst.score >= item.score:
                return False  # cannot displace anything: keeps the loop finite
            del cell[worst_key]
        item.serial = next(serials)
        cell[key] = item
        return True

    def align_parts(r: int, rule, items):
        """Each part's alignment with its item, or None once a part has none."""
        out = []
        for k, it in enumerate(items):
            if it is not None:
                key = (r, k, it.serial)
                if key not in aligned:
                    aligned[key] = align_networks(rule.parts[k].pattern, it.net, sim, total=False)
                if aligned[key] is None:
                    return None
            out.append(None if it is None else aligned[key])
        return out

    def _part_combos(rule, tiling):
        slots = []
        for part, (a, b) in zip(rule.parts, tiling):
            if isinstance(part, Literal):
                slots.append([None])
            else:
                ranked = sorted(frags[(a, b)].values(), key=lambda it: -it.score)
                slots.append(ranked[:beam])
        return islice(iter_product(*slots), beam * 4)

    return add, align_parts, _part_combos


def same_alignment(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (a.product, a.count, a.binding) == (b.product, b.count, b.binding)


def check_chart_skips(model, token_lists, monkeypatch) -> dict[str, int]:
    """Parses each token list with every check installed; tallies what the
    checks saw."""
    beam = model.pragmas.beam
    sim = rule_node_sim(model.lexicon, model.pragmas.alpha)
    index = {id(rule): r for r, rule in enumerate(model.rules)}
    tilings = conspec.parser._tilings
    aligned_combos = conspec.parser._aligned_combos
    may_admit = conspec.parser._may_admit
    olds: dict[int, tuple] = {}  # id(chart) -> its old helpers
    charts: list = []  # keeps every chart referenced, so its id stays unique
    now: dict = {}  # the rule being tiled, its span and tilings, the combination
    counts = {"dropped": 0, "combos": 0, "unaligned": 0, "capped": 0, "refused": 0}

    def record_tilings(rule, bits, tokens, frags, ends, i, j):
        if id(frags) not in olds:
            charts.append(frags)
            olds[id(frags)] = old_chart(frags, beam, sim)
        got = tilings(rule, bits, tokens, frags, ends, i, j)
        ones, open_ends = unmasked(rule, ends)
        every = tilings(rule, ones, tokens, frags, open_ends, i, j)
        assert got == [tiling for tiling in every if tiling in got]
        _, align_parts, _part_combos = olds[id(frags)]
        for tiling in every:
            if tiling not in got:
                assert tiling != [(i, j)]  # so the unary guard never applies
                for items in _part_combos(rule, tiling):
                    assert align_parts(index[id(rule)], rule, items) is None
                counts["dropped"] += 1
        now.update(rule=rule, frags=frags, span=(i, j), tilings=list(got))
        return got

    def checked_combos(slots, align, cap):
        rule, frags, (i, j) = now["rule"], now["frags"], now["span"]
        tiling = now["tilings"].pop(0)
        _, align_parts, _part_combos = olds[id(frags)]
        old = list(_part_combos(rule, tiling))
        assert cap == beam * 4
        assert list(islice(iter_product(*slots), cap)) == old
        want = []
        for items in old:
            picked = [it for it in items if it is not None]
            if tiling == [(i, j)] and picked and picked[0].unary + 1 > MAX_UNARY:
                continue
            alignments = align_parts(index[id(rule)], rule, items)
            if alignments is not None:
                want.append((items, alignments))
        got = aligned_combos(slots, align, cap)
        assert [items for items, _ in got] == [items for items, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert all(map(same_alignment, a, b))
        counts["combos"] += len(got)
        counts["unaligned"] += len(old) - len(got)
        counts["capped"] += prod(map(len, slots)) > cap
        for combo in got:
            now["combo"] = combo
            yield combo

    def checked_admit(cell, beam_, score):
        got = may_admit(cell, beam_, score)
        if not got:
            rule, (i, j) = now["rule"], now["span"]
            items, alignments = now["combo"]
            built = instantiate_reverse(rule, alignments)
            assert prod(it.score for it in items if it is not None) * reverse_score(alignments) == score
            item = _Item(canonicalize(built), score, [])
            add = old_chart({(i, j): dict(cell)}, beam, sim)[0]  # on a copy
            assert add(i, j, item) is False
            counts["refused"] += 1
        return got

    monkeypatch.setattr(conspec.parser, "_tilings", record_tilings)
    monkeypatch.setattr(conspec.parser, "_aligned_combos", checked_combos)
    monkeypatch.setattr(conspec.parser, "_may_admit", checked_admit)
    for tokens in token_lists:
        _chart_parse(model, tokens)
    return counts


def check_english_surfaces(model_path, beam, monkeypatch) -> None:
    loaded = load_model(str(model_path))
    model = replace(loaded, pragmas=replace(loaded.pragmas, beam=beam))
    token_lists = [tokens for surface in english_surfaces() for tokens in segment(model, surface)]
    counts = check_chart_skips(model, token_lists, monkeypatch)
    assert counts.pop("capped") == 0, counts  # no shipped tiling reaches the cap
    assert min(counts.values()) > 0, counts


@pytest.mark.parametrize("beam", [1, 2, 16])
def test_chart_skips_only_what_the_old_chart_refuses(beam, monkeypatch):
    check_english_surfaces(DATA / "english.cn", beam, monkeypatch)


@pytest.mark.parametrize("beam", [1, 2, 16])
def test_chart_skips_only_what_the_old_chart_refuses_on_the_stress_model(beam, monkeypatch):
    check_english_surfaces(STRESS_MODEL, beam, monkeypatch)


def test_chart_skips_only_what_the_old_chart_refuses_past_the_cap(monkeypatch):
    counts = check_chart_skips(load_model_text(CAP_MODEL), ["a b c d".split()], monkeypatch)
    assert counts["capped"] > 0 and counts["combos"] > 0, counts
