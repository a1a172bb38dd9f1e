"""The chart parser against its oracle, cell by cell.

``tests/chart_oracle.py`` holds the chart as it was before per-part
alignments were memoized and later sweeps limited to one-part pattern rules.
For every segmentation of every demo_corpus.tsv surface and every English
column of translations.tsv, at several beams, each cell of the new chart must
hold the same items in the same insertion order, with the same serials,
``repr(score)``, traces and unary counts. Small beams make cells evict items,
which is where an ordering slip would show.
"""

from __future__ import annotations

from dataclasses import replace
from importlib import resources

import pytest

from conspec.model import load_corpus, load_model
from conspec.parser import _chart_parse, segment

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
