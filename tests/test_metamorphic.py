"""Rules no input can use change nothing.

Appending 100 rules over concepts english.cn never defines, and that no
demo_corpus.tsv row holds, must leave every ranked output, score and trace
of ``parse_text`` and ``realize`` on demo_corpus.tsv as it was, at beams 1,
2 and 16. Half the rules are ``zK > {past} <=> ['zzK']``, whose one literal
part gets a bit no token of any input carries. The other half have three
parts, ``{agent} > wK``, ``'zzK'`` and ``zK > {past}``: pattern parts at
both ends, so the chart's first sweep visits them on every span of three
or more tokens, and a first part whose root is a role marker the shipped
rules use. Both grow the per-width rule lists, the literal bits and every
root index (realize's over the rules, the chart's over their parts), and
neither may change an answer.
"""

from __future__ import annotations

from dataclasses import replace
from importlib import resources

import pytest

from conspec.errors import ConspecError
from conspec.model import load_corpus, load_model_text
from conspec.parser import parse_text
from conspec.realizer import realize
from conspec.treeline import print_network

DATA = resources.files("conspec.data")
ENGLISH = (DATA / "english.cn").read_text(encoding="utf-8")

UNUSABLE = "\n".join(
    [f"z{k} > {{past}} <=> ['zz{k}']" for k in range(1, 51)]
    + [
        f"z{k} > [{{past}}, {{agent}} > w{k}] <=> [{{agent}} > w{k}, 'zz{k}', z{k} > {{past}}]"
        for k in range(51, 101)
    ]
)


def answers(model, beam: int) -> list:
    """Each row's ranked parses (printed) and realizations, or the error."""
    model = replace(model, pragmas=replace(model.pragmas, beam=beam))
    out = []
    for surface, net, _ in load_corpus(str(DATA / "demo_corpus.tsv")):
        for run in (lambda: parse_text(model, surface), lambda: realize(model, net)):
            try:
                got = run()
            except ConspecError as exc:
                out.append((type(exc).__name__, str(exc)))
                continue
            out.append(
                [
                    (r if isinstance(r, str) else print_network(r), score, trace)
                    for r, score, trace in got
                ]
            )
    return out


@pytest.mark.parametrize("beam", [1, 2, 16])
def test_unusable_rules_change_no_answer(beam):
    model = load_model_text(ENGLISH)
    grown = load_model_text(ENGLISH + "\n" + UNUSABLE + "\n")
    assert len(grown.rules) == len(model.rules) + 100
    want = answers(model, beam)
    assert answers(grown, beam) == want
    assert sum(isinstance(a, list) and bool(a) for a in want) > 30
