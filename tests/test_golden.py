"""Golden rankings: every ranked output of the shipped corpora, pinned.

Each demo_corpus.tsv row is parsed and realized, and each translations.tsv
row is translated, on the shipped models; then each demo_corpus.tsv surface
is translated through english_sov.pair, where most rows end in an error.
Every candidate is written as one line: its printed network or text,
repr(score) and its trace; an error as its type, stage and text. The test
compares that listing with tests/golden_rankings.txt line for line, so a
change to any ranking, score, tie-break or trace fails here.

Regenerate the fixture, after a change that is meant to alter outputs, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from conspec.errors import ConspecError
from conspec.model import load_corpus, load_model
from conspec.parser import parse_text
from conspec.realizer import realize
from conspec.transfer import load_pair, translate
from conspec.treeline import print_network

DATA = resources.files("conspec.data")
FIXTURE = Path(__file__).with_name("golden_rankings.txt")


def _ranked(header: str, run) -> list[str]:
    lines = [header]
    try:
        ranked = run()
    except ConspecError as exc:
        stage = f" [stage={exc.stage}]" if exc.stage else ""
        return lines + [f"  error {type(exc).__name__}{stage}: {exc}"]
    for i, (out, score, trace) in enumerate(ranked):
        lines.append(f"  {i} {out} | {score!r} | {trace!r}")
    return lines


def render() -> list[str]:
    model = load_model(str(DATA / "english.cn"))
    corpus = load_corpus(str(DATA / "demo_corpus.tsv"))
    lines: list[str] = []
    for surface, net, _ in corpus:
        lines += _ranked(
            f"parse {surface}",
            lambda: [(print_network(n), s, t) for n, s, t in parse_text(model, surface)],
        )
        lines += _ranked(f"realize {print_network(net)}", lambda: realize(model, net))
    pair = load_pair(str(DATA / "english_sov.pair"))
    for raw in (DATA / "translations.tsv").read_text(encoding="utf-8").splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        source = raw.split("\t")[0]
        lines += _ranked(f"translate {source}", lambda: translate(pair, source))
    for surface, _, _ in corpus:
        lines += _ranked(f"translate {surface}", lambda: translate(pair, surface))
    return lines


def test_rankings_match_golden_fixture():
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    got = render()
    for lineno, (want, have) in enumerate(zip(expected, got), start=1):
        assert have == want, f"golden_rankings.txt line {lineno} differs"
    assert len(got) == len(expected)


if __name__ == "__main__":
    FIXTURE.write_text("\n".join(render()) + "\n", encoding="utf-8")
