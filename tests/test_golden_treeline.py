"""Golden tree-line front end: what parse_network and parse_document make of
fixed inputs, pinned.

The inputs are every line of the shipped .cn, .pair and .tsv files (and each
tab-separated field of a line that has several) and 2,000 seeded fuzz strings:
runs of the notation's characters (digits and ``²`` included), runs of its
tokens and statement words, and rule lines with a random part list. Each
input gives one fixture line per function: the printed result, or else
``type | message | line | col`` of the error it raised. The test compares the
listing with tests/golden_treeline.txt line for line, so any change to what
the front end accepts, builds or reports fails here.

Regenerate the fixture, after a change that is meant to alter the front end,
with ``PYTHONPATH=src python tests/test_golden_treeline.py``.
"""

from __future__ import annotations

import random
from importlib import resources
from pathlib import Path

from conspec.treeline import parse_document, parse_network, print_network

DATA = resources.files("conspec.data")
FIXTURE = Path(__file__).with_name("golden_treeline.txt")
SHIPPED = (
    "english.cn",
    "sov.cn",
    "english_sov.pair",
    "english_identity.pair",
    "demo_corpus.tsv",
    "translations.tsv",
    "construction_corpus.tsv",
)
FUZZ_CHARS = "ab {}[]()<>,='#-\t\n0123456789²"
FUZZ_PIECES = [
    "a", "bc", "d e", " ", "{", "{x}", "}", "[", "]", "(", ")", ">", ">>", "<<",
    "<=>", "=>", "=", "->", ",", "'", "'+s'", "#", "#2", "#0", "²", "7", "\n",
    "map ", "set k v", "declare {y} \"d\"", "either...or",
]  # fmt: skip
PART_LIST_PIECES = [
    "[", "]", "]", ",", ", ", "'x'", "'+s'", "a", "b > c", "(d)", "(", ")", "{p}", ">", "#2",
]  # fmt: skip


def inputs() -> list[str]:
    texts: list[str] = []
    for name in SHIPPED:
        for line in (DATA / name).read_text(encoding="utf-8").splitlines():
            texts.append(line)
            if "\t" in line:
                texts += line.split("\t")
    rng = random.Random(7)
    for i in range(2000):
        if i % 3 == 0:
            texts.append("".join(rng.choice(FUZZ_CHARS) for _ in range(rng.randint(0, 24))))
        elif i % 3 == 1:
            texts.append("".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(1, 10))))
        else:
            parts = "".join(rng.choice(PART_LIST_PIECES) for _ in range(rng.randint(1, 8)))
            texts.append("a > {b} <=> [" + parts)
    return texts


def _outcome(run) -> str:
    try:
        return run()
    except Exception as exc:  # the fixture pins failures of every type
        message = exc.args[0] if exc.args else ""
        line, col = getattr(exc, "line", "-"), getattr(exc, "col", "-")
        return f"{type(exc).__name__} | {message} | {line} | {col}"


def _document(text: str) -> str:
    doc = parse_document(text)
    return f"{doc.statements!r} lints {doc.lints!r}"


def render() -> list[str]:
    lines: list[str] = []
    for text in inputs():
        lines.append(f"network {text!r}: {_outcome(lambda: print_network(parse_network(text)))}")
        lines.append(f"document {text!r}: {_outcome(lambda: _document(text))}")
    return lines


def test_front_end_matches_golden_fixture():
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    got = render()
    for lineno, (want, have) in enumerate(zip(expected, got), start=1):
        assert have == want, f"golden_treeline.txt line {lineno} differs"
    assert len(got) == len(expected)


if __name__ == "__main__":
    FIXTURE.write_text("\n".join(render()) + "\n", encoding="utf-8")
