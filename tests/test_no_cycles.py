"""Every engine call frees its own garbage by reference counting.

Each case runs once to warm memos and lazy set-up, then once more with the
cycle collector off; ``gc.collect()`` after that second run must find no
unreachable object. A reference cycle left by a call (a recursive closure, a
caught exception kept with its traceback) would survive until a collection
runs, and every collection walks the live heap.

The cases cover every public call the benchmark workloads make, the
first read of a model's lints and the first fill of its ancestor sets, and
the error paths a caller meets, each caught with a plain ``except``.
"""

from __future__ import annotations

import gc
import random
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from conspec import (
    ConceptNetwork,
    Node,
    canonicalize,
    load_corpus,
    load_model_text,
    load_pair,
    network_sim,
    parse_document,
    parse_network,
    parse_text,
    realize,
    translate,
)
from conspec.errors import ConspecError
from conspec.lexicon import ancestors

from .test_transfer_refusal import pair_without_fred_rule

DATA = resources.files("conspec.data")
ENGLISH_TEXT = (DATA / "english.cn").read_text(encoding="utf-8")
ENGLISH = load_model_text(ENGLISH_TEXT)
PAIR = load_pair(str(DATA / "english_sov.pair"))
with tempfile.TemporaryDirectory() as tmp:
    GAP_PAIR = pair_without_fred_rule(Path(tmp))
CORPUS = load_corpus(str(DATA / "demo_corpus.tsv"))
TRANSLATIONS = [
    line.split("\t")[0]
    for line in (DATA / "translations.tsv").read_text(encoding="utf-8").splitlines()
    if line.strip() and not line.startswith("#")
]


def fanout_pairs() -> list[tuple[ConceptNetwork, ConceptNetwork]]:
    """Seeded sibling pairs: a root with k = 2..6 specifiers, and the same
    specifiers shuffled with some concepts swapped for other defined ones."""
    rng = random.Random(1)
    concepts = [c for c in ENGLISH.lexicon.definitions if not c.stemless]
    pairs = []
    for k in range(2, 7):
        root, *specs = rng.sample(concepts, k + 1)
        a = ConceptNetwork((Node(root, specifiers=tuple(Node(c) for c in specs)),))
        swapped = [Node(rng.choice(concepts) if rng.random() < 0.5 else c) for c in specs]
        rng.shuffle(swapped)
        pairs.append((a, ConceptNetwork((Node(root, specifiers=tuple(swapped)),))))
    return pairs


FANOUT = fanout_pairs()


def corpus_roundtrip():
    for surface, net, _ in CORPUS:
        parse_text(ENGLISH, surface)
        realize(ENGLISH, net)


def translate_pair():
    for text in TRANSLATIONS:
        translate(PAIR, text)


def cold_realize():
    realize(load_model_text(ENGLISH_TEXT), CORPUS[0][1])


def fanout_sim():
    for a, b in FANOUT:
        network_sim(ENGLISH.lexicon, a, b)


def first_lints():
    load_model_text(ENGLISH_TEXT).lints


def first_ancestor_fill():
    lex = load_model_text(ENGLISH_TEXT).lexicon
    for concept in lex.definitions:
        ancestors(lex, concept)


def lint_collect():
    parse_document("a#2#3 = b\nc = d\nc = e", collect_errors=[])


def failing(call, *args):
    def run():
        try:
            call(*args)
        except ConspecError:
            pass
        else:
            raise AssertionError(f"{call.__name__}{args!r} did not fail")

    return run


CASES = {
    "corpus_roundtrip": corpus_roundtrip,
    "translate_pair": translate_pair,
    "cold_realize": cold_realize,
    "fanout_sim": fanout_sim,
    "first_lints": first_lints,
    "first_ancestor_fill": first_ancestor_fill,
    "unknown_word": failing(parse_text, ENGLISH, "he trusted xyzzy"),
    "no_complete_parse": failing(parse_text, ENGLISH, "he he he he"),
    "unrealizable_fragment": failing(realize, ENGLISH, parse_network("jump > {future}")),
    "untranslatable": failing(translate, PAIR, "holy cow"),
    # the best parse transfers and then fails to realize
    "unrealizable_translation": failing(translate, PAIR, "the dress is green"),
    # the same, through a receptor model that lacks the one rule it needs
    "unrealizable_translation_missing_rule": failing(translate, GAP_PAIR, "Fred is happy"),
    # translate refuses all four capped parses before any transfer match
    "all_parses_refused": failing(translate, PAIR, "did it break the window"),
    "bad_anchor": failing(canonicalize, parse_network("(he > >>{agent})")),
    "bad_model_line": failing(load_model_text, "a#2#3 = b"),
    "duplicate_definition": failing(load_model_text, "c = d\nc = e"),
    "lint_collect": lint_collect,
}


@pytest.mark.parametrize("case", CASES)
def test_call_leaves_no_cyclic_garbage(case):
    run = CASES[case]
    run()  # warm-up: memos fill, lazy set-up finishes
    gc.collect()
    gc.disable()
    try:
        run()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"{case} left {found} objects that only the cycle collector frees"
