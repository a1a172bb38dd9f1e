"""Refused parses: ``translate`` skips a parse no transfer can carry.

``rules.refuses`` names a parse that holds a concept the concept map cannot
translate and no transfer rule consumes; ``translate`` skips it before any
transfer match is sought. These tests check that the skip changes nothing:
``translate`` gives the same outputs, scores, traces, error types, stages
and texts as the copy in ``tests/transfer_oracle.py``, which sends every
capped parse to ``transfer_scored``, and every refused parse, over all
parses, fails under ``transfer_scored``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

import conspec.transfer
from conspec.errors import ConspecError, UnrealizableFragmentError, UntranslatableConceptError
from conspec.model import ModelBundle, load_corpus
from conspec.network import Concept
from conspec.parser import parse_text
from conspec.rules import refuses, transfer_scored
from conspec.transfer import LanguagePair, load_pair, load_pair_text, translate

from . import transfer_oracle

DATA = resources.files("conspec.data")
PAIR_PATH = Path(str(DATA / "english_sov.pair"))
BEAMS = [1, 2, 16]


def shipped_texts() -> list[str]:
    rows = (DATA / "translations.tsv").read_text(encoding="utf-8").splitlines()
    texts = [row.split("\t")[0] for row in rows if row.strip() and not row.startswith("#")]
    return texts + [surface for surface, _, _ in load_corpus(str(DATA / "demo_corpus.tsv"))]


def word_strings(texts: list[str], n: int, seed: int) -> list[str]:
    """Seeded strings drawn from the texts' vocabulary: ``n`` of one to five
    words, and ``n`` texts with one word swapped for another."""
    rng = random.Random(seed)
    vocab = sorted({w for text in texts for w in text.split()})
    out = [" ".join(rng.choices(vocab, k=rng.randint(1, 5))) for _ in range(n)]
    for _ in range(n):
        words = rng.choice(texts).split()
        words[rng.randrange(len(words))] = rng.choice(vocab)
        out.append(" ".join(words))
    return out


SHIPPED = shipped_texts()
TEXTS = SHIPPED + word_strings(SHIPPED, 150, seed=1)


@pytest.fixture(scope="module")
def pair() -> LanguagePair:
    return load_pair(str(PAIR_PATH))


# sov.cn's one realization rule for the receptor network of "Fred is happy"
FRED_RULE = "(Fureddo > shiawase) > {ru} <=> [Fureddo, 'wa', shiawase, 'da']\n"


def pair_without_fred_rule(directory: Path) -> LanguagePair:
    """english_sov.pair, written to ``directory`` with english.cn and a copy
    of sov.cn that lacks ``FRED_RULE``: "Fred is happy" parses, its best
    parse transfers, and no rule realizes the transferred network."""
    sov = (DATA / "sov.cn").read_text(encoding="utf-8")
    assert FRED_RULE in sov
    (directory / "sov.cn").write_text(sov.replace(FRED_RULE, ""), encoding="utf-8")
    for name in ("english.cn", "english_sov.pair"):
        (directory / name).write_text((DATA / name).read_text(encoding="utf-8"), encoding="utf-8")
    return load_pair(str(directory / "english_sov.pair"))


@pytest.fixture(scope="module")
def seem_pair() -> LanguagePair:
    # every shipped rule maps each source concept it matches; this added rule
    # consumes the unmapped seem, so a parse holding seem can translate
    rule = "Fred > happy > seem > {present} => (Fureddo > shiawase) > {ru}\n"
    return load_pair_text(PAIR_PATH.read_text(encoding="utf-8") + rule, "seem.pair", PAIR_PATH.parent)


def with_beam(model: ModelBundle, beam: int) -> ModelBundle:
    return replace(model, pragmas=replace(model.pragmas, beam=beam))


def outcome(fn, *args):
    """What fn(*args) gives, or the type, stage and text of the error it raises."""
    try:
        return fn(*args)
    except ConspecError as exc:
        return (type(exc).__name__, exc.stage, str(exc))


def test_consumed_concepts(pair, seem_pair):
    assert pair.consumed == frozenset()
    assert seem_pair.consumed == {Concept("seem")}
    # dataclasses.replace rebuilds the set from the rules it is given
    assert replace(seem_pair, transfer_rules=pair.transfer_rules).consumed == frozenset()


@pytest.mark.parametrize("beam", BEAMS)
@pytest.mark.parametrize("which", ["pair", "seem_pair"])
def test_translate_matches_oracle(beam, which, request):
    base = request.getfixturevalue(which)
    p = replace(
        base,
        source_model=with_beam(base.source_model, beam),
        receptor_model=with_beam(base.receptor_model, beam),
    )
    errors = 0
    for text in TEXTS:
        want = outcome(transfer_oracle.translate, p, text)
        assert outcome(translate, p, text) == want, text
        errors += isinstance(want, tuple)
    assert 0 < errors < len(TEXTS)


def test_refused_parses_fail_transfer(pair, seem_pair):
    refused = kept = 0
    for p in (pair, seem_pair):
        src = p.source_model
        for text in TEXTS:
            try:
                parses = parse_text(src, text)
            except ConspecError:
                continue
            for net, _, _ in parses:
                if not refuses(p.concept_map, p.consumed, net):
                    kept += 1
                    continue
                refused += 1
                with pytest.raises(UntranslatableConceptError):
                    transfer_scored(p.transfer_rules, p.concept_map, net, src.lexicon)
    assert refused > kept > 0


def test_seem_parse_is_kept(seem_pair):
    # the parse holds seem, which no map entry translates, but the added rule
    # consumes it, so the parse is not refused and translates
    assert translate(seem_pair, "Fred seems happy")[0][0] == "Fureddo wa shiawase da"


def test_stage_is_realize_when_a_parse_gets_through_transfer(pair, tmp_path):
    # the best parse transfers and fails to realize; the third-ranked parse,
    # which holds {!}, fails transfer
    with pytest.raises(UnrealizableFragmentError) as exc:
        translate(pair, "the dress is green")
    assert exc.value.stage == "realize"
    assert exc.value.fragment_text == "(doresu > sono) > midori > {ru}"
    # the best parse transfers, and the receptor model has no rule for it:
    # the stage is realize whatever the lower-ranked parses hold
    gap = pair_without_fred_rule(tmp_path)
    assert translate(pair, "Fred is happy")[0][0] == "Fureddo wa shiawase da"
    with pytest.raises(UnrealizableFragmentError) as exc:
        translate(gap, "Fred is happy")
    assert exc.value.stage == "realize"
    assert exc.value.fragment_text == "(Fureddo > shiawase) > {ru}"
    assert outcome(translate, gap, "Fred is happy") == outcome(
        transfer_oracle.translate, gap, "Fred is happy"
    )


def test_refused_parses_count_toward_the_cap(tmp_path, monkeypatch):
    # "bank" parses as five senses in sense order, and only bank#5, the fifth
    # parse, has a map entry: the four refused parses fill the cap
    senses = ["bank"] + [f"bank#{i}" for i in range(2, 6)]
    (tmp_path / "src.cn").write_text(
        "".join(f"{s} = {{noun}}\n{s} <=> ['bank']\n" for s in senses), encoding="utf-8"
    )
    (tmp_path / "dst.cn").write_text("ginko = {noun}\nginko <=> ['ginko']\n", encoding="utf-8")
    (tmp_path / "p.pair").write_text(
        "source: src.cn\nreceptor: dst.cn\nmap bank#5 -> ginko\n", encoding="utf-8"
    )
    p = load_pair(str(tmp_path / "p.pair"))
    parses = parse_text(p.source_model, "bank")
    assert [net.roots[0].concept.text() for net, _, _ in parses] == senses
    assert [refuses(p.concept_map, p.consumed, net) for net, _, _ in parses] == [True] * 4 + [False]
    with pytest.raises(UntranslatableConceptError) as exc:
        translate(p, "bank")
    assert (exc.value.stage, exc.value.concept_text) == ("transfer", "bank")
    monkeypatch.setattr(conspec.transfer, "PARSE_CAP", 5)
    assert [out for out, _, _ in translate(p, "bank")] == ["ginko"]


def test_error_names_a_refused_parse_ranked_first(tmp_path):
    # "bank" parses as bank, then bank#2. bank is refused; bank#2 is the
    # concept of a non-slot source node, so it is not refused, but the rule
    # does not match it and transfer fails on it. The error names bank.
    (tmp_path / "src.cn").write_text(
        "bank = {noun}\nbank#2 = {noun}\nriver = {noun}\nbank <=> ['bank']\nbank#2 <=> ['bank']\n",
        encoding="utf-8",
    )
    (tmp_path / "p.pair").write_text(
        "source: src.cn\nreceptor: src.cn\nbank#2 > river => bank\n", encoding="utf-8"
    )
    p = load_pair(str(tmp_path / "p.pair"))
    parses = parse_text(p.source_model, "bank")
    assert [refuses(p.concept_map, p.consumed, net) for net, _, _ in parses] == [True, False]
    with pytest.raises(UntranslatableConceptError) as exc:
        transfer_scored(p.transfer_rules, p.concept_map, parses[1][0], p.source_model.lexicon)
    assert exc.value.concept_text == "bank#2"
    want = ("UntranslatableConceptError", "transfer", "no transfer rule or map entry for concept: bank")
    assert outcome(translate, p, "bank") == outcome(transfer_oracle.translate, p, "bank") == want
