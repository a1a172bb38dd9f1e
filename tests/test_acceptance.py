"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import random
import string
from importlib import resources

import pytest

from conspec.errors import AffixError, TreelineParseError
from conspec.model import load_corpus, load_model, load_model_text
from conspec.network import (
    anchor_resolutions,
    canonicalize,
    equal,
    resolve_anchors,
)
from conspec.parser import parse_text
from conspec.realizer import join_affixes, realize
from conspec.rules import transfer_scored
from conspec.similarity import network_sim
from conspec.transfer import load_pair, translate
from conspec.treeline import parse_network, print_network

from .gen import gen_network, mutate_network, shuffle_specifiers
from .test_lexicon import make_lexicon
from .test_similarity import brute_force_network_sim
from .test_treeline import construction_rows

DATA = resources.files("conspec.data")

TWO_RULE_MODEL = """
trust = {verb}
jump = {verb}
trust > [{past}, {agent} > he, {theme} > John] <=> [he, trust > {past}, John]
trust > {past} <=> [trust, '+ed']
"""

MORPHOLOGY_ONLY_MODEL = """
trust = {verb}
jump = {verb}
trust > {past} <=> [trust, '+ed']
"""


def report(n: int, text: str):
    print(f"acceptance criterion {n}: PASS - {text}")


class TestAcceptance:
    def test_criterion_1_derivation_reproduction(self):
        model = load_model_text(TWO_RULE_MODEL)
        net = parse_network("trust > [{past}, {agent} > he, {theme} > John]")
        ranked = realize(model, net)
        assert ranked[0][0] == "he trusted John"
        assert ranked[0][1] == 1.0
        assert len(ranked) == 1, "top hypothesis must be unique"
        trace = ranked[0][2]
        assert len(trace) == 4
        assert trace[0] == ["rule:r1@0"]  # proposition ordering rule
        assert trace[1] == ["label:he@0", "rule:r2@1", "label:John@2"]
        assert trace[2] == ["label:trust@1"]
        assert trace[3] == ["join"]
        report(1, "derivation reproduces the four-step rewrite exactly")

    def test_criterion_2_analogical_generation(self):
        model = load_model_text(MORPHOLOGY_ONLY_MODEL)
        jumped = realize(model, parse_network("jump > {past}"))
        assert jumped[0][0] == "jumped"
        assert jumped[0][1] < 1.0
        assert jumped[0][1] == pytest.approx(math.sqrt(0.9), abs=1e-12)
        trusted = realize(model, parse_network("trust > {past}"))
        assert trusted[0][0] == "trusted"
        assert trusted[0][1] == 1.0
        report(2, "analogical 'jumped' < 1.0; exact 'trusted' == 1.0")

    def test_criterion_3_affix_oracle(self):
        assert join_affixes(["trust", "+ed"]) == "trusted"
        assert join_affixes(["un+", "wanted"]) == "unwanted"
        assert join_affixes(["berry", "-y", "+ies"]) == "berries"
        with pytest.raises(AffixError):
            join_affixes(["trust", "-z"])
        report(3, "all three affix cases exact; bad strip rejected")

    def test_criterion_4_construction_corpus_regression(self):
        rows = construction_rows()
        assert len(rows) >= 45
        for _, _, treeline in rows:
            net = parse_network(treeline)
            canon = canonicalize(net)
            assert equal(parse_network(print_network(canon)), net)
            assert print_network(canonicalize(canon)) == print_network(canon)
        reif = [t for c, _, t in rows if c == "Reification"]
        assert equal(parse_network(reif[0]), parse_network(reif[1]))
        seem = [t for c, s, t in rows if c == "Copula" and "seem" in s.lower()]
        assert equal(parse_network(seem[0]), parse_network(seem[1]))
        report(4, f"{len(rows)} rows parse/canonicalize/round-trip; both pairs collapse")

    def test_criterion_5_anchor_resolution(self):
        rel = resolve_anchors(
            parse_network(
                "bark > [{past}, {agent} > dog > (eat > [{past}, >>{agent},"
                " {theme} > (butter > peanut) > the]), happily]"
            )
        )
        assert anchor_resolutions(rel) == [
            (
                (("r", 0), ("s", 1), ("s", 0), ("s", 0), ("b", 0), ("s", 1)),
                (("r", 0), ("s", 1), ("s", 0)),  # dog
            )
        ]
        poss = resolve_anchors(
            parse_network("(dog > (have > [<<{agent}, >>{theme}]) > John) > hungry > {present}")
        )
        pairs = dict(anchor_resolutions(poss))
        assert pairs[(("r", 0), ("b", 0), ("s", 0), ("b", 0), ("s", 0))] == (
            ("r", 0), ("b", 0), ("s", 0), ("s", 0),
        )  # <<{agent} -> John
        assert pairs[(("r", 0), ("b", 0), ("s", 0), ("b", 0), ("s", 1))] == (
            ("r", 0), ("b", 0),
        )  # >>{theme} -> dog
        singer = resolve_anchors(
            parse_network("Mary > (>>(sing > [>>{agent}, beautiful]) > a) > {present}")
        )
        assert anchor_resolutions(singer) == [
            ((("r", 0), ("s", 0), ("b", 0), ("b", 0), ("s", 0)), (("r", 0),))  # agent -> Mary
        ]
        report(5, "relative-clause, possessive, and double-boundary anchors pinned")

    def test_criterion_6_inverse_transduction(self):
        model = load_model(str(DATA / "english.cn"))
        corpus = load_corpus(str(DATA / "demo_corpus.tsv"))
        covered = set()
        for ctype, _surface, treeline in construction_rows():
            t_net = parse_network(treeline)
            if any(equal(net, t_net) for _, net, _ in corpus):
                covered.add(ctype)
        assert len(covered) >= 15, f"only {len(covered)} constructions covered"
        for surface, net, _ in corpus:
            top = realize(model, net)[0][0]
            back = parse_text(model, top)
            assert any(equal(n, net) for n, _, _ in back[:3]), f"parse.realize {surface!r}"
            top_net = parse_text(model, surface)[0][0]
            outs = [s for s, _, _ in realize(model, top_net)[:3]]
            assert surface in outs, f"realize.parse {surface!r}"
        report(6, f"{len(corpus)} lines round-trip; {len(covered)} constructions covered")

    def test_criterion_7_alignment_oracle(self):
        lex = make_lexicon(
            {
                "trust": "{verb}",
                "jump": "{verb}",
                "dog": "animal",
                "teacher": "human",
                "Anne": "human",
                "rock": "thing",
                "berry": "thing",
                "holy cow": "thing",
                "pick up": "{verb}",
            }
        )
        rng = random.Random(42)
        fractional = 0
        for i in range(500):
            a = gen_network(rng, max_nodes=6)
            b = mutate_network(rng, a) if i % 2 else gen_network(rng, max_nodes=6)
            got, _ = network_sim(lex, a, b)
            want = brute_force_network_sim(lex, a, b)
            assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)
            if 0.0 < got < 1.0:
                fractional += 1
        assert fractional > 50
        report(7, f"network_sim == brute-force maximum on 500 seeded pairs (1e-12; {fractional} fractional)")

    def test_criterion_8_translation_pipeline(self):
        pair = load_pair(str(DATA / "english_sov.pair"))
        identity = load_pair(str(DATA / "english_identity.pair"))
        rows = [
            line.split("\t")
            for line in (DATA / "translations.tsv").read_text().splitlines()
            if line.strip() and not line.startswith("#")
        ]
        assert len(rows) == 10
        for eng, receptor_tl, sov in rows:
            assert translate(pair, eng)[0][0] == sov, eng
            net = parse_text(pair.source_model, eng)[0][0]
            nets = transfer_scored(pair.transfer_rules, pair.concept_map, net, pair.source_model.lexicon)
            assert equal(nets[0][0], parse_network(receptor_tl)), eng
            assert translate(identity, eng)[0][0] == eng
        report(8, "10 sentences hit exact fixtures; identity pair is string-preserving")

    def test_criterion_9_robustness(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = gen_network(rng)
            canon = canonicalize(n)
            assert print_network(canonicalize(canon)) == print_network(canon)
            # equivalence relation over genuinely equal permutations
            b = shuffle_specifiers(rng, n)
            c = shuffle_specifiers(rng, b)
            assert equal(n, n)
            assert equal(n, b) and equal(b, n)
            assert equal(b, c) and equal(n, c)
            other = gen_network(rng, max_nodes=4)
            assert equal(n, other) == equal(other, n)
        fuzz = random.Random(7)
        alphabet = "ab {}[]()><,='#." + string.ascii_lowercase[:6]
        for _ in range(2000):
            text = "".join(fuzz.choice(alphabet) for _ in range(fuzz.randint(0, 40)))
            try:
                parse_network(text)
            except TreelineParseError:
                pass  # the only permitted failure
        report(9, "1000 seeded networks idempotent/equivalence; 2000 fuzz inputs never panic")
