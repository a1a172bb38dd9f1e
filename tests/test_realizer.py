from importlib import resources

import pytest

from conspec.errors import AffixError, ConspecError, UnrealizableFragmentError
from conspec.model import load_corpus, load_model, load_model_text
from conspec.realizer import (
    apply_orthography,
    join_affixes,
    realize,
    strip_orthography,
    trace_rule_ids,
)
from conspec.treeline import parse_network

TINY_MODEL = """
trust = {verb}
jump = {verb}
trust > [{past}, {agent} > he, {theme} > John] <=> [he, trust > {past}, John]
trust > {past} <=> [trust, '+ed']
"""


@pytest.fixture(scope="module")
def tiny():
    return load_model_text(TINY_MODEL)


class TestJoinAffixes:
    def test_suffix(self):
        assert join_affixes(["trust", "+ed"]) == "trusted"

    def test_strip_then_suffix(self):
        assert join_affixes(["berry", "-y", "+ies"]) == "berries"

    def test_prefix(self):
        assert join_affixes(["un+", "wanted"]) == "unwanted"

    def test_plain_tokens_single_spaces(self):
        assert join_affixes(["he", "trust", "+ed", "John"]) == "he trusted John"

    def test_bad_strip_errors(self):
        with pytest.raises(AffixError):
            join_affixes(["trust", "-z"])

    def test_leading_suffix_errors(self):
        with pytest.raises(AffixError):
            join_affixes(["+ed", "trust"])

    def test_trailing_prefix_errors(self):
        with pytest.raises(AffixError):
            join_affixes(["un+"])

    def test_no_double_spaces_and_grouping_associative(self):
        out = join_affixes(["a", "b", "c"])
        assert "  " not in out
        assert out == join_affixes(["a"]) + " " + join_affixes(["b", "c"])


class TestRealize:
    def test_trust_sentence_realization(self, tiny):
        net = parse_network("trust > [{past}, {agent} > he, {theme} > John]")
        ranked = realize(tiny, net)
        assert ranked[0][0] == "he trusted John"
        assert ranked[0][1] == 1.0
        # the surviving derivation is unique
        assert len(ranked) == 1

    def test_trace_replays_four_steps(self, tiny):
        net = parse_network("trust > [{past}, {agent} > he, {theme} > John]")
        _, _, trace = realize(tiny, net)[0]
        assert len(trace) == 4
        assert trace[0] == ["rule:r1@0"]
        assert trace[1] == ["label:he@0", "rule:r2@1", "label:John@2"]
        assert trace[2] == ["label:trust@1"]
        assert trace[3] == ["join"]
        assert trace_rule_ids(trace) == ["r1", "r2"]

    def test_trace_rule_ids_name_rules_of_the_model(self):
        data = resources.files("conspec.data")
        model = load_model(str(data / "english.cn"))
        rule_ids = {rule.rule_id for rule in model.rules}
        seen = set()
        for _, net, _ in load_corpus(str(data / "demo_corpus.tsv")):
            try:
                ranked = realize(model, net)
            except ConspecError:
                continue
            for _, _, trace in ranked:
                got = trace_rule_ids(trace)
                assert set(got) <= rule_ids, got
                # the entries a rule step writes, read by splitting them
                entries = [e for step in trace for e in step if e.startswith("rule:")]
                assert got == [e.split("@")[0].removeprefix("rule:") for e in entries]
                seen.update(got)
        assert len(seen) > 10, seen

    def test_analogical_jump(self, tiny):
        ranked = realize(tiny, parse_network("jump > {past}"))
        assert ranked[0][0] == "jumped"
        assert ranked[0][1] == pytest.approx(0.9 ** 0.5)
        assert ranked[0][1] < 1.0

    def test_exact_trust_scores_one(self, tiny):
        ranked = realize(tiny, parse_network("trust > {past}"))
        assert ranked[0][0] == "trusted"
        assert ranked[0][1] == 1.0

    def test_single_concept_realizes_as_label(self, tiny):
        assert realize(tiny, parse_network("Anne"))[0][0] == "Anne"

    def test_stuck_fragment_raises_naming_it(self, tiny):
        with pytest.raises(UnrealizableFragmentError) as exc:
            realize(tiny, parse_network("jump > {future}"))
        assert "future" in str(exc.value)

    def test_deterministic(self, tiny):
        net = parse_network("trust > [{past}, {agent} > he, {theme} > John]")
        assert realize(tiny, net) == realize(tiny, net)

    def test_one_node_object_at_two_places(self):
        # realize reads its input's nodes uncopied: a parse-output node put
        # under both roles must realize as the reparsed print does
        from importlib import resources

        from conspec.model import load_model
        from conspec.network import ConceptNetwork, Node, canonicalize
        from conspec.parser import parse_text
        from conspec.treeline import print_network

        model = load_model(str(resources.files("conspec.data") / "english.cn"))
        root = parse_text(model, "he trusted John")[0][0].roots[0]
        past, agent, theme = root.specifiers
        he = agent.specifiers[0]
        theme_he = Node(concept=theme.concept, specifiers=(he,))
        net = ConceptNetwork((Node(concept=root.concept, specifiers=(past, agent, theme_he)),))
        assert sum(n is he for n in canonicalize(net).iter_nodes()) == 2
        ranked = realize(model, net)
        assert ranked == realize(model, parse_network(print_network(net)))
        assert ranked[0][0] == "he trusted he"

    def test_exact_rule_dominates_analogical(self):
        model = load_model_text(
            TINY_MODEL + "\njump > {past} <=> ['sprang']\n"
        )
        ranked = realize(model, parse_network("jump > {past}"))
        assert ranked[0] [0] == "sprang"
        assert ranked[0][1] == 1.0
        assert ranked[1][0] == "jumped"
        assert ranked[1][1] < 1.0


class TestOrthography:
    def test_capital_and_period(self):
        assert apply_orthography("he trusted John", parse_network("trust")) == "He trusted John."

    def test_question_mark_from_concept(self):
        net = parse_network("(break > [{past}, {agent} > it]) > {?}")
        assert apply_orthography("did it break", net) == "Did it break?"

    def test_exclamation(self):
        assert apply_orthography("holy cow", parse_network("holy cow > {!}")) == "Holy cow!"

    def test_strip_round_trip(self):
        assert strip_orthography("Did it break?") == ("Did it break", "?")
        assert strip_orthography("plain") == ("plain", None)


class TestConcurrency:
    def test_parallel_realize_matches_sequential(self, tiny):
        from concurrent.futures import ThreadPoolExecutor

        net = parse_network("trust > [{past}, {agent} > he, {theme} > John]")
        expected = realize(tiny, net)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: realize(tiny, net), range(16)))
        assert all(r == expected for r in results)


class TestBeamLoss:
    """realize's beam loses the best realization on ``gen.beam_loss_model``
    (a known search error, ROADMAP item 7): 20 copies of a rule that ends in
    a literal fill the beam at 16, and 15 copies do not."""

    WANT = "the rain washed the truck"

    def ranked(self, copies: int) -> list[tuple[str, float]]:
        from conspec.parser import parse_text

        from .gen import beam_loss_model

        model = load_model_text(beam_loss_model(copies))
        net = parse_text(model, self.WANT)[0][0]
        return [(text, round(score, 4)) for text, score, _ in realize(model, net)]

    def test_fifteen_copies_keep_the_best(self):
        assert self.ranked(15)[0] == (self.WANT, 0.729)

    def test_twenty_copies_lose_it(self):
        got = self.ranked(20)
        assert got[0] == ("the rain wash the truck qq0ed", 0.7214)
        assert self.WANT not in [text for text, _ in got]
