import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import conspec
from conspec.errors import ConspecError, UnparseableTextError
from conspec.model import load_model_text
from conspec.network import equal
from conspec.parser import MAX_WORDS, _decompose, _segment_raw, chart_index, parse_text, segment
from conspec.realizer import join_affixes, realize
from conspec.treeline import parse_network, print_network

from .test_realizer import TINY_MODEL

SEEM_MODEL = """
Fred = {noun}
happy = {adj}
seem = {verb}
Fred > happy > seem > {present} <=> [Fred, 'seems', happy]
Fred > happy > seem > {present} <=> ['it', 'seems', 'that', Fred, 'is', happy]
"""


# Prefixes, suffixes and a '-y' strip, with words that split several ways:
# "abab" as ab+'+ab' or 'ab+'+ab, "walked" at three places, "walk up" as one
# surface form or two.
AFFIX_MODEL = """
walk up = {verb}
up = ab
ab > {plural} <=> [ab, '+ab']
ab > {past} <=> ['ab+', ab]
walk > {past} <=> [walk, '+ed']
walke > {past} <=> [walke, '+d']
wal > {past} <=> [wal, '+ked']
walk > {plural} <=> [walk, '+s']
berry > {plural} <=> [berry, '-y', '+ies']
walk > {re} <=> ['re+', walk]
ab > [{agent} > walk] <=> [walk, ab]
"""


@pytest.fixture(scope="module")
def tiny():
    return load_model_text(TINY_MODEL)


@pytest.fixture(scope="module")
def seem_model():
    return load_model_text(SEEM_MODEL)


class TestSegment:
    def test_affix_split(self, tiny):
        assert segment(tiny, "trusted") == [["trust", "+ed"]]

    def test_sentence(self, tiny):
        assert segment(tiny, "he trusted John") == [["he", "trust", "+ed", "John"]]

    def test_unknown_word_reports_prefix(self, tiny):
        with pytest.raises(UnparseableTextError) as exc:
            segment(tiny, "he xyzzy John")
        assert "he" in str(exc.value)

    def test_all_segmentations_rejoin(self, tiny):
        for tokens in segment(tiny, "he trusted John"):
            assert join_affixes(tokens) == "he trusted John"

    def test_multiword_surface_forms(self):
        model = load_model_text("holy cow > {!} <=> [holy cow]")
        assert segment(model, "holy cow") == [["holy cow"]]

    def test_word_limit(self, tiny):
        assert segment(tiny, " ".join(["he"] * MAX_WORDS)) == [["he"] * MAX_WORDS]
        with pytest.raises(UnparseableTextError, match=f"at most {MAX_WORDS}"):
            segment(tiny, " ".join(["he"] * (MAX_WORDS + 1)))

    def test_long_input_fails_fast_as_a_conspec_error(self, tiny):
        # 1,200 words once overflowed the recursive segmenter's stack
        start = time.perf_counter()
        with pytest.raises(ConspecError):
            parse_text(tiny, " ".join(["he"] * 1200))
        assert time.perf_counter() - start < 1.0

    def test_same_options_as_the_recursive_segmenter(self):
        from importlib import resources

        from conspec.model import load_corpus, load_model

        data = resources.files("conspec.data")
        english = load_model(str(data / "english.cn"))
        texts = [surface for surface, _, _ in load_corpus(str(data / "demo_corpus.tsv"))]
        texts += [" ".join(["it seems that"] * k + ["Fred seems happy"]) for k in range(4)]
        texts += ["he himself bought the car", "the eggs " * 5, "flew ran trusted"]
        cases = [(english, text) for text in texts]
        # seeded affix-heavy texts of 1 to 14 words, drawn from units of one or
        # two words; each pool has a few words its model does not know
        english_units = (["seems"] * 12 + [
            "seemed", "trusted", "eggs", "pick up", "holy cow", "either or", "either", "it", "that",
        ]) * 3 + ["walked", "abab"]
        affix_units = (["abab", "ababab", "walked", "rewalked", "walk up"] * 2 + [
            "walks", "berries", "walk", "up", "ab", "reab", "abwalk",
        ]) * 3 + ["seems"]
        rng = random.Random(13)
        for model, units in ((english, english_units), (load_model_text(AFFIX_MODEL), affix_units)):
            for _ in range(420):
                k = rng.randint(1, 14)
                text = " ".join(" ".join(rng.choice(units) for _ in range(k)).split()[:k])
                if cover_count(model, text) <= 20000:  # bounds the exhaustive oracle's time
                    cases.append((model, text))
        assert sum(cover_count(model, text) > 32 for model, text in cases) > 200
        for model, text in cases:
            want = recursive_segment_raw(model, text)  # [] where nothing covers the text
            try:
                got = _segment_raw(model, text)
            except UnparseableTextError:
                got = []
            assert got == want, text

    def test_many_ambiguous_words_segment_fast(self):
        from importlib import resources

        from conspec.model import load_model

        model = load_model(str(resources.files("conspec.data") / "english.cn"))
        start = time.perf_counter()
        got = segment(model, " ".join(["seems"] * 64))
        assert time.perf_counter() - start < 0.1
        assert len(got) == 32 and got[0] == ["seems"] * 64

    def test_one_stem_reached_by_two_affix_splits(self):
        from conspec.treeline import print_network

        model = load_model_text(AFFIX_MODEL)
        assert segment(model, "abab") == [["ab", "+ab"], ["ab+", "ab"]]
        ranked = [print_network(net) for net, _, _ in parse_text(model, "abab")]
        assert sorted(ranked) == ["ab > {past}", "ab > {plural}"]


def cover_count(model, text: str) -> int:
    """How many covers (duplicates included) the recursive segmenter builds
    for the text: the size of its list at position 0."""
    words = text.split()
    index = chart_index(model)
    n = len(words)
    count = [0] * n + [1]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, min(n, i + index.max_words) + 1):
            if index.knows(" ".join(words[i:j])):
                count[i] += count[j]
        count[i] += len(_decompose(words[i], index)) * count[i + 1]
    return count[0]


def recursive_segment_raw(model, text: str) -> list[list[str]]:
    """``parser._segment_raw`` as it was before it filled its table with a
    loop, kept verbatim but for the error branch."""
    words = text.split()
    index = chart_index(model)

    table: dict[int, list[tuple[list[str], int]]] = {len(words): [([], 0)]}

    def seg(i: int) -> list[tuple[list[str], int]]:
        if i in table:
            return table[i]
        options: list[tuple[list[str], int]] = []
        for j in range(min(len(words), i + index.max_words), i, -1):
            token = " ".join(words[i:j])
            if index.knows(token):
                for rest, splits in seg(j):
                    options.append(([token] + rest, splits))
        for decomp in _decompose(words[i], index):
            for rest, splits in seg(i + 1):
                options.append((decomp + rest, splits + 1))
        table[i] = options
        return options

    results = seg(0)
    ordered = sorted(results, key=lambda r: (r[1], len(r[0])))
    out, seen = [], set()
    for tokens, _ in ordered:
        key = tuple(tokens)
        if key not in seen:
            seen.add(key)
            out.append(tokens)
    return out[:32]


class TestParseText:
    def test_svo_reverse(self, tiny):
        ranked = parse_text(tiny, "he trusted John")
        assert equal(ranked[0][0], parse_network("trust > [{past}, {agent} > he, {theme} > John]"))
        assert ranked[0][1] == 1.0

    def test_analogical_reverse(self, tiny):
        ranked = parse_text(tiny, "jumped")
        assert equal(ranked[0][0], parse_network("jump > {past}"))
        assert ranked[0][1] == pytest.approx(0.9)

    def test_unparseable_raises(self, tiny):
        with pytest.raises(UnparseableTextError):
            parse_text(tiny, "xyzzy")

    def test_seem_sentences_share_canonical_network(self, seem_model):
        a = parse_text(seem_model, "Fred seems happy")[0][0]
        b = parse_text(seem_model, "it seems that Fred is happy")[0][0]
        assert equal(a, b)
        assert equal(a, parse_network("Fred > happy > seem > {present}"))

    def test_partial_spans_reported(self, tiny):
        # every word known, but no rule covers the whole string
        with pytest.raises(UnparseableTextError) as exc:
            parse_text(tiny, "John John John John")
        assert exc.value.best_spans

    def test_inverse_of_realize(self, tiny):
        net = parse_network("trust > [{past}, {agent} > he, {theme} > John]")
        text = realize(tiny, net)[0][0]
        back = parse_text(tiny, text)
        assert any(equal(n, net) for n, _, _ in back[:3])

    def test_realize_of_parse(self, seem_model):
        for sentence in ("Fred seems happy", "it seems that Fred is happy"):
            net = parse_text(seem_model, sentence)[0][0]
            outs = [s for s, _, _ in realize(seem_model, net)[:3]]
            assert sentence in outs

    @pytest.mark.parametrize(
        "tree, text, tokens",
        [
            ("tidy > {re}", "untidy", ["un+", "tidy"]),
            ("tidy > [{re}, {past}]", "untidyed", ["un+", "tidy", "+ed"]),
        ],
    )
    def test_prefix_affixes_round_trip(self, tree, text, tokens):
        model = load_model_text(
            "tidy = {adj}\n"
            "tidy > {re} <=> ['un+', tidy]\n"
            "tidy > [{re}, {past}] <=> ['un+', tidy, '+ed']\n"
        )
        net = parse_network(tree)
        assert realize(model, net)[0][0] == text
        assert segment(model, text) == [tokens]
        ranked = parse_text(model, text)
        assert equal(ranked[0][0], net)
        assert ranked[0][1] == 1.0


ORTHO_MODEL = """
set orthography on
break = {verb}
it = {noun}
window = {noun}
the = {det}
rock = {noun}
a = {det}
(break > [{past}, {agent} > it, {theme} > window > the]) > {?} <=> ['did', it, break, window > the]
break > [{past}, {agent} > it, {theme} > window > the] <=> [it, 'broke', window > the]
rock > a <=> [a, rock]
"""


# The participle's '>>' resolves only once the noun rule embeds its capsule,
# so the item for "trembling" alone has an anchor that does not resolve.
PARTICIPLE_MODEL = """
bird = noun
tremble = {verb}
trembling = adj
(tremble > >>{agent}) <=> ['trembling']
bird > (tremble) <=> [(tremble), bird]
"""


class TestAnchorsCheckedOnCompleteParses:
    def test_anchor_resolved_by_a_later_rule(self):
        model = load_model_text(PARTICIPLE_MODEL)
        ranked = parse_text(model, "trembling bird")
        assert [print_network(net) for net, _, _ in ranked] == ["bird > (tremble > >>{agent})"]
        assert realize(model, ranked[0][0])[0][0] == "trembling bird"

    def test_parse_with_an_open_anchor_is_dropped(self):
        model = load_model_text(PARTICIPLE_MODEL)
        ranked = parse_text(model, "trembling")
        assert [print_network(net) for net, _, _ in ranked] == ["trembling"]

    def test_only_open_anchor_parses_is_unparseable(self):
        # an UnparseableTextError, not the anchor's MalformedNetworkError
        model = load_model_text(PARTICIPLE_MODEL.replace("trembling = adj\n", ""))
        with pytest.raises(UnparseableTextError) as exc:
            parse_text(model, "trembling")
        assert "resolves to an encapsulation with no parent" in str(exc.value)


class TestOrthographyPipeline:
    def test_realize_applies_orthography(self):
        from conspec.model import load_model_text

        model = load_model_text(ORTHO_MODEL)
        net = parse_network("(break > [{past}, {agent} > it, {theme} > window > the]) > {?}")
        assert realize(model, net)[0][0] == "Did it break the window?"

    def test_parse_strips_and_prefers_marked_network(self):
        from conspec.model import load_model_text

        model = load_model_text(ORTHO_MODEL)
        question = parse_text(model, "Did it break the window?")[0][0]
        assert equal(
            question,
            parse_network("(break > [{past}, {agent} > it, {theme} > window > the]) > {?}"),
        )
        statement = parse_text(model, "It broke the window.")[0][0]
        assert equal(
            statement,
            parse_network("break > [{past}, {agent} > it, {theme} > window > the]"),
        )

    def test_sentence_initial_lowercase_fallback(self):
        from conspec.model import load_model_text

        model = load_model_text(ORTHO_MODEL)
        # 'It' is not a surface form; the lowercase fallback recovers it
        tokens = segment(model, "It broke the window.")
        assert tokens[0][0] == "it"


def _count_vocabulary_builds(monkeypatch) -> list:
    import conspec.parser

    calls = []
    build = conspec.parser.build_vocabulary
    monkeypatch.setattr(
        conspec.parser, "build_vocabulary", lambda *a: calls.append(a) or build(*a)
    )
    return calls


class TestVocabulary:
    def test_parse_builds_no_vocabulary(self, tiny, monkeypatch):
        # once the model has parsed, later parses reuse its vocabulary
        parse_text(tiny, "he trusted John")
        calls = _count_vocabulary_builds(monkeypatch)
        parse_text(tiny, "he trusted John")
        assert calls == []

    def test_vocabulary_is_built_on_the_first_parse_only(self, monkeypatch):
        # the chart index is the parser's one table: a load builds none, a
        # realize neither, and the first parse builds it once for the rule
        # tuple, shared by a copy with other pragmas
        from argparse import Namespace

        from conspec.cli import _with_overrides
        from conspec.parser import build_vocabulary

        calls = _count_vocabulary_builds(monkeypatch)
        model = load_model_text(TINY_MODEL)
        indexes, slot = model.lexicon.root_indexes, ("chart", model.pragmas.alpha)
        assert indexes == {}
        realize(model, parse_network("trust > [{past}, {agent} > he, {theme} > John]"))
        assert calls == [] and slot not in indexes
        parse_text(model, "he trusted John")
        parse_text(model, "he trusted John")
        assert len(calls) == 1
        index = chart_index(model)
        assert index is indexes[slot]
        assert index.surfaces == build_vocabulary(model.rules, model.lexicon)
        copy = _with_overrides(model, Namespace(beam=4, tau=0.25))
        assert copy.pragmas != model.pragmas and chart_index(copy) is index
        assert len(calls) == 1


class TestAffixCap:
    """``MAX_AFFIXES_PER_WORD`` (3) changes the answer: a fourth suffix on one
    word leaves it without a segmentation."""

    @pytest.fixture(scope="class")
    def english(self):
        from importlib import resources

        from conspec.model import load_model

        return load_model(str(resources.files("conspec.data") / "english.cn"))

    def test_three_suffixes_segment_and_parse(self, english):
        assert segment(english, "the eggsss") == [["the", "egg", "+s", "+s", "+s"]]
        assert parse_text(english, "the eggsss")

    def test_four_suffixes_do_not_segment(self, english):
        with pytest.raises(UnparseableTextError) as info:
            parse_text(english, "the eggssss")
        assert str(info.value) == (
            "no segmentation of 'the eggssss'; longest known prefix: 'the'"
        )


class TestDeterminism:
    def test_repeated_parses_identical(self):
        from importlib import resources

        from conspec.model import load_model
        from conspec.treeline import print_network

        model = load_model(str(resources.files("conspec.data") / "english.cn"))
        first = [
            (print_network(n), s) for n, s, _ in parse_text(model, "the rain washed the truck")
        ]
        for _ in range(3):
            again = [
                (print_network(n), s) for n, s, _ in parse_text(model, "the rain washed the truck")
            ]
            assert again == first

    def test_output_independent_of_hash_seed(self):
        # three splits of one word, and three senses of one label that a
        # beam of 1 cannot all keep: their order must come from the model text
        script = """
from conspec.model import load_model_text
from conspec.parser import parse_text, segment
from conspec.treeline import print_network
affixes = load_model_text(
    "walk > {past} <=> [walk, '+ed']\\n"
    "walke > {plural} <=> [walke, '+d']\\n"
    "wal > {past} <=> [wal, '+ked']\\n"
)
senses = load_model_text("set beam 1\\nbank = place\\nbank#2 = thing\\nbank#3 = act\\n")
print(segment(affixes, "walked"))
print([(print_network(n), s) for n, s, _ in parse_text(senses, "bank")])
"""
        src = str(Path(conspec.__file__).parent.parent)
        outputs = set()
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outputs.add(run.stdout)
        assert len(outputs) == 1
        assert outputs.pop().splitlines() == [
            "[['walk', '+ed'], ['walke', '+d'], ['wal', '+ked']]",
            "[('bank', 1.0)]",
        ]


class TestChartReuse:
    def test_no_span_instantiates_a_combination_twice(self, monkeypatch):
        from collections import Counter
        from importlib import resources

        import conspec.parser
        from conspec.model import load_corpus, load_model
        from conspec.rules import Literal

        data = resources.files("conspec.data")
        model = load_model(str(data / "english.cn"))
        charts: list[tuple[list[str], list]] = []
        chart_parse = conspec.parser._chart_parse
        instantiate = conspec.parser.instantiate_reverse

        def record_chart(model, tokens):
            charts.append((tokens, []))
            return chart_parse(model, tokens)

        def record_call(rule, alignments):
            # each pattern part's alignment binds its pattern root to the root
            # node of the item's network, which names that item; the
            # alignments stay referenced, so those nodes' ids stay unique
            fragments = [
                None if got is None else got.binding[part.pattern.roots[0]]
                for part, got in zip(rule.parts, alignments)
            ]
            charts[-1][1].append((rule, fragments, list(alignments)))
            return instantiate(rule, alignments)

        monkeypatch.setattr(conspec.parser, "_chart_parse", record_chart)
        monkeypatch.setattr(conspec.parser, "instantiate_reverse", record_call)
        for surface, _, _ in load_corpus(str(data / "demo_corpus.tsv")):
            parse_text(model, surface)

        assert sum(len(calls) for _, calls in charts) > 0
        for tokens, calls in charts:
            # each fragment network belongs to one chart item, and so to one
            # span; a rule whose parts are all literals has no fragment, and
            # is tried once at each place its literals occur
            seen = Counter(
                (id(rule), tuple(None if f is None else id(f) for f in frags))
                for rule, frags, _ in calls
            )
            rules = {id(rule): rule for rule, _, _ in calls}
            for (rule_key, frag_ids), times in seen.items():
                rule = rules[rule_key]
                if any(f is not None for f in frag_ids):
                    assert times == 1, (tokens, rule.rule_id)
                    continue
                assert all(isinstance(p, Literal) for p in rule.parts)
                texts = [p.text for p in rule.parts]
                places = sum(
                    tokens[at : at + len(texts)] == texts for at in range(len(tokens))
                )
                assert times == places, (tokens, rule.rule_id)

    def test_no_part_is_aligned_twice_with_one_item(self, monkeypatch):
        from collections import Counter

        import conspec.parser

        model, surfaces = english_and_demo_surfaces()
        charts: list[list] = []
        chart_parse = conspec.parser._chart_parse
        align = conspec.parser.align_networks

        def record_chart(model, tokens):
            charts.append([])
            return chart_parse(model, tokens)

        def record_align(pattern, target, sim, *, total):
            # each rule part owns its pattern object, and each chart item its
            # network; the targets stay referenced, so their ids stay unique
            charts[-1].append((pattern, target))
            return align(pattern, target, sim, total=total)

        monkeypatch.setattr(conspec.parser, "_chart_parse", record_chart)
        monkeypatch.setattr(conspec.parser, "align_networks", record_align)
        for surface in surfaces:
            parse_text(model, surface)

        assert sum(len(calls) for calls in charts) > 0
        for calls in charts:
            seen = Counter((id(pattern), id(target)) for pattern, target in calls)
            assert max(seen.values(), default=1) == 1

    def test_later_sweeps_retile_only_one_part_pattern_rules(self, monkeypatch):
        check_sweeps(monkeypatch, 16)  # english.cn's own beam

    @pytest.mark.parametrize("beam", [1, 2, "cap"])
    def test_later_sweeps_retile_only_one_part_pattern_rules_at_other_beams(
        self, monkeypatch, beam
    ):
        check_sweeps(monkeypatch, beam)

    @pytest.mark.parametrize("beam", [1, 2, 16])
    def test_later_sweeps_retile_only_one_part_pattern_rules_on_the_stress_model(
        self, monkeypatch, beam
    ):
        from .gen import STRESS_MODEL

        check_sweeps(monkeypatch, beam, STRESS_MODEL)


def check_sweeps(monkeypatch, beam, model_path=None) -> None:
    """A span's first sweep visits the rules of at most as many parts as
    the span has tokens, in declaration order, and every later sweep visits
    the one-part pattern rules alone; the gate passes over some of them
    (each checked to have no tiling by ``chart_sweeps``)."""
    from conspec.rules import PatternPart

    from .test_rule_filters import chart_sweeps, models_and_tokens

    model, token_lists = models_and_tokens(beam, model_path)
    spans = chart_sweeps(monkeypatch, model, token_lists)
    every = list(model.rules)
    regrow = [r for r in every if len(r.parts) == 1 and isinstance(r.parts[0], PatternPart)]
    assert 0 < len(regrow) < len(every)
    swept_again = by_width = by_gate = 0
    for span in spans:
        at = (span.tokens, span.i, span.j)
        first = [r for r in every if len(r.parts) <= span.j - span.i]
        assert set(map(id, regrow)) <= set(map(id, first)), at
        visited = [id(v.rule) for v in span.visits]
        assert visited[: len(first)] == [id(r) for r in first], at
        later = visited[len(first) :]
        sweeps = len(later) // len(regrow)
        assert later == [id(r) for r in regrow] * sweeps, at
        swept_again += sweeps > 0
        by_width += len(first) < len(every)
        by_gate += bool(span.skipped)
    assert swept_again > 0
    assert by_width > 0
    assert by_gate > 0


def english_and_demo_surfaces():
    from importlib import resources

    from conspec.model import load_corpus, load_model

    data = resources.files("conspec.data")
    model = load_model(str(data / "english.cn"))
    return model, [surface for surface, _, _ in load_corpus(str(data / "demo_corpus.tsv"))]
