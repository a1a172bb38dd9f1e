import random
from importlib import resources

import pytest

from conspec.errors import ModelLoadError, UntranslatableConceptError
from conspec.model import load_corpus, load_model
from conspec.network import Concept, ConceptNetwork, canonicalize, equal, resolve_anchors
from conspec.rules import (
    ConceptMap,
    Literal,
    PatternPart,
    Rule,
    _collect_transfer_matches,
    build_rule,
    build_transfer_rule,
    instantiate_reverse,
    match_rules,
    realize_parts,
    reverse_score,
    transfer_scored,
)
from conspec.similarity import align_networks, rule_node_sim
from conspec.treeline import parse_document, parse_network, print_network

from .gen import gen_network
from .test_lexicon import make_lexicon

DATA = resources.files("conspec.data")

SQRT_09 = 0.9486832980505138


def rule_from_text(text: str, rule_id: str = "r1") -> Rule:
    doc = parse_document(text)
    stmt = doc.statements[0]
    return build_rule(stmt.lhs, stmt.rhs, rule_id, stmt.line)


def reverse(rule: Rule, fragments, lex, alpha: float):
    """(instantiate_reverse, reverse_score) on each pattern part aligned with
    its fragment, as the chart parser does it; None when some part has no
    alignment."""
    sim = rule_node_sim(lex, alpha)
    alignments = []
    for part, fragment in zip(rule.parts, fragments):
        got = None
        if fragment is not None:
            got = align_networks(part.pattern, fragment, sim, total=False)
            if got is None:
                return None
        alignments.append(got)
    return instantiate_reverse(rule, alignments), reverse_score(alignments)


@pytest.fixture
def lex():
    return make_lexicon({"trust": "{verb}", "jump": "{verb}", "lift": "{verb}"})


@pytest.fixture
def past_rule(lex):
    return rule_from_text("trust > {past} <=> [trust, '+ed']", "past-ed")


@pytest.fixture
def svo_rule(lex):
    return rule_from_text(
        "trust > [{past}, {agent} > he, {theme} > John] <=> [he, trust > {past}, John]", "svo"
    )


class TestBuildRule:
    def test_parts_bind_into_lhs(self, svo_rule):
        parts = [p for p in svo_rule.parts if isinstance(p, PatternPart)]
        assert len(parts) == 3
        verb_part = parts[1]
        assert {n.concept.label for n in verb_part.to_lhs.values()} == {"trust", "past"}

    def test_unbound_part_rejected(self):
        with pytest.raises(ModelLoadError):
            rule_from_text("trust > {past} <=> [jump, '+ed']")

    def test_ambiguous_part_rejected(self):
        with pytest.raises(ModelLoadError):
            rule_from_text("like > [{agent} > I, {theme} > I] <=> [I]")

    def test_overlapping_parts_rejected(self):
        with pytest.raises(ModelLoadError, match="rule parts overlap on the pattern"):
            rule_from_text("trust > {past} <=> [trust > {past}, trust]")

    def test_part_inside_capsule_binds(self):
        rule = rule_from_text("(dress > the) <=> ['the', dress]")
        (part,) = [p for p in rule.parts if isinstance(p, PatternPart)]
        assert part.lhs_root.concept.label == "dress"


class TestMatchRules:
    def test_exact_match_scores_one(self, lex, past_rule):
        matches = match_rules((past_rule,), lex, parse_network("trust > {past}"))
        assert len(matches) == 1
        assert matches[0].score == 1.0

    def test_analogical_match_trust_to_jump(self, lex, past_rule):
        matches = match_rules((past_rule,), lex, parse_network("jump > {past}"))
        assert len(matches) == 1
        assert matches[0].score == pytest.approx(SQRT_09, abs=1e-12)
        mapped = {l.concept.label: t.concept.label for l, t in matches[0].binding.items()}
        assert mapped["trust"] == "jump"

    def test_no_alignment_empty_list(self, lex, past_rule):
        assert match_rules((past_rule,), lex, parse_network("Anne > quiet")) == []

    def test_exact_outranks_analogical(self, lex, past_rule):
        specific = rule_from_text("jump > {past} <=> ['jumped']", "jump-past")
        matches = match_rules((past_rule, specific), lex, parse_network("jump > {past}"))
        assert [m.rule.rule_id for m in matches] == ["jump-past", "past-ed"]

    def test_tau_filters(self, lex, past_rule):
        got = match_rules((past_rule,), lex, parse_network("jump > {past}"), tau=0.96)
        assert got == []

    def test_is_a_lets_category_rules_apply(self):
        lex = make_lexicon({"jump": "{verb}"})
        rule = rule_from_text("{verb} > {past} <=> [{verb}, '+ed']", "verb-past")
        matches = match_rules((rule,), lex, parse_network("jump > {past}"))
        assert len(matches) == 1
        assert matches[0].score == pytest.approx(0.9 ** 0.5)

    def test_stemless_substitution_forbidden(self, lex, past_rule):
        assert match_rules((past_rule,), lex, parse_network("jump > {future}")) == []

    def test_remainder_under_dropped_node_rejected(self, lex, svo_rule):
        # extra content under the dropped {agent} role marker would vanish
        net = parse_network("trust > [{past}, {agent} > [he, x], {theme} > John]")
        assert match_rules((svo_rule,), lex, net) == []

    def test_remainder_under_part_absorbed(self, lex, svo_rule):
        net = parse_network("trust > [{past}, {agent} > he, {theme} > John > tall]")
        matches = match_rules((svo_rule,), lex, net)
        assert len(matches) == 1
        parts = realize_parts(matches[0])
        assert print_network(parts[2]) == "John > tall"

    def test_deterministic_ordering(self, lex, past_rule):
        net = parse_network("jump > {past}")
        specific = rule_from_text("jump > {past} <=> ['jumped']", "jump-past")
        rules = (past_rule, specific)
        first = [(m.rule.rule_id, m.score) for m in match_rules(rules, lex, net)]
        for _ in range(5):
            again = [(m.rule.rule_id, m.score) for m in match_rules(rules, lex, net)]
            assert again == first


class TestRealizeParts:
    def test_svo_rule_rewrite(self, lex, svo_rule):
        net = parse_network("trust > [{past}, {agent} > he, {theme} > John]")
        (match,) = match_rules((svo_rule,), lex, net)
        parts = realize_parts(match)
        assert print_network(parts[0]) == "he"
        assert print_network(parts[1]) == "trust > {past}"
        assert print_network(parts[2]) == "John"

    def test_analogical_fragment_carries_target_concepts(self, lex, svo_rule):
        net = parse_network("lift > [{past}, {agent} > he, {theme} > John]")
        (match,) = match_rules((svo_rule,), lex, net)
        parts = realize_parts(match)
        assert print_network(parts[1]) == "lift > {past}"


    def test_remainders_go_to_the_part_carrying_their_parent(self):
        # a remainder is an unbound specifier child of a bound target node; it
        # must reach the fragment of the part that carries that node, verbatim
        model = load_model(str(DATA / "english.cn"))
        lex, pragmas = model.lexicon, model.pragmas
        nets = [net for _, net, _ in load_corpus(str(DATA / "demo_corpus.tsv"))]
        rng = random.Random(9)
        nets += [gen_network(rng, max_nodes=8) for _ in range(300)]
        checked = 0
        for net in nets:
            for node in net.iter_nodes():
                region = ConceptNetwork((node,))
                for match in match_rules(model.rules, lex, region, alpha=pragmas.alpha, tau=pragmas.tau):
                    bound = set(match.binding.values())
                    fragments = realize_parts(match)
                    for l, t in match.binding.items():
                        unbound = [c for c in t.specifiers if c not in bound]
                        i = match.rule.part_at.get(id(l))
                        if i is None:
                            assert unbound == []  # content under a dropped node
                            continue
                        for child in unbound:
                            checked += 1
                            holders = [
                                k
                                for k, frag in enumerate(fragments)
                                if isinstance(frag, ConceptNetwork)
                                and any(n is child for n in frag.iter_nodes())
                            ]
                            assert holders == [i]
        assert checked > 0


class TestInstantiateReverse:
    def test_past_rule_reverse_exact(self, lex, past_rule):
        got = reverse(past_rule, [parse_network("trust"), None], lex, 0.9)
        assert got is not None
        net, score = got
        assert equal(net, parse_network("trust > {past}"))
        assert score == 1.0

    def test_past_rule_reverse_analogical(self, lex, past_rule):
        net, score = reverse(past_rule, [parse_network("jump"), None], lex, 0.9)
        assert equal(net, parse_network("jump > {past}"))
        assert score == pytest.approx(0.9)

    def test_svo_rule_reverse_rebuilds_roles(self, lex, svo_rule):
        frags = [parse_network("he"), parse_network("trust > {past}"), parse_network("John")]
        net, score = reverse(svo_rule, frags, lex, 0.9)
        assert equal(net, parse_network("trust > [{past}, {agent} > he, {theme} > John]"))
        assert score == 1.0

    def test_reverse_keeps_fragment_remainders(self, lex, svo_rule):
        frags = [parse_network("rain > the"), parse_network("wash > {past}"), parse_network("truck > the")]
        lex2 = make_lexicon(
            {
                "trust": "{verb}", "wash": "{verb}",
                "he": "{noun}", "rain": "{noun}", "John": "{noun}", "truck": "{noun}",
            }
        )
        net, score = reverse(svo_rule, frags, lex2, 0.9)
        assert equal(
            net,
            parse_network("wash > [{past}, {agent} > rain > the, {theme} > truck > the]"),
        )

    def test_reverse_failure_returns_none(self, lex, past_rule):
        assert reverse(past_rule, [parse_network("{future}"), None], lex, 0.9) is None

    def test_capsule_rebuilt_around_parts(self, lex):
        rule = rule_from_text(
            "(go > [{present}, {agent} > she]) > can <=> [she, can, go]", "modal"
        )
        frags = [parse_network("she"), parse_network("can"), parse_network("go")]
        net, _ = reverse(rule, frags, lex, 0.9)
        assert equal(net, parse_network("(go > [{present}, {agent} > she]) > can"))


def transfer_fixture():
    lex = make_lexicon(
        {
            "trust": "{verb}", "wash": "{verb}",
            "he": "{noun}", "rain": "{noun}", "John": "{noun}", "truck": "{noun}",
            "the": "{det}", "a": "{det}",
        }
    )
    cmap = ConceptMap(
        {
            Concept("trust"): Concept("shinji"),
            Concept("wash"): Concept("ara"),
            Concept("he"): Concept("kare"),
            Concept("rain"): Concept("ame"),
            Concept("John"): Concept("Jon"),
            Concept("truck"): Concept("torakku"),
            Concept("the"): Concept("sono"),
            Concept("a"): Concept("aru"),
            Concept("past", True): Concept("ta", True),
            Concept("agent", True): Concept("agent", True),
            Concept("theme", True): Concept("theme", True),
        }
    )
    doc = parse_document(
        "trust > [{past}, {agent} > he, {theme} > John] => (shinji > [{agent} > kare, {theme} > Jon]) > {ta}"
    )
    stmt = doc.statements[0]
    trule = build_transfer_rule(stmt.src, stmt.dst, cmap, "t1", stmt.line)
    return lex, cmap, (trule,)


def receptor_nets(trules, cmap, net, lex):
    return [n for n, _ in transfer_scored(trules, cmap, net, lex)]


class TestTransfer:
    def test_matches_of_equal_score_come_in_preorder(self):
        cmap = ConceptMap({Concept("x"): Concept("y")})
        stmt = parse_document("x => y").statements[0]
        trules = (build_transfer_rule(stmt.src, stmt.dst, cmap, "t1"),)
        net = parse_network("x > [a, x > x]")
        matches = _collect_transfer_matches(trules, make_lexicon({}), net, 0.9, 0.5)
        want = [n for n in net.iter_nodes() if n.concept == Concept("x")]
        assert len(want) == 3
        assert [m.anchor for m in matches] == want

    def test_ties_keep_declaration_order_past_ten_rules(self):
        # t2..t5 and t11 all match the root at 1.0; "t11" sorts before "t2"
        # as a string, but declaration order puts it last, so the beam * 4
        # cap on selections (4 at beam 1) leaves it out
        text = "\n".join(
            ("a > b" if k in (2, 3, 4, 5, 11) else f"q{k}") + f" => x{k}" for k in range(1, 12)
        )
        cmap = ConceptMap({})
        trules = tuple(
            build_transfer_rule(stmt.src, stmt.dst, cmap, f"t{k}")
            for k, stmt in enumerate(parse_document(text).statements, 1)
        )
        lex, net = make_lexicon({}), parse_network("a > b")
        matches = _collect_transfer_matches(trules, lex, net, 0.9, 0.5)
        assert [m.rule.rule_id for m in matches] == ["t2", "t3", "t4", "t5", "t11"]
        scored = transfer_scored(trules, cmap, net, lex, beam=1)
        assert [(print_network(out), score) for out, score in scored] == [("x2", 1.0)]

    def test_identity(self):
        lex = make_lexicon({})
        net = canonicalize(parse_network("Anne > quiet > {past}"))
        out = receptor_nets((), ConceptMap(identity=True), net, lex)
        assert len(out) == 1
        assert equal(out[0], net)

    def test_exact_rule_relocates_tense(self):
        lex, cmap, trules = transfer_fixture()
        net = canonicalize(parse_network("trust > [{past}, {agent} > he, {theme} > John]"))
        out = receptor_nets(trules, cmap, net, lex)
        assert equal(out[0], parse_network("(shinji > [{agent} > kare, {theme} > Jon]) > {ta}"))

    def test_analogical_rule_with_remainders(self):
        lex, cmap, trules = transfer_fixture()
        net = canonicalize(parse_network("wash > [{past}, {agent} > rain > the, {theme} > truck > the]"))
        scored = transfer_scored(trules, cmap, net, lex)
        best, score = scored[0]
        assert equal(
            best,
            parse_network("(ara > [{agent} > ame > sono, {theme} > torakku > sono]) > {ta}"),
        )
        assert score == pytest.approx((0.9 ** 3) ** (1 / 6))

    def test_untranslatable_concept_named(self):
        lex, cmap, trules = transfer_fixture()
        net = canonicalize(parse_network("trust > [{past}, {agent} > he, {theme} > John > mystery]"))
        with pytest.raises(UntranslatableConceptError) as exc:
            receptor_nets(trules, cmap, net, lex)
        assert "mystery" in str(exc.value)

    @pytest.mark.parametrize(
        "text, first", [("alpha > beta", "alpha"), ("(gamma > delta) > beta", "gamma")]
    )
    def test_first_untranslatable_in_preorder_is_named(self, text, first):
        net = canonicalize(parse_network(text))  # nothing maps
        with pytest.raises(UntranslatableConceptError) as exc:
            receptor_nets((), ConceptMap(), net, make_lexicon({}))
        assert exc.value.concept_text == first

    @pytest.mark.parametrize(
        "defs, rule, text, want",
        [
            # remainder x hangs under {past}, which no dst slot carries
            (
                {},
                "trust > [{past}, {agent} > he] => shinji > {agent} > kare",
                "trust > [{past} > x, {agent} > he]",
                "shinji > [{agent} > kare, {ta} > ex]",
            ),
            # analogue slowly sits on quickly, which no dst slot carries
            (
                {"quickly": "{adv}", "slowly": "{adv}"},
                "trust > [{agent} > he, quickly] => shinji > {agent} > kare",
                "trust > [{agent} > he, slowly]",
                "shinji > [{agent} > kare, yukkuri]",
            ),
        ],
    )
    def test_rule_that_would_drop_content_is_not_applied(self, defs, rule, text, want):
        cmap = ConceptMap(
            {
                Concept("trust"): Concept("shinji"),
                Concept("he"): Concept("kare"),
                Concept("agent", True): Concept("agent", True),
                Concept("past", True): Concept("ta", True),
                Concept("x"): Concept("ex"),
                Concept("slowly"): Concept("yukkuri"),
            }
        )
        stmt = parse_document(rule).statements[0]
        trules = (build_transfer_rule(stmt.src, stmt.dst, cmap, "t1"),)
        out = receptor_nets(trules, cmap, canonicalize(parse_network(text)), make_lexicon(defs))
        assert [print_network(n) for n in out] == [want]

    def test_anchor_annotations_survive(self):
        lex, cmap, trules = transfer_fixture()
        cmap.entries[Concept("dog")] = Concept("inu")
        cmap.entries[Concept("eat")] = Concept("tabe")
        lex2 = make_lexicon({})
        net = canonicalize(resolve_anchors(parse_network("dog > (eat > [{past}, >>{agent}])")))
        cmap.entries[Concept("past", True)] = Concept("ta", True)
        out = receptor_nets((), cmap, net, lex2)
        assert print_network(out[0]) == "inu > (tabe > [>>{agent}, {ta}])"
