import random
import string
import sys
from importlib import resources

import pytest

from conspec.errors import TreelineParseError
from conspec.lexicon import Lexicon
from conspec.network import canonicalize, equal, resolve_anchors, to_json_dict
from conspec.similarity import network_sim
from conspec.treeline import (
    MAX_NESTING,
    DeclareStmt,
    DefinitionStmt,
    MapStmt,
    NetworkStmt,
    PragmaStmt,
    RuleStmt,
    TransferRuleStmt,
    parse_document,
    parse_network,
    print_network,
)

from .gen import gen_network
from .test_walk_oracle import assert_walks_match


def construction_rows() -> list[tuple[str, str, str]]:
    text = resources.files("conspec.data").joinpath("construction_corpus.tsv").read_text()
    rows = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        rows.append((fields[0], fields[1], fields[2]))
    return rows


class TestParseNetwork:
    def test_simple_chain(self):
        n = parse_network("Anne > quiet > {past}")
        anne = n.roots[0]
        assert anne.concept.label == "Anne"
        quiet = anne.specifiers[0]
        assert quiet.concept.label == "quiet"
        assert quiet.specifiers[0].concept.stemless

    def test_event_proposition(self):
        n = parse_network(
            "approach > [{past}, {agent} > Anne, {theme} > (teacher > stern) > the, reluctantly]"
        )
        root = n.roots[0]
        assert root.concept.label == "approach"
        assert len(root.specifiers) == 4
        theme = root.specifiers[2]
        capsule = theme.specifiers[0]
        assert capsule.is_capsule
        assert capsule.capsule.roots[0].concept.label == "teacher"
        assert capsule.specifiers[0].concept.label == "the"

    def test_single_concept(self):
        n = parse_network("x")
        assert n.roots[0].concept.label == "x"
        assert not n.roots[0].specifiers

    def test_bracket_group_attaches_and_chain_continues(self):
        n = parse_network("{re} > [Fred, (plumber > the)] > {present}")
        re_node = n.roots[0]
        labels = []
        for s in re_node.specifiers:
            labels.append("(capsule)" if s.is_capsule else s.concept.label)
        assert labels == ["Fred", "(capsule)", "present"]

    def test_multiword_labels(self):
        n = parse_network("pick up > [{future}, {agent} > Mary]")
        assert n.roots[0].concept.label == "pick up"

    def test_sense_annotation(self):
        n = parse_network("bank#2 > steep")
        assert n.roots[0].concept.sense == 2
        assert print_network(n) == "bank#2 > steep"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "a >",
            "a > [b, c",
            "a > (b",
            ">>x",
            "a > [, b]",
            "a > 'lit'",
            "[a, b]",
            "a > b)",
            "<<<<x",
            "a >>> b",
        ],
    )
    def test_parse_errors_have_position(self, bad):
        with pytest.raises(TreelineParseError) as exc:
            parse_network(bad)
        assert exc.value.line >= 1 and exc.value.col >= 1

    def test_anchor_depth_two_single_item(self):
        n = parse_network("a > ((b > >>>>x))")
        inner = n.roots[0].specifiers[0].capsule.roots[0].capsule.roots[0]
        anchored = inner.specifiers[0]
        assert anchored.anchor.depth == 2


class TestPrintNetwork:
    def test_relative_clause_network(self):
        text = (
            "bark > [{past}, {agent} > dog > (eat > [{past}, >>{agent},"
            " {theme} > (butter > peanut) > the]), happily]"
        )
        assert print_network(parse_network(text)) == text

    def test_single_stemless(self):
        assert print_network(parse_network("{past}")) == "{past}"

    def test_round_trip_generated(self):
        rng = random.Random(23)
        for _ in range(300):
            n = gen_network(rng)
            assert equal(parse_network(print_network(n)), n)

    def test_round_trip_multiroot(self):
        n = parse_network("a > b, c > d")
        assert len(n.roots) == 2
        assert equal(parse_network(print_network(n)), n)


class TestConstructionCorpus:
    def test_all_rows_parse_canonicalize_roundtrip(self):
        rows = construction_rows()
        assert len(rows) >= 45
        for _, _, treeline in rows:
            net = parse_network(treeline)
            canon = canonicalize(net)
            reparsed = parse_network(print_network(canon))
            assert equal(reparsed, net)
            # re-canonicalizing is a fixed point
            assert print_network(canonicalize(canon)) == print_network(canon)

    def test_reification_pair_collapses(self):
        rows = [t for c, _, t in construction_rows() if c == "Reification"]
        assert len(rows) == 2
        assert equal(parse_network(rows[0]), parse_network(rows[1]))

    def test_copula_seem_pair_collapses(self):
        rows = [t for c, s, t in construction_rows() if c == "Copula" and "seem" in s.lower()]
        assert len(rows) == 2
        assert equal(parse_network(rows[0]), parse_network(rows[1]))


class TestParseDocument:
    def test_definition_statement(self):
        doc = parse_document("girl = human > [young, female]")
        (stmt,) = doc.statements
        assert isinstance(stmt, DefinitionStmt)
        assert stmt.name.label == "girl"
        assert print_network(stmt.body) == "human > [young, female]"

    def test_rule_statement(self):
        doc = parse_document("trust > {past} <=> [trust, '+ed']")
        (stmt,) = doc.statements
        assert isinstance(stmt, RuleStmt)
        assert print_network(stmt.lhs) == "trust > {past}"
        assert stmt.rhs[0][0] == "pat"
        assert stmt.rhs[1] == ("lit", "+ed")

    def test_empty_document(self):
        assert parse_document("").statements == []

    def test_mixed_statement_kinds(self):
        text = "\n".join(
            [
                "# a comment",
                "set alpha 0.9",
                "declare {past} \"past tense\"",
                "jump = {verb}",
                "trust > {past} <=> [trust, '+ed']",
                "trust > {past} => (shinji) > {ta}",
                "map he -> kare",
                "Anne > quiet > {past}",
            ]
        )
        doc = parse_document(text)
        kinds = [type(s).__name__ for s in doc.statements]
        assert kinds == [
            "PragmaStmt",
            "DeclareStmt",
            "DefinitionStmt",
            "RuleStmt",
            "TransferRuleStmt",
            "MapStmt",
            "NetworkStmt",
        ]
        assert doc.of_kind(PragmaStmt)[0].value == "0.9"
        assert doc.of_kind(DeclareStmt)[0].description == "past tense"
        assert doc.of_kind(MapStmt)[0].dst.label == "kare"

    def test_duplicate_definition_cites_both_lines(self):
        text = "a = b\n\na = c"
        with pytest.raises(TreelineParseError) as exc:
            parse_document(text)
        assert "1" in str(exc.value) and "3" in str(exc.value)

    def test_lenient_mode_collects_errors(self):
        errors = []
        doc = parse_document("a = b\na = c\nx > [", collect_errors=errors)
        assert len(errors) == 2
        assert len(doc.of_kind(DefinitionStmt)) == 2

    def test_either_or_normalized_with_lint(self):
        doc = parse_document("either...or > [a, b]")
        (stmt,) = doc.statements
        assert isinstance(stmt, NetworkStmt)
        assert stmt.network.roots[0].concept.label == "either or"
        assert any("either" in l for l in doc.lints)

    def test_either_or_normalized_in_definition_name(self):
        doc = parse_document("either...or = b\nx > either. ..or")
        definition, network = doc.statements
        assert isinstance(definition, DefinitionStmt)
        assert definition.name == network.network.roots[0].specifiers[0].concept
        assert definition.name.label == "either or"
        assert doc.lints == ["line 1: normalized 'either...or' to 'either or'"]

    def test_either_or_normalized_in_map_entry(self):
        doc = parse_document("map either.. .or -> y\nmap x -> either...or")
        first, second = doc.of_kind(MapStmt)
        assert first.src.label == "either or" and second.dst.label == "either or"
        assert doc.lints == ["line 2: normalized 'either...or' to 'either or'"]

    def test_comment_with_sense_not_comment(self):
        doc = parse_document("bank#2 = slope")
        (stmt,) = doc.statements
        assert stmt.name.sense == 2

    def test_comment_line_after_other_whitespace_is_an_error(self):
        # spaces and tabs before a comment are skipped, but a no-break space
        # is a label character that normalizes to nothing
        assert parse_document(" \t# note\n# note").statements == []
        with pytest.raises(TreelineParseError) as info:
            parse_document("\xa0# note")
        assert (info.value.args[0], info.value.line, info.value.col) == (
            "unexpected character '\\xa0'",
            1,
            1,
        )


class TestSenseAnnotation:
    @pytest.mark.parametrize("text", ["a#² > b", "a#١ > b", "a#²3"])
    def test_hash_before_a_non_ascii_digit_starts_a_comment(self, text):
        assert print_network(parse_network(text)) == "a"

    @pytest.mark.parametrize(
        "text, col", [("a > b#2#3", 8), ("{b#2}#3", 6), ("b#2 #3", 5), ("{b}#2\n#3", 1)]
    )
    def test_second_sense_is_a_parse_error_at_its_column(self, text, col):
        with pytest.raises(TreelineParseError, match="one sense annotation") as exc:
            parse_network(text)
        assert exc.value.col == col

    @pytest.mark.parametrize("text", ["{b#2#3}", "{b#x}", "{b#²}", "{#2}"])
    def test_bad_sense_inside_braces_is_a_parse_error(self, text):
        with pytest.raises(TreelineParseError, match="bad sense annotation"):
            parse_network(text)

    def test_sense_inside_braces(self):
        assert parse_network("{b #2}").roots[0].concept.sense == 2

    def test_sense_with_more_digits_than_int_converts(self):
        text = "a#" + "1" * 5000
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < 5000:
            with pytest.raises(TreelineParseError, match="bad sense annotation"):
                parse_network(text)
        else:
            assert parse_network(text).roots[0].concept.sense == int(text[2:])

    def test_set_and_declare_comments_follow_the_same_rule(self):
        doc = parse_document('set beam 4 #² note\ndeclare {y} "d" #١ note')
        assert doc.of_kind(PragmaStmt)[0].value == "4"
        assert doc.of_kind(DeclareStmt)[0].description == "d"

    def test_second_sense_in_a_model_line_is_a_parse_error(self):
        with pytest.raises(TreelineParseError) as exc:
            parse_document("x#2#3 = y")
        assert (exc.value.line, exc.value.col) == (1, 4)


class TestFuzz:
    def test_parser_never_panics(self):
        rng = random.Random(5)
        alphabet = "ab {}[]()><,='#0123456789²" + string.ascii_lowercase[:4]
        for _ in range(1500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            try:
                parse_network(text)
            except TreelineParseError:
                pass


def _chain(levels: int) -> str:
    return " > ".join(f"a{i}" for i in range(levels))


def _brackets(levels: int) -> str:
    return "a0" + "".join(f" > [a{i}" for i in range(1, levels)) + "]" * (levels - 1)


def _capsules(levels: int) -> str:
    return "(" * (levels - 1) + "a" + ")" * (levels - 1)


def _on_deeper_stack(frames: int, fn):
    return fn() if frames == 0 else _on_deeper_stack(frames - 1, fn)


class TestNestingLimit:
    @pytest.mark.parametrize("form", [_chain, _brackets, _capsules])
    def test_every_op_succeeds_at_the_limit(self, form):
        def ops():
            net = parse_network(form(MAX_NESTING))
            assert equal(parse_network(print_network(net)), net)
            to_json_dict(resolve_anchors(canonicalize(net)))
            assert network_sim(Lexicon(), net, net)[0] == 1.0
            assert assert_walks_match(net) == MAX_NESTING

        _on_deeper_stack(100, ops)  # headroom for callers' own frames

    @pytest.mark.parametrize("form", [_chain, _brackets, _capsules])
    def test_one_level_past_the_limit_is_a_parse_error(self, form):
        with pytest.raises(TreelineParseError, match=f"deeper than {MAX_NESTING}"):
            parse_network(form(MAX_NESTING + 1))
