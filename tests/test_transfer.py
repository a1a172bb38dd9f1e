from importlib import resources
from pathlib import Path

import pytest

from conspec.errors import ModelLoadError, UnparseableTextError, UntranslatableConceptError
from conspec.network import ConceptNetwork, Node, equal
from conspec.parser import parse_text
from conspec.realizer import realize
from conspec.rules import transfer_scored
from conspec.transfer import load_pair, load_pair_text, translate
from conspec.treeline import parse_network, print_network

DATA = resources.files("conspec.data")
PAIR_HEAD = f"source: {DATA / 'english.cn'}\nreceptor: {DATA / 'english.cn'}\n"


def fixture_rows() -> list[tuple[str, str, str]]:
    rows = []
    for line in (DATA / "translations.tsv").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            eng, receptor, sov = line.split("\t")
            rows.append((eng, receptor, sov))
    return rows


@pytest.fixture(scope="module")
def pair():
    return load_pair(str(DATA / "english_sov.pair"))


@pytest.fixture(scope="module")
def identity_pair():
    return load_pair(str(DATA / "english_identity.pair"))


class TestLoadPair:
    def test_models_and_rules_loaded(self, pair):
        assert len(pair.transfer_rules) == 3
        assert pair.concept_map.entries
        assert not pair.lints

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(ModelLoadError):
            load_pair_text("receptor: x.cn", base_dir=tmp_path)

    @pytest.mark.parametrize(
        "value, identity", [("on", True), ("True", True), ("off", False), ("FALSE", False)]
    )
    def test_identity_map_values(self, value, identity):
        text = PAIR_HEAD + f"set identity-map {value}\n"
        got = load_pair_text(text, "p.pair")
        assert got.concept_map.identity is identity

    @pytest.mark.parametrize("value", ["yes", "of", "garbage"])
    def test_bad_identity_map_value_rejected(self, value):
        text = PAIR_HEAD + f"set identity-map {value}\n"
        with pytest.raises(ModelLoadError) as exc:
            load_pair_text(text, "p.pair")
        assert str(exc.value) == f"p.pair:3: bad value {value!r} for pair pragma 'identity-map'"

    def test_formats_doc_example_loads(self):
        # the example under "Pair files" in docs/formats.md, whose model paths
        # carry trailing comments
        doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
        text = doc.split("## Pair files", 1)[1].split("```")[1]
        assert text.lstrip().startswith("source: english.cn  ")
        got = load_pair_text(text, "p.pair", Path(str(DATA / "english.cn")).parent)
        assert got.source_model.path.endswith("english.cn")
        assert got.receptor_model.path.endswith("sov.cn")
        assert [print_network(t.src) for t in got.transfer_rules] == ["SRC"]
        assert got.concept_map.identity is True
        assert not got.lints

    @pytest.mark.parametrize(
        "line, kind",
        [
            ("girl = human > young", "DefinitionStmt"),
            ("trust > {past} <=> [trust, 'ed']", "RuleStmt"),
            ('declare {dual} "two of a kind"', "DeclareStmt"),
        ],
    )
    def test_model_only_lines_rejected(self, line, kind):
        with pytest.raises(ModelLoadError) as exc:
            load_pair_text(PAIR_HEAD + "map he -> kare\n" + line + "\n", "p.pair")
        assert str(exc.value) == (
            f"p.pair:4: {kind} not allowed in a pair file (model files take definitions,"
            " realization rules and declare lines)"
        )

    def test_bare_network_lines_allowed(self):
        got = load_pair_text(PAIR_HEAD + "trust > {past}\n", "p.pair")
        assert not got.transfer_rules


class TestTranslate:
    def test_fixture_sentences_exact(self, pair):
        for eng, _receptor, sov in fixture_rows():
            out = translate(pair, eng)
            assert out[0][0] == sov, f"{eng!r} -> {out[0][0]!r}, want {sov!r}"

    def test_receptor_networks_match_fixtures(self, pair):
        for eng, receptor_tl, _sov in fixture_rows():
            net = parse_text(pair.source_model, eng)[0][0]
            nets = transfer_scored(pair.transfer_rules, pair.concept_map, net, pair.source_model.lexicon)
            assert equal(nets[0][0], parse_network(receptor_tl)), eng

    def test_one_node_object_at_two_places(self, pair):
        # transfer keys its matches by node object and reads its input
        # uncopied: a parse-output node put under both roles must transfer
        # as the reparsed print does
        root = parse_text(pair.source_model, "he trusted John")[0][0].roots[0]
        past, agent, theme = root.specifiers
        he = agent.specifiers[0]
        theme_he = Node(concept=theme.concept, specifiers=(he,))
        net = ConceptNetwork((Node(concept=root.concept, specifiers=(past, agent, theme_he)),))

        def receptor(source):
            return [
                (print_network(n), score)
                for n, score in transfer_scored(
                    pair.transfer_rules, pair.concept_map, source, pair.source_model.lexicon
                )
            ]

        got = receptor(net)
        assert got == receptor(parse_network(print_network(net)))
        assert got[0][0] == "(shinji > [{agent} > kare, {theme} > kare]) > {ta}"

    def test_identity_pair_string_preserving(self, identity_pair):
        for eng, _receptor, _sov in fixture_rows():
            out = translate(identity_pair, eng)
            assert out[0][0] == eng

    def test_score_is_stage_product(self, pair):
        eng = "he trusted John"
        net, p_score, _ = parse_text(pair.source_model, eng)[0]
        (receptor, t_score), *_ = transfer_scored(
            pair.transfer_rules, pair.concept_map, net, pair.source_model.lexicon
        )
        r_score = realize(pair.receptor_model, receptor)[0][1]
        total = translate(pair, eng)[0][1]
        assert total == pytest.approx(p_score * t_score * r_score)

    def test_unparseable_tagged_parse_stage(self, pair):
        with pytest.raises(UnparseableTextError) as exc:
            translate(pair, "xyzzy")
        assert exc.value.stage == "parse"

    def test_untranslatable_tagged_transfer_stage(self, pair):
        # parseable English with no map entry for its concepts
        with pytest.raises(UntranslatableConceptError) as exc:
            translate(pair, "holy cow")
        assert exc.value.stage == "transfer"
        assert "holy cow" in str(exc.value)

    def test_untranslatable_names_the_best_parse(self, tmp_path):
        # "bank" parses as bank and as bank#2, and neither has a map entry
        (tmp_path / "src.cn").write_text(
            "bank = {noun}\nbank#2 = {noun}\nbank <=> ['bank']\nbank#2 <=> ['bank']\n"
        )
        (tmp_path / "p.pair").write_text("source: src.cn\nreceptor: src.cn\n")
        pair = load_pair(str(tmp_path / "p.pair"))
        parses = parse_text(pair.source_model, "bank")
        assert [print_network(net) for net, _, _ in parses] == ["bank", "bank#2"]
        with pytest.raises(UntranslatableConceptError) as exc:
            translate(pair, "bank")
        assert exc.value.concept_text == "bank"
