from dataclasses import replace
from importlib import resources

import pytest

import conspec.model
from conspec.errors import ModelLoadError
from conspec.lexicon import undeclared_stemless
from conspec.model import load_model, load_model_text
from conspec.network import Concept, equal
from conspec.realizer import realize
from conspec.treeline import parse_network

DATA = resources.files("conspec.data")


class TestLoadModel:
    def test_pragmas_applied(self):
        model = load_model_text("set alpha 0.8\nset tau 0.4\nset beam 8\nset orthography on\n")
        assert model.pragmas.alpha == 0.8
        assert model.pragmas.tau == 0.4
        assert model.pragmas.beam == 8
        assert model.pragmas.orthography is True

    def test_bad_pragma_rejected(self):
        with pytest.raises(ModelLoadError):
            load_model_text("set alpha loud")
        with pytest.raises(ModelLoadError):
            load_model_text("set volume 11")

    @pytest.mark.parametrize(
        "line",
        [
            "set beam 0",
            "set beam -2",
            "set alpha 2",  # would rank analogues above exact derivations
            "set alpha 1",
            "set alpha -0.1",
            "set tau 1.5",
            "set tau -1",
            "set tau nan",
        ],
    )
    def test_out_of_range_pragma_names_its_line(self, line):
        with pytest.raises(ModelLoadError, match="for pragma") as exc:
            load_model_text(f"# header\n{line}\n")
        assert exc.value.line == 2

    def test_pragma_range_bounds_accepted(self):
        model = load_model_text("set alpha 0\nset tau 0\nset tau 1\nset beam 1\n")
        assert (model.pragmas.alpha, model.pragmas.tau, model.pragmas.beam) == (0.0, 1.0, 1)

    def test_have_macro_predefined(self):
        model = load_model_text("")
        defn = model.lexicon.definitions.get(Concept("have", True))
        assert defn is not None
        assert equal(defn.body, parse_network("(have > [<<{agent}, >>{theme}])"))

    def test_rule_ids_follow_declaration_order(self):
        model = load_model(str(DATA / "english.cn"))
        ids = [r.rule_id for r in model.rules]
        assert ids == [f"r{i}" for i in range(1, len(ids) + 1)]

    def test_undeclared_stemless_reported_as_lint(self):
        model = load_model_text("x = {mystery}")
        assert any("mystery" in l for l in model.lints)
        model = load_model_text("jump = {verb}\n{oops}\njump > {zz} <=> [jump]")
        assert model.lints == ["undeclared stemless label {oops}", "undeclared stemless label {zz}"]

    def test_lints_are_computed_on_first_read(self, monkeypatch):
        calls = []

        def counted(networks, declared):
            calls.append(1)
            return undeclared_stemless(networks, declared)

        monkeypatch.setattr(conspec.model, "undeclared_stemless", counted)
        model = load_model(str(DATA / "english.cn"))
        realize(model, parse_network("trust > [{past}, {agent} > he, {theme} > John]"))
        assert calls == []
        text = "x > {b}\n{n} > a > b\njump = {verb} > {q}\ndeclare {n} \"n\"\njump > {zz} <=> [jump]"
        model = load_model_text(text)
        assert calls == []
        want = [
            "undeclared stemless label {b}",
            "undeclared stemless label {q}",
            "undeclared stemless label {zz}",
        ]
        assert model.lints == want
        assert model.lints is model.lints
        assert len(calls) == 1
        # a CLI-override copy reads the same lints on its own first read
        copy = replace(model, pragmas=replace(model.pragmas, beam=2))
        assert copy.lints == want and len(calls) == 2

    def test_reader_notes_come_first(self):
        model = load_model_text("x > {zz}\ny > either...or\nz\nw")
        assert model.lints == [
            "line 2: normalized 'either...or' to 'either or'",
            "undeclared stemless label {zz}",
        ]

    def test_map_statement_rejected_in_model_file(self):
        with pytest.raises(ModelLoadError):
            load_model_text("map a -> b")

    def test_defective_rule_cites_location(self):
        with pytest.raises(ModelLoadError) as exc:
            load_model_text("# comment\ntrust > {past} <=> [jump]")
        assert exc.value.line == 2

    def test_demo_models_load_clean(self):
        for name in ("english.cn", "sov.cn"):
            model = load_model(str(DATA / name))
            assert not model.lints, model.lints
