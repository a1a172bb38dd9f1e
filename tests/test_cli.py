import json
from importlib import resources

import pytest

from conspec.cli import main

DATA = resources.files("conspec.data")
ENGLISH = str(DATA / "english.cn")
CORPUS = str(DATA / "demo_corpus.tsv")
PAIR = str(DATA / "english_sov.pair")


def run(capsys, monkeypatch, argv, stdin=""):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCanon:
    def test_past_first(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["canon", "-"],
            "approach > [{agent} > Anne, {past}, {theme} > (teacher > stern) > the, reluctantly]\n",
        )
        assert code == 0
        assert out.strip() == (
            "approach > [{past}, {agent} > Anne, {theme} > (teacher > stern) > the, reluctantly]"
        )

    def test_dot_output_counts(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["canon", "-", "--dot"], "a > [b, c]\n")
        assert code == 0
        assert out.count("label=") == 3  # one node statement per concept
        assert out.count("->") == 2  # one edge per specification

    def test_json_output(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["canon", "-", "--json"], "a > {past}\n")
        d = json.loads(out)
        assert d["roots"][0]["label"] == "a"
        assert d["roots"][0]["specifiers"][0] == {
            "label": "past",
            "stemless": True,
            "sense": 1,
            "specifiers": [],
        }

    def test_parse_error_exit_code(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["canon", "-"], "a > [b\n")
        assert code == 1
        assert "line" in err

    def test_overdeep_chain_is_parse_error(self, capsys, monkeypatch):
        chain = " > ".join(f"a{i}" for i in range(600))
        code, _, err = run(capsys, monkeypatch, ["canon", "-"], chain + "\n")
        assert code == 1
        assert err.startswith("parse error:")
        assert "Traceback" not in err


class TestEngineCommands:
    def test_realize(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["realize", "-", "--model", ENGLISH],
            "trust > [{past}, {agent} > he, {theme} > John]\n",
        )
        assert code == 0
        assert out.strip() == "he trusted John"

    def test_parse_all_flag(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["parse", "-", "--model", ENGLISH, "--all"], "holy cow\n"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 2
        assert all("\t" in line for line in lines)

    def test_translate(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["translate", "-", "--pair", PAIR], "he trusted John\n"
        )
        assert code == 0
        assert out.strip() == "kare Jon shinjita"

    def test_model_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("CONSPEC_MODEL_PATH", ENGLISH)
        code, out, _ = run(capsys, monkeypatch, ["realize", "-"], "Anne\n")
        assert code == 0
        assert out.strip() == "Anne"

    def test_missing_model_is_load_error(self, capsys, monkeypatch):
        monkeypatch.delenv("CONSPEC_MODEL_PATH", raising=False)
        code, _, err = run(capsys, monkeypatch, ["realize", "-"], "Anne\n")
        assert code == 3

    def test_engine_error_has_stage(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["translate", "-", "--pair", PAIR], "xyzzy\n"
        )
        assert code == 1
        assert "stage=parse" in err

    def test_usage_error(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["frobnicate"])
        assert code == 2


class TestCheck:
    def test_demo_corpus_passes(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["check", "--model", ENGLISH, "--corpus", CORPUS])
        assert code == 0
        assert "/23 lines pass" in out
        assert "FAIL" not in out

    def test_failing_corpus_exits_one(self, capsys, monkeypatch, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("totally unknown words\tAnne > quiet > {past}\n")
        code, out, _ = run(
            capsys, monkeypatch, ["check", "--model", ENGLISH, "--corpus", str(bad)]
        )
        assert code == 1
        assert "FAIL" in out

    def test_row_with_unresolved_anchor_fails_and_check_goes_on(
        self, capsys, monkeypatch, tmp_path
    ):
        corpus = tmp_path / "c.tsv"
        corpus.write_text("he\the\nhe\t(he > >>{agent})\nJohn\tJohn\n")
        code, out, err = run(
            capsys, monkeypatch, ["check", "--model", ENGLISH, "--corpus", str(corpus)]
        )
        assert code == 1
        assert err == ""
        assert [l.split() for l in out.splitlines()[1:]] == [
            ["pass", "True", "True", "he"],
            ["FAIL", "False", "False", "he"],
            ["pass", "True", "True", "John"],
            ["2/3", "lines", "pass"],
        ]


class TestLint:
    def test_clean_model(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["lint", "--model", ENGLISH, "--corpus", CORPUS]
        )
        assert code == 0

    def test_reports_problems(self, capsys, monkeypatch, tmp_path):
        bad = tmp_path / "bad.cn"
        bad.write_text("a = b\na = c\nx > {mystery}\nu > v, w > z\n")
        code, out, _ = run(capsys, monkeypatch, ["lint", "--model", str(bad)])
        assert code == 1
        assert "duplicate definition" in out
        assert out.count("duplicate definition") == 1
        assert "mystery" in out
        assert "multi-root" in out

    def test_reports_only_the_unused_rule(self, capsys, monkeypatch, tmp_path):
        model = tmp_path / "m.cn"
        model.write_text(
            "trust = {verb}\n"
            "jump = {verb}\n"
            "trust > [{past}, {agent} > he, {theme} > John] <=> [he, trust > {past}, John]\n"
            "trust > {past} <=> [trust, '+ed']\n"
            "jump > {present} <=> [jump, '+s']\n"
        )
        corpus = tmp_path / "c.tsv"
        corpus.write_text("he trusted John\ttrust > [{past}, {agent} > he, {theme} > John]\n")
        code, out, _ = run(
            capsys, monkeypatch, ["lint", "--model", str(model), "--corpus", str(corpus)]
        )
        assert code == 1
        unused = [l for l in out.splitlines() if "unused rule" in l]
        assert unused == ["warning: unused rule r3 (line 5)"]


class TestExport:
    def test_dot_round_trip_counts(self, capsys, monkeypatch):
        import re

        text = "bark > [{past}, {agent} > dog > (eat > [{past}, >>{agent}]), happily]"
        code, out, _ = run(capsys, monkeypatch, ["export", "-"], text + "\n")
        assert code == 0
        node_lines = re.findall(r"^\s*n\d+ \[", out, flags=re.M)
        plain_edges = [l for l in out.splitlines() if "->" in l and "style=" not in l]
        # 8 concepts + 1 capsule shell; 7 specification edges
        assert len(node_lines) == 9
        assert len(plain_edges) == 7
        dashed = [l for l in out.splitlines() if "style=dashed, color=gray" in l]
        assert len(dashed) == 1  # the resolved >>{agent} reference

    def test_json_includes_ref_paths(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["export", "-", "--json"], "dog > (eat > [{past}, >>{agent}])\n"
        )
        d = json.loads(out)
        agent = d["roots"][0]["specifiers"][0]["capsule"]["roots"][0]["specifiers"][0]
        assert agent["anchor"] == {"dir": "up", "depth": 1}
        assert agent["ref"] == [["r", 0]]


class TestFlagOverrides:
    def test_tau_override_blocks_analogical_parse(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            monkeypatch,
            ["parse", "-", "--model", ENGLISH, "--tau", "0.99"],
            "John lifted a rock\n",  # needs analogical matches below 0.99
        )
        assert code == 1

    def test_beam_override_accepted(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["parse", "-", "--model", ENGLISH, "--beam", "4"],
            "he trusted John\n",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["parse", "-", "--model", ENGLISH, "--beam", "0"],
            ["parse", "-", "--model", ENGLISH, "--beam", "-1"],
            ["realize", "-", "--model", ENGLISH, "--tau", "2"],
            ["translate", "-", "--pair", PAIR, "--beam", "0"],
            ["translate", "-", "--pair", PAIR, "--tau", "-0.5"],
        ],
    )
    def test_out_of_range_override_is_usage_error(self, capsys, monkeypatch, argv):
        code, out, err = run(capsys, monkeypatch, argv, "he trusted John\n")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_overrides_build_a_new_bundle(self):
        from conspec.cli import _with_overrides, build_arg_parser
        from conspec.model import load_model
        from conspec.parser import chart_index

        model = load_model(ENGLISH)
        args = build_arg_parser().parse_args(["parse", "--beam", "4", "--tau", "0.7"])
        changed = _with_overrides(model, args)
        assert (changed.pragmas.beam, changed.pragmas.tau) == (4, 0.7)
        assert (model.pragmas.beam, model.pragmas.tau) == (16, 0.5)
        assert chart_index(changed) is chart_index(model)


class TestLintLoadErrors:
    def test_unreadable_model_is_load_error(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["lint", "--model", "/nonexistent.cn"])
        assert code == 3
        assert "cannot read model" in err


class TestDefinitionChains:
    def test_deep_chain_realizes(self, capsys, monkeypatch, tmp_path):
        model = tmp_path / "m.cn"
        model.write_text("".join(f"c{i} = c{i + 1}\n" for i in range(1500)))
        code, out, _ = run(capsys, monkeypatch, ["realize", "-", "--model", str(model)], "c0\n")
        assert (code, out) == (0, "c0\n")

    def test_cycle_names_the_model_file(self, capsys, monkeypatch, tmp_path):
        model = tmp_path / "m.cn"
        model.write_text("x = y\ny = z > w\nz = x\n")
        code, _, err = run(capsys, monkeypatch, ["realize", "-", "--model", str(model)], "x\n")
        assert code == 3
        assert err == f"model error: {model}:1: definition cycle: x -> y -> z -> x\n"


class TestSenseAnnotationErrors:
    def test_second_sense_in_model_is_load_error(self, capsys, monkeypatch, tmp_path):
        model = tmp_path / "m.cn"
        model.write_text("x#2#3 = y\n")
        code, _, err = run(capsys, monkeypatch, ["parse", "-", "--model", str(model)], "y\n")
        assert code == 3
        assert err == f"model error: {model}:1:4: a concept takes one sense annotation\n"

    def test_second_sense_in_pair_file_has_its_column(self, capsys, monkeypatch, tmp_path):
        pair = tmp_path / "p.pair"
        pair.write_text(f"source: {ENGLISH}\nreceptor: {ENGLISH}\n\nmap he -> x#2#3\n")
        code, _, err = run(capsys, monkeypatch, ["translate", "-", "--pair", str(pair)], "he\n")
        assert code == 3
        assert err == f"model error: {pair}:4:14: a concept takes one sense annotation\n"

    def test_second_sense_in_corpus_has_its_file_column(self, capsys, monkeypatch, tmp_path):
        corpus = tmp_path / "c.tsv"
        corpus.write_text("# comment\n  he sleeps\tsleep > [{agent} > x#2#3]\n")
        argv = ["check", "--model", ENGLISH, "--corpus", str(corpus)]
        code, _, err = run(capsys, monkeypatch, argv)
        assert code == 3
        # the second "#" is column 23 of the network field, which starts after
        # two spaces, "he sleeps" and a tab
        assert err == f"model error: {corpus}:2:35: a concept takes one sense annotation\n"

    def test_lint_reports_second_sense_with_its_column(self, capsys, monkeypatch, tmp_path):
        model = tmp_path / "m.cn"
        model.write_text("x#2#3 = y\n")
        code, out, err = run(capsys, monkeypatch, ["lint", "--model", str(model)])
        assert code == 1
        assert "error: a concept takes one sense annotation (line 1, column 4)" in out
        assert "Traceback" not in err

    def test_non_ascii_digit_after_hash_is_a_comment(self, capsys, monkeypatch, tmp_path):
        model = tmp_path / "m.cn"
        model.write_text("x = y #² note\n")
        code, _, err = run(capsys, monkeypatch, ["lint", "--model", str(model)])
        assert code == 0
        assert "Traceback" not in err


@pytest.fixture
def non_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9 > \xff\n")
    return str(path)


class TestUnreadableFiles:
    def test_missing_input_file_is_usage_error(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["canon", "/nonexistent"])
        assert code == 2
        assert err.startswith("usage error: /nonexistent: cannot read input")
        assert err.count("\n") == 1

    def test_non_utf8_input_file_is_usage_error(self, capsys, monkeypatch, non_utf8):
        code, _, err = run(capsys, monkeypatch, ["realize", non_utf8, "--model", ENGLISH])
        assert code == 2
        assert "cannot read input" in err
        assert err.count("\n") == 1

    def test_non_utf8_stdin_is_usage_error(self, capsys, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\n"), "utf-8"))
        code = main(["canon", "-"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error: <stdin>: cannot read input")

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["lint", "--model", "{bad}"], "model"),
            (["parse", "-", "--model", "{bad}"], "model"),
            (["check", "--model", ENGLISH, "--corpus", "{bad}"], "corpus"),
            (["translate", "-", "--pair", "{bad}"], "pair file"),
        ],
    )
    def test_non_utf8_model_corpus_or_pair_is_load_error(
        self, capsys, monkeypatch, non_utf8, argv, what
    ):
        argv = [non_utf8 if a == "{bad}" else a for a in argv]
        code, _, err = run(capsys, monkeypatch, argv, "Anne\n")
        assert code == 3
        assert err.startswith(f"model error: {non_utf8}: cannot read {what}: ")
        assert "codec can't decode" in err
