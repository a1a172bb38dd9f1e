"""Seeded fuzz of the command line: whatever the argv and stdin, ``main``
returns one of the documented exit codes and lets no exception escape."""

import io
import random
import sys
from importlib import resources

from conspec.cli import main

DATA = resources.files("conspec.data")
CASES = 200

ENGINE = ["--all", "--json", "--trace", "--beam", "--tau"]
OPTIONS = {  # what each subcommand accepts; the input argument is separate
    "canon": ["--dot", "--json"],
    "export": ["--dot", "--json"],
    "parse": ["--model"] + ENGINE,
    "realize": ["--model"] + ENGINE,
    "translate": ["--pair"] + ENGINE,
    "check": ["--model", "--corpus"],
    "lint": ["--model", "--corpus"],
}
WITH_INPUT = {"canon", "export", "parse", "realize", "translate"}
SHIPPED = {
    "--model": "english.cn",
    "--pair": "english_sov.pair",
    "--corpus": "demo_corpus.tsv",
}
BEAMS = ["1", "2", "16", "0", "-1", "1.5", "x"]
TAUS = ["0", "0.5", "1", "-0.5", "1.01", "nan", "x"]
WORDS = [
    "he", "trusted", "John", "Anne", "quiet", "the", "jumped", "was", "holy", "cow",
    "xyzzy", "+ed", "-s", "un+", "'", ",", ">", "[", "]", "(", ")", "{past}", "<<",
    ">>", "{agent}", "a >", "é", "\t",
]


def file_paths(tmp_path) -> list[str]:
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"caf\xe9 > \xff\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    shipped = sorted(SHIPPED.values()) + ["sov.cn", "translations.tsv"]
    return [str(DATA / name) for name in shipped] + [
        str(tmp_path / "missing.cn"),
        str(bad),
        str(empty),
        str(tmp_path),  # a directory
    ]


def option_value(rng: random.Random, option: str, paths: list[str]) -> str:
    if option == "--beam":
        return rng.choice(BEAMS)
    if option == "--tau":
        return rng.choice(TAUS)
    if rng.random() < 0.5:
        return str(DATA / SHIPPED[option])
    return rng.choice(paths)


def random_case(rng: random.Random, paths: list[str]) -> tuple[list[str], str]:
    """Mostly well-formed argv, so that most cases reach the engine; about
    one in ten gets an option its subcommand does not take."""
    command = rng.choice(sorted(OPTIONS))
    argv = [command]
    if command in WITH_INPUT and rng.random() < 0.9:
        argv.append("-" if rng.random() < 0.6 else rng.choice(paths))
    for option in OPTIONS[command]:
        if (option in SHIPPED and rng.random() < 0.9) or rng.random() < 0.3:
            if option in ("--all", "--json", "--trace", "--dot"):
                argv.append(option)
            else:
                argv += [option, option_value(rng, option, paths)]
    if rng.random() < 0.1:
        argv.append(rng.choice(["--bogus", "--pair", "--dot", "--corpus"]))
    stdin = " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 6)))
    return argv, stdin + "\n"


def test_exit_codes_stay_documented(tmp_path, monkeypatch, capsys):
    paths = file_paths(tmp_path)
    rng = random.Random(20180601)
    for _ in range(CASES):
        argv, stdin = random_case(rng, paths)
        if rng.random() < 0.5:
            monkeypatch.setenv("CONSPEC_MODEL_PATH", rng.choice(paths))
        else:
            monkeypatch.delenv("CONSPEC_MODEL_PATH", raising=False)
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = main(argv)
        except Exception as exc:  # report the case that let it escape
            raise AssertionError(f"{argv!r} with stdin {stdin!r} raised {exc!r}") from exc
        assert code in (0, 1, 2, 3), (argv, stdin, code)
        capsys.readouterr()
