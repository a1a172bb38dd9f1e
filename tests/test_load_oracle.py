"""``load_model_text`` against its oracle, model by model.

``tests/load_oracle.py`` keeps the load path as it was before it was made
cheaper: the tokenizer, the parser, rule construction and the ancestor walk.
On every input both loads must give the same error (type, message and
position), or the same:

- statements, printed;
- rules: printed lhs and parts (literals by their text), each part's
  ``to_lhs`` and the rule's ``part_at`` as lhs preorder positions;
- vocabulary: surfaces in order, literals, affixes and ``max_words``, the
  model's ``vocab`` against the oracle's ``build_vocabulary``;
- lexicon, each defined concept's ancestor set as ``ancestors`` gives it,
  pragmas, lints and content hash.

The inputs are the shipped .cn files, the statements of the shipped .pair
files, the rule-count model of ``tests/gen.py`` at 100 copies (235 rules),
and 200 seeded models. Each seeded model holds a few definitions and
one rule whose lhs is a ``tests/gen.py`` network; its parts are cut from the
lhs as ``sub_chain`` in ``tests/test_rule_filters.py`` cuts them, with
literals between. Some parts are ambiguous or overlap, some definitions
form a cycle or name a stemless concept with a stem's label, and some rule
lines are cut short.
"""

from __future__ import annotations

import random
from importlib import resources

import pytest

from conspec.errors import ConspecError
from conspec.lexicon import ancestors
from conspec.model import load_model_text
from conspec.network import ConceptNetwork
from conspec.rules import Literal
from conspec.treeline import parse_document, print_network

from . import load_oracle
from .gen import LABELS, STEMLESS, gen_network, rule_count_model
from .test_rule_filters import sub_chain

DATA = resources.files("conspec.data")


def _preorder(net: ConceptNetwork) -> dict[int, int]:
    return {id(node): i for i, node in enumerate(net.iter_nodes())}


def _rule_view(rule) -> tuple:
    at = _preorder(rule.lhs)
    parts = []
    for part in rule.parts:
        if isinstance(part, Literal):
            parts.append(("lit", part.text))
        else:
            pat = _preorder(part.pattern)
            to_lhs = [(pat[id(p)], at[id(t)]) for p, t in part.to_lhs.items()]
            parts.append(("pat", print_network(part.pattern), to_lhs))
    part_at = [(at[node_id], index) for node_id, index in rule.part_at.items()]
    return (
        rule.rule_id,
        rule.line,
        print_network(rule.lhs),
        parts,
        part_at,
    )


def _oracle_vocab(model):
    return load_oracle.build_vocabulary(model.rules, model.lexicon)


def _outcome(load, vocabulary, text: str):
    """What ``load(text)`` gives, with the ``vocabulary`` of the model it
    loads, as plain comparable data."""
    try:
        model = load(text, "m.cn")
    except ConspecError as exc:
        where = tuple(getattr(exc, name, None) for name in ("path", "line", "col"))
        return (type(exc).__name__, str(exc), where)
    vocab = vocabulary(model)
    return {
        "rules": [_rule_view(rule) for rule in model.rules],
        "surfaces": [(s, [c.text() for c in senses]) for s, senses in vocab.surfaces.items()],
        "literals": vocab.literals,
        "affixes": vocab.affixes,
        "max_words": vocab.max_words,
        "lexicon": model.lexicon,
        "ancestors": {c: ancestors(model.lexicon, c) for c in model.lexicon.definitions},
        "pragmas": model.pragmas,
        "lints": model.lints,
        "hash": model.content_hash,
    }


def _document(parse, text: str) -> str:
    try:
        doc = parse(text)
    except ConspecError as exc:
        return f"{type(exc).__name__} | {exc.args[0]} | {exc.line} | {exc.col}"
    return f"{doc.statements!r} lints {doc.lints!r}"


def check(text: str) -> object:
    assert _document(parse_document, text) == _document(load_oracle.parse_document, text)
    got = _outcome(load_model_text, lambda model: model.vocab, text)
    assert got == _outcome(load_oracle.load_model_text, _oracle_vocab, text)
    return got


@pytest.mark.parametrize("name", ["english.cn", "sov.cn"])
def test_shipped_models(name):
    got = check((DATA / name).read_text(encoding="utf-8"))
    assert isinstance(got, dict) and got["rules"]


def test_rule_count_model():
    got = check(rule_count_model(100))
    assert isinstance(got, dict) and len(got["rules"]) == 235


@pytest.mark.parametrize("name", ["english_sov.pair", "english_identity.pair"])
def test_shipped_pair_statements(name):
    # the pair's own lines, as load_pair_text parses them
    lines = (DATA / name).read_text(encoding="utf-8").splitlines()
    blank = ("source:", "receptor:")
    rest = "\n".join("" if line.strip().startswith(blank) else line for line in lines)
    got = _document(parse_document, rest)
    assert got == _document(load_oracle.parse_document, rest)
    assert "Stmt(" in got


def seeded_model(rng: random.Random) -> str:
    names = rng.sample(LABELS, rng.randint(0, 3))
    lines = [f"{name} = {rng.choice([x for x in LABELS if x != name])}" for name in names]
    if rng.random() < 0.3:  # a stemless concept that shares a stem's label
        lines.append(f"{{{rng.choice(LABELS)}}} = {rng.choice(LABELS)}")
    lhs = gen_network(rng, max_nodes=8)
    nodes = list(lhs.iter_nodes())
    # each part root is mostly a node that no earlier part root lies above or
    # below, so that most rules load and some still overlap
    taken: list[set[int]] = []
    parts = []
    for _ in range(rng.randint(1, 3)):
        free = [n for n in nodes if not any(_subtree(n) & t for t in taken)]
        if not free:
            break
        node = rng.choice(free if rng.random() < 0.9 else nodes)
        taken.append(_subtree(node))
        if rng.random() < 0.25:
            parts.append(rng.choice(["'the'", "'+s'", "'ed+'"]))
        parts.append(print_network(ConceptNetwork((sub_chain(rng, node),))))
    rule = f"{print_network(lhs)} <=> [{', '.join(parts)}]"
    if rng.random() < 0.1:  # cut short: the parse fails at the end of the line
        rule = rule[: rng.randrange(len(rule))]
    return "\n".join(lines + [rule])


def _subtree(node) -> set[int]:
    return {id(n) for n in ConceptNetwork((node,)).iter_nodes()}


def test_seeded_models():
    rng = random.Random(11)
    loaded = failed = 0
    for _ in range(200):
        got = check(seeded_model(rng))
        if isinstance(got, dict):
            loaded += 1
        else:
            failed += 1
    assert loaded > 100 and failed > 20  # both outcomes are well represented


# Pieces of the fuzzed documents: concepts with and without senses, and the
# characters and tokens that the reader treats specially.
FUZZ_CONCEPTS = [
    "a", "{a}", "girl", "pick up", "{past}", "{ agent }", "b#2", "{c}#3", "either...or", "d #1",
]  # fmt: skip
FUZZ_NOISE = [
    ">", ">>", ">>>", "<<", "<<<", "<", "[", "]", "(", ")", "{", "}", "{}", "{a>b}", "{#3}",
    ",", "=", "=>", "<=>", "->", "-", "-x", "'", "'lit'", "''", '"', "#", "#2", "#07", "a#1#2",
    "# note", "\t", "\f", " ", "  ",
]  # fmt: skip


def fuzz_item(rng: random.Random, depth: int) -> str:
    if depth < 2 and rng.random() < 0.2:
        anchor = rng.choice(["", "", ">>", "<<", ">>>>", ">> >>", "<< <<", ">><<"])
        return f"{anchor}({fuzz_network(rng, depth + 1)})"
    return rng.choice(FUZZ_CONCEPTS)


def fuzz_chain(rng: random.Random, depth: int) -> str:
    text = fuzz_item(rng, depth)
    for _ in range(rng.randint(0, 2)):
        if depth < 2 and rng.random() < 0.3:
            text += f" > [{fuzz_network(rng, depth + 1)}]"
        else:
            text += rng.choice([" > ", ">", "\t>\t"]) + fuzz_item(rng, depth)
    return text


def fuzz_network(rng: random.Random, depth: int = 0) -> str:
    return ", ".join(fuzz_chain(rng, depth) for _ in range(rng.randint(1, 2)))


def fuzz_line(rng: random.Random) -> str:
    """One statement of each kind, or a run of loose pieces, often with one
    piece inserted somewhere and a comment or sense after it."""
    kind = rng.randrange(8)
    if kind == 0:
        parts = ", ".join(
            rng.choice([fuzz_chain(rng, 0), "'the'", "'+ed'"]) for _ in range(rng.randint(1, 3))
        )
        line = f"{fuzz_network(rng)} <=> [{parts}]"
    elif kind == 1:
        line = f"{rng.choice(FUZZ_CONCEPTS)} = {fuzz_network(rng)}"
    elif kind == 2:
        line = f"{fuzz_network(rng)} => {fuzz_network(rng)}"
    elif kind == 3:
        line = f"  map {rng.choice(FUZZ_CONCEPTS)} -> {rng.choice(FUZZ_CONCEPTS)}"
    elif kind == 4:
        line = rng.choice(['declare {x} "x category" # c', "set alpha 0.9", "set beam"])
    elif kind == 5:
        line = fuzz_network(rng)
    else:
        pieces = FUZZ_CONCEPTS + FUZZ_NOISE
        line = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
    if rng.random() < 0.3:
        at = rng.randint(0, len(line))
        line = line[:at] + rng.choice(FUZZ_NOISE) + line[at:]
    if rng.random() < 0.2:
        line += rng.choice([" # comment", "#2", " #x", "\t", " \f"])
    return line


def test_reader_fuzz():
    # statements and lints, or the error; every tenth document also in lint mode
    rng = random.Random(19)
    parsed = failed = 0
    for i in range(20_000):
        text = "\n".join(fuzz_line(rng) for _ in range(rng.randint(1, 3)))
        got = _document(parse_document, text)
        assert got == _document(load_oracle.parse_document, text), text
        if "Stmt(" in got:
            parsed += 1
        else:
            failed += 1
        if i % 10:
            continue
        errors, oracle_errors = [], []
        lint = _document(lambda t: parse_document(t, collect_errors=errors), text)
        want = _document(
            lambda t: load_oracle.parse_document(t, collect_errors=oracle_errors), text
        )
        assert lint == want, text
        where = [(type(e).__name__, e.args[0], e.line, e.col) for e in errors]
        assert where == [(type(e).__name__, e.args[0], e.line, e.col) for e in oracle_errors], text
    assert parsed > 3_000 and failed > 3_000  # both outcomes are well represented
