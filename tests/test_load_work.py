"""What one model load builds, and what two loads share.

- Every concept the tree-line reader builds without ``Concept``'s checks
  (``treeline._new_concept``) equals the concept those checks build from the
  same fields, over the golden front-end inputs of
  ``tests/test_golden_treeline.py`` and the fuzzed documents of
  ``tests/test_load_oracle.py``.
- Two loads of english.cn share no node, network, concept, definition, rule
  or rule part, but the module-level ``{have}`` body: nothing is cached
  across loads, which is what makes each load of the cold benchmark a cold
  one.
- One load of english.cn builds each definition record once, each distinct
  concept once, and aligns only the rule parts of more than one node. The
  counts are ceilings, so that work cannot come back unnoticed.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from importlib import resources

import conspec.lexicon
import conspec.rules
import conspec.treeline
from conspec.errors import ConspecError
from conspec.lexicon import _HAVE_BODY, Definition, lint_networks
from conspec.model import load_model_text
from conspec.network import Concept, ConceptNetwork, Node
from conspec.rules import Literal, PatternPart, Rule
from conspec.similarity import align_networks
from conspec.treeline import DefinitionStmt, parse_document, parse_network

from .test_golden_treeline import inputs as golden_inputs
from .test_load_oracle import fuzz_line

DATA = resources.files("conspec.data")
ENGLISH = (DATA / "english.cn").read_text(encoding="utf-8")


def test_reader_concepts_equal_checked_concepts(monkeypatch):
    built: Counter = Counter()
    unchecked = conspec.treeline._new_concept

    def checked(fields):
        got = unchecked(fields)
        label, stemless, sense = fields
        assert type(label) is str and type(stemless) is bool and type(sense) is int, fields
        assert got == Concept(label, stemless, sense), fields  # raises if a check fails
        built["stemless" if stemless else "stem"] += 1
        built["sense"] += sense != 1
        return got

    monkeypatch.setattr(conspec.treeline, "_new_concept", checked)
    rng = random.Random(19)
    fuzzed = ["\n".join(fuzz_line(rng) for _ in range(rng.randint(1, 3))) for _ in range(5_000)]
    for text in golden_inputs() + fuzzed:
        for read in (parse_network, parse_document):
            try:
                read(text)
            except ConspecError:
                pass
    assert min(built.values()) > 100, built


KINDS = (Node, ConceptNetwork, Concept, Definition, Rule, PatternPart, Literal)


def held(root: object) -> dict[int, object]:
    """Each object of ``KINDS`` reachable from ``root``, by id. The walk
    follows every reference but those to classes, so no module is reached."""
    seen: set[int] = set()
    out: dict[int, object] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, KINDS):
            out[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return out


def test_two_loads_share_nothing_but_the_have_body():
    first, second = load_model_text(ENGLISH), load_model_text(ENGLISH)
    a, b, have = held(first), held(second), held(_HAVE_BODY)
    assert len(a) == len(b) > 500
    assert have.keys() <= a.keys() and have.keys() <= b.keys()
    shared = (a.keys() & b.keys()) - have.keys()
    assert not shared, [a[i] for i in shared][:5]


def test_one_load_builds_each_record_once(monkeypatch):
    statements = parse_document(ENGLISH).statements
    definitions = [s for s in statements if isinstance(s, DefinitionStmt)]
    concepts = {c for net in lint_networks(statements) for c in net.concepts()}
    concepts |= {d.name for d in definitions}
    counts: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(conspec.rules, "align_networks", counted("aligned", align_networks))
    monkeypatch.setattr(Concept, "__new__", counted("concepts", Concept.__new__))
    new_concept = conspec.treeline._new_concept
    monkeypatch.setattr(conspec.treeline, "_new_concept", counted("concepts", new_concept))
    for record in {DefinitionStmt, conspec.lexicon.Definition}:
        monkeypatch.setattr(record, "__init__", counted("records", record.__init__))
    model = load_model_text(ENGLISH)
    monkeypatch.undo()

    parts = [p for r in model.rules for p in r.parts if isinstance(p, PatternPart)]
    multi_node = [p for p in parts if len(p.pattern.iter_nodes()) > 1]
    assert 0 < len(multi_node) < len(parts)  # 19 of 67 at the time of writing
    # one record per definition statement, and the lexicon's {have}: 57
    assert counts["records"] <= len(definitions) + 1, counts
    # each distinct concept of the file once, and the lexicon's {have}: 75
    assert counts["concepts"] <= len(concepts) + 1, counts
    # a one-node part is placed without the aligner
    assert counts["aligned"] <= len(multi_node), counts
