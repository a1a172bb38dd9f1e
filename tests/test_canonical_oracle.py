"""Canonical nodes that carry their key against the copying canonical form.

``tests/canonical_oracle.py`` holds ``canonicalize`` as it was before nodes
stored their key. For every network the chart canonicalizes on the shipped
English and SOV corpora (at several beams), and for seeded generated
networks, some of them built around canonical subtrees, the new
``canonicalize`` must print the same network and give the same key. Its output must also keep the key invariant:
every node carries a key equal to one computed from scratch, no node object
appears twice in one network, and no node with a key has a ``ref``, even after
``resolve_anchors`` has wired a copy.
"""

from __future__ import annotations

import random
from dataclasses import replace
from importlib import resources

import pytest

import conspec.parser
from conspec.model import load_corpus, load_model
from conspec.network import ConceptNetwork, Node, canonical_key, canonicalize, resolve_anchors
from conspec.parser import _chart_parse, segment
from conspec.treeline import print_network

from . import canonical_oracle
from .gen import gen_concept, gen_network, shuffle_specifiers

DATA = resources.files("conspec.data")


def translation_columns(column: int) -> list[str]:
    rows = (DATA / "translations.tsv").read_text(encoding="utf-8").splitlines()
    return [raw.split("\t")[column] for raw in rows if raw.strip() and not raw.startswith("#")]


def surfaces_by_model() -> list[tuple[str, list[str]]]:
    """english.cn over demo_corpus.tsv and the English column of
    translations.tsv, and sov.cn over its SOV column."""
    demo = [surface for surface, _, _ in load_corpus(str(DATA / "demo_corpus.tsv"))]
    return [("english.cn", demo + translation_columns(0)), ("sov.cn", translation_columns(2))]


def oracle_key(net: ConceptNetwork) -> tuple:
    return tuple(canonical_oracle._node_key(r) for r in net.roots)


def check_canonical(source: ConceptNetwork, got: ConceptNetwork) -> None:
    """``got`` is canonicalize(source): compare with the oracle and check
    the key invariant."""
    want = canonical_oracle.canonicalize(source)
    assert print_network(got) == print_network(want)
    assert canonical_key(got) == oracle_key(want) == oracle_key(source)
    nodes = list(got.iter_nodes())
    assert len({id(n) for n in nodes}) == len(nodes)  # no node object twice
    for n in nodes:
        assert n.key is not None
        assert n.key == canonical_oracle._node_key(n)
        assert n.ref is None
    resolve_anchors(got)
    assert all(n.ref is None for n in nodes)


@pytest.mark.parametrize("beam", [1, 2, 16])
def test_chart_items_match_oracle(beam, monkeypatch):
    built: list[tuple[ConceptNetwork, ConceptNetwork]] = []

    def record(net):
        got = canonicalize(net)
        built.append((net, got))
        return got

    monkeypatch.setattr(conspec.parser, "canonicalize", record)
    for name, surfaces in surfaces_by_model():
        loaded = load_model(str(DATA / name))
        model = replace(loaded, pragmas=replace(loaded.pragmas, beam=beam))
        for surface in surfaces:
            for tokens in segment(model, surface):
                _chart_parse(model, tokens)
    assert len(built) > 100
    for source, got in built:
        check_canonical(source, got)


def test_generated_networks_match_oracle():
    rng = random.Random(10)
    for _ in range(500):
        raw = gen_network(rng)
        first = canonicalize(raw)
        check_canonical(raw, first)
        assert canonicalize(first).roots[0] is first.roots[0]
        # a host around a canonical subtree, a fresh one, and a reordered
        # copy of the first: the canonical subtree is kept, not copied
        fresh = gen_network(rng).roots[0]
        again = shuffle_specifiers(rng, first).roots[0]
        host = ConceptNetwork(
            (Node(concept=gen_concept(rng), specifiers=(again, first.roots[0], fresh)),)
        )
        got = canonicalize(host)
        check_canonical(host, got)
        assert any(s is first.roots[0] for s in got.roots[0].specifiers)
