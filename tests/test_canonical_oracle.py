"""Canonical nodes that carry their key against the copying canonical form.

``tests/canonical_oracle.py`` holds ``canonicalize`` as it was before nodes
stored their key. Every item the chart keeps on the shipped English and SOV
corpora (at several beams) must be its own canonical form under the oracle.
For seeded generated networks, some of them built around canonical subtrees,
the new ``canonicalize`` must print the same network and give the same key.
Both must also keep the key invariant: every node carries a key equal to one
computed from scratch, no node object appears twice in one network, and no
node with a key has a ``ref``, even after ``resolve_anchors`` has wired a
copy.

The oracle module also holds the chart's ``instantiate_reverse`` and
transfer's ``_apply_selection`` as they were before they built keyed nodes.
Every chart build and every ``transfer_scored`` output must equal the
canonical form of the old build and keep the key invariant as built.
"""

from __future__ import annotations

import random
from dataclasses import replace
from importlib import resources

import pytest

import conspec.parser
import conspec.rules
from conspec.errors import UntranslatableConceptError
from conspec.model import load_corpus, load_model
from conspec.network import Concept, ConceptNetwork, Node, canonical_key, canonicalize, resolve_anchors
from conspec.parser import _chart_parse, parse_text, segment
from conspec.rules import (
    _collect_transfer_matches,
    instantiate_reverse,
    match_rules,
    realize_parts,
    transfer_scored,
)
from conspec.similarity import align_networks, rule_node_sim
from conspec.transfer import load_pair
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
def test_chart_items_match_oracle(beam):
    # every item the chart keeps is canonical as built: the oracle's
    # canonical form of the item is the item itself
    items: list[ConceptNetwork] = []
    for name, surfaces in surfaces_by_model():
        loaded = load_model(str(DATA / name))
        model = replace(loaded, pragmas=replace(loaded.pragmas, beam=beam))
        for surface in surfaces:
            for tokens in segment(model, surface):
                for cell in _chart_parse(model, tokens).values():
                    items += [item.net for item in cell.values()]
    assert len(items) > 100
    for net in items:
        check_canonical(net, net)


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


def check_build(rule, alignments, lhs_ids: set[int]) -> ConceptNetwork:
    """A chart build is canonical as built: it equals the canonical form of
    the old build and keeps the key invariant, and it holds no lhs node of
    any rule."""
    got = instantiate_reverse(rule, alignments)
    check_canonical(canonical_oracle.instantiate_reverse(rule, alignments), got)
    assert not any(id(n) in lhs_ids for n in got.iter_nodes())
    return got


def rule_lhs_ids(model) -> set[int]:
    return {id(n) for rule in model.rules for n in rule.lhs.iter_nodes()}


def record_builds(monkeypatch, model) -> list[ConceptNetwork]:
    """Check every chart build with ``check_build`` as the chart makes it."""
    builds: list[ConceptNetwork] = []
    lhs_ids = rule_lhs_ids(model)

    def checked(rule, alignments):
        got = check_build(rule, alignments, lhs_ids)
        builds.append(got)
        return got

    monkeypatch.setattr(conspec.parser, "instantiate_reverse", checked)
    return builds


@pytest.mark.parametrize("beam", [1, 2, 16])
def test_chart_builds_match_old_builds(beam, monkeypatch):
    total = 0
    for name, surfaces in surfaces_by_model():
        loaded = load_model(str(DATA / name))
        model = replace(loaded, pragmas=replace(loaded.pragmas, beam=beam))
        builds = record_builds(monkeypatch, model)
        for surface in surfaces:
            for tokens in segment(model, surface):
                _chart_parse(model, tokens)
        assert builds
        total += len(builds)
    assert total > 100


def test_rule_applied_inside_its_own_output(monkeypatch):
    # the plural rule takes in an item it built: a shared lhs {plural} node
    # would stand in that network twice
    model = load_model(str(DATA / "english.cn"))
    builds = record_builds(monkeypatch, model)
    parses = parse_text(model, "the eggss")
    assert print_network(parses[0][0]) == "(egg > [{plural}, {plural}]) > the"
    plural = Concept("plural", True)
    assert any(b.concepts().count(plural) == 2 for b in builds)


def fragment_alignments(model, rule, fragments, keyed: bool):
    """Each pattern part aligned with its fragment as the chart aligns it
    with an item, or None when some part does not align."""
    sim = rule_node_sim(model.lexicon, model.pragmas.alpha)
    alignments = []
    for part, fragment in zip(rule.parts, fragments):
        if isinstance(fragment, str):
            alignments.append(None)
            continue
        got = align_networks(part.pattern, canonicalize(fragment) if keyed else fragment, sim, total=False)
        if got is None:
            return None
        alignments.append(got)
    return alignments


def with_extras(rng: random.Random, net: ConceptNetwork, extras: list[Node]) -> ConceptNetwork:
    """A copy of ``net`` with each extra hung under a random node of it."""
    nodes = list(net.iter_nodes())
    under: dict[int, list[Node]] = {}
    for extra in extras:
        under.setdefault(id(rng.choice(nodes)), []).append(extra)

    def conv(node: Node) -> Node:
        spec = tuple(conv(s) for s in node.specifiers) + tuple(under.get(id(node), ()))
        capsule = None
        if node.is_capsule:
            capsule = ConceptNetwork(tuple(conv(r) for r in node.capsule.roots))
        return Node(concept=node.concept, capsule=capsule, anchor=node.anchor, specifiers=spec)

    return ConceptNetwork(tuple(conv(r) for r in net.roots))


def test_generated_builds_match_old_builds():
    # realize_parts splits a network into fragments, remainders included;
    # rebuilding the rule around them, raw or canonicalized, gives a build
    # with fragment remainders, capsules and anchors. The networks: the demo
    # corpus's, seeded generated ones, and the corpus's with generated
    # content hung under them
    model = load_model(str(DATA / "english.cn"))
    pragmas = model.pragmas
    lhs_ids = rule_lhs_ids(model)
    rng = random.Random(16)
    corpus = [net for _, net, _ in load_corpus(str(DATA / "demo_corpus.tsv"))]
    nets = corpus + [gen_network(rng) for _ in range(200)]
    nets += [with_extras(rng, net, [gen_network(rng, 3).roots[0]]) for net in corpus for _ in range(4)]
    checked = 0
    for net in nets:
        for node in canonicalize(net).iter_nodes():
            region = ConceptNetwork((node,))
            for match in match_rules(model.rules, model.lexicon, region, alpha=pragmas.alpha, tau=pragmas.tau):
                fragments = realize_parts(match)
                for keyed in (False, True):
                    alignments = fragment_alignments(model, match.rule, fragments, keyed)
                    if alignments is not None:
                        check_build(match.rule, alignments, lhs_ids)
                        checked += 1
    assert checked > 500


def mapped_network(
    rng: random.Random, net: ConceptNetwork, mapped: dict[bool, list[Concept]], rate: float = 0.9
) -> ConceptNetwork:
    """A copy of ``net`` whose concepts mostly lie in the concept map: each
    one outside it is swapped, at ``rate``, for a mapped concept of the same
    kind."""

    def conv(node: Node) -> Node:
        spec = tuple(conv(s) for s in node.specifiers)
        if node.is_capsule:
            body = ConceptNetwork(tuple(conv(r) for r in node.capsule.roots))
            return Node(capsule=body, anchor=node.anchor, specifiers=spec)
        concept = node.concept
        if concept not in mapped[concept.stemless] and rng.random() < rate:
            concept = rng.choice(mapped[concept.stemless])
        return Node(concept=concept, anchor=node.anchor, specifiers=spec)

    return ConceptNetwork(tuple(conv(r) for r in net.roots))


def transfer_outcome(pair, net: ConceptNetwork):
    """What ``transfer_scored`` gives on ``net``: its ranked outputs, or the
    message of the untranslatable concept it reports."""
    lex, pragmas = pair.source_model.lexicon, pair.source_model.pragmas
    try:
        return transfer_scored(
            pair.transfer_rules,
            pair.concept_map,
            net,
            lex,
            alpha=pragmas.alpha,
            tau=pragmas.tau,
            beam=pragmas.beam,
        )
    except UntranslatableConceptError as exc:
        return str(exc)


def check_transfer(pair, net: ConceptNetwork, monkeypatch) -> bool:
    """``transfer_scored`` gives what it gave with the old selection build
    and the old canonical form, and each output keeps the key invariant.
    True when it has outputs and some transfer rule matched."""
    got = transfer_outcome(pair, net)
    with monkeypatch.context() as m:
        m.setattr(conspec.rules, "_apply_selection", canonical_oracle._apply_selection)
        m.setattr(conspec.rules, "canonicalize", canonical_oracle.canonicalize)
        want = transfer_outcome(pair, net)
    if isinstance(want, str):
        assert got == want  # the same untranslatable concept, reported first
        return False
    assert not isinstance(got, str)
    assert [score for _, score in got] == [score for _, score in want]
    for (out, _), (old, _) in zip(got, want):
        check_canonical(old, out)
    lex, pragmas = pair.source_model.lexicon, pair.source_model.pragmas
    return bool(_collect_transfer_matches(pair.transfer_rules, lex, net, pragmas.alpha, pragmas.tau))


def test_transfer_outputs_match_old_selection_builds(monkeypatch):
    pair = load_pair(str(DATA / "english_sov.pair"))
    applied = 0
    for text in translation_columns(0):
        for net, _, _ in parse_text(pair.source_model, text):
            # as translate passes a parse, and as a copy with references wired
            applied += check_transfer(pair, net, monkeypatch)
            applied += check_transfer(pair, resolve_anchors(net), monkeypatch)
    assert applied >= 10
    entries = pair.concept_map.entries
    mapped = {kind: [c for c in entries if c.stemless is kind] for kind in (False, True)}
    rng = random.Random(17)
    applied = 0
    for k in range(200):
        if k % 2:
            # a transfer rule's source pattern, with extra content hung under it
            src = rng.choice(pair.transfer_rules).src
            extras = [mapped_network(rng, gen_network(rng, 3), mapped).roots[0] for _ in range(rng.randint(0, 2))]
            net = with_extras(rng, src, extras)
        else:
            # one in two keeps half its unmapped concepts: which one is
            # reported first depends on the order the selection build visits
            # nodes in
            net = mapped_network(rng, gen_network(rng), mapped, 0.5 if k % 4 == 0 else 0.9)
        net = resolve_anchors(canonicalize(net))
        applied += check_transfer(pair, net, monkeypatch)
    assert applied >= 20
