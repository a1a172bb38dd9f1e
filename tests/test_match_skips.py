"""Rule matching's skips and memos, each against the code it replaced.

This file keeps, verbatim, what the skips and memos stand in for:

- ``match_rules`` and ``_collect_transfer_matches`` as they were when they
  visited every rule for every target, skipping one unaligned only where
  ``can_align`` failed (kept too); both now visit only the candidates of the
  lexicon's ``similarity.RootIndex``;
- ``_match_region`` as it was when it aligned first and then dropped a
  match whose root lost content; it now checks the first roots before
  aligning;
- ``_tilings`` as it was when it probed every ``(at, end)`` cell of the
  chart and matched literal parts against the tokens; the chart now walks
  only its entries, a literal's text as a token or a non-empty final cell;
- ``rule_node_sim`` as it was before it read a memo on the lexicon;
- ``realize`` as it was before it memoized ``_rewrite_options`` per fragment
  within one call.

With those installed beside the engine, over every demo_corpus.tsv row
(parse and realize), every translations.tsv row (translate), and 400 seeded
``tests/gen.py`` networks (rule and transfer matching, realize, and parsing
what realize gives, with english.cn and again with the stress model
``tests/gen.STRESS_MODEL``), at beams 1, 2 and 16:

- every ``match_rules`` and ``_collect_transfer_matches`` answer equals the
  unindexed loop's, match for match and in order;
- every pattern a ``RootIndex`` leaves out for a target (a rule for realize
  or transfer, a rule part for a chart item) has ``align_networks(...) is
  None`` on that target, memo hits included, and every pattern it admits
  passes ``_fits`` at the root and is a capsule or scores above 0 there;
- every rule ``RootIndex.with_markers`` drops for a target, because the
  target root's children cannot take one of its role markers, has
  ``align_networks(...) is None`` on that target, and the marker check
  drops some on the shipped corpora and on each generated run;
- every ``_tilings`` answer, called unmasked (all-ones pattern part bits
  and cell masks), equals the cell-probing one, and called with the rule's
  part bits equals that one less each tiling a cell's part mask rules out;
  and the one tiling the chart takes for a one-part pattern rule is the
  cell-probing one;
- every answer of a memoized ``rule_node_sim`` equals the unmemoized one,
  and the memo holds only pairs of concepts each defined or a registered
  stemless concept of sense 1;
- every ``realize`` answer, or error, equals the copy's without the memo.

Beside those runs, ``_match_region``'s root check is checked on its own:
with seeded fragments over english.cn, the stress model and the rule-count
model, every call answers as the align-then-drop copy does, and
``match_rules`` and ``_collect_transfer_matches`` give the same matches as
with that copy installed. Both scorers answer every ordered pair of the
shipped models' concepts alike, and the memo then holds exactly the pairs it may; a
warm pass over the shipped corpora calls ``is_a`` not once; a generated region never aligns with a copy whose
root carries another anchor; and the root indexes and the scorer's memo
stay within bounds computed from the model, and the chart's literal bits
and per-width rule lists are fixed by it, after targets with fresh concepts
and anchors, while every index answer admits only patterns that pass the
first checks at the root.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from importlib import resources
from itertools import islice, product as iter_product
from types import SimpleNamespace
from typing import Container

import pytest

import conspec.parser
import conspec.realizer
import conspec.rules
import conspec.similarity
import conspec.transfer
from conspec.errors import AffixError, ConspecError, UnrealizableFragmentError
from conspec.lexicon import Lexicon, is_a
from conspec.model import ModelBundle, load_corpus, load_model, load_model_text
from conspec.network import UP, Anchor, Concept, ConceptNetwork, Node, canonicalize, resolve_anchors
from conspec.parser import parse_text
from conspec.realizer import Hypothesis, _rewrite_options, apply_orthography, join_affixes
from conspec.rules import (
    DEFAULT_TAU,
    Literal,
    Match,
    Rule,
    TransferRule,
    _TransferMatch,
)
from conspec.similarity import (
    DEFAULT_ALPHA,
    Alignment,
    NodeSim,
    RootIndex,
    _fits,
    align_networks,
    concept_sim,
)
from conspec.transfer import load_pair, translate
from conspec.treeline import parse_network, print_network

from .gen import STRESS_MODEL, gen_network, rule_count_model
from .test_chart_oracle import admitted_by_masks, chart_locals, lowest_literal_bit, unmasked

DATA = resources.files("conspec.data")
BEAMS = [1, 2, 16]


def with_beam(model: ModelBundle, beam: int) -> ModelBundle:
    return replace(model, pragmas=replace(model.pragmas, beam=beam))


def outcome(fn, *args):
    """What fn(*args) gives, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except ConspecError as exc:
        return (type(exc).__name__, str(exc))


@pytest.fixture
def checked(monkeypatch) -> SimpleNamespace:
    """Installs every check. ``counts`` tallies what each one saw;
    ``realize`` is the engine's, checked against the copy."""
    counts: Counter = Counter()
    engine_match_rules = conspec.rules.match_rules
    collect = conspec.rules._collect_transfer_matches
    candidates = RootIndex.candidates
    with_markers = RootIndex.with_markers
    tilings, aligned_combos = conspec.parser._tilings, conspec.parser._aligned_combos
    memoized = conspec.similarity.rule_node_sim
    engine_realize = conspec.realizer.realize

    def checked_candidates(index, roots, lex):
        got = candidates(index, roots, lex)
        if isinstance(got, tuple):  # realize's and transfer's, in declaration order
            assert list(got) == sorted(got)
        sim, target = memoized(lex, index.alpha), ConceptNetwork(roots)
        for pattern in left_out(index, got):
            assert align_networks(pattern, target, sim, total=False) is None, (
                print_network(pattern),
                print_network(target),
            )
            counts["skipped"] += 1
        counts["admitted"] += check_admitted(index, roots, lex, got)
        return got

    def checked_with_markers(index, picked, roots, lex):
        got = with_markers(index, picked, roots, lex)
        assert set(got) <= set(picked) and got == sorted(got)
        sim, target = memoized(lex, index.alpha), ConceptNetwork(roots)
        for i in set(picked) - set(got):
            pattern = index.patterns[i]
            assert align_networks(pattern, target, sim, total=False) is None, (
                print_network(pattern),
                print_network(target),
            )
            counts["marker_skipped"] += 1
        return got

    def checked_match_rules(rules, lex, net, *, alpha=DEFAULT_ALPHA, tau=DEFAULT_TAU):
        got = engine_match_rules(rules, lex, net, alpha=alpha, tau=tau)
        want = match_rules(rules, lex, net, alpha=alpha, tau=tau)
        assert [matched(m) for m in got] == [matched(m) for m in want], print_network(net)
        counts["matched"] += 1
        return got

    def checked_collect(trules, lex, net, alpha, tau):
        got = collect(trules, lex, net, alpha, tau)
        want = _collect_transfer_matches(trules, lex, net, alpha, tau)
        assert [matched(m) for m in got] == [matched(m) for m in want], print_network(net)
        counts["collected"] += 1
        return got

    def checked_tilings(bits, ends, i, j):
        chart = chart_locals()
        tokens, frags, rule = chart["tokens"], chart["frags"], chart["rule"]
        got = tilings(bits, ends, i, j)
        want = _tilings(rule, tokens, frags, i, j)
        ones, open_ends = unmasked(bits, ends, lowest_literal_bit(chart["index"]))
        assert tilings(ones, open_ends, i, j) == want, (tokens, i, j, rule.rule_id)
        kept = [t for t in want if admitted_by_masks(rule, bits, frags, t)]
        assert got == kept, (tokens, i, j, rule.rule_id)
        counts["tilings"] += 1
        return got

    def checked_combos(slots, align, cap):
        chart = chart_locals()
        if chart["index"].edges[chart["r"]] is None:  # tiled without ``_tilings``
            i, j = chart["i"], chart["j"]
            want = _tilings(chart["rule"], chart["tokens"], chart["frags"], i, j)
            assert [chart["tiling"]] == want == [[(i, j)]]
            counts["tilings"] += 1
        return aligned_combos(slots, align, cap)

    def checked_sim(lex: Lexicon, alpha: float = DEFAULT_ALPHA) -> NodeSim:
        new, old = memoized(lex, alpha), rule_node_sim(lex, alpha)

        def sim(pattern, target):
            got = new(pattern, target)
            assert got == old(pattern, target), (pattern, target, alpha)
            counts["sims"] += 1
            return got

        return sim

    def checked_realize(model, net):
        want = outcome(realize, model, net)
        counts["realized"] += 1
        try:
            got = engine_realize(model, net)
        except ConspecError as exc:
            assert (type(exc).__name__, str(exc)) == want
            raise
        assert got == want
        return got

    monkeypatch.setattr(RootIndex, "candidates", checked_candidates)
    monkeypatch.setattr(RootIndex, "with_markers", checked_with_markers)
    monkeypatch.setattr(conspec.rules, "match_rules", checked_match_rules)
    monkeypatch.setattr(conspec.realizer, "match_rules", checked_match_rules)
    monkeypatch.setattr(conspec.rules, "_collect_transfer_matches", checked_collect)
    monkeypatch.setattr(conspec.parser, "_tilings", checked_tilings)
    monkeypatch.setattr(conspec.parser, "_aligned_combos", checked_combos)
    monkeypatch.setattr(conspec.parser, "rule_node_sim", checked_sim)
    monkeypatch.setattr(conspec.rules, "rule_node_sim", checked_sim)
    monkeypatch.setattr(conspec.transfer, "realize", checked_realize)
    return SimpleNamespace(counts=counts, realize=checked_realize)


def admits(got):
    """Whether the index answer ``got``, a tuple of indices or the chart's
    bit set, admits the pattern at a given index."""
    return (lambda i: got >> i & 1) if isinstance(got, int) else got.__contains__


def left_out(index: RootIndex, got) -> list[ConceptNetwork]:
    """The patterns of ``index`` that its answer ``got`` leaves out."""
    admitted = admits(got)
    return [p for i, p in enumerate(index.patterns) if not admitted(i)]


def check_admitted(index: RootIndex, roots: tuple[Node, ...], lex: Lexicon, got) -> int:
    """Checks that every pattern ``got`` admits for ``roots`` passes the first
    checks at the root, and is a capsule or scores above 0 against the
    target root's concept under the unmemoized scorer; returns how many."""
    sim, admitted = rule_node_sim(lex, index.alpha), admits(got)
    target, count = roots[0], 0
    for i, pattern in enumerate(index.patterns):
        if not admitted(i):
            continue
        root = pattern.roots[0]
        shown = (print_network(pattern), print_network(ConceptNetwork(roots)))
        assert len(pattern.roots) == len(roots) and _fits(root, target, False), shown
        assert root.is_capsule or sim(root.concept, target.concept) > 0, shown
        count += 1
    return count


def matched(m: Match | _TransferMatch) -> tuple:
    """What a match is: its rule, binding pair for pair, score and anchor."""
    pairs = [(id(p), id(t)) for p, t in m.binding.items()]
    return id(m.rule), pairs, m.score, id(getattr(m, "anchor", None))


def regions(*nets: ConceptNetwork) -> list[ConceptNetwork]:
    """Each network, each of its subtrees, each of those with its root
    anchored, and the networks two by two as two-root networks."""
    subtrees = [ConceptNetwork((node,)) for net in nets for node in net.iter_nodes()]
    anchored = [
        ConceptNetwork((Node(r.concept, r.capsule, Anchor(UP), r.specifiers),))
        for r in (sub.roots[0] for sub in subtrees)
    ]
    pairs = [ConceptNetwork(a.roots + b.roots) for a, b in zip(nets, nets[1:])]
    return list(nets) + subtrees + anchored + pairs


def storable(lex: Lexicon, c: Concept) -> bool:
    """Whether the scorer's memo may hold a pair with ``c``: a defined
    concept, or a registered stemless one of sense 1."""
    return c in lex.definitions or (c.stemless and c.sense == 1 and c.label in lex.stemless_registry)


def memo_bounded(*lexicons: Lexicon) -> None:
    for lex in lexicons:
        for memo in lex.rule_sim_memo.values():
            assert all(storable(lex, a) and storable(lex, b) for a, b in memo)


@pytest.mark.parametrize("beam", BEAMS)
def test_shipped_corpora(beam, checked):
    model = with_beam(load_model(str(DATA / "english.cn")), beam)
    pair = load_pair(str(DATA / "english_sov.pair"))
    pair = replace(
        pair,
        source_model=with_beam(pair.source_model, beam),
        receptor_model=with_beam(pair.receptor_model, beam),
    )
    for surface, net, _ in load_corpus(str(DATA / "demo_corpus.tsv")):
        outcome(parse_text, model, surface)
        outcome(checked.realize, model, net)
    for raw in (DATA / "translations.tsv").read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            outcome(translate, pair, raw.split("\t")[0])
    memo_bounded(model.lexicon, pair.source_model.lexicon, pair.receptor_model.lexicon)
    counts = checked.counts
    kinds = ("skipped", "admitted", "matched", "tilings", "sims", "realized")
    assert min(counts[k] for k in kinds) > 20, counts
    assert counts["marker_skipped"] > 0, counts
    assert counts["collected"] > 0, counts  # at beam 1 some rows fail to parse


def test_generated_matching(checked):
    """Rule and transfer matching: no beam takes part."""
    model = load_model(str(DATA / "english.cn"))
    pair = load_pair(str(DATA / "english_sov.pair"))
    lex, alpha, tau = model.lexicon, model.pragmas.alpha, model.pragmas.tau
    rng = random.Random(15)
    # generated patterns too, whose roots carry anchors, capsules and several
    # roots: shapes the shipped rules lack
    patterns = regions(*(gen_network(rng, max_nodes=8) for _ in range(8)))
    rules = model.rules + tuple(Rule(p, [], f"g{k}") for k, p in enumerate(patterns))
    trules = pair.transfer_rules + tuple(
        TransferRule(p, p, f"h{k}") for k, p in enumerate(patterns) if len(p.roots) == 1
    )
    nets = [gen_network(rng, max_nodes=8) for _ in range(400)]
    for target in patterns + [region for net in nets for region in regions(net)]:
        conspec.rules.match_rules(rules, lex, target, alpha=alpha, tau=tau)
    for net in nets:
        prepared = resolve_anchors(canonicalize(net))
        conspec.rules._collect_transfer_matches(trules, lex, prepared, alpha, tau)
    memo_bounded(lex)
    counts = checked.counts
    assert min(counts[k] for k in ("skipped", "admitted", "matched", "sims")) > 1000, counts
    assert counts["collected"] == 400, counts


@pytest.mark.parametrize("beam", BEAMS)
def test_generated_realize_and_parse(beam, checked):
    realize_and_parse(checked, DATA / "english.cn", beam)


@pytest.mark.parametrize("beam", BEAMS)
def test_generated_realize_and_parse_on_the_stress_model(beam, checked):
    realize_and_parse(checked, STRESS_MODEL, beam)


def realize_and_parse(checked, model_path, beam) -> None:
    """Realize each network, and parse the best text it gives."""
    model = with_beam(load_model(str(model_path)), beam)
    rng = random.Random(15)
    texts = 0
    for _ in range(400):
        got = outcome(checked.realize, model, gen_network(rng, max_nodes=8))
        if not isinstance(got, tuple):
            texts += 1
            outcome(parse_text, model, got[0][0])
    memo_bounded(model.lexicon)
    assert texts > 20
    counts = checked.counts
    kinds = ("skipped", "admitted", "matched", "tilings", "sims", "realized")
    assert min(counts[k] for k in kinds) > 20, counts
    assert counts["marker_skipped"] > 0, counts


def test_role_marker_check():
    """A rule whose root child is the role marker {agent} is aligned with a
    fragment whose root has a child defined under {agent}, and skipped
    unaligned for a fragment whose root has no such child."""
    model = load_model_text(
        "doer = {agent}\n"
        "act > {agent} <=> ['x', act > {agent}]\n"
        "act > {past} <=> [act > {past}, 'y']"
    )
    lex, rules = model.lexicon, model.rules
    index = RootIndex(rules, tuple(r.lhs for r in rules), DEFAULT_ALPHA, tuple)
    for text, kept in (
        ("act > doer", [0]),
        ("act > {agent}", [0]),
        ("act > [he, doer]", [0]),
        ("act > he", []),
        ("act > (doer > x)", []),  # a capsule child has no concept
        ("act > [{past}, he]", [1]),
    ):
        net = parse_network(text)
        assert index.with_markers((0, 1), net.roots, lex) == kept, text
        got = conspec.rules.match_rules(rules, lex, net)
        assert [m.rule.rule_id for m in got] == [f"r{i + 1}" for i in kept], text


ROOT_CHECK_MODELS = {
    "english.cn": lambda: load_model(str(DATA / "english.cn")),
    "stress": lambda: load_model(str(STRESS_MODEL)),
    "rule count": lambda: load_model_text(rule_count_model(20)),
}


def _region_view(got: Alignment | None):
    if got is None:
        return None
    return got.product, got.count, [(id(p), id(t)) for p, t in got.binding.items()]


@pytest.mark.parametrize("name", sorted(ROOT_CHECK_MODELS))
def test_root_check_skips_only_matches_the_content_check_drops(monkeypatch, name):
    """``_match_region`` checks the first roots before aligning. On seeded
    fragments, each call answers as the align-then-drop copy above does,
    and ``match_rules`` and ``_collect_transfer_matches`` give the same
    matches, in order, as with that copy installed. Each matcher skips some
    alignments by the check, and some of those would have aligned, only for
    the content check to drop them."""
    model = ROOT_CHECK_MODELS[name]()
    pair = load_pair(str(DATA / "english_sov.pair"))
    lex, alpha, tau = model.lexicon, model.pragmas.alpha, model.pragmas.tau
    rng = random.Random(23)
    patterns = regions(*(gen_network(rng, max_nodes=8) for _ in range(8)))
    # generated transfer rules carry no slot, so every src node lies outside
    # the owner set and the check applies at each root
    trules = pair.transfer_rules + tuple(
        TransferRule(p, p, f"h{k}") for k, p in enumerate(patterns) if len(p.roots) == 1
    )
    nets = [net for _, net, _ in load_corpus(str(DATA / "demo_corpus.tsv"))]
    nets += [gen_network(rng, max_nodes=8) for _ in range(150)]
    engine_region, counts, matcher = conspec.rules._match_region, Counter(), ["realize"]

    def counted_align(pattern, target, sim, *, total):
        counts["aligned"] += 1
        return align_networks(pattern, target, sim, total=total)

    def checked_region(pattern, target, sim, tau, owner):
        before = counts["aligned"]
        got = engine_region(pattern, target, sim, tau, owner)
        assert _region_view(got) == _region_view(_match_region(pattern, target, sim, tau, owner))
        if counts["aligned"] == before:
            counts[matcher[0], "skipped"] += 1
            if align_networks(pattern, target, sim, total=False) is not None:
                counts[matcher[0], "aligned, then dropped"] += 1
        return got

    def both(fn, *args):
        monkeypatch.setattr(conspec.rules, "_match_region", checked_region)
        got = fn(*args)
        monkeypatch.setattr(conspec.rules, "_match_region", _match_region)
        want = fn(*args)
        assert [matched(m) for m in got] == [matched(m) for m in want]

    monkeypatch.setattr(conspec.rules, "align_networks", counted_align)
    for net in nets:
        matcher[0] = "realize"
        for region in regions(net):
            both(conspec.rules.match_rules, model.rules, lex, region)
        matcher[0] = "transfer"
        prepared = resolve_anchors(canonicalize(net))
        both(conspec.rules._collect_transfer_matches, trules, lex, prepared, alpha, tau)
    for kind in ("realize", "transfer"):
        assert counts[kind, "aligned, then dropped"] > 0, counts
        assert counts[kind, "skipped"] > counts[kind, "aligned, then dropped"], counts


def test_roots_with_other_anchors_never_align():
    """The anchor comparison of the first checks: a generated region aligns
    with itself, and never with a copy whose root has another anchor, which
    a root index over the one pattern leaves out."""
    lex = load_model(str(DATA / "english.cn")).lexicon
    sim = rule_node_sim(lex)
    rng = random.Random(16)
    pairs = 0
    for _ in range(100):
        for node in gen_network(rng, max_nodes=8).iter_nodes():
            region = ConceptNetwork((node,))
            moved = Node(node.concept, node.capsule, Anchor(UP, 2), node.specifiers)
            other = ConceptNetwork((moved,))
            assert align_networks(region, region, sim, total=False) is not None
            for pattern, target in ((region, other), (other, region)):
                assert align_networks(pattern, target, sim, total=False) is None
                assert not can_align(pattern, target)
                index = RootIndex(None, (pattern,), DEFAULT_ALPHA, tuple)
                assert index.candidates(target.roots, lex) == ()
            pairs += 1
    assert pairs > 200


def freshened(rng: random.Random, net: ConceptNetwork, k: int) -> ConceptNetwork:
    """A copy of ``net`` in which about half the concepts are undefined ones
    no model uses, and about half the anchors point deeper than any pattern's."""

    def conv(node: Node) -> Node:
        spec = tuple(conv(s) for s in node.specifiers)
        anchor = node.anchor
        if anchor is not None and rng.random() < 0.5:
            anchor = Anchor(anchor.direction, anchor.depth + 1 + k)
        if node.is_capsule:
            body = ConceptNetwork(tuple(conv(r) for r in node.capsule.roots))
            return Node(capsule=body, anchor=anchor, specifiers=spec)
        concept = node.concept
        if rng.random() < 0.5:
            concept = Concept(f"nonce{k}_{rng.randrange(1000)}", concept.stemless)
        return Node(concept=concept, anchor=anchor, specifiers=spec)

    return ConceptNetwork(tuple(conv(r) for r in net.roots))


def check_bounded(index: RootIndex, patterns: list[ConceptNetwork], lex: Lexicon) -> None:
    """Every memo key of ``index`` is one the patterns and lexicon allow, so
    the memo holds at most their product of choices."""
    shapes = {(len(p.roots), p.roots[0].anchor) for p in patterns}
    widest = max(len(p.roots[0].specifiers) for p in patterns)
    known = set(lex.definitions) | {c for p in patterns for c in p.concepts()} | {None}
    assert index.memo
    for count, anchor, width, concept in index.memo:
        assert (count, anchor) in shapes and width <= widest and concept in known
    assert len(index.memo) <= len(shapes) * (widest + 1) * len(known)
    assert lex.rule_sim_memo[index.alpha]
    memo_bounded(lex)


def test_indexes_stay_bounded(monkeypatch):
    """After 400 generated networks, and copies of them with fresh concepts
    and anchors, realize's, transfer's and the chart's indexes and the
    scorer's memos hold only keys the model bounds, the chart's literal bits
    and per-width rule lists are as the model built them, and every index
    answer, memo hit or not, admits only patterns that can align at the
    root."""
    candidates, counts = RootIndex.candidates, Counter()

    def checked_candidates(index, roots, lex):
        got = candidates(index, roots, lex)
        counts["admitted"] += check_admitted(index, roots, lex, got)
        return got

    monkeypatch.setattr(RootIndex, "candidates", checked_candidates)
    model = load_model(str(DATA / "english.cn"))
    pair = load_pair(str(DATA / "english_sov.pair"))
    lex, src = model.lexicon, pair.source_model.lexicon
    alpha, tau = model.pragmas.alpha, model.pragmas.tau
    rules = model.rules
    texts = {p.text for r in rules for p in r.parts if isinstance(p, Literal)}
    most = max(len(r.parts) for r in rules)
    index = conspec.parser.chart_index(model)
    built = (dict(index.literal_bits), [list(rs) for rs in index.widths])
    assert len(built[0]) == len(texts) and len(built[1]) == most + 1
    rng = random.Random(17)
    fresh = 0
    for k in range(400):
        net = gen_network(rng, max_nodes=8)
        other = freshened(rng, net, k)
        fresh += any(c.label.startswith("nonce") for c in other.concepts())
        for region in regions(net, other):
            conspec.rules.match_rules(model.rules, lex, region, alpha=alpha, tau=tau)
        for target in (net, other):
            conspec.rules._collect_transfer_matches(pair.transfer_rules, src, target, alpha, tau)
            got = outcome(conspec.realizer.realize, model, target)
            if not isinstance(got, tuple):
                outcome(parse_text, model, got[0][0])
    assert fresh > 250
    assert counts["admitted"] > 1000, counts
    parts = [p.pattern for r in rules for p in r.parts if not isinstance(p, Literal)]
    check_bounded(lex.root_indexes[("realize", alpha)], [r.lhs for r in rules], lex)
    check_bounded(lex.root_indexes[("chart", alpha)].parts, parts, lex)
    check_bounded(src.root_indexes[("transfer", alpha)], [t.src for t in pair.transfer_rules], src)
    assert lex.root_indexes[("chart", alpha)] is index
    assert (index.literal_bits, index.widths) == built


@pytest.mark.parametrize("name", ["english.cn", "sov.cn"])
def test_memo_on_every_pair_of_concepts(name):
    lex = load_model(str(DATA / name)).lexicon
    heads = [defn.body.roots[0].head_concept() for defn in lex.definitions.values()]
    markers = [Concept(label, True) for label in lex.stemless_registry]
    unstored = [Concept("nonce"), Concept("nonce", True), Concept("agent", True, 2)]
    concepts = list(dict.fromkeys([*lex.definitions, *heads, *markers, *unstored]))
    stored = [c for c in concepts if storable(lex, c)]
    assert len(stored) == len(set(lex.definitions) | set(markers))
    for alpha in (0.9, 0.5):
        sim, old = conspec.similarity.rule_node_sim(lex, alpha), rule_node_sim(lex, alpha)
        for _ in range(2):  # the second pass reads what the first one stored
            for a in concepts:
                for b in concepts:
                    want = old(a, b)
                    assert sim(a, b) == want, (a, b, alpha)
        memo = lex.rule_sim_memo[alpha]
        assert len(memo) == len(stored) ** 2 - len(stored)
        assert not any(c in pair for pair in memo for c in unstored)
    memo_bounded(lex)


def test_warm_pass_calls_no_is_a(monkeypatch):
    """Once a pass over the shipped corpora has filled the scorer's memo, a
    second pass answers every pair from it: role markers included."""
    model = load_model(str(DATA / "english.cn"))
    pair = load_pair(str(DATA / "english_sov.pair"))
    rows = load_corpus(str(DATA / "demo_corpus.tsv"))
    sources = [
        raw.split("\t")[0]
        for raw in (DATA / "translations.tsv").read_text(encoding="utf-8").splitlines()
        if raw.strip() and not raw.startswith("#")
    ]
    calls = Counter()

    def counted_is_a(lex, concept, category):
        calls["is_a"] += 1
        return is_a(lex, concept, category)

    for warm in (False, True):
        if warm:
            monkeypatch.setattr(conspec.similarity, "is_a", counted_is_a)
        for surface, net, _ in rows:
            outcome(parse_text, model, surface)
            outcome(conspec.realizer.realize, model, net)
        for source in sources:
            outcome(translate, pair, source)
    assert calls["is_a"] == 0
    assert model.lexicon.rule_sim_memo and pair.receptor_model.lexicon.rule_sim_memo


# ---------------------------------------------------------------------------
# As they were: kept verbatim
# ---------------------------------------------------------------------------


def _match_region(
    pattern: ConceptNetwork,
    target: ConceptNetwork,
    sim: NodeSim,
    tau: float,
    owner: Container[int],
) -> Alignment | None:
    """Align a rule pattern with the target's root region, keeping content.

    ``owner`` holds id(pattern node) for each pattern node that an output
    part or slot carries. The match is dropped below ``tau``, and when a
    pattern node outside ``owner`` holds an analogue (a target of another
    concept) or a target with a remainder (a specifier child that is not
    itself bound): that content would vanish silently (suppletions stay
    exact-only). Otherwise returns the alignment. Each remainder goes with
    the part or slot that carries its bound parent; readers work it out from
    the binding. A target of the wrong root shape fails at the alignment's
    first checks, before ``sim`` is called.
    """
    got = align_networks(pattern, target, sim, total=False)
    if got is None or got.score < tau:
        return None
    for p, t in got.binding.items():
        # p's children bind distinct children of t, so t has an unbound child
        # exactly when it has more children than p
        if id(p) not in owner and (p.concept != t.concept or len(t.specifiers) > len(p.specifiers)):
            return None
    return got


def can_align(pattern: ConceptNetwork, target: ConceptNetwork) -> bool:
    """Whether ``pattern`` can pass the first checks of a prefix
    ``align_networks`` on ``target``: the root counts agree and the first
    roots pass ``_align_node``'s own node test. Where it is False,
    ``align_networks`` is None before it computes any similarity, so rule
    matching skips the rule unaligned."""
    return len(pattern.roots) == len(target.roots) and _fits(
        pattern.roots[0], target.roots[0], False
    )


def match_rules(
    rules: tuple[Rule, ...],
    lex: Lexicon,
    net: ConceptNetwork,
    *,
    alpha: float = DEFAULT_ALPHA,
    tau: float = DEFAULT_TAU,
) -> list[Match]:
    """Rule patterns matched against the network's root region: every match
    with score >= tau, best score first, declaration order on ties. A rule
    whose lhs fails ``can_align`` on the network is skipped unaligned."""
    sim = rule_node_sim(lex, alpha)
    out: list[tuple[float, int, Match]] = []
    for idx, rule in enumerate(rules):
        if not can_align(rule.lhs, net):
            continue
        got = _match_region(rule.lhs, net, sim, tau, rule.part_at)
        if got is not None:
            out.append((-got.score, idx, Match(rule, got.binding, got.score)))
    out.sort(key=lambda item: (item[0], item[1]))
    return [m for _, _, m in out]


def _collect_transfer_matches(
    trules: tuple[TransferRule, ...],
    lex: Lexicon,
    net: ConceptNetwork,
    alpha: float,
    tau: float,
) -> list[_TransferMatch]:
    sim = rule_node_sim(lex, alpha)
    targets = [(node, ConceptNetwork((node,))) for node in net.iter_nodes()]
    out: list[_TransferMatch] = []
    for rule in trules:
        for node, target in targets:
            if not can_align(rule.src, target):
                continue
            got = _match_region(rule.src, target, sim, tau, rule.slot_ids)
            if got is not None:
                region = frozenset(got.binding.values())
                out.append(_TransferMatch(rule, node, got.binding, got.score, region))
    # stable sort: a rule's matches of equal score stay in the net's preorder
    out.sort(key=lambda m: -m.score)
    return out


def _tilings(rule, tokens: list[str], frags, i: int, j: int) -> list[list[tuple[int, int]]]:
    """Every way the rule's parts cover tokens[i:j], in lexicographic order.

    Partial tilings grow one part at a time, in order. Each part covers at
    least one token, so part k ends no later than j minus the parts still to
    come, and the last part ends at j.
    """
    parts = rule.parts
    partial: list[tuple[list[tuple[int, int]], int]] = [([], i)]  # (tiling so far, next start)
    for k, part in enumerate(parts):
        hi = j - (len(parts) - 1 - k)
        grown = []
        for acc, at in partial:
            lo = j if k == len(parts) - 1 else at + 1
            if isinstance(part, Literal):
                if lo <= at + 1 <= hi and tokens[at] == part.text:
                    grown.append((acc + [(at, at + 1)], at + 1))
                continue
            for end in range(lo, hi + 1):
                if frags[(at, end)]:
                    grown.append((acc + [(at, end)], end))
        if not grown:
            return []
        partial = grown
    return [acc for acc, _ in partial]


def rule_node_sim(lex: Lexicon, alpha: float = DEFAULT_ALPHA) -> NodeSim:
    """Rule-matching scorer: is_a is tested before falling back to
    similarity, so a rule written over a definition-level concept (a rule
    over {verb}, or over tool) applies to anything defined beneath it."""

    def sim(pattern: Concept, target: Concept) -> float:
        if pattern == target:
            return 1.0
        if is_a(lex, target, pattern):
            return alpha
        if pattern.stemless or target.stemless:
            return 0.0
        return concept_sim(lex, pattern, target, alpha)

    return sim


def realize(model: ModelBundle, net: ConceptNetwork) -> list[tuple[str, float, list[list[str]]]]:
    """Ranked (text, score, trace) realizations; best first.

    Ties rank shorter output first, then lexicographic. Raises
    UnrealizableFragmentError only when every hypothesis got stuck.
    """
    prepared = resolve_anchors(canonicalize(net))
    beam = model.pragmas.beam
    hypotheses = [Hypothesis([prepared], 1.0)]
    best_seen: dict[tuple, float] = {hypotheses[0].key(): 1.0}
    results: dict[str, tuple[str, float, list[list[str]]]] = {}
    stuck: list[str] = []
    for _ in range(64):
        pending: list[Hypothesis] = []
        for h in hypotheses:
            if h.pending():
                pending.append(h)
                continue
            try:
                text = join_affixes([p for p in h.parts if isinstance(p, str)])
            except AffixError:
                continue
            if model.pragmas.orthography:
                text = apply_orthography(text, prepared)
            prev = results.get(text)
            if prev is None or h.score > prev[1]:
                results[text] = (text, h.score, h.trace + [["join"]])
        if not pending:
            break
        generation: dict[tuple, Hypothesis] = {}
        for h in pending:
            slots = h.pending()
            per_slot = []
            dead = False
            for i in slots:
                options = _rewrite_options(model, h.parts[i])
                if not options:
                    stuck.append(print_network(h.parts[i]))
                    dead = True
                    break
                per_slot.append(options[:beam])
            if dead:
                continue
            for combo in islice(iter_product(*per_slot), beam * 4):
                parts: list[Part] = []
                score = h.score
                step: list[str] = []
                it = iter(combo)
                for i, part in enumerate(h.parts):
                    if isinstance(part, str):
                        parts.append(part)
                        continue
                    opt_score, label, replacement = next(it)
                    parts.extend(replacement)
                    score *= opt_score
                    step.append(f"{label}@{i}")
                child = Hypothesis(parts, score, h.trace + [step])
                key = child.key()
                if best_seen.get(key, -1.0) >= score:
                    continue
                best_seen[key] = score
                generation[key] = child
        next_gen = sorted(generation.values(), key=lambda h: -h.score)
        if len(next_gen) > beam:
            dropped = len(next_gen) - beam
            next_gen = next_gen[:beam]
            for h in next_gen:
                h.trace[-1].append(f"prune:{dropped}")
        hypotheses = next_gen
        if not hypotheses:
            break
    if not results:
        raise UnrealizableFragmentError(stuck[0] if stuck else print_network(net))
    ranked = sorted(results.values(), key=lambda r: (-r[1], len(r[0]), r[0]))
    return ranked
