"""Rule matching's skips and memos, each against the code it replaced.

This file keeps, verbatim, what the skips and memos stand in for:

- ``_tilings`` as it was when it probed every ``(at, end)`` cell of the
  chart; the chart now walks only the ends of its non-empty final cells;
- ``rule_node_sim`` as it was before it read a memo on the lexicon;
- ``realize`` as it was before it memoized ``_rewrite_options`` per fragment
  within one call.

With those installed beside the engine, over every demo_corpus.tsv row
(parse and realize), every translations.tsv row (translate), and 400 seeded
``tests/gen.py`` networks (rule and transfer matching, realize, and parsing
what realize gives), at beams 1, 2 and 16:

- every rule that ``match_rules`` or ``_collect_transfer_matches`` skips on
  its pattern's root shape has ``align_networks(...) is None`` on that target;
- every ``_tilings`` answer equals the cell-probing one;
- every answer of a memoized ``rule_node_sim`` equals the unmemoized one,
  and the memo holds only pairs of defined concepts;
- every ``realize`` answer, or error, equals the copy's without the memo.

Beside those runs, both scorers answer every ordered pair of the shipped
models' concepts alike, and a generated region never aligns with a copy
whose root carries another anchor.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from importlib import resources
from itertools import islice, product as iter_product
from types import SimpleNamespace

import pytest

import conspec.parser
import conspec.realizer
import conspec.rules
import conspec.similarity
import conspec.transfer
from conspec.errors import AffixError, ConspecError, UnrealizableFragmentError
from conspec.lexicon import Lexicon, is_a
from conspec.model import ModelBundle, load_corpus, load_model
from conspec.network import UP, Anchor, Concept, ConceptNetwork, Node, canonicalize, resolve_anchors
from conspec.parser import parse_text
from conspec.realizer import Hypothesis, _rewrite_options, apply_orthography, join_affixes
from conspec.rules import Literal, Rule, TransferRule
from conspec.similarity import (
    DEFAULT_ALPHA,
    NodeSim,
    align_networks,
    can_align,
    concept_sim,
)
from conspec.transfer import load_pair, translate
from conspec.treeline import print_network

from .gen import gen_network

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
    reached: set[tuple[int, int]] = set()  # (id(pattern), id(target root)) aligned
    match_region = conspec.rules._match_region
    match_rules = conspec.rules.match_rules
    collect = conspec.rules._collect_transfer_matches
    tilings = conspec.parser._tilings
    memoized = conspec.similarity.rule_node_sim
    engine_realize = conspec.realizer.realize

    def recorded_region(pattern, target, sim, tau, owner):
        reached.add((id(pattern), id(target.roots[0])))
        return match_region(pattern, target, sim, tau, owner)

    def skipped_none(pattern, target, lex, alpha):
        assert align_networks(pattern, target, rule_node_sim(lex, alpha), total=False) is None, (
            print_network(pattern),
            print_network(target),
        )
        counts["skipped"] += 1

    def checked_match_rules(rules, lex, net, *, alpha=DEFAULT_ALPHA, tau=conspec.rules.DEFAULT_TAU):
        reached.clear()
        got = match_rules(rules, lex, net, alpha=alpha, tau=tau)
        for rule in rules:
            if (id(rule.lhs), id(net.roots[0])) not in reached:
                skipped_none(rule.lhs, net, lex, alpha)
        return got

    def checked_collect(trules, lex, net, alpha, tau):
        reached.clear()
        got = collect(trules, lex, net, alpha, tau)
        for rule in trules:
            for node in net.iter_nodes():
                if (id(rule.src), id(node)) not in reached:
                    skipped_none(rule.src, ConceptNetwork((node,)), lex, alpha)
        return got

    def checked_tilings(rule, tokens, frags, ends, i, j):
        got = tilings(rule, tokens, frags, ends, i, j)
        assert got == _tilings(rule, tokens, frags, i, j), (tokens, i, j, rule.rule_id)
        counts["tilings"] += 1
        return got

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

    monkeypatch.setattr(conspec.rules, "_match_region", recorded_region)
    monkeypatch.setattr(conspec.rules, "match_rules", checked_match_rules)
    monkeypatch.setattr(conspec.realizer, "match_rules", checked_match_rules)
    monkeypatch.setattr(conspec.rules, "_collect_transfer_matches", checked_collect)
    monkeypatch.setattr(conspec.parser, "_tilings", checked_tilings)
    monkeypatch.setattr(conspec.parser, "rule_node_sim", checked_sim)
    monkeypatch.setattr(conspec.rules, "rule_node_sim", checked_sim)
    monkeypatch.setattr(conspec.transfer, "realize", checked_realize)
    return SimpleNamespace(counts=counts, realize=checked_realize)


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


def memo_bounded(*lexicons: Lexicon) -> None:
    for lex in lexicons:
        for memo in lex.rule_sim_memo.values():
            assert all(a in lex.definitions and b in lex.definitions for a, b in memo)


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
    assert min(counts[k] for k in ("skipped", "tilings", "sims", "realized")) > 20, counts


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
    assert min(checked.counts[k] for k in ("skipped", "sims")) > 1000, checked.counts


@pytest.mark.parametrize("beam", BEAMS)
def test_generated_realize_and_parse(beam, checked):
    """Realize each network, and parse the best text it gives."""
    model = with_beam(load_model(str(DATA / "english.cn")), beam)
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
    assert min(counts[k] for k in ("skipped", "tilings", "sims", "realized")) > 20, counts


def test_roots_with_other_anchors_never_align():
    """The anchor comparison of the first checks: a generated region aligns
    with itself, and never with a copy whose root has another anchor."""
    sim = rule_node_sim(load_model(str(DATA / "english.cn")).lexicon)
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
            pairs += 1
    assert pairs > 200


@pytest.mark.parametrize("name", ["english.cn", "sov.cn"])
def test_memo_on_every_pair_of_concepts(name):
    lex = load_model(str(DATA / name)).lexicon
    heads = [defn.body.roots[0].head_concept() for defn in lex.definitions.values()]
    concepts = list(dict.fromkeys([*lex.definitions, *heads, Concept("nonce")]))
    for alpha in (0.9, 0.5):
        sim, old = conspec.similarity.rule_node_sim(lex, alpha), rule_node_sim(lex, alpha)
        for _ in range(2):  # the second pass reads what the first one stored
            for a in concepts:
                for b in concepts:
                    assert sim(a, b) == old(a, b), (a, b, alpha)
        assert len(lex.rule_sim_memo[alpha]) == len(lex.definitions) ** 2 - len(lex.definitions)
    memo_bounded(lex)


# ---------------------------------------------------------------------------
# As they were: kept verbatim
# ---------------------------------------------------------------------------


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
