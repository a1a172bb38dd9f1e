"""Realization and transfer rules: storage, matching, application.

A realization rule pairs a network pattern (lhs) with an ordered sequence of
parts (rhs): quoted surface literals and sub-patterns that point back into
the lhs. Rules are bidirectional: forward they rewrite a network region into
a part sequence (realization), backward they rebuild the lhs around matched
fragments (parsing). That rebuild and transfer's make each node once with
``network.keyed_node``: their output is canonical and keyed as built.

A rule is built from its statement: each pattern part is placed on the lhs
by its one exact embedding, kept as a binding. A one-node part is placed
at the lhs nodes with its concept and anchor, with no aligner call and no
alignment object; a larger part is aligned with the lhs nodes that carry
its root's concept.

Matching is exact or analogical. The lhs embeds prefix-closed into the
target: every lhs node maps to a distinct target node. A match is its
binding: a target child the binding leaves unbound (a "remainder") stays
with the rhs part that carries its bound parent, so a determiner or adverb
hanging off a matched noun flows into that part's fragment instead of
blocking the rule. A match is rejected when a remainder hangs under a
dropped lhs node (silent content loss). Realize and transfer align a target
only with the rules whose pattern root can align with its root: the
lexicon's ``similarity.RootIndex`` for the rule tuple, looked up by the
target's root key, names them in declaration order. A rule whose pattern
root no part or slot carries is not aligned with a target whose root holds
another concept or more specifiers, since the match would lose content at
the root.

Transfer rules rewrite source-language regions into receptor-language
templates. A dst node is a slot when the bilingual map (or label identity)
links it to a src pattern node; slots fill with the transfer of whatever
matched that src node, remainders included. Consumed (matched) nodes are
never rematched, so transfer terminates: every application strictly shrinks
the untransferred region and the match set is finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container

from .errors import ModelLoadError, UntranslatableConceptError
from .lexicon import Lexicon
from .network import (
    Concept,
    ConceptNetwork,
    Node,
    canonical_key,
    canonical_node,
    canonicalize,
    keyed_node,
)
from .similarity import (
    DEFAULT_ALPHA,
    Alignment,
    NodeSim,
    RootIndex,
    align_networks,
    root_index,
    rule_node_sim,
)
from .treeline import print_network

DEFAULT_TAU = 0.5
DEFAULT_BEAM = 16

# ---------------------------------------------------------------------------
# Rule construction
# ---------------------------------------------------------------------------


def _exact_sim(a: Concept, b: Concept) -> float:
    return 1.0 if a is b or a == b else 0.0


def _nodes_by_concept(lhs: ConceptNetwork) -> dict[Concept | None, list[Node]]:
    """The lhs nodes under their concept (None for capsules), in preorder."""
    out: dict[Concept | None, list[Node]] = {}
    for node in lhs.iter_nodes():
        out.setdefault(node.concept, []).append(node)
    return out


def _find_embeddings(pattern: ConceptNetwork, by_concept: dict) -> list[dict[Node, Node]]:
    """The bindings of all exact prefix embeddings of a (single-root) pattern
    into the lhs whose nodes ``_nodes_by_concept`` indexed, in lhs preorder.

    Only an lhs node with the root's concept (None for both capsules) can
    hold the root: ``_exact_sim`` is 0 on any other pair. A one-node pattern
    is placed at each such node with its anchor, which is the binding
    ``align_networks`` would find there; a larger pattern is aligned.
    """
    root = pattern.roots[0]
    candidates = by_concept.get(root.concept, ())
    if not root.is_capsule and not root.specifiers:
        return [{root: t} for t in candidates if t.anchor == root.anchor]
    out = []
    for anchor_node in candidates:
        target = ConceptNetwork((anchor_node,))
        got = align_networks(pattern, target, _exact_sim, total=False)
        if got is not None:
            out.append(got.binding)
    return out


@dataclass
class Literal:
    text: str


@dataclass
class PatternPart:
    pattern: ConceptNetwork  # standalone view, parsed from the rule text
    to_lhs: dict[Node, Node]  # pattern node -> lhs node

    @property
    def lhs_root(self) -> Node:
        return self.to_lhs[self.pattern.roots[0]]


@dataclass
class Rule:
    lhs: ConceptNetwork
    parts: list[Literal | PatternPart]
    rule_id: str
    line: int = 0
    part_at: dict[int, int] = field(default_factory=dict)  # id(lhs node) -> owning part index


def build_rule(
    lhs: ConceptNetwork,
    rhs: list[tuple[str, object]],
    rule_id: str,
    line: int = 0,
    path: str = "<inline>",
) -> Rule:
    """The rule of one ``<=>`` statement: each pattern part is placed on the
    lhs by its one exact embedding (``_find_embeddings``), and a part that has
    none or several, or shares an lhs node with an earlier part, is a
    ModelLoadError at ``path`` and ``line``."""
    rule = Rule(lhs, [], rule_id, line)
    parts, part_at = rule.parts, rule.part_at
    by_concept = _nodes_by_concept(lhs)
    for kind, value in rhs:
        if kind == "lit":
            parts.append(Literal(str(value)))
            continue
        pattern: ConceptNetwork = value  # type: ignore[assignment]
        if len(pattern.roots) != 1:
            raise ModelLoadError("rule part must be a single chain", path, line)
        embeddings = _find_embeddings(pattern, by_concept)
        if not embeddings:
            raise ModelLoadError(
                f"rule part {print_network(pattern)!r} does not occur in the rule pattern",
                path,
                line,
            )
        if len(embeddings) > 1:
            raise ModelLoadError(
                f"rule part {print_network(pattern)!r} is ambiguous in the rule pattern"
                " (annotate senses to disambiguate)",
                path,
                line,
            )
        binding = embeddings[0]  # a fresh dict: the part keeps it
        owned = [id(t) for t in binding.values()]
        if not part_at.keys().isdisjoint(owned):
            raise ModelLoadError("rule parts overlap on the pattern", path, line)
        part_at.update(dict.fromkeys(owned, len(parts)))
        parts.append(PatternPart(pattern, binding))
    return rule


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


@dataclass
class Match:
    rule: Rule
    binding: dict[Node, Node]  # lhs node -> target node
    score: float


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

    The first roots are checked before aligning: an alignment binds them to
    each other, so when the pattern's first root is outside ``owner`` and
    the target's holds another concept or more specifiers, the content
    check would drop any alignment found, and none is tried.
    """
    p, t = pattern.roots[0], target.roots[0]
    if id(p) not in owner and (p.concept != t.concept or len(t.specifiers) > len(p.specifiers)):
        return None
    got = align_networks(pattern, target, sim, total=False)
    if got is None or got.score < tau:
        return None
    for p, t in got.binding.items():
        # p's children bind distinct children of t, so t has an unbound child
        # exactly when it has more children than p
        if id(p) not in owner and (p.concept != t.concept or len(t.specifiers) > len(p.specifiers)):
            return None
    return got


def match_rules(
    rules: tuple[Rule, ...],
    lex: Lexicon,
    net: ConceptNetwork,
    *,
    alpha: float = DEFAULT_ALPHA,
    tau: float = DEFAULT_TAU,
) -> list[Match]:
    """Rule patterns matched against the network's root region: every match
    with score >= tau, best score first, declaration order on ties. Only the
    rules the root index admits, and whose role markers the network's root
    children can take (``RootIndex.with_markers``), are aligned; every other
    rule's alignment is None."""
    sim = rule_node_sim(lex, alpha)
    index = root_index(
        lex,
        "realize",
        alpha,
        rules,
        lambda: RootIndex(rules, tuple(r.lhs for r in rules), alpha, tuple),
    )
    out: list[tuple[float, int, Match]] = []
    for idx in index.with_markers(index.candidates(net.roots, lex), net.roots, lex):
        rule = rules[idx]
        got = _match_region(rule.lhs, net, sim, tau, rule.part_at)
        if got is not None:
            out.append((-got.score, idx, Match(rule, got.binding, got.score)))
    out.sort(key=lambda item: (item[0], item[1]))
    return [m for _, _, m in out]


# ---------------------------------------------------------------------------
# Forward application: fragments for each rhs part
# ---------------------------------------------------------------------------


def realize_parts(match: Match) -> list[str | ConceptNetwork]:
    """Rewrite a matched region into the rule's part sequence.

    Literals pass through; each sub-pattern part becomes the fragment of the
    target induced by its matched nodes plus the remainders (unbound
    children) under them, preserving the target's own concepts (which may be
    analogues).
    """
    rule = match.rule
    # bound target node -> index of the part carrying its lhs node, or None
    part_of = {t: rule.part_at.get(id(l)) for l, t in match.binding.items()}
    out: list[str | ConceptNetwork] = []
    for i, part in enumerate(rule.parts):
        if isinstance(part, Literal):
            out.append(part.text)
        else:
            out.append(ConceptNetwork((_build_part(match.binding[part.lhs_root], i, part_of),)))
    return out


def _build_part(t: Node, part_idx: int, part_of: dict[Node, int | None]) -> Node:
    """The fragment of part ``part_idx`` under bound target node ``t``."""
    kept: list[Node] = []
    for child in t.specifiers:
        if child not in part_of:
            kept.append(child)  # remainder: verbatim
        elif part_of[child] == part_idx:
            kept.append(_build_part(child, part_idx, part_of))
    capsule = None
    if t.is_capsule:
        roots = [
            _build_part(r, part_idx, part_of) for r in t.capsule.roots if part_of.get(r) == part_idx
        ]
        capsule = ConceptNetwork(tuple(roots)) if roots else None
        if capsule is None:
            # body fully consumed elsewhere; degenerate, keep original body
            capsule = t.capsule
    return Node(concept=t.concept, capsule=capsule, anchor=t.anchor, specifiers=tuple(kept))


# ---------------------------------------------------------------------------
# Reverse application: rebuild the lhs around matched fragments
# ---------------------------------------------------------------------------


def reverse_score(alignments: list[Alignment | None]) -> float:
    """The match score of a reverse application: the geometric mean of the
    concept similarities over every part's alignment (None for a literal),
    1 when no concept is aligned. The chart reads it before building the
    item."""
    product, count = 1.0, 0
    for got in alignments:
        if got is not None:
            product *= got.product
            count += got.count
    return product ** (1.0 / count) if count else 1.0


def instantiate_reverse(rule: Rule, alignments: list[Alignment | None]) -> ConceptNetwork:
    """Build an lhs instance around the fragments aligned with each pattern part.

    ``alignments[i]`` aligns parts[i].pattern with its fragment, or is None for
    a literal, which the caller has already checked; ``reverse_score`` gives
    the match score. Every new node is made by ``keyed_node``, so the result
    is canonical as built. Uncovered lhs nodes (role markers, capsule shells,
    {implied} insertions) are copied in fresh, never shared between builds. A
    fragment node with nothing changed beneath it is shared (its canonical
    copy if it has no key).
    """
    return ConceptNetwork(tuple(_copy_lhs(l, rule, alignments) for l in rule.lhs.roots))


def _copy_lhs(l: Node, rule: Rule, alignments: list[Alignment | None]) -> Node:
    # lhs node l lies outside every part, or is the lhs root of part i: a
    # part is a prefix-closed embedding, entered only at its root
    i = rule.part_at.get(id(l))
    if i is not None:
        p = rule.parts[i].pattern.roots[0]
        return _graft(alignments[i].binding[p], p, l, i, rule, alignments)
    capsule = None
    if l.is_capsule:
        capsule = ConceptNetwork(tuple(_copy_lhs(r, rule, alignments) for r in l.capsule.roots))
    spec = [_copy_lhs(s, rule, alignments) for s in l.specifiers]
    return keyed_node(l.concept, capsule, l.anchor, spec)


def _graft(
    f: Node, p: Node, l: Node, i: int, rule: Rule, alignments: list[Alignment | None]
) -> Node:
    # fragment node f is aligned with pattern node p of part i, which stands
    # for lhs node l; every pattern node is bound
    binding, to_lhs = alignments[i].binding, rule.parts[i].to_lhs
    spec = []
    same = True
    for pc in p.specifiers:
        fc = binding[pc]
        got = _graft(fc, pc, to_lhs[pc], i, rule, alignments)
        spec.append(got)
        same = same and got is fc
    if len(l.specifiers) > len(p.specifiers):
        # lhs children outside the part are inserted from the pattern
        part_at = rule.part_at
        spec += [_copy_lhs(lc, rule, alignments) for lc in l.specifiers if part_at.get(id(lc)) != i]
        same = False
    capsule = f.capsule
    if f.is_capsule:
        roots = tuple(
            _graft(binding[pr], pr, to_lhs[pr], i, rule, alignments) for pr in p.capsule.roots
        )
        if roots != capsule.roots:  # nodes compare by identity
            capsule = ConceptNetwork(roots)
            same = False
    if same:
        return canonical_node(f)  # nothing beneath f changed
    if len(f.specifiers) > len(p.specifiers):  # fragment remainders stay
        bound = [binding[pc] for pc in p.specifiers]
        spec += [canonical_node(c) for c in f.specifiers if c not in bound]
    return keyed_node(f.concept, capsule, f.anchor, spec)


# ---------------------------------------------------------------------------
# Transfer
# ---------------------------------------------------------------------------


@dataclass
class ConceptMap:
    entries: dict[Concept, Concept] = field(default_factory=dict)
    identity: bool = False

    def lookup(self, concept: Concept) -> Concept | None:
        got = self.entries.get(concept)
        if got is not None:
            return got
        if self.identity:
            return concept
        return None


@dataclass
class TransferRule:
    src: ConceptNetwork
    dst: ConceptNetwork
    rule_id: str
    line: int = 0
    # dst node -> src node it is a slot for (filled at load)
    slots: dict[Node, Node] = field(default_factory=dict)
    # id() of each src node some slot carries
    slot_ids: frozenset[int] = frozenset()


def build_transfer_rule(
    src: ConceptNetwork,
    dst: ConceptNetwork,
    cmap: ConceptMap,
    rule_id: str,
    line: int = 0,
    path: str = "<inline>",
) -> TransferRule:
    if len(dst.roots) != 1 or len(src.roots) != 1:
        raise ModelLoadError("transfer rules must have single-root sides", path, line)
    src_nodes = list(src.iter_nodes())
    slots: dict[Node, Node] = {}
    for d in dst.iter_nodes():
        if d.is_capsule:
            continue
        candidates = [
            s
            for s in src_nodes
            if not s.is_capsule
            and (cmap.lookup(s.concept) == d.concept or s.concept == d.concept)
        ]
        if len(candidates) > 1:
            raise ModelLoadError(
                f"transfer slot {d.concept.text()} is ambiguous in the source pattern",
                path,
                line,
            )
        if candidates:
            slots[d] = candidates[0]
    slot_ids = frozenset(id(s) for s in slots.values())
    return TransferRule(src, dst, rule_id, line, slots, slot_ids)


@dataclass
class _TransferMatch:
    rule: TransferRule
    anchor: Node  # node in the net where the src pattern root aligned
    binding: dict[Node, Node]  # src node -> net node
    score: float
    region: frozenset[Node]  # aligned net nodes


def _collect_transfer_matches(
    trules: tuple[TransferRule, ...],
    lex: Lexicon,
    net: ConceptNetwork,
    alpha: float,
    tau: float,
) -> list[_TransferMatch]:
    """Every match of a transfer rule at a node of the net, with score >=
    tau: best score first, then by rule id, then in declaration order, each
    rule's matches in the net's preorder. Each node is aligned only with the
    rules the root index admits on it."""
    sim = rule_node_sim(lex, alpha)
    index = root_index(
        lex,
        "transfer",
        alpha,
        trules,
        lambda: RootIndex(trules, tuple(r.src for r in trules), alpha, tuple),
    )
    found: list[tuple[float, str, int, _TransferMatch]] = []
    for node in net.iter_nodes():
        roots = (node,)
        picked = index.candidates(roots, lex)
        if not picked:
            continue
        target = ConceptNetwork(roots)
        for idx in picked:
            rule = trules[idx]
            got = _match_region(rule.src, target, sim, tau, rule.slot_ids)
            if got is not None:
                region = frozenset(got.binding.values())
                match = _TransferMatch(rule, node, got.binding, got.score, region)
                found.append((-got.score, rule.rule_id, idx, match))
    # stable sort: a rule's matches of equal score stay in the net's preorder
    found.sort(key=lambda item: item[:3])
    return [m for *_, m in found]


def _select_match_sets(matches: list[_TransferMatch], beam: int) -> list[tuple[_TransferMatch, ...]]:
    """Fork a hypothesis per overlapping alternative; apply disjoint sets together."""
    selections: list[tuple[_TransferMatch, ...]] = []
    _select(matches, [], beam * 4, selections, set())
    return selections


def _select(remaining: list, chosen: list, cap: int, selections: list, seen: set) -> None:
    """Extend ``chosen`` by each disjoint way to cover ``remaining``, adding
    each new set to ``selections`` until it holds ``cap``."""
    if len(selections) >= cap:
        return
    if not remaining:
        key = frozenset(id(m) for m in chosen)
        if key not in seen:
            seen.add(key)
            selections.append(tuple(chosen))
        return
    head = remaining[0]
    rivals = [m for m in remaining if not m.region.isdisjoint(head.region)]
    for pick in [head] + [m for m in rivals if m is not head]:
        rest = [m for m in remaining if m is not pick and m.region.isdisjoint(pick.region)]
        _select(rest, chosen + [pick], cap, selections, seen)


def _transfer_concept(concept: Concept, cmap: ConceptMap) -> Concept:
    got = cmap.lookup(concept)
    if got is None:
        raise UntranslatableConceptError(concept.text())
    return got


def consumed_concepts(trules: tuple[TransferRule, ...]) -> frozenset[Concept]:
    """The concepts of the transfer rules' non-slot source-pattern nodes:
    the only concepts a match consumes without sending them through the map."""
    return frozenset(
        s.concept
        for rule in trules
        for s in rule.src.iter_nodes()
        if not s.is_capsule and id(s) not in rule.slot_ids
    )


def refuses(cmap: ConceptMap, consumed: frozenset[Concept], net: ConceptNetwork) -> bool:
    """Whether ``transfer_scored`` fails on ``net`` whatever matches it selects.

    It does when the net holds a concept that ``cmap`` cannot map and that is
    not in ``consumed`` (``consumed_concepts`` of the rules). Every net node
    lies outside every selected match, where ``_convert`` maps its concept;
    or is bound to a slot's src node, where ``_build_dst`` maps it; or is
    bound to a non-slot src node, which ``_match_region`` allows only when
    the two concepts are equal. So such a concept is mapped in every
    selection, and the map refuses it.
    """
    return any(c not in consumed and cmap.lookup(c) is None for c in net.concepts())


def transfer_scored(
    trules: tuple[TransferRule, ...],
    cmap: ConceptMap,
    net: ConceptNetwork,
    lexicon: Lexicon,
    *,
    alpha: float = DEFAULT_ALPHA,
    tau: float = DEFAULT_TAU,
    beam: int = DEFAULT_BEAM,
) -> list[tuple[ConceptNetwork, float]]:
    """All receptor networks with scores, best first, deduplicated by equal()."""
    matches = _collect_transfer_matches(trules, lexicon, net, alpha, tau)
    selections = _select_match_sets(matches, beam) if matches else [()]
    results: dict[tuple, tuple[ConceptNetwork, float]] = {}
    missing = None  # the concept text of the first selection's untranslatable concept
    for selection in selections:
        match_at = {id(m.anchor): m for m in selection}
        try:
            built = _apply_selection(net, match_at, cmap)
        except UntranslatableConceptError as exc:
            missing = missing or exc.concept_text
            continue
        score = 1.0
        for m in selection:
            score *= m.score
        out_net = canonicalize(built)
        key = canonical_key(out_net)
        prev = results.get(key)
        if prev is None or score > prev[1]:
            results[key] = (out_net, score)
    if not results:
        # a fresh error: one caught above would carry its traceback
        raise UntranslatableConceptError(
            missing or ", ".join(sorted({c.text() for c in net.concepts()}))
        )
    ranked = sorted(results.values(), key=lambda item: (-item[1], canonical_key(item[0])))
    return ranked[: beam]


def _apply_selection(
    net: ConceptNetwork,
    match_at: dict[int, _TransferMatch],
    cmap: ConceptMap,
) -> ConceptNetwork:
    """Rebuild the net applying each selected match at its anchor.

    Selections are disjoint, so each slot fill is deterministic. Concepts
    outside every match go through the concept map. Every node is new, made
    by ``keyed_node`` in preorder (concept, capsule body, specifiers), which
    fixes which untranslatable concept is reported first.
    """
    return ConceptNetwork(tuple(_convert(r, match_at, cmap) for r in net.roots))


def _convert(node: Node, match_at: dict[int, _TransferMatch], cmap: ConceptMap) -> Node:
    m = match_at.get(id(node))
    if m is not None:
        return _build_dst(m.rule.dst.roots[0], m, match_at, cmap)
    concept = _transfer_concept(node.concept, cmap) if node.concept is not None else None
    capsule = None
    if node.is_capsule:
        capsule = ConceptNetwork(tuple(_convert(r, match_at, cmap) for r in node.capsule.roots))
    spec = [_convert(s, match_at, cmap) for s in node.specifiers]
    return keyed_node(concept, capsule, node.anchor, spec)


def _build_dst(
    d: Node, m: _TransferMatch, match_at: dict[int, _TransferMatch], cmap: ConceptMap
) -> Node:
    spec = [_build_dst(s, m, match_at, cmap) for s in d.specifiers]
    if d.is_capsule:
        body = ConceptNetwork(tuple(_build_dst(r, m, match_at, cmap) for r in d.capsule.roots))
        return keyed_node(capsule=body, anchor=d.anchor, specifiers=spec)
    src = m.rule.slots.get(d)
    if src is None:
        return keyed_node(d.concept, anchor=d.anchor, specifiers=spec)
    # a slot's src node is never a capsule, so neither is the net node t
    t = m.binding[src]
    concept = _transfer_concept(t.concept, cmap)
    # remainders (children of t the match left unbound) travel into the slot
    spec += [_convert(c, match_at, cmap) for c in t.specifiers if c not in m.region]
    return keyed_node(concept, anchor=t.anchor, specifiers=spec)
