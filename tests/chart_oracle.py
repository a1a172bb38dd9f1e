"""The chart parser and reverse instantiation as they were before per-part
alignments were memoized, kept verbatim as an oracle.

``_chart_parse`` here aligns every pattern part afresh for each combination
and re-sweeps every rule over a span until nothing changes.
``tests/test_chart_oracle.py`` checks that ``conspec.parser._chart_parse``
fills every cell exactly as this version does.

``_aligned_combos`` is the chart's combination walk as it was before it cut
each slot to its aligned entries: a depth-first walk over an explicit stack
that stops at the ``cap``. ``tests/test_chart_oracle.py`` checks that the
engine's gives the same combinations from the same ``align`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice, product as iter_product

from conspec.lexicon import Lexicon
from conspec.model import ModelBundle
from conspec.network import ConceptNetwork, Node, canonical_key, canonicalize
from conspec.rules import Literal, Rule
from conspec.similarity import align_networks, rule_node_sim

from .canonical_oracle import rebuild


def instantiate_reverse(rule: Rule, fragments: list[ConceptNetwork | None], lex: Lexicon, alpha: float) -> tuple[ConceptNetwork, float] | None:
    """Build an lhs instance from fragments matched to each pattern part.

    ``fragments[i]`` is the fragment for parts[i] (None for literals, which
    the caller has already verified). Returns (network, match score) or None
    when some part fails to match its fragment. Uncovered lhs nodes (role
    markers, capsule shells, {implied} insertions) are copied in verbatim.
    """
    sim = rule_node_sim(lex, alpha)
    part_frag: dict[int, dict[Node, Node]] = {}  # part index -> lhs node -> fragment node
    product, count = 1.0, 0
    for i, part in enumerate(rule.parts):
        if isinstance(part, Literal):
            continue
        got = align_networks(part.pattern, fragments[i], sim, total=False)
        if got is None:
            return None
        product *= got.product
        count += got.count
        part_frag[i] = {part.to_lhs[p]: f for p, f in got.binding.items()}

    def part_owned(l: Node) -> Node | None:
        i = rule.part_at.get(id(l))
        if i is None:
            return None
        lhs_to_frag = part_frag[i]
        return graft(lhs_to_frag[l], l, lhs_to_frag, i)

    def graft(f: Node, l: Node, lhs_to_frag: dict[Node, Node], part_idx: int) -> Node:
        # fragment node f is aligned with lhs node l; fragment remainders stay
        frag_of = {id(lhs_to_frag[c]): c for c in l.specifiers if lhs_to_frag.get(c) is not None}
        kept: list[Node] = []
        for child in f.specifiers:
            lc = frag_of.get(id(child))
            if lc is not None:
                kept.append(graft(child, lc, lhs_to_frag, part_idx))
            else:
                kept.append(child)  # fragment remainder, verbatim
        # lhs children outside the part are inserted from the pattern
        for lc in l.specifiers:
            if rule.part_at.get(id(lc)) != part_idx and lhs_to_frag.get(lc) is None:
                kept.append(rebuild(lc, swap=part_owned))
        capsule = None
        if f.is_capsule:
            body_of = {id(lhs_to_frag[r]): r for r in l.capsule.roots if lhs_to_frag.get(r) is not None}
            roots = []
            for fr in f.capsule.roots:
                lr = body_of.get(id(fr))
                roots.append(graft(fr, lr, lhs_to_frag, part_idx) if lr is not None else fr)
            capsule = ConceptNetwork(tuple(roots))
        return Node(concept=f.concept, capsule=capsule, anchor=f.anchor, specifiers=tuple(kept))

    net = ConceptNetwork(tuple(rebuild(r, swap=part_owned) for r in rule.lhs.roots))
    score = product ** (1.0 / count) if count else 1.0
    return net, score


@dataclass
class _Item:
    net: ConceptNetwork
    score: float
    trace: list[str]
    unary: int = 0  # consecutive same-span rule applications (cycle guard)
    serial: int = -1  # order of entry into the chart; names the item in tried keys


def _chart_parse(model: ModelBundle, tokens: list[str]):
    n = len(tokens)
    beam = model.pragmas.beam
    frags: dict[tuple[int, int], dict[tuple, _Item]] = {
        (i, j): {} for i in range(n) for j in range(i + 1, n + 1)
    }
    serials = count()

    def add(i: int, j: int, item: _Item) -> bool:
        cell = frags[(i, j)]
        key = canonical_key(item.net)
        prev = cell.get(key)
        if prev is not None:
            if prev.score >= item.score:
                return False
        elif len(cell) >= beam:
            worst_key, worst = min(cell.items(), key=lambda kv: kv[1].score)
            if worst.score >= item.score:
                return False  # cannot displace anything: keeps the loop finite
            del cell[worst_key]
        item.serial = next(serials)
        cell[key] = item
        return True

    for i, token in enumerate(tokens):
        for concept in model.vocab.surfaces.get(token, ()):  # shift: token -> concept
            net = ConceptNetwork((Node(concept=concept),))
            add(i, i + 1, _Item(net, 1.0, [f"shift:{token}"]))

    MAX_UNARY = 2

    def apply_rules_over(i: int, j: int) -> None:
        # Each (rule, items) combination is instantiated once per span; items
        # are named by serial, since an evicted item's id() can be reused. A
        # retry would rebuild the same item with the same score, and add()
        # would refuse it. After the first try, either its key holds a score
        # at least as high, or the cell was full with every score at least as
        # high. A full cell stays full and its minimum score never decreases,
        # and a key's score drops only when the key is evicted from a full
        # cell at that minimum.
        tried: set[tuple] = set()
        changed = True
        while changed:
            changed = False
            for r, rule in enumerate(model.rules):
                for tiling in _tilings(rule, i, j):
                    same_span = tiling == [(i, j)]
                    for combo in _part_combos(rule, tiling, frags, beam):
                        items, score, trace = combo
                        tried_key = (r, *(-1 if it is None else it.serial for it in items))
                        if tried_key in tried:
                            continue
                        tried.add(tried_key)
                        picked = [it for it in items if it is not None]
                        unary = 0
                        if same_span and picked:
                            unary = picked[0].unary + 1
                            if unary > MAX_UNARY:
                                continue
                        nets = [None if it is None else it.net for it in items]
                        got = instantiate_reverse(rule, nets, model.lexicon, model.pragmas.alpha)
                        if got is None:
                            continue
                        built, match_score = got
                        if match_score < model.pragmas.tau:
                            continue
                        item = _Item(
                            canonicalize(built),
                            score * match_score,
                            trace + [f"rule:{rule.rule_id}@{i}:{j}"],
                            unary,
                        )
                        if add(i, j, item):
                            changed = True

    def _tilings(rule, i: int, j: int):
        parts = rule.parts
        out: list[list[tuple[int, int]]] = []

        def go(idx: int, at: int, acc: list[tuple[int, int]]):
            if idx == len(parts):
                if at == j:
                    out.append(list(acc))
                return
            part = parts[idx]
            if isinstance(part, Literal):
                if at < n and tokens[at] == part.text:
                    go(idx + 1, at + 1, acc + [(at, at + 1)])
                return
            for end in range(at + 1, j + 1):
                if frags[(at, end)]:
                    go(idx + 1, end, acc + [(at, end)])

        go(0, i, [])
        return out

    def _part_combos(rule, tiling, frags_table, cap):
        slots: list[list[_Item | None]] = []
        for part, (a, b) in zip(rule.parts, tiling):
            if isinstance(part, Literal):
                slots.append([None])
            else:
                ranked = sorted(frags_table[(a, b)].values(), key=lambda it: -it.score)
                slots.append(list(ranked[:cap]))
        combos = []
        for picked in islice(iter_product(*slots), cap * 4):
            score = 1.0
            trace: list[str] = []
            for it in picked:
                if it is not None:
                    score *= it.score
                    trace.extend(it.trace)
            combos.append((list(picked), score, trace))
        return combos

    for width in range(1, n + 1):
        for i in range(0, n - width + 1):
            apply_rules_over(i, i + width)
    return frags


def _aligned_combos(slots: list[list], align, cap: int) -> list[tuple[tuple, list]]:
    """(items, alignments) for each combination of one entry per slot, in
    ``product(*slots)`` order, whose every item aligns; a None entry is a
    literal and aligns as None.

    The walk is depth-first: ``align(k, item)`` is asked for part k only
    with items whose earlier parts aligned, and a None answer prunes the
    combinations below. The walk stops at the first combination whose
    position in the full product (mixed radix, the last slot fastest) is
    ``cap`` or more, so it reaches exactly the aligned combinations of
    ``islice(product(*slots), cap)``. The walk keeps its own stack of open
    slots instead of recursing.
    """
    last = len(slots)
    strides = [1] * last
    for k in range(last - 1, 0, -1):
        strides[k - 1] = strides[k] * len(slots[k])
    out: list[tuple[tuple, list]] = []
    items: list = []  # the entry chosen in each slot before the open one
    alignments: list = []
    nexts = [0]  # per open slot: the index of its next entry to try
    ats = [0]  # per open slot: the product position of the entries before it
    while nexts:
        k = len(items)
        if k == last:
            out.append((tuple(items), list(alignments)))
        else:
            slot, c = slots[k], nexts[k]
            if c < len(slot):
                nexts[k] = c + 1
                pos = ats[k] + c * strides[k]
                if pos >= cap:
                    break  # positions only grow from here on
                it = slot[c]
                got = None
                if it is not None:
                    got = align(k, it)
                    if got is None:
                        continue
                items.append(it)
                alignments.append(got)
                nexts.append(0)
                ats.append(pos)
                continue
        # every combination below the chosen entries is done: back up one slot
        nexts.pop()
        ats.pop()
        if items:
            items.pop()
            alignments.pop()
    return out
