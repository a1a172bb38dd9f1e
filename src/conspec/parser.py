"""Parsing: generation run in reverse.

segment() recovers the 32 best token sequences (known surface forms plus
affix literals from rule right-hand sides) that re-join to the input exactly,
keeping the 32 best covers at each word position. To bound the chart, input
of over MAX_WORDS words is refused before any work. parse_text() then charts
each segmentation bottom-up: a rule whose part sequence tiles a span rebuilds
its pattern around the matched fragments, exactly or analogically.

The chart decides before it builds:

- A span's first sweep visits only the rules the model's corner table lists
  for the span's first and last tokens and width: at most as many parts as
  the span has tokens, and any literal first or last part equal to the
  span's first or last token; any other rule has no tiling of the span.
  After the first sweep only the one-part pattern rules are tried on the
  span again.
- Each item carries, from the lexicon's root index over the rule parts, the
  set of parts whose root can align with its root; a part outside it is
  answered None unaligned. The chart keeps per start the end of each
  non-empty final cell and the OR of its items' sets (the cell's mask), and
  a tiling's pattern part walks only the cells whose mask holds the part.
- The chart also keeps per position the OR of the masks of the final cells
  that start there and of those that end there. A rule whose first pattern
  part is outside the mask opening at the span's start, or whose last
  pattern part is outside the mask closing at its end, is not tiled; nor is
  a one-part pattern rule while the cell being filled is empty.
- Each slot of a tiling is cut to the items that align with its part, then
  the cut slots' combinations are walked in product order up to the
  ``beam*4`` cap. Each rule part is aligned with each chart item once.
- An item's score is known from its alignments, so an item below ``tau``, or
  one a full cell would refuse whatever its key, is never built.

apply_rules_over says why each is exact. An item is built canonical and keyed
by ``instantiate_reverse`` and is not checked on its own: an anchor may resolve
only once a later rule embeds the item. Complete parses are deduplicated by
key, and each is checked once by ``canonicalize``; one whose anchors do not
resolve is dropped. The rest are ranked by derivation score, then printed
network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import count, groupby, product
from math import prod
from operator import or_

from .errors import MalformedNetworkError, UnparseableTextError
from .lexicon import Lexicon
from .model import ModelBundle
from .network import Concept, ConceptNetwork, canonical_key, canonicalize, keyed_node
from .realizer import join_affixes, strip_orthography
from .rules import Literal, PatternPart, Rule, instantiate_reverse, reverse_score
from .similarity import Alignment, RootIndex, align_networks, root_index, rule_node_sim
from .treeline import print_network

# Most affix ops undone on one word; deeper splits are not tried.
MAX_AFFIXES_PER_WORD = 3

# Most words in one parse_text input; longer input is an UnparseableTextError
# before any work. The chart's work grows about as n**3: with english.cn, 64
# words that do not parse fail after 0.3 to 1.4 s, 128 words after 1.9 to 8 s.
MAX_WORDS = 64


@dataclass
class Vocabulary:
    surfaces: dict[str, list] = field(default_factory=dict)  # surface -> [Concept], in sense order
    literals: set[str] = field(default_factory=set)  # every rule literal
    affixes: list[str] = field(default_factory=list)  # marker-carrying literals, in rule order
    max_words: int = 1  # words in the longest surface form

    def knows(self, token: str) -> bool:
        return token in self.surfaces or token in self.literals


def build_vocabulary(rules: tuple[Rule, ...], lexicon: Lexicon) -> Vocabulary:
    vocab = Vocabulary()
    concepts: dict[Concept, None] = {}  # first-seen order, so no hash order leaks
    for rule in rules:
        for part in rule.parts:
            if isinstance(part, Literal):
                t = part.text
                vocab.literals.add(t)
                affix = (t.startswith("+") or t.startswith("-") or t.endswith("+")) and len(t) > 1
                if affix and t not in vocab.affixes:
                    vocab.affixes.append(t)
        concepts.update(dict.fromkeys(rule.lhs.concepts()))
    concepts.update(dict.fromkeys(lexicon.definitions))
    for concept in concepts:
        if concept.stemless:
            continue
        vocab.surfaces.setdefault(concept.label, []).append(concept)
        vocab.max_words = max(vocab.max_words, concept.label.count(" ") + 1)
    for senses in vocab.surfaces.values():
        senses.sort(key=lambda c: c.sense)
    return vocab


def _decompose(word: str, vocab: Vocabulary) -> list[list[str]]:
    """Affix splits of one word: [prefix, ..., stem, suffix, ...] sequences
    that re-join to it."""
    out: list[list[str]] = []
    _undo(vocab, set(), out, word, [], [], 0)
    return [seq for seq in out if join_affixes(seq) == word]


def _undo(
    vocab: Vocabulary, seen: set, out: list, cur: str, pre: list, post: list, depth: int
) -> None:
    """Append to ``out`` each [pre, stem, post] split of ``cur`` that undoing
    up to MAX_AFFIXES_PER_WORD affixes reaches, depth-first."""
    state = (cur, tuple(pre), tuple(post))  # one stem is reached by several splits
    if depth > MAX_AFFIXES_PER_WORD or state in seen:
        return
    seen.add(state)
    if depth and cur in vocab.surfaces:
        out.append(pre + [cur] + post)
    for affix in vocab.affixes:
        if affix.startswith("+"):
            tail = affix[1:]
            if cur.endswith(tail) and len(cur) > len(tail):
                _undo(vocab, seen, out, cur[: -len(tail)], pre, [affix] + post, depth + 1)
        elif affix.startswith("-"):
            _undo(vocab, seen, out, cur + affix[1:], pre, [affix] + post, depth + 1)
        elif affix.endswith("+"):
            head = affix[:-1]
            if cur.startswith(head) and len(cur) > len(head):
                _undo(vocab, seen, out, cur[len(head) :], pre + [affix], post, depth + 1)


def segment(model: ModelBundle, text: str) -> list[list[str]]:
    """The 32 best distinct token sequences covering the text: fewest affix
    splits, then fewest tokens, first; longer known tokens win ties.

    Every token is a known surface form or a known rule literal; each
    sequence re-joins to the input exactly. With orthography on, terminal
    punctuation is stripped and a lowercased sentence-initial variant is
    tried as a fallback (proper nouns keep their case).
    """
    if model.pragmas.orthography:
        core, _ = strip_orthography(text)
        try:
            return _segment_raw(model, core)
        except UnparseableTextError:
            lowered = core[:1].lower() + core[1:]
            if lowered == core:
                raise
            return _segment_raw(model, lowered)
    return _segment_raw(model, text)


def _segment_raw(model: ModelBundle, text: str) -> list[list[str]]:
    words = text.split()
    if not words:
        raise UnparseableTextError("empty input")
    if len(words) > MAX_WORDS:
        raise UnparseableTextError(
            f"input has {len(words)} words; the parser takes at most {MAX_WORDS}"
        )
    vocab = model.vocab

    # table[i]: the 32 best distinct (tokens, affix splits) covers of words[i:],
    # stably sorted from options of longer known tokens, then words[i]'s affix
    # splits. Exact: a cover whose rest was cut has 32 distinct covers ahead.
    n = len(words)
    table: list[list[tuple[list[str], int]]] = [[] for _ in range(n)] + [[([], 0)]]
    for i in range(n - 1, -1, -1):
        options: list[tuple[list[str], int]] = []
        for j in range(min(n, i + vocab.max_words), i, -1):
            token = " ".join(words[i:j])
            if vocab.knows(token):
                for rest, splits in table[j]:
                    options.append(([token] + rest, splits))
        for decomp in _decompose(words[i], vocab):
            for rest, splits in table[i + 1]:
                options.append((decomp + rest, splits + 1))
        firsts: dict[tuple[str, ...], tuple[list[str], int]] = {}
        for tokens, splits in sorted(options, key=lambda r: (r[1], len(r[0]))):
            firsts.setdefault(tuple(tokens), (tokens, splits))
        table[i] = list(firsts.values())[:32]

    if not table[0]:
        prefix = []
        for w in words:
            if not vocab.knows(w) and not _decompose(w, vocab):
                break
            prefix.append(w)
        raise UnparseableTextError(
            f"no segmentation of {text!r}; longest known prefix: {' '.join(prefix)!r}",
            best_spans=[" ".join(prefix)] if prefix else [],
        )
    return [tokens for tokens, _ in table[0]]


@dataclass
class _Item:
    net: ConceptNetwork
    score: float
    trace: list[str]
    unary: int = 0  # consecutive same-span rule applications (cycle guard)
    serial: int = -1  # order of entry into the chart; names the item in tried and aligned keys
    parts: int = 0  # bit set of the pattern parts whose root can align with it (_ChartIndex)


def _tilings(
    rule, bits, tokens: list[str], frags, ends, i: int, j: int
) -> list[list[tuple[int, int]]]:
    """Every way the rule's parts cover tokens[i:j], in lexicographic order,
    through cells holding an item that each pattern part may align with.

    Partial tilings grow one part at a time, in order. Each part covers at
    least one token, so part k ends no later than j minus the parts still to
    come, and the last part ends at j. ``ends[at]`` lists, by increasing
    end, the (end, mask) of each non-empty final cell starting at ``at``,
    ``mask`` being the OR of its items' ``parts``; pattern part k takes an
    end only where ``mask & bits[k]``. Every cell a part can cover is final
    but (i, j) itself, which only a one-part rule covers; it reads that
    cell, the one being filled, as it stands.
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
            if at == i and hi == j:  # the one part covers the span being filled
                if frags[(i, j)]:
                    grown.append((acc + [(i, j)], j))
                continue
            for end, mask in ends[at]:
                if end > hi:
                    break
                if end >= lo and mask & bits[k]:
                    grown.append((acc + [(at, end)], end))
        if not grown:
            return []
        partial = grown
    return [acc for acc, _ in partial]


def _aligned_combos(slots: list[list], align, cap: int) -> list[tuple[tuple, list]]:
    """(items, alignments) for each combination of one entry per slot, in
    ``product(*slots)`` order, whose every item aligns and whose position in
    that product (mixed radix, the last slot fastest) is below ``cap``; a
    None entry is a literal and aligns as None.

    ``align(k, item)`` does not depend on the other slots, so each slot is
    cut to its aligned entries first. Entry c of slot k is asked only while
    ``first + c * stride`` is below ``cap``, where ``first`` sums the
    positions of the earlier slots' first kept entries: no combination
    through a later entry is within the cap.
    """
    strides = [prod(map(len, slots[k + 1 :])) for k in range(len(slots))]
    cut: list[list[tuple]] = []  # per slot: (position offset, item, alignment)
    first = 0
    for k, slot in enumerate(slots):
        kept = []
        for c, it in enumerate(slot):
            at = c * strides[k]
            if first + at >= cap:
                break
            got = None if it is None else align(k, it)
            if it is None or got is not None:
                kept.append((at, it, got))
        if not kept:
            return []
        first += kept[0][0]
        cut.append(kept)
    out: list[tuple[tuple, list]] = []
    for combo in product(*cut):
        if sum(at for at, _, _ in combo) >= cap:
            break
        out.append((tuple(it for _, it, _ in combo), [got for _, _, got in combo]))
    return out


class _ChartIndex:
    """The parser's data derived from one rule tuple: built on the model's
    first parse, kept on the lexicon by ``similarity.root_index`` (see
    ``chart_index``) and filled as the chart asks for it.

    ``vocab`` is the segmenter's vocabulary of the rules and the lexicon.
    ``corners`` maps a span's corner key to the rules its first sweep
    visits, in declaration order, filled as keys are first asked for. The key
    is the span's first token if it is some rule's literal first part, else
    None; its last token likewise; and its width, clamped at the most parts
    of any rule. A rule is visited where it has at most that many parts and
    its literal first and last parts, if any, are the key's: any other rule
    has no tiling of the span, since each part covers at least one token. So
    the table is bounded by the rules' literals, not by the tokens seen.

    ``parts`` is the root index of the pattern parts, numbered in declaration
    order. It packs each answer as a bit set in an int, bit n for part n, and
    ``part_bits[r][k]`` is the bit of part k of rule r (0 for a literal).
    ``edges[r]`` is the bits of rule r's first and last parts, or None for a
    one-part pattern rule, whose part covers the cell being filled.
    """

    def __init__(self, rules: tuple[Rule, ...], lexicon: Lexicon, alpha: float):
        self.source = rules
        self.vocab = build_vocabulary(rules, lexicon)
        self.rules = list(enumerate(rules))
        self.regrow = [e for e in self.rules if [type(p) for p in e[1].parts] == [PatternPart]]
        # per rule, the text of a literal first and last part (None for a pattern part)
        self.literals = [(_text(rl.parts[0]), _text(rl.parts[-1])) for rl in rules]
        self.firsts = {first for first, _ in self.literals} - {None}
        self.lasts = {last for _, last in self.literals} - {None}
        self.most = max((len(rl.parts) for rl in rules), default=1)
        self.corners: dict[tuple[str | None, str | None, int], list[tuple[int, Rule]]] = {}
        numbers = count()
        self.part_bits = [
            [1 << next(numbers) if isinstance(part, PatternPart) else 0 for part in rl.parts]
            for rl in rules
        ]
        self.edges = [
            None if len(bits) == 1 and bits[0] else (bits[0], bits[-1]) for bits in self.part_bits
        ]
        patterns = tuple(p.pattern for rl in rules for p in rl.parts if isinstance(p, PatternPart))
        self.parts = RootIndex(rules, patterns, alpha, _bit_set)

    def sweep(self, first: str, last: str, width: int) -> list[tuple[int, Rule]]:
        """The rules a span's first sweep visits, in declaration order."""
        key = (
            first if first in self.firsts else None,
            last if last in self.lasts else None,
            min(width, self.most),
        )
        got = self.corners.get(key)
        if got is None:
            first, last, width = key
            got = self.corners[key] = [
                entry  # shared with self.rules
                for entry, (a, b) in zip(self.rules, self.literals)
                if len(entry[1].parts) <= width and a in (None, first) and b in (None, last)
            ]
        return got


def chart_index(model: ModelBundle) -> _ChartIndex:
    """The model's ``_ChartIndex``, kept on its lexicon for its rule tuple and
    alpha, so a copy with other pragmas shares it."""
    lex, alpha, rules = model.lexicon, model.pragmas.alpha, model.rules
    return root_index(lex, "chart", alpha, rules, lambda: _ChartIndex(rules, lex, alpha))


def _text(part: Literal | PatternPart) -> str | None:
    return part.text if isinstance(part, Literal) else None


def _bit_set(numbers) -> int:
    return sum(1 << n for n in numbers)


def _may_admit(cell: dict, beam: int, score: float) -> bool:
    """False where add() would refuse an item of this score whatever its key:
    the cell is full and its lowest score is at least the item's, so a new
    key displaces nothing and a key the cell holds already scores as high."""
    return len(cell) < beam or min(it.score for it in cell.values()) < score


def _chart_parse(model: ModelBundle, tokens: list[str]):
    n = len(tokens)
    beam, tau = model.pragmas.beam, model.pragmas.tau
    frags: dict[tuple[int, int], dict[tuple, _Item]] = {
        (i, j): {} for i in range(n) for j in range(i + 1, n + 1)
    }
    ranked: dict[tuple[int, int], list[_Item]] = {}  # final cells, best score first
    # start -> (end, OR of its items' parts) of its non-empty final cells, by end
    ends: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # start (end) -> the OR of the masks of the non-empty final cells there
    opens, closes = [0] * n, [0] * (n + 1)
    serials = count()
    lex = model.lexicon
    sim = rule_node_sim(lex, model.pragmas.alpha)
    index = chart_index(model)
    aligned: dict[tuple[int, int, int], Alignment | None] = {}  # (rule, part, item serial)

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
        item.parts = index.parts.candidates(item.net.roots, lex)
        cell[key] = item
        return True

    surfaces = index.vocab.surfaces
    for i, token in enumerate(tokens):
        for concept in surfaces.get(token, ()):  # shift: token -> concept
            net = ConceptNetwork((keyed_node(concept),))
            add(i, i + 1, _Item(net, 1.0, [f"shift:{token}"]))

    MAX_UNARY = 2

    def rank(a: int, b: int) -> list[_Item]:
        got = ranked.get((a, b))
        if got is None:  # the span being filled: its cell still changes
            got = sorted(frags[(a, b)].values(), key=lambda it: -it.score)[:beam]
        return got

    def aligner(r: int, rule: Rule, same_span: bool):
        bits = index.part_bits[r]

        def align(k: int, it: _Item) -> Alignment | None:
            if same_span and it.unary >= MAX_UNARY:
                return None  # the cycle guard refuses a third unary step
            if not it.parts & bits[k]:
                return None  # the part's root cannot align with the item's
            key = (r, k, it.serial)
            if key not in aligned:
                aligned[key] = align_networks(rule.parts[k].pattern, it.net, sim, total=False)
            return aligned[key]

        return align

    def apply_rules_over(i: int, j: int) -> None:
        # Each (rule, items) combination is instantiated once per span; items
        # are named by serial, since an evicted item's id() can be reused. A
        # retry would rebuild the same item with the same score, and add()
        # would refuse it. After the first try, either its key holds a score
        # at least as high, or the cell was full with every score at least as
        # high. A full cell stays full and its minimum score never decreases,
        # and a key's score drops only when the key is evicted from a full
        # cell at that minimum.
        #
        # ``aligned`` is exact: an alignment depends only on the pattern, the
        # item's network and the lexicon. A combination with a part that does
        # not align, or one the cycle guard refuses, was never instantiated,
        # so _aligned_combos skips it. Later sweeps need only ``regrow``, the
        # one-part pattern rules: any other tiling of (i, j) covers cells
        # that were final before this span began, so all its combinations are
        # already in ``tried``, and skipping them changes no add() call.
        #
        # The first sweep visits only the rules the corner table lists for
        # the span, in declaration order. ``_tilings`` is empty for every
        # other rule: each part covers at least one token, a literal first
        # part must be tokens[i], and a literal last part must be
        # tokens[j - 1]. A part outside an item's ``parts`` would align with
        # it as None, so ``align`` answers None without aligning, and
        # ``_tilings`` passes over a final cell whose mask, the OR of its
        # items' ``parts``, lacks the part: that tiling would add no entry to
        # ``tried`` and make no add() call.
        #
        # Nor is a rule tiled whose ``_tilings`` would be empty at its two
        # ends. Spans are filled in width order, so ``opens[i]`` is the OR of
        # the masks of exactly the final cells (i, e) with e < j, and
        # ``closes[j]`` of exactly the final cells (a, j) with a > i: the
        # cells a rule of two or more parts could take for its first and
        # last parts. A pattern part at either end whose bit is outside that
        # OR has no cell, so the rule's tilings are empty. A one-part pattern
        # rule covers the cell being filled, which has no tiling while it is
        # empty; that is tested as the rule is reached, since an earlier rule
        # of the sweep may fill it. A skipped rule adds no ``tried`` or
        # ``aligned`` entry and makes no add() call.
        #
        # An item is built only if add() could admit it. Its score is known
        # from the alignments alone, so one below ``tau``, or one that a full
        # cell with no lower score would refuse whatever its key, is skipped
        # unbuilt. Serials are handed out only in add(), so none moves.
        cell = frags[(i, j)]
        tried: set[tuple] = set()
        opened, closed = opens[i], closes[j]
        sweep = index.sweep(tokens[i], tokens[j - 1], j - i)
        while sweep:
            changed = False
            for r, rule in sweep:
                edge = index.edges[r]
                if edge is None:
                    if not cell:
                        continue
                elif edge[0] & opened != edge[0] or edge[1] & closed != edge[1]:
                    continue
                for tiling in _tilings(rule, index.part_bits[r], tokens, frags, ends, i, j):
                    same_span = tiling == [(i, j)]
                    slots = [
                        [None] if isinstance(part, Literal) else rank(a, b)
                        for part, (a, b) in zip(rule.parts, tiling)
                    ]
                    align = aligner(r, rule, same_span)
                    for items, alignments in _aligned_combos(slots, align, beam * 4):
                        tried_key = (r, *(-1 if it is None else it.serial for it in items))
                        if tried_key in tried:
                            continue
                        tried.add(tried_key)
                        match_score = reverse_score(alignments)
                        if match_score < tau:
                            continue
                        picked = [it for it in items if it is not None]
                        score = prod(it.score for it in picked) * match_score
                        if not _may_admit(cell, beam, score):
                            continue
                        built = instantiate_reverse(rule, alignments)
                        trace = [t for it in picked for t in it.trace]
                        trace.append(f"rule:{rule.rule_id}@{i}:{j}")
                        unary = picked[0].unary + 1 if same_span and picked else 0
                        item = _Item(built, score, trace, unary)
                        if add(i, j, item):
                            changed = True
            sweep = index.regrow if changed else []
        ranked[(i, j)] = rank(i, j)
        if cell:
            mask = reduce(or_, [it.parts for it in cell.values()])
            ends[i].append((j, mask))
            opens[i] |= mask
            closes[j] |= mask

    for width in range(1, n + 1):
        for i in range(0, n - width + 1):
            apply_rules_over(i, i + width)
    return frags


def parse_text(model: ModelBundle, text: str) -> list[tuple[ConceptNetwork, float, list[str]]]:
    """Ranked (network, score, trace) parses of surface text, best first.

    With orthography on, a stripped terminal '?' or '!' prefers parses whose
    network carries the matching concept (falling back to all parses when
    none does, since punctuation may be rule-encoded only partially).
    """
    punct = None
    if model.pragmas.orthography:
        _, punct = strip_orthography(text)
    segmentations = segment(model, text)
    results: dict[tuple, tuple[ConceptNetwork, float, list[str]]] = {}
    best_partial: list[str] = []
    for tokens in segmentations:
        frags = _chart_parse(model, tokens)
        complete = frags[(0, len(tokens))]
        for key, item in complete.items():
            prev = results.get(key)
            if prev is None or item.score > prev[1]:
                results[key] = (item.net, item.score, item.trace)
        if not complete:
            spans = [
                (j - i, i, j)
                for (i, j), cell in frags.items()
                if cell
            ]
            if spans:
                w, i, j = max(spans)
                best_partial.append(" ".join(tokens[i:j]))
    checked = []
    why = ""  # the first anchor error, when a complete parse is dropped
    for net, score, trace in results.values():
        try:
            checked.append((canonicalize(net), score, trace))
        except MalformedNetworkError as exc:
            why = why or f": {exc}"
    if not checked:
        raise UnparseableTextError(
            f"no complete parse of {text!r}{why}", best_spans=sorted(set(best_partial))
        )
    # best score first, then by printed network: printed only to order a run
    # of equal scores
    ranked = []
    for _, run in groupby(sorted(checked, key=lambda r: -r[1]), key=lambda r: r[1]):
        run = list(run)
        if len(run) > 1:
            run.sort(key=lambda r: print_network(r[0]))
        ranked += run
    if punct in ("?", "!"):
        wanted = punct
        marked = [
            r
            for r in ranked
            if any(c.stemless and c.label == wanted for c in r[0].concepts())
        ]
        if marked:
            ranked = marked
    return ranked
