"""Parsing: generation run in reverse.

segment() recovers token sequences (known surface forms plus affix literals
drawn from rule right-hand sides) that re-join to the input exactly.
parse_text() then runs a bottom-up chart over each segmentation: a rule whose
part sequence tiles a span rebuilds its pattern around the matched fragments,
exactly or analogically. Each rule part is aligned with each chart item once.
A span's first sweep visits only the rules a corner filter admits: at most as
many parts as the span has tokens, and any literal first or last part equal to
the span's first or last token; any other rule has no tiling of the span.
After the first sweep only the one-part pattern rules are tried on the span
again. apply_rules_over says why all three are exact. Complete parses are
canonicalized, deduplicated, and ranked by derivation score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, islice, product as iter_product
from math import prod

from .errors import UnparseableTextError
from .lexicon import Lexicon
from .model import ModelBundle
from .network import ConceptNetwork, Node, canonical_key, canonicalize
from .realizer import join_affixes, strip_orthography
from .rules import Literal, PatternPart, Rule, instantiate_reverse
from .similarity import Alignment, align_networks, rule_node_sim
from .treeline import print_network

# Most affix ops undone on one word; deeper splits are not tried.
MAX_AFFIXES_PER_WORD = 3


@dataclass
class Vocabulary:
    surfaces: dict[str, list] = field(default_factory=dict)  # surface -> [Concept]
    literals: set[str] = field(default_factory=set)  # every rule literal
    affixes: set[str] = field(default_factory=set)  # marker-carrying literals
    max_words: int = 1  # words in the longest surface form

    def knows(self, token: str) -> bool:
        return token in self.surfaces or token in self.literals


def build_vocabulary(rules: tuple[Rule, ...], lexicon: Lexicon) -> Vocabulary:
    vocab = Vocabulary()
    concepts = set()
    for rule in rules:
        for part in rule.parts:
            if isinstance(part, Literal):
                vocab.literals.add(part.text)
                t = part.text
                if (t.startswith("+") or t.startswith("-") or t.endswith("+")) and len(t) > 1:
                    vocab.affixes.add(t)
        for node in rule.lhs.iter_nodes():
            if node.concept is not None:
                concepts.add(node.concept)
    for name in lexicon.definitions:
        concepts.add(name)
    for concept in concepts:
        if concept.stemless:
            continue
        vocab.surfaces.setdefault(concept.label, []).append(concept)
        vocab.max_words = max(vocab.max_words, concept.label.count(" ") + 1)
    return vocab


def _decompose(word: str, vocab: Vocabulary) -> list[list[str]]:
    """Affix splits of one word: [prefix, ..., stem, suffix, ...] sequences
    that re-join to it."""
    out: list[list[str]] = []
    seen: set[tuple[str, int]] = set()

    def undo(cur: str, pre: list[str], post: list[str], depth: int) -> None:
        if depth > MAX_AFFIXES_PER_WORD or (cur, depth) in seen:
            return
        seen.add((cur, depth))
        if depth and cur in vocab.surfaces:
            out.append(pre + [cur] + post)
        for affix in vocab.affixes:
            if affix.startswith("+"):
                tail = affix[1:]
                if cur.endswith(tail) and len(cur) > len(tail):
                    undo(cur[: -len(tail)], pre, [affix] + post, depth + 1)
            elif affix.startswith("-"):
                undo(cur + affix[1:], pre, [affix] + post, depth + 1)
            elif affix.endswith("+"):
                head = affix[:-1]
                if cur.startswith(head) and len(cur) > len(head):
                    undo(cur[len(head) :], pre + [affix], post, depth + 1)

    undo(word, [], [], 0)
    return [seq for seq in out if join_affixes(seq) == word]


def segment(model: ModelBundle, text: str) -> list[list[str]]:
    """All token sequences covering the text; whitespace-only splits first.

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
    vocab = model.vocab

    table: dict[int, list[tuple[list[str], int]]] = {len(words): [([], 0)]}

    def seg(i: int) -> list[tuple[list[str], int]]:
        if i in table:
            return table[i]
        options: list[tuple[list[str], int]] = []
        for j in range(min(len(words), i + vocab.max_words), i, -1):
            token = " ".join(words[i:j])
            if vocab.knows(token):
                for rest, splits in seg(j):
                    options.append(([token] + rest, splits))
        for decomp in _decompose(words[i], vocab):
            for rest, splits in seg(i + 1):
                options.append((decomp + rest, splits + 1))
        table[i] = options
        return options

    results = seg(0)
    if not results:
        prefix = []
        for w in words:
            if not vocab.knows(w) and not _decompose(w, vocab):
                break
            prefix.append(w)
        raise UnparseableTextError(
            f"no segmentation of {text!r}; longest known prefix: {' '.join(prefix)!r}",
            best_spans=[" ".join(prefix)] if prefix else [],
        )
    ordered = sorted(results, key=lambda r: (r[1], len(r[0])))
    out, seen = [], set()
    for tokens, _ in ordered:
        key = tuple(tokens)
        if key not in seen:
            seen.add(key)
            out.append(tokens)
    return out[:32]


@dataclass
class _Item:
    net: ConceptNetwork
    score: float
    trace: list[str]
    unary: int = 0  # consecutive same-span rule applications (cycle guard)
    serial: int = -1  # order of entry into the chart; names the item in tried and aligned keys


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


def _chart_parse(model: ModelBundle, tokens: list[str]):
    n = len(tokens)
    beam = model.pragmas.beam
    frags: dict[tuple[int, int], dict[tuple, _Item]] = {
        (i, j): {} for i in range(n) for j in range(i + 1, n + 1)
    }
    serials = count()
    sim = rule_node_sim(model.lexicon, model.pragmas.alpha)
    aligned: dict[tuple[int, int, int], Alignment | None] = {}  # (rule, part, item serial)
    rules = list(enumerate(model.rules))
    regrow = [(r, rl) for r, rl in rules if [type(p) for p in rl.parts] == [PatternPart]]

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

    def align_parts(r: int, rule, items) -> list[Alignment | None] | None:
        """Each part's alignment with its item, or None once a part has none."""
        out: list[Alignment | None] = []
        for k, it in enumerate(items):
            if it is not None:
                key = (r, k, it.serial)
                if key not in aligned:
                    aligned[key] = align_networks(rule.parts[k].pattern, it.net, sim, total=False)
                if aligned[key] is None:
                    return None
            out.append(None if it is None else aligned[key])
        return out

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
        # item's network and the lexicon. Later sweeps need only ``regrow``,
        # the one-part pattern rules: any other tiling of (i, j) covers cells
        # that were final before this span began, so all its combinations are
        # already in ``tried``, and skipping them changes no add() call.
        #
        # The first sweep visits only the rules the corner filter admits, in
        # declaration order. ``_tilings`` is empty for every other rule: each
        # part covers at least one token, a literal first part must be
        # tokens[i], and a literal last part must be tokens[j - 1].
        first, last = tokens[i], tokens[j - 1]
        tried: set[tuple] = set()
        sweep = [
            (r, rule)
            for r, rule in rules
            if len(rule.parts) <= j - i
            and rule.first_literal in (None, first)
            and rule.last_literal in (None, last)
        ]
        while sweep:
            changed = False
            for r, rule in sweep:
                for tiling in _tilings(rule, tokens, frags, i, j):
                    same_span = tiling == [(i, j)]
                    for items in _part_combos(rule, tiling):
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
                        alignments = align_parts(r, rule, items)
                        if alignments is None:
                            continue
                        built, match_score = instantiate_reverse(rule, alignments)
                        if match_score < model.pragmas.tau:
                            continue
                        trace = [t for it in picked for t in it.trace]
                        trace.append(f"rule:{rule.rule_id}@{i}:{j}")
                        score = prod(it.score for it in picked) * match_score
                        item = _Item(canonicalize(built), score, trace, unary)
                        if add(i, j, item):
                            changed = True
            sweep = regrow if changed else []

    def _part_combos(rule, tiling):
        slots: list[list[_Item | None]] = []
        for part, (a, b) in zip(rule.parts, tiling):
            if isinstance(part, Literal):
                slots.append([None])
            else:
                ranked = sorted(frags[(a, b)].values(), key=lambda it: -it.score)
                slots.append(ranked[:beam])
        return islice(iter_product(*slots), beam * 4)

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
        n = len(tokens)
        complete = frags[(0, n)] if n else {}
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
    if not results:
        raise UnparseableTextError(
            f"no complete parse of {text!r}", best_spans=sorted(set(best_partial))
        )
    ranked = sorted(
        results.values(), key=lambda r: (-r[1], print_network(r[0]))
    )
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
