"""Surface realization: rewrite a network into ranked token strings.

Rewriting proceeds in parallel sweeps: every pending network part of a
hypothesis is rewritten once per step (rule application for structured
fragments, label substitution for bare concepts), duplicating the hypothesis
wherever several matches apply. When all parts are literals they are joined
through the affix folder. Hypothesis score is the product of its match
scores, so any analogical step keeps a derivation strictly below an exact
one.

The engine emits lowercase-as-written, unpunctuated token strings;
capitalization and terminal punctuation live in the optional orthography
postprocessor (pragma `set orthography on`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product as iter_product

from .errors import AffixError, UnrealizableFragmentError
from .model import ModelBundle
from .network import ConceptNetwork, canonical_key, canonicalize
from .rules import match_rules, realize_parts
from .treeline import print_network

Part = str | ConceptNetwork


@dataclass
class Hypothesis:
    parts: list[Part]
    score: float
    trace: list[list[str]] = field(default_factory=list)

    def pending(self) -> list[int]:
        return [i for i, p in enumerate(self.parts) if isinstance(p, ConceptNetwork)]

    def key(self) -> tuple:
        return tuple(
            p if isinstance(p, str) else ("net",) + canonical_key(p) for p in self.parts
        )


def join_affixes(tokens: list[str]) -> str:
    """Fold affix-marked literals into words, left to right.

    '+x' appends to the previous word, '-x' strips a suffix from it, 'x+'
    glues onto the next word. Plain tokens join with single spaces.
    """
    if not tokens:
        raise AffixError("no tokens to join")
    words: list[str] = []
    prefix = ""
    for tok in tokens:
        if len(tok) > 1 and tok.startswith("+"):
            if prefix:
                raise AffixError(f"prefix {prefix + '+'!r} not attached before {tok!r}")
            if not words:
                raise AffixError(f"{tok!r} has no preceding token")
            words[-1] += tok[1:]
        elif len(tok) > 1 and tok.startswith("-"):
            if prefix:
                raise AffixError(f"prefix {prefix + '+'!r} not attached before {tok!r}")
            if not words:
                raise AffixError(f"{tok!r} has no preceding token")
            if not words[-1].endswith(tok[1:]):
                raise AffixError(f"cannot strip {tok[1:]!r} from {words[-1]!r}")
            words[-1] = words[-1][: -len(tok[1:])]
        elif len(tok) > 1 and tok.endswith("+"):
            prefix += tok[:-1]
        else:
            words.append(prefix + tok)
            prefix = ""
    if prefix:
        raise AffixError(f"prefix {prefix + '+'!r} has no following token")
    return " ".join(words)


def apply_orthography(text: str, net: ConceptNetwork) -> str:
    """Sentence-initial capital plus terminal punctuation from {?}/{!}."""
    for i, ch in enumerate(text):
        if ch.isalpha():
            text = text[:i] + ch.upper() + text[i + 1 :]
            break
    labels = {(c.label, c.stemless) for c in net.concepts()}
    if ("?", True) in labels:
        return text + "?"
    if ("!", True) in labels:
        return text + "!"
    return text + "."


def strip_orthography(text: str) -> tuple[str, str | None]:
    """Inverse of apply_orthography: (core text, terminal punctuation or None)."""
    text = text.strip()
    punct = None
    if text and text[-1] in ".?!":
        punct = text[-1]
        text = text[:-1].rstrip()
    return text, punct


# A trace step holds one entry per rewritten slot, ``label:<label>@<slot>`` or
# ``rule:<id>@<slot>``, then a ``prune:<count>`` entry if the beam dropped
# hypotheses; the last step is ``join``.
_RULE = "rule:"


def trace_rule_ids(trace: list[list[str]]) -> list[str]:
    """The ids of the rules a ``realize`` trace applied, in trace order."""
    return [
        entry[len(_RULE) : entry.rindex("@")]
        for step in trace
        for entry in step
        if entry.startswith(_RULE)
    ]


def _rewrite_options(model: ModelBundle, fragment: ConceptNetwork):
    """(score, trace label, replacement parts) options for one fragment."""
    options: list[tuple[float, str, list[Part]]] = []
    root = fragment.roots[0]
    bare = len(fragment.roots) == 1 and not root.specifiers and not root.is_capsule
    if bare and not root.concept.stemless:
        options.append((1.0, f"label:{root.concept.label}", [root.concept.label]))
    for match in match_rules(
        model.rules,
        model.lexicon,
        fragment,
        alpha=model.pragmas.alpha,
        tau=model.pragmas.tau,
    ):
        parts = realize_parts(match)
        options.append((match.score, f"{_RULE}{match.rule.rule_id}", list(parts)))
    return options


def realize(model: ModelBundle, net: ConceptNetwork) -> list[tuple[str, float, list[list[str]]]]:
    """Ranked (text, score, trace) realizations; best first.

    Ties rank shorter output first, then lexicographic. Raises
    UnrealizableFragmentError only when every hypothesis got stuck.

    A fragment's options are computed once per call. They are memoized by
    the fragment's ordered print, not its canonical key, because the order
    of tied options follows the order of its children.
    """
    prepared = canonicalize(net)
    beam = model.pragmas.beam
    options_of: dict[str, list[tuple[float, str, list[Part]]]] = {}
    hypotheses = [Hypothesis([prepared], 1.0)]
    best_seen: dict[tuple, float] = {hypotheses[0].key(): 1.0}
    results: dict[str, tuple[str, float, list[list[str]]]] = {}
    stuck: list[str] = []
    for _ in range(64):
        pending: list[tuple[Hypothesis, list[int]]] = []  # (hypothesis, its pending slots)
        for h in hypotheses:
            slots = h.pending()
            if slots:
                pending.append((h, slots))
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
        for h, slots in pending:
            per_slot = []
            dead = False
            for i in slots:
                printed = print_network(h.parts[i])
                options = options_of.get(printed)
                if options is None:
                    options = options_of[printed] = _rewrite_options(model, h.parts[i])
                if not options:
                    stuck.append(printed)
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
    if not results:
        raise UnrealizableFragmentError(stuck[0] if stuck else print_network(net))
    ranked = sorted(results.values(), key=lambda r: (-r[1], len(r[0]), r[0]))
    return ranked
