"""The four benchmark workloads: inputs, one op, and an independent check.

Each workload is built from the checkout's shipped data and a seed. The seed
only drives fanout_sim's pair generation (pass order is shuffled by the
caller); the engine sees nothing but the generated inputs. ``run`` is the
timed op, ``check`` compares its output with a reference that does not come
from the code path under test, and ``ranked`` gives the lines the byte-identity
digest is taken over.
"""

from __future__ import annotations

import random
from pathlib import Path

import conspec as cs
from oracle import brute_force_sim


def _rows(path: Path) -> list[list[str]]:
    text = path.read_text(encoding="utf-8")
    return [l.split("\t") for l in text.splitlines() if l.strip() and not l.startswith("#")]


def _corpus_inputs(data: Path):
    """(surface, canonical network) per demo_corpus.tsv row."""
    return [(surface, cs.canonicalize(net)) for surface, net, _ in cs.load_corpus(data / "demo_corpus.tsv")]


def _realized_lines(outs):
    return [f"{text}\t{score!r}" for text, score, _ in outs]


class Workload:
    inputs: list

    def reference(self) -> dict:
        """Compute references the checks need, after set-up; returns record
        fields, with ``reference_ok`` false when the inputs are unfit."""
        return {"reference_ok": True}


class CorpusRoundtrip(Workload):
    """parse_text(surface) then realize(network) per demo_corpus.tsv row, on a
    model loaded once. Passes when the expected network is among the top 3
    parses and the surface among the top 3 realizations (`conspec check`)."""

    def __init__(self, data: Path, seed: int):
        self.model = cs.load_model_text((data / "english.cn").read_text(encoding="utf-8"))
        self.inputs = _corpus_inputs(data)

    def run(self, item):
        surface, net = item
        return cs.parse_text(self.model, surface), cs.realize(self.model, net)

    def check(self, i, out) -> bool:
        surface, net = self.inputs[i]
        parses, outs = out
        return any(cs.equal(n, net) for n, _, _ in parses[:3]) and surface in [
            s for s, _, _ in outs[:3]
        ]

    def ranked(self, out):
        parses, outs = out
        return [f"{cs.print_network(n)}\t{score!r}" for n, score, _ in parses] + _realized_lines(outs)


class TranslatePair(Workload):
    """translate(pair, english) per translations.tsv row through english_sov.pair.
    Passes when the top-1 output equals the row's third column."""

    def __init__(self, data: Path, seed: int):
        path = data / "english_sov.pair"
        self.pair = cs.load_pair_text(path.read_text(encoding="utf-8"), str(path), data)
        self.inputs = [(english, sov) for english, _receptor, sov in _rows(data / "translations.tsv")]

    def run(self, item):
        return cs.translate(self.pair, item[0])

    def check(self, i, out) -> bool:
        return bool(out) and out[0][0] == self.inputs[i][1]

    def ranked(self, out):
        return _realized_lines(out)


class ColdRealize(Workload):
    """load_model_text(english.cn) then one realize of a demo_corpus.tsv network,
    as each `conspec realize` invocation does. Passes when the row's surface is
    among the top 3 realizations."""

    def __init__(self, data: Path, seed: int):
        self.text = (data / "english.cn").read_text(encoding="utf-8")
        self.inputs = _corpus_inputs(data)

    def run(self, item):
        return cs.realize(cs.load_model_text(self.text), item[1])

    def check(self, i, out) -> bool:
        return self.inputs[i][0] in [s for s, _, _ in out[:3]]

    def ranked(self, out):
        return _realized_lines(out)


class FanoutSim(Workload):
    """network_sim(lexicon, a, b) on seeded sibling pairs. ``a`` is a verb root
    with k specifiers (k = 2..8, PAIRS_PER_K pairs each) whose categories
    follow CATEGORY_CYCLE, so a pair's cost depends on k alone; ``b`` shuffles
    a's specifiers and relabels each concept, root included, to a random
    concept of its category half of the time. Passes when the score equals
    the exhaustive permutation oracle within 1e-12."""

    KS = range(2, 9)
    PAIRS_PER_K = 4
    CATEGORY_CYCLE = ("noun", "adj", "noun", "adv", "det", "noun", "prep", "modal")
    TOLERANCE = 1e-12

    def __init__(self, data: Path, seed: int):
        self.lex = cs.load_model_text((data / "english.cn").read_text(encoding="utf-8")).lexicon
        by_category: dict[str, list[cs.Concept]] = {}
        for name, definition in self.lex.definitions.items():
            head = definition.body.roots[0]
            if not name.stemless and head.concept is not None and head.concept.stemless:
                by_category.setdefault(head.concept.label, []).append(name)
        category = {c: label for label, members in by_category.items() for c in members}
        rng = random.Random(seed)

        def relabel(concept):
            return rng.choice(by_category[category[concept]]) if rng.random() < 0.5 else concept

        self.inputs = []
        for k in self.KS:
            for _ in range(self.PAIRS_PER_K):
                root = rng.choice(by_category["verb"])
                specs: list[cs.Concept] = []
                for label in self.CATEGORY_CYCLE[:k]:
                    specs.append(rng.choice([c for c in by_category[label] if c not in specs]))
                a = cs.ConceptNetwork((cs.Node(concept=root, specifiers=tuple(cs.Node(concept=c) for c in specs)),))
                b_specs = [cs.Node(concept=relabel(c)) for c in specs]
                rng.shuffle(b_specs)
                b = cs.ConceptNetwork((cs.Node(concept=relabel(root), specifiers=tuple(b_specs)),))
                self.inputs.append((a, b))
        self.expected: list[float] = []

    def reference(self) -> dict:
        # Half the pairs must score strictly inside (0, 1), or the assignment
        # search is not really exercised.
        self.expected = [brute_force_sim(self.lex, a, b) for a, b in self.inputs]
        share = sum(0.0 < s < 1.0 for s in self.expected) / len(self.expected)
        return {"fractional_share": share, "reference_ok": share >= 0.5}

    def run(self, item):
        return cs.network_sim(self.lex, item[0], item[1])

    def check(self, i, out) -> bool:
        return abs(out[0] - self.expected[i]) <= self.TOLERANCE

    def ranked(self, out):
        return [repr(out[0])]


WORKLOADS = {
    "corpus_roundtrip": CorpusRoundtrip,
    "translate_pair": TranslatePair,
    "fanout_sim": FanoutSim,
    "cold_realize": ColdRealize,
}
