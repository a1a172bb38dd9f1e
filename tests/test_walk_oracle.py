"""``ConceptNetwork.iter_nodes`` and ``concepts`` against the walk they replaced.

``oracle_nodes`` keeps the generator that ``iter_nodes`` was: an explicit
stack that yields a node, then pushes its capsule body's roots and then its
specifiers, each list reversed. Both walks must give the same nodes (by
identity) in the same order, and ``concepts`` the concepts of those nodes,
on every network of the shipped model, pair and corpus files (as parsed, as
loaded and as canonical copies), and on seeded ``tests/gen.py`` networks with
capsules, anchors, several roots and capsule bodies of several roots.
``tests/test_treeline.py`` runs the same check on networks nested as deep as
the reader allows.
"""

from __future__ import annotations

import random
from importlib import resources

from conspec.model import load_corpus, load_model
from conspec.network import ConceptNetwork, Node, canonical_node
from conspec.rules import PatternPart
from conspec.transfer import load_pair
from conspec.treeline import parse_document

from .gen import gen_network

DATA = resources.files("conspec.data")


def oracle_nodes(net: ConceptNetwork):
    """All nodes, depth-first, descending into capsule bodies."""
    stack = list(reversed(net.roots))
    while stack:
        node = stack.pop()
        yield node
        if node.is_capsule:
            stack.extend(reversed(node.capsule.roots))
        stack.extend(reversed(node.specifiers))


def assert_walks_match(net: ConceptNetwork) -> int:
    """Asserts both walks agree on ``net``; returns its node count."""
    want = list(oracle_nodes(net))
    got = net.iter_nodes()
    assert list(map(id, got)) == list(map(id, want))
    assert net.concepts() == [n.concept for n in want if n.concept is not None]
    return len(want)


def statement_networks(text: str) -> list[ConceptNetwork]:
    """Every network a model file's statements hold, rule patterns included."""
    out = []
    for stmt in parse_document(text).statements:
        for value in vars(stmt).values():
            if isinstance(value, ConceptNetwork):
                out.append(value)
            elif isinstance(value, list):  # a rule's rhs: ('lit', str) | ('pat', net)
                out += [v for kind, v in value if kind == "pat"]
    return out


def shipped_networks() -> list[ConceptNetwork]:
    nets = []
    for name in ("english.cn", "sov.cn"):
        nets += statement_networks((DATA / name).read_text(encoding="utf-8"))
        model = load_model(str(DATA / name))
        for rule in model.rules:
            nets.append(rule.lhs)
            nets += [p.pattern for p in rule.parts if isinstance(p, PatternPart)]
        nets += [d.body for d in model.lexicon.definitions.values()]
    pair = load_pair(str(DATA / "english_sov.pair"))
    nets += [side for rule in pair.transfer_rules for side in (rule.src, rule.dst)]
    for name in ("demo_corpus.tsv", "translations.tsv"):
        nets += [net for _, net, _ in load_corpus(str(DATA / name))]
    # canonical copies too: keyed nodes, specifiers in canonical order
    return nets + [ConceptNetwork(tuple(map(canonical_node, net.roots))) for net in nets]


def test_shipped_networks_walk_as_the_oracle():
    nets = shipped_networks()
    sizes = [assert_walks_match(net) for net in nets]
    assert len(nets) > 300 and max(sizes) >= 10
    assert any(n.is_capsule for net in nets for n in net.iter_nodes())


def several_roots(rng: random.Random) -> tuple[Node, ...]:
    return tuple(r for _ in range(rng.randint(1, 3)) for r in gen_network(rng, max_nodes=8).roots)


def test_seeded_networks_walk_as_the_oracle():
    rng = random.Random(28)
    capsules = anchors = multi_root = 0
    for i in range(600):
        roots = several_roots(rng)
        if i % 2:  # a capsule of several body roots, specified by more trees
            roots = (Node(capsule=ConceptNetwork(roots), specifiers=several_roots(rng)),)
        net = ConceptNetwork(roots)
        assert_walks_match(net)
        nodes = net.iter_nodes()
        capsules += any(n.is_capsule and len(n.capsule.roots) > 1 for n in nodes)
        anchors += any(n.anchor is not None for n in nodes)
        multi_root += len(net.roots) > 1
    assert capsules > 100 and anchors > 25 and multi_root > 100, (capsules, anchors, multi_root)
