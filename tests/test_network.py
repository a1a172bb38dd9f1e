import copy
import itertools
import operator
import pickle
import random
import re

import pytest

from conspec.errors import MalformedNetworkError
from conspec.network import (
    Anchor,
    Concept,
    ConceptNetwork,
    Node,
    anchor_resolutions,
    canonical_key,
    canonicalize,
    equal,
    keyed_node,
    node_paths,
    resolve_anchors,
    to_json_dict,
)
from conspec.treeline import parse_network, print_network

from .gen import gen_network


def net(text: str) -> ConceptNetwork:
    return parse_network(text)


def all_specifier_orderings(network: ConceptNetwork) -> list[ConceptNetwork]:
    """Oracle helper: every network reachable by permuting specifier lists."""

    def orderings(node: Node) -> list[Node]:
        child_options = [orderings(s) for s in node.specifiers]
        out = []
        body_options = [[None]]
        if node.is_capsule:
            body_options = [
                [ConceptNetwork(roots)]
                for roots in itertools.product(*[orderings(r) for r in node.capsule.roots])
            ]
            body_options = [b for opts in body_options for b in opts]
            body_options = [body_options]
        for picks in itertools.product(*child_options):
            for perm in itertools.permutations(picks):
                for body in body_options[0]:
                    out.append(
                        Node(
                            concept=node.concept,
                            capsule=body if node.is_capsule else None,
                            anchor=node.anchor,
                            specifiers=tuple(perm),
                        )
                    )
        return out

    return [ConceptNetwork((r,)) for r in orderings(network.roots[0])]


class TestCanonicalize:
    def test_stemless_first_then_leaf_order(self):
        out = canonicalize(net("approach > [{agent} > Anne, {past}]"))
        assert print_network(out) == "approach > [{past}, {agent} > Anne]"

    def test_all_orderings_share_one_canonical_form(self):
        # oracle: brute-force enumeration of every specifier ordering
        base = net("approach > [{past}, {agent} > Anne, {theme} > (teacher > stern) > the, reluctantly]")
        expected = print_network(canonicalize(base))
        variants = all_specifier_orderings(base)
        assert len(variants) > 1
        for v in variants:
            assert print_network(canonicalize(v)) == expected

    def test_single_concept_unchanged(self):
        assert print_network(canonicalize(net("trust"))) == "trust"

    def test_reification_rows_share_canonical_network(self):
        a = net("{re} > [Fred, (plumber > the)] > {present}")
        b = net("{re} > [(plumber > the), Fred] > {present}")
        assert equal(a, b)
        assert print_network(canonicalize(a)) == print_network(canonicalize(b))

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(100):
            n = gen_network(rng)
            once = canonicalize(n)
            twice = canonicalize(once)
            assert print_network(once) == print_network(twice)

    def test_keyed_node_keeps_the_constructor_check(self):
        shell = ConceptNetwork((Node(concept=Concept("dog")),))
        for fields in ({}, {"concept": Concept("dog"), "capsule": shell}):
            with pytest.raises(MalformedNetworkError) as want:
                Node(**fields)
            with pytest.raises(MalformedNetworkError) as got:
                keyed_node(**fields)
            assert str(got.value) == str(want.value) == "node must hold exactly one of concept or capsule"

    def test_unresolvable_anchor_rejected(self):
        bad = ConceptNetwork(
            (Node(concept=Concept("agent", True), anchor=Anchor("up", 1)),)
        )
        with pytest.raises(MalformedNetworkError):
            canonicalize(bad)


class TestEqual:
    def test_identical_chains(self):
        assert equal(net("Anne > quiet > {past}"), net("Anne > quiet > {past}"))

    def test_specifier_order_ignored(self):
        assert equal(net("x > [a, b]"), net("x > [b, a]"))

    def test_encapsulation_grouping_significant(self):
        assert not equal(net("((clothing > silk) > all)"), net("(clothing > (silk > all))"))

    def test_equivalence_relation_on_generated_networks(self):
        rng = random.Random(11)
        for _ in range(150):
            a = gen_network(rng)
            perms = all_specifier_orderings(a) if sum(1 for _ in a.iter_nodes()) <= 5 else [a]
            b = rng.choice(perms)
            c = rng.choice(perms)
            assert equal(a, a)
            assert equal(a, b) == equal(b, a)
            if equal(a, b) and equal(b, c):
                assert equal(a, c)

    def test_canonical_key_matches_equal(self):
        rng = random.Random(13)
        for _ in range(100):
            a = gen_network(rng, max_nodes=5)
            b = gen_network(rng, max_nodes=5)
            assert (canonical_key(a) == canonical_key(b)) == equal(a, b)


class TestConceptHash:
    CASES = [
        ("trust", False, 1),
        ("past", True, 1),
        ("bank", False, 2),
        ("past cont.", True, 3),
    ]

    def test_hash_is_the_hash_of_the_fields(self):
        for label, stemless, sense in self.CASES:
            assert hash(Concept(label, stemless, sense)) == hash((label, stemless, sense))

    def test_replace_hashes_the_new_fields(self):
        bank = Concept("bank")
        other = Concept(*bank[:2], sense=2)  # bank's fields with sense replaced
        assert hash(other) == hash(("bank", False, 2))
        assert other != bank and other == Concept("bank", False, 2)
        assert {other: 1}[Concept("bank", False, 2)] == 1

    def test_non_concepts_compare_unequal(self):
        trust = Concept("trust")
        for other in ("trust", ("trust", False, 1), ["trust", False, 1], None):
            assert (trust == other) is False and (other == trust) is False
            assert (trust != other) is True and (other != trust) is True
        assert (trust == Concept("trust")) is True and (trust != Concept("trust")) is False
        assert {("trust", False, 1): 1}.get(trust) is None
        assert trust not in {("trust", False, 1)}

    def test_concepts_are_unordered(self):
        trust = Concept("trust")
        for other in (Concept("zebra"), ("zebra", False, 1), "zebra", None):
            for compare in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    compare(trust, other)
                with pytest.raises(TypeError):
                    compare(other, trust)
        with pytest.raises(TypeError):
            sorted([Concept("b"), Concept("a")])

    def test_fields_are_read_only(self):
        trust = Concept("trust")
        for name, value in (("label", "x"), ("stemless", True), ("sense", 2), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(trust, name, value)
        assert trust == Concept("trust") and not hasattr(trust, "__dict__")

    def test_fields_repr_and_pickling_see_only_the_fields(self):
        past = Concept("past", True)
        assert tuple(past) == ("past", True, 1) and len(past) == 3
        assert (past.label, past.stemless, past.sense) == ("past", True, 1)
        assert Concept.__slots__ == ()
        assert repr(past) == "Concept({past})" and str(past) == "Concept({past})"
        assert Concept("bank", False, 2).__reduce__() == (Concept, ("bank", False, 2))

    @pytest.mark.parametrize(
        "copy_of",
        [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_are_equal_concepts(self, copy_of):
        for fields in self.CASES:
            got = copy_of(Concept(*fields))
            assert type(got) is Concept and got == Concept(*fields)
            assert hash(got) == hash(fields)
        # a node's concept is copied with the node
        node = copy_of(Node(concept=Concept("past", True)))
        assert node.concept == Concept("past", True)

    def test_label_errors_keep_their_messages(self):
        with pytest.raises(MalformedNetworkError, match="^concept label must be nonempty$"):
            Concept("")
        for label, bad in (("a>b", ">"), ("x{y}", "{"), ("bank#2", "#"), ("[a,b]", ","), ("a'b", "'")):
            message = f"concept label {label!r} contains structural character {bad!r}"
            with pytest.raises(MalformedNetworkError, match=f"^{re.escape(message)}$"):
                Concept(label)

    def test_concepts_parsed_apart_find_each_other(self):
        ours = net("approach > [{past}, {agent} > Anne, bank#2, (teacher > stern) > the]")
        theirs = net("(bank#2 > the) > [{past}, approach > {agent} > Anne, stern > teacher]")
        table = {c: c.text() for c in ours.concepts()}
        found = [table[c] for c in theirs.concepts()]
        assert found == [c.text() for c in theirs.concepts()]
        assert all(a is not b for a in ours.concepts() for b in theirs.concepts())


class TestResolveAnchors:
    def test_relative_clause_agent_resolves_to_dog(self):
        n = net(
            "bark > [{past}, {agent} > dog > (eat > [{past}, >>{agent},"
            " {theme} > (butter > peanut) > the]), happily]"
        )
        resolved = resolve_anchors(n)
        pairs = anchor_resolutions(resolved)
        assert pairs == [
            ((("r", 0), ("s", 1), ("s", 0), ("s", 0), ("b", 0), ("s", 1)), (("r", 0), ("s", 1), ("s", 0)))
        ]
        # the target really is the dog node, shared by reference
        paths = node_paths(resolved)
        anchored = [x for x in resolved.iter_nodes() if x.ref is not None][0]
        assert anchored.ref.concept.label == "dog"
        assert paths[id(anchored.ref)] == (("r", 0), ("s", 1), ("s", 0))

    def test_possessive_down_and_up(self):
        n = net("(dog > (have > [<<{agent}, >>{theme}]) > John) > hungry > {present}")
        resolved = resolve_anchors(n)
        pairs = dict(anchor_resolutions(resolved))
        down_path = (("r", 0), ("b", 0), ("s", 0), ("b", 0), ("s", 0))
        up_path = (("r", 0), ("b", 0), ("s", 0), ("b", 0), ("s", 1))
        assert pairs[down_path] == (("r", 0), ("b", 0), ("s", 0), ("s", 0))  # John
        assert pairs[up_path] == (("r", 0), ("b", 0))  # dog

    def test_double_up_through_two_boundaries(self):
        n = net("Mary > (>>(sing > [>>{agent}, beautiful]) > a) > {present}")
        resolved = resolve_anchors(n)
        pairs = anchor_resolutions(resolved)
        agent_path = (("r", 0), ("s", 0), ("b", 0), ("b", 0), ("s", 0))
        assert (agent_path, (("r", 0),)) in pairs  # inner agent -> Mary
        anchored = [x for x in resolved.iter_nodes() if x.ref is not None]
        assert len(anchored) == 1
        assert anchored[0].ref.concept.label == "Mary"

    def test_concept_multiset_preserved(self):
        rng = random.Random(17)
        for _ in range(200):
            n = gen_network(rng)
            resolved = resolve_anchors(n)
            before = sorted(c.text() for c in n.concepts())
            after = sorted(c.text() for c in resolved.concepts())
            assert before == after

    def test_top_level_anchor_is_malformed(self):
        bad = ConceptNetwork((Node(concept=Concept("x"), anchor=Anchor("up", 1)),))
        with pytest.raises(MalformedNetworkError):
            resolve_anchors(bad)

    def test_ambiguous_down_anchor_rejected(self):
        inner = Node(concept=Concept("agent", True), anchor=Anchor("down", 1))
        capsule = Node(
            capsule=ConceptNetwork((Node(concept=Concept("have"), specifiers=(inner,)),)),
            specifiers=(Node(concept=Concept("a")), Node(concept=Concept("b"))),
        )
        bad = ConceptNetwork((Node(concept=Concept("dog"), specifiers=(capsule,)),))
        with pytest.raises(MalformedNetworkError):
            resolve_anchors(bad)

    def test_returns_fresh_nodes_and_leaves_input_unwired(self):
        n = net("dog > (eat > [{past}, >>{agent}])")
        resolved = resolve_anchors(n)
        assert equal(resolved, n)
        assert not {id(x) for x in n.iter_nodes()} & {id(x) for x in resolved.iter_nodes()}
        assert all(x.ref is None for x in n.iter_nodes())
        assert any(x.ref is not None for x in resolved.iter_nodes())


class TestJsonExport:
    def test_shape_and_counts(self):
        n = net("approach > [{past}, {agent} > Anne]")
        d = to_json_dict(n)
        root = d["roots"][0]
        assert root["label"] == "approach"
        assert root["stemless"] is False
        assert {s["label"] for s in root["specifiers"]} == {"past", "agent"}

    def test_resolved_refs_exported_as_paths(self):
        n = resolve_anchors(net("dog > (eat > [{past}, >>{agent}])"))
        d = to_json_dict(n)
        eat = d["roots"][0]["specifiers"][0]["capsule"]["roots"][0]
        agent = [s for s in eat["specifiers"] if s["label"] == "agent"][0]
        assert agent["anchor"] == {"dir": "up", "depth": 1}
        assert agent["ref"] == [["r", 0]]
