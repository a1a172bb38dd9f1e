import random
import time
from importlib import resources

import pytest

from conspec.errors import ConspecError, ModelLoadError
from conspec.lexicon import (
    DEFAULT_STEMLESS,
    Definition,
    Lexicon,
    ancestors,
    expand,
    is_a,
    lint_networks,
    undeclared_stemless,
)
from conspec.model import load_model, load_model_text
from conspec.network import Concept, equal
from conspec.similarity import concept_sim
from conspec.treeline import MAX_NESTING, parse_document, parse_network, print_network


def make_lexicon(pairs: dict[str, str]) -> Lexicon:
    defs = {}
    for name, body in pairs.items():
        c = Concept(name.strip("{}"), name.startswith("{"))
        defs[c] = Definition(c, parse_network(body))
    return Lexicon(definitions=defs)


@pytest.fixture
def anne_lex() -> Lexicon:
    return make_lexicon(
        {
            "Anne": "girl > imaginative",
            "girl": "human > [young, female]",
            "trust": "{verb}",
            "jump": "{verb}",
            "pitchfork": "fork > [(move > [>>{theme}, {plural}]) > hay]",
            "fork": "tool > prong > {plural}",
        }
    )


class TestExpand:
    def test_depth_one(self, anne_lex):
        out = expand(anne_lex, Concept("Anne"), 1)
        assert print_network(out) == "girl > imaginative"

    def test_depth_two_encapsulates_with_head(self, anne_lex):
        # hand-composed: the girl definition slots under imaginative as a capsule
        out = expand(anne_lex, Concept("Anne"), 2)
        assert equal(out, parse_network("(human > [young, female]) > imaginative"))
        assert out.roots[0].is_capsule
        assert out.roots[0].head_concept().label == "human"

    def test_primitive_fixed_point(self, anne_lex):
        for depth in (0, 1, 5):
            out = expand(anne_lex, Concept("human"), depth)
            assert print_network(out) == "human"

    def test_depth_zero_no_expansion(self, anne_lex):
        assert print_network(expand(anne_lex, Concept("Anne"), 0)) == "Anne"

    @staticmethod
    def chain_lexicon(depth: int) -> Lexicon:
        # a0 = {verb}, aN = aN-1 > xN: expanding aD D times nests D + 1 levels
        pairs = {"a0": "{verb}"} | {f"a{n}": f"a{n - 1} > x{n}" for n in range(1, depth + 1)}
        return make_lexicon(pairs)

    def test_deepest_expansion_round_trips(self):
        depth = MAX_NESTING - 1
        out = expand(self.chain_lexicon(depth), Concept(f"a{depth}"), depth)
        assert equal(parse_network(print_network(out)), out)

    @pytest.mark.parametrize("depth", [MAX_NESTING, 600])
    def test_too_deep_expansion_is_an_error(self, depth):
        with pytest.raises(ConspecError, match=f"deeper than {MAX_NESTING} levels"):
            expand(self.chain_lexicon(depth), Concept(f"a{depth}"), depth)

    def test_have_macro_merges_in_place(self):
        lex = Lexicon()
        net = parse_network("dog > {have} > John")
        expanded = lex_expand_network(lex, net)
        assert equal(expanded, parse_network("dog > (have > [<<{agent}, >>{theme}]) > John"))


def lex_expand_network(lex, net):
    from conspec.lexicon import _substitute

    from conspec.network import ConceptNetwork

    return ConceptNetwork(tuple(n for r in net.roots for n in _substitute(r, lex)))


class TestAncestors:
    def test_anne_chain(self, anne_lex):
        got = {c.label for c in ancestors(anne_lex, Concept("Anne"))}
        assert got == {"Anne", "girl", "human"}

    def test_pitchfork_inherits_tool(self, anne_lex):
        got = {c.label for c in ancestors(anne_lex, Concept("pitchfork"))}
        assert "tool" in got

    def test_undefined_primitive(self, anne_lex):
        assert ancestors(anne_lex, Concept("x")) == {Concept("x")}

    def test_monotone_under_unrelated_additions(self, anne_lex):
        before = ancestors(anne_lex, Concept("Anne"))
        bigger = make_lexicon(
            {
                "Anne": "girl > imaginative",
                "girl": "human > [young, female]",
                "swallow": "bird > fast",
            }
        )
        assert before <= ancestors(bigger, Concept("Anne"))


def shipped_lexicons() -> list[tuple[Lexicon, list[Concept]]]:
    """(lexicon, every concept its model file uses) for english.cn and sov.cn."""
    out = []
    for name in ("english.cn", "sov.cn"):
        model = load_model(str(resources.files("conspec.data") / name))
        lex = model.lexicon
        concepts = set(lex.definitions)
        for defn in lex.definitions.values():
            concepts.update(defn.body.concepts())
        for rule in model.rules:
            concepts.update(rule.lhs.concepts())
        out.append((lex, sorted(concepts, key=lambda c: (c.stemless, c.label))))
    return out


def chain_walk(lex: Lexicon, concept: Concept) -> set[Concept]:
    """Uncached oracle: follow definition heads up from the concept."""
    out = {concept}
    cur = concept
    while cur in lex.definitions:
        node = lex.definitions[cur].body.roots[0]
        while node.is_capsule:
            node = node.capsule.roots[0]
        cur = node.concept
        if cur in out:
            break
        out.add(cur)
    return out


class TestAncestorTable:
    def test_matches_uncached_chain_walk(self):
        for lex, concepts in shipped_lexicons():
            for c in concepts + [Concept("never defined anywhere")]:
                assert ancestors(lex, c) == chain_walk(lex, c), c

    def test_seeded_graphs_match_uncached_chain_walk(self):
        rng = random.Random(14)
        checked = 0
        for _ in range(500):
            try:
                lex = Lexicon(definitions=seeded_definitions(rng))
            except ModelLoadError:
                continue  # a definition cycle
            for c in list(lex.definitions) + [Concept("p"), Concept("q"), Concept("r")]:
                assert ancestors(lex, c) == chain_walk(lex, c), c
            for c in lex.definitions:  # built once, then shared
                assert ancestors(lex, c) is ancestors(lex, c), c
            checked += 1
        assert checked > 60

    def test_load_fills_no_ancestor_set(self):
        for lex, _ in shipped_lexicons():
            assert lex.definitions and not lex.ancestor_table
        lex = load_model_text("c0 = c1\nc1 = c2\nd = c1").lexicon
        assert not lex.ancestor_table
        # a first ask fills the chain above the concept, and nothing else
        assert ancestors(lex, Concept("c1")) == {Concept("c1"), Concept("c2")}
        assert set(lex.ancestor_table) == {Concept("c1")}
        assert ancestors(lex, Concept("c0")) == {Concept(f"c{i}") for i in range(3)}
        assert set(lex.ancestor_table) == {Concept("c0"), Concept("c1")}

    def test_deep_chain_loads_in_linear_time(self):
        # a walk up the whole chain from every concept made this take seconds
        text = "\n".join(f"c{i} = c{i + 1}" for i in range(3000))
        start = time.perf_counter()
        lex = load_model_text(text).lexicon
        for i in range(3000):  # the first ask fills the chain; the rest look up
            ancestors(lex, Concept(f"c{i}"))
        assert time.perf_counter() - start < 2.0
        assert ancestors(lex, Concept("c0")) == {Concept(f"c{i}") for i in range(3001)}
        assert ancestors(lex, Concept("c2999")) == {Concept("c2999"), Concept("c3000")}

    def test_returns_shared_frozenset(self, anne_lex):
        got = ancestors(anne_lex, Concept("Anne"))
        assert isinstance(got, frozenset)
        assert ancestors(anne_lex, Concept("Anne")) is got
        assert ancestors(anne_lex, Concept("x")) == frozenset({Concept("x")})

    def test_caches_stay_out_of_equality_and_repr(self):
        first = make_lexicon({"Anne": "girl", "girl": "human", "Bob": "boy > human"})
        second = Lexicon(definitions=dict(first.definitions))
        assert first == second
        concept_sim(first, Concept("Anne"), Concept("Bob"))
        assert first.concept_sim_memo
        assert not second.concept_sim_memo
        assert first == second
        assert repr(first) == repr(second)


class TestConstruction:
    def test_caller_definitions_are_left_as_passed(self):
        empty: dict = {}
        lex = Lexicon(definitions=empty)
        assert empty == {}
        assert Concept("have", True) in lex.definitions
        anne = Concept("Anne")
        defs = {anne: Definition(anne, parse_network("girl"))}
        assert list(Lexicon(definitions=defs).definitions) == [anne, Concept("have", True)]
        assert list(defs) == [anne]


class TestEquality:
    def test_empty_lexicons_are_equal(self):
        assert Lexicon() == Lexicon()

    def test_two_loads_of_english_are_equal(self):
        path = str(resources.files("conspec.data") / "english.cn")
        first, second = load_model(path).lexicon, load_model(path).lexicon
        anne, anne_again = first.definitions[Concept("Anne")], second.definitions[Concept("Anne")]
        assert anne.body is not anne_again.body
        assert first == second
        assert anne == anne_again and hash(anne) == hash(anne_again)
        assert set(first.definitions.values()) == set(second.definitions.values())

    def test_one_changed_body_is_unequal(self):
        path = str(resources.files("conspec.data") / "english.cn")
        first, second = load_model(path).lexicon, load_model(path).lexicon
        anne = second.definitions[Concept("Anne")]
        changed = Definition(anne.name, parse_network("girl > human"), anne.line)
        assert not equal(changed.body, anne.body)
        second.definitions[anne.name] = changed
        assert first != second
        assert changed != anne


class TestIsA:
    def test_anne_is_human(self, anne_lex):
        assert is_a(anne_lex, Concept("Anne"), Concept("human"))

    def test_antisymmetric(self, anne_lex):
        assert not is_a(anne_lex, Concept("human"), Concept("Anne"))

    def test_jump_is_verb(self, anne_lex):
        assert is_a(anne_lex, Concept("jump"), Concept("verb", True))


class TestRegistry:
    def test_default_registry_labels(self):
        lex = Lexicon()
        expected = {
            "past", "present", "future", "past cont.", "present continuous",
            "agent", "theme", "recipient", "object 1", "object 2", "implied",
            "plural", "?", "!", "emphasis", "topic", "re", "seq", "quote",
            "more than", "how", "verb", "have",
        }
        assert set(lex.stemless_registry) == expected
        assert set(DEFAULT_STEMLESS) == expected

    def test_undeclared_stemless_reported(self):
        statements = parse_document("x > {ta}\ny > {past}").statements
        assert undeclared_stemless(lint_networks(statements), DEFAULT_STEMLESS) == ["ta"]


class TestCycles:
    def test_direct_cycle_rejected_citing_both(self):
        with pytest.raises(ModelLoadError) as exc:
            make_lexicon({"a": "b", "b": "a"})
        msg = str(exc.value)
        assert "a" in msg and "b" in msg

    def test_self_cycle_rejected(self):
        with pytest.raises(ModelLoadError):
            make_lexicon({"a": "a > x"})

    def test_deep_chain_loads(self):
        # 1,500 definitions deep once exhausted the recursive walk's stack
        lex = make_lexicon({f"c{i}": f"c{i + 1}" for i in range(1500)})
        assert is_a(lex, Concept("c0"), Concept("c1500"))

    def test_same_first_cycle_as_the_recursive_check(self):
        rng = random.Random(13)
        cycles = 0
        for _ in range(400):
            defs = seeded_definitions(rng)
            want = recursive_cycle_error(defs)
            try:
                Lexicon(definitions=defs)
                got = None
            except ModelLoadError as exc:
                got = (str(exc), exc.line)
            assert got == want
            cycles += want is not None
        assert 50 < cycles < 350  # both outcomes are well represented


def seeded_definitions(rng: random.Random) -> dict[Concept, Definition]:
    """Up to 8 definitions, each naming up to 3 others or primitives."""
    names = [f"c{i}" for i in range(rng.randint(1, 8))]
    defs = {}
    for line, name in enumerate(rng.sample(names, len(names)), 1):
        refs = [rng.choice(names + ["p", "q", "r"]) for _ in range(rng.randint(1, 3))]
        body = refs[0] if len(refs) == 1 else f"{refs[0]} > [{', '.join(refs[1:])}]"
        defs[Concept(name)] = Definition(Concept(name), parse_network(body), line)
    return defs


def recursive_cycle_error(definitions: dict[Concept, Definition]) -> tuple[str, int | None] | None:
    """``Lexicon._check_cycles`` as it was before it walked with an explicit
    stack, kept verbatim but for returning the error's text and line. The
    {have} macro a Lexicon adds last neither reaches nor is reached from
    these definitions, so it is left out."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[Concept, int] = {}

    def edges(name: Concept) -> list[Concept]:
        body = definitions[name].body
        return [c for c in body.concepts() if c in definitions]

    def visit(name: Concept, trail: list[Concept]) -> None:
        color[name] = GRAY
        for nxt in edges(name):
            if color.get(nxt, WHITE) == GRAY:
                cycle = trail[trail.index(nxt) :] if nxt in trail else trail
                names = " -> ".join(c.text() for c in cycle + [nxt])
                raise ModelLoadError(
                    f"definition cycle: {names}",
                    line=definitions[nxt].line or None,
                )
            if color.get(nxt, WHITE) == WHITE:
                visit(nxt, trail + [nxt])
        color[name] = BLACK

    try:
        for name in definitions:
            if color.get(name, WHITE) == WHITE:
                visit(name, [name])
    except ModelLoadError as exc:
        return str(exc), exc.line
    return None


class TestHaveMacroIntegration:
    def test_expansion_resolves_possessive_coreference(self):
        from conspec.network import anchor_resolutions, canonicalize, resolve_anchors
        from conspec.treeline import parse_network

        lex = Lexicon()
        net = parse_network("(dog > {have} > John) > hungry > {present}")
        expanded = lex_expand_network(lex, net)
        assert equal(
            expanded,
            parse_network("(dog > (have > [<<{agent}, >>{theme}]) > John) > hungry > {present}"),
        )
        resolved = resolve_anchors(canonicalize(expanded))
        refs = sorted(
            n.ref.head_concept().label for n in resolved.iter_nodes() if n.ref is not None
        )
        assert refs == ["John", "dog"]
        assert len(anchor_resolutions(resolved)) == 2
