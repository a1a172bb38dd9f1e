import math
import random
from itertools import permutations

import pytest

import conspec.similarity
from conspec.network import Concept, ConceptNetwork, Node
from conspec.similarity import align_networks, concept_sim, network_sim
from conspec.treeline import parse_network

from .gen import gen_network, mutate_network
from .test_lexicon import chain_walk, make_lexicon, shipped_lexicons

SQRT_09 = 0.9486832980505138  # frozen: sqrt(0.9), the trust~jump analogy score


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate every structure-preserving bijection.
# Kept deliberately independent of the production alignment engine.
# ---------------------------------------------------------------------------


def brute_force_network_sim(lex, pattern, target, alpha=0.9) -> float:
    def sims(p: Node, t: Node):
        """Yield (product, count) for every alignment of subtree p onto t."""
        if p.is_capsule != t.is_capsule:
            return
        pa = (p.anchor.direction, p.anchor.depth) if p.anchor else None
        ta = (t.anchor.direction, t.anchor.depth) if t.anchor else None
        if pa != ta:
            return
        if len(p.specifiers) != len(t.specifiers):
            return
        if p.is_capsule:
            if len(p.capsule.roots) != len(t.capsule.roots):
                return
            own = [(1.0, 0)]
            for pr, tr in zip(p.capsule.roots, t.capsule.roots):
                own = [
                    (x * y, n + m) for (x, n) in own for (y, m) in sims(pr, tr)
                ]
                if not own:
                    return
        else:
            if p.concept == t.concept:
                s = 1.0
            elif p.concept.stemless or t.concept.stemless:
                return
            else:
                s = concept_sim(lex, p.concept, t.concept, alpha)
            if s <= 0:
                return
            own = [(s, 1)]
        for perm in permutations(t.specifiers):
            results = list(own)
            for pc, tc in zip(p.specifiers, perm):
                results = [
                    (x * y, n + m) for (x, n) in results for (y, m) in sims(pc, tc)
                ]
                if not results:
                    break
            yield from results

    if len(pattern.roots) != len(target.roots):
        return 0.0
    totals = [(1.0, 0)]
    for pr, tr in zip(pattern.roots, target.roots):
        totals = [(x * y, n + m) for (x, n) in totals for (y, m) in sims(pr, tr)]
    best = 0.0
    for prod, count in totals:
        if count:
            best = max(best, prod ** (1.0 / count))
    return best


@pytest.fixture
def lex():
    return make_lexicon(
        {
            "trust": "{verb}",
            "jump": "{verb}",
            "dog": "animal",
            "teacher": "human",
            "Anne": "human",
            "rock": "thing",
            "berry": "thing",
            "holy cow": "thing",
            "pick up": "{verb}",
        }
    )


class TestConceptSim:
    def test_identity(self, lex):
        assert concept_sim(lex, Concept("trust"), Concept("trust")) == 1.0

    def test_trust_jump_hand_computed(self, lex):
        # ancestors both exactly {{verb}} after excluding the pair: Jaccard 1
        assert concept_sim(lex, Concept("trust"), Concept("jump")) == pytest.approx(0.9)

    def test_disjoint_ancestors(self, lex):
        assert concept_sim(lex, Concept("trust"), Concept("Anne")) == 0.0

    def test_symmetric_and_bounded(self, lex):
        rng = random.Random(3)
        labels = ["trust", "jump", "dog", "teacher", "Anne", "rock", "berry", "nonce"]
        for _ in range(100):
            a = Concept(rng.choice(labels))
            b = Concept(rng.choice(labels))
            ab = concept_sim(lex, a, b)
            assert ab == concept_sim(lex, b, a)
            assert 0.0 <= ab <= 1.0
            assert concept_sim(lex, a, a) == 1.0

    def test_memo_matches_literal_formula(self):
        def formula(lex, a, b, alpha):
            if a == b:
                return 1.0
            aa = chain_walk(lex, a) - {a, b}
            bb = chain_walk(lex, b) - {a, b}
            union = aa | bb
            if not union:
                return 0.0
            return alpha * len(aa & bb) / len(union)

        for lex, _ in shipped_lexicons():
            defined = list(lex.definitions)
            pairs = [(a, b, alpha) for alpha in (0.9, 0.5) for a in defined for b in defined]
            # the second pass, in reverse order, reads what the first one stored
            for a, b, alpha in pairs + pairs[::-1]:
                assert concept_sim(lex, a, b, alpha) == formula(lex, a, b, alpha), (a, b, alpha)
            assert len(lex.concept_sim_memo) <= 2 * len(defined) ** 2

    def test_memo_skips_undefined_concepts(self, lex):
        concept_sim(lex, Concept("nonce"), Concept("trust"))
        concept_sim(lex, Concept("trust"), Concept("other nonce"))
        assert not lex.concept_sim_memo


class TestNetworkSim:
    def test_trust_past_vs_jump_past(self, lex):
        score, binding = network_sim(lex, parse_network("trust > {past}"), parse_network("jump > {past}"))
        assert score == pytest.approx(SQRT_09, abs=1e-15)
        mapped = {p.concept.label: t.concept.label for p, t in binding.items()}
        assert mapped == {"trust": "jump", "past": "past"}
        # oracle agreement on the motivating case
        assert brute_force_network_sim(lex, parse_network("trust > {past}"), parse_network("jump > {past}")) == pytest.approx(score, abs=1e-15)

    def test_identical_networks(self, lex):
        n = parse_network("trust > [{past}, {agent} > Anne]")
        score, binding = network_sim(lex, n, n)
        assert score == 1.0
        assert all(p is t for p, t in binding.items())

    def test_stemless_mismatch_invalid(self, lex):
        score, binding = network_sim(
            lex, parse_network("trust > {past}"), parse_network("trust > {future}")
        )
        assert score == 0.0 and binding == {}
        assert brute_force_network_sim(
            lex, parse_network("trust > {past}"), parse_network("trust > {future}")
        ) == 0.0

    def test_oracle_equivalence_seeded(self, lex):
        # acceptance criterion: 500 seeded random pairs of <=6 nodes, 1e-12;
        # half the pairs are correlated mutants so real maxima get exercised
        rng = random.Random(42)
        fractional = 0
        for i in range(500):
            a = gen_network(rng, max_nodes=6)
            b = mutate_network(rng, a) if i % 2 else gen_network(rng, max_nodes=6)
            got, _ = network_sim(lex, a, b)
            want = brute_force_network_sim(lex, a, b)
            assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12), (
                f"mismatch {got} vs {want}"
            )
            if 0.0 < got < 1.0:
                fractional += 1
        assert fractional > 50  # the sample genuinely exercises the maximizer

    def test_symmetry_of_score(self, lex):
        rng = random.Random(9)
        for _ in range(100):
            a = gen_network(rng, max_nodes=5)
            b = gen_network(rng, max_nodes=5)
            sa, _ = network_sim(lex, a, b)
            sb, _ = network_sim(lex, b, a)
            assert sa == pytest.approx(sb, abs=1e-12)

    @pytest.mark.parametrize(
        "pattern, target, total",
        [
            ("trust > [dog, rock]", "trust > dog", False),
            ("trust > [dog, rock]", "trust > dog", True),
            ("trust > dog", "trust > [dog, rock]", True),
        ],
    )
    def test_specifier_counts_checked_before_sim(self, pattern, target, total):
        calls = []

        def sim(a, b):
            calls.append((a, b))
            return 1.0

        assert align_networks(parse_network(pattern), parse_network(target), sim, total=total) is None
        assert calls == []

    @pytest.mark.parametrize("total", [False, True])
    def test_child_without_partner_skips_the_permutation_walk(self, monkeypatch, total):
        walks = []

        def recorded(*args):
            walks.append(args)
            return permutations(*args)

        def exact(a, b):
            return 1.0 if a == b else 0.0

        monkeypatch.setattr(conspec.similarity, "permutations", recorded)
        pattern = parse_network("trust > [dog, rock]")
        # rock aligns with no child of the target: no assignment can complete
        target = parse_network("trust > [dog, berry]")
        assert align_networks(pattern, target, exact, total=total) is None
        assert walks == []
        assert align_networks(pattern, parse_network("trust > [rock, dog]"), exact, total=total)
        assert walks == [(range(2), 2)]

    def test_shared_node_scores_as_its_tree_copy(self, lex):
        # a network holding one node object twice, beside its tree copy
        def shared(root: str, child: str, grandchild: str) -> ConceptNetwork:
            node = Node(concept=Concept(child), specifiers=(Node(concept=Concept(grandchild)),))
            return ConceptNetwork((Node(concept=Concept(root), specifiers=(node, node)),))

        dag = shared("trust", "teacher", "rock")
        tree = parse_network("trust > [teacher > rock, teacher > rock]")
        other = shared("jump", "Anne", "berry")
        other_tree = parse_network("jump > [Anne > berry, Anne > berry]")
        mixed = parse_network("jump > [Anne > berry, teacher > rock]")
        assert network_sim(lex, dag, dag)[0] == network_sim(lex, tree, tree)[0] == 1.0
        assert 0.0 < network_sim(lex, dag, other)[0] == network_sim(lex, tree, other_tree)[0] < 1.0
        assert 0.0 < network_sim(lex, dag, mixed)[0] == network_sim(lex, tree, mixed)[0] < 1.0
        assert network_sim(lex, other, dag)[0] == network_sim(lex, other_tree, tree)[0]
