"""Interaction graphs, triangulation, junction trees, factorizations, tree-width."""

import numpy as np
import pytest

from graybox.adf import (
    ADJACENT_CYCLIC,
    RANDOM_SCOPES,
    SEPARABLE,
    AdfInstance,
    GeneratorSpec,
    Subfunction,
    Visibility,
    generate,
    paper_example,
)
from graybox.errors import CapacityError, StructuralError, VisibilityError
from graybox.graphs import (
    ChordalCompletion,
    Factor,
    Factorization,
    InteractionGraph,
    MIN_DEGREE,
    MIN_FILL,
    build_factor_graph,
    build_vig,
    export_dot,
    factorization_from_jt,
    factorization_from_json,
    factorization_to_json,
    jt_to_json,
    junction_tree,
    running_intersection_holds,
    triangulate,
    univariate_factorization,
)
from oracles import exact_treewidth, reference_junction_tree, reference_triangulate

# Fill edges of the published chordal completion of the ten-variable cyclic VIG.
PUBLISHED_FILL = frozenset(
    {(1, 8), (2, 8), (3, 8), (4, 8), (5, 8), (2, 9), (3, 9), (4, 9), (5, 9), (6, 9)}
)

FIVE_CLIQUES = (
    (0, 1, 2, 8, 9),
    (1, 2, 3, 8, 9),
    (2, 3, 4, 8, 9),
    (3, 4, 5, 8, 9),
    (4, 5, 6, 8, 9),
    (5, 6, 7, 8, 9),
)


def graph(n, *edges):
    return InteractionGraph(n, frozenset(tuple(sorted(e)) for e in edges))


def sub(scope):
    return Subfunction(tuple(scope), (0.0,) * (1 << len(scope)))


def treewidth(vig, heuristic=MIN_FILL):
    """Tree-width of the heuristic completion (an upper bound on the exact one)."""
    return junction_tree(triangulate(vig, heuristic)).treewidth


class TestVig:
    def test_paper_vig(self):
        vig = build_vig(paper_example())
        assert len(vig.edges) == 20
        for v in range(10):
            assert vig.adjacency()[v] == {(v + d) % 10 for d in (-2, -1, 1, 2)}

    def test_separable_blocks(self):
        vig = build_vig(generate(GeneratorSpec(SEPARABLE, n=6, k=3)))
        assert vig.edges == frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)})

    def test_single_scope(self):
        inst = AdfInstance(3, (sub((0, 1, 2)),))
        assert build_vig(inst).edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_visibility_refused(self):
        inst = AdfInstance(3, (sub((0, 1, 2)),), wgb=(Visibility.GRAY, Visibility.WHITE))
        with pytest.raises(VisibilityError):
            build_vig(inst)
        with pytest.raises(VisibilityError):
            build_factor_graph(inst)


class TestFactorGraph:
    def test_three_pairwise(self):
        inst = AdfInstance(4, (sub((1, 2)), sub((2, 3)), sub((1, 3))))
        fg = build_factor_graph(inst)
        assert len(fg.scopes) == 3
        assert all(len(s) == 2 for s in fg.scopes)

    def test_one_trivariate(self):
        inst = AdfInstance(4, (sub((1, 2, 3)),))
        fg = build_factor_graph(inst)
        assert fg.scopes == ((1, 2, 3),)

    def test_paper_factor_graph(self):
        fg = build_factor_graph(paper_example())
        assert len(fg.scopes) == 10
        assert all(len(s) == 3 for s in fg.scopes)


class TestTriangulate:
    def test_already_chordal(self):
        tri = graph(3, (0, 1), (1, 2), (0, 2))
        for heuristic in (MIN_FILL, MIN_DEGREE):
            assert triangulate(tri, heuristic).fill_edges == frozenset()

    def test_given_order_reproduces_published_fill(self):
        vig = build_vig(paper_example())
        completion = triangulate(vig, tuple(range(10)))
        assert completion.fill_edges == PUBLISHED_FILL

    def test_min_fill_matches_published_fill(self):
        vig = build_vig(paper_example())
        completion = triangulate(vig, MIN_FILL)
        assert completion.fill_edges == PUBLISHED_FILL
        jt = junction_tree(completion)
        assert max(len(c) for c in jt.cliques) == 5

    def test_completion_is_zero_fill(self):
        # replaying the elimination order on the completed graph adds nothing
        rng = np.random.default_rng(11)
        for seed in range(10):
            inst = generate(GeneratorSpec(RANDOM_SCOPES, n=12, k=3, m=12, seed=seed))
            vig = build_vig(inst)
            for heuristic in (MIN_FILL, MIN_DEGREE):
                completion = triangulate(vig, heuristic)
                replay = triangulate(completion.completed(), completion.elimination_order)
                assert replay.fill_edges == frozenset()

    def test_bad_order_rejected(self):
        with pytest.raises(StructuralError):
            triangulate(graph(3, (0, 1)), (0, 1))  # not a permutation

    def test_unknown_heuristic(self):
        with pytest.raises(StructuralError):
            triangulate(graph(2, (0, 1)), "fancy")


class TestJunctionTree:
    def test_separable_blocks(self):
        inst = generate(GeneratorSpec(SEPARABLE, n=12, k=3))
        jt = junction_tree(triangulate(build_vig(inst)))
        assert len(jt.cliques) == 4
        assert all(len(c) == 3 for c in jt.cliques)
        assert all(sep == () for sep in jt.separators)
        assert jt.treewidth == 2
        assert running_intersection_holds(jt)

    def test_paper_six_cliques(self):
        jt = junction_tree(triangulate(build_vig(paper_example())))
        assert jt.cliques == FIVE_CLIQUES
        assert jt.treewidth == 4
        assert running_intersection_holds(jt)
        # chain of separators of size 4
        assert sorted(jt.edges) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        assert all(len(s) == 4 for s in jt.separators)

    def test_chain(self):
        jt = junction_tree(triangulate(graph(3, (0, 1), (1, 2))))
        assert jt.cliques == ((0, 1), (1, 2))
        assert jt.separators == ((1,),)

    def test_non_chordal_input_rejected(self):
        square = graph(4, (0, 1), (1, 2), (2, 3), (0, 3))
        bogus = ChordalCompletion(square, frozenset(), (0, 1, 2, 3))
        with pytest.raises(StructuralError) as exc:
            junction_tree(bogus)
        assert str(exc.value) == (
            "graph is not chordal along the elimination order: missing edges [(1, 3)]"
        )

    def test_non_chordal_message_lists_every_replayed_fill(self):
        # eliminating 0 joins 1 and 4; then eliminating 1 joins 2 and 4
        pentagon = graph(5, (0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
        bogus = ChordalCompletion(pentagon, frozenset(), (0, 1, 2, 3, 4))
        with pytest.raises(StructuralError) as exc:
            junction_tree(bogus)
        assert str(exc.value) == (
            "graph is not chordal along the elimination order: "
            "missing edges [(1, 4), (2, 4)]"
        )

    def test_order_must_be_a_permutation(self):
        bogus = ChordalCompletion(graph(3, (0, 1)), frozenset(), (0, 1, 1))
        with pytest.raises(StructuralError, match="permutation"):
            junction_tree(bogus)

    @pytest.mark.parametrize("n", [5, 6, 9, 10, 11, 40, 250, 1000])
    def test_cyclic_sweep_equals_full_scan_reference(self, n):
        vig = build_vig(generate(GeneratorSpec(ADJACENT_CYCLIC, n=n, k=5)))
        for heuristic in (MIN_FILL, MIN_DEGREE):
            completion = triangulate(vig, heuristic)
            assert completion == reference_triangulate(vig, heuristic)
            assert junction_tree(completion) == reference_junction_tree(completion)

    def test_cyclic_ten_thousand(self):
        vig = build_vig(generate(GeneratorSpec(ADJACENT_CYCLIC, n=10_000, k=5)))
        jt = junction_tree(triangulate(vig))
        assert len(jt.cliques) == 9_992
        assert jt.treewidth == 8
        assert len(jt.edges) == len(jt.cliques) - 1
        for (i, j), sep in zip(jt.edges, jt.separators):
            assert sep == tuple(sorted(set(jt.cliques[i]) & set(jt.cliques[j])))

    def test_running_intersection_random(self):
        for seed in range(8):
            inst = generate(GeneratorSpec(RANDOM_SCOPES, n=14, k=3, m=14, seed=seed))
            jt = junction_tree(triangulate(build_vig(inst)))
            assert running_intersection_holds(jt)


class TestFactorization:
    def test_published_chain(self):
        jt = junction_tree(triangulate(build_vig(paper_example())))
        fact = factorization_from_jt(jt, root=0)
        assert fact.factors == (
            Factor(new=(0, 1, 2, 8, 9), cond=()),
            Factor(new=(3,), cond=(1, 2, 8, 9)),
            Factor(new=(4,), cond=(2, 3, 8, 9)),
            Factor(new=(5,), cond=(3, 4, 8, 9)),
            Factor(new=(6,), cond=(4, 5, 8, 9)),
            Factor(new=(7,), cond=(5, 6, 8, 9)),
        )

    def test_separable_independent_joints(self):
        inst = generate(GeneratorSpec(SEPARABLE, n=9, k=3))
        jt = junction_tree(triangulate(build_vig(inst)))
        fact = factorization_from_jt(jt, root=0)
        assert all(f.cond == () for f in fact.factors)
        assert sorted(f.new for f in fact.factors) == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]

    def test_chain_rooted_at_first(self):
        jt = junction_tree(triangulate(graph(3, (0, 1), (1, 2))))
        fact = factorization_from_jt(jt, root=0)
        assert fact.factors == (Factor((0, 1), ()), Factor((2,), (1,)))

    def test_root_choice_changes_conditioning(self):
        jt = junction_tree(triangulate(graph(3, (0, 1), (1, 2))))
        fact = factorization_from_jt(jt, root=1)
        assert fact.factors == (Factor((1, 2), ()), Factor((0,), (1,)))

    def test_invalid_root(self):
        jt = junction_tree(triangulate(graph(2, (0, 1))))
        with pytest.raises(StructuralError):
            factorization_from_jt(jt, root=5)

    def test_every_variable_new_once(self):
        with pytest.raises(StructuralError):
            Factorization(2, (Factor((0,), ()), Factor((0, 1), ())))
        with pytest.raises(StructuralError):
            Factorization(3, (Factor((0,), ()), Factor((1,), ())))
        with pytest.raises(StructuralError):
            Factorization(2, (Factor((0,), ()), Factor((1,), (0,)), Factor((0,), (1,))))

    @pytest.mark.parametrize("factors", [
        (Factor((0, 1, 0), ()),),
        (Factor((0, 1), ()), Factor((2,), (1, 1))),
    ], ids=["new", "cond"])
    def test_factor_repeating_a_variable(self, factors):
        # A repeated variable would double a table axis and smear mass over
        # configurations that disagree with themselves.
        with pytest.raises(StructuralError, match="repeats"):
            Factorization(len({v for f in factors for v in f.new}), factors)

    def test_conditioning_before_introduction(self):
        with pytest.raises(StructuralError):
            Factorization(2, (Factor((0,), (1,)), Factor((1,), ())))

    def test_scopes_cover_vig_edges(self):
        for seed in range(6):
            inst = generate(GeneratorSpec(RANDOM_SCOPES, n=12, k=3, m=10, seed=seed))
            vig = build_vig(inst)
            jt = junction_tree(triangulate(vig))
            fact = factorization_from_jt(jt, root=0)
            scopes = [set(f.new) | set(f.cond) for f in fact.factors]
            for u, v in vig.edges:
                assert any({u, v} <= s for s in scopes)

    def test_conditioning_sets_are_separators(self):
        jt = junction_tree(triangulate(build_vig(paper_example())))
        fact = factorization_from_jt(jt, root=0)
        separators = set(jt.separators)
        for f in fact.factors[1:]:
            assert f.cond in separators

    def test_univariate(self):
        fact = univariate_factorization(4)
        assert len(fact.factors) == 4
        assert all(f.cond == () and len(f.new) == 1 for f in fact.factors)

    def test_json_round_trip(self):
        jt = junction_tree(triangulate(build_vig(paper_example())))
        fact = factorization_from_jt(jt, root=0)
        assert factorization_from_json(factorization_to_json(fact)) == fact


class TestTreewidth:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("heuristic", [MIN_FILL, MIN_DEGREE])
    def test_separable_exact(self, k, heuristic):
        inst = generate(GeneratorSpec(SEPARABLE, n=6 * k, k=k))
        assert treewidth(build_vig(inst), heuristic) == k - 1

    def test_paper_exact_check(self):
        vig = build_vig(paper_example())
        assert exact_treewidth(vig) == 4
        assert treewidth(vig) == 4

    def test_heuristic_upper_bounds_exact(self):
        for seed in range(10):
            inst = generate(GeneratorSpec(RANDOM_SCOPES, n=10, k=3, m=10, seed=seed))
            vig = build_vig(inst)
            exact = exact_treewidth(vig)
            for heuristic in (MIN_FILL, MIN_DEGREE):
                assert treewidth(vig, heuristic) >= exact

    def test_exact_small_graphs(self):
        assert exact_treewidth(graph(1)) == 0
        assert exact_treewidth(graph(4, (0, 1), (1, 2), (2, 3), (0, 3))) == 2  # cycle
        assert exact_treewidth(graph(3, (0, 1), (1, 2))) == 1  # path
        complete5 = graph(5, *[(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert exact_treewidth(complete5) == 4

    def test_exact_refuses_large(self):
        with pytest.raises(CapacityError):
            exact_treewidth(graph(13))

    def test_random_scopes_wider_than_cyclic(self):
        cyclic = treewidth(build_vig(generate(GeneratorSpec(ADJACENT_CYCLIC, n=40, k=3))))
        estimates = []
        for seed in range(20):
            inst = generate(GeneratorSpec(RANDOM_SCOPES, n=40, k=3, m=40, seed=seed))
            estimates.append(treewidth(build_vig(inst)))
        assert np.median(estimates) > cyclic


class TestExports:
    def test_triangle_dot(self):
        dot = export_dot(graph(3, (0, 1), (1, 2), (0, 2)))
        assert dot.count("--") == 3
        assert dot.startswith("graph")

    def test_paper_vig_dot(self):
        dot = export_dot(build_vig(paper_example()))
        assert dot.count("--") == 20
        assert sum(1 for line in dot.splitlines() if line.strip().endswith(";") and "--" not in line) == 10

    def test_empty_graph_dot(self):
        assert export_dot(graph(0)) == "graph vig {\n}\n"

    def test_factor_graph_dot(self):
        dot = export_dot(build_factor_graph(paper_example()))
        assert dot.count("shape=box") == 10
        assert dot.count("--") == 30

    def test_junction_tree_dot_and_json(self):
        jt = junction_tree(triangulate(build_vig(paper_example())))
        dot = export_dot(jt)
        assert dot.count("shape=box") == 6
        assert dot.count("--") == 5
        doc = jt_to_json(jt)
        assert doc["treewidth"] == 4
        assert len(doc["cliques"]) == 6
