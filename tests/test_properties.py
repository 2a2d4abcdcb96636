"""Property tests for the shared table collapse, the one-sweep marginal
enumeration and the elimination routine.

networkx serves only as an independent oracle for chordality and maximal
cliques; the tests are skipped where it is not installed.
"""

from itertools import combinations, product

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings, strategies as st

from graybox.adf import AdfInstance, Subfunction, collapse, project
from graybox.graphs import (
    MIN_DEGREE,
    MIN_FILL,
    InteractionGraph,
    elimination_fill,
    junction_tree,
    running_intersection_holds,
    triangulate,
)
from graybox.marginals import (
    STAT_BOLTZMANN,
    STAT_MEAN,
    STAT_SUM,
    deception_report,
    enumerate_marginal,
    enumerate_marginals,
    marginalize_table,
    max_configs,
)


def _instance(draw) -> AdfInstance:
    """A small instance (n <= 10) with integer values, so sums are exact."""
    n = draw(st.integers(1, 10))
    variables = st.permutations(range(n))
    subs = []
    for _ in range(draw(st.integers(1, 6))):
        scope = tuple(draw(variables)[: draw(st.integers(1, min(n, 4)))])
        values = draw(st.lists(st.integers(-20, 20), min_size=1 << len(scope),
                               max_size=1 << len(scope)))
        subs.append(Subfunction(scope, tuple(float(v) for v in values)))
    return AdfInstance(n=n, subfunctions=tuple(subs))


def _scope(draw, n: int) -> tuple[int, ...]:
    return tuple(draw(st.permutations(range(n)))[: draw(st.integers(1, n))])


@st.composite
def instances_with_nested_scopes(draw):
    """A small instance, a scope S and an ordered T inside S."""
    instance = _instance(draw)
    outer = _scope(draw, instance.n)
    inner = tuple(draw(st.permutations(outer))[: draw(st.integers(1, len(outer)))])
    return instance, outer, inner


@settings(max_examples=60, deadline=None)
@given(instances_with_nested_scopes())
def test_collapse_of_sum_table_is_sum_table(case):
    instance, outer, inner = case
    table = enumerate_marginal(instance, outer)
    expected = enumerate_marginal(instance, inner).values
    assert tuple(collapse(table.values, outer, inner)) == expected
    assert marginalize_table(table, inner).values == expected


@st.composite
def instances_with_scopes(draw):
    """A small instance, a list of scopes and a reference solution."""
    instance = _instance(draw)
    scopes = [_scope(draw, instance.n) for _ in range(draw(st.integers(1, 5)))]
    reference = tuple(draw(st.lists(st.integers(0, 1), min_size=instance.n,
                                    max_size=instance.n)))
    return instance, scopes, reference


@settings(max_examples=60, deadline=None)
@given(instances_with_scopes(), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_one_sweep_equals_per_scope_tables_and_oracle(case, beta):
    instance, scopes, reference = case
    for kind, kind_beta in ((STAT_SUM, None), (STAT_MEAN, None), (STAT_BOLTZMANN, beta)):
        tables = enumerate_marginals(instance, scopes, kind, beta=kind_beta)
        assert tables == tuple(enumerate_marginal(instance, s, kind, beta=kind_beta)
                               for s in scopes)
        report = deception_report(tables, reference)
        assert [e.factor_id for e in report.entries] == list(range(1, len(scopes) + 1))
        for entry, table in zip(report.entries, tables):
            assert entry.deceptive == (project(reference, table.scope) not in max_configs(table))

    oracle = [[0.0] * (1 << len(s)) for s in scopes]
    for x in product((0, 1), repeat=instance.n):
        fitness = instance.evaluate(x)
        for acc, scope in zip(oracle, scopes):
            acc[project(x, scope)] += fitness
    sums = enumerate_marginals(instance, scopes, STAT_SUM)
    assert [list(t.values) for t in sums] == oracle


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 14))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return InteractionGraph(n, frozenset(p for p, keep in zip(pairs, chosen) if keep))


def _heuristics(draw, n):
    return [MIN_FILL, MIN_DEGREE, tuple(draw(st.permutations(range(n))))]


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_completion_is_chordal_along_its_order(graph, data):
    for heuristic in _heuristics(data.draw, graph.n):
        completion = triangulate(graph, heuristic)
        full = completion.completed()
        assert elimination_fill(full, completion.elimination_order) == set()
        oracle = nx.Graph(list(full.edges))
        oracle.add_nodes_from(range(graph.n))
        assert nx.is_chordal(oracle)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_junction_tree_cliques_match_networkx(graph, data):
    for heuristic in _heuristics(data.draw, graph.n):
        completion = triangulate(graph, heuristic)
        jt = junction_tree(completion)
        oracle = nx.Graph(list(completion.completed().edges))
        oracle.add_nodes_from(range(graph.n))
        assert {frozenset(c) for c in jt.cliques} == set(nx.chordal_graph_cliques(oracle))
        assert running_intersection_holds(jt)
