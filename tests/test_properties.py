"""Property tests for the shared table collapse and elimination routine.

networkx serves only as an independent oracle for chordality and maximal
cliques; the tests are skipped where it is not installed.
"""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings, strategies as st

from graybox.adf import AdfInstance, Subfunction, collapse
from graybox.graphs import (
    MIN_DEGREE,
    MIN_FILL,
    InteractionGraph,
    elimination_fill,
    junction_tree,
    running_intersection_holds,
    triangulate,
)
from graybox.marginals import enumerate_marginal, marginalize_table


@st.composite
def instances_with_nested_scopes(draw):
    """A small instance with integer values, a scope S and an ordered T inside S."""
    n = draw(st.integers(1, 10))
    variables = st.permutations(range(n))
    subs = []
    for _ in range(draw(st.integers(1, 6))):
        scope = tuple(draw(variables)[: draw(st.integers(1, min(n, 4)))])
        values = draw(st.lists(st.integers(-20, 20), min_size=1 << len(scope),
                               max_size=1 << len(scope)))
        subs.append(Subfunction(scope, tuple(float(v) for v in values)))
    outer = tuple(draw(variables)[: draw(st.integers(1, n))])
    inner = tuple(draw(st.permutations(outer))[: draw(st.integers(1, len(outer)))])
    return AdfInstance(n=n, subfunctions=tuple(subs)), outer, inner


@settings(max_examples=60, deadline=None)
@given(instances_with_nested_scopes())
def test_collapse_of_sum_table_is_sum_table(case):
    instance, outer, inner = case
    table = enumerate_marginal(instance, outer)
    expected = enumerate_marginal(instance, inner).values
    assert tuple(collapse(table.values, outer, inner)) == expected
    assert marginalize_table(table, inner).values == expected


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
