"""Property tests for the configuration-index codec, instance round trips,
the shared table collapse, the one-sweep marginal enumeration, the
elimination routine and the junction-tree FDA model.

networkx serves only as an independent oracle for chordality and maximal
cliques; the tests are skipped where it is not installed.
"""

import string
from itertools import combinations, product

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings, strategies as st

from graybox.adf import (
    AdfInstance,
    Subfunction,
    Visibility,
    collapse,
    config_bits,
    config_index,
    parse,
    project,
    serialize,
    serialize_json,
)
from graybox.fda import FactorParams, model_probability, sample
from graybox.graphs import (
    MIN_DEGREE,
    MIN_FILL,
    InteractionGraph,
    build_vig,
    elimination_fill,
    factorization_from_jt,
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


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([np.uint8, np.int64, bool]))
def test_config_index_is_project_per_row(data, dtype):
    n = data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                              min_size=1, max_size=20))
    bits = np.array(rows, dtype=dtype)
    scope = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    assert config_index(bits, scope).tolist() == [project(row, scope) for row in rows]
    assert config_bits(config_index(bits, range(n)), n).tolist() == rows


@st.composite
def named_instances(draw):
    """A small instance with arbitrary finite values, visibility and a
    one-line name (the text format keeps the name on a comment line)."""
    base = _instance(draw)
    values = st.floats(allow_nan=False, allow_infinity=False)
    subs = tuple(
        Subfunction(sub.scope, tuple(draw(st.lists(values, min_size=len(sub.codomain),
                                                   max_size=len(sub.codomain)))))
        for sub in base.subfunctions
    )
    wgb = (draw(st.sampled_from(Visibility)), draw(st.sampled_from(Visibility)))
    name = draw(st.text(string.ascii_letters + string.digits + " -_=(),.#:")).strip()
    return AdfInstance(n=base.n, subfunctions=subs, wgb=wgb, name=name)


@settings(max_examples=60, deadline=None)
@given(named_instances())
def test_parse_inverts_serialize(instance):
    assert parse(serialize(instance)) == instance
    assert parse(serialize_json(instance)) == instance


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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_junction_tree_model_is_a_distribution(data):
    instance = _instance(data.draw)
    jt = junction_tree(triangulate(build_vig(instance), MIN_FILL))
    factorization = factorization_from_jt(jt, data.draw(st.integers(0, len(jt.cliques) - 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shapes = [(1 << len(f.cond), 1 << len(f.new)) for f in factorization.factors]
    tables = [rng.random(shape) for shape in shapes]
    params = FactorParams(tuple(t / t.sum(axis=1, keepdims=True) for t in tables), 1.0)
    total = sum(model_probability(factorization, params, x)
                for x in product((0, 1), repeat=instance.n))
    assert total == pytest.approx(1.0, abs=1e-9)
    drawn = sample(factorization, params, 30, rng).solutions
    assert drawn.shape == (30, instance.n)
    assert set(np.unique(drawn)) <= {0, 1}

    # One-hot rows make the model deterministic: sampling must produce the
    # one solution the model gives probability 1, in every row.
    onehot = tuple(np.eye(cols)[rng.integers(0, cols, size=rows)] for rows, cols in shapes)
    certain = FactorParams(onehot, 0.0)
    drawn = sample(factorization, certain, 5, rng).solutions
    assert (drawn == drawn[0]).all()
    assert model_probability(factorization, certain, tuple(drawn[0])) == 1.0
