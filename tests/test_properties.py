"""Property tests for the configuration-index codec, instance round trips,
the instance's cached structure views, the shared table collapse, the
one-sweep marginal enumeration, the elimination routine and junction tree
against their full-scan references, the running-intersection check, the
junction-tree FDA model and its entropy, the factorization theorem for
Boltzmann conditionals, the factorization's cached covers against a full
scan, and the climber's delta cache, best-pivot tie rule and cached pair
scores against a full rescan.

Each test draws its examples under the loaded hypothesis profile (see
conftest.py): the same ones on every tier-1 run, and 20 times as many
random ones under HYPOTHESIS_PROFILE=explore.

networkx serves only as an independent oracle for chordality, maximal
cliques and connected clique subtrees; the tests are skipped where it is
not installed.
"""

from itertools import combinations, product

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings, strategies as st

from graybox.adf import (
    ADJACENT_CYCLIC,
    CODOMAIN_FOUR_OPTIMA,
    CODOMAIN_UNIFORM,
    RANDOM_SCOPES,
    AdfInstance,
    GeneratorSpec,
    Subfunction,
    Visibility,
    _collapse_index,
    collapse,
    config_bits,
    config_index,
    generate,
    paper_example,
    parse,
    project,
    serialize,
    serialize_json,
)
from graybox.climb import (
    PIVOT_BEST,
    PIVOT_FIRST,
    ClimbPolicy,
    apply_flip,
    delta_flip,
    hill_climb,
    init_state,
)
from graybox.errors import StructuralError
from graybox.fda import estimate, model_entropy, sample
from graybox.graphs import (
    MIN_DEGREE,
    MIN_FILL,
    ChordalCompletion,
    Factor,
    Factorization,
    InteractionGraph,
    JunctionTree,
    build_vig,
    factorization_from_json,
    factorization_from_jt,
    junction_tree,
    running_intersection_holds,
    triangulate,
)
from graybox.marginals import (
    STAT_BOLTZMANN,
    STAT_MEAN,
    STAT_SUM,
    _sums_are_exact,
    _swept_marginals,
    deception_report,
    enumerate_marginal,
    enumerate_marginals,
    max_configs,
)
from oracles import (
    boltzmann_tables,
    first_covers,
    model_probability,
    reference_hill_climb,
    reference_junction_tree,
    reference_triangulate,
)


def examples(count: int) -> settings:
    """count examples per run under the tier-1 profile, scaled by the loaded
    profile's max_examples (see conftest.py). An explicit max_examples would
    override the profile, so every property test takes its count from here."""
    tier1 = settings.get_profile("tier1").max_examples
    return settings(max_examples=count * settings.default.max_examples // tier1)


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


@examples(60)
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
    """A small instance with arbitrary finite values, visibility and name."""
    base = _instance(draw)
    values = st.floats(allow_nan=False, allow_infinity=False)
    subs = tuple(
        Subfunction(sub.scope, tuple(draw(st.lists(values, min_size=len(sub.codomain),
                                                   max_size=len(sub.codomain)))))
        for sub in base.subfunctions
    )
    wgb = (draw(st.sampled_from(Visibility)), draw(st.sampled_from(Visibility)))
    name = draw(st.text())
    return AdfInstance(n=base.n, subfunctions=subs, wgb=wgb, name=name)


@examples(60)
@given(named_instances())
def test_parse_inverts_serialize(instance):
    assert parse(serialize(instance)) == instance
    assert parse(serialize_json(instance)) == instance


@examples(80)
@given(st.data())
def test_structure_views_match_their_definitions(data):
    """incidence, edges and neighbors against their definitions; building them
    changes neither equality nor the hash."""
    instance = _instance(data.draw)
    twin = AdfInstance(n=instance.n, subfunctions=instance.subfunctions)
    before = hash(instance)
    assert instance == twin
    scopes = [sub.scope for sub in instance.subfunctions]
    pairs = {tuple(sorted(p)) for scope in scopes for p in combinations(scope, 2)}
    assert instance.edges == tuple(sorted(pairs))
    assert instance.neighbors == tuple(tuple(sorted(a)) for a in build_vig(instance).adjacency())
    bits = data.draw(st.lists(st.integers(0, 1), min_size=instance.n, max_size=instance.n))
    for v in range(instance.n):
        flipped = list(bits)
        flipped[v] ^= 1
        incidence = instance.incidence[v]
        assert [a for a, _ in incidence] == [a for a, scope in enumerate(scopes) if v in scope]
        for a, mask in incidence:
            assert project(flipped, scopes[a]) == project(bits, scopes[a]) ^ mask
    assert hash(instance) == before == hash(twin)
    assert instance == twin


@st.composite
def instances_with_nested_scopes(draw):
    """A small instance, a scope S and an ordered T inside S."""
    instance = _instance(draw)
    outer = _scope(draw, instance.n)
    inner = tuple(draw(st.permutations(outer))[: draw(st.integers(1, len(outer)))])
    return instance, outer, inner


@examples(60)
@given(instances_with_nested_scopes())
def test_collapse_of_sum_table_is_sum_table(case):
    instance, outer, inner = case
    table = enumerate_marginal(instance, outer)
    expected = enumerate_marginal(instance, inner).values
    assert tuple(collapse(table.values, outer, inner)) == expected


@st.composite
def instances_with_scopes(draw):
    """A small instance, a list of scopes and a reference solution."""
    instance = _instance(draw)
    scopes = [_scope(draw, instance.n) for _ in range(draw(st.integers(1, 5)))]
    reference = tuple(draw(st.lists(st.integers(0, 1), min_size=instance.n,
                                    max_size=instance.n)))
    return instance, scopes, reference


@examples(60)
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
def integer_instances_with_scopes(draw):
    """An integer instance (n <= 12, -0.0 among its values) whose subfunctions
    cover only some of the variables, and unsorted scopes over all of them,
    one of them on uncovered variables only when there are any."""
    n = draw(st.integers(1, 12))
    covered = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    values = st.one_of(st.integers(-20, 20).map(float), st.just(-0.0))
    subs = []
    for _ in range(draw(st.integers(1, 6))):
        scope = tuple(draw(st.permutations(covered))[: draw(st.integers(1, min(len(covered), 4)))])
        codomain = draw(st.lists(values, min_size=1 << len(scope), max_size=1 << len(scope)))
        subs.append(Subfunction(scope, tuple(codomain)))
    scopes = [_scope(draw, n) for _ in range(draw(st.integers(1, 4)))]
    uncovered = sorted(set(range(n)) - set(covered))
    if uncovered:
        scopes.append(tuple(draw(st.permutations(uncovered))))
    return AdfInstance(n=n, subfunctions=tuple(subs)), scopes


@examples(100)
@given(integer_instances_with_scopes())
def test_additive_tables_equal_the_sweep_bit_for_bit(case):
    instance, scopes = case
    assert _sums_are_exact(instance)
    for kind in (STAT_SUM, STAT_MEAN):
        additive = enumerate_marginals(instance, scopes, kind)
        swept = _swept_marginals(instance, scopes, kind, None)
        assert [[v.hex() for v in t.values] for t in additive] == [
            [v.hex() for v in t.values] for t in swept
        ]
        assert additive == swept


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 14))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return InteractionGraph(n, frozenset(p for p, keep in zip(pairs, chosen) if keep))


def _heuristics(draw, n):
    return [MIN_FILL, MIN_DEGREE, tuple(draw(st.permutations(range(n))))]


@examples(60)
@given(graphs(), st.data())
def test_completion_is_chordal_along_its_order(graph, data):
    for heuristic in _heuristics(data.draw, graph.n):
        completion = triangulate(graph, heuristic)
        full = completion.completed()
        assert triangulate(full, completion.elimination_order).fill_edges == frozenset()
        oracle = nx.Graph(list(full.edges))
        oracle.add_nodes_from(range(graph.n))
        assert nx.is_chordal(oracle)


@examples(60)
@given(graphs(), st.data())
def test_junction_tree_cliques_match_networkx(graph, data):
    for heuristic in _heuristics(data.draw, graph.n):
        completion = triangulate(graph, heuristic)
        jt = junction_tree(completion)
        oracle = nx.Graph(list(completion.completed().edges))
        oracle.add_nodes_from(range(graph.n))
        assert {frozenset(c) for c in jt.cliques} == set(nx.chordal_graph_cliques(oracle))
        assert running_intersection_holds(jt)


@examples(100)
@given(st.data())
def test_running_intersection_matches_networkx(data):
    # Random cliques on a random tree: running intersection holds iff each
    # vertex's holders are a nonempty connected subgraph of the tree.
    n = data.draw(st.integers(1, 8))
    count = data.draw(st.integers(1, 8))
    cliques = tuple(
        tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
        for _ in range(count)
    )
    edges = tuple((data.draw(st.integers(0, j - 1)), j) for j in range(1, count))
    jt = JunctionTree(n, cliques, edges, tuple(() for _ in edges))
    tree = nx.Graph(edges)
    tree.add_nodes_from(range(count))
    holders = [[i for i, c in enumerate(cliques) if v in c] for v in range(n)]
    expected = all(h and nx.is_connected(tree.subgraph(h)) for h in holders)
    assert running_intersection_holds(jt) == expected


@st.composite
def shaped_graphs(draw):
    """Random, empty or complete graphs, or several random components with
    isolated vertices among them, on 1 to 30 relabelled vertices."""
    n = draw(st.integers(1, 30))
    shape = draw(st.sampled_from(["random", "empty", "complete", "components"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.25, 0.5, 0.8]))
    if shape == "components":
        cuts = sorted(set(draw(st.lists(st.integers(1, n), max_size=6))) | {n})
        blocks = [range(a, b) for a, b in zip([0, *cuts], cuts)]
    else:
        blocks = [range(n)]
    pairs = [p for block in blocks for p in combinations(block, 2)]
    if shape == "empty":
        pairs = []
    elif shape != "complete":
        pairs = [p for p in pairs if rng.random() < density]
    label = draw(st.permutations(range(n)))
    return InteractionGraph(n, frozenset(tuple(sorted((label[u], label[v]))) for u, v in pairs))


def _outcome(build, *args):
    try:
        return build(*args)
    except StructuralError as exc:
        return str(exc)


@examples(150)
@given(shaped_graphs(), st.data())
def test_structure_build_equals_full_scan_reference(graph, data):
    for heuristic in _heuristics(data.draw, graph.n):
        completion = triangulate(graph, heuristic)
        assert completion == reference_triangulate(graph, heuristic)
        jt = junction_tree(completion)
        assert jt == reference_junction_tree(completion)
        assert completion.treewidth == jt.treewidth
        # a hand-built copy replays the order in place of triangulate's cliques
        copy = ChordalCompletion(completion.base, completion.fill_edges,
                                 completion.elimination_order)
        assert junction_tree(copy) == jt
        assert copy.treewidth == jt.treewidth
    # an order replayed without its fill: either a tree or the same error
    bogus = ChordalCompletion(graph, frozenset(), tuple(data.draw(st.permutations(range(graph.n)))))
    assert _outcome(junction_tree, bogus) == _outcome(reference_junction_tree, bogus)


@examples(40)
@given(st.data())
def test_junction_tree_model_is_a_distribution(data):
    instance = _instance(data.draw)
    jt = junction_tree(triangulate(build_vig(instance), MIN_FILL))
    factorization = factorization_from_jt(jt, data.draw(st.integers(0, len(jt.cliques) - 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shapes = [(1 << len(f.cond), 1 << len(f.new)) for f in factorization.factors]
    tables = tuple(t / t.sum(axis=1, keepdims=True) for t in map(rng.random, shapes))
    total = sum(model_probability(factorization, tables, x)
                for x in product((0, 1), repeat=instance.n))
    assert total == pytest.approx(1.0, abs=1e-9)
    drawn = sample(factorization, tables, 30, rng)
    assert drawn.shape == (30, instance.n)
    assert set(np.unique(drawn)) <= {0, 1}

    # One-hot rows make the model deterministic: sampling must produce the
    # one solution the model gives probability 1, in every row.
    onehot = tuple(np.eye(cols)[rng.integers(0, cols, size=rows)] for rows, cols in shapes)
    drawn = sample(factorization, onehot, 5, rng)
    assert (drawn == drawn[0]).all()
    assert model_probability(factorization, onehot, tuple(drawn[0])) == 1.0


def _entropy_oracle(factorization, tables) -> float:
    """model_entropy as a per-row loop: weights come from collapsing the
    joint of the first earlier factor whose scope covers the conditioning
    set, and each row's entropy is the sum of its own nonzero terms."""
    entropy = 0.0
    scopes, joints = [], []
    for f, table, cover in zip(factorization.factors, tables, first_covers(factorization)):
        if f.cond:
            weights = collapse(joints[cover], scopes[cover], f.cond)
        else:
            weights = np.ones(1)
        terms = []
        for c, w in enumerate(weights):
            if w > 0:
                nz = table[c][table[c] > 0]
                terms.append(w * float(-(nz * np.log2(nz)).sum()))
        entropy += float(sum(terms))
        scopes.append(f.cond + f.new)
        joints.append((weights[:, None] * table).reshape(-1))
    return entropy


def _junction_tree_model(draw, smoothing: float, wide: bool):
    """The junction-tree factorization of a random structure on n <= 12
    variables, with parameters estimated from a random, possibly biased
    population. A wide model adds a scope of 8 or 9 variables and roots the
    tree at a clique holding it, so the first factor has rows of 256 or 512
    entries."""
    n = draw(st.integers(8 if wide else 1, 12))
    scopes = [tuple(draw(st.permutations(range(n)))[: draw(st.integers(1, min(n, 4)))])
              for _ in range(draw(st.integers(1, 6)))]
    if wide:
        scopes.append(tuple(draw(st.permutations(range(n)))[: draw(st.integers(8, min(n, 9)))]))
    instance = AdfInstance(n=n, subfunctions=tuple(
        Subfunction(scope, (0.0,) * (1 << len(scope))) for scope in scopes))
    jt = junction_tree(triangulate(build_vig(instance), MIN_FILL))
    if wide:
        root = next(i for i, c in enumerate(jt.cliques) if set(scopes[-1]) <= set(c))
    else:
        root = draw(st.integers(0, len(jt.cliques) - 1))
    factorization = factorization_from_jt(jt, root)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ones = rng.random(n) ** 3
    bits = (rng.random((draw(st.integers(1, 80)), n)) < ones).astype(np.uint8)
    return factorization, estimate(factorization, bits, smoothing)


@pytest.mark.parametrize("smoothing", [0.0, 1.0])
@pytest.mark.parametrize("wide", [False, True])
@examples(20)
@given(data=st.data())
def test_model_entropy_equals_per_row_oracle_and_brute_force(data, smoothing, wide):
    factorization, tables = _junction_tree_model(data.draw, smoothing, wide)
    if wide:
        assert len(factorization.factors[0].new) >= 8
    entropy = model_entropy(factorization, tables)
    assert entropy == _entropy_oracle(factorization, tables)
    probs = np.array([model_probability(factorization, tables, x)
                      for x in product((0, 1), repeat=factorization.n)])
    probs = probs[probs > 0]
    assert entropy == pytest.approx(float(-(probs * np.log2(probs)).sum()), abs=1e-9)


@pytest.mark.parametrize("smoothing", [0.0, 1.0])
@pytest.mark.parametrize("spec, root_width", [
    (GeneratorSpec(ADJACENT_CYCLIC, n=40, k=5, seed=1, codomain=CODOMAIN_FOUR_OPTIMA), 9),
    (GeneratorSpec(RANDOM_SCOPES, n=30, k=4, m=30, seed=3), 1),
], ids=["cyclic-n40", "random-n30"])
def test_model_entropy_equals_oracle_on_generated_instances(spec, root_width, smoothing):
    """On adjacent-cyclic n=40 k=5 the root factor has 9 new variables, so
    rows have 512 entries, most of them 0 at smoothing 0. On random-scopes
    n=30 some conditioning sets have more than one covering factor, and
    collapsing another one than the first changes the float bits."""
    instance = generate(spec)
    factorization = factorization_from_jt(
        junction_tree(triangulate(build_vig(instance), MIN_FILL)), 0)
    assert len(factorization.factors[0].new) >= root_width
    rng = np.random.default_rng(5)
    for size in (20, 300):
        bits = rng.integers(0, 2, (size, instance.n), dtype=np.uint8)
        tables = estimate(factorization, bits, smoothing)
        assert model_entropy(factorization, tables) == _entropy_oracle(factorization, tables)


def test_model_entropy_caches_structure_only():
    """The covers a Factorization caches and the shared collapse index hold
    structure only: entropies of two table sets on one factorization, in
    either order, equal the oracle's, and collapse results stay the same
    however often they are computed and whatever a caller does with them."""
    instance = generate(GeneratorSpec(RANDOM_SCOPES, n=30, k=4, m=30, seed=3))
    graph = build_vig(instance)
    rng = np.random.default_rng(11)
    model = factorization_from_jt(junction_tree(triangulate(graph, MIN_FILL)), 0)
    table_sets = [estimate(model, rng.integers(0, 2, (size, instance.n), dtype=np.uint8),
                           smoothing)
                  for size, smoothing in ((40, 0.0), (300, 1.0))]
    expected = [_entropy_oracle(model, tables) for tables in table_sets]
    assert expected[0] != expected[1]
    for order in ((0, 1), (1, 0)):
        factorization = factorization_from_jt(junction_tree(triangulate(graph, MIN_FILL)), 0)
        for k in order:
            assert model_entropy(factorization, table_sets[k]) == expected[k]

    src, dst = (3, 1, 4, 0), (4, 3)
    values = np.arange(16.0) ** 2
    by_loop = [0.0] * 4
    for c, row in enumerate(config_bits(np.arange(16), 4)):
        solution = [0] * 5
        for v, bit in zip(src, row):
            solution[v] = int(bit)
        by_loop[project(solution, dst)] += values[c]
    for _ in range(3):
        got = collapse(values, src, dst)
        assert got.tolist() == by_loop
        got[:] = -1.0
    index = _collapse_index(4, (2, 0))
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0] = 1
    assert collapse(values, src, dst).tolist() == by_loop


def _model_and_boltzmann(instance, factorization, beta):
    """The exact Boltzmann conditionals of the factorization, and per solution
    in index order the probability they give it and its Boltzmann probability:
    (model, boltzmann, conditionals)."""
    fitness = instance.evaluate_batch(config_bits(np.arange(1 << instance.n), instance.n))
    weights = np.exp(beta * (fitness - fitness.max()))
    tables = boltzmann_tables(instance, factorization, beta)
    model = [model_probability(factorization, tables, x)
             for x in product((0, 1), repeat=instance.n)]
    return np.array(model), weights / weights.sum(), tables


@examples(60)
@given(st.data(), st.floats(0.0, 8.0))
def test_junction_tree_factorization_of_boltzmann_is_boltzmann(data, beta):
    """The factorization theorem (Muehlenbein, Mahnig & Ochoa 1999): given the
    exact Boltzmann conditionals, a factorization read off a junction tree of
    the structure is the Boltzmann distribution, and its entropy is the
    Boltzmann entropy. Values are scaled into [-0.625, 0.625] so that no
    Boltzmann weight comes near the subnormal range at beta 8."""
    base = _instance(data.draw)
    instance = AdfInstance(base.n, tuple(Subfunction(s.scope, tuple(v / 32 for v in s.codomain))
                                         for s in base.subfunctions))
    jt = junction_tree(triangulate(build_vig(instance), MIN_FILL))
    factorization = factorization_from_jt(jt, data.draw(st.integers(0, len(jt.cliques) - 1)))
    model, boltzmann, tables = _model_and_boltzmann(instance, factorization, beta)
    np.testing.assert_allclose(model, boltzmann, rtol=1e-12, atol=0)
    entropy = float(-(boltzmann * np.log2(boltzmann)).sum())
    assert model_entropy(factorization, tables) == pytest.approx(entropy, rel=1e-12)


def test_factorization_missing_a_separator_variable_is_not_boltzmann():
    """The negative control: dropping the first separator variable from every
    conditioning set of the worked example's chain breaks the theorem."""
    instance = paper_example()
    chain = factorization_from_jt(junction_tree(triangulate(build_vig(instance), MIN_FILL)), 0)
    cut = Factorization(instance.n, tuple(Factor(f.new, f.cond[1:]) for f in chain.factors))
    errors = []
    for factorization in (chain, cut):
        model, boltzmann, _ = _model_and_boltzmann(instance, factorization, 2.0)
        errors.append(float((np.abs(model - boltzmann) / boltzmann).max()))
    assert errors[0] < 1e-12
    assert errors[1] > 1.0


@examples(60)
@given(st.data())
def test_covers_equal_full_scan_on_junction_tree_factorizations(data):
    instance = _instance(data.draw)
    heuristic = data.draw(st.sampled_from([MIN_FILL, MIN_DEGREE]))
    jt = junction_tree(triangulate(build_vig(instance), heuristic))
    factorization = factorization_from_jt(jt, data.draw(st.integers(0, len(jt.cliques) - 1)))
    assert factorization.covers == first_covers(factorization)
    assert None not in factorization.covers[1:]


@st.composite
def factor_file_factorizations(draw):
    """A factorization as a factor file may give it: variables introduced in
    any order and chunk sizes, and each cond drawn either from one earlier
    factor's scope (so it has one cover or several) or from all introduced
    variables (so it may have none)."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    factors, scopes, introduced = [], [], []
    while len(introduced) < n:
        new = order[len(introduced):len(introduced) + draw(st.integers(1, 3))]
        cond = []
        if factors:
            pool = draw(st.sampled_from(scopes)) if draw(st.booleans()) else introduced
            cond = draw(st.permutations(pool))[: draw(st.integers(0, len(pool)))]
        factors.append({"new": list(new), "cond": list(cond)})
        scopes.append([*new, *cond])
        introduced += new
    return factorization_from_json({"n": n, "factors": factors})


@examples(100)
@given(factor_file_factorizations())
def test_covers_equal_full_scan_on_factor_file_factorizations(factorization):
    assert factorization.covers == first_covers(factorization)


@examples(60)
@given(st.data())
def test_apply_flip_keeps_delta_cache_exact(data):
    """Integer codomains make every delta exact, so after each flip of a
    random sequence the cache must equal a re-evaluation of every neighbour."""
    instance = _instance(data.draw)
    n = instance.n
    start = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    state = init_state(instance, start)
    for v in data.draw(st.lists(st.integers(0, n - 1), max_size=30)):
        apply_flip(state, v)
        fitness = instance.evaluate(state.bits)
        neighbours = [list(state.bits) for _ in range(n)]
        for u, flipped in enumerate(neighbours):
            flipped[u] ^= 1
        assert state.deltas.tolist() == [instance.evaluate(x) - fitness for x in neighbours]
        assert set(np.flatnonzero(state.deltas > 0).tolist()) == {
            u for u, x in enumerate(neighbours) if instance.evaluate(x) > fitness
        }
        assert state.fitness == fitness


@examples(60)
@given(st.data())
def test_best_pivot_flips_lowest_of_the_largest_fresh_deltas(data):
    """Four-optima tables take only the values 0 and 1, so many flips tie on
    the largest delta; each best-pivot move must flip the lowest of them,
    with every delta recomputed by delta_flip on a state built from scratch."""
    k = data.draw(st.integers(3, 4))
    n = data.draw(st.integers(k, 14))
    kind = data.draw(st.sampled_from([ADJACENT_CYCLIC, RANDOM_SCOPES]))
    m = data.draw(st.integers(1, n + 4)) if kind == RANDOM_SCOPES else None
    spec = GeneratorSpec(kind, n=n, k=k, m=m, codomain=CODOMAIN_FOUR_OPTIMA,
                         seed=data.draw(st.integers(0, 1000)))
    instance = generate(spec)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    events = []
    result = hill_climb(instance, bits, ClimbPolicy(pivot=PIVOT_BEST), trace=events.append)

    def fresh_deltas():
        state = init_state(instance, bits)
        return [delta_flip(state, v) for v in range(n)]

    for event in events:
        fresh = fresh_deltas()
        i = fresh.index(max(fresh))  # the lowest variable attaining the maximum
        assert fresh[i] > 0
        assert (event["variables"], event["delta"]) == ([i], fresh[i])
        bits[i] ^= 1
    assert max(fresh_deltas()) <= 0
    assert result.converged and list(result.solution) == bits


@examples(60)
@given(st.data())
def test_cached_pair_scores_climb_like_a_full_rescan(data):
    """The climb must match, move for move, the oracle that runs np.argmax
    over all deltas each move and rescores every edge at each pair scan.
    Four-optima tables tie many pair scores, which exercises the first-edge
    tie rule; uniform tables give float scores."""
    k = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(k, 16))
    spec = GeneratorSpec(RANDOM_SCOPES, n=n, k=k, m=data.draw(st.integers(1, n + 4)),
                         codomain=data.draw(st.sampled_from([CODOMAIN_FOUR_OPTIMA,
                                                             CODOMAIN_UNIFORM])),
                         seed=data.draw(st.integers(0, 1000)))
    instance = generate(spec)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    policy = ClimbPolicy(
        pivot=data.draw(st.sampled_from([PIVOT_BEST, PIVOT_FIRST])),
        pair_moves=data.draw(st.booleans()),
        max_moves=data.draw(st.none() | st.integers(0, 12)),
        seed=data.draw(st.integers(0, 100)),
    )
    got, expected = [], []
    assert hill_climb(instance, bits, policy, got.append) == reference_hill_climb(
        instance, bits, policy, expected.append
    )
    assert got == expected


def test_tier1_profile_draws_the_same_examples_on_every_run():
    """Two runs under the tier-1 profile draw identical inputs, so a failure
    seen once is seen on every run; the draws also differ among themselves."""
    def digest():
        drawn = []

        @settings(settings.get_profile("tier1"), max_examples=20)
        @given(shaped_graphs(), st.data())
        def record(graph, data):
            drawn.append((graph.n, sorted(graph.edges), _heuristics(data.draw, graph.n)[2]))

        record()
        return drawn

    first = digest()
    assert len({repr(d) for d in first}) > 1
    assert digest() == first
