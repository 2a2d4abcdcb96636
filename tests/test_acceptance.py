"""Acceptance criteria, one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import time

import numpy as np

from graybox.adf import (
    ADJACENT_ACYCLIC,
    ADJACENT_CYCLIC,
    CODOMAIN_FOUR_OPTIMA,
    CODOMAIN_UNIFORM,
    RANDOM_SCOPES,
    SEPARABLE,
    GeneratorSpec,
    generate,
    paper_example,
)
from graybox.climb import ClimbPolicy, delta_flip, hill_climb, init_state
from graybox.fda import FdaConfig, run_fda
from graybox.graphs import (
    Factor,
    MIN_DEGREE,
    MIN_FILL,
    build_vig,
    factorization_from_jt,
    junction_tree,
    triangulate,
    univariate_factorization,
)
from graybox.marginals import STAT_BOLTZMANN, deception_report, enumerate_marginals
from graybox.fda import Population, estimate, model_probability
from graybox.replicate import jt_scopes, load_golden, order_scopes, replicate
from oracles import exact_treewidth

PUBLISHED_FILL = frozenset(
    {(1, 8), (2, 8), (3, 8), (4, 8), (5, 8), (2, 9), (3, 9), (4, 9), (5, 9), (6, 9)}
)

CHAIN_FACTORS = (
    Factor(new=(0, 1, 2, 8, 9), cond=()),
    Factor(new=(3,), cond=(1, 2, 8, 9)),
    Factor(new=(4,), cond=(2, 3, 8, 9)),
    Factor(new=(5,), cond=(3, 4, 8, 9)),
    Factor(new=(6,), cond=(4, 5, 8, 9)),
    Factor(new=(7,), cond=(5, 6, 8, 9)),
)


def check(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_1_exact_table_replication(tmp_path):
    start = time.perf_counter()
    outcome = replicate(out_dir=tmp_path / "replication")
    elapsed = time.perf_counter() - start
    counts = {name: sum(len(col) for col in load_golden(name).values())
              for name in ("order3", "order4", "order5", "clique5")}
    ok = (
        outcome.ok
        and counts == {"order3": 80, "order4": 160, "order5": 320, "clique5": 192}
        and elapsed < 10.0
    )
    check(1, f"752 table values exact, {elapsed:.2f}s < 10s", ok)


def test_criterion_2_deceptive_factor_sets():
    inst = paper_example()
    optimum = (1,) * 10
    got = (
        deception_report(enumerate_marginals(inst, order_scopes(inst, 3)), optimum).deceptive_ids,
        deception_report(enumerate_marginals(inst, order_scopes(inst, 4)), optimum).deceptive_ids,
        deception_report(enumerate_marginals(inst, order_scopes(inst, 5)), optimum).deceptive_ids,
        deception_report(enumerate_marginals(inst, jt_scopes(inst)[1]), optimum).deceptive_ids,
    )
    ok = got == ({3, 8, 9}, {10}, {9}, frozenset())
    check(2, f"deceptive sets {tuple(sorted(s) for s in got)} == ((3,8,9),(10,),(9,),())", ok)


def test_criterion_3_factorization_derivation():
    vig = build_vig(paper_example())
    completion = triangulate(vig, tuple(range(10)))
    fill_ok = completion.fill_edges == PUBLISHED_FILL
    jt = junction_tree(completion)
    root = jt.cliques.index((0, 1, 2, 8, 9))
    fact = factorization_from_jt(jt, root=root)
    ok = fill_ok and fact.factors == CHAIN_FACTORS
    check(3, "published fill edges give the six-factor chain rooted at {0,1,2,8,9}", ok)


def test_criterion_4_treewidth_properties():
    ok = True
    for k in (2, 3, 4):
        for blocks in (2, 24 // k):
            n = k * blocks
            if n > 24:
                continue
            vig = build_vig(generate(GeneratorSpec(SEPARABLE, n=n, k=k)))
            for heuristic in (MIN_FILL, MIN_DEGREE):
                ok = ok and junction_tree(triangulate(vig, heuristic)).treewidth == k - 1
    paper_vig = build_vig(paper_example())
    exact = exact_treewidth(paper_vig)
    ok = ok and exact == 4 and junction_tree(triangulate(paper_vig)).treewidth == exact
    check(4, "separable tree-width k-1 (k=2,3,4); worked example exact tree-width 4", ok)


def test_criterion_5_fda_success_rates():
    inst = paper_example()
    chain = factorization_from_jt(
        junction_tree(triangulate(build_vig(inst))), root=0
    )
    uni = univariate_factorization(inst.n)
    start = time.perf_counter()
    chain_hits = uni_hits = 0
    for seed in range(1, 51):
        config = FdaConfig(
            population_size=500,
            smoothing=1.0,
            max_generations=30,
            seed=seed,
            elitism=1,
            target_fitness=10.0,
        )
        chain_hits += run_fda(inst, chain, config).success
        uni_hits += run_fda(inst, uni, config).success
    elapsed = time.perf_counter() - start
    ok = chain_hits >= 48 and uni_hits < chain_hits and elapsed < 60.0
    check(
        5,
        f"chain {chain_hits}/50 >= 95%, univariate {uni_hits}/50 strictly lower, "
        f"{elapsed:.1f}s < 60s",
        ok,
    )


def test_criterion_6_delta_evaluation_oracle():
    rng = np.random.default_rng(2024)
    families = [
        GeneratorSpec(ADJACENT_CYCLIC, n=12, k=3, seed=s, codomain=c)
        for s in range(5) for c in (CODOMAIN_UNIFORM, CODOMAIN_FOUR_OPTIMA)
    ] + [
        GeneratorSpec(RANDOM_SCOPES, n=12, k=3, m=12, seed=s, codomain=c)
        for s in range(5) for c in (CODOMAIN_UNIFORM, CODOMAIN_FOUR_OPTIMA)
    ] + [
        GeneratorSpec(SEPARABLE, n=12, k=3, seed=s, codomain=c)
        for s in range(5) for c in (CODOMAIN_UNIFORM, CODOMAIN_FOUR_OPTIMA)
    ] + [
        GeneratorSpec(ADJACENT_ACYCLIC, n=12, k=4, seed=s, codomain=c)
        for s in range(5) for c in (CODOMAIN_UNIFORM, CODOMAIN_FOUR_OPTIMA)
    ]
    triples = 0
    ok = True
    for spec in families:
        inst = generate(spec)
        integer_valued = spec.codomain == CODOMAIN_FOUR_OPTIMA
        for _ in range(25):
            bits = list(rng.integers(0, 2, size=inst.n))
            i = int(rng.integers(inst.n))
            state = init_state(inst, bits)
            before = state.eval_count
            got = delta_flip(state, i)
            lookups = state.eval_count - before
            flipped = list(bits)
            flipped[i] ^= 1
            expected = inst.evaluate(flipped) - inst.evaluate(bits)
            if integer_valued:
                ok = ok and got == expected
            else:
                ok = ok and abs(got - expected) <= 1e-9
            ok = ok and lookups == sum(i in sub.scope for sub in inst.subfunctions)
            triples += 1
    ok = ok and triples >= 1000
    check(6, f"{triples} delta oracles exact/1e-9, lookup count equals c_i", ok)


def test_criterion_7_pair_restriction_property():
    rng = np.random.default_rng(77)
    ok = True
    checked = 0
    for idx in range(20):
        n = 10 + idx % 5  # n in 10..14
        inst = generate(GeneratorSpec(RANDOM_SCOPES, n=n, k=3, m=n, seed=idx))
        vig_edges = set(build_vig(inst).edges)
        for _ in range(20):
            start = list(rng.integers(0, 2, size=n))
            result = hill_climb(inst, start, ClimbPolicy())
            base = inst.evaluate(result.solution)
            for u, v in itertools.combinations(range(n), 2):
                flipped = list(result.solution)
                flipped[u] ^= 1
                flipped[v] ^= 1
                if inst.evaluate(flipped) - base > 1e-9:
                    ok = ok and (u, v) in vig_edges
            checked += 1
    check(7, f"{checked} local optima: no improving pair outside the interaction graph", ok)


def test_criterion_8_probability_invariants():
    ok = True
    fixtures = [
        paper_example(),
        generate(GeneratorSpec(RANDOM_SCOPES, n=12, k=3, m=10, seed=1)),
        generate(GeneratorSpec(SEPARABLE, n=12, k=4, seed=2)),
        generate(GeneratorSpec(ADJACENT_CYCLIC, n=11, k=3, seed=3)),
    ]
    for inst in fixtures:
        everything = [tuple(range(inst.n))]
        for beta in (0.5, 2.0):
            (joint,) = enumerate_marginals(inst, everything, STAT_BOLTZMANN, beta)
            ok = ok and abs(np.sum(joint.values) - 1.0) < 1e-12
        (uniform,) = enumerate_marginals(inst, everything, STAT_BOLTZMANN, 0.0)
        ok = ok and bool(np.all(np.array(uniform.values) == 2.0 ** -inst.n))

        jt = junction_tree(triangulate(build_vig(inst)))
        rng = np.random.default_rng(inst.n)
        for fact in (factorization_from_jt(jt, root=0), univariate_factorization(inst.n)):
            params = estimate(
                fact,
                Population(rng.integers(0, 2, size=(40, inst.n), dtype=np.uint8)),
                smoothing=1.0,
            )
            total = sum(
                model_probability(
                    fact, params, [(s >> (inst.n - 1 - j)) & 1 for j in range(inst.n)]
                )
                for s in range(1 << inst.n)
            )
            ok = ok and abs(total - 1.0) < 1e-9
    check(8, "Boltzmann sums 1e-12 and uniform at beta=0; model probability sums 1e-9", ok)
