"""Selection, estimation, sampling, model entropy, and the FDA loop."""

import math
import re
import warnings

import numpy as np
import pytest

from graybox.adf import GeneratorSpec, RANDOM_SCOPES, generate, paper_example
from graybox.errors import ConfigError, StructuralError
from graybox.fda import (
    BoltzmannSelection,
    FdaConfig,
    TruncationSelection,
    estimate,
    model_entropy,
    result_to_json,
    run_fda,
    sample,
    select,
)
from graybox.graphs import (
    Factor,
    Factorization,
    build_vig,
    factorization_from_jt,
    junction_tree,
    triangulate,
    univariate_factorization,
)
from oracles import boltzmann_tables, model_probability


def paper_chain():
    jt = junction_tree(triangulate(build_vig(paper_example())))
    return factorization_from_jt(jt, root=0)


def uniform_tables(count):
    return tuple(np.full((1, 2), 0.5) for _ in range(count))


def rng0():
    return np.random.default_rng(0)


class TestSelect:
    def test_truncation_full_population(self):
        out = select(np.array([3.0, 1.0, 2.0, 0.0]), TruncationSelection(tau=1.0), rng0())
        assert sorted(out) == [0, 1, 2, 3]

    def test_truncation_keeps_best_half(self):
        out = select(np.array([0.0, 1.0, 2.0, 3.0]), TruncationSelection(tau=0.5), rng0())
        assert list(out) == [3, 2]

    def test_truncation_stable_ties(self):
        out = select(np.array([1.0, 1.0, 0.0]), TruncationSelection(tau=2 / 3), rng0())
        assert list(out) == [0, 1]

    def test_boltzmann_beta_zero_is_uniform(self):
        out = select(np.array([0.0, 1.0, 2.0, 3.0]), BoltzmannSelection(beta=0.0), rng0())
        uniform = rng0().choice(4, size=4, replace=True, p=np.full(4, 0.25))
        assert np.array_equal(out, uniform)

    def test_boltzmann_huge_beta_picks_only_the_best(self):
        # beta * (f - fmax) overflows to -inf for every non-best row: weight 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = select(np.array([0.0, 3.0, 1.0, 3.0]), BoltzmannSelection(beta=1e308), rng0())
        assert set(out) <= {1, 3}

    def test_truncation_rounds_up(self):
        out = select(np.array([0.0, 1.0, 2.0, 3.0]), TruncationSelection(tau=0.3), rng0())
        assert list(out) == [3, 2]  # ceil(0.3 * 4) = 2


class TestEstimate:
    def test_degenerate_all_ones(self):
        fact = paper_chain()
        bits = np.ones((20, 10), dtype=np.uint8)
        tables = estimate(fact, bits, smoothing=0.0)
        for f, table in zip(fact.factors, tables):
            seen_rows = {(1 << len(f.cond)) - 1}
            for row in seen_rows:
                assert table[row, (1 << len(f.new)) - 1] == 1.0

    def test_huge_smoothing_tends_uniform(self):
        fact = univariate_factorization(3)
        bits = np.ones((8, 3), dtype=np.uint8)
        tables = estimate(fact, bits, smoothing=1e12)
        for table in tables:
            assert table == pytest.approx(np.full((1, 2), 0.5), abs=1e-9)

    def test_univariate_counting(self):
        fact = univariate_factorization(2)
        bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        tables = estimate(fact, bits, smoothing=0.0)
        for table in tables:
            assert list(table[0]) == [0.5, 0.5]

    def test_slices_normalized_and_positive(self):
        fact = paper_chain()
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(50, 10), dtype=np.uint8)
        tables = estimate(fact, bits, smoothing=1.0)
        for table in tables:
            assert np.allclose(table.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(table > 0)

    def test_empty_context_uniform(self):
        fact = Factorization(2, (Factor((0,), ()), Factor((1,), (0,))))
        bits = np.zeros((5, 2), dtype=np.uint8)
        tables = estimate(fact, bits, smoothing=0.0)
        assert list(tables[1][1]) == [0.5, 0.5]  # context x0=1 never seen


class TestSample:
    def test_degenerate_model_samples_all_ones(self):
        fact = paper_chain()
        tables = estimate(fact, np.ones((10, 10), dtype=np.uint8), smoothing=0.0)
        out = sample(fact, tables, 50, np.random.default_rng(1))
        assert np.all(out == 1)

    def test_uniform_bit_frequencies(self):
        fact = univariate_factorization(6)
        out = sample(fact, uniform_tables(6), 10_000, np.random.default_rng(2))
        freq = out.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 3 * 0.5 / math.sqrt(10_000))

    def test_boltzmann_params_modal_solution(self):
        inst = paper_example()
        fact = paper_chain()
        tables = boltzmann_tables(inst, fact, beta=5.0)
        out = sample(fact, tables, 500, np.random.default_rng(3))
        rows, counts = np.unique(out, axis=0, return_counts=True)
        assert tuple(rows[np.argmax(counts)]) == (1,) * 10

    def test_every_variable_assigned(self):
        fact = paper_chain()
        bits = np.random.default_rng(0).integers(0, 2, (30, 10), dtype=np.uint8)
        tables = estimate(fact, bits, smoothing=1.0)
        out = sample(fact, tables, 40, np.random.default_rng(4))
        assert out.shape == (40, 10)
        assert set(np.unique(out)) <= {0, 1}

    def test_shape_mismatch_rejected(self):
        fact = paper_chain()
        bad = uniform_tables(len(fact.factors))
        with pytest.raises(StructuralError):
            sample(fact, bad, 5, np.random.default_rng(0))
        with pytest.raises(StructuralError, match="count"):
            model_entropy(fact, uniform_tables(len(fact.factors) - 1))

    def test_zero_count_draws_nothing(self):
        fact = paper_chain()
        tables = estimate(fact, np.ones((10, 10), dtype=np.uint8))
        rng = np.random.default_rng(6)
        out = sample(fact, tables, 0, rng)
        assert out.shape == (0, 10) and out.dtype == np.uint8
        assert rng.random() == np.random.default_rng(6).random()
        with pytest.raises(ConfigError):
            sample(fact, tables, -1, rng)


class TestModelProbability:
    def test_degenerate(self):
        fact = paper_chain()
        tables = estimate(fact, np.ones((10, 10), dtype=np.uint8), smoothing=0.0)
        assert model_probability(fact, tables, (1,) * 10) == 1.0
        assert model_probability(fact, tables, (0,) + (1,) * 9) == 0.0

    def test_uniform(self):
        fact = univariate_factorization(8)
        tables = uniform_tables(8)
        assert model_probability(fact, tables, (0, 1) * 4) == pytest.approx(2.0**-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sums_to_one(self, seed):
        inst = generate(GeneratorSpec(RANDOM_SCOPES, n=10, k=3, m=10, seed=seed))
        jt = junction_tree(triangulate(build_vig(inst)))
        fact = factorization_from_jt(jt, root=0)
        rng = np.random.default_rng(seed)
        tables = estimate(fact, rng.integers(0, 2, (40, 10), dtype=np.uint8), smoothing=1.0)
        total = sum(
            model_probability(fact, tables, [(s >> (9 - j)) & 1 for j in range(10)])
            for s in range(1 << 10)
        )
        assert abs(total - 1.0) < 1e-9


class TestModelEntropy:
    def test_uniform_univariate(self):
        fact = univariate_factorization(4)
        tables = uniform_tables(4)
        assert model_entropy(fact, tables) == pytest.approx(4.0)

    def test_degenerate_zero(self):
        fact = paper_chain()
        tables = estimate(fact, np.ones((10, 10), dtype=np.uint8), smoothing=0.0)
        assert model_entropy(fact, tables) == pytest.approx(0.0)

    def test_matches_brute_force(self):
        fact = paper_chain()
        rng = np.random.default_rng(7)
        tables = estimate(fact, rng.integers(0, 2, (60, 10), dtype=np.uint8), smoothing=1.0)
        brute = 0.0
        for s in range(1 << 10):
            p = model_probability(fact, tables, [(s >> (9 - j)) & 1 for j in range(10)])
            if p > 0:
                brute -= p * math.log2(p)
        assert model_entropy(fact, tables) == pytest.approx(brute, abs=1e-9)

    def test_lowest_of_several_covers_and_uncovered_condition(self):
        """Factor 2's cond (0,) lies in the scopes of factors 0 and 1, and
        its cover is the lower one; factor 4's (2, 3) lies in no single
        earlier scope, nor does factor 5's, and the error names factor 4
        with the message it has always had."""
        fact = Factorization(n=7, factors=(
            Factor(new=(0, 1), cond=()),
            Factor(new=(2,), cond=(0,)),
            Factor(new=(3,), cond=(0,)),
            Factor(new=(4,), cond=()),
            Factor(new=(5,), cond=(2, 3)),
            Factor(new=(6,), cond=(1, 4)),
        ))
        assert fact.covers == (None, 0, 0, 0, None, None)
        message = ("factor 4 conditioning set (2, 3) spans multiple factors; "
                   "entropy needs junction-tree-shaped factorizations")
        with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
            model_entropy(fact, estimate(fact, np.ones((4, 7), dtype=np.uint8)))


class TestRunFda:
    def test_zero_generations_returns_best_of_random(self):
        inst = paper_example()
        cfg = FdaConfig(population_size=64, max_generations=0, seed=9)
        result = run_fda(inst, paper_chain(), cfg)
        assert result.generations == 0
        assert len(result.history) == 1
        bits = np.random.default_rng(9).integers(0, 2, size=(64, 10), dtype=np.uint8)
        assert result.best_fitness == float(inst.evaluate_batch(bits).max())

    def test_seed_determinism(self):
        inst = paper_example()
        cfg = FdaConfig(population_size=100, max_generations=5, seed=123)
        a = run_fda(inst, paper_chain(), cfg)
        b = run_fda(inst, paper_chain(), cfg)
        assert a == b

    def test_elitism_monotone_best(self):
        inst = paper_example()
        cfg = FdaConfig(population_size=60, max_generations=12, seed=3, elitism=1)
        result = run_fda(inst, univariate_factorization(10), cfg)
        bests = [h.best for h in result.history]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_reaches_target_with_chain_factorization(self):
        inst = paper_example()
        cfg = FdaConfig(seed=1, target_fitness=10.0)
        result = run_fda(inst, paper_chain(), cfg)
        assert result.success is True
        assert result.best_fitness == 10.0
        assert result.best_solution == (1,) * 10

    def test_history_records_entropy(self):
        inst = paper_example()
        cfg = FdaConfig(population_size=80, max_generations=3, seed=2)
        result = run_fda(inst, paper_chain(), cfg)
        assert all(h.model_entropy is not None for h in result.history[:-1])
        doc = result_to_json(result)
        assert doc["config"]["seed"] == 2
        assert len(doc["history"]) == len(result.history)

    def test_boltzmann_selection_loop(self):
        inst = paper_example()
        cfg = FdaConfig(
            population_size=200,
            selection=BoltzmannSelection(beta=2.0),
            max_generations=10,
            seed=4,
            target_fitness=10.0,
        )
        result = run_fda(inst, paper_chain(), cfg)
        assert result.success is True

    def test_full_elitism_keeps_the_population(self):
        inst = paper_example()
        cfg = FdaConfig(population_size=20, max_generations=4, seed=5, elitism=20)
        result = run_fda(inst, univariate_factorization(10), cfg)
        assert result.generations == 4
        assert len({(h.best, h.mean) for h in result.history}) == 1

    def test_factorization_must_cover_instance(self):
        with pytest.raises(StructuralError):
            run_fda(paper_example(), univariate_factorization(9), FdaConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FdaConfig(population_size=0)
        with pytest.raises(ConfigError):
            FdaConfig(elitism=1000)
        with pytest.raises(ConfigError):
            FdaConfig(smoothing=-1)
        with pytest.raises(ConfigError):
            TruncationSelection(tau=0.0)
        with pytest.raises(ConfigError, match="nonnegative"):
            FdaConfig(seed=-1)
        with pytest.raises(ConfigError, match="selection method"):
            FdaConfig(selection="truncation")
        selected = np.ones((4, 10), dtype=np.uint8)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="finite"):
                FdaConfig(smoothing=bad)
            with pytest.raises(ConfigError, match="finite"):
                FdaConfig(target_fitness=bad)
            with pytest.raises(ConfigError, match="finite"):
                BoltzmannSelection(beta=bad)
            with pytest.raises(ConfigError, match="finite"):
                estimate(paper_chain(), selected, smoothing=bad)

    def test_smoothing_that_overflows_table_totals_refused(self):
        # 32 cells of 1e308 each: the row total is not a finite float
        selected = np.ones((4, 10), dtype=np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match="overflows"):
                estimate(paper_chain(), selected, smoothing=1e308)
            tables = estimate(paper_chain(), selected, smoothing=1e300)
        assert np.allclose(tables[0], 1 / 32)


class TestEstimateSampleConsistency:
    def test_kl_decreases_with_sample_size(self):
        fact = Factorization(3, (Factor((0, 1), ()), Factor((2,), (1,))))
        true = (np.array([[0.4, 0.1, 0.2, 0.3]]), np.array([[0.7, 0.3], [0.2, 0.8]]))
        rng = np.random.default_rng(0)
        kls = []
        for size in (100, 1_000, 10_000):
            drawn = sample(fact, true, size, rng)
            fitted = estimate(fact, drawn, smoothing=1.0)
            kl = 0.0
            for s in range(8):
                sol = [(s >> (2 - j)) & 1 for j in range(3)]
                p = model_probability(fact, true, sol)
                q = model_probability(fact, fitted, sol)
                if p > 0:
                    kl += p * math.log(p / q)
            kls.append(kl)
        assert kls[0] > kls[1] > kls[2]
        assert kls[2] < 1e-3
