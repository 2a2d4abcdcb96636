"""Exhaustive marginal statistics, Boltzmann marginals, deception reports."""

import math

import numpy as np
import pytest

from graybox.adf import (
    RANDOM_SCOPES,
    AdfInstance,
    GeneratorSpec,
    Subfunction,
    collapse,
    generate,
    order_scopes,
    paper_example,
    project,
)
from graybox.errors import CapacityError, StructuralError
from graybox.marginals import (
    STAT_BOLTZMANN,
    STAT_MEAN,
    STAT_SUM,
    deception_report,
    enumerate_marginal,
    enumerate_marginals,
    max_configs,
    tables_to_tsv,
)
from graybox.replicate import jt_scopes, load_golden
from oracles import exhaustive_optimum

# Golden-table alignment (see graybox/golden/*.tsv): column t of the published
# order-j tables is the window starting at (t-2) mod 10.
COL1_ORDER3 = (9, 0, 1)
COL1_ORDER3_VALUES = (768.0, 512.0, 512.0, 512.0, 640.0, 640.0, 768.0, 768.0)


def joint_boltzmann(instance, beta):
    """The Boltzmann distribution over all 2^n solutions, indexed by solution id."""
    table = enumerate_marginal(instance, tuple(range(instance.n)), STAT_BOLTZMANN, beta)
    return np.array(table.values)


class TestEnumerateMarginal:
    def test_order3_first_column(self):
        table = enumerate_marginal(paper_example(), COL1_ORDER3, STAT_SUM)
        assert table.values == COL1_ORDER3_VALUES

    def test_order4_first_column_all_ones(self):
        table = enumerate_marginal(paper_example(), (9, 0, 1, 2), STAT_SUM)
        assert table.values[0b1111] == 416.0

    def test_clique_first_column_all_ones(self):
        table = enumerate_marginal(paper_example(), (0, 1, 2, 8, 9), STAT_SUM)
        assert table.values[0b11111] == 216.0

    def test_all_golden_columns(self):
        inst = paper_example()
        for name, scopes in [
            ("order3", order_scopes(inst, 3)),
            ("order4", order_scopes(inst, 4)),
            ("order5", order_scopes(inst, 5)),
            ("clique5", jt_scopes(inst)[1]),
        ]:
            golden = load_golden(name)
            for scope in scopes:
                key = ",".join(str(v) for v in scope)
                table = enumerate_marginal(inst, scope, STAT_SUM)
                for cfg, value in enumerate(table.values):
                    assert value == golden[key][format(cfg, f"0{len(scope)}b")]

    def test_partition_property(self):
        # total of a sum-table equals the sum of fitness over the whole space
        rng = np.random.default_rng(2)
        for seed in range(5):
            inst = generate(GeneratorSpec(RANDOM_SCOPES, n=10, k=3, m=8, seed=seed))
            total = float(
                inst.evaluate_batch(
                    ((np.arange(1 << 10)[:, None] >> np.arange(9, -1, -1)) & 1)
                ).sum()
            )
            for _ in range(3):
                j = int(rng.integers(1, 5))
                scope = tuple(sorted(rng.choice(10, size=j, replace=False)))
                table = enumerate_marginal(inst, scope, STAT_SUM)
                assert sum(table.values) == pytest.approx(total, abs=1e-9)

    def test_mean_is_scaled_sum(self):
        inst = paper_example()
        s = enumerate_marginal(inst, (1, 2, 3), STAT_SUM)
        m = enumerate_marginal(inst, (1, 2, 3), STAT_MEAN)
        assert all(mv == sv / 2**7 for mv, sv in zip(m.values, s.values))

    def test_marginal_consistency(self):
        # summing a sum-table over extra variables gives the smaller scope's table
        inst = paper_example()
        big = enumerate_marginal(inst, (1, 2, 3, 4), STAT_SUM)
        small = enumerate_marginal(inst, (2, 4), STAT_SUM)
        collapsed = collapse(big.values, big.scope, (2, 4))
        assert tuple(collapsed) == pytest.approx(small.values)

    def test_scope_validation(self):
        inst = paper_example()
        with pytest.raises(StructuralError):
            enumerate_marginal(inst, (0, 10))
        with pytest.raises(StructuralError):
            enumerate_marginal(inst, (1, 1))
        with pytest.raises(StructuralError):
            enumerate_marginal(inst, ())

    def test_capacity_refusal(self, monkeypatch):
        # the cap is inclusive: n equal to it enumerates, one above is refused
        inst = paper_example()
        monkeypatch.setenv("GRAYBOX_MAX_ENUM_VARS", "10")
        assert enumerate_marginal(inst, (0, 1)).values
        monkeypatch.setenv("GRAYBOX_MAX_ENUM_VARS", "9")
        with pytest.raises(CapacityError, match="n=10 exceeds limit 9"):
            enumerate_marginal(inst, (0, 1))

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("GRAYBOX_MAX_ENUM_VARS", "9")
        with pytest.raises(CapacityError):
            enumerate_marginal(paper_example(), (0, 1))

    def test_tsv_matches_golden_file(self):
        from importlib import resources

        inst = paper_example()
        tables = [enumerate_marginal(inst, s, STAT_SUM) for s in order_scopes(inst, 3)]
        golden_text = resources.files("graybox").joinpath("golden/order3.tsv").read_text()
        assert tables_to_tsv(tables) == golden_text


class TestBoltzmann:
    def test_beta_zero_uniform_exact(self):
        probabilities = joint_boltzmann(paper_example(), 0.0)
        assert np.all(probabilities == 2.0**-10)

    def test_sums_to_one(self):
        for beta in (0.0, 0.5, 2.0, 10.0):
            probabilities = joint_boltzmann(paper_example(), beta)
            assert abs(probabilities.sum() - 1.0) < 1e-12
            assert np.all(probabilities >= 0)

    def test_mode_at_optimum(self):
        for beta in (0.1, 1.0, 5.0):
            probabilities = joint_boltzmann(paper_example(), beta)
            assert int(np.argmax(probabilities)) == (1 << 10) - 1

    def test_two_solution_toy(self):
        inst = AdfInstance(1, (Subfunction((0,), (0.0, math.log(2.0))),))
        probabilities = joint_boltzmann(inst, 1.0)
        assert probabilities[project((1,), (0,))] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert probabilities[project((0,), (0,))] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_negative_beta_rejected(self):
        with pytest.raises(StructuralError):
            enumerate_marginal(paper_example(), (0, 1), STAT_BOLTZMANN, beta=-1.0)

    def test_marginal_consistent_with_full_distribution(self):
        inst = generate(GeneratorSpec(RANDOM_SCOPES, n=9, k=3, m=7, seed=3))
        probabilities = joint_boltzmann(inst, 1.5)
        scope = (1, 4, 7)
        table = enumerate_marginal(inst, scope, STAT_BOLTZMANN, beta=1.5)
        assert abs(sum(table.values) - 1.0) < 1e-12
        direct = np.zeros(8)
        for s in range(1 << 9):
            sol = [(s >> (8 - j)) & 1 for j in range(9)]
            direct[project(sol, scope)] += probabilities[s]
        assert table.values == pytest.approx(direct, abs=1e-12)


class TestMaxConfigs:
    def test_order3_column1_ties(self):
        table = enumerate_marginal(paper_example(), COL1_ORDER3, STAT_SUM)
        assert set(max_configs(table)) == {0b000, 0b110, 0b111}

    def test_order5_column9_ties(self):
        table = enumerate_marginal(paper_example(), (7, 8, 9, 0, 1), STAT_SUM)
        assert set(max_configs(table)) == {0b00000, 0b10000}

    def test_constant_table_total_tie(self):
        inst = AdfInstance(3, (Subfunction((0, 1, 2), (1.0,) * 8),))
        table = enumerate_marginal(inst, (0, 1), STAT_SUM)
        assert max_configs(table) == (0, 1, 2, 3)


class TestDeception:
    def test_published_deceptive_sets(self):
        inst = paper_example()
        optimum = (1,) * 10
        report = deception_report(enumerate_marginals(inst, order_scopes(inst, 3)), optimum)
        assert report.deceptive_ids == {3, 8, 9}
        report = deception_report(enumerate_marginals(inst, order_scopes(inst, 4)), optimum)
        assert report.deceptive_ids == {10}
        report = deception_report(enumerate_marginals(inst, order_scopes(inst, 5)), optimum)
        assert report.deceptive_ids == {9}
        report = deception_report(enumerate_marginals(inst, jt_scopes(inst)[1]), optimum)
        assert report.deceptive_ids == frozenset()

    def test_sum_mean_invariance(self):
        inst = paper_example()
        optimum = (1,) * 10
        for order in (3, 4, 5):
            scopes = order_scopes(inst, order)
            by_sum = deception_report(enumerate_marginals(inst, scopes, STAT_SUM), optimum)
            by_mean = deception_report(enumerate_marginals(inst, scopes, STAT_MEAN), optimum)
            assert by_sum.deceptive_ids == by_mean.deceptive_ids
            for a, b in zip(by_sum.entries, by_mean.entries):
                assert a.best_configs == b.best_configs

    def test_optimum_length_checked(self):
        with pytest.raises(StructuralError):
            deception_report(enumerate_marginals(paper_example(), [(0, 1, 2)]), (1,) * 9)


class TestExhaustiveOptimum:
    def test_paper_unique_optimum(self):
        solutions, fitness = exhaustive_optimum(paper_example())
        assert solutions == ((1,) * 10,)
        assert fitness == 10.0

    def test_separable_cartesian_product(self):
        # two blocks, each with two tied local optima: 2 x 2 global optima
        block = (0.0, 1.0, 1.0, 0.0)  # optima at 01 and 10
        inst = AdfInstance(4, (Subfunction((0, 1), block), Subfunction((2, 3), block)))
        solutions, fitness = exhaustive_optimum(inst)
        assert fitness == 2.0
        assert set(solutions) == {
            (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)
        }

    def test_constant_function(self):
        inst = AdfInstance(3, (Subfunction((0, 1, 2), (2.5,) * 8),))
        solutions, fitness = exhaustive_optimum(inst)
        assert fitness == 2.5
        assert len(solutions) == 8

    def test_capacity(self, monkeypatch):
        monkeypatch.setenv("GRAYBOX_MAX_ENUM_VARS", "5")
        with pytest.raises(CapacityError):
            exhaustive_optimum(paper_example())
