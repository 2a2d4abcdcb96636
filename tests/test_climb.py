"""Delta-evaluating hill climber: cache consistency, oracles, pair moves."""

import numpy as np
import pytest

from graybox import climb, graphs
from graybox.adf import (
    RANDOM_SCOPES,
    SEPARABLE,
    AdfInstance,
    GeneratorSpec,
    Subfunction,
    Visibility,
    generate,
    paper_example,
    parse,
    serialize,
)
from graybox.climb import (
    ClimbPolicy,
    DeltaState,
    apply_flip,
    delta_flip,
    delta_pair,
    hill_climb,
    init_state,
    pair_candidates,
)
from graybox.errors import ConfigError, StructuralError, VisibilityError
from graybox.graphs import build_vig


def flip(bits, i):
    out = list(bits)
    out[i] ^= 1
    return out


def true_deltas(instance, bits):
    base = instance.evaluate(bits)
    return [instance.evaluate(flip(bits, i)) - base for i in range(instance.n)]


def improving(state):
    """The variables whose cached flip delta is positive."""
    return set(np.flatnonzero(state.deltas > 0).tolist())


class TestInitState:
    def test_all_ones_is_local_optimum(self):
        state = init_state(paper_example(), [1] * 10)
        assert state.fitness == 10.0
        assert improving(state) == set()

    def test_all_zeros(self):
        state = init_state(paper_example(), [0] * 10)
        assert state.fitness == 5.0

    def test_cache_equals_evaluate(self):
        inst = generate(GeneratorSpec(RANDOM_SCOPES, n=12, k=3, m=10, seed=4))
        rng = np.random.default_rng(0)
        for _ in range(20):
            start = list(rng.integers(0, 2, size=12))
            state = init_state(inst, start)
            assert state.fitness == pytest.approx(inst.evaluate(start), abs=1e-12)

    def test_visibility_refused(self):
        inst = AdfInstance(
            2,
            (Subfunction((0, 1), (0.0, 1.0, 1.0, 0.0)),),
            wgb=(Visibility.BLACK, Visibility.WHITE),
        )
        with pytest.raises(VisibilityError):
            init_state(inst, [0, 0])


class TestDeltaFlip:
    def test_optimum_has_no_improving_flip(self):
        state = init_state(paper_example(), [1] * 10)
        for i in range(10):
            assert delta_flip(state, i) <= 0

    def test_single_subfunction(self):
        inst = AdfInstance(1, (Subfunction((0,), (0.0, 1.0)),))
        state = init_state(inst, [0])
        assert delta_flip(state, 0) == 1.0

    def test_involution(self):
        inst = paper_example()
        rng = np.random.default_rng(1)
        for _ in range(30):
            start = list(rng.integers(0, 2, size=10))
            i = int(rng.integers(10))
            state = init_state(inst, start)
            d = delta_flip(state, i)
            apply_flip(state, i)
            assert delta_flip(state, i) == pytest.approx(-d, abs=1e-12)

    def test_matches_full_reevaluation(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            inst = generate(GeneratorSpec(RANDOM_SCOPES, n=11, k=3, m=11, seed=seed))
            start = list(rng.integers(0, 2, size=11))
            state = init_state(inst, start)
            expected = true_deltas(inst, start)
            for i in range(11):
                assert delta_flip(state, i) == pytest.approx(expected[i], abs=1e-9)

    def test_cost_is_incidence_count(self):
        inst = paper_example()
        state = init_state(inst, [0] * 10)
        for i in range(10):
            before = state.eval_count
            delta_flip(state, i)
            c_i = sum(i in sub.scope for sub in inst.subfunctions)
            assert state.eval_count - before == c_i == 3

    def test_index_error(self):
        state = init_state(paper_example(), [0] * 10)
        with pytest.raises(StructuralError):
            delta_flip(state, 10)


class TestApplyFlip:
    def test_flip_twice_restores_state(self):
        state = init_state(paper_example(), [0, 1] * 5)
        before = (list(state.bits), state.fitness, improving(state), state.deltas.tolist())
        apply_flip(state, 4)
        apply_flip(state, 4)
        assert list(state.bits) == before[0]
        assert state.fitness == pytest.approx(before[1], abs=1e-12)
        assert improving(state) == before[2]
        assert state.deltas.tolist() == pytest.approx(before[3])

    def test_fitness_cache_tracks_delta(self):
        state = init_state(paper_example(), [0] * 10)
        d = delta_flip(state, 3)
        old = state.fitness
        apply_flip(state, 3)
        assert state.fitness == pytest.approx(old + d, abs=1e-12)

    def test_buffer_matches_scratch_rebuild(self):
        rng = np.random.default_rng(3)
        for seed in range(6):
            inst = generate(
                GeneratorSpec(RANDOM_SCOPES, n=10, k=3, m=10, seed=seed, codomain="uniform")
            )
            state = init_state(inst, list(rng.integers(0, 2, size=10)))
            for _ in range(15):
                i = int(rng.integers(10))
                apply_flip(state, i)
                expected = {
                    v: d for v, d in enumerate(true_deltas(inst, state.bits)) if d > 0
                }
                assert improving(state) == set(expected)
                for v in expected:
                    assert state.deltas[v] == pytest.approx(expected[v], abs=1e-9)


class TestHillClimb:
    def test_start_at_optimum_zero_moves(self):
        result = hill_climb(paper_example(), [1] * 10)
        assert result.moves == 0
        assert result.solution == (1,) * 10
        assert result.converged

    def test_trajectory_strictly_increasing(self):
        inst = paper_example()
        seen = []
        hill_climb(inst, [0] * 10, ClimbPolicy(), trace=lambda e: seen.append(e["fitness"]))
        assert all(b > a for a, b in zip([inst.evaluate([0] * 10)] + seen, seen))

    def test_random_starts_reach_one_bit_optima(self):
        inst = paper_example()
        rng = np.random.default_rng(4)
        for _ in range(1000):
            start = list(rng.integers(0, 2, size=10))
            result = hill_climb(inst, start)
            assert result.converged
            rescan = init_state(inst, result.solution)  # full rebuild oracle
            assert improving(rescan) == set()

    def test_first_improvement_deterministic(self):
        inst = paper_example()
        policy = ClimbPolicy(pivot="first", seed=11)
        rng = np.random.default_rng(5)
        for _ in range(20):
            start = list(rng.integers(0, 2, size=10))
            a = hill_climb(inst, start, policy)
            b = hill_climb(inst, start, policy)
            assert a == b
            assert improving(init_state(inst, a.solution)) == set()

    def test_pair_moves_dominate_single_bit(self):
        inst = paper_example()
        rng = np.random.default_rng(6)
        for _ in range(50):
            start = list(rng.integers(0, 2, size=10))
            single = hill_climb(inst, start, ClimbPolicy())
            paired = hill_climb(inst, start, ClimbPolicy(pair_moves=True))
            assert paired.fitness >= single.fitness

    def test_pair_termination_has_no_improving_pair(self):
        inst = paper_example()
        rng = np.random.default_rng(7)
        for _ in range(30):
            start = list(rng.integers(0, 2, size=10))
            result = hill_climb(inst, start, ClimbPolicy(pair_moves=True))
            state = init_state(inst, result.solution)
            assert improving(state) == set()
            for u, v in pair_candidates(state):
                assert delta_pair(state, u, v) <= 0

    def test_max_moves_cutoff_distinct_from_convergence(self):
        result = hill_climb(paper_example(), [0] * 10, ClimbPolicy(max_moves=1))
        assert result.moves == 1
        assert not result.converged
        full = hill_climb(paper_example(), [0] * 10, ClimbPolicy(max_moves=50))
        assert full.converged

    def test_max_moves_cuts_a_pair_move(self):
        # 00 is a 1-bit local optimum; only the pair flip to 11 improves
        trap = AdfInstance(n=2, subfunctions=(Subfunction((0, 1), (1.0, 0.0, 0.0, 2.0)),))
        events = []
        full = hill_climb(trap, [0, 0], ClimbPolicy(pair_moves=True), trace=events.append)
        assert (full.solution, full.moves, full.converged) == ((1, 1), 1, True)
        assert events == [{"move": 1, "variables": [0, 1], "delta": 1.0, "fitness": 2.0}]
        cut = hill_climb(trap, [0, 0], ClimbPolicy(pair_moves=True, max_moves=0))
        assert (cut.solution, cut.moves, cut.converged) == ((0, 0), 0, False)
        assert hill_climb(trap, [0, 0], ClimbPolicy(max_moves=0)).converged

    @pytest.mark.parametrize("pivot", ["best", "first"])
    def test_fitness_and_trace_numbers_are_python_floats(self, pivot):
        # under NumPy 2 an np.float64 would show as np.float64(...) in reprs
        events = []
        result = hill_climb(paper_example(), [0] * 10, ClimbPolicy(pivot=pivot),
                            trace=events.append)
        assert type(result.fitness) is float
        assert events
        for event in events:
            assert type(event["delta"]) is float and type(event["fitness"]) is float

    @pytest.mark.parametrize("kwargs", [{"pivot": "worst"}, {"max_moves": -1}, {"seed": -1}])
    def test_bad_policy_is_a_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            ClimbPolicy(**kwargs)


class TestPairCandidates:
    def test_paper_edge_count(self):
        state = init_state(paper_example(), [1] * 10)
        pairs = pair_candidates(state)
        assert len(pairs) == 20
        assert set(pairs) == set(build_vig(paper_example()).edges)

    def test_separable_blocks(self):
        inst = generate(GeneratorSpec(SEPARABLE, n=6, k=3, codomain="four-optima", seed=0))
        state = init_state(inst, [1] * 6)  # all-ones optimal for four-optima codomains
        assert improving(state) == set()
        assert len(pair_candidates(state)) == 6  # 3 per block

    def test_two_variable_instance(self):
        inst = AdfInstance(2, (Subfunction((0, 1), (1.0, 0.0, 0.0, 1.0)),))
        state = init_state(inst, [0, 0])
        assert pair_candidates(state) == ((0, 1),)

    def test_precondition_enforced(self):
        state = init_state(paper_example(), [0] * 10)
        assert improving(state)
        with pytest.raises(StructuralError, match="no single flip improves"):
            pair_candidates(state)

    def test_nonadjacent_pair_delta_is_additive(self):
        # for variables sharing no subfunction the pair delta is exactly the sum
        inst = generate(GeneratorSpec(SEPARABLE, n=6, k=3, seed=1))
        rng = np.random.default_rng(8)
        for _ in range(20):
            state = init_state(inst, list(rng.integers(0, 2, size=6)))
            u, v = 0, 3  # different blocks
            assert delta_pair(state, u, v) == pytest.approx(
                delta_flip(state, u) + delta_flip(state, v), abs=1e-12
            )


class TestSharedStructure:
    """Every start reads the structure cached on the instance; none rebuilds it."""

    def test_starts_on_one_instance_match_fresh_copies(self, monkeypatch):
        text = serialize(generate(GeneratorSpec(RANDOM_SCOPES, n=30, k=4, m=40, seed=7)))
        shared = parse(text)
        states = []
        real_init = climb.init_state

        def recording_init(instance, start):
            states.append(real_init(instance, start))
            return states[-1]

        monkeypatch.setattr(climb, "init_state", recording_init)
        rng = np.random.default_rng(0)
        views = (shared.incidence, shared.neighbors, shared.edges)
        for pivot in ("best", "first"):
            policy = ClimbPolicy(pivot=pivot, pair_moves=True, seed=3)
            for _ in range(3):
                start = [int(b) for b in rng.integers(0, 2, size=shared.n)]
                on_shared = hill_climb(shared, start, policy)
                on_fresh = hill_climb(parse(text), start, policy)
                assert on_shared == on_fresh
                assert states[-2].eval_count == states[-1].eval_count
        for view, now in zip(views, (shared.incidence, shared.neighbors, shared.edges)):
            assert view is now

    def test_climbs_without_building_the_vig(self, monkeypatch):
        inst = generate(GeneratorSpec(RANDOM_SCOPES, n=12, k=3, m=10, seed=1))
        policy = ClimbPolicy(pair_moves=True)
        expected = hill_climb(inst, [0] * 12, policy)

        def refuse(instance):
            raise AssertionError("build_vig called")

        monkeypatch.setattr(graphs, "build_vig", refuse)
        monkeypatch.setattr(climb, "build_vig", refuse)
        fresh = generate(GeneratorSpec(RANDOM_SCOPES, n=12, k=3, m=10, seed=1))
        assert hill_climb(fresh, [0] * 12, policy) == expected
        state = DeltaState(fresh, [1] * 12)
        apply_flip(state, 0)
        assert state.fitness == fresh.evaluate([0] + [1] * 11)
