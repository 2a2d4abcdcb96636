"""n-sweeps for the traced run: how a layer's cost grows, not only its constant.

Each sweep times a library call directly (tracing off) at three sizes and
reports every point plus the least-squares slope of log(cost) on log(n).
For enumeration, whose cost doubles with each variable, that slope is about
n ln 2 rather than a polynomial degree. Times are normalized like every
other timing of the benchmark (see run.Runner.time).
Sizes stay below the n=10000 structure build, which runs out of memory on a
machine with 8 GB. Points are named by their full-size n; the self-test's
tiny mode runs smaller n under the same names.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

SWEEPS = {
    # workload -> (sweep, full-size n, tiny n)
    "analyze-structure": ("structure", (250, 500, 1000), (20, 40, 80)),
    "optimize-climb": ("climb", (1000, 2000, 4000), (100, 200, 400)),
    "analyze-exact": ("enumerate", (16, 18, 20), (8, 9, 10)),
}

SWEEP_SERIES = {
    "structure": ("graphs.triangulate_s", "graphs.junction_tree_s"),
    "climb": ("climb.us_per_move_best", "climb.us_per_move_first"),
    "enumerate": ("marginals.enumerate_s",),
}
SERIES_UNIT = {
    "graphs.triangulate_s": "s",
    "graphs.junction_tree_s": "s",
    "climb.us_per_move_best": "us",
    "climb.us_per_move_first": "us",
    "marginals.enumerate_s": "s",
}
CLIMB_MOVES_PER_POINT = 8000  # starts per point: max(2, this / n)
ENUM_REPS = 3


def metric_units() -> dict[str, str]:
    """Every sweep metric name with its unit."""
    out = {}
    for sweep, sizes, _ in SWEEPS.values():
        for series in SWEEP_SERIES[sweep]:
            for n in sizes:
                out[f"{series}.n{n}"] = SERIES_UNIT[series]
            out[f"{series}.slope"] = "exponent"
    return out


def slope(ns, ys) -> float:
    """Least-squares slope of log(y) against log(n)."""
    xs = [math.log(n) for n in ns]
    ls = [math.log(y) for y in ys]
    mx, my = statistics.fmean(xs), statistics.fmean(ls)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ls)) / sum((x - mx) ** 2 for x in xs)


def _structure(gb, clock, n, seed):
    adf, graphs = gb["adf"], gb["graphs"]
    inst = adf.generate(adf.GeneratorSpec(kind=adf.ADJACENT_CYCLIC, n=n, k=5, seed=seed))
    vig = graphs.build_vig(inst)
    completion, tri_s = clock.time(lambda: graphs.triangulate(vig, graphs.MIN_FILL))
    _, jt_s = clock.time(lambda: graphs.junction_tree(completion))
    return {"graphs.triangulate_s": tri_s, "graphs.junction_tree_s": jt_s}


def _climb(gb, clock, n, seed):
    """Microseconds per move, DeltaState construction included, per pivot rule."""
    adf, climb = gb["adf"], gb["climb"]
    inst = adf.generate(adf.GeneratorSpec(kind=adf.ADJACENT_CYCLIC, n=n, k=5, seed=seed))
    rng = np.random.default_rng(seed)
    starts = [tuple(int(b) for b in rng.integers(0, 2, size=n))
              for _ in range(max(2, CLIMB_MOVES_PER_POINT // n))]
    out = {}
    for pivot in (climb.PIVOT_BEST, climb.PIVOT_FIRST):
        spent, moves = 0.0, 0
        for i, start in enumerate(starts):
            policy = climb.ClimbPolicy(pivot=pivot, seed=seed + i)
            result, dt = clock.time(lambda: climb.hill_climb(inst, start, policy))
            spent += dt
            moves += result.moves
        out[f"climb.us_per_move_{pivot}"] = 1e6 * spent / moves
    return out


def _enumerate(gb, clock, n, seed):
    adf, marginals = gb["adf"], gb["marginals"]
    inst = adf.generate(adf.GeneratorSpec(kind=adf.ADJACENT_CYCLIC, n=n, k=3,
                                          codomain=adf.CODOMAIN_FOUR_OPTIMA, seed=seed))
    times = [
        clock.time(lambda: marginals.enumerate_marginal(inst, (0, 1, 2), marginals.STAT_SUM))[1]
        for _ in range(ENUM_REPS)
    ]
    return {"marginals.enumerate_s": statistics.median(times)}


_RUNNERS = {"structure": _structure, "climb": _climb, "enumerate": _enumerate}


def run(gb, clock, workload: str, seed: int, tiny: bool) -> dict[str, float]:
    """Sweep metrics for `workload`; every other sweep metric reads 0.
    `clock.time(fn)` returns (fn(), normalized seconds)."""
    out = dict.fromkeys(metric_units(), 0.0)
    if workload not in SWEEPS:
        return out
    sweep, full, small = SWEEPS[workload]
    points = [_RUNNERS[sweep](gb, clock, n, seed * 1000 + 100 + i)
              for i, n in enumerate(small if tiny else full)]
    for series in SWEEP_SERIES[sweep]:
        ys = [p[series] for p in points]
        for n, y in zip(full, ys):
            out[f"{series}.n{n}"] = y
        out[f"{series}.slope"] = slope(small if tiny else full, ys)
    return out
