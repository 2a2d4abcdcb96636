"""Fixed-structure factorized distribution algorithm.

The factorization is an input, never learned: each generation evaluates the
population, selects, fits factor conditionals by smoothed counting, and
ancestral-samples the next population. All randomness flows from one seeded
generator, so a run is reproducible from its config.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .adf import AdfInstance, bits_to_string, check_width, collapse, config_bits, config_index
from .adf import enumeration_limit
from .errors import ConfigError, StructuralError
from .graphs import Factorization
from .marginals import boltzmann_weights

__all__ = [
    "TruncationSelection",
    "BoltzmannSelection",
    "FdaConfig",
    "GenerationStats",
    "FdaResult",
    "select",
    "estimate",
    "sample",
    "model_entropy",
    "run_fda",
    "result_to_json",
]


@dataclass(frozen=True)
class TruncationSelection:
    """Keep the ceil(tau * N) best solutions, ties broken by stable order."""

    tau: float = 0.3

    def __post_init__(self):
        if not 0 < self.tau <= 1:
            raise ConfigError(f"truncation fraction must be finite and in (0, 1], got {self.tau}")


@dataclass(frozen=True)
class BoltzmannSelection:
    """Resample N solutions with probability proportional to exp(beta * fitness)."""

    beta: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ConfigError(f"selection beta must be finite and nonnegative, got {self.beta}")


SelectionMethod = TruncationSelection | BoltzmannSelection


@dataclass(frozen=True)
class FdaConfig:
    population_size: int = 500
    selection: SelectionMethod = field(default_factory=TruncationSelection)
    smoothing: float = 1.0
    max_generations: int = 30
    seed: int = 0
    elitism: int = 1
    target_fitness: float | None = None

    def __post_init__(self):
        if not isinstance(self.selection, SelectionMethod):
            raise ConfigError(f"unknown selection method {self.selection!r}")
        if self.population_size < 1:
            raise ConfigError("population size must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not math.isfinite(self.smoothing) or self.smoothing < 0:
            raise ConfigError(f"smoothing must be finite and nonnegative, got {self.smoothing}")
        if self.target_fitness is not None and not math.isfinite(self.target_fitness):
            raise ConfigError(f"target fitness must be finite, got {self.target_fitness}")
        if self.max_generations < 0:
            raise ConfigError("max generations must be nonnegative")
        if not 0 <= self.elitism <= self.population_size:
            raise ConfigError("elitism must be between 0 and the population size")


def select(fitness: np.ndarray, method: SelectionMethod, rng: np.random.Generator) -> np.ndarray:
    """Row ids of the selected solutions; Boltzmann selection resamples N with replacement."""
    size = len(fitness)
    if isinstance(method, TruncationSelection):
        return np.argsort(-fitness, kind="stable")[: max(1, math.ceil(method.tau * size))]
    w = boltzmann_weights(fitness, method.beta, fitness.max())
    return rng.choice(size, size=size, replace=True, p=w / w.sum())


def estimate(
    factorization: Factorization, bits: np.ndarray, smoothing: float = 1.0
) -> tuple[np.ndarray, ...]:
    """Per-factor conditional tables, shaped (2^|cond|, 2^|new|), from the
    rows of a (N, n) 0/1 matrix: maximum-likelihood counts with additive
    smoothing per configuration.

    Conditioning contexts with no mass (possible only at smoothing 0) fall
    back to the uniform distribution. A factor over more variables than the
    enumeration limit is refused before any table is allocated.
    """
    if not math.isfinite(smoothing) or smoothing < 0:
        raise ConfigError(f"smoothing must be finite and nonnegative, got {smoothing}")
    cap = enumeration_limit()
    for i, f in enumerate(factorization.factors):
        check_width(len(f.cond) + len(f.new), f"table of factor {i}", "|cond|+|new|", cap)
    tables = []
    for f in factorization.factors:
        rows, cols = 1 << len(f.cond), 1 << len(f.new)
        counts = np.bincount(config_index(bits, f.cond + f.new), minlength=rows * cols)
        counts = counts.reshape(rows, cols) + float(smoothing)
        with np.errstate(over="ignore"):
            totals = counts.sum(axis=1, keepdims=True)
        if not np.isfinite(totals).all():
            raise ConfigError(
                f"smoothing {smoothing} overflows the table totals of a factor over "
                f"{len(f.new)} new variables"
            )
        empty = totals[:, 0] == 0
        counts[empty] = 1.0
        totals[empty] = cols
        tables.append(counts / totals)
    return tuple(tables)


def _check_tables(factorization: Factorization, tables: tuple[np.ndarray, ...]) -> None:
    if len(tables) != len(factorization.factors):
        raise StructuralError("factor table count does not match the factorization")
    for f, table in zip(factorization.factors, tables):
        expected = (1 << len(f.cond), 1 << len(f.new))
        if table.shape != expected:
            raise StructuralError(
                f"factor table shape {table.shape} does not match scope sizes {expected}"
            )


def sample(
    factorization: Factorization,
    tables: tuple[np.ndarray, ...],
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ancestral sampling in factorization order: a (count, n) 0/1 matrix."""
    if count < 0:
        raise ConfigError("sample count must be nonnegative")
    _check_tables(factorization, tables)
    # Factorization guarantees every conditioning variable is sampled earlier.
    bits = np.zeros((count, factorization.n), dtype=np.uint8)
    for f, table in zip(factorization.factors, tables):
        cdf = np.cumsum(table, axis=1)[config_index(bits, f.cond)]
        u = rng.random(count)
        new_idx = np.minimum((cdf < u[:, None]).sum(axis=1), (1 << len(f.new)) - 1)
        bits[:, f.new] = config_bits(new_idx, len(f.new))
    return bits


def _row_entropies(tables: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """H(table[c]) in bits for every row c of every table.

    The tables with the same column count are stacked, and the stack's rows
    with the same number m of nonzero entries share one NumPy pass over their
    packed (rows, m) nonzeros, so each row is summed exactly as a 1-D array
    of its nonzeros would be.
    """
    by_width: dict[int, list[int]] = {}
    for i, table in enumerate(tables):
        by_width.setdefault(table.shape[1], []).append(i)
    entropies: dict[int, np.ndarray] = {}
    for ids in by_width.values():
        stack = np.concatenate([tables[i] for i in ids])
        nz = stack > 0
        counts = nz.sum(axis=1)
        h = np.empty(len(stack))
        for m in np.flatnonzero(np.bincount(counts)):
            rows = counts == m
            p = stack[nz & rows[:, None]].reshape(-1, m)
            plogp = np.log2(p)
            plogp *= p
            h[rows] = -plogp.sum(axis=1)
        del stack, nz  # keep one width's copy alive at a time
        ends = np.cumsum([len(tables[i]) for i in ids[:-1]])
        entropies.update(zip(ids, np.split(h, ends)))
    return [entropies[i] for i in range(len(tables))]


def model_entropy(factorization: Factorization, tables: tuple[np.ndarray, ...]) -> float:
    """Exact entropy of the factorized distribution, in bits.

    Uses the chain rule over factors: H = sum_i sum_c p(cond_i = c) H(new_i | c).
    The weights p(cond_i = c) come from collapsing the joint over the first
    earlier factor whose full scope covers cond_i, which
    Factorization.covers finds once per factorization. Such a factor exists
    in junction-tree factorizations and the univariate model; when none
    does, StructuralError names the first factor without one. The row
    entropies of all tables of one width take one pass per distinct nonzero
    count and give the same floats as summing each row's nonzeros on its
    own.
    """
    _check_tables(factorization, tables)
    factors, covers = factorization.factors, factorization.covers
    for i, f in enumerate(factors):
        if f.cond and covers[i] is None:
            raise StructuralError(
                f"factor {i} conditioning set {f.cond} spans multiple factors; "
                "entropy needs junction-tree-shaped factorizations"
            )
    entropy = 0.0
    joints: list[np.ndarray] = []  # over cond + new of each factor
    for f, cover, table, h in zip(factors, covers, tables, _row_entropies(tables)):
        if f.cond:
            source = factors[cover]
            weights = collapse(joints[cover], source.cond + source.new, f.cond)
        else:
            weights = np.ones(1)
        terms = (weights * h)[weights > 0]
        if len(terms):  # cumsum adds left to right; sum() would add pairwise
            entropy += float(terms.cumsum()[-1])
        joints.append((weights[:, None] * table).reshape(-1))
    return entropy


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best: float
    mean: float
    model_entropy: float | None


@dataclass(frozen=True)
class FdaResult:
    best_solution: tuple[int, ...]
    best_fitness: float
    history: tuple[GenerationStats, ...]
    generations: int
    success: bool | None
    config: FdaConfig


def run_fda(instance: AdfInstance, factorization: Factorization, config: FdaConfig) -> FdaResult:
    """Evaluate / select / estimate / sample loop with elitism.

    Stops after max_generations model updates or as soon as target_fitness
    is reached. Identical config and seed give identical results.
    """
    if factorization.n != instance.n:
        raise StructuralError(
            f"factorization covers {factorization.n} variables, instance has {instance.n}"
        )
    rng = np.random.default_rng(config.seed)
    n, size = instance.n, config.population_size
    bits = rng.integers(0, 2, size=(size, n), dtype=np.uint8)
    fitness = instance.evaluate_batch(bits)

    best_fit = -math.inf
    best_sol: tuple[int, ...] = ()
    history: list[GenerationStats] = []
    for t in range(config.max_generations + 1):
        top = int(np.argmax(fitness))
        if fitness[top] > best_fit:
            best_fit = float(fitness[top])
            best_sol = tuple(int(b) for b in bits[top])
        reached = config.target_fitness is not None and best_fit >= config.target_fitness
        if reached or t == config.max_generations:
            history.append(GenerationStats(t, float(fitness.max()), float(fitness.mean()), None))
            break

        tables = estimate(factorization, bits[select(fitness, config.selection, rng)],
                          config.smoothing)
        try:
            entropy = model_entropy(factorization, tables)
        except StructuralError:
            entropy = None
        history.append(GenerationStats(t, float(fitness.max()), float(fitness.mean()), entropy))

        # Sampled rows, then the elite best first; elitism 0 keeps no row and
        # elitism N samples none.
        keep = np.argsort(-fitness, kind="stable")[: config.elitism]
        fresh = sample(factorization, tables, size - config.elitism, rng)
        bits = np.vstack([fresh, bits[keep]])
        fitness = np.concatenate([instance.evaluate_batch(fresh), fitness[keep]])

    success = None if config.target_fitness is None else best_fit >= config.target_fitness
    return FdaResult(
        best_solution=best_sol,
        best_fitness=best_fit,
        history=tuple(history),
        generations=len(history) - 1,
        success=success,
        config=config,
    )


def result_to_json(result: FdaResult) -> dict:
    cfg = result.config
    if isinstance(cfg.selection, TruncationSelection):
        selection = {"method": "truncation", "tau": cfg.selection.tau}
    else:
        selection = {"method": "boltzmann", "beta": cfg.selection.beta}
    return {
        "best": bits_to_string(result.best_solution),
        "fitness": result.best_fitness,
        "generations": result.generations,
        "success": result.success,
        "config": {**asdict(cfg), "selection": selection},
        "history": [asdict(h) for h in result.history],
    }
