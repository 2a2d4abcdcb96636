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

from .adf import AdfInstance, bits_to_string, collapse, config_bits, config_index
from .errors import ConfigError, StructuralError
from .graphs import Factorization

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
            raise ConfigError(f"truncation fraction must be in (0, 1], got {self.tau}")


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
    # An overflowing beta * (f - fmax) is -inf: weight 0, the beta -> inf limit.
    with np.errstate(over="ignore"):
        w = np.exp(method.beta * (fitness - fitness.max()))
    return rng.choice(size, size=size, replace=True, p=w / w.sum())


def estimate(
    factorization: Factorization, bits: np.ndarray, smoothing: float = 1.0
) -> tuple[np.ndarray, ...]:
    """Per-factor conditional tables, shaped (2^|cond|, 2^|new|), from the
    rows of a (N, n) 0/1 matrix: maximum-likelihood counts with additive
    smoothing per configuration.

    Conditioning contexts with no mass (possible only at smoothing 0) fall
    back to the uniform distribution.
    """
    if not math.isfinite(smoothing) or smoothing < 0:
        raise ConfigError(f"smoothing must be finite and nonnegative, got {smoothing}")
    tables = []
    for f in factorization.factors:
        rows, cols = 1 << len(f.cond), 1 << len(f.new)
        counts = np.zeros((rows, cols))
        np.add.at(counts, (config_index(bits, f.cond), config_index(bits, f.new)), 1.0)
        counts += smoothing
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


def _weighted_row_entropy(table: np.ndarray, weights: np.ndarray) -> float:
    """Sum over rows c with weights[c] > 0 of weights[c] * H(table[c]), in bits.

    Rows with the same number m of nonzero entries share one NumPy pass over
    their packed (rows, m) nonzeros, so each row is summed exactly as a 1-D
    array of its nonzeros would be; the weighted terms are added in row order.
    """
    nz = table > 0
    counts = nz.sum(axis=1)
    h = np.zeros(len(table))
    for m in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero(counts == m)
        p = table[rows][nz[rows]].reshape(len(rows), m)
        h[rows] = -(p * np.log2(p)).sum(axis=1)
    # Iterate np.float64 items: Python's sum() compensates exact floats from
    # 3.12 on (so no .tolist() and no math.fsum), which would change bits.
    return float(sum((weights * h)[weights > 0]))


def model_entropy(factorization: Factorization, tables: tuple[np.ndarray, ...]) -> float:
    """Exact entropy of the factorized distribution, in bits.

    Uses the chain rule over factors: H = sum_i sum_c p(cond_i = c) H(new_i | c).
    The weights p(cond_i = c) come from collapsing the joint over the first
    earlier factor whose full scope covers cond_i (true for junction-tree
    factorizations and for the univariate model); raises StructuralError
    when no single earlier factor covers it. Each table's row entropies take
    one pass per distinct nonzero count rather than one per row, and give
    the same floats as summing each row's nonzeros on its own.
    """
    _check_tables(factorization, tables)
    entropy = 0.0
    scopes: list[tuple[int, ...]] = []  # variable order of each stored joint
    scope_sets: list[set[int]] = []
    joints: list[np.ndarray] = []
    for i, (f, table) in enumerate(zip(factorization.factors, tables)):
        if not f.cond:
            weights = np.ones(1)
        else:
            cond = set(f.cond)
            cover = next((j for j, s in enumerate(scope_sets) if cond <= s), None)
            if cover is None:
                raise StructuralError(
                    f"factor {i} conditioning set {f.cond} spans multiple factors; "
                    "entropy needs junction-tree-shaped factorizations"
                )
            weights = collapse(joints[cover], scopes[cover], f.cond)
        entropy += _weighted_row_entropy(table, weights)
        scopes.append(f.cond + f.new)
        scope_sets.append(set(scopes[-1]))
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
