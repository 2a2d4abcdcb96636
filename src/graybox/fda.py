"""Fixed-structure factorized distribution algorithm.

The factorization is an input, never learned: each generation evaluates the
population, selects, fits factor conditionals by smoothed counting, and
ancestral-samples the next population. All randomness flows from one seeded
generator, so a run is reproducible from its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adf import AdfInstance, Bits, bits_to_string, collapse, config_bits, config_index, project
from .errors import ConfigError, StructuralError
from .graphs import Factorization

__all__ = [
    "TruncationSelection",
    "BoltzmannSelection",
    "Population",
    "FactorParams",
    "FdaConfig",
    "GenerationStats",
    "FdaResult",
    "select",
    "estimate",
    "sample",
    "model_probability",
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


@dataclass
class Population:
    """Solutions as a (N, n) 0/1 matrix; fitnesses filled in once evaluated."""

    solutions: np.ndarray
    fitnesses: np.ndarray | None = None

    def __post_init__(self):
        self.solutions = np.asarray(self.solutions, dtype=np.uint8)
        if self.solutions.ndim != 2 or self.solutions.shape[0] < 1:
            raise StructuralError("population needs a nonempty (N, n) solution matrix")
        if self.fitnesses is not None:
            self.fitnesses = np.asarray(self.fitnesses, dtype=float)
            if self.fitnesses.shape != (self.solutions.shape[0],):
                raise StructuralError("fitness list length must match the population")

    @property
    def size(self) -> int:
        return self.solutions.shape[0]


@dataclass(frozen=True)
class FactorParams:
    """Per-factor conditional probability tables, shaped (2^|cond|, 2^|new|)."""

    tables: tuple[np.ndarray, ...]


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
        if self.population_size < 1:
            raise ConfigError("population size must be at least 1")
        if not math.isfinite(self.smoothing) or self.smoothing < 0:
            raise ConfigError(f"smoothing must be finite and nonnegative, got {self.smoothing}")
        if self.target_fitness is not None and not math.isfinite(self.target_fitness):
            raise ConfigError(f"target fitness must be finite, got {self.target_fitness}")
        if self.max_generations < 0:
            raise ConfigError("max generations must be nonnegative")
        if not 0 <= self.elitism <= self.population_size:
            raise ConfigError("elitism must be between 0 and the population size")


def select(
    population: Population,
    method: SelectionMethod,
    rng: np.random.Generator | None = None,
) -> Population:
    """Selection step; Boltzmann selection resamples N solutions with replacement."""
    fitnesses = population.fitnesses
    if fitnesses is None:
        raise StructuralError("population must be evaluated before selection")
    if isinstance(method, TruncationSelection):
        k = max(1, math.ceil(method.tau * population.size))
        idx = np.argsort(-fitnesses, kind="stable")[:k]
    elif isinstance(method, BoltzmannSelection):
        if rng is None:
            raise ConfigError("Boltzmann selection needs a random generator")
        w = np.exp(method.beta * (fitnesses - fitnesses.max()))
        idx = rng.choice(population.size, size=population.size, replace=True, p=w / w.sum())
    else:
        raise ConfigError(f"unknown selection method {method!r}")
    return Population(solutions=population.solutions[idx], fitnesses=fitnesses[idx])


def estimate(
    factorization: Factorization, selected: Population, smoothing: float = 1.0
) -> FactorParams:
    """Maximum-likelihood counts with additive smoothing per configuration.

    Conditioning contexts with no mass (possible only at smoothing 0) fall
    back to the uniform distribution.
    """
    if not math.isfinite(smoothing) or smoothing < 0:
        raise ConfigError(f"smoothing must be finite and nonnegative, got {smoothing}")
    bits = selected.solutions
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
    return FactorParams(tables=tuple(tables))


def _check_params(factorization: Factorization, params: FactorParams) -> None:
    if len(params.tables) != len(factorization.factors):
        raise StructuralError("factor parameter count does not match the factorization")
    for f, table in zip(factorization.factors, params.tables):
        expected = (1 << len(f.cond), 1 << len(f.new))
        if table.shape != expected:
            raise StructuralError(
                f"factor table shape {table.shape} does not match scope sizes {expected}"
            )


def sample(
    factorization: Factorization,
    params: FactorParams,
    count: int,
    rng: np.random.Generator,
) -> Population:
    """Ancestral sampling in factorization order; the result is unevaluated."""
    if count < 1:
        raise ConfigError("sample count must be at least 1")
    _check_params(factorization, params)
    # Factorization guarantees every conditioning variable is sampled earlier.
    bits = np.zeros((count, factorization.n), dtype=np.uint8)
    for f, table in zip(factorization.factors, params.tables):
        cdf = np.cumsum(table, axis=1)[config_index(bits, f.cond)]
        u = rng.random(count)
        new_idx = np.minimum((cdf < u[:, None]).sum(axis=1), (1 << len(f.new)) - 1)
        bits[:, f.new] = config_bits(new_idx, len(f.new))
    return Population(solutions=bits)


def model_probability(
    factorization: Factorization, params: FactorParams, solution: Bits
) -> float:
    """Probability the factorized model assigns to one solution."""
    _check_params(factorization, params)
    if len(solution) != factorization.n:
        raise StructuralError(
            f"solution has {len(solution)} bits, expected {factorization.n}"
        )
    p = 1.0
    for f, table in zip(factorization.factors, params.tables):
        p *= float(table[project(solution, f.cond), project(solution, f.new)])
    return p


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


def model_entropy(factorization: Factorization, params: FactorParams) -> float:
    """Exact entropy of the factorized distribution, in bits.

    Uses the chain rule over factors: H = sum_i sum_c p(cond_i = c) H(new_i | c).
    The weights p(cond_i = c) come from collapsing the joint over the first
    earlier factor whose full scope covers cond_i (true for junction-tree
    factorizations and for the univariate model); raises StructuralError
    when no single earlier factor covers it. Each table's row entropies take
    one pass per distinct nonzero count rather than one per row, and give
    the same floats as summing each row's nonzeros on its own.
    """
    _check_params(factorization, params)
    entropy = 0.0
    scopes: list[tuple[int, ...]] = []  # variable order of each stored joint
    scope_sets: list[set[int]] = []
    joints: list[np.ndarray] = []
    for i, (f, table) in enumerate(zip(factorization.factors, params.tables)):
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
    generations = 0
    for t in range(config.max_generations + 1):
        top = int(np.argmax(fitness))
        if fitness[top] > best_fit:
            best_fit = float(fitness[top])
            best_sol = tuple(int(b) for b in bits[top])
        reached = config.target_fitness is not None and best_fit >= config.target_fitness
        if reached or t == config.max_generations:
            history.append(GenerationStats(t, float(fitness.max()), float(fitness.mean()), None))
            break

        selected = select(Population(bits, fitness), config.selection, rng)
        params = estimate(factorization, selected, config.smoothing)
        try:
            entropy = model_entropy(factorization, params)
        except StructuralError:
            entropy = None
        history.append(GenerationStats(t, float(fitness.max()), float(fitness.mean()), entropy))

        fresh = sample(factorization, params, size - config.elitism, rng) \
            if config.elitism < size else None
        if config.elitism:
            keep = np.argsort(-fitness, kind="stable")[: config.elitism]
            elite_bits, elite_fit = bits[keep], fitness[keep]
        if fresh is None:
            bits, fitness = elite_bits, elite_fit
        else:
            fresh_fit = instance.evaluate_batch(fresh.solutions)
            if config.elitism:
                bits = np.vstack([fresh.solutions, elite_bits])
                fitness = np.concatenate([fresh_fit, elite_fit])
            else:
                bits, fitness = fresh.solutions, fresh_fit
        generations = t + 1

    success = None
    if config.target_fitness is not None:
        success = best_fit >= config.target_fitness
    return FdaResult(
        best_solution=best_sol,
        best_fitness=best_fit,
        history=tuple(history),
        generations=generations,
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
        "config": {
            "population_size": cfg.population_size,
            "selection": selection,
            "smoothing": cfg.smoothing,
            "max_generations": cfg.max_generations,
            "seed": cfg.seed,
            "elitism": cfg.elitism,
            "target_fitness": cfg.target_fitness,
        },
        "history": [
            {
                "generation": h.generation,
                "best": h.best,
                "mean": h.mean,
                "model_entropy": h.model_entropy,
            }
            for h in result.history
        ],
    }
