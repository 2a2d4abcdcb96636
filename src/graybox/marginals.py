"""Exact statistics over all 2^n solutions of small search spaces.

Factor/hyperplane marginal tables (sums, means and Boltzmann marginals) and
the deception diagnostic: a factor is deceptive when no best-statistic
configuration matches the projection of a reference optimum. Sum and mean
tables of a white-box instance with integer codomain values, small enough
that every partial sum is an exact float, come from the additive structure
in O(M*(2^k + 2^j)) per table of j variables, bit-identical to enumeration.
Every other table (Boltzmann marginals, non-integer or large values, hidden
structure) sweeps all 2^n solutions. Both paths refuse above a configurable
variable limit instead of subsampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .adf import AdfInstance, Bits, _check_range, _validate_scope, check_bits, check_width, collapse
from .adf import config_bits, config_index, config_string, project, scope_label
from .errors import StructuralError

STAT_SUM = "sum"
STAT_MEAN = "mean"
STAT_BOLTZMANN = "boltzmann"
STATS = (STAT_SUM, STAT_MEAN, STAT_BOLTZMANN)

_CHUNK_BITS = 16


def _fitness_chunks(instance: AdfInstance) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (bit matrix, fitness vector) over all 2^n solutions, in id order.

    Solution id s is the configuration index of the solution over scope
    (0, ..., n-1), so x_0 is its most significant bit.
    """
    total = 1 << instance.n
    step = min(total, 1 << _CHUNK_BITS)
    for start in range(0, total, step):
        bits = config_bits(np.arange(start, min(start + step, total)), instance.n)
        yield bits, instance.evaluate_batch(bits)


@dataclass(frozen=True)
class MarginalTable:
    """Per-configuration statistic over a scope; indexing matches codomains."""

    scope: tuple[int, ...]
    kind: str
    values: tuple[float, ...]
    n: int
    beta: float | None = None

    @property
    def order(self) -> int:
        return len(self.scope)


def check_beta(beta: float | None) -> None:
    """The one check of a Boltzmann beta: finite and nonnegative."""
    if beta is None or not math.isfinite(beta) or beta < 0:
        raise StructuralError(f"boltzmann beta must be finite and nonnegative, got {beta}")


def boltzmann_weights(fitness: np.ndarray, beta: float, fmax: float) -> np.ndarray:
    """exp(beta * (f - fmax)) per fitness f: FDA's Boltzmann selection and marginals."""
    # An overflowing beta * (f - fmax) is -inf: weight 0, the beta -> inf limit.
    with np.errstate(over="ignore"):
        return np.exp(beta * (fitness - fmax))


def enumerate_marginals(
    instance: AdfInstance,
    scopes: Sequence[Sequence[int]],
    kind: str = STAT_SUM,
    beta: float | None = None,
) -> tuple[MarginalTable, ...]:
    """Exact marginal statistic over all 2^n solutions for every scope.

    STAT_SUM adds the fitness of every solution sharing each configuration;
    STAT_MEAN divides those sums by 2^(n-j); STAT_BOLTZMANN marginalizes the
    Boltzmann distribution at the given beta (guarded against overflow).
    Sums come from the subfunctions when _sums_are_exact admits the
    instance, else from one sweep over all solutions; the bits are the same.
    """
    check_width(instance.n, "exhaustive enumeration", "n")
    if kind not in STATS:
        raise StructuralError(f"unknown statistic kind {kind!r}")
    if kind == STAT_BOLTZMANN:
        check_beta(beta)
    else:
        beta = None
    scopes = [tuple(map(int, scope)) for scope in scopes]
    for scope in scopes:
        _validate_scope(scope)
        _check_range(scope, instance.n)
    if kind == STAT_BOLTZMANN or not _sums_are_exact(instance):
        return _swept_marginals(instance, scopes, kind, beta)
    return _tables(instance, scopes, kind, None, _additive_sums(instance, scopes))


def _sums_are_exact(instance: AdfInstance) -> bool:
    """Whether the structure is visible, every codomain value is an integer and
    sum(|values|) * 2^n < 2^53. Every partial sum of a sum table, on either
    path and in any order, is then an integer float below 2^53, so exact."""
    if not instance.structure_visible:
        return False
    values = [v for sub in instance.subfunctions for v in sub.codomain]
    if not all(float(v).is_integer() for v in values):
        return False
    return sum(abs(int(v)) for v in values) << instance.n < 1 << 53


def _additive_sums(instance: AdfInstance, scopes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """The sum table of each scope S from the subfunctions (Heckendorn 2002):
    each f_a collapsed onto its variables in S, in S's order, times the
    2^(n-|S u s_a|) solutions that share each configuration of S u s_a."""
    subs = [(sub, frozenset(sub.scope)) for sub in instance.subfunctions]
    tables = []
    for scope in scopes:
        acc = np.zeros(1 << len(scope))  # never -0.0, like the sweep's
        # One axis per scope variable, the first most significant as in
        # project(), so a table over the shared variables in S's order
        # broadcasts onto acc with a length-1 axis at every other variable.
        axes = acc.reshape((2,) * len(scope))
        rest = instance.n - len(scope)
        for sub, variables in subs:
            shared = tuple(v for v in scope if v in variables)
            term = np.ldexp(collapse(sub.codomain, sub.scope, shared), rest - sub.k + len(shared))
            axes += term.reshape([2 if v in variables else 1 for v in scope])
        tables.append(acc)
    return tables


def _swept_marginals(
    instance: AdfInstance, scopes: list[tuple[int, ...]], kind: str, beta: float | None
) -> tuple[MarginalTable, ...]:
    """The tables of enumerate_marginals from one sweep over all 2^n solutions, each
    weighing its fitness, or exp(beta * (f - fmax)) after a first sweep for fmax."""
    boltzmann = kind == STAT_BOLTZMANN
    if boltzmann:
        fmax = max(float(fitness.max()) for _, fitness in _fitness_chunks(instance))
    accs = [np.zeros(1 << len(s)) for s in scopes]
    total = 0.0
    # np.add.at, not np.bincount: bincount restarts its sum in every chunk,
    # which changes the float bits of the tables once n exceeds _CHUNK_BITS.
    for bits, weights in _fitness_chunks(instance):
        if boltzmann:
            weights = boltzmann_weights(weights, beta, fmax)
            total += float(weights.sum())
        for acc, scope in zip(accs, scopes):
            np.add.at(acc, config_index(bits, scope), weights)
    if boltzmann:
        for acc in accs:
            acc /= total
    return _tables(instance, scopes, kind, beta, accs)


def _tables(
    instance: AdfInstance,
    scopes: list[tuple[int, ...]],
    kind: str,
    beta: float | None,
    accs: list[np.ndarray],
) -> tuple[MarginalTable, ...]:
    """MarginalTables of the accumulated statistics; mean tables divide the sums here."""
    if kind == STAT_MEAN:
        for scope, acc in zip(scopes, accs):
            acc /= 1 << (instance.n - len(scope))
    return tuple(MarginalTable(s, kind, tuple(acc), instance.n, beta)
                 for s, acc in zip(scopes, accs))


def enumerate_marginal(
    instance: AdfInstance,
    scope: Sequence[int],
    kind: str = STAT_SUM,
    beta: float | None = None,
) -> MarginalTable:
    """Exact marginal statistic for one scope (see enumerate_marginals)."""
    return enumerate_marginals(instance, [scope], kind=kind, beta=beta)[0]


def max_configs(table: MarginalTable) -> tuple[int, ...]:
    """All configurations attaining the maximum value (ties kept)."""
    values = table.values
    if not values:
        raise StructuralError("empty marginal table")
    best = max(values)
    return tuple(i for i, v in enumerate(values) if v == best)


@dataclass(frozen=True)
class FactorDeception:
    """Argmax diagnostics for one factor scope against a reference optimum."""

    factor_id: int  # 1-based position in the scope list
    scope: tuple[int, ...]
    best_configs: tuple[int, ...]
    optimum_config: int
    deceptive: bool


@dataclass(frozen=True)
class DeceptionReport:
    entries: tuple[FactorDeception, ...]

    @property
    def deceptive_ids(self) -> frozenset[int]:
        return frozenset(e.factor_id for e in self.entries if e.deceptive)


def deception_report(tables: Sequence[MarginalTable], reference_optimum: Bits) -> DeceptionReport:
    """Flag each table whose best-statistic configurations all disagree with
    the reference optimum's projection. Factor ids are 1-based positions in
    `tables`, so they line up with published table columns."""
    if tables:
        check_bits(reference_optimum, tables[0].n, "reference optimum")
    entries = []
    for i, table in enumerate(tables, start=1):
        best = max_configs(table)
        opt_cfg = project(reference_optimum, table.scope)
        entries.append(
            FactorDeception(
                factor_id=i,
                scope=table.scope,
                best_configs=best,
                optimum_config=opt_cfg,
                deceptive=opt_cfg not in best,
            )
        )
    return DeceptionReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Table output
# ---------------------------------------------------------------------------


def _format_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def tables_to_tsv(tables: Sequence[MarginalTable]) -> str:
    """One column group per scope; tables of different orders become separate
    blocks. Rows are configurations as bit strings, ascending."""
    blocks = []
    for order in dict.fromkeys(t.order for t in tables):
        group = [t for t in tables if t.order == order]
        header = "config\t" + "\t".join(scope_label(t.scope) for t in group)
        lines = [header]
        for cfg in range(1 << order):
            row = [config_string(cfg, order)]
            row.extend(_format_value(t.values[cfg]) for t in group)
            lines.append("\t".join(row))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def tables_to_json(tables: Sequence[MarginalTable]) -> list[dict]:
    out = []
    for t in tables:
        entry = {
            "scope": list(t.scope),
            "kind": t.kind,
            "values": {config_string(c, t.order): t.values[c] for c in range(1 << t.order)},
        }
        if t.beta is not None:
            entry["beta"] = t.beta
        out.append(entry)
    return out


def deception_to_json(report: DeceptionReport) -> dict:
    return {
        "factors": [
            {
                "factor": e.factor_id,
                "scope": list(e.scope),
                "best_configs": [config_string(c, len(e.scope)) for c in e.best_configs],
                "optimum_config": config_string(e.optimum_config, len(e.scope)),
                "deceptive": e.deceptive,
            }
            for e in report.entries
        ],
        "deceptive_factors": sorted(report.deceptive_ids),
    }
