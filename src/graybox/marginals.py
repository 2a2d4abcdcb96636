"""Exhaustive-enumeration statistics over small search spaces.

Factor/hyperplane marginal tables (sums, means and Boltzmann marginals) and
the deception diagnostic: a factor is deceptive when no best-statistic
configuration matches the projection of a reference optimum. Everything here
enumerates all 2^n solutions, so operations refuse above a configurable
variable limit instead of subsampling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .adf import AdfInstance, Bits, _validate_scope, config_bits, config_index
from .adf import config_string, project
from .errors import CapacityError, ConfigError, StructuralError

STAT_SUM = "sum"
STAT_MEAN = "mean"
STAT_BOLTZMANN = "boltzmann"

DEFAULT_ENUM_LIMIT = 25
ENUM_LIMIT_ENV = "GRAYBOX_MAX_ENUM_VARS"

_CHUNK_BITS = 16


def enumeration_limit() -> int:
    value = os.environ.get(ENUM_LIMIT_ENV, str(DEFAULT_ENUM_LIMIT))
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{ENUM_LIMIT_ENV} must be an integer, got {value!r}") from None


def _check_capacity(n: int) -> None:
    cap = enumeration_limit()
    if n > cap:
        raise CapacityError(f"exhaustive enumeration refused: n={n} exceeds limit {cap}")


def _weighted_chunks(
    instance: AdfInstance, beta: float | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (bit matrix, weight vector) over all 2^n solutions, in id order.

    Solution id s is the configuration index of the solution over scope
    (0, ..., n-1), so x_0 is its most significant bit.
    The weight is the fitness itself when beta is None, else the Boltzmann
    weight exp(beta * (f - fmax)), after a first sweep for the max fitness.
    """
    if beta is not None:
        fmax = max(float(fitness.max()) for _, fitness in _weighted_chunks(instance))
        for bits, fitness in _weighted_chunks(instance):
            # An overflowing beta * (f - fmax) is -inf: weight 0, the beta -> inf limit.
            with np.errstate(over="ignore"):
                weights = np.exp(beta * (fitness - fmax))
            yield bits, weights
        return
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


def enumerate_marginals(
    instance: AdfInstance,
    scopes: Sequence[Sequence[int]],
    kind: str = STAT_SUM,
    beta: float | None = None,
) -> tuple[MarginalTable, ...]:
    """Full-enumeration marginal statistic for every scope, from one sweep.

    STAT_SUM adds the fitness of every solution sharing each configuration;
    STAT_MEAN divides those sums by 2^(n-j); STAT_BOLTZMANN marginalizes the
    Boltzmann distribution at the given beta (guarded against overflow).
    """
    _check_capacity(instance.n)
    if kind not in (STAT_SUM, STAT_MEAN, STAT_BOLTZMANN):
        raise StructuralError(f"unknown statistic kind {kind!r}")
    if kind == STAT_BOLTZMANN:
        if beta is None or not math.isfinite(beta) or beta < 0:
            raise StructuralError(f"boltzmann statistic needs a finite beta >= 0, got {beta}")
    else:
        beta = None
    scopes = [tuple(map(int, scope)) for scope in scopes]
    for scope in scopes:
        _validate_scope(scope, instance.n)
    accs = [np.zeros(1 << len(s)) for s in scopes]
    total = 0.0
    # np.add.at, not np.bincount: bincount restarts its sum in every chunk,
    # which changes the float bits of the tables once n exceeds _CHUNK_BITS.
    for bits, weights in _weighted_chunks(instance, beta):
        for acc, scope in zip(accs, scopes):
            np.add.at(acc, config_index(bits, scope), weights)
        total += float(weights.sum())
    tables = []
    for scope, acc in zip(scopes, accs):
        if kind == STAT_BOLTZMANN:
            acc /= total
        elif kind == STAT_MEAN:
            acc /= 1 << (instance.n - len(scope))
        tables.append(MarginalTable(scope, kind, tuple(acc), instance.n, beta))
    return tuple(tables)


def enumerate_marginal(
    instance: AdfInstance,
    scope: Sequence[int],
    kind: str = STAT_SUM,
    beta: float | None = None,
) -> MarginalTable:
    """Full-enumeration marginal statistic for one scope (see enumerate_marginals)."""
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
    entries = []
    for i, table in enumerate(tables, start=1):
        if len(reference_optimum) != table.n:
            raise StructuralError(
                f"reference optimum has {len(reference_optimum)} bits, expected {table.n}"
            )
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
    remaining = list(tables)
    while remaining:
        order = remaining[0].order
        group = [t for t in remaining if t.order == order]
        remaining = [t for t in remaining if t.order != order]
        header = "config\t" + "\t".join(",".join(str(v) for v in t.scope) for t in group)
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
