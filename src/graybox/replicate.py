"""Regenerate the bundled worked example's marginal tables and check them
against the golden copies shipped in graybox/golden/.

The worked example is the ten-variable cyclic landscape from paper_example().
Expected outputs: the order-3/4/5 marginal-frequency tables, the six
five-variable clique tables from the min-fill junction tree, the chain
factorization rooted at clique {0,1,2,8,9}, and the deceptive-factor sets
{3,8,9} / {10} / {9} / {} at orders 3, 4, 5, and for the clique scopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .adf import AdfInstance, config_string, json_text, order_scopes, paper_example
from .graphs import (
    Factor,
    JunctionTree,
    MIN_FILL,
    build_vig,
    factorization_from_jt,
    factorization_to_json,
    jt_to_json,
    junction_tree,
    triangulate,
)
from .marginals import (
    DeceptionReport,
    MarginalTable,
    STAT_SUM,
    _format_value,
    deception_report,
    deception_to_json,
    enumerate_marginal,  # unused here; the traced benchmark mode wraps this name
    enumerate_marginals,
    tables_to_tsv,
)

EXPECTED_DECEPTIVE = {
    "order3": frozenset({3, 8, 9}),
    "order4": frozenset({10}),
    "order5": frozenset({9}),
    "clique5": frozenset(),
}

# Chain factorization over the six five-variable cliques, rooted at {0,1,2,8,9}.
EXPECTED_FACTORS = (
    Factor(new=(0, 1, 2, 8, 9), cond=()),
    Factor(new=(3,), cond=(1, 2, 8, 9)),
    Factor(new=(4,), cond=(2, 3, 8, 9)),
    Factor(new=(5,), cond=(3, 4, 8, 9)),
    Factor(new=(6,), cond=(4, 5, 8, 9)),
    Factor(new=(7,), cond=(5, 6, 8, 9)),
)


def jt_scopes(instance: AdfInstance) -> tuple[JunctionTree, list[tuple[int, ...]]]:
    """Junction-tree cliques of the min-fill completion, ascending."""
    jt = junction_tree(triangulate(build_vig(instance), MIN_FILL))
    return jt, [tuple(c) for c in jt.cliques]


def _scope_key(scope: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in scope)


def load_golden(name: str) -> dict[str, dict[str, int]]:
    """Golden table as {scope string: {config string: value}}."""
    text = resources.files("graybox").joinpath(f"golden/{name}.tsv").read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split("\t")
    columns: dict[str, dict[str, int]] = {scope: {} for scope in header[1:]}
    for line in lines[1:]:
        cells = line.split("\t")
        cfg = cells[0]
        for scope, cell in zip(header[1:], cells[1:]):
            columns[scope][cfg] = int(cell)
    return columns


def _compare(name: str, tables: list[MarginalTable], mismatches: list[str]) -> None:
    golden = load_golden(name)
    computed_keys = [_scope_key(t.scope) for t in tables]
    if sorted(computed_keys) != sorted(golden):
        mismatches.append(
            f"{name}: scope sets differ (computed {computed_keys}, golden {sorted(golden)})"
        )
        return
    for table, key in zip(tables, computed_keys):
        for cfg, value in enumerate(table.values):
            cfg_str = config_string(cfg, table.order)
            expected = golden[key][cfg_str]
            if value != expected:
                mismatches.append(
                    f"{name}: factor ({key}) config {cfg_str}: expected {expected}, got "
                    f"{_format_value(value)}"
                )


@dataclass(frozen=True)
class ReplicationOutcome:
    ok: bool
    mismatches: tuple[str, ...]
    checks: tuple[tuple[str, bool], ...]  # (label, passed) per table / finding


def replicate(out_dir: str | Path | None = None) -> ReplicationOutcome:
    """Recompute every table, compare against the goldens, and optionally
    write the artifacts (TSV tables, factorization and deception JSON)."""
    instance = paper_example()
    jt, cliques = jt_scopes(instance)
    scope_sets: dict[str, list[tuple[int, ...]]] = {
        "order3": order_scopes(instance, 3),
        "order4": order_scopes(instance, 4),
        "order5": order_scopes(instance, 5),
        "clique5": cliques,
    }

    mismatches: list[str] = []
    checks: list[tuple[str, bool]] = []
    tables_by_name: dict[str, list[MarginalTable]] = {}
    for name, scopes in scope_sets.items():
        tables = list(enumerate_marginals(instance, scopes, STAT_SUM))
        tables_by_name[name] = tables
        before = len(mismatches)
        _compare(name, tables, mismatches)
        checks.append((f"table {name}", len(mismatches) == before))

    optimum = (1,) * instance.n
    reports: dict[str, DeceptionReport] = {}
    for name, tables in tables_by_name.items():
        report = deception_report(tables, optimum)
        reports[name] = report
        expected = EXPECTED_DECEPTIVE[name]
        ok = frozenset(report.deceptive_ids) == expected
        if not ok:
            mismatches.append(
                f"deception {name}: expected {sorted(expected)}, got "
                f"{sorted(report.deceptive_ids)}"
            )
        checks.append((f"deception {name}", ok))

    factorization = factorization_from_jt(jt, root=0)
    fact_ok = factorization.factors == EXPECTED_FACTORS
    if not fact_ok:
        mismatches.append(
            f"factorization: expected {EXPECTED_FACTORS}, got {factorization.factors}"
        )
    checks.append(("factorization", fact_ok))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, tables in tables_by_name.items():
            (out / f"{name}.tsv").write_text(tables_to_tsv(tables))
        (out / "junction_tree.json").write_text(json_text(jt_to_json(jt)))
        (out / "factorization.json").write_text(json_text(factorization_to_json(factorization)))
        deception_doc = {name: deception_to_json(reports[name]) for name in scope_sets}
        (out / "deception.json").write_text(json_text(deception_doc))
        report_lines = [
            f"{'PASS' if ok else 'FAIL'}  {label}" for label, ok in checks
        ]
        report_lines.extend(mismatches)
        (out / "comparison.txt").write_text("\n".join(report_lines) + "\n")

    return ReplicationOutcome(
        ok=not mismatches, mismatches=tuple(mismatches), checks=tuple(checks)
    )
