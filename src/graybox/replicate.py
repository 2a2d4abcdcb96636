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

from .adf import AdfInstance, config_string, json_text, order_scopes, paper_example, scope_label
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


def _compare(name: str, tables: list[MarginalTable]) -> list[str]:
    """Mismatch lines of the computed tables against the golden copy `name`."""
    golden = load_golden(name)
    computed_keys = [scope_label(t.scope) for t in tables]
    if sorted(computed_keys) != sorted(golden):
        return [f"{name}: scope sets differ (computed {computed_keys}, golden {sorted(golden)})"]
    mismatches = []
    for table, key in zip(tables, computed_keys):
        for cfg, value in enumerate(table.values):
            cfg_str = config_string(cfg, table.order)
            expected = golden[key][cfg_str]
            if value != expected:
                mismatches.append(
                    f"{name}: factor ({key}) config {cfg_str}: expected {expected}, got "
                    f"{_format_value(value)}"
                )
    return mismatches


def _expect(label: str, expected, got) -> tuple[str, list[str]]:
    """The check that one finding equals its expected value."""
    return label, [] if got == expected else [f"{label}: expected {expected}, got {got}"]


@dataclass(frozen=True)
class ReplicationOutcome:
    checks: tuple[tuple[str, list[str]], ...]  # (label, mismatch lines) per table / finding

    @property
    def mismatches(self) -> tuple[str, ...]:
        return tuple(line for _, lines in self.checks for line in lines)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def summary(self) -> list[str]:
        """One PASS or FAIL line per check."""
        return [f"{'FAIL' if lines else 'PASS'}  {label}" for label, lines in self.checks]


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

    checks = []
    tables_by_name: dict[str, list[MarginalTable]] = {}
    for name, scopes in scope_sets.items():
        tables = list(enumerate_marginals(instance, scopes, STAT_SUM))
        tables_by_name[name] = tables
        checks.append((f"table {name}", _compare(name, tables)))

    optimum = (1,) * instance.n
    reports = {name: deception_report(tables, optimum) for name, tables in tables_by_name.items()}
    for name, report in reports.items():
        expected = sorted(EXPECTED_DECEPTIVE[name])
        checks.append(_expect(f"deception {name}", expected, sorted(report.deceptive_ids)))

    factorization = factorization_from_jt(jt, root=0)
    checks.append(_expect("factorization", EXPECTED_FACTORS, factorization.factors))
    outcome = ReplicationOutcome(checks=tuple(checks))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, tables in tables_by_name.items():
            (out / f"{name}.tsv").write_text(tables_to_tsv(tables))
        (out / "junction_tree.json").write_text(json_text(jt_to_json(jt)))
        (out / "factorization.json").write_text(json_text(factorization_to_json(factorization)))
        deception_doc = {name: deception_to_json(reports[name]) for name in scope_sets}
        (out / "deception.json").write_text(json_text(deception_doc))
        report_lines = [*outcome.summary, *outcome.mismatches]
        (out / "comparison.txt").write_text("\n".join(report_lines) + "\n")

    return outcome
