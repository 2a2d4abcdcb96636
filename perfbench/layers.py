"""Which graybox functions the traced run wraps, and the per-layer metrics
derived from their spans and counts.

A function is wrapped at every attribute its callers resolve at call time:
the CLI calls `graphs.triangulate` through the module, while `replicate` and
`climb` imported some graph functions by name and call their own bindings.
"""

from __future__ import annotations

import statistics

# name -> unit; every workload's traced run emits all of them, with 0 for a
# layer the workload does not drive.
LAYER_METRICS = {
    "adf.parse_s": "s",
    "adf.evaluate_batch_s": "s",
    "adf.evaluate_batch_rows": "count",
    "adf.rows_per_s": "1/s",
    "graphs.build_vig_s": "s",
    "graphs.triangulate_s": "s",
    "graphs.junction_tree_s": "s",
    "graphs.factorization_from_jt_s": "s",
    "graphs.cliques": "count",
    "graphs.fill_edges": "count",
    "graphs.treewidth": "count",
    "graphs.clique_pairs": "count",
    "fda.model_entropy_s": "s",
    "fda.estimate_s": "s",
    "fda.sample_s": "s",
    "fda.select_s": "s",
    "fda.evaluate_s": "s",
    "fda.generations": "count",
    "fda.entropy_share": "ratio",
    "climb.init_s": "s",
    "climb.apply_flip_s": "s",
    "climb.apply_flip_calls": "count",
    "climb.pick_s": "s",
    "climb.us_per_move": "us",
    "climb.table_lookups": "count",
    "climb.delta_pair_calls": "count",
    "climb.pair_hit_ratio": "ratio",
    "marginals.enumerate_s": "s",
    "marginals.tables": "count",
    "marginals.solutions_scanned": "count",
    "marginals.deception_report_s": "s",
    "replicate.golden_mismatches": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def _count(key, value_of):
    return lambda tracer, args, result: tracer.add(key, value_of(args, result))


def install(tracer, gb) -> None:
    """Wrap the public layer functions; `gb` maps module names to modules."""
    adf, graphs, fda, climb = gb["adf"], gb["graphs"], gb["fda"], gb["climb"]
    marginals, replicate, cli = gb["marginals"], gb["replicate"], gb["cli"]

    def on_jt(tracer, args, jt):
        c = len(jt.cliques)
        tracer.add("graphs.cliques", c)
        tracer.add("graphs.clique_pairs", c * (c - 1) // 2)
        tracer.peak("graphs.treewidth", jt.treewidth)

    states = []  # the DeltaState of the hill_climb call in progress

    def on_init(tracer, args, state):
        states.append(state)

    def on_climb(tracer, args, result):
        tracer.add("climb.moves", result.moves)
        tracer.add("climb.table_lookups", states.pop().eval_count)

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(adf, "parse", "adf.parse")
    tracer.wrap(adf.AdfInstance, "evaluate_batch", "adf.evaluate_batch",
                _count("adf.evaluate_batch_rows", lambda a, r: len(r)))
    for owner in (graphs, climb, replicate):
        tracer.wrap(owner, "build_vig", "graphs.build_vig")
    for owner in (graphs, replicate):
        tracer.wrap(owner, "triangulate", "graphs.triangulate",
                    _count("graphs.fill_edges", lambda a, r: len(r.fill_edges)))
        tracer.wrap(owner, "junction_tree", "graphs.junction_tree", on_jt)
        tracer.wrap(owner, "factorization_from_jt", "graphs.factorization_from_jt")
    tracer.wrap(fda, "run_fda", "fda.run_fda",
                _count("fda.generations", lambda a, r: r.generations))
    for fn in ("select", "estimate", "sample", "model_entropy"):
        tracer.wrap(fda, fn, f"fda.{fn}")
    tracer.wrap(climb, "hill_climb", "climb.hill_climb", on_climb)
    tracer.wrap(climb, "init_state", "climb.init_state", on_init)
    tracer.wrap(climb, "apply_flip", "climb.apply_flip")
    tracer.wrap(climb, "delta_pair", "climb.delta_pair")
    for owner in (marginals, replicate):
        tracer.wrap(owner, "enumerate_marginal", "marginals.enumerate_marginal",
                    _count("marginals.solutions_scanned", lambda a, r: 1 << a[0].n))
        tracer.wrap(owner, "deception_report", "marginals.deception_report")
    tracer.wrap(replicate, "replicate", "replicate.replicate",
                _count("replicate.golden_mismatches", lambda a, r: len(r.mismatches)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(tracer, agg, invocations: list[int]) -> dict[str, float]:
    """Per-layer metrics of one traced round (its invocation ids)."""

    def total(name, col=0):
        return sum(agg.spans.get((i, name), (0.0, 0.0, 0))[col] for i in invocations)

    def count(name):
        return sum(tracer.counts.get((i, name), 0) for i in invocations)

    def under(name, parent):
        return sum(agg.under.get((i, name, parent), 0.0) for i in invocations)

    pair_moves = 0
    for i in invocations:
        for seq in agg.children_of("climb.hill_climb", i):
            pair_moves += sum(
                1 for a, b in zip(seq, seq[1:]) if a == "climb.delta_pair" and b == "climb.apply_flip"
            )
    rows, batch_s = count("adf.evaluate_batch_rows"), total("adf.evaluate_batch")
    return {
        "adf.parse_s": total("adf.parse"),
        "adf.evaluate_batch_s": batch_s,
        "adf.evaluate_batch_rows": rows,
        "adf.rows_per_s": _ratio(rows, batch_s),
        "graphs.build_vig_s": total("graphs.build_vig"),
        "graphs.triangulate_s": total("graphs.triangulate"),
        "graphs.junction_tree_s": total("graphs.junction_tree"),
        "graphs.factorization_from_jt_s": total("graphs.factorization_from_jt"),
        "graphs.cliques": count("graphs.cliques"),
        "graphs.fill_edges": count("graphs.fill_edges"),
        "graphs.treewidth": max((tracer.peaks.get((i, "graphs.treewidth"), 0) for i in invocations),
                                default=0),
        "graphs.clique_pairs": count("graphs.clique_pairs"),
        "fda.model_entropy_s": total("fda.model_entropy"),
        "fda.estimate_s": total("fda.estimate"),
        "fda.sample_s": total("fda.sample"),
        "fda.select_s": total("fda.select"),
        "fda.evaluate_s": under("adf.evaluate_batch", "fda.run_fda"),
        "fda.generations": count("fda.generations"),
        "fda.entropy_share": _ratio(total("fda.model_entropy"), total("fda.run_fda")),
        "climb.init_s": total("climb.init_state"),
        "climb.apply_flip_s": total("climb.apply_flip"),
        "climb.apply_flip_calls": total("climb.apply_flip", 2),
        "climb.pick_s": total("climb.hill_climb", 1),
        "climb.us_per_move": 1e6 * _ratio(total("climb.hill_climb"), count("climb.moves")),
        "climb.table_lookups": count("climb.table_lookups"),
        "climb.delta_pair_calls": total("climb.delta_pair", 2),
        "climb.pair_hit_ratio": _ratio(pair_moves, total("climb.delta_pair", 2)),
        "marginals.enumerate_s": total("marginals.enumerate_marginal"),
        "marginals.tables": total("marginals.enumerate_marginal", 2),
        "marginals.solutions_scanned": count("marginals.solutions_scanned"),
        "marginals.deception_report_s": total("marginals.deception_report"),
        "replicate.golden_mismatches": count("replicate.golden_mismatches"),
        "cli.self_s": total("cli.main", 1),
        "cli.output_bytes": count("cli.output_bytes"),
    }


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
