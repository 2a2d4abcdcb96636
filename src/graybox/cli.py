"""Command-line front end.

Exit codes: 0 success, 1 runtime/data error (parse, visibility, capacity,
structural), 2 usage/configuration error. All commands are deterministic
given their flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import adf, climb as climb_mod, fda as fda_mod, graphs, marginals, replicate
from .errors import ConfigError, GrayboxError, ParseError


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _load_instance(path: str) -> adf.AdfInstance:
    return adf.parse(_read_text(path))


def _parse_ints(spec: str, flag: str) -> tuple[int, ...]:
    """A comma-separated list of integers given to `flag`."""
    try:
        return tuple(int(tok) for tok in spec.split(","))
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated integers, got {spec!r}") from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.paper_example:
        instance = adf.paper_example()
    else:
        if not args.kind:
            raise ConfigError("gen needs --kind or --paper-example")
        spec = adf.GeneratorSpec(
            kind=args.kind,
            n=args.n,
            k=args.k,
            m=args.m,
            codomain=args.codomain,
            seed=args.seed,
            codomain_seed=args.codomain_seed,
        )
        instance = adf.generate(spec)
    text = adf.serialize_json(instance) if args.format == "json" else adf.serialize(instance)
    _emit(text, args.out)
    return 0


def cmd_analyze(args) -> int:
    instance = _load_instance(args.instance)
    heuristic: str | tuple[int, ...] = args.heuristic
    if args.elimination_order is not None:
        heuristic = _parse_ints(args.elimination_order, "--elimination-order")

    # Each view: its JSON document, its DOT object (None: plain text) and its
    # format when --format is not given.
    if args.vig:
        vig = graphs.build_vig(instance)
        view = {"n": vig.n, "edges": [list(e) for e in sorted(vig.edges)]}, vig, "dot"
    elif args.factor_graph:
        fg = graphs.build_factor_graph(instance)
        view = {"n": fg.n, "scopes": [list(s) for s in fg.scopes]}, fg, "dot"
    else:
        completion = graphs.triangulate(graphs.build_vig(instance), heuristic)
        if args.triangulate:
            doc = {
                "elimination_order": list(completion.elimination_order),
                "fill_edges": [list(e) for e in sorted(completion.fill_edges)],
            }
            view = doc, completion.completed(), "json"
        else:
            jt = graphs.junction_tree(completion)
            if args.junction_tree:
                view = graphs.jt_to_json(jt), jt, "json"
            else:
                view = {"treewidth": jt.treewidth}, None, "text"
    doc, dot, default = view
    if (args.format or default) == "json":
        _emit(adf.json_text(doc), args.out)
    elif dot is not None:
        _emit(graphs.export_dot(dot), args.out)
    else:
        _emit(f"{doc['treewidth']}\n", args.out)
    return 0


def _marginal_tables(args, optimum: adf.Bits | None = None) -> tuple[marginals.MarginalTable, ...]:
    """The tables of the requested scopes, from one sweep over all 2^n solutions.
    A given optimum's length is checked before the sweep."""
    if args.stat == marginals.STAT_BOLTZMANN and args.beta is None:
        raise ConfigError("--stat boltzmann needs --beta")
    if args.beta is not None:
        marginals.check_beta(args.beta)
    instance = _load_instance(args.instance)
    if optimum is not None:
        marginals.check_optimum(optimum, instance.n)
    if args.scopes is not None:
        scopes = [_parse_ints(g, "--scopes") for g in args.scopes.split(";") if g.strip()]
        if not scopes:
            raise ConfigError(f"no scopes in {args.scopes!r}")
    elif args.order is not None:
        if args.order < 1:
            raise ConfigError(f"--order must be at least 1, got {args.order}")
        scopes = adf.order_scopes(instance, args.order)
    else:
        scopes = replicate.jt_scopes(instance)[1]
    return marginals.enumerate_marginals(instance, scopes, kind=args.stat, beta=args.beta)


def cmd_marginals(args) -> int:
    tables = _marginal_tables(args)
    if args.format == "json":
        _emit(adf.json_text(marginals.tables_to_json(tables)), args.out)
    else:
        _emit(marginals.tables_to_tsv(tables), args.out)
    return 0


def cmd_deception(args) -> int:
    optimum = adf.bits_from_string(args.optimum)
    report = marginals.deception_report(_marginal_tables(args, optimum), optimum)
    _emit(adf.json_text(marginals.deception_to_json(report)), args.out)
    return 0


def _factorization_for(args, instance: adf.AdfInstance) -> graphs.Factorization:
    if args.univariate:
        return graphs.univariate_factorization(instance.n)
    if args.factor_file is not None:
        if not args.factor_file:
            raise ConfigError("--factor-file needs a path")
        try:
            doc = json.loads(_read_text(args.factor_file))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.factor_file}: invalid JSON: {exc}") from None
        return graphs.factorization_from_json(doc)
    jt = graphs.junction_tree(graphs.triangulate(graphs.build_vig(instance), args.heuristic))
    return graphs.factorization_from_jt(jt, root=args.root)


def cmd_fda(args) -> int:
    # Both are built so that each flag is checked whichever method runs.
    truncation = fda_mod.TruncationSelection(tau=args.tau)
    boltzmann = fda_mod.BoltzmannSelection(beta=args.selection_beta)
    selection = truncation if args.selection == "truncation" else boltzmann
    instance = _load_instance(args.instance)
    factorization = _factorization_for(args, instance)
    config = fda_mod.FdaConfig(
        population_size=args.pop_size,
        selection=selection,
        smoothing=args.smoothing,
        max_generations=args.max_gens,
        seed=args.seed,
        elitism=args.elitism,
        target_fitness=args.target,
    )
    result = fda_mod.run_fda(instance, factorization, config)
    doc = fda_mod.result_to_json(result)
    if args.history:
        lines = [json.dumps(h, sort_keys=True) for h in doc["history"]]
        Path(args.history).write_text("\n".join(lines) + "\n")
    _emit(adf.json_text(doc), args.out)
    return 0


def cmd_climb(args) -> int:
    if args.starts < 1:
        raise ConfigError(f"--starts must be at least 1, got {args.starts}")
    # Checks the flags, the seed among them, before the seed drives the start generator.
    policy = climb_mod.ClimbPolicy(
        pivot=args.pivot,
        pair_moves=args.pair_moves,
        max_moves=args.max_moves,
        seed=args.seed,
    )
    instance = _load_instance(args.instance)
    trace_lines: list[str] = []
    trace = None
    if args.trace:
        trace = lambda event: trace_lines.append(json.dumps(event, sort_keys=True))

    def run_one(start, seed):
        result = climb_mod.hill_climb(instance, start, replace(policy, seed=seed), trace=trace)
        return {
            "start": adf.bits_to_string(start),
            "solution": adf.bits_to_string(result.solution),
            "fitness": result.fitness,
            "moves": result.moves,
            "converged": result.converged,
        }

    if args.start:
        doc = run_one(adf.bits_from_string(args.start), args.seed)
    else:
        rng = np.random.default_rng(args.seed)
        results = []
        for i in range(args.starts):
            start = tuple(int(b) for b in rng.integers(0, 2, size=instance.n))
            results.append(run_one(start, args.seed + i + 1))
        best = max(results, key=lambda r: r["fitness"])
        doc = {"starts": args.starts, "best": best, "results": results}
    if args.trace:
        Path(args.trace).write_text("\n".join(trace_lines) + "\n" if trace_lines else "")
    _emit(adf.json_text(doc), args.out)
    return 0


def cmd_replicate(args) -> int:
    outcome = replicate.replicate(out_dir=args.out_dir)
    for label, ok in outcome.checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not outcome.ok:
        print("mismatches:", file=sys.stderr)
        for line in outcome.mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graybox",
        description="Gray-box analysis and optimization of k-bounded additive functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--paper-example", action="store_true",
                   help="emit the bundled ten-variable worked example")
    p.add_argument("--kind", choices=[k for k in adf.KINDS if k != adf.PAPER_EXAMPLE])
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--codomain", choices=[adf.CODOMAIN_UNIFORM, adf.CODOMAIN_FOUR_OPTIMA],
                   default=adf.CODOMAIN_UNIFORM)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--codomain-seed", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="structural analysis of an instance")
    p.add_argument("instance")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--vig", action="store_true")
    what.add_argument("--factor-graph", action="store_true")
    what.add_argument("--triangulate", action="store_true")
    what.add_argument("--junction-tree", action="store_true")
    what.add_argument("--treewidth", action="store_true")
    p.add_argument("--heuristic", choices=[graphs.MIN_FILL, graphs.MIN_DEGREE],
                   default=graphs.MIN_FILL)
    p.add_argument("--elimination-order",
                   help="comma-separated vertex order overriding --heuristic")
    p.add_argument("--format", choices=["dot", "json"], default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    def add_table_flags(p):
        p.add_argument("instance")
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--scopes", help="semicolon-separated scopes, e.g. '1,2,3;2,3,4'")
        src.add_argument("--order", type=int,
                         help="per subfunction, this many (>= 1) consecutive variables from "
                              "one before its first scope variable, wrapping cyclically")
        src.add_argument("--jt-factors", action="store_true",
                         help="min-fill junction-tree cliques")
        p.add_argument("--stat", choices=[marginals.STAT_SUM, marginals.STAT_MEAN,
                                          marginals.STAT_BOLTZMANN], default=marginals.STAT_SUM)
        p.add_argument("--beta", type=float, default=None)

    p = sub.add_parser("marginals", help="exhaustive marginal tables")
    add_table_flags(p)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_marginals)

    p = sub.add_parser("deception", help="deceptive-factor report against an optimum")
    add_table_flags(p)
    p.add_argument("--optimum", required=True, help="reference optimum as a 0/1 string")
    p.add_argument("--out")
    p.set_defaults(func=cmd_deception)

    p = sub.add_parser("fda", help="factorized distribution algorithm run")
    p.add_argument("instance")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--jt", action="store_true",
                     help="derive the factorization from the min-fill junction tree")
    src.add_argument("--univariate", action="store_true")
    src.add_argument("--factor-file", help="factorization JSON file")
    p.add_argument("--heuristic", choices=[graphs.MIN_FILL, graphs.MIN_DEGREE],
                   default=graphs.MIN_FILL)
    p.add_argument("--root", type=int, default=0, help="root clique id for --jt")
    p.add_argument("--pop-size", type=int, default=500)
    p.add_argument("--selection", choices=["truncation", "boltzmann"], default="truncation")
    p.add_argument("--tau", type=float, default=0.3)
    p.add_argument("--selection-beta", type=float, default=1.0)
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--max-gens", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--elitism", type=int, default=1)
    p.add_argument("--target", type=float, default=None)
    p.add_argument("--history", help="write per-generation history as JSON lines")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fda)

    p = sub.add_parser("climb", help="structure-aware hill climbing")
    p.add_argument("instance")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--start", help="start solution as a 0/1 string")
    src.add_argument("--starts", type=int, default=1, help="number of random starts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pivot", choices=[climb_mod.PIVOT_BEST, climb_mod.PIVOT_FIRST],
                   default=climb_mod.PIVOT_BEST)
    p.add_argument("--pair-moves", action="store_true")
    p.add_argument("--max-moves", type=int, default=None)
    p.add_argument("--trace", help="write per-move trace as JSON lines")
    p.add_argument("--out")
    p.set_defaults(func=cmd_climb)

    p = sub.add_parser("replicate-paper",
                       help="regenerate the worked-example tables and verify them")
    p.add_argument("--out-dir", default="replication")
    p.set_defaults(func=cmd_replicate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GrayboxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
