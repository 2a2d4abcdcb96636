"""The four benchmark workloads: the instances each generates and the CLI
invocations it times, each with the check that its output must pass.

Each workload drives a different module, so a change to one layer shows on
the workload that exercises it and is predicted to leave the others alone:

  optimize-fda       fda: the only workload running the FDA loop
  optimize-climb     climb: best pivot, first pivot and pair moves
  analyze-exact      marginals/replicate: 2^n enumeration through evaluate_batch
  analyze-structure  graphs: min-fill and the junction tree at two shapes
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("optimize-fda", "optimize-climb", "analyze-exact", "analyze-structure")

# Per size: every number a workload's inputs depend on. Full sizes keep one
# round (every invocation once) near 1-2 s, so that a 20 s run yields ten or
# more rounds: on a shared host the same pure-Python loop varies by +-15%
# from one half second to the next, and only a median over many rounds is
# steady. Seed-dependent work is averaged inside a round instead: many climb
# starts, and several random-scope instances. "tiny" is for the self-test.
SIZES = {
    "full": {
        "fda_n": 200, "fda_pop": 500, "fda_gens": 2,
        "climb_n": 4000, "climb_starts": 2, "pairs_n": 150, "pairs_starts": 20,
        "exact_n": 16,
        "cyclic_n": 500, "random_n": 150, "random_m": 150, "random_count": 2,
    },
    "tiny": {
        "fda_n": 20, "fda_pop": 40, "fda_gens": 2,
        "climb_n": 200, "climb_starts": 2, "pairs_n": 40, "pairs_starts": 2,
        "exact_n": 10,
        "cyclic_n": 60, "random_n": 40, "random_m": 40, "random_count": 2,
    },
}

REPLICATE_CHECKS = 9  # four tables, four deception sets, one factorization


@dataclass(frozen=True)
class Invocation:
    """One CLI call; `metric` names its end-to-end timing, summed over the
    round's invocations that share it."""

    metric: str
    argv: tuple[str, ...]
    check: Callable[[str, str], list[str]]  # (stdout, stderr) -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    specs: dict  # instance key -> GeneratorSpec
    invocations: Callable[[dict, Path], list[Invocation]]  # (instances, work dir)
    calibration: str  # "python" or "numpy": the kind of work that dominates


def instance_path(work: Path, key: str) -> Path:
    return work / f"{key}.adf"


def build(name: str, seed: int, size: str, adf, graphs) -> Workload:
    """Workload `name` at `seed`; instance seeds and CLI seeds derive from it."""
    z = SIZES[size]
    cyclic = adf.ADJACENT_CYCLIC

    def spec(idx, kind, n, k, codomain=adf.CODOMAIN_UNIFORM, m=None):
        return adf.GeneratorSpec(kind=kind, n=n, k=k, m=m, codomain=codomain,
                                 seed=seed * 1000 + idx)

    s = str(seed)
    if name == "optimize-fda":
        specs = {"fda": spec(0, cyclic, z["fda_n"], 5, adf.CODOMAIN_FOUR_OPTIMA)}

        def invocations(inst, work):
            path = str(instance_path(work, "fda"))
            return [Invocation(
                "fda_s",
                ("fda", path, "--jt", "--pop-size", str(z["fda_pop"]),
                 "--max-gens", str(z["fda_gens"]), "--seed", s),
                lambda out, err: checks.check_fda(inst["fda"], out, z["fda_gens"]),
            )]
    elif name == "optimize-climb":
        specs = {
            "climb": spec(0, cyclic, z["climb_n"], 5),
            "pairs": spec(1, cyclic, z["pairs_n"], 5),
        }

        def invocations(inst, work):
            big, small = str(instance_path(work, "climb")), str(instance_path(work, "pairs"))
            starts, pair_starts = z["climb_starts"], z["pairs_starts"]
            return [
                Invocation(
                    f"climb_{pivot}_s",
                    ("climb", big, "--starts", str(starts), "--pivot", pivot, "--seed", s),
                    lambda out, err: checks.check_climb(inst["climb"], out, starts, False),
                )
                for pivot in ("best", "first")
            ] + [Invocation(
                "climb_pairs_s",
                ("climb", small, "--starts", str(pair_starts), "--pair-moves", "--seed", s),
                lambda out, err: checks.check_climb(inst["pairs"], out, pair_starts, True),
            )]
    elif name == "analyze-exact":
        # Four-optima codomains make all-ones a guaranteed optimum.
        specs = {"exact": spec(0, cyclic, z["exact_n"], 3, adf.CODOMAIN_FOUR_OPTIMA)}

        def invocations(inst, work):
            path = str(instance_path(work, "exact"))
            return [
                Invocation(
                    "replicate_s",
                    ("replicate-paper", "--out-dir", str(work / "replication")),
                    lambda out, err: checks.check_replicate(out, err, REPLICATE_CHECKS),
                ),
                Invocation(
                    "deception_s",
                    ("deception", path, "--order", "3", "--optimum", "1" * z["exact_n"]),
                    lambda out, err: checks.check_deception(inst["exact"], out, 3),
                ),
                Invocation(
                    "boltzmann_s",
                    ("marginals", path, "--jt-factors", "--stat", "boltzmann", "--beta", "1",
                     "--format", "json"),
                    lambda out, err: checks.check_boltzmann(out),
                ),
            ]
    elif name == "analyze-structure":
        randoms = [f"random{i}" for i in range(z["random_count"])]
        specs = {"cyclic": spec(0, cyclic, z["cyclic_n"], 5)}
        for i, key in enumerate(randoms, start=1):
            specs[key] = spec(i, adf.RANDOM_SCOPES, z["random_n"], 3, m=z["random_m"])

        def invocations(inst, work):
            return [
                Invocation(
                    "jt_cyclic_s" if key == "cyclic" else "jt_random_s",
                    ("analyze", str(instance_path(work, key)), "--junction-tree",
                     "--format", "json"),
                    lambda out, err, key=key: checks.check_junction_tree(graphs, inst[key], out),
                )
                for key in ("cyclic", *randoms)
            ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    # Enumeration is memory-bound NumPy gathers; the other three are mostly
    # Python loops over dicts, sets and lists.
    return Workload(name, specs, invocations,
                    "numpy" if name == "analyze-exact" else "python")
