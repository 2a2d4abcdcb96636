#!/usr/bin/env python3
"""graybox benchmark: four workloads timed through the CLI, plus a traced run.

Usage (from the repository root):

  python3 perfbench/run.py --workload optimize-fda --seed 3 --seconds 25 --trace 0
  python3 perfbench/run.py --all --seed 3 --seconds 25      # every workload, one process each
  python3 perfbench/run.py --self-test                      # tiny sizes, metric and check audit

A run generates its instances with `adf.generate` from the seed, writes them
to files, and calls `graybox.cli.main(argv)` in-process on those files, in
rounds, until `--seconds` of invocation time has been measured (at least
MIN_ROUNDS rounds). Every output is checked; see checks.py. Times are
normalized by an interleaved calibration kernel (see Calibrator). With `--trace 0`
the run reports the end-to-end metrics, with tracing off. With `--trace 1` it
alternates untraced and traced rounds, reports the per-layer metrics derived
from the spans (layers.py) and the n-sweep of the layer the workload drives
(sweeps.py), and writes the spans to .perfbench_out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os
from time import perf_counter

_PROCESS_START = perf_counter()  # for the detail line's wall time

# One process, no extra threads: pin any BLAS pool before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import sweeps  # noqa: E402
import workloads  # noqa: E402
from tracing import Aggregate, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 1
MIN_ROUNDS = 5
SETUP_REPS = 5
# Seconds each calibration kernel takes at the reference speed: about its
# median over several minutes on a 2-vCPU x86-64 host under Python 3.11 and
# NumPy 2.4. Timings are reported in seconds at that speed; see Calibrator.
CAL_REF_S = {"python": 0.020, "numpy": 0.020}

END_TO_END = {"round_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_graybox() -> dict:
    """Import the package from this checkout's src/ only; exit 1 if absent."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import graybox
        from graybox import adf, cli, climb, fda, graphs, marginals, replicate
    except ImportError as exc:
        raise SystemExit(f"error: cannot import graybox from {src}: {exc}") from None
    if not Path(graybox.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: graybox resolved to {graybox.__file__}, not under {src}")
    return {"adf": adf, "cli": cli, "climb": climb, "fda": fda, "graphs": graphs,
            "marginals": marginals, "replicate": replicate}


# Run in a fresh interpreter: prints the seconds `import graybox.cli` takes.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import graybox.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Seconds a fresh interpreter needs to import graybox (numpy included)."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


class Calibrator:
    """A fixed kernel whose time tracks the host's current speed.

    On a shared host the speed of this process drifts by up to 25% for
    seconds at a time. Every timed span is bracketed by two kernel samples
    and reported as raw seconds * CAL_REF_S[kind] / (mean of the two
    samples), which cancels most of the drift; raw times are reported too.
    Pure-Python work and memory-bound NumPy gathers drift by different
    amounts, so each workload names the kind of work it mostly does.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.reference_s = CAL_REF_S[kind]
        if kind == "numpy":
            rng = np.random.default_rng(0)
            # One enumeration chunk of evaluate_batch: 2^16 rows of 16 bits.
            self.bits = rng.integers(0, 2, size=(1 << 16, 16))
            self.scopes = [np.array([j, (j + 5) % 16, (j + 11) % 16]) for j in range(10)]
            self.table = rng.random(8)
            self.powers = np.array([4, 2, 1])

    def __call__(self) -> float:
        t0 = perf_counter()
        table, seen, acc = {}, set(), 0
        for i in range(40000 if self.kind == "python" else 8000):
            table[(i * 7919) % 65521] = i
            seen.add((i * 31) ^ (i >> 3))
            acc += i * i
        if self.kind == "numpy":
            total = np.zeros(len(self.bits))
            for scope in self.scopes:
                total += self.table[self.bits[:, scope] @ self.powers]
        return perf_counter() - t0


def call_cli(cli, argv) -> tuple[int | None, str, str, float]:
    """Run one CLI command in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse exits on bad usage
        code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - t0


def corrupt_first_solution(stdout: str) -> str:
    """Flip the first bit of the first climb solution (self-test only)."""
    at = stdout.index('"solution": "') + len('"solution": "')
    return stdout[:at] + ("1" if stdout[at] == "0" else "0") + stdout[at + 1:]


class Runner:
    """Times and checks one workload's invocations in rounds."""

    def __init__(self, gb, workload, work, reference, corrupt):
        self.gb = gb
        self.workload = workload
        self.work = work
        self.reference = reference
        self.corrupt = corrupt
        self.instances: dict = {}
        self.invocations: list[workloads.Invocation] = []
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibrate = Calibrator(workload.calibration)
        self.cal_samples = [self.calibrate()]
        # metric -> per-round sums, normalized and raw
        self.samples: dict[str, list[float]] = {}
        self.raw_samples: dict[str, list[float]] = {}

    def normalize(self, raw: float) -> float:
        """Seconds at the reference speed for a span that just ended: the
        calibration sample taken before it and a fresh one after it bracket it."""
        before = self.cal_samples[-1]
        self.cal_samples.append(self.calibrate())
        return raw * self.calibrate.reference_s / ((before + self.cal_samples[-1]) / 2)

    def time(self, fn):
        """(fn(), its normalized seconds), bracketed by fresh calibration."""
        self.cal_samples.append(self.calibrate())
        t0 = perf_counter()
        result = fn()
        return result, self.normalize(perf_counter() - t0)

    def setup(self) -> float:
        """Generate and write the instance files; returns normalized seconds."""
        adf = self.gb["adf"]
        t0 = perf_counter()
        self.work.mkdir(parents=True, exist_ok=True)
        self.instances = {key: adf.generate(spec) for key, spec in self.workload.specs.items()}
        for key, inst in self.instances.items():
            workloads.instance_path(self.work, key).write_text(adf.serialize(inst))
        elapsed = self.normalize(perf_counter() - t0)
        self.invocations = self.workload.invocations(self.instances, self.work)
        return elapsed

    def verdict(self, offset, code, out, err) -> list[str]:
        """Check the output of invocation `offset`; identical outputs share one verdict."""
        inv = self.invocations[offset]
        key = (offset, code, hashlib.sha256(out.encode()).digest(), err)
        if key not in self.verdicts:
            if code != 0:
                problems = [f"exit code {code}: {err.strip()[-300:]}"]
            else:
                try:
                    problems = inv.check(out, err)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    problems = [f"malformed output: {exc!r}"]
                if self.reference is not None and not problems:
                    problems = checks.check_reference(out, self.reference[offset])
            self.verdicts[key] = problems
        return self.verdicts[key]

    def run_round(self, tracer=None, first_id=0) -> tuple[float, float]:
        """Every invocation once; returns (raw, normalized) round seconds."""
        raw: dict[str, float] = {}
        norm: dict[str, float] = {}
        for offset, inv in enumerate(self.invocations):
            if tracer is not None:
                tracer.invocation = first_id + offset
            code, out, err, dt = call_cli(self.gb["cli"], inv.argv)
            raw[inv.metric] = raw.get(inv.metric, 0.0) + dt
            norm[inv.metric] = norm.get(inv.metric, 0.0) + self.normalize(dt)
            if self.corrupt and inv.metric.startswith("climb_"):
                out = corrupt_first_solution(out)
            if tracer is not None:
                tracer.add("cli.output_bytes", len(out.encode()))
            self.attempted += 1
            problems = self.verdict(offset, code, out, err)
            if problems:
                self.failed += 1
                self.problems.extend(f"{inv.metric}: {p}" for p in problems[:3])
        for metric in raw:
            self.raw_samples.setdefault(metric, []).append(raw[metric])
            self.samples.setdefault(metric, []).append(norm[metric])
        return sum(raw.values()), sum(norm.values())


def measure(runner: Runner, seconds: float, trace: bool, tiny: bool, seed: int, name: str):
    """Rounds until `seconds` of raw invocation time is spent (at least
    MIN_ROUNDS untraced ones); returns (metrics, normalized round totals,
    tracer state or None)."""
    rounds, spent = [], 0.0
    if not trace:
        while len(rounds) < MIN_ROUNDS or spent + last <= seconds:
            last, total = runner.run_round()
            rounds.append(total)
            spent += last
        return {"round_s": statistics.median(rounds)}, rounds, None

    tracer = Tracer()
    traced, per_round, inv_log = [], [], []
    while not traced or spent + last <= seconds:
        raw_u, total = runner.run_round()
        rounds.append(total)
        first = len(runner.invocations) * len(traced)
        layers.install(tracer, runner.gb)
        try:
            raw_t, total = runner.run_round(tracer, first)
        finally:
            tracer.uninstall()
        traced.append(total)
        ids = list(range(first, first + len(runner.invocations)))
        inv_log.extend({"id": i, "round": len(traced) - 1, "argv": list(inv.argv)}
                       for i, inv in zip(ids, runner.invocations))
        per_round.append(ids)
        last = raw_u + raw_t
        spent += last
    agg = Aggregate(tracer)
    metrics = layers.median_metrics([layers.round_metrics(tracer, agg, ids) for ids in per_round])
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(rounds) - 1
    metrics.update(sweeps.run(runner.gb, runner, name, seed, tiny))
    return metrics, rounds, (tracer, inv_log)


def run_workload(args) -> int:
    gb = import_graybox()
    workload = workloads.build(args.workload, args.seed, args.size, gb["adf"], gb["graphs"])
    reference = None
    if args.seed == DEFAULT_SEED and args.size == "full" and not args.write_reference:
        reference = json.loads(REFERENCE.read_text())["outputs"][args.workload]
    work = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    runner = Runner(gb, workload, work, reference, args.corrupt_climb)
    try:
        import_times = [runner.normalize(import_seconds()) for _ in range(SETUP_REPS)]
        setup_times = [runner.setup() for _ in range(SETUP_REPS)]
        if args.write_reference:
            return write_reference(runner, args.workload)
        metrics, rounds, traced = measure(runner, args.seconds, args.trace == 1,
                                          args.size == "tiny", args.seed, args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if traced is None:
        metrics["setup_s"] = statistics.median(import_times) + statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    else:
        tracer, inv_log = traced
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", inv_log)
        units = {**layers.LAYER_METRICS, **sweeps.metric_units()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "rounds": len(rounds),
        "round_samples_s": rounds,
        "failed_frac": runner.failed / runner.attempted,
        "commands": {
            m: {"median_s": statistics.median(v), "samples": len(v),
                "raw_median_s": statistics.median(runner.raw_samples[m])}
            for m, v in runner.samples.items()
        },
        "calibration_median_s": statistics.median(runner.cal_samples),
        "calibration_samples": len(runner.cal_samples),
        "setup_samples": SETUP_REPS,
        "wall_s": perf_counter() - _PROCESS_START,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def write_reference(runner: Runner, name: str) -> int:
    """Record this commit's outputs for the default seed (one round)."""
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {
        "seed": DEFAULT_SEED, "outputs": {}}
    outputs = []
    for inv in runner.invocations:
        code, out, err, _ = call_cli(runner.gb["cli"], inv.argv)
        problems = inv.check(out, err) if code == 0 else [f"exit code {code}"]
        if problems:
            raise SystemExit(f"error: {inv.metric} fails its check: {problems[:3]}")
        outputs.append(checks.fingerprint(out))
    doc["outputs"][name] = outputs
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote reference outputs for {name}")
    return 0


# ---------------------------------------------------------------------------
# Drivers over all workloads
# ---------------------------------------------------------------------------


def run_child(workload, seed, seconds, trace, size="full", extra=()):
    """Run one workload in a fresh process; returns (detail, result)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    detail = next((json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail ")), {})
    return detail, json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload at one seed, each in its own process, as one table."""
    ok = True
    for name in workloads.WORKLOADS:
        detail, result = run_child(name, args.seed, args.seconds, 0)
        ok &= result["correct"]
        rounds = detail["rounds"]
        print(f"{name}  seed={args.seed}  rounds={rounds}  "
              f"attempted={result['attempted']}  failed={result['failed']}")
        rows = [(metric, r["median_s"], "s", f"median of {r['samples']}, "
                 f"raw median {r['raw_median_s']:.6f} s")
                for metric, r in detail["commands"].items()]
        m = result["metrics"]
        rows += [
            ("round_s", m["round_s"]["value"], "s", f"median of {rounds}"),
            ("setup_s", m["setup_s"]["value"], "s", f"medians of {detail['setup_samples']}"),
            ("peak_rss_mb", m["peak_rss_mb"]["value"], "MB", "one process"),
            ("failed_frac", detail["failed_frac"], "ratio", f"of {result['attempted']}"),
        ]
        for metric, value, unit, samples in rows:
            print(f"  {metric:<16} {value:>12.6f} {unit:<6} {samples}")
        if args.trace:
            _, traced = run_child(name, args.seed, args.seconds, 1)
            for metric, v in traced["metrics"].items():
                print(f"  {metric:<36} {v['value']:>16.6f} {v['unit']}")
    return 0 if ok else 1


def self_test(args) -> int:
    """Tiny sizes: every BENCHMARK.json metric is emitted with its unit on
    every workload, checks pass, and a corrupted climb output is counted."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            _, result = run_child(name, args.seed, 1, trace, size="tiny")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) ^ set(got.items()))
                errors.append(f"{name} trace {trace}: metric/unit mismatch {missing[:5]}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{name} trace {trace}: {result['failed']} failed invocations")
            print(f"{name} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} invocations, {result['failed']} failed")
    detail, result = run_child("optimize-climb", args.seed, 1, 0, size="tiny",
                               extra=["--corrupt-climb"])
    if result["correct"] or detail["failed_frac"] <= 0:
        errors.append("a corrupted climb solution was not counted as failed")
    print(f"corrupted climb output: failed_frac={detail['failed_frac']:.3f}")
    for e in errors:
        print(f"FAIL {e}")
    print("self-test passed" if not errors else f"self-test failed ({len(errors)})")
    return 0 if not errors else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="tiny is for the self-test")
    p.add_argument("--all", action="store_true", help="run every workload, one process each")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--corrupt-climb", action="store_true",
                   help="flip a bit of each climb output before checking (self-test)")
    p.add_argument("--write-reference", action="store_true",
                   help="record the default seed's outputs in reference.json")
    args = p.parse_args(argv)
    if args.self_test:
        return self_test(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("--workload, --all or --self-test is required")
    if args.write_reference and args.seed != DEFAULT_SEED:
        p.error(f"reference outputs are recorded at --seed {DEFAULT_SEED}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
