"""Output checks that hold for any seed, plus the exact reference comparison.

Every check recomputes its answer with code that does not share the path it
checks: fitness through `AdfInstance.evaluate` / `evaluate_batch`, marginal
sums by additivity instead of enumeration, junction trees through
`running_intersection_holds`. Each returns a list of problems; empty means
the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import combinations

import numpy as np

REL_TOL = 1e-9
BLOCK_ROWS = 256


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _bits(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


def _json(stdout: str):
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_fda(instance, stdout: str, max_gens: int) -> list[str]:
    doc, problems = _json(stdout)
    if doc is None:
        return problems
    best = doc["best"]
    if len(best) != instance.n:
        return [f"best has {len(best)} bits, expected {instance.n}"]
    if doc["generations"] != max_gens or len(doc["history"]) != max_gens + 1:
        problems.append(f"expected {max_gens} generations, got {doc['generations']}")
    exact = instance.evaluate(tuple(int(c) for c in best))
    if not close(doc["fitness"], exact):
        problems.append(f"fitness {doc['fitness']!r} but best evaluates to {exact!r}")
    return problems


def vig_edges(instance) -> list[tuple[int, int]]:
    edges = set()
    for sub in instance.subfunctions:
        for u, v in combinations(sub.scope, 2):
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def flip_gains(instance, solution: np.ndarray) -> np.ndarray:
    """f(x with bit v flipped) - f(x) for every v, straight from the value
    tables: each subfunction adds its own change to each of its variables."""
    gains = np.zeros(instance.n)
    for k in {sub.k for sub in instance.subfunctions}:
        subs = [sub for sub in instance.subfunctions if sub.k == k]
        scopes = np.array([sub.scope for sub in subs])
        tables = np.array([sub.codomain for sub in subs])
        rows = np.arange(len(subs))
        cfg = solution[scopes].astype(np.int64) @ (1 << np.arange(k - 1, -1, -1))
        for p in range(k):
            moved = tables[rows, cfg ^ (1 << (k - 1 - p))] - tables[rows, cfg]
            np.add.at(gains, scopes[:, p], moved)
    return gains


def max_pair_neighbour(instance, solution: np.ndarray, pairs: list[tuple[int, int]]) -> float:
    """Best fitness among the solutions with both bits of a pair flipped."""
    best = -math.inf
    for lo in range(0, len(pairs), BLOCK_ROWS):
        block = np.array(pairs[lo : lo + BLOCK_ROWS])
        rows = np.tile(solution, (len(block), 1))
        idx = np.arange(len(block))
        rows[idx, block[:, 0]] ^= 1
        rows[idx, block[:, 1]] ^= 1
        best = max(best, float(instance.evaluate_batch(rows).max()))
    return best


def check_climb(instance, stdout: str, starts: int, pair_moves: bool) -> list[str]:
    doc, problems = _json(stdout)
    if doc is None:
        return problems
    results = doc["results"]
    if doc["starts"] != starts or len(results) != starts:
        return [f"expected {starts} results, got {len(results)}"]
    edges = vig_edges(instance) if pair_moves else []
    for i, res in enumerate(results):
        sol = res["solution"]
        if len(sol) != instance.n or set(sol) - {"0", "1"}:
            problems.append(f"result {i}: malformed solution")
            continue
        bits = _bits(sol)
        fitness = res["fitness"]
        exact = float(instance.evaluate_batch(bits[None, :])[0])
        if not close(fitness, exact):
            problems.append(f"result {i}: fitness {fitness!r} but solution evaluates to {exact!r}")
        if not res["converged"]:
            problems.append(f"result {i}: not converged")
        tol = REL_TOL * max(abs(exact), 1.0)
        if flip_gains(instance, bits).max() > tol:
            problems.append(f"result {i}: not a 1-bit local optimum")
        if pair_moves and max_pair_neighbour(instance, bits, edges) > exact + tol:
            problems.append(f"result {i}: not an interaction-graph pair optimum")
    if results and doc["best"] != max(results, key=lambda r: r["fitness"]):
        problems.append("best is not the fittest result")
    return problems


def order_windows(instance, order: int) -> list[tuple[int, ...]]:
    """The CLI's --order scopes: one cyclic window per subfunction, starting
    one variable before the subfunction's first scope variable."""
    return [
        tuple((sub.scope[0] - 1 + d) % instance.n for d in range(order))
        for sub in instance.subfunctions
    ]


def sum_table(instance, scope: tuple[int, ...]) -> list[float]:
    """Fitness-sum marginal over `scope` by additivity, without enumeration.

    Entry c is sum_i 2^(n - |S u s_i|) * (sum of f_i over the configurations
    of s_i that agree with c on S n s_i).
    """
    j = len(scope)
    table = [0.0] * (1 << j)
    for sub in instance.subfunctions:
        k = len(sub.scope)
        shared = [(scope.index(v), p) for p, v in enumerate(sub.scope) if v in scope]
        weight = float(1 << (instance.n - len(set(scope) | set(sub.scope))))
        for c in range(1 << j):
            total = 0.0
            for cfg, value in enumerate(sub.codomain):
                if all(
                    (cfg >> (k - 1 - p)) & 1 == (c >> (j - 1 - q)) & 1 for q, p in shared
                ):
                    total += value
            table[c] += weight * total
    return table


def check_deception(instance, stdout: str, order: int) -> list[str]:
    doc, problems = _json(stdout)
    if doc is None:
        return problems
    factors = doc["factors"]
    windows = order_windows(instance, order)
    if [tuple(f["scope"]) for f in factors] != windows:
        return ["scopes differ from the order windows"]
    expected_ids = []
    for f, scope in zip(factors, windows):
        table = sum_table(instance, scope)
        top = max(table)
        best = {format(c, f"0{order}b") for c, v in enumerate(table) if v == top}
        if set(f["best_configs"]) != best:
            problems.append(f"factor {f['factor']}: best {f['best_configs']}, expected {sorted(best)}")
        if f["optimum_config"] != "1" * order:
            problems.append(f"factor {f['factor']}: optimum config {f['optimum_config']}")
        deceptive = f["optimum_config"] not in best
        if f["deceptive"] != deceptive:
            problems.append(f"factor {f['factor']}: deceptive flag {f['deceptive']}")
        if deceptive:
            expected_ids.append(f["factor"])
    if doc["deceptive_factors"] != expected_ids:
        problems.append(f"deceptive set {doc['deceptive_factors']}, expected {expected_ids}")
    return problems


def check_boltzmann(stdout: str) -> list[str]:
    doc, problems = _json(stdout)
    if doc is None:
        return problems
    if not doc:
        return ["no tables"]
    for table in doc:
        values = list(table["values"].values())
        if len(values) != 1 << len(table["scope"]):
            problems.append(f"scope {table['scope']}: {len(values)} entries")
        if abs(math.fsum(values) - 1.0) > 1e-12:
            problems.append(f"scope {table['scope']}: sums to {math.fsum(values)!r}")
        if min(values) < 0:
            problems.append(f"scope {table['scope']}: negative probability")
    return problems


def check_replicate(stdout: str, stderr: str, expected_checks: int) -> list[str]:
    lines = stdout.splitlines()
    problems = [line for line in lines if not line.startswith("PASS")]
    if len(lines) != expected_checks:
        problems.append(f"{len(lines)} checks reported, expected {expected_checks}")
    if stderr.strip():
        problems.append("mismatches reported")
    return problems


def check_junction_tree(graphs, instance, stdout: str) -> list[str]:
    doc, problems = _json(stdout)
    if doc is None:
        return problems
    jt = graphs.JunctionTree(
        n=doc["n"],
        cliques=tuple(tuple(c) for c in doc["cliques"]),
        edges=tuple(tuple(e) for e in doc["edges"]),
        separators=tuple(tuple(s) for s in doc["separators"]),
    )
    if jt.n != instance.n or len(jt.edges) != len(jt.cliques) - 1:
        problems.append("junction tree is not a spanning tree over the cliques")
    if doc["treewidth"] != max(len(c) for c in jt.cliques) - 1:
        problems.append("treewidth differs from the largest clique")
    for (i, j), sep in zip(jt.edges, jt.separators):
        if set(sep) != set(jt.cliques[i]) & set(jt.cliques[j]):
            problems.append(f"edge ({i},{j}): separator is not the clique intersection")
            break
    clique_sets = [frozenset(c) for c in jt.cliques]
    for a, sub in enumerate(instance.subfunctions):
        scope = set(sub.scope)
        if not any(scope <= c for c in clique_sets):
            problems.append(f"subfunction {a} scope is in no clique")
            break
    if not graphs.running_intersection_holds(jt):
        problems.append("running intersection fails")
    return problems


# ---------------------------------------------------------------------------
# Reference outputs
# ---------------------------------------------------------------------------


def fingerprint(stdout: str) -> dict:
    """Split an output into an exact part (hashed) and its floats (kept).

    JSON outputs hash everything but float values, which are compared within
    REL_TOL, so reordering a float sum passes while any changed bit string,
    count, set or integer fails. Non-JSON outputs are hashed whole.
    """
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return {"exact": hashlib.sha256(stdout.encode()).hexdigest(), "floats": []}
    floats: list[float] = []

    def strip(node):
        if isinstance(node, float):
            floats.append(node)
            return "<float>"
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items()}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    exact = json.dumps(strip(doc), sort_keys=True, separators=(",", ":"))
    return {"exact": hashlib.sha256(exact.encode()).hexdigest(), "floats": floats}


def check_reference(stdout: str, reference: dict) -> list[str]:
    got = fingerprint(stdout)
    if got["exact"] != reference["exact"]:
        return ["differs from the reference output (strings, counts or structure)"]
    if len(got["floats"]) != len(reference["floats"]):
        return ["float count differs from the reference output"]
    for a, b in zip(got["floats"], reference["floats"]):
        if not close(a, b):
            return [f"float {a!r} differs from reference {b!r}"]
    return []
