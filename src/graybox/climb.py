"""Structure-aware hill climbing with constant-time-per-move delta evaluation.

A DeltaState caches one start's subfunction values; the structure all starts
share (incidence, neighbours, edges) is cached on the instance. Flipping bit i
touches only the c_i subfunctions containing it, independent of n. At a 1-bit
local optimum, only interaction-graph edges are worth flipping together: for
non-adjacent u, v the pair delta is exactly delta(u) + delta(v) <= 0. Pair
scores are cached per edge; a flip of w can change only the scores of edges
touching N[w] ∪ {w}, so only those are rescored at the next pair scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adf import AdfInstance, Bits, add_in_order, check_bits, project
from .errors import ConfigError, StructuralError
from .graphs import _require_structure, build_vig  # build_vig: wrapped by the benchmark tracer

PIVOT_BEST = "best"
PIVOT_FIRST = "first"
PIVOTS = (PIVOT_BEST, PIVOT_FIRST)


@dataclass(frozen=True)
class ClimbPolicy:
    pivot: str = PIVOT_BEST
    pair_moves: bool = False
    max_moves: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.pivot not in PIVOTS:
            raise ConfigError(f"unknown pivot rule {self.pivot!r}")
        if self.max_moves is not None and self.max_moves < 0:
            raise ConfigError(f"max moves must be nonnegative, got {self.max_moves}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class ClimbResult:
    solution: tuple[int, ...]
    fitness: float
    moves: int
    converged: bool


class DeltaState:
    """Single-owner mutable state of one start; the structure is the instance's.

    Invariants maintained by apply_flip: `fitness` equals the full evaluation
    of `bits` and `deltas`, a float64 array, caches every variable's flip
    delta, so the strictly improving single flips are exactly `deltas > 0`.
    `eval_count` counts individual subfunction table lookups.
    """

    def __init__(self, instance: AdfInstance, start: Bits):
        _require_structure(instance, "delta evaluation")
        check_bits(start, instance.n, "start")
        self.instance = instance
        self.bits = [1 if b else 0 for b in start]
        self.eval_count = 0
        self.sub_cfgs = [project(self.bits, sub.scope) for sub in instance.subfunctions]
        self.sub_values = [sub.codomain[c] for sub, c in zip(instance.subfunctions, self.sub_cfgs)]
        self.fitness = add_in_order(self.sub_values)
        self.deltas = np.array([self._delta(flips) for flips in instance.incidence])

    def _delta(self, flips) -> float:
        """Fitness change of applying each (subfunction, xor mask) of flips, in order."""
        d = 0.0
        subs = self.instance.subfunctions
        for a, mask in flips:
            d += subs[a].codomain[self.sub_cfgs[a] ^ mask] - self.sub_values[a]
            self.eval_count += 1
        return d


def init_state(instance: AdfInstance, start: Bits) -> DeltaState:
    """Build all caches with one full evaluation pass."""
    return DeltaState(instance, start)


def _check_var(state: DeltaState, i: int) -> None:
    if not 0 <= i < state.instance.n:
        raise StructuralError(f"variable {i} out of range for n={state.instance.n}")


def delta_flip(state: DeltaState, i: int) -> float:
    """Fitness change of flipping bit i, re-evaluating only the c_i
    subfunctions containing it. Leaves the state untouched."""
    _check_var(state, i)
    return state._delta(state.instance.incidence[i])


def apply_flip(state: DeltaState, i: int) -> DeltaState:
    """Flip bit i and restore all invariants.

    Only subfunctions containing i are recomputed; only i and its interaction
    graph neighbors get their cached deltas refreshed (no other variable's
    delta can have changed). The fitness moves by the cached delta of i.
    """
    _check_var(state, i)
    incidence, subs = state.instance.incidence, state.instance.subfunctions
    for a, mask in incidence[i]:
        cfg = state.sub_cfgs[a] ^ mask
        state.sub_cfgs[a] = cfg
        state.sub_values[a] = subs[a].codomain[cfg]
        state.eval_count += 1
    state.bits[i] ^= 1
    state.fitness += float(state.deltas[i])
    for v in (i, *state.instance.neighbors[i]):
        state.deltas[v] = state._delta(incidence[v])
    return state


def delta_pair(state: DeltaState, u: int, v: int) -> float:
    """Fitness change of flipping u and v together (state untouched)."""
    _check_var(state, u)
    _check_var(state, v)
    if u == v:
        raise StructuralError("pair move needs two distinct variables")
    masks = dict(state.instance.incidence[u])
    for a, mask in state.instance.incidence[v]:
        masks[a] = masks.get(a, 0) ^ mask
    return state._delta(sorted(masks.items()))


def hill_climb(
    instance: AdfInstance,
    start: Bits,
    policy: ClimbPolicy = ClimbPolicy(),
    trace: Callable[[dict], None] | None = None,
) -> ClimbResult:
    """Climb until no strictly improving single flip (and, when enabled, no
    improving interaction-graph pair) remains, or max_moves is hit.

    Best-improvement picks the largest delta, ties to the lowest variable
    (np.argmax returns the first maximum); first-improvement scans a seeded
    permutation refreshed each sweep. A pair move counts as one move and
    picks the largest pair score, ties to the first edge in `instance.edges`
    order. Pair scores are cached per edge: a flip of w changes only the
    subfunctions containing w, so only edges with an endpoint in N[w] ∪ {w}
    are rescored at the next pair scan.
    """
    state = init_state(instance, start)
    rng = np.random.default_rng(policy.seed)
    moves = 0
    perm: list[int] = []
    pos = 0
    edges = instance.edges
    if policy.pair_moves:
        ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
        scores = np.zeros(len(edges))
        stale = np.ones(instance.n, dtype=bool)  # variables whose edges need rescoring

    def pick_first() -> int | None:
        """The next permutation entry with an improving flip, or None if no flip
        improves. A new permutation is drawn only when the current one is used
        up and some flip improves; a failed scan keeps its position, so after a
        pair move the scan resumes where it stopped."""
        nonlocal perm, pos
        while True:
            for p in range(pos, len(perm)):
                if state.deltas[perm[p]] > 0:
                    pos = p + 1
                    return perm[p]
            if not (state.deltas > 0).any():
                return None
            perm = [int(x) for x in rng.permutation(instance.n)]
            pos = 0

    while True:
        move, delta = (), 0.0
        if policy.pivot == PIVOT_FIRST:
            i = pick_first()
        else:
            i = int(np.argmax(state.deltas))
            if state.deltas[i] <= 0:
                i = None
        if i is not None:
            move, delta = (i,), float(state.deltas[i])
        elif policy.pair_moves and edges:
            for e in np.flatnonzero(stale[ends].any(axis=1)).tolist():
                scores[e] = delta_pair(state, *edges[e])
            stale[:] = False
            e = int(np.argmax(scores))
            if scores[e] > 0:
                move, delta = edges[e], float(scores[e])
        if not move or (policy.max_moves is not None and moves >= policy.max_moves):
            return ClimbResult(tuple(state.bits), state.fitness, moves, converged=not move)
        for v in move:
            apply_flip(state, v)
            if policy.pair_moves:
                stale[[v, *instance.neighbors[v]]] = True
        moves += 1
        if trace is not None:
            trace({"move": moves, "variables": list(move), "delta": delta, "fitness": state.fitness})
