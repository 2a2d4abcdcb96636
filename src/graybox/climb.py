"""Structure-aware hill climbing with constant-time-per-move delta evaluation.

A DeltaState caches one start's subfunction values; the structure all starts
share (incidence, neighbours, edges) is cached on the instance. Flipping bit i
touches only the c_i subfunctions containing it, independent of n. At a 1-bit
local optimum, only interaction-graph edges are worth flipping together: for
non-adjacent u, v the pair delta is exactly delta(u) + delta(v) <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adf import AdfInstance, Bits, project
from .errors import ConfigError, StructuralError
from .graphs import _require_structure, build_vig  # build_vig: wrapped by the benchmark tracer

PIVOT_BEST = "best"
PIVOT_FIRST = "first"


@dataclass(frozen=True)
class ClimbPolicy:
    pivot: str = PIVOT_BEST
    pair_moves: bool = False
    max_moves: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.pivot not in (PIVOT_BEST, PIVOT_FIRST):
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
        if len(start) != instance.n:
            raise StructuralError(f"start has {len(start)} bits, expected {instance.n}")
        self.instance = instance
        self.bits = [1 if b else 0 for b in start]
        self.eval_count = 0
        self.sub_cfgs = [project(self.bits, sub.scope) for sub in instance.subfunctions]
        self.sub_values = [sub.codomain[c] for sub, c in zip(instance.subfunctions, self.sub_cfgs)]
        self.fitness = float(sum(self.sub_values))
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


def pair_candidates(state: DeltaState) -> tuple[tuple[int, int], ...]:
    """Exactly the interaction graph edges; only these pairs can improve once
    no single flip does. Precondition: no cached delta is positive."""
    if (state.deltas > 0).any():
        raise StructuralError("pair_candidates requires that no single flip improves")
    return state.instance.edges


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
    permutation refreshed each sweep. A pair move counts as one move.
    """
    state = init_state(instance, start)
    rng = np.random.default_rng(policy.seed)
    moves = 0
    perm: list[int] = []
    pos = 0

    def pick_first() -> int:
        nonlocal perm, pos
        while True:
            while pos < len(perm):
                v = perm[pos]
                pos += 1
                if state.deltas[v] > 0:
                    return v
            perm = [int(x) for x in rng.permutation(instance.n)]
            pos = 0

    while True:
        move, delta = (), 0.0
        i = int(np.argmax(state.deltas))
        if state.deltas[i] > 0:
            if policy.pivot == PIVOT_FIRST:
                i = pick_first()
            move, delta = (i,), float(state.deltas[i])
        elif policy.pair_moves:
            for u, v in pair_candidates(state):
                d = delta_pair(state, u, v)
                if d > delta:
                    move, delta = (u, v), d
        if not move or (policy.max_moves is not None and moves >= policy.max_moves):
            return ClimbResult(tuple(state.bits), state.fitness, moves, converged=not move)
        for v in move:
            apply_flip(state, v)
        moves += 1
        if trace is not None:
            trace({"move": moves, "variables": list(move), "delta": delta, "fitness": state.fitness})
