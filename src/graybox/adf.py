"""Additively decomposed pseudo-Boolean functions: types, evaluation, generators, and file I/O.

A function over n binary variables is stored as a list of subfunctions, each
with an ordered scope (variable indices) and a codomain table of 2^k values.
Configuration indices read the scope left to right, first variable most
significant, so a codomain vector lists the values for 000, 001, ..., 111.
project (one solution), config_index (rows of a bit matrix) and its inverse
config_bits define that index for every table in the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ConfigError, ParseError, StructuralError

Bits = Sequence[int]


class Visibility(str, Enum):
    """How much of the instance an optimizer is allowed to see."""

    WHITE = "white"
    GRAY = "gray"
    BLACK = "black"


def _validate_scope(scope: Sequence[int], n: int | None = None) -> None:
    """StructuralError unless the scope is nonempty, repeats no variable and,
    when n is given, lies in range(n)."""
    if len(scope) < 1:
        raise StructuralError("scope must contain at least one variable")
    if len(set(scope)) != len(scope):
        raise StructuralError(f"duplicate variable in scope {scope}")
    if n is not None and (min(scope) < 0 or max(scope) >= n):
        v = next(v for v in scope if not 0 <= v < n)
        raise StructuralError(f"scope index {v} out of range for n={n}")


def project(solution: Bits, scope: Sequence[int]) -> int:
    """Read the solution bits at the scope positions as a binary number.

    The first scope variable is the most significant bit, so for
    scope (a, b, c) the result is 4*x_a + 2*x_b + x_c.
    """
    idx = 0
    n = len(solution)
    for v in scope:
        if not 0 <= v < n:
            raise StructuralError(f"scope index {v} out of range for n={n}")
        idx = (idx << 1) | (1 if solution[v] else 0)
    return idx


@lru_cache(maxsize=None)
def _place_values(width: int) -> np.ndarray:
    return 1 << np.arange(width - 1, -1, -1)


def config_index(bits: np.ndarray, scope: Sequence[int]) -> np.ndarray:
    """project() of every row of a (B, n) 0/1 matrix, as a (B,) int64 array.

    Unlike project() the scope is not range-checked. An empty scope gives
    index 0 for every row.
    """
    scope = np.asarray(scope, dtype=np.intp)
    return np.asarray(bits)[:, scope] @ _place_values(len(scope))


def config_bits(index: np.ndarray, width: int) -> np.ndarray:
    """Inverse of config_index: the (B, width) uint8 0/1 rows of (B,) indices."""
    return ((np.asarray(index)[..., None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


def collapse(values: Sequence[float], src: Sequence[int], dst: Sequence[int]) -> np.ndarray:
    """Sum a flat table over the ordered variables src onto the ordered subset dst.

    Both tables index configurations as project() does. Entries are added in
    input order, so the sums are the same as a per-configuration loop's.
    """
    configs = config_bits(np.arange(1 << len(src)), len(src))
    idx = config_index(configs, [src.index(v) for v in dst])
    return np.bincount(idx, weights=values, minlength=1 << len(dst))


def config_string(index: int, width: int) -> str:
    return format(index, f"0{width}b")


@dataclass(frozen=True)
class Subfunction:
    """One additive term: an ordered scope and its full value table."""

    scope: tuple[int, ...]
    codomain: tuple[float, ...]

    def __post_init__(self):
        _validate_scope(self.scope)
        if len(self.codomain) != 1 << len(self.scope):
            raise StructuralError(
                f"codomain has {len(self.codomain)} entries, expected {1 << len(self.scope)}"
                f" for scope of size {len(self.scope)}"
            )
        if not all(map(math.isfinite, self.codomain)):
            raise StructuralError("codomain values must be finite")

    @property
    def k(self) -> int:
        return len(self.scope)


@dataclass(frozen=True)
class AdfInstance:
    """An additively decomposed function over n binary variables.

    Instances are immutable and safe to share across threads; evaluation is
    pure. The structure views are cached on first use and are not fields.
    """

    n: int
    subfunctions: tuple[Subfunction, ...]
    wgb: tuple[Visibility, Visibility] = (Visibility.WHITE, Visibility.WHITE)
    name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError("instance needs at least one variable")
        if not self.subfunctions:
            raise StructuralError("instance needs at least one subfunction")
        for i, sub in enumerate(self.subfunctions):
            try:
                _validate_scope(sub.scope, self.n)
            except StructuralError as exc:
                raise StructuralError(f"subfunction {i}: {exc}") from None

    @property
    def m(self) -> int:
        return len(self.subfunctions)

    @property
    def structure_visible(self) -> bool:
        return self.wgb[0] is Visibility.WHITE

    def evaluate(self, solution: Bits) -> float:
        """Sum of all subfunction values at the given solution."""
        if len(solution) != self.n:
            raise StructuralError(f"solution has {len(solution)} bits, expected {self.n}")
        return float(sum(sub.codomain[project(solution, sub.scope)] for sub in self.subfunctions))

    def evaluate_batch(self, bits: np.ndarray) -> np.ndarray:
        """Vectorized evaluation of a (B, n) 0/1 matrix; returns (B,) fitnesses."""
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.n:
            raise StructuralError(f"expected a (B, {self.n}) bit matrix, got {bits.shape}")
        total = np.zeros(bits.shape[0])
        for scope, codomain in self._batch_tables:
            total += codomain[config_index(bits, scope)]
        return total

    @cached_property
    def _batch_tables(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple((np.array(s.scope, dtype=np.intp), np.array(s.codomain))
                     for s in self.subfunctions)

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """incidence[v]: (a, mask) for each subfunction a whose scope holds v,
        ascending in a; flipping v turns a's project() index c into c ^ mask."""
        lists: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for a, sub in enumerate(self.subfunctions):
            for pos, v in enumerate(sub.scope):
                lists[v].append((a, 1 << (sub.k - 1 - pos)))
        return tuple(map(tuple, lists))

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, int]]:
        # build_vig reads this, so that building the graph sorts nothing
        return frozenset((u, v) if u < v else (v, u) for sub in self.subfunctions
                         for u, v in combinations(sub.scope, 2))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The sorted interaction-graph edges: pairs (u, v), u < v, sharing a scope."""
        return tuple(sorted(self._edge_set))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """neighbors[v]: v's interaction-graph neighbours, ascending."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:  # sorted, so each list fills in ascending order
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

ADJACENT_CYCLIC = "adjacent-cyclic"
ADJACENT_ACYCLIC = "adjacent-acyclic"
RANDOM_SCOPES = "random-scopes"
SEPARABLE = "separable"
PAPER_EXAMPLE = "paper-example"

KINDS = (ADJACENT_CYCLIC, ADJACENT_ACYCLIC, RANDOM_SCOPES, SEPARABLE, PAPER_EXAMPLE)

CODOMAIN_UNIFORM = "uniform"
CODOMAIN_FOUR_OPTIMA = "four-optima"

# The published ten-variable worked example: cyclic adjacent structure, each
# subfunction valued 1 at four local optima (one of them 111) and 0 elsewhere.
# The global optimum is the all-ones string with fitness 10. Subfunction i
# covers the window starting at variable i-1; this alignment is the one that
# reproduces the published marginal tables exactly (see graybox/golden/).
_EXAMPLE_SCOPES = (
    (0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6),
    (5, 6, 7), (6, 7, 8), (7, 8, 9), (8, 9, 0), (9, 0, 1),
)
_EXAMPLE_CODOMAINS = (
    (1, 1, 0, 0, 1, 0, 0, 1),
    (0, 1, 0, 1, 1, 0, 0, 1),
    (0, 1, 1, 0, 0, 1, 0, 1),
    (0, 0, 0, 1, 1, 0, 1, 1),
    (0, 1, 0, 0, 1, 0, 1, 1),
    (1, 0, 1, 0, 1, 0, 0, 1),
    (0, 1, 1, 0, 0, 1, 0, 1),
    (1, 1, 0, 0, 1, 0, 0, 1),
    (1, 0, 1, 1, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 1, 1, 1),
)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a reproducible instance family member.

    `codomain_seed` defaults to `seed`; pass it explicitly to decouple the
    value tables from the scope layout.
    """

    kind: str
    n: int = 0
    k: int = 0
    m: int | None = None
    codomain: str = CODOMAIN_UNIFORM
    seed: int = 0
    codomain_seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown instance kind {self.kind!r}")
        if self.codomain not in (CODOMAIN_UNIFORM, CODOMAIN_FOUR_OPTIMA):
            raise ConfigError(f"unknown codomain source {self.codomain!r}")
        for name, seed in (("seed", self.seed), ("codomain seed", self.codomain_seed)):
            if seed is not None and seed < 0:
                raise ConfigError(f"{name} must be nonnegative, got {seed}")
        if self.kind == PAPER_EXAMPLE:
            return
        if self.n < 1 or self.k < 1:
            raise ConfigError("n and k must be positive")
        if self.k > self.n:
            raise ConfigError(f"k={self.k} exceeds n={self.n}")
        if self.kind == SEPARABLE:
            if self.n % self.k != 0:
                raise ConfigError(f"separable instances need k | n, got n={self.n}, k={self.k}")
            if self.m is not None and self.m != self.n // self.k:
                raise ConfigError(f"separable instances have m=n/k={self.n // self.k}")
        if self.kind == ADJACENT_CYCLIC and self.m is not None and self.m != self.n:
            raise ConfigError(f"adjacent-cyclic instances have m=n={self.n}")
        if self.kind == ADJACENT_ACYCLIC and self.m is not None and self.m != self.n - self.k + 1:
            raise ConfigError(f"adjacent-acyclic instances have m=n-k+1={self.n - self.k + 1}")
        if self.kind == RANDOM_SCOPES and self.m is not None and self.m < 1:
            raise ConfigError("m must be positive")
        if self.codomain == CODOMAIN_FOUR_OPTIMA and self.k < 2:
            raise ConfigError("four-optima codomains need k >= 2 (four distinct configurations)")


def paper_example() -> AdfInstance:
    """The bundled ten-variable cyclic example used by the replication command."""
    subs = tuple(
        Subfunction(scope, tuple(float(v) for v in cod))
        for scope, cod in zip(_EXAMPLE_SCOPES, _EXAMPLE_CODOMAINS)
    )
    return AdfInstance(n=10, subfunctions=subs, name=PAPER_EXAMPLE)


def _scopes_for(spec: GeneratorSpec, rng: np.random.Generator) -> list[tuple[int, ...]]:
    n, k = spec.n, spec.k
    if spec.kind == ADJACENT_CYCLIC:
        return [tuple((i + d) % n for d in range(k)) for i in range(n)]
    if spec.kind == ADJACENT_ACYCLIC:
        return [tuple(range(i, i + k)) for i in range(n - k + 1)]
    if spec.kind == SEPARABLE:
        return [tuple(range(b * k, (b + 1) * k)) for b in range(n // k)]
    if spec.kind == RANDOM_SCOPES:
        m = spec.m if spec.m is not None else n
        return [
            tuple(sorted(int(v) for v in rng.choice(n, size=k, replace=False)))
            for _ in range(m)
        ]
    raise ConfigError(f"kind {spec.kind!r} has no scope layout")


def _codomain_for(spec: GeneratorSpec, k: int, rng: np.random.Generator) -> tuple[float, ...]:
    size = 1 << k
    if spec.codomain == CODOMAIN_UNIFORM:
        return tuple(float(v) for v in rng.random(size))
    # four-optima: value 1 at the all-ones configuration plus three random
    # others, 0 everywhere else, so the all-ones string is a global optimum.
    values = [0.0] * size
    values[size - 1] = 1.0
    for c in rng.choice(size - 1, size=3, replace=False):
        values[int(c)] = 1.0
    return tuple(values)


def generate(spec: GeneratorSpec) -> AdfInstance:
    """Build the instance a GeneratorSpec describes; deterministic per seed."""
    if spec.kind == PAPER_EXAMPLE:
        return paper_example()
    scope_seq, codomain_seq = np.random.SeedSequence(spec.seed).spawn(2)
    scope_rng = np.random.default_rng(scope_seq)
    if spec.codomain_seed is not None:
        codomain_rng = np.random.default_rng(spec.codomain_seed)
    else:
        codomain_rng = np.random.default_rng(codomain_seq)
    scopes = _scopes_for(spec, scope_rng)
    subs = tuple(
        Subfunction(scope, _codomain_for(spec, len(scope), codomain_rng)) for scope in scopes
    )
    name = f"{spec.kind}(n={spec.n},k={spec.k},seed={spec.seed},codomain={spec.codomain})"
    return AdfInstance(n=spec.n, subfunctions=subs, name=name)


def order_scopes(instance: AdfInstance, order: int) -> list[tuple[int, ...]]:
    """Per subfunction, the window of `order` variables from one before its first
    scope variable, wrapping (the paper example's golden-table alignment)."""
    n = instance.n
    return [tuple((s.scope[0] - 1 + d) % n for d in range(order)) for s in instance.subfunctions]


# ---------------------------------------------------------------------------
# Serialization: line-oriented text format plus a JSON mirror
# ---------------------------------------------------------------------------
#
#   # name: <free text>           (optional; JSON-quoted when it starts with a
#                                  quote, has outer blanks or a line break)
#   adf <n> <M>
#   wgb <structure> <subfunctions>   each in {white, gray, black} (optional)
#   sub <k_i> <idx_1..idx_k> <v_0 .. v_{2^k - 1}>


def _name_value(name: str) -> str:
    """The name as written on its comment line: as-is when _parse_text reads
    it back unchanged, else JSON-quoted with ASCII escapes."""
    plain = name == name.strip() and len(name.splitlines()) == 1 and not name.startswith('"')
    return name if plain else json.dumps(name)


def serialize(instance: AdfInstance) -> str:
    lines = []
    if instance.name:
        lines.append(f"# name: {_name_value(instance.name)}")
    lines.append(f"adf {instance.n} {instance.m}")
    lines.append(f"wgb {instance.wgb[0].value} {instance.wgb[1].value}")
    for sub in instance.subfunctions:
        scope = " ".join(str(v) for v in sub.scope)
        values = " ".join(repr(v) for v in sub.codomain)
        lines.append(f"sub {sub.k} {scope} {values}")
    return "\n".join(lines) + "\n"


def json_int(value) -> int:
    """An integer field of a JSON document; TypeError for floats, bools and the rest."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_text(doc) -> str:
    """The JSON layout of every written document: indented, keys sorted, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def serialize_json(instance: AdfInstance) -> str:
    doc = {
        "name": instance.name,
        "n": instance.n,
        "wgb": [instance.wgb[0].value, instance.wgb[1].value],
        "subfunctions": [
            {"scope": list(sub.scope), "codomain": list(sub.codomain)}
            for sub in instance.subfunctions
        ],
    }
    return json_text(doc)


def _parse_visibility(token: str, lineno: int) -> Visibility:
    try:
        return Visibility(token)
    except ValueError:
        raise ParseError(f"line {lineno}: unknown visibility {token!r}") from None


def parse(text: str) -> AdfInstance:
    """Parse either the text format or the JSON mirror (auto-detected)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def _parse_text(text: str) -> AdfInstance:
    n = None
    declared_m = None
    wgb = (Visibility.WHITE, Visibility.WHITE)
    name = ""
    subs: list[Subfunction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("name:"):
                name = comment[len("name:"):].strip()
                if name.startswith('"'):
                    try:
                        name = json.loads(name)
                    except json.JSONDecodeError:
                        pass  # free text that only looks quoted: keep it raw
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "adf":
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 'adf <n> <M>'")
            try:
                n, declared_m = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: n and M must be integers") from None
        elif tag == "wgb":
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 'wgb <structure> <subfunctions>'")
            wgb = (_parse_visibility(fields[1], lineno), _parse_visibility(fields[2], lineno))
        elif tag == "sub":
            if n is None:
                raise ParseError(f"line {lineno}: 'sub' before 'adf' header")
            try:
                k = int(fields[1])
            except (IndexError, ValueError):
                raise ParseError(f"line {lineno}: expected 'sub <k> ...'") from None
            expected = 2 + k + (1 << k)
            if len(fields) != expected:
                raise ParseError(
                    f"line {lineno}: expected {k} indices and {1 << k} values"
                    f" ({expected} fields), got {len(fields)}"
                )
            try:
                scope = tuple(int(v) for v in fields[2 : 2 + k])
                values = tuple(float(v) for v in fields[2 + k :])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed number") from None
            try:
                subs.append(Subfunction(scope, values))
            except StructuralError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        else:
            raise ParseError(f"line {lineno}: unknown directive {tag!r}")
    if n is None:
        raise ParseError("missing 'adf <n> <M>' header")
    if declared_m != len(subs):
        raise ParseError(f"header declares {declared_m} subfunctions, found {len(subs)}")
    try:
        return AdfInstance(n=n, subfunctions=tuple(subs), wgb=wgb, name=name)
    except StructuralError as exc:
        raise ParseError(str(exc)) from None


def _parse_json(text: str) -> AdfInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    try:
        n = json_int(doc["n"])
        wgb_raw = doc.get("wgb", ["white", "white"])
        if not isinstance(wgb_raw, list) or len(wgb_raw) != 2:
            raise TypeError(f"wgb must be a two-item list, got {wgb_raw!r}")
        wgb = (_parse_visibility(wgb_raw[0], 0), _parse_visibility(wgb_raw[1], 0))
        subs = []
        for i, entry in enumerate(doc["subfunctions"]):
            scope = tuple(map(json_int, entry["scope"]))
            values = tuple(float(v) for v in entry["codomain"])
            try:
                subs.append(Subfunction(scope, values))
            except StructuralError as exc:
                raise ParseError(f"subfunction {i}: {exc}") from None
        return AdfInstance(n=n, subfunctions=tuple(subs), wgb=wgb, name=str(doc.get("name", "")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed instance document: {exc}") from None
    except StructuralError as exc:
        raise ParseError(str(exc)) from None


def bits_from_string(text: str) -> tuple[int, ...]:
    if not text or any(c not in "01" for c in text):
        raise ParseError(f"expected a 0/1 string, got {text!r}")
    return tuple(int(c) for c in text)


def bits_to_string(bits: Bits) -> str:
    return "".join("1" if b else "0" for b in bits)
