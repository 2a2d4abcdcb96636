"""Graphical views of instance structure and the factorizations derived from them.

All operations are deterministic: ties are broken by lowest vertex index, and
the junction-tree spanning tree is built by maximum separator weight with a
fixed edge order, so identical inputs always give identical structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from .adf import AdfInstance
from .errors import StructuralError, VisibilityError

MIN_FILL = "min-fill"
MIN_DEGREE = "min-degree"


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected graph with one vertex per variable (the VIG)."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise StructuralError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise StructuralError(f"edge ({u},{v}) out of range for n={self.n}")
            if u > v:
                raise StructuralError(f"edge ({u},{v}) not normalized")

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class FactorGraph:
    """Bipartite variable/factor incidence graph; factor a is adjacent to scope a."""

    n: int
    scopes: tuple[tuple[int, ...], ...]


def _require_structure(instance: AdfInstance, operation: str) -> None:
    if not instance.structure_visible:
        raise VisibilityError(
            f"{operation} needs white structure visibility, instance is "
            f"{instance.wgb[0].value}"
        )


def build_vig(instance: AdfInstance) -> InteractionGraph:
    """Edge {u,v} iff u and v co-occur in some subfunction scope."""
    _require_structure(instance, "build_vig")
    edges = set()
    for sub in instance.subfunctions:
        for u, v in combinations(sub.scope, 2):
            edges.add(_edge(u, v))
    return InteractionGraph(n=instance.n, edges=frozenset(edges))


def build_factor_graph(instance: AdfInstance) -> FactorGraph:
    _require_structure(instance, "build_factor_graph")
    return FactorGraph(n=instance.n, scopes=tuple(sub.scope for sub in instance.subfunctions))


# ---------------------------------------------------------------------------
# Chordal completion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChordalCompletion:
    """A graph plus the fill edges that make it chordal along elimination_order."""

    base: InteractionGraph
    fill_edges: frozenset[tuple[int, int]]
    elimination_order: tuple[int, ...]

    def completed(self) -> InteractionGraph:
        return InteractionGraph(self.base.n, frozenset(self.base.edges | self.fill_edges))


def _eliminate(graph: InteractionGraph, pick) -> tuple[tuple[int, ...], set, list[frozenset]]:
    """Eliminate every vertex, each time the one pick(adj, remaining) names,
    and connect its remaining neighbours.

    Returns the elimination order, the fill edges added and the elimination
    clique of each vertex (itself plus its remaining neighbours).
    """
    adj = graph.adjacency()
    remaining = set(range(graph.n))
    order = []
    fill = set()
    cliques = []
    while remaining:
        v = pick(adj, remaining)
        order.append(v)
        remaining.discard(v)
        nbrs = sorted(adj[v] & remaining)
        for u, w in combinations(nbrs, 2):
            if w not in adj[u]:
                fill.add(_edge(u, w))
                adj[u].add(w)
                adj[w].add(u)
        cliques.append(frozenset([v, *nbrs]))
    return tuple(order), fill, cliques


def _in_order(n: int, order: Sequence[int]):
    """A pick for _eliminate that replays a given permutation of the vertices."""
    if sorted(order) != list(range(n)):
        raise StructuralError("elimination order must be a permutation of the vertices")
    it = iter(order)
    return lambda adj, remaining: next(it)


def _min_fill(adj: list[set[int]], remaining: set[int]) -> int:
    def fill_count(v: int) -> int:
        nbrs = [u for u in adj[v] if u in remaining]
        return sum(1 for u, w in combinations(nbrs, 2) if w not in adj[u])

    return min(remaining, key=lambda u: (fill_count(u), u))


def _min_degree(adj: list[set[int]], remaining: set[int]) -> int:
    return min(remaining, key=lambda u: (len(adj[u] & remaining), u))


_HEURISTICS = {MIN_FILL: _min_fill, MIN_DEGREE: _min_degree}


def triangulate(
    graph: InteractionGraph, heuristic: str | Sequence[int] = MIN_FILL
) -> ChordalCompletion:
    """Chordal completion via min-fill, min-degree, or an explicit order.

    Ties between candidate vertices are broken by lowest index, so the result
    is deterministic for a given heuristic.
    """
    if not isinstance(heuristic, str):
        pick = _in_order(graph.n, tuple(heuristic))
    elif heuristic in _HEURISTICS:
        pick = _HEURISTICS[heuristic]
    else:
        raise StructuralError(f"unknown triangulation heuristic {heuristic!r}")
    order, fill, _ = _eliminate(graph, pick)
    return ChordalCompletion(graph, frozenset(fill), order)


# ---------------------------------------------------------------------------
# Junction tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JunctionTree:
    """Maximal cliques of a chordal graph joined into a tree.

    Cliques are sorted tuples listed in ascending order; edges and separators
    are parallel lists over clique ids. The running intersection property
    holds for every tree built by junction_tree.
    """

    n: int
    cliques: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    separators: tuple[tuple[int, ...], ...]

    @property
    def treewidth(self) -> int:
        return max(len(c) for c in self.cliques) - 1


def junction_tree(completion: ChordalCompletion) -> JunctionTree:
    """Maximal cliques plus a maximum-separator-weight spanning tree.

    Raises StructuralError if replaying the completion's elimination order
    on the completed graph would still need fill (i.e. it is not chordal).
    """
    full = completion.completed()
    _, fill, elim_cliques = _eliminate(full, _in_order(full.n, completion.elimination_order))
    if fill:
        raise StructuralError(
            f"graph is not chordal along the elimination order: missing edges {sorted(fill)}"
        )

    maximal = [c for c in elim_cliques if not any(c < d for d in elim_cliques)]
    cliques = sorted(set(tuple(sorted(c)) for c in maximal))

    # Kruskal on all clique pairs, heaviest separators first; weight-0 edges
    # join disconnected components with empty separators.
    candidates = sorted(
        ((i, j) for i in range(len(cliques)) for j in range(i + 1, len(cliques))),
        key=lambda e: (-len(set(cliques[e[0]]) & set(cliques[e[1]])), e),
    )
    parent = list(range(len(cliques)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    separators = []
    for i, j in candidates:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        edges.append((i, j))
        separators.append(tuple(sorted(set(cliques[i]) & set(cliques[j]))))
        if len(edges) == len(cliques) - 1:
            break
    return JunctionTree(
        n=full.n,
        cliques=tuple(cliques),
        edges=tuple(edges),
        separators=tuple(separators),
    )


def running_intersection_holds(jt: JunctionTree) -> bool:
    """For every vertex, the cliques containing it must form a connected subtree."""
    adj: dict[int, list[int]] = {i: [] for i in range(len(jt.cliques))}
    for i, j in jt.edges:
        adj[i].append(j)
        adj[j].append(i)
    for v in range(jt.n):
        holding = [i for i, c in enumerate(jt.cliques) if v in c]
        if not holding:
            return False
        seen = {holding[0]}
        stack = [holding[0]]
        while stack:
            c = stack.pop()
            for d in adj[c]:
                if d not in seen and v in jt.cliques[d]:
                    seen.add(d)
                    stack.append(d)
        if set(holding) != seen:
            return False
    return True


# ---------------------------------------------------------------------------
# Factorizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """(new variables | conditioning variables); both sorted ascending."""

    new: tuple[int, ...]
    cond: tuple[int, ...]


@dataclass(frozen=True)
class Factorization:
    """Ordered factors for ancestral sampling.

    Factor 0 is an unconditioned joint; every later factor conditions only on
    variables introduced earlier, and every variable is new exactly once.
    """

    n: int
    factors: tuple[Factor, ...]

    def __post_init__(self):
        introduced: set[int] = set()
        for i, f in enumerate(self.factors):
            if i == 0 and f.cond:
                raise StructuralError("factor 0 must be an unconditioned joint")
            overlap = set(f.new) & introduced
            if overlap:
                raise StructuralError(f"variables {sorted(overlap)} introduced twice")
            missing = set(f.cond) - introduced
            if missing:
                raise StructuralError(
                    f"factor {i} conditions on {sorted(missing)} before introduction"
                )
            introduced.update(f.new)
        if introduced != set(range(self.n)):
            absent = sorted(set(range(self.n)) - introduced)
            raise StructuralError(f"variables {absent} never introduced")

    @property
    def scopes(self) -> tuple[tuple[int, ...], ...]:
        """Full scope (cond + new, sorted) of each factor."""
        return tuple(tuple(sorted(set(f.new) | set(f.cond))) for f in self.factors)


def factorization_from_jt(jt: JunctionTree, root: int) -> Factorization:
    """Orient the tree away from the root clique; each child contributes
    (clique minus separator | separator). Children are visited in ascending
    clique id, breadth first."""
    if not 0 <= root < len(jt.cliques):
        raise StructuralError(f"root clique id {root} out of range")
    adj: dict[int, list[int]] = {i: [] for i in range(len(jt.cliques))}
    sep_of = {}
    for (i, j), sep in zip(jt.edges, jt.separators):
        adj[i].append(j)
        adj[j].append(i)
        sep_of[(i, j)] = sep_of[(j, i)] = sep
    factors = [Factor(new=tuple(sorted(jt.cliques[root])), cond=())]
    seen = {root}
    queue = [root]
    while queue:
        c = queue.pop(0)
        for d in sorted(adj[c]):
            if d in seen:
                continue
            seen.add(d)
            sep = sep_of[(c, d)]
            new = tuple(sorted(set(jt.cliques[d]) - set(sep)))
            factors.append(Factor(new=new, cond=tuple(sep)))
            queue.append(d)
    if len(seen) != len(jt.cliques):
        raise StructuralError("junction tree is not connected")
    return Factorization(n=jt.n, factors=tuple(factors))


def univariate_factorization(n: int) -> Factorization:
    """Fully independent model: one unconditioned factor per variable."""
    return Factorization(n=n, factors=tuple(Factor(new=(i,), cond=()) for i in range(n)))


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def export_dot(obj: InteractionGraph | FactorGraph | JunctionTree) -> str:
    if isinstance(obj, InteractionGraph):
        lines = ["graph vig {"]
        lines.extend(f"  {v};" for v in range(obj.n))
        lines.extend(f"  {u} -- {v};" for u, v in sorted(obj.edges))
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, FactorGraph):
        lines = ["graph factors {"]
        lines.extend(f'  v{i} [label="x{i}"];' for i in range(obj.n))
        lines.extend(
            f'  f{a} [label="f{a}", shape=box];' for a in range(len(obj.scopes))
        )
        for a, scope in enumerate(obj.scopes):
            lines.extend(f"  f{a} -- v{v};" for v in scope)
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, JunctionTree):
        lines = ["graph junction_tree {"]
        for i, clique in enumerate(obj.cliques):
            label = ",".join(str(v) for v in clique)
            lines.append(f'  c{i} [label="{{{label}}}", shape=box];')
        for (i, j), sep in zip(obj.edges, obj.separators):
            label = ",".join(str(v) for v in sep)
            lines.append(f'  c{i} -- c{j} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise StructuralError(f"cannot export {type(obj).__name__} as DOT")


def jt_to_json(jt: JunctionTree) -> dict:
    return {
        "n": jt.n,
        "cliques": [list(c) for c in jt.cliques],
        "edges": [list(e) for e in jt.edges],
        "separators": [list(s) for s in jt.separators],
        "treewidth": jt.treewidth,
    }


def factorization_to_json(factorization: Factorization) -> dict:
    return {
        "n": factorization.n,
        "factors": [{"new": list(f.new), "cond": list(f.cond)} for f in factorization.factors],
    }


def factorization_from_json(doc: Mapping) -> Factorization:
    try:
        factors = tuple(
            Factor(new=tuple(int(v) for v in f["new"]), cond=tuple(int(v) for v in f["cond"]))
            for f in doc["factors"]
        )
        return Factorization(n=int(doc["n"]), factors=factors)
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed factorization document: {exc}") from None
