"""Graphical views of instance structure and the factorizations derived from them.

All operations are deterministic: ties are broken by lowest vertex index, and
the junction-tree spanning tree is built by maximum separator weight with a
fixed edge order, so identical inputs always give identical structures.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .adf import AdfInstance, _check_range, json_int, scope_label
from .errors import StructuralError, VisibilityError

MIN_FILL = "min-fill"
MIN_DEGREE = "min-degree"


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
    return InteractionGraph(n=instance.n, edges=instance._edge_set)


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

    @property
    def treewidth(self) -> int:
        """The largest elimination clique's size less one, which is the width of
        the junction tree on this completion; no tree is built."""
        return max(map(len, self._later))

    @cached_property
    def _later(self) -> list[set[int]]:
        """Each vertex's completed-graph neighbours eliminated after it, seeded
        by triangulate; a completion built otherwise is replayed, and refused
        if the replay needs fill."""
        full = self.completed()
        _, fill, later = _eliminate(full, check_order(full.n, self.elimination_order))
        if fill:
            raise StructuralError(
                "graph is not chordal along the elimination order: "
                f"missing edges {sorted(fill)}"
            )
        return later


def check_order(n: int, order: Sequence[int]) -> tuple[int, ...]:
    """The one check of an elimination order: a permutation of range(n)."""
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise StructuralError("elimination order must be a permutation of the vertices")
    return order


def _eliminate(
    graph: InteractionGraph, heuristic: str | tuple[int, ...]
) -> tuple[tuple[int, ...], set[tuple[int, int]], list[set[int]]]:
    """Eliminate every vertex and connect its remaining neighbours.

    The next vertex is the lowest (score, vertex) on a lazy heap: the fill
    count for min-fill, the remaining degree for min-degree, the position for
    an explicit order. A step changes the scores of the eliminated vertex's
    neighbours and, for min-fill, of the common neighbours of each new fill
    edge's endpoints; only those are rescored and pushed again, and entries
    whose score is stale are skipped when popped. Returns the elimination
    order, the fill edges and each vertex's later neighbours: once a vertex
    is eliminated nothing changes its adjacency again.
    """
    adj = graph.adjacency()  # remaining vertices only
    # For min-fill, links[x] counts the edges among x's remaining neighbours,
    # kept up to date edge by edge; x's fill count is its number of
    # neighbour pairs less links[x].
    min_fill = heuristic == MIN_FILL
    links = [sum(len(adj[u] & nbrs) for u in nbrs) // 2 for nbrs in adj] if min_fill else []

    def fill_count(v: int) -> int:
        d = len(adj[v])
        return d * (d - 1) // 2 - links[v]

    def degree(v: int) -> int:
        return len(adj[v])

    if min_fill:
        score = fill_count
    elif heuristic == MIN_DEGREE:
        score = degree
    else:
        score = {v: i for i, v in enumerate(heuristic)}.__getitem__
    scores = [score(v) for v in range(graph.n)]
    heap = [(s, v) for v, s in enumerate(scores)]
    heapq.heapify(heap)
    order = []
    fill = set()
    while heap:
        s, v = heapq.heappop(heap)
        if s != scores[v]:
            continue
        scores[v] = None
        order.append(v)
        nbrs = sorted(adj[v])
        touched = set(nbrs)
        for u in nbrs:
            adj[u].discard(v)
            if min_fill:  # v leaves with its edges to u's other neighbours
                links[u] -= len(adj[u] & adj[v])
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                if w not in adj[u]:
                    if min_fill:
                        # (u, w) becomes an edge among each common
                        # neighbour's neighbours, and w arrives among u's
                        # neighbours linked to every common one (and back).
                        common = adj[u] & adj[w]
                        for x in common:
                            links[x] += 1
                        links[u] += len(common)
                        links[w] += len(common)
                        touched |= common
                    adj[u].add(w)
                    adj[w].add(u)
                    fill.add((u, w))
        if isinstance(heuristic, str):
            for u in touched:
                s = score(u)
                if s != scores[u]:
                    scores[u] = s
                    heapq.heappush(heap, (s, u))
    return tuple(order), fill, adj


def triangulate(
    graph: InteractionGraph, heuristic: str | Sequence[int] = MIN_FILL
) -> ChordalCompletion:
    """Chordal completion via min-fill, min-degree, or an explicit order.

    Ties between candidate vertices are broken by lowest index, so the result
    is deterministic for a given heuristic.
    """
    if not isinstance(heuristic, str):
        heuristic = check_order(graph.n, heuristic)
    elif heuristic not in (MIN_FILL, MIN_DEGREE):
        raise StructuralError(f"unknown triangulation heuristic {heuristic!r}")
    order, fill, later = _eliminate(graph, heuristic)
    completion = ChordalCompletion(graph, frozenset(fill), order)
    vars(completion)["_later"] = later
    return completion


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

    def adjacency(self) -> dict[int, list[tuple[int, tuple[int, ...]]]]:
        """Per clique id, (neighbour, separator) for each tree edge at it, in edge order."""
        adj = {i: [] for i in range(len(self.cliques))}
        for (i, j), sep in zip(self.edges, self.separators):
            adj[i].append((j, sep))
            adj[j].append((i, sep))
        return adj


def junction_tree(completion: ChordalCompletion) -> JunctionTree:
    """Maximal cliques plus a maximum-separator-weight spanning tree.

    The tree is the one Kruskal builds over all clique pairs with the key
    (-|Ci & Cj|, i, j), weight-0 edges joining components to clique 0 with
    empty separators. Over any subset of the pairs that holds every pair it
    keeps, Kruskal keeps the same edges: a dropped pair's ends are already
    joined by earlier kept pairs. Every clique tree lies in the reduced
    clique graph (Galinier, Habib & Paul 1995): for each separator S of one
    clique tree, the cliques holding S fall into parts, split by the edges
    labelled S, and Kruskal may join only cliques of different parts with
    separator S. Heavier edges have joined each part before those pairs come
    up, so Kruskal keeps only pairs (m, j), m the lowest id holding S. The
    candidates are those pairs with their true keys, for each separator of
    the clique tree read off the elimination order, plus (0, j) for each
    j > 0 with key 0.

    Raises StructuralError if the completion is not chordal along its order.
    """
    later = completion._later
    order, n = completion.elimination_order, len(later)
    position = {v: i for i, v in enumerate(order)}

    # One clique tree from the elimination order (Blair & Peyton 1993), walked
    # backwards. The follower f of v is its first later-eliminated neighbour.
    # v joins the clique of f if that clique is still exactly {f} | later[f]
    # and later[v] equals it; otherwise v starts a clique joined to the clique
    # of f by the separator later[v]. A clique's vertices are then those of
    # its last joined vertex, whose elimination clique is maximal.
    bottom: list[int] = []
    clique_of = [0] * n
    tree_separators: set[frozenset[int]] = set()
    for v in reversed(order):
        if later[v]:
            f = min(later[v], key=position.__getitem__)
            k = clique_of[f]
            if bottom[k] == f and len(later[v]) == len(later[f]) + 1:
                bottom[k] = v
                clique_of[v] = k
                continue
            tree_separators.add(frozenset(later[v]))
        clique_of[v] = len(bottom)
        bottom.append(v)

    cliques = sorted(tuple(sorted(later[b] | {b})) for b in bottom)
    holders = _holders(n, cliques)
    pairs = [(0, 0, j, ()) for j in range(1, len(cliques))]
    for sep in tree_separators:
        lowest, *others = _holding(holders, cliques, sep)
        lowest_set = set(cliques[lowest])
        for j in others:
            common = tuple(v for v in cliques[j] if v in lowest_set)
            pairs.append((-len(common), lowest, j, common))

    parent = list(range(len(cliques)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    edges, separators = [], []
    for _, i, j, common in sorted(pairs):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            edges.append((i, j))
            separators.append(common)
    return JunctionTree(n, tuple(cliques), tuple(edges), tuple(separators))


def _holders(n: int, sets: Sequence[Sequence[int]]) -> list[list[int]]:
    """holders[v]: the ids of the sets holding v, ascending; every v in range(n)."""
    holders: list[list[int]] = [[] for _ in range(n)]
    for i, members in enumerate(sets):
        for v in members:
            holders[v].append(i)
    return holders


def _holding(
    holders: list[list[int]], sets: Sequence[Sequence[int]], subset: frozenset[int]
) -> Iterator[int]:
    """The ids of the sets holding all of subset, ascending; every id for an
    empty subset. Only the shortest holder list of subset's variables is
    filtered: intersecting them all is quadratic when one vertex is in every
    set, as a cyclic instance's wrap variables are."""
    shortest = min((holders[v] for v in subset), key=len, default=range(len(sets)))
    return (i for i in shortest if subset.issubset(sets[i]))


def running_intersection_holds(jt: JunctionTree) -> bool:
    """For every vertex, the cliques containing it must form a connected subtree.

    Every clique vertex must lie in range(n), and every edge end in the clique
    ids. A walk from each vertex's lowest holding clique along tree edges
    between holders must reach them all.
    """
    ids = range(len(jt.cliques))
    if not (all(0 <= v < jt.n for clique in jt.cliques for v in clique)
            and all(i in ids and j in ids for i, j in jt.edges)):
        return False
    adj = jt.adjacency()
    for holding in _holders(jt.n, jt.cliques):
        if not holding:
            return False
        holders = set(holding)
        seen = {holding[0]}
        stack = [holding[0]]
        while stack:
            c = stack.pop()
            for d, _ in adj[c]:
                if d not in seen and d in holders:
                    seen.add(d)
                    stack.append(d)
        if holders != seen:
            return False
    return True


# ---------------------------------------------------------------------------
# Factorizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """(new variables | conditioning variables).

    Junction-tree factors list both sorted ascending; a factor read from a
    file keeps the order it was written in.
    """

    new: tuple[int, ...]
    cond: tuple[int, ...]


@dataclass(frozen=True)
class Factorization:
    """Ordered factors for ancestral sampling.

    Factor 0 is an unconditioned joint; every later factor conditions only on
    variables introduced earlier, and every variable in range(n) is new
    exactly once.
    """

    n: int
    factors: tuple[Factor, ...]

    def __post_init__(self):
        introduced: set[int] = set()
        for i, f in enumerate(self.factors):
            scope = f.new + f.cond
            if len(set(scope)) != len(scope):
                raise StructuralError(f"factor {i} repeats a variable in {scope}")
            try:
                _check_range(scope, self.n)
            except StructuralError as exc:
                raise StructuralError(f"factor {i}: {exc}") from None
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
        # Every introduced variable lies in range(n), so a count shows a gap
        # without building range(n); the text names only the lowest missing one.
        if len(introduced) < self.n:
            first = next(v for v in range(self.n) if v not in introduced)
            missing = self.n - len(introduced)
            raise StructuralError(
                f"variable {first} never introduced ({missing} of {self.n} missing)"
            )

    @cached_property
    def covers(self) -> tuple[int | None, ...]:
        """covers[i]: the lowest j < i whose full scope (new + cond) holds
        factors[i].cond, or None when no earlier factor's does. Factor i's own
        scope holds its cond, so the lowest holder is at most i.
        """
        scopes = [frozenset(f.new + f.cond) for f in self.factors]
        holders = _holders(self.n, scopes)
        lowest = [next(_holding(holders, scopes, frozenset(f.cond))) for f in self.factors]
        return tuple(j if j < i else None for i, j in enumerate(lowest))


def factorization_from_jt(jt: JunctionTree, root: int) -> Factorization:
    """Orient the tree away from the root clique; each child contributes
    (clique minus separator | separator). Children are visited in ascending
    clique id, breadth first."""
    if not 0 <= root < len(jt.cliques):
        raise StructuralError(f"root clique id {root} out of range")
    adj = jt.adjacency()
    factors = [Factor(new=tuple(sorted(jt.cliques[root])), cond=())]
    seen = {root}
    queue = [root]
    for c in queue:  # grows as the walk goes
        for d, sep in sorted(adj[c]):
            if d in seen:
                continue
            seen.add(d)
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
    elif isinstance(obj, FactorGraph):
        lines = ["graph factors {"]
        lines.extend(f'  v{i} [label="x{i}"];' for i in range(obj.n))
        lines.extend(
            f'  f{a} [label="f{a}", shape=box];' for a in range(len(obj.scopes))
        )
        for a, scope in enumerate(obj.scopes):
            lines.extend(f"  f{a} -- v{v};" for v in scope)
    elif isinstance(obj, JunctionTree):
        lines = ["graph junction_tree {"]
        lines.extend(f'  c{i} [label="{{{scope_label(c)}}}", shape=box];'
                     for i, c in enumerate(obj.cliques))
        lines.extend(f'  c{i} -- c{j} [label="{scope_label(sep)}"];'
                     for (i, j), sep in zip(obj.edges, obj.separators))
    else:
        raise StructuralError(f"cannot export {type(obj).__name__} as DOT")
    return "\n".join(lines) + "\n}\n"


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
            Factor(new=tuple(map(json_int, f["new"])), cond=tuple(map(json_int, f["cond"])))
            for f in doc["factors"]
        )
        return Factorization(n=json_int(doc["n"]), factors=factors)
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed factorization document: {exc}") from None
