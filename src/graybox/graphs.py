"""Graphical views of instance structure and the factorizations derived from them.

All operations are deterministic: ties are broken by lowest vertex index, and
the junction-tree spanning tree is built by maximum separator weight with a
fixed edge order, so identical inputs always give identical structures.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

from .adf import AdfInstance, json_int
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


def _check_order(n: int, order: Sequence[int]) -> tuple[int, ...]:
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise StructuralError("elimination order must be a permutation of the vertices")
    return order


def _eliminate(
    graph: InteractionGraph, heuristic: str | tuple[int, ...]
) -> tuple[tuple[int, ...], set[tuple[int, int]]]:
    """Eliminate every vertex and connect its remaining neighbours.

    The next vertex is the lowest (score, vertex) on a lazy heap: the fill
    count for min-fill, the remaining degree for min-degree, the position for
    an explicit order. A step changes the scores of the eliminated vertex's
    neighbours and, for min-fill, of the common neighbours of each new fill
    edge's endpoints; only those are rescored and pushed again, and entries
    whose score is stale are skipped when popped. Returns the elimination
    order and the fill edges.
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
    return tuple(order), fill


def triangulate(
    graph: InteractionGraph, heuristic: str | Sequence[int] = MIN_FILL
) -> ChordalCompletion:
    """Chordal completion via min-fill, min-degree, or an explicit order.

    Ties between candidate vertices are broken by lowest index, so the result
    is deterministic for a given heuristic.
    """
    if not isinstance(heuristic, str):
        heuristic = _check_order(graph.n, heuristic)
    elif heuristic not in (MIN_FILL, MIN_DEGREE):
        raise StructuralError(f"unknown triangulation heuristic {heuristic!r}")
    order, fill = _eliminate(graph, heuristic)
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

    The tree is the one Kruskal builds over all clique pairs with the key
    (-|separator|, i, j), weight-0 edges joining disconnected components with
    empty separators; it is found without scoring the pairs. Every clique
    tree lies in the reduced clique graph (Galinier, Habib & Paul 1995): for
    each separator S of one clique tree, the cliques holding S fall into
    parts, split by the edges labelled S, and Kruskal may join only cliques
    of different parts with separator S. Heavier edges have joined each part
    before those pairs come up and no other separator joins two parts, so
    Kruskal keeps (m, lowest id of each other part), m the lowest id holding
    S. Components then join clique 0 through their lowest clique id.

    Raises StructuralError if replaying the completion's elimination order
    on the completed graph would still need fill (i.e. it is not chordal).
    """
    full = completion.completed()
    order = _check_order(full.n, completion.elimination_order)
    position = [0] * full.n
    for i, v in enumerate(order):
        position[v] = i
    later = [
        {u for u in nbrs if position[u] > position[v]}
        for v, nbrs in enumerate(full.adjacency())
    ]

    # One clique tree from the elimination order (Blair & Peyton 1993), walked
    # backwards. The follower f of v is its first later-eliminated neighbour;
    # the order is perfect iff every later[v] - {f} lies in later[f]. v joins
    # the clique of f if that clique is still exactly {f} | later[f] and
    # later[v] equals it; otherwise v starts a clique joined to the clique of
    # f by the separator later[v]. A clique's vertices are then those of its
    # last joined vertex, whose elimination clique is maximal. A vertex with
    # no later neighbour starts the first clique of a new component.
    bottom: list[int] = []
    component: list[int] = []
    clique_of = [0] * full.n
    tree = []
    for v in reversed(order):
        k = len(bottom)  # the clique whose component v's new clique joins
        if later[v]:
            f = min(later[v], key=position.__getitem__)
            if len(later[v] - later[f]) != 1:
                _, fill = _eliminate(full, order)
                raise StructuralError(
                    "graph is not chordal along the elimination order: "
                    f"missing edges {sorted(fill)}"
                )
            k = clique_of[f]
            if bottom[k] == f and len(later[v]) == len(later[f]) + 1:
                bottom[k] = v
                clique_of[v] = k
                continue
            tree.append((len(bottom), k, tuple(sorted(later[v]))))
        clique_of[v] = len(bottom)
        bottom.append(v)
        component.append(component[k] if later[v] else k)

    unsorted = [tuple(sorted(later[b] | {b})) for b in bottom]
    rank = sorted(range(len(unsorted)), key=unsorted.__getitem__)
    cliques = [unsorted[k] for k in rank]
    clique_id = [0] * len(rank)
    for i, k in enumerate(rank):
        clique_id[k] = i
    holding: list[list[int]] = [[] for _ in range(full.n)]
    for i, clique in enumerate(cliques):
        for v in clique:
            holding[v].append(i)
    tree_adj: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in cliques]
    for a, b, sep in tree:
        tree_adj[clique_id[a]].append((clique_id[b], sep))
        tree_adj[clique_id[b]].append((clique_id[a], sep))

    joins = []
    for sep in {sep for _, _, sep in tree}:
        # Filter the shortest holding list: intersecting them all is
        # quadratic when one vertex is in every clique.
        need = set(sep)
        holders = {i for i in min((holding[v] for v in sep), key=len) if need.issubset(cliques[i])}
        lowest = min(holders)
        seen: set[int] = set()
        for i in holders:
            if i in seen:
                continue
            seen.add(i)
            part = [i]
            for c in part:
                for d, label in tree_adj[c]:
                    if d in holders and d not in seen and label != sep:
                        seen.add(d)
                        part.append(d)
            if lowest not in part:
                joins.append((-len(sep), lowest, min(part), sep))
    joins.sort()
    edges = [(i, j) for _, i, j, _ in joins]
    separators = [sep for *_, sep in joins]
    joined = set()
    for m, k in enumerate(rank):
        if component[k] not in joined:
            joined.add(component[k])
            if m:
                edges.append((0, m))
                separators.append(())
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
    variables introduced earlier, and every variable is new exactly once.
    """

    n: int
    factors: tuple[Factor, ...]

    def __post_init__(self):
        introduced: set[int] = set()
        for i, f in enumerate(self.factors):
            scope = f.new + f.cond
            if len(set(scope)) != len(scope):
                raise StructuralError(f"factor {i} repeats a variable in {scope}")
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
            Factor(new=tuple(map(json_int, f["new"])), cond=tuple(map(json_int, f["cond"])))
            for f in doc["factors"]
        )
        return Factorization(n=json_int(doc["n"]), factors=factors)
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed factorization document: {exc}") from None
