"""Brute-force references that the tests check the pipeline against.

None of these runs in a `graybox` command. Each is exponential, or rescans
everything at every step, and is meant for small fixtures only.
"""

from itertools import combinations

import numpy as np

from graybox.adf import AdfInstance, config_bits, project
from graybox.errors import CapacityError, StructuralError
from graybox.graphs import (
    MIN_DEGREE,
    MIN_FILL,
    ChordalCompletion,
    InteractionGraph,
    Factorization,
    JunctionTree,
)
from graybox.marginals import enumeration_limit

_EXACT_TREEWIDTH_LIMIT = 12


def exact_treewidth(graph: InteractionGraph) -> int:
    """Exact tree-width by dynamic programming over vertex subsets.

    Exponential in n; refuses above n=12.
    """
    n = graph.n
    if n > _EXACT_TREEWIDTH_LIMIT:
        raise CapacityError(f"exact tree-width is limited to n <= {_EXACT_TREEWIDTH_LIMIT}")
    if n == 0:
        return -1
    adj_mask = [0] * n
    for u, v in graph.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u

    def eliminated_degree(s_mask: int, v: int) -> int:
        # Degree of v once the vertices in s_mask are eliminated: neighbors
        # outside s_mask reachable from v through s_mask.
        visited = 1 << v
        frontier = 1 << v
        outside = 0
        while frontier:
            nxt = 0
            while frontier:
                u = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                fresh = adj_mask[u] & ~visited
                visited |= fresh
                outside |= fresh & ~s_mask
                nxt |= fresh & s_mask
            frontier = nxt
        return bin(outside & ~(1 << v)).count("1")

    width = [0] * (1 << n)
    width[0] = -1
    for s in range(1, 1 << n):
        best = n
        rest = s
        while rest:
            v_bit = rest & -rest
            rest ^= v_bit
            v = v_bit.bit_length() - 1
            prev = s ^ v_bit
            cand = max(width[prev], eliminated_degree(prev, v))
            if cand < best:
                best = cand
        width[s] = best
    return width[(1 << n) - 1]


def _reference_eliminate(graph: InteractionGraph, pick):
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
                fill.add((u, w))
                adj[u].add(w)
                adj[w].add(u)
        cliques.append(frozenset([v, *nbrs]))
    return tuple(order), fill, cliques


def _in_order(order):
    it = iter(order)
    return lambda adj, remaining: next(it)


def _min_fill(adj, remaining):
    def fill_count(v):
        nbrs = [u for u in adj[v] if u in remaining]
        return sum(1 for u, w in combinations(nbrs, 2) if w not in adj[u])

    return min(remaining, key=lambda u: (fill_count(u), u))


def _min_degree(adj, remaining):
    return min(remaining, key=lambda u: (len(adj[u] & remaining), u))


def reference_triangulate(graph: InteractionGraph, heuristic) -> ChordalCompletion:
    """Chordal completion by rescanning every remaining vertex at each step.

    `heuristic` is MIN_FILL, MIN_DEGREE or a permutation of the vertices;
    ties go to the lowest index.
    """
    pick = {MIN_FILL: _min_fill, MIN_DEGREE: _min_degree}.get(heuristic) \
        if isinstance(heuristic, str) else _in_order(heuristic)
    order, fill, _ = _reference_eliminate(graph, pick)
    return ChordalCompletion(graph, frozenset(fill), order)


def reference_junction_tree(completion: ChordalCompletion) -> JunctionTree:
    """Maximal elimination cliques (by an all-pairs subset scan) joined by
    Kruskal over every clique pair, key (-|separator|, i, j)."""
    full = completion.completed()
    _, fill, elim_cliques = _reference_eliminate(full, _in_order(completion.elimination_order))
    if fill:
        raise StructuralError(
            f"graph is not chordal along the elimination order: missing edges {sorted(fill)}"
        )
    maximal = [c for c in elim_cliques if not any(c < d for d in elim_cliques)]
    cliques = sorted(set(tuple(sorted(c)) for c in maximal))
    candidates = sorted(
        ((i, j) for i in range(len(cliques)) for j in range(i + 1, len(cliques))),
        key=lambda e: (-len(set(cliques[e[0]]) & set(cliques[e[1]])), e),
    )
    parent = list(range(len(cliques)))

    def find(x):
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
        n=full.n, cliques=tuple(cliques), edges=tuple(edges), separators=tuple(separators)
    )


def exhaustive_optimum(instance: AdfInstance) -> tuple[tuple[tuple[int, ...], ...], float]:
    """All global maxima and their fitness, by evaluating all 2^n solutions."""
    cap = enumeration_limit()
    if instance.n > cap:
        raise CapacityError(f"exhaustive enumeration refused: n={instance.n} exceeds limit {cap}")
    bits = config_bits(np.arange(1 << instance.n), instance.n)
    fitness = instance.evaluate_batch(bits)
    best = float(fitness.max())
    return tuple(tuple(int(b) for b in row) for row in bits[fitness == best]), best


def model_probability(factorization: Factorization, tables, solution) -> float:
    """Probability the factorized model with conditional tables `tables`
    assigns to one solution: the product of one table entry per factor."""
    if len(tables) != len(factorization.factors) or len(solution) != factorization.n:
        raise StructuralError("tables or solution do not match the factorization")
    p = 1.0
    for f, table in zip(factorization.factors, tables):
        p *= float(table[project(solution, f.cond), project(solution, f.new)])
    return p
