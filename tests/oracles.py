"""Brute-force references that the tests check the pipeline against.

None of these runs in a `graybox` command; each is exponential and meant for
small fixtures only.
"""

from graybox.errors import CapacityError
from graybox.graphs import InteractionGraph

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
