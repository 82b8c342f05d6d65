"""Constant-time formulas and the named graph families they describe.

Every named family used anywhere in the test suite is constructed here,
so tests can regenerate each instance from parameters alone.  The
formulas are exact integer arithmetic; each is cross-checked against the
game engine in the test suite.
"""
from collections.abc import Sequence

from .graph import Graph


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# -- graph families ---------------------------------------------------------

def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("n must be positive")
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 is the center."""
    if leaves < 1:
        raise ValueError("a star needs at least one leaf")
    return Graph.build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def spider_graph(leg_lengths: Sequence[int]) -> Graph:
    """Paths of the given lengths glued at a common center (vertex 0)."""
    if not leg_lengths or any(l < 1 for l in leg_lengths):
        raise ValueError("legs must be non-empty positive lengths")
    edges = []
    nxt = 1
    for length in leg_lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.build(nxt, edges)


def build_p_n_ell(n: int, k: int, z: int) -> Graph:
    """A path of z*(k+1) vertices plus n - z*(k+1) pendant leaves.

    The leaves hang off the second-to-last path vertex, so the guard
    already covering the far end covers them too: the result has n
    vertices and eternal distance-k domination number exactly z.
    """
    if k < 1 or z < 1:
        raise ValueError("k and z must be positive")
    m = z * (k + 1)
    if n < m:
        raise ValueError(f"n must be at least z*(k+1) = {m}")
    edges = [(i, i + 1) for i in range(m - 1)]
    edges.extend((m - 2, leaf) for leaf in range(m, n))
    return Graph.build(n, edges)


def build_subdivided_star(n: int, k: int) -> Graph:
    """K_{1,n} with every edge subdivided k-1 times: n legs of length k.

    The center distance-k dominates everything by itself, while radius
    floor(k/2) guards stay confined near single legs, which is what makes
    the two static numbers drift apart.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k < 2:
        raise ValueError("k must be at least 2")
    return spider_graph([k] * n)


# -- formulas ---------------------------------------------------------------

def path_number(n: int, k: int) -> int:
    """Eternal distance-k domination number of the n-vertex path."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return _ceil_div(n, k + 1)


def cycle_number(n: int, k: int) -> int:
    """Eternal distance-k domination number of the n-cycle.

    Coincides with the plain distance-k domination number: guards shift
    around the cycle in lockstep, preserving their relative spacing.
    """
    if n < 3 or k < 1:
        raise ValueError("need n >= 3 and k >= 1")
    return _ceil_div(n, 2 * k + 1)

