"""Canonical guard configurations and the one-step movement relation.

A configuration is a multiset of guard positions, canonically stored as a
non-decreasing tuple of vertex ids.  ``enumerate_dominating_configs``
lists the dominating configurations of one size; the walk behind it runs
in the kernel layer.  Configuration D can move to D' when the guards
admit a bijection onto the target positions in which every guard walks
distance at most k.  That is a perfect-matching question on the q x q
feasibility grid, decided here by simple augmenting paths (q is tiny at
desk scale).
"""
from __future__ import annotations

from array import array
from typing import Iterable

from . import _kernel
from .domination import ball_masks
from .graph import DistMatrix

Config = tuple  # tuple[int, ...], sorted non-decreasing, length >= 1


def canonical(positions: Iterable[int]) -> Config:
    cfg = tuple(sorted(positions))
    if not cfg:
        raise ValueError("a configuration needs at least one guard")
    return cfg


def enumerate_dominating_configs(dist: DistMatrix, k: int, q: int,
                                 limit: int | None = None,
                                 work: array | None = None) -> list[Config]:
    """Size-q multisets whose support distance-k dominates, lexicographically.

    The suffix-pruned walk runs in the kernel layer
    (``_kernel.enumerate_states``, whose contract is in ``_kernel.pure``),
    on the balls of ``domination.ball_masks`` packed into 64-bit words.
    With ``limit``, the walk stops as soon as it holds ``limit + 1``
    states and returns those.  ``work``, when given as an ``array('q')``
    of 1 item, receives the number of prefixes the walk visited.
    """
    n = len(dist)
    masks = _kernel.pack_masks(ball_masks(dist, k), n)
    return _kernel.enumerate_states(n, q, masks, limit, work)


def _match(reach, src: Config, dst: Config) -> list[int] | None:
    """Augmenting-path matching; returns dst-position -> src-position or None.

    ``reach[u][t]`` is true when a guard on u walks to t in one step.  Each
    guard p of src in turn starts a depth-first search for an augmenting
    path, trying dst positions in ascending order, as the textbook
    recursion does; the path is kept on an explicit stack, so the number
    of guards is not bounded by the interpreter's recursion limit.
    """
    q = len(src)
    owner = [-1] * q  # owner[c] = src position matched to dst position c
    for p in range(q):
        seen = bytearray(q)
        path = []  # (guard, position) steps of the path so far
        row = reach[src[p]]
        c = 0
        while True:
            c = seen.find(0, c)
            while c >= 0 and not row[dst[c]]:
                c = seen.find(0, c + 1)
            if c >= 0:
                seen[c] = 1
                path.append((p, c))
                if owner[c] < 0:
                    for p, c in path:
                        owner[c] = p
                    break
                p = owner[c]
                row = reach[src[p]]
                c = 0
            elif path:  # no free position from p: back up to the step before
                p, c = path.pop()
                row = reach[src[p]]
                c += 1
            else:
                return None
    return owner


def transform_assignment(dist: DistMatrix, src: Config, dst: Config,
                         k: int) -> tuple[tuple[int, int], ...] | None:
    """A witnessing guard-to-target move list for src -> dst, or None.

    Moves are (from_vertex, to_vertex) pairs, one per guard, each of
    length at most k; their sources re-sort to src and targets to dst.
    """
    if len(src) != len(dst):
        raise ValueError("configurations differ in size")
    if k < 0:
        raise ValueError("k must be non-negative")
    owner = _match({u: [d <= k for d in dist[u]] for u in src}, src, dst)
    if owner is None:
        return None
    moves = [(0, 0)] * len(src)
    for c, p in enumerate(owner):
        moves[p] = (src[p], dst[c])
    return tuple(moves)
