"""Canonical guard configurations and the one-step movement relation.

A configuration is a multiset of guard positions, canonically stored as a
non-decreasing tuple of vertex ids.  ``enumerate_dominating_configs``
lists the dominating configurations of one size; the walk behind it runs
in the kernel layer.  Configuration D can move to D' when the guards
admit a bijection onto the target positions in which every guard walks
distance at most k.  That is a perfect-matching question on the q x q
feasibility grid, which ``transform_assignment`` hands to ``assign`` in
``_kernel/pure.py``, the pure twin's one augmenting-path matcher (the
twin of ``place`` in ``_kernel/_ckernel.c``).  It places the guards on
the posts, which on symmetric balls finds the same assignment as a
source-side search.  The matcher is imported when first called: the
kernel layer is below this module, and the pure twin imports nothing
from it.
"""
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
    from ._kernel.pure import assign  # the pure twin's matcher, loaded on first use

    owner = assign({t: [d <= k for d in dist[t]] for t in dst}, src, dst)
    if owner is None:
        return None
    moves = [(0, 0)] * len(src)
    for c, p in enumerate(owner):
        moves[p] = (src[p], dst[c])
    return tuple(moves)
