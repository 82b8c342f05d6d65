"""Kernel selection: compiled extension when it was built.

The three entry points, ``enumerate_states``, ``run_elimination`` and
``certificate_rows``, are the C extension ``_ckernel``'s functions when
it imported, otherwise the pure-Python twin's.  Both twins walk the same
suffix-pruned state space (the dominating multisets in lexicographic
order, from ball masks that ``pack_masks`` puts into 64-bit words,
counting the prefixes visited in an optional ``work``), run the same
Gauss-Seidel sweeps, in the order of ``states``, with one movement test
(a target-side prefix matcher whose failures skip every candidate
sharing the failed prefix), and the same certificate closure, on graphs
of any size and any number of guards, and return identical results.

The caller passes ``wit``, an ``array('i')`` of ``len(states) * n``
items, which receives the final witness table: for a surviving state i
and a vertex v that i leaves unoccupied, ``wit[i * n + v]`` is the least
index of a surviving state that occupies v and is reachable from i in one
step.  Other entries are leftovers, and nothing in the table means
anything when the budget was exceeded.  ``certificate_rows`` grows a
family from the least survivor, answering each attack with the least
member already in it that holds the attacked vertex and is reachable in
one step, or else with that table's witness, which joins the family; it
returns the family's certificate rows.  The optional
``work`` of ``run_elimination``, an ``array('q')`` of 5 items, receives
the sweep's work counters (``KernelWork``).  The full contracts are in
``pure``.
"""
from __future__ import annotations

from array import array
from typing import NamedTuple

DEFAULT_BUDGET = 5_000_000  # checks per elimination; the C kernel's default too
_WORD = (1 << 64) - 1


class KernelWork(NamedTuple):
    """The work counters ``run_elimination`` leaves in ``work``, in order.

    ``array("q", KernelWork())`` is a zeroed buffer to pass, and
    ``KernelWork(*work)`` reads it back; ``pure`` defines each counter.
    """
    probes: int = 0
    dead: int = 0
    matchings: int = 0
    matched: int = 0
    jumped: int = 0


def pack_masks(masks: list[int], n: int) -> array:
    """Vertex bitmasks over ``range(n)`` as ``enumerate_states`` reads them:
    ``(n + 63) // 64`` unsigned 64-bit words each, least significant first."""
    return array("Q", [m >> s & _WORD for m in masks for s in range(0, n, 64)])


# The pure twin is imported only as the fallback, so a process that runs
# without cached bytecode does not compile it.
try:
    from . import _ckernel as _impl
    _NAME = "compiled"
except ImportError:  # extension not built; pure fallback
    from . import pure as _impl
    _NAME = "pure"


enumerate_states = _impl.enumerate_states
run_elimination = _impl.run_elimination
certificate_rows = _impl.certificate_rows


def active_kernel() -> str:
    """Name of the kernel the entry points use."""
    return _NAME
