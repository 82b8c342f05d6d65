"""Elimination-kernel selection: compiled extension when it was built.

``run_elimination`` dispatches to the C extension ``_ckernel`` when it
imported, otherwise to the pure-Python twin.  Both run the same
Gauss-Seidel sweeps, in the order of ``states``, on graphs of any size and
return identical results.

The caller passes ``wit``, an ``array('i')`` of ``len(states) * n``
items, which receives the final witness table: for a surviving state i
and a vertex v that i leaves unoccupied, ``wit[i * n + v]`` is the least
index of a surviving state that occupies v and is reachable from i in one
step.  Other entries are leftovers, and nothing in the table means
anything when the budget was exceeded.  The full contract is in ``pure``.
"""
from __future__ import annotations

from . import pure
from .pure import DEFAULT_BUDGET

try:
    from . import _ckernel
except ImportError:  # extension not built; pure fallback
    _ckernel = None


def active_kernel() -> str:
    """Name of the kernel ``run_elimination`` uses."""
    return "compiled" if _ckernel is not None else "pure"


def run_elimination(n, k, dist, states, wit, budget=DEFAULT_BUDGET):
    kernel = _ckernel if _ckernel is not None else pure
    return kernel.run_elimination(n, k, dist, states, wit, budget=budget)
