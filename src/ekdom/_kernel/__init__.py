"""Elimination-kernel selection: compiled extension when it was built.

``run_elimination`` dispatches to the C extension ``_ckernel`` when it
imported, otherwise to the pure-Python twin.  Both run the same
Gauss-Seidel sweeps, in the order of ``states``, on graphs of any size and
return identical results.
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


def run_elimination(n, k, dist, states, budget=DEFAULT_BUDGET):
    kernel = _ckernel if _ckernel is not None else pure
    return kernel.run_elimination(n, k, dist, states, budget=budget)
