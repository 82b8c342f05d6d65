"""Elimination-kernel selection: compiled extension when available.

``run_elimination`` dispatches to the Cython kernel when it was built and
the instance fits its 64-vertex mask width, otherwise to the pure-Python
twin.  Both run the same Gauss-Seidel sweeps and return identical results.
"""
from __future__ import annotations

from . import pure
from .pure import DEFAULT_BUDGET

try:
    from . import _speedups
except ImportError:  # extension not built; pure fallback
    _speedups = None


def active_kernel(n: int = 0) -> str:
    """Name of the kernel ``run_elimination`` uses on an n-vertex graph."""
    return "compiled" if _speedups is not None and n <= 64 else "pure"


def run_elimination(n, k, dist, states, order="forward", budget=DEFAULT_BUDGET):
    kernel = _speedups if active_kernel(n) == "compiled" else pure
    return kernel.run_elimination(n, k, dist, states, order, budget)
