"""Kernel selection: compiled extension when it was built.

The three entry points, ``enumerate_states``, ``run_elimination`` and
``certificate_rows``, are the C extension ``_ckernel``'s functions when
it imported, otherwise the pure-Python twin's.  All three read the graph
only through its ball masks, which ``pack_masks`` puts into 64-bit words
(``masks``): a guard on u walks to t in one step exactly when t lies in
the ball of u, so none takes k or a distance.  The masks must be
symmetric (t in ball(u) exactly when u in ball(t)), as ``pack_masks``
of ``domination.ball_masks`` always is.  Both twins walk the same
suffix-pruned state space (the dominating multisets in lexicographic
order, counting the prefixes visited in an optional ``work``), run the
same Gauss-Seidel sweeps, in the order of ``states``, with one movement
test (a target-side prefix matcher whose failures skip every candidate
sharing the failed prefix), and the same certificate closure, on graphs
of any size and any number of guards, and return identical results.
Each twin has one augmenting-path routine (``place`` in ``_ckernel.c``
and in ``pure``): the closure runs the sweep's matcher
with guards and posts swapped, which on symmetric balls finds the same
assignment as a search from the source side.

The caller passes ``run_elimination`` its check ``budget`` (the layer
imports nothing of ekdom but the package's ``Record``, so it has no
default) and ``wit``, an ``array('i')`` of ``len(states) * n`` items,
which receives the sweep's final witness table, and may pass ``work``,
an ``array('q')`` of 5 items, which receives its work counters
(``KernelWork``);
``certificate_rows`` closes a certificate family from that table.  The
full contracts are in ``pure``.
"""
from array import array

from .. import Record

_WORD = (1 << 64) - 1


class KernelWork(Record):
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
    """Vertex bitmasks over ``range(n)`` as the entry points read them:
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
