"""Perfect m-ary trees: construction and the full eternal-number formula.

The recursive form is this module's ground truth: depth at most half the
radius needs one guard, past that but under k needs two, between k and
3k/2 needs 1 + m^(d-k), and deeper trees telescope k levels at a time
down to a residual depth q with d = q (mod k) and k/2 <= q < 3k/2.

A printed five-case closed form is exposed as well.  The two disagree on
the boundary q = k/2 (k even): the closed form's fourth case charges two
guards for the residual tree where the recursion charges one.  Neither is
silently preferred; the piecewise function returns its value together
with a consistency flag against the recursion.  On the smallest tree
that could arbitrate (m=2, d=5, k=2, 63 vertices, answer 11 or 12) the
exact engine resolves 11 on its default budget, with a certificate that
verifies, which sides with the recursion there.  That takes about 1.5 s
with the compiled kernel, where ``tests/test_mary.py`` runs it; the pure
twin's configuration walk alone takes about 26 s.

``MaryTreeSpec`` is a ``Record``, like every ekdom record; its
``__new__`` refuses m < 2 and d < 0, and ``_make`` and ``_replace``
build through it.
"""
from . import Record
from .graph import Graph


class MaryTreeSpec(Record):
    """Shape parameters of a perfect m-ary tree, checked when built."""
    m: int
    d: int

    def __new__(cls, m: int, d: int) -> "MaryTreeSpec":
        if m < 2 or d < 0:
            raise ValueError("need m >= 2 and d >= 0")
        return super().__new__(cls, m, d)

    @property
    def vertex_count(self) -> int:
        return (self.m ** (self.d + 1) - 1) // (self.m - 1)

    def residual_depth(self, k: int) -> int:
        """The unique q = d (mod k) with k/2 <= q < 3k/2."""
        if k < 1:
            raise ValueError("k must be positive")
        q = self.d % k
        return q if 2 * q >= k else q + k


def build_perfect_mary(m: int, d: int) -> Graph:
    """Perfect m-ary tree in breadth-first layout; vertex 0 is the root."""
    spec = MaryTreeSpec(m, d)
    edges = []
    child = 1
    for parent in range(spec.vertex_count):
        if child >= spec.vertex_count:
            break
        for _ in range(m):
            edges.append((parent, child))
            child += 1
    return Graph.build(spec.vertex_count, edges)


def mary_number_recursive(m: int, d: int, k: int) -> int:
    """Eternal distance-k domination number of the perfect m-ary tree."""
    if m < 2 or d < 0 or k < 2:
        raise ValueError("need m >= 2, d >= 0, k >= 2")
    if 2 * d <= k:
        return 1
    if d < k:
        return 2
    if 2 * d <= 3 * k:
        return 1 + m ** (d - k)
    q = MaryTreeSpec(m, d).residual_depth(k)
    head, rem = divmod(m ** d - m ** q, m ** k - 1)
    assert rem == 0  # d = q (mod k) makes the quotient exact
    return head + mary_number_recursive(m, q, k)


def mary_number_piecewise(m: int, d: int, k: int) -> tuple[int, bool]:
    """The five-case closed form, with a consistency flag.

    Returns (value, flag); the flag is False exactly on the q = k/2
    boundary where the closed form and the recursion disagree by one.
    """
    if m < 2 or d < 0 or k < 2:
        raise ValueError("need m >= 2, d >= 0, k >= 2")
    if 2 * d <= k:
        value = 1
    elif d < k:
        value = 2
    elif 2 * d <= 3 * k:
        value = 1 + m ** (d - k)
    else:
        q = MaryTreeSpec(m, d).residual_depth(k)
        if q <= k:
            value = 2 + (m ** d - m ** q) // (m ** k - 1)
        else:
            value = 1 + (m ** d - m ** (q - k)) // (m ** k - 1)
    return value, value == mary_number_recursive(m, d, k)
