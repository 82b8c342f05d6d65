"""Perfect m-ary trees: shapes, recursion, and the boundary discrepancy."""
import pytest

from ekdom._kernel import active_kernel
from ekdom.closed_forms import star_graph
from ekdom.mary import (MaryTreeSpec, build_perfect_mary,
                        mary_number_piecewise, mary_number_recursive)
from ekdom.solver import eternal_number, verify_certificate


def test_tree_shapes():
    t = build_perfect_mary(2, 2)
    assert t.n == 7
    assert build_perfect_mary(3, 1).adj == star_graph(3).adj
    assert build_perfect_mary(2, 3).n == 15
    deg = [t.degree(v) for v in range(t.n)]
    assert deg[0] == 2 and deg.count(1) == 4  # root has m children, leaves at depth d


def test_residual_depth_is_unique():
    spec = MaryTreeSpec(2, 5)
    assert spec.residual_depth(2) == 1
    assert MaryTreeSpec(2, 4).residual_depth(2) == 2
    for d in range(0, 40):
        for k in range(2, 9):
            q = MaryTreeSpec(2, d).residual_depth(k)
            assert (d - q) % k == 0 and k <= 2 * q < 3 * k


def test_recursive_values():
    assert mary_number_recursive(2, 1, 2) == 1
    assert mary_number_recursive(2, 3, 2) == 3
    assert mary_number_recursive(2, 4, 2) == 6   # 4 + value of depth-2 tree
    assert mary_number_recursive(2, 2, 2) == 2
    assert mary_number_recursive(3, 2, 4) == 1  # diameter 2d fits inside k


def test_engine_confirms_small_trees():
    # Every shape with at most 16 vertices whose formula answer is at most
    # 3 fits the engine comfortably; sweep them all.
    swept = 0
    for m in range(2, 6):
        for d in range(0, 5):
            if MaryTreeSpec(m, d).vertex_count > 16:
                continue
            for k in range(2, 6):
                expected = mary_number_recursive(m, d, k)
                if expected > 3:
                    continue
                swept += 1
                got = eternal_number(build_perfect_mary(m, d), k).gamma_eternal
                assert got == expected, (m, d, k)
    assert swept >= 30


def test_piecewise_values_and_flags():
    assert mary_number_piecewise(2, 3, 2) == (3, True)
    assert mary_number_piecewise(2, 4, 2) == (6, True)
    # Residual depth exactly k/2: the printed closed form charges an extra
    # guard for the residual tree; the recursion does not.
    value, consistent = mary_number_piecewise(2, 5, 2)
    assert value == 12 and not consistent
    assert mary_number_recursive(2, 5, 2) == 11


@pytest.mark.skipif(active_kernel() != "compiled",
                    reason="the pure twin's configuration walk alone takes about 26 s")
def test_engine_arbitrates_the_smallest_boundary_tree():
    # m = 2, d = 5, k = 2 (63 vertices): the recursion says 11, the printed
    # closed form 12.  The exact engine sides with the recursion, and its
    # certificate verifies.
    g = build_perfect_mary(2, 5)
    report = eternal_number(g, 2)
    assert report.gamma_eternal == mary_number_recursive(2, 5, 2) == 11
    assert verify_certificate(g, report.certificate) == (True, None)


def test_forms_agree_away_from_the_boundary():
    disagreements = []
    for m in range(2, 5):
        for d in range(0, 13):
            for k in range(2, 6):
                value, consistent = mary_number_piecewise(m, d, k)
                q = MaryTreeSpec(m, d).residual_depth(k)
                boundary = 2 * d > 3 * k and 2 * q == k
                if boundary:
                    disagreements.append((m, d, k))
                    assert not consistent
                    assert value == mary_number_recursive(m, d, k) + 1
                else:
                    assert consistent, (m, d, k)
    assert disagreements, "the k/2 boundary must occur in this range"


def test_exact_arithmetic_far_past_machine_words():
    # m^d well past 2^62: plain integer arithmetic stays exact.
    value = mary_number_recursive(2, 100, 4)
    assert value == (2 ** 100 - 2 ** 4) // (2 ** 4 - 1) + 2
    assert value.bit_length() > 90


def test_input_validation():
    with pytest.raises(ValueError):
        mary_number_recursive(1, 3, 2)
    with pytest.raises(ValueError):
        mary_number_recursive(2, 3, 1)
    with pytest.raises(ValueError):
        build_perfect_mary(2, -1)
    with pytest.raises(ValueError):
        MaryTreeSpec(1, 3)
    with pytest.raises(ValueError):
        MaryTreeSpec(2, -1)
    with pytest.raises(ValueError):
        MaryTreeSpec(2, 3)._replace(m=1)
    with pytest.raises(ValueError):
        MaryTreeSpec._make([2, -1])
    assert MaryTreeSpec(2, 3)._replace(d=4) == MaryTreeSpec._make([2, 4]) == (2, 4)
    assert type(MaryTreeSpec._make([3, 1])) is MaryTreeSpec
    with pytest.raises(AttributeError):
        MaryTreeSpec(2, 3).d = 4
