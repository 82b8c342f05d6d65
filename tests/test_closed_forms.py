"""Formulas and named families, cross-checked against the game engine."""
import pytest

from ekdom.closed_forms import (build_p_n_ell, build_subdivided_star,
                                cycle_graph, cycle_number, path_graph,
                                path_number, star_graph)
from ekdom.domination import gamma_k
from ekdom.graph import all_pairs_distances, diameter
from ekdom.solver import eternal_number

from helpers import diameter_rule, hamiltonian_upper_bound


def solve(g, k):
    return eternal_number(g, k).gamma_eternal


def test_path_number_values():
    assert path_number(5, 2) == 2
    assert path_number(1, 7) == 1
    assert path_number(7, 2) == 3 == solve(path_graph(7), 2)


def test_cycle_number_values():
    assert cycle_number(10, 2) == 2
    assert cycle_number(3, 1) == 1
    assert cycle_number(11, 2) == 3 == solve(cycle_graph(11), 2)


def test_formulas_match_engine_small_range():
    for k in (1, 2, 3):
        for n in range(1, 11):
            assert path_number(n, k) == solve(path_graph(n), k)
        for n in range(3, 11):
            assert cycle_number(n, k) == solve(cycle_graph(n), k)


def test_path_at_least_cycle():
    for n in range(3, 20):
        for k in (1, 2, 3, 4):
            assert path_number(n, k) >= cycle_number(n, k)


def test_hamiltonian_bound():
    assert hamiltonian_upper_bound(10, 2) == 2
    # Complete graphs: the cycle bound is valid but not tight.
    from ekdom.closed_forms import complete_graph
    k6 = complete_graph(6)
    assert hamiltonian_upper_bound(6, 2) == 2 >= solve(k6, 2) == 1


def test_diameter_rule():
    assert diameter_rule(star_graph(4), 2) == 1
    assert diameter_rule(path_graph(5), 2) is None
    c6 = cycle_graph(6)
    k = diameter(all_pairs_distances(c6))
    assert diameter_rule(c6, k) == 1 == solve(c6, k)


def test_p_n_ell_construction():
    g = build_p_n_ell(8, 2, 2)
    assert g.n == 8
    # Path of six plus two pendants on the fifth vertex.
    assert g.degree(4) == 4
    assert solve(g, 2) == 2
    plain = build_p_n_ell(6, 2, 2)
    assert plain.adj == path_graph(6).adj
    assert solve(build_p_n_ell(9, 2, 2), 2) == 2
    with pytest.raises(ValueError):
        build_p_n_ell(5, 2, 2)


def test_subdivided_star_shape_and_gap():
    g = build_subdivided_star(3, 2)
    assert g.n == 7
    assert gamma_k(g, 2).gamma == 1
    # The half-radius domination number: each leaf pins a guard to its own
    # leg, and the three mid-leg vertices already cover the center, so the
    # true value is n (not n + 1; that claim only holds for odd k, where
    # no leg guard can also reach the center).
    assert gamma_k(g, 1).gamma == 3
    odd = build_subdivided_star(3, 3)
    assert gamma_k(odd, 3).gamma == 1
    assert gamma_k(odd, 1).gamma == 4  # n + 1 as claimed, k odd
    assert build_subdivided_star(1, 2).adj == path_graph(3).adj


def test_gap_grows_with_leg_count():
    for legs in (2, 3, 4):
        g = build_subdivided_star(legs, 2)
        assert gamma_k(g, 2).gamma == 1
        assert gamma_k(g, 1).gamma == legs
