"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines stream.

Subdivided stars (criterion 5b): with n legs of length k, the
half-radius number gamma_floor(k/2) is n for even k and n + 1 for odd k.
Each leaf needs a guard on its own leg; for even k the guard at the leg's
midpoint is k/2 from both the leaf and the center, while for odd k a guard
within floor(k/2) of the leaf is ceil(k/2) from the center, so the center
needs a guard of its own.
"""
import random
from math import comb

from ekdom.bounds import power_equivalence_check
from ekdom.closed_forms import (build_p_n_ell, build_subdivided_star,
                                cycle_graph, path_graph, star_graph,
                                spider_graph)
from ekdom.domination import gamma_k
from ekdom.graph import all_pairs_distances, graph_power, is_connected
from ekdom.mary import MaryTreeSpec, build_perfect_mary, mary_number_piecewise, \
    mary_number_recursive
from ekdom.reductions import (apply_doublebranch_trim, apply_endpath_reduction,
                              apply_halfbranch_trim, apply_kpath_reduction,
                              k2_reduce)
from ekdom.solver import (BudgetExceededError, certificate_from_json,
                          certificate_to_json, eternal_number, eternal_survivors,
                          is_eternal_set, verify_certificate)

from helpers import (delete_edge, oracle_gamma, random_connected_graph, random_tree,
                     reverse_sweep_survivors)

SEED = 987654321


def _verdict(num: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def solve(g, k):
    report = eternal_number(g, k)
    return report


def test_criterion_01_paths():
    failures, skipped, checked = [], 0, 0
    for n in range(1, 15):
        for k in (1, 2, 3):
            report = solve(path_graph(n), k)
            if not report.resolved:
                skipped += 1
                continue
            checked += 1
            if report.gamma_eternal != -(-n // (k + 1)):
                failures.append((n, k, report.gamma_eternal))
    _verdict("1", not failures,
             f"paths n<=14, k<=3: {checked} instances exact, {skipped} over budget"
             + (f"; wrong: {failures}" if failures else ""))


def test_criterion_02_cycles():
    failures, checked = [], 0
    for n in range(3, 15):
        for k in (1, 2, 3):
            report = solve(cycle_graph(n), k)
            expected = -(-n // (2 * k + 1))
            checked += 1
            if not report.resolved or report.gamma_eternal != expected \
                    or gamma_k(cycle_graph(n), k).gamma != expected:
                failures.append((n, k))
    _verdict("2", not failures,
             f"cycles n<=14, k<=3: {checked} instances match ceil(n/(2k+1))"
             + (f"; wrong: {failures}" if failures else ""))


def test_criterion_03_five_path_reproduction():
    p5 = path_graph(5)
    one_guard = is_eternal_set(p5, 2, [2])
    two_guards = is_eternal_set(p5, 2, [1, 3])
    number = solve(p5, 2).gamma_eternal
    ok = (one_guard is False) and (two_guards is True) and number == 2
    _verdict("3", ok,
             f"P5 at k=2: single center guard {one_guard}, "
             f"pair (v1,v3) {two_guards}, number {number}")


def _power_corpus():
    rng = random.Random(SEED)
    return [random_connected_graph(rng.randint(4, 9), 0.3, rng) for _ in range(50)]


def test_criterion_04_power_equivalence():
    failures = crossings = 0
    for g in _power_corpus():
        for k in (2, 3):
            report = power_equivalence_check(g, k)
            if not (report.numbers_equal and report.survivors_equal):
                failures += 1
                continue
            # Walk single configurations across the bridge literally too.
            q = report.gamma_direct
            power = graph_power(g, k)
            for cfg in sorted(eternal_survivors(g, k, q))[:2]:
                crossings += 1
                if not is_eternal_set(power, 1, cfg):
                    failures += 1
            for cfg in sorted(eternal_survivors(power, 1, q))[-2:]:
                crossings += 1
                if not is_eternal_set(g, k, cfg):
                    failures += 1
    _verdict("4", failures == 0,
             f"50 random graphs x k in (2,3): numbers and survivor sets agree, "
             f"{crossings} configurations re-checked across the bridge"
             + ("" if failures == 0 else f"; {failures} mismatches"))


def test_criterion_05a_sandwich():
    bad = []
    instances = [(path_graph(n), k) for n in range(1, 15) for k in (1, 2, 3)]
    instances += [(cycle_graph(n), k) for n in range(3, 15) for k in (1, 2, 3)]
    rng = random.Random(SEED + 5)
    instances += [(random_tree(rng.randint(2, 11), rng), 2) for _ in range(40)]
    instances += [(g, 2) for g in _power_corpus()[:10]]
    checked = 0
    for g, k in instances:
        report = solve(g, k)
        if not report.resolved:
            continue
        checked += 1
        if not (report.gamma_k_value <= report.gamma_eternal <= report.gamma_half_value):
            bad.append((list(g.edges()), k))
    _verdict("5a", not bad, f"static sandwich holds on {checked} solved instances")


def test_criterion_05b_subdivided_star_gap():
    legs = 3
    ok, details = True, []
    for k, want in ((2, legs), (3, legs + 1)):  # n for even k, n + 1 for odd
        g = build_subdivided_star(legs, k)
        low = gamma_k(g, k).gamma
        high = gamma_k(g, k // 2).gamma
        oracle = oracle_gamma(g, k // 2)
        ok = ok and low == 1 and high == oracle == want
        details.append(f"k={k}: gamma_{k}={low} (want 1), gamma_{k // 2}={high} "
                       f"(oracle {oracle}, want {want})")
    _verdict("5b", ok, f"subdivided star ({legs} legs): " + "; ".join(details))


def test_criterion_06_ten_cycle_datum():
    number = solve(cycle_graph(10), 2).gamma_eternal
    plain = gamma_k(cycle_graph(10), 1).gamma
    _verdict("6", number == 2 and plain == 4,
             f"C10: eternal distance-2 number {number} < {plain} = ordinary domination")


def test_criterion_07_tree_reductions():
    rng = random.Random(SEED + 7)
    counts = {"endpath": 0, "halfbranch": 0, "doublebranch": 0, "k2": 0, "kpath": 0}
    failures = []
    for _ in range(100):
        t = random_tree(rng.randint(2, 11), rng)
        k = 2
        base = solve(t, k).gamma_eternal
        for name, fn, lo, hi in (("endpath", apply_endpath_reduction, 1, 1),
                                 ("kpath", apply_kpath_reduction, 1, 1),
                                 ("halfbranch", apply_halfbranch_trim, 0, 0),
                                 ("doublebranch", apply_doublebranch_trim, 0, 0)):
            res = fn(t, k)
            if res is None:
                continue
            counts[name] += 1
            delta = base - solve(res[0], k).gamma_eternal
            if not lo <= delta <= hi:
                failures.append((name, delta, list(t.edges())))
        for x in range(t.n):
            try:
                reduced, _ = k2_reduce(t, x)
            except ValueError:
                continue
            counts["k2"] += 1
            delta = base - solve(reduced, k).gamma_eternal
            if delta not in (0, 1):
                failures.append(("k2", delta, list(t.edges())))
            break
    _verdict("7", not failures,
             f"100 random trees, k=2: per-rule engine verification {counts}"
             + (f"; failures {failures[:3]}" if failures else ""))


def test_criterion_08_mary_trees():
    engine = solve(build_perfect_mary(2, 3), 2).gamma_eternal
    ok = engine == mary_number_recursive(2, 3, 2) == 3
    boundary_hits = []
    for m in range(2, 5):
        for d in range(0, 13):
            for k in range(2, 6):
                value, consistent = mary_number_piecewise(m, d, k)
                q = MaryTreeSpec(m, d).residual_depth(k)
                if 2 * d > 3 * k and 2 * q == k:
                    if consistent:
                        ok = False
                    boundary_hits.append((m, d, k))
                elif not consistent:
                    ok = False
    smallest = mary_number_piecewise(2, 5, 2)
    detected = smallest == (12, False) and mary_number_recursive(2, 5, 2) == 11
    states_needed = comb(63 + 10, 11)
    _verdict("8", ok and detected and boundary_hits,
             "depth-3 binary tree solved to 3; forms agree off the k/2 boundary; "
             f"boundary (2,5,2) reports 11 vs 12, engine resolution pending "
             f"(smallest instance needs about {states_needed:.1e} configurations, "
             "far past the check budget)")


def test_criterion_09_path_plus_leaves_family():
    failures = []
    for k, z, n in ((2, 2, 8), (2, 2, 9), (2, 3, 10)):
        report = solve(build_p_n_ell(n, k, z), k)
        if not report.resolved or report.gamma_eternal != z:
            failures.append((k, z, n, report.gamma_eternal))
    _verdict("9", not failures,
             "path-plus-pendant-leaves family solves to z on all three instances"
             + (f"; wrong {failures}" if failures else ""))


def test_criterion_10_certificate_soundness():
    rng = random.Random(SEED + 10)
    corpus = [(path_graph(5), 2), (path_graph(7), 2), (cycle_graph(6), 1),
              (cycle_graph(10), 2), (spider_graph([2, 2, 2]), 2),
              (star_graph(4), 1), (random_tree(9, rng), 2)]
    verified = 0
    problems = []
    for g, k in corpus:
        report = eternal_number(g, k)
        cert = report.certificate
        if cert is None or not verify_certificate(g, cert)[0]:
            problems.append(("verify", k, list(g.edges())))
            continue
        verified += 1
        doc = certificate_to_json(cert, g)
        dist = all_pairs_distances(g)

        # Drop the last member and its rows: rows still point at it.
        dropped = certificate_from_json(doc, g)
        dropped = dropped._replace(family=dropped.family[:-1], rows=dropped.rows[:-g.n])
        if verify_certificate(g, dropped)[0]:
            problems.append(("drop-member accepted", k))

        # Stretch a move past k: send a guard to a post of its successor
        # farther than k away.
        stretched = certificate_from_json(doc, g)
        site = None
        for r, row in enumerate(stretched.rows):
            member, succ = stretched.family[r // g.n], stretched.family[row[0]]
            for p, src in enumerate(member):
                far = max(range(len(succ)), key=lambda t: dist[src][succ[t]])
                if dist[src][succ[far]] > k:
                    site = (r, p, far)
                    break
            if site:
                break
        if site is None:
            problems.append(("no stretchable move exists", k, list(g.edges())))
        else:
            r, p, far = site
            row = list(stretched.rows[r])
            row[1 + p] = far
            stretched = stretched._replace(
                rows=stretched.rows[:r] + [row] + stretched.rows[r + 1:])
            ok, violation = verify_certificate(g, stretched)
            if ok or "longer than k" not in violation.reason:
                problems.append(("stretched move accepted", k))

        outside = certificate_from_json(doc, g)
        row = outside.rows[0]
        outside = outside._replace(rows=[[len(outside.family), *row[1:]]] + outside.rows[1:])
        if verify_certificate(g, outside)[0]:
            problems.append(("outside-family response accepted", k))
    _verdict("10", not problems,
             f"{verified} certificates verified; all 3 mutation kinds rejected on each"
             + (f"; problems {problems}" if problems else ""))


def test_criterion_11_edge_removal_monotone():
    rng = random.Random(SEED + 11)
    checked, failures = 0, []
    for _ in range(20):
        g = random_connected_graph(rng.randint(3, 8), 0.35, rng)
        base = solve(g, 2).gamma_eternal
        for u, v in g.edges():
            smaller = delete_edge(g, u, v)
            if not is_connected(smaller):
                continue
            checked += 1
            if solve(smaller, 2).gamma_eternal < base:
                failures.append((list(g.edges()), (u, v)))
    _verdict("11", not failures,
             f"20 random graphs, k=2: {checked} connected edge deletions, "
             "number never decreased"
             + (f"; failures {failures[:2]}" if failures else ""))


def test_criterion_12_fixed_point_determinism():
    mismatches, checked = [], 0
    instances = [(path_graph(n), k) for n in range(1, 15) for k in (1, 2, 3)]
    instances += [(cycle_graph(n), k) for n in range(3, 15) for k in (1, 2, 3)]
    for g, k in instances:
        report = solve(g, k)
        if not report.resolved:
            continue
        q = report.gamma_eternal
        try:
            forward = eternal_survivors(g, k, q)
            reverse = reverse_sweep_survivors(g, k, q)
        except BudgetExceededError:
            continue
        checked += 1
        if forward != reverse:
            mismatches.append((g.n, k))
    _verdict("12", checked > 0 and not mismatches,
             f"{checked} instances: survivor sets identical under both sweep orders"
             + (f"; mismatches {mismatches}" if mismatches else ""))
