"""Benchmark the compiled kernels against their pure-Python twins.

Runs the same greatest-fixed-point eliminations through both kernels,
each filling a witness table, then closes the same certificate from that
table with both kernels' ``certificate_rows``; asserts the results, the
tables and the certificate rows are identical, and reports wall times
for both steps.

    python3 benchmarks/bench_kernels.py [--repeat N]
"""
from __future__ import annotations

import argparse
import time
from array import array

from ekdom._kernel import pure
from ekdom.closed_forms import cycle_graph, path_graph
from ekdom.configs import enumerate_dominating_configs
from ekdom.graph import all_pairs_distances
from ekdom.mary import build_perfect_mary

try:
    from ekdom._kernel import _ckernel
except ImportError:
    _ckernel = None


def instances():
    cases = [
        ("P12 k=1 q=6", path_graph(12), 1, 6),
        ("P14 k=1 q=7", path_graph(14), 1, 7),
        ("P14 k=2 q=5", path_graph(14), 2, 5),
        ("C14 k=1 q=5", cycle_graph(14), 1, 5),
        ("C12 k=2 q=3", cycle_graph(12), 2, 3),
        ("binary d=3 k=2 q=3", build_perfect_mary(2, 3), 2, 3),
    ]
    for name, g, k, q in cases:
        dist = all_pairs_distances(g)
        flat = [d for row in dist for d in row]
        states = enumerate_dominating_configs(dist, k, q)
        yield name, g.n, k, flat, states


def time_one(fn, repeat, *args):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if _ckernel is None:
        print("compiled kernel not built; run: python3 setup.py build_ext --inplace")
        return 1

    header = (f"{'instance':<22}{'configs':>9}{'elim pure':>12}{'compiled':>12}{'speedup':>9}"
              f"{'family':>8}{'cert pure':>12}{'compiled':>12}{'speedup':>9}")
    print(header)
    print("-" * len(header))
    budget = 50_000_000
    cap = 20_000
    for name, n, k, flat, states in instances():
        wit_py = array("i", [0]) * (len(states) * n)
        wit_c = array("i", [0]) * (len(states) * n)
        t_py, r_py = time_one(pure.run_elimination, args.repeat,
                              n, k, flat, states, wit_py, budget)
        t_c, r_c = time_one(_ckernel.run_elimination, args.repeat,
                            n, k, flat, states, wit_c, budget)
        assert bytes(r_py[0]) == bytes(r_c[0]) and r_py[1:] == r_c[1:], name
        assert wit_py == wit_c, name
        alive = r_c[0]
        c_py, cert_py = time_one(pure.certificate_rows, args.repeat,
                                 n, k, flat, states, alive, wit_c, cap)
        c_c, cert_c = time_one(_ckernel.certificate_rows, args.repeat,
                               n, k, flat, states, alive, wit_c, cap)
        assert cert_py == cert_c, name
        family = len(cert_c[0]) if cert_c else 0
        print(f"{name:<22}{len(states):>9}{t_py:>11.4f}s{t_c:>11.4f}s"
              f"{t_py / t_c:>8.1f}x{family:>8}{c_py:>11.4f}s{c_c:>11.4f}s"
              f"{c_py / c_c:>8.1f}x")
    print("results, witness tables and certificate rows identical across kernels "
          "on every instance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
