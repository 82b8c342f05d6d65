"""Benchmark the kernels and record times and work counters.

Configuration walk (``BENCH_enum.json``): the compiled and the pure
``enumerate_states`` walk the small instances in this process and must
list the same states and count the same prefixes.  The three walk
instances then run, one fresh interpreter per run, through
``configs.enumerate_dominating_configs`` of this tree; each run reports
its time, states, prefixes and peak RSS.  With ``--parent DIR``, the
same call of that tree alternates with it run by run and must list the
same states.

Elimination (``--out``, BENCH_kernel.json): runs the same
greatest-fixed-point eliminations through the compiled
kernel and, on the six small instances, through its pure-Python twin;
each run fills a witness table and the work counters (``KernelWork``).
On the small instances both kernels' ``certificate_rows`` then close the
same certificate from that table.  Results, tables, counters and
certificate rows must be identical.  The four large instances run on the
compiled kernel only.

With ``--parent DIR``, the root of another source tree whose compiled
kernel is built (a ``git archive`` export of ``da8f01d`` or later, whose
three entry points all take ball masks and count their work), that
tree's compiled kernel runs every instance too, alternating with this
tree's run by run, and must return the same (alive, rounds, checks,
exceeded), witness table and counters.

Certificates (``BENCH_cert.json``): five instances (C26, C30 and C32 as
the ``certify`` workload of ``e2ebench`` relabels them at seed 7, round 0,
C36 at k = 3 and P20 at k = 2) run one fresh interpreter per run on
this tree's sources, which eliminates, closes the certificate with
``_kernel.certificate_rows`` and re-checks it with
``solver.verify_certificate``, reporting the family size, rows, JSON
bytes and both times (medians of five calls in the process; the
verifier finds the graph's distances cached).  Each edge list names its
vertices first in ``solver.solve_order``, so every tree closes the
certificate ``ekdom eternal`` closes on that file.  Every certificate
must verify.  With ``--parent DIR`` that tree's run alternates with it
run by run.

Speed: the benchmark pins itself, and so its children, to one CPU and
times ``probe``, the fixed pure-Python loop of ``e2ebench/run.py``,
between consecutive timed calls and children.  Each time is recorded raw
(``compiled_s``, ``s``, ...) and scaled to reference speed, that
module's PROBE_REF_S over the mean of the probes just before and after
it (``compiled_ref_s``, ``ref_s``, ...), so both harnesses report
seconds at one speed; medians and ratios are taken from the scaled times.

Times, counters and provenance go to ``BENCH_enum.json``,
``BENCH_cert.json`` at the root of this tree and to ``--out``
(BENCH_kernel.json); end-to-end pairs copied into a file from
``e2ebench/run.py`` result lines (its ``end_to_end`` entry) are kept
when it is rewritten.  ``--only`` runs one of the three sections.

    python3 setup.py build_ext --inplace
    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat N] [--parent DIR]
        [--only {walk,elim,cert}]
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from ekdom._kernel import KernelWork, pack_masks, pure
from ekdom.closed_forms import cycle_graph, path_graph
from ekdom.configs import enumerate_dominating_configs
from ekdom.domination import ball_masks
from ekdom.graph import all_pairs_distances, format_edge_list, parse_graph
from ekdom.mary import build_perfect_mary
from ekdom.solver import solve_order

try:
    from ekdom._kernel import _ckernel
except ImportError:
    _ckernel = None

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "e2ebench"))
from run import PROBE_REF_S, probe  # noqa: E402
from workloads import WORKLOADS, edge_list, labeling_rng  # noqa: E402

KERNEL_DIR = Path("src") / "ekdom" / "_kernel"
DEFAULT_OUT = ROOT / "BENCH_kernel.json"
BUDGET = 50_000_000
CAP = 20_000

SMALL = [  # both kernels, and both certificate closures
    ("P12 k=1 q=6", lambda: path_graph(12), 1, 6),
    ("P14 k=1 q=7", lambda: path_graph(14), 1, 7),
    ("P14 k=2 q=5", lambda: path_graph(14), 2, 5),
    ("C14 k=1 q=5", lambda: cycle_graph(14), 1, 5),
    ("C12 k=2 q=3", lambda: cycle_graph(12), 2, 3),
    ("binary d=3 k=2 q=3", lambda: build_perfect_mary(2, 3), 2, 3),
]
LARGE = [  # compiled kernel only
    ("P16 k=2 q=6", lambda: path_graph(16), 2, 6),
    ("P20 k=2 q=7", lambda: path_graph(20), 2, 7),
    ("binary d=4 k=2 q=6", lambda: build_perfect_mary(2, 4), 2, 6),
    ("binary d=5 k=2 q=11", lambda: build_perfect_mary(2, 5), 2, 11),
]

WALKS = [  # one fresh interpreter per run, alternating with --parent
    ("binary d=5 k=2 q=11", "build_perfect_mary(2, 5)", 2, 11),
    ("P20 k=2 q=7", "path_graph(20)", 2, 7),
    ("C26 k=2 q=6", "cycle_graph(26)", 2, 6),
]
# One walk through the tree's configs.enumerate_dominating_configs.
WALK_CHILD = """
import hashlib, json, resource, time
from array import array
from ekdom._kernel import active_kernel
from ekdom.closed_forms import cycle_graph, path_graph
from ekdom.configs import enumerate_dominating_configs
from ekdom.graph import all_pairs_distances
from ekdom.mary import build_perfect_mary
dist = all_pairs_distances({build})
work = array("q", [0])
t0 = time.perf_counter()
states = enumerate_dominating_configs(dist, {k}, {q}, work=work)
seconds = time.perf_counter() - t0
print(json.dumps({{
    "s": round(seconds, 5), "states": len(states), "prefixes": work[0],
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "kernel": active_kernel(),
    "sha256": hashlib.sha256(repr(states).encode()).hexdigest()[:16]}}))
"""

CERT_SEED = 7  # the e2e seed whose round-0 labels the cycle instances use
CERTS = [  # (name, e2e certify instance or graph builder, k, q)
    ("C26 k=2 q=6 (seed 7)", "C26-k2", 2, 6),
    ("C30 k=3 q=5 (seed 7)", "C30-k3", 3, 5),
    ("C32 k=3 q=5 (seed 7)", "C32-k3", 3, 5),
    ("C36 k=3 q=6", lambda: cycle_graph(36), 3, 6),
    ("P20 k=2 q=7", lambda: path_graph(20), 2, 7),
]
# One certificate through the tree's kernel and verifier; the edge list
# arrives on stdin.
CERT_CHILD = """
import hashlib, json, sys, time
from array import array
from statistics import median
from ekdom import _kernel
from ekdom.configs import enumerate_dominating_configs
from ekdom.domination import ball_masks
from ekdom.graph import all_pairs_distances, parse_graph
from ekdom.solver import (CERTIFICATE_CAP, EternalCertificate, certificate_to_json,
                          verify_certificate)
g = parse_graph(sys.stdin.read())
k, q, n = {k}, {q}, g.n
dist = all_pairs_distances(g)
masks = _kernel.pack_masks(ball_masks(dist, k), n)
states = enumerate_dominating_configs(dist, k, q)
wit = array("i", [-1]) * (len(states) * n)
alive = _kernel.run_elimination(n, masks, states, wit, 10 ** 9)[0]
cert_s, verify_s = [], []
for _ in range(5):
    t0 = time.perf_counter()
    members, rows = _kernel.certificate_rows(n, masks, states, alive, wit, CERTIFICATE_CAP)
    cert_s.append(time.perf_counter() - t0)
cert = EternalCertificate(k, q, tuple(states[i] for i in members), rows)
for _ in range(5):
    t0 = time.perf_counter()
    verdict = verify_certificate(g, cert)
    verify_s.append(time.perf_counter() - t0)
doc = json.dumps(certificate_to_json(cert, g), separators=(",", ":"))
print(json.dumps({{
    "survivors": sum(alive), "family": len(members), "rows": len(rows),
    "json_bytes": len(doc), "verified": verdict == (True, None),
    "certificate_rows_s": round(median(cert_s), 6), "verify_s": round(median(verify_s), 6),
    "kernel": _kernel.active_kernel(),
    "sha256": hashlib.sha256(doc.encode()).hexdigest()[:16]}}))
"""


class Speed:
    """Probes between consecutive timed calls.  On a shared host the CPU's
    speed drifts by up to about 1.6x for seconds at a time, so a ~10 ms
    call's raw time follows the host more than the kernel."""

    def __init__(self) -> None:
        self.last = probe()

    def scale(self, seconds: float) -> float:
        """``seconds`` of the call that just ended, at reference speed."""
        before, self.last = self.last, probe()
        return seconds * 2 * PROBE_REF_S / (before + self.last)


def load_kernel(tree: Path):
    """The compiled kernel built in source tree ``tree``; refuses one older
    than its ``_ckernel.c``, which would measure a stale build."""
    src = tree / KERNEL_DIR / "_ckernel.c"
    built = sorted((tree / KERNEL_DIR).glob("_ckernel*.so"))
    if not built:
        raise SystemExit(f"no compiled kernel in {tree}; run: python3 setup.py "
                         "build_ext --inplace there")
    if built[-1].stat().st_mtime < src.stat().st_mtime:
        raise SystemExit(f"{built[-1]} is older than {src}; rebuild with "
                         "python3 setup.py build_ext --inplace --force")
    spec = importlib.util.spec_from_file_location("_ckernel", built[-1])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def run_command(args: argparse.Namespace) -> str:
    """The command line of this run, as records name it: every flag it had,
    with --out relative to this tree's root and --parent's tree as
    PARENT_TREE."""
    flags = [f"--only {args.only}"] if args.only else []
    flags.append(f"--repeat {args.repeat}")
    out = args.out.resolve()
    if out != DEFAULT_OUT:
        flags.append(f"--out {out.relative_to(ROOT) if out.is_relative_to(ROOT) else out}")
    if args.parent:
        flags.append("--parent PARENT_TREE")
    return " ".join(["PYTHONPATH=src python3 benchmarks/bench_kernels.py", *flags])


def write_record(out: Path, what: str, command: str, parent: dict | None, **body) -> None:
    """Write to ``out`` what it holds, the command that wrote it, this
    tree's commit and kernel sources, the host, the parent's digest and run
    order, then ``body``, keeping the ``end_to_end`` pairs the file already
    holds (copied in from ``e2ebench/run.py`` result lines)."""
    old = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
    doc = {
        "what": what,
        "command": command,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "benchmarks")),
        "kernel_sha256": {f: digest(ROOT / KERNEL_DIR / f) for f in ("_ckernel.c", "pure.py")},
        "host": host(),
    }
    if parent is not None:
        doc["parent"] = {**parent, "order": "runs alternate: this tree first on even runs, "
                                            "the parent first on odd runs"}
    doc.update(body)
    if "end_to_end" in old:
        doc["end_to_end"] = old["end_to_end"]
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def alternate(repeat: int, sides: dict, run) -> dict:
    """``{name: [run(side) for each of repeat runs]}`` for each ``name:
    side`` of ``sides`` whose side is not None.  The first two are this
    tree's and the parent's: the parent goes first on odd runs, so the two
    alternate which runs first, and any further sides run last."""
    parent = list(sides)[1]
    runs = {name: [] for name, side in sides.items() if side is not None}
    for r in range(repeat):
        order = list(runs)
        if r % 2 and parent in runs:
            order[0], order[1] = order[1], order[0]
        for name in order:
            runs[name].append(run(sides[name]))
    return runs


def instance(build, k: int, q: int):
    """n, the packed ball masks and the states."""
    g = build()
    dist = all_pairs_distances(g)
    return g.n, pack_masks(ball_masks(dist, k), g.n), enumerate_dominating_configs(dist, k, q)


def run_case(name, build, k, q, repeat, parent, with_pure, speed) -> dict:
    n, masks, states = instance(build, k, q)
    first = []  # the first run's (alive, rounds, checks, exceeded, wit, work)

    def eliminate(kernel):
        wit = array("i", [0]) * (len(states) * n)
        work = array("q", KernelWork())
        t0 = time.perf_counter()
        result = kernel.run_elimination(n, masks, states, wit, BUDGET, work)
        seconds = time.perf_counter() - t0
        got = (*result, wit, work)
        if not first:
            first.append(got)
        assert got == first[0], f"{name}: {kernel.__name__} differs"
        return round(seconds, 5), round(speed.scale(seconds), 5)

    runs = alternate(repeat, {"compiled": _ckernel, "parent_compiled": parent,
                              "pure": pure if with_pure else None}, eliminate)
    alive, rounds, checks, exceeded, wit, work = first[0]
    assert not exceeded, f"{name}: budget exceeded"
    row = {"name": name, "n": n, "k": k, "q": q, "states": len(states),
           "rounds": rounds, "checks": checks, "survivors": sum(alive),
           "work": KernelWork(*work)._asdict()}
    for side, times in runs.items():
        row[f"{side}_s"] = [s for s, _ in times]
        row[f"{side}_ref_s"] = [ref for _, ref in times]
    if parent is not None:
        row["parent_over_compiled"] = round(statistics.median(row["parent_compiled_ref_s"])
                                            / statistics.median(row["compiled_ref_s"]), 2)
    if with_pure:
        cert = {}
        for key, kernel in (("compiled_s", _ckernel), ("pure_s", pure)):
            t0 = time.perf_counter()
            rows = kernel.certificate_rows(n, masks, states, alive, wit, CAP)
            seconds = time.perf_counter() - t0
            cert[key] = round(seconds, 5)
            cert[key.removesuffix("_s") + "_ref_s"] = round(speed.scale(seconds), 5)
            cert.setdefault("rows", rows)
            assert rows == cert["rows"], f"{name}: certificate rows differ"
        cert["family"] = len(cert.pop("rows")[0]) if sum(alive) else 0
        row["certificate"] = cert
    return row


def bench_elims(repeat: int, parent_tree: Path | None, out: Path, speed: Speed,
                command: str) -> None:
    parent = load_kernel(parent_tree) if parent_tree else None
    rows = []
    print(f"{'instance':<22}{'states':>8}{'compiled':>11}{'parent':>11}{'pure':>11}"
          f"{'matchings':>12}{'matched':>10}{'jumped':>12}")
    for cases, with_pure in ((SMALL, True), (LARGE, False)):
        for name, build, k, q in cases:
            row = run_case(name, build, k, q, repeat, parent, with_pure, speed)
            rows.append(row)
            med = {key: f"{statistics.median(row[key]):.4f}s" if key in row else "-"
                   for key in ("compiled_ref_s", "parent_compiled_ref_s", "pure_ref_s")}
            w = row["work"]
            print(f"{name:<22}{row['states']:>8}{med['compiled_ref_s']:>11}"
                  f"{med['parent_compiled_ref_s']:>11}{med['pure_ref_s']:>11}"
                  f"{w['matchings']:>12}{w['matched']:>10}{w['jumped']:>12}", flush=True)
    write_record(
        out, "Elimination kernel wall times (seconds per run) and work counters; "
        "on the small instances also the certificate closure of both kernels. "
        "*_ref_s are the same runs scaled to reference speed by the probes "
        "around each call; parent_over_compiled uses those.",
        command,
        parent_tree and {"kernel_sha256": {"_ckernel.c": digest(parent_tree / KERNEL_DIR
                                                                  / "_ckernel.c")}},
        budget=BUDGET, instances=rows)
    print(f"results, witness tables, counters and certificate rows identical; wrote {out}")


def walk_small(name, build, k, q, repeat, speed) -> dict:
    """Compiled and pure walks in this process; equal states and prefixes."""
    n, masks, _ = instance(build, k, q)
    times = {key: [] for key in ("compiled_s", "compiled_ref_s", "pure_s", "pure_ref_s")}
    first = None
    for _ in range(repeat):
        for key, kernel in (("compiled_s", _ckernel), ("pure_s", pure)):
            work = array("q", [0])
            t0 = time.perf_counter()
            states = kernel.enumerate_states(n, q, masks, None, work)
            seconds = time.perf_counter() - t0
            times[key].append(round(seconds, 6))
            times[key.removesuffix("_s") + "_ref_s"].append(round(speed.scale(seconds), 6))
            first = first or (states, work[0])
            assert (states, work[0]) == first, f"{name}: {key} walk differs"
    return {"name": name, "n": n, "k": k, "q": q, "states": len(first[0]),
            "prefixes": first[1], **times}


def child(tree: Path, code: str, stdin: str | None = None) -> dict:
    """The JSON line ``code`` prints in a fresh interpreter on ``tree``'s sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", code], input=stdin, cwd=tree, env=env,
                          capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout)


def walk_large(name, build, k, q, repeat, parent, speed) -> dict:
    def walk(tree):
        row = child(tree, WALK_CHILD.format(build=build, k=k, q=q))
        row["ref_s"] = round(speed.scale(row["s"]), 5)
        return row

    runs = alternate(repeat, {"change": ROOT, "parent": parent}, walk)
    first = runs["change"][0]
    for key, rows in runs.items():
        assert all(row["sha256"] == first["sha256"] for row in rows), f"{name}: {key} differs"
    row = {"name": name, "k": k, "q": q, "states": first["states"],
           "prefixes": first["prefixes"], "runs": runs}
    if parent is not None:
        row["parent_over_change"] = round(
            statistics.median(r["ref_s"] for r in runs["parent"])
            / statistics.median(r["ref_s"] for r in runs["change"]), 1)
    return row


def bench_walks(repeat: int, parent: Path | None, speed: Speed, command: str) -> None:
    print(f"{'walk':<22}{'states':>8}{'prefixes':>11}{'compiled':>11}{'pure':>11}")
    small = []
    for name, build, k, q in SMALL:
        row = walk_small(name, build, k, q, repeat, speed)
        small.append(row)
        print(f"{name:<22}{row['states']:>8}{row['prefixes']:>11}"
              f"{statistics.median(row['compiled_ref_s']):>10.5f}s"
              f"{statistics.median(row['pure_ref_s']):>10.5f}s", flush=True)
    print(f"{'walk':<22}{'states':>8}{'prefixes':>11}{'change':>11}{'parent':>11}"
          f"{'rss MB':>9}")
    large = []
    for name, build, k, q in WALKS:
        row = walk_large(name, build, k, q, repeat, parent, speed)
        large.append(row)
        med = {key: f"{statistics.median(r['ref_s'] for r in rows):.4f}s"
               for key, rows in row["runs"].items()}
        rss = max(r["peak_rss_mb"] for r in row["runs"]["change"])
        print(f"{name:<22}{row['states']:>8}{row['prefixes']:>11}{med['change']:>11}"
              f"{med.get('parent', '-'):>11}{rss:>9}", flush=True)
    out = ROOT / "BENCH_enum.json"
    write_record(
        out, "Configuration walk: wall seconds per run of the compiled and pure "
        "enumerate_states in one process (small instances), and of "
        "configs.enumerate_dominating_configs in a fresh interpreter per run, "
        "with states, prefixes visited and the process's peak RSS (walk "
        "instances). *_ref_s and ref_s are the same runs scaled to reference "
        "speed by the probes around them; ratios use those.",
        command,
        parent and {"configs_sha256": digest(parent / "src" / "ekdom" / "configs.py")},
        small=small, walks=large)
    print(f"walk states and prefixes identical; wrote {out}")


def cert_edges(build) -> str:
    """The instance's edge list, an e2e ``certify`` instance as that
    workload relabels it at ``CERT_SEED``, round 0, or a built graph,
    led by ``v`` lines that number its vertices in ``solver.solve_order``."""
    if callable(build):
        g = build()
    else:
        inst = next(i for i in WORKLOADS["certify"] if i.name == build)
        g = parse_graph(edge_list(inst, labeling_rng("certify", CERT_SEED, 0, inst)))
    return "".join(f"v {g.labels[u]}\n" for u in solve_order(g)) + format_edge_list(g)


def bench_certs(repeat: int, parent: Path | None, speed: Speed, command: str) -> None:
    print(f"{'certificate':<22}{'side':>7}{'family':>8}{'rows':>8}{'bytes':>9}"
          f"{'closure':>11}{'verify':>11}")
    rows = []
    for name, build, k, q in CERTS:
        edges = cert_edges(build)

        def close(tree):
            run = child(tree, CERT_CHILD.format(k=k, q=q), edges)
            factor = speed.scale(1.0)
            for f in ("certificate_rows_s", "verify_s"):
                run[f.removesuffix("_s") + "_ref_s"] = round(run[f] * factor, 6)
            return run

        row = {"name": name, "k": k, "q": q}
        for key, got in alternate(repeat, {"change": ROOT, "parent": parent}, close).items():
            first = got[0]
            assert all(run["verified"] for run in got), f"{name}: {key} certificate rejected"
            assert all(run["sha256"] == first["sha256"] for run in got), f"{name}: {key} differs"
            side = {f: first[f] for f in ("survivors", "family", "rows", "json_bytes", "kernel")}
            for f in ("certificate_rows_s", "certificate_rows_ref_s", "verify_s",
                      "verify_ref_s"):
                side[f] = [run[f] for run in got]
            row[key] = side
            print(f"{name:<22}{key:>7}{side['family']:>8}{side['rows']:>8}"
                  f"{side['json_bytes']:>9}"
                  f"{statistics.median(side['certificate_rows_ref_s']):>10.5f}s"
                  f"{statistics.median(side['verify_ref_s']):>10.5f}s", flush=True)
        if parent is not None:
            row["parent_over_change"] = {
                f: round(statistics.median(row["parent"][f])
                         / statistics.median(row["change"][f]), 2)
                for f in ("certificate_rows_ref_s", "verify_ref_s")}
        rows.append(row)
    out = ROOT / "BENCH_cert.json"
    write_record(
        out, "Certificate closure and verifier: per instance and tree, the survivors, "
        "the certificate's family size, rows and compact JSON bytes, and the "
        "seconds of _kernel.certificate_rows and of solver.verify_certificate "
        "(medians of five calls in one fresh interpreter per run; distances cached); "
        "*_ref_s are the same medians scaled to reference speed by the probes "
        "around the run, and the ratios use those.",
        command,
        parent and {"kernel_sha256": {"_ckernel.c": digest(parent / KERNEL_DIR
                                                             / "_ckernel.c")}},
        instances=rows)
    print(f"every certificate verified; wrote {out}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per kernel and instance (alternating with --parent)")
    parser.add_argument("--parent", type=Path,
                        help="source tree whose compiled kernel to time alongside")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--only", choices=("walk", "elim", "cert"),
                        help="run one section instead of all three")
    args = parser.parse_args()

    if _ckernel is None:
        print("compiled kernel not built; run: python3 setup.py build_ext --inplace")
        return 1
    load_kernel(ROOT)  # refuses a stale build
    if args.parent:
        load_kernel(args.parent)
    # Children inherit the affinity, so probes and children share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = Speed()
    command = run_command(args)
    if args.only in (None, "walk"):
        bench_walks(args.repeat, args.parent, speed, command)
    if args.only in (None, "cert"):
        bench_certs(args.repeat, args.parent, speed, command)
    if args.only in (None, "elim"):
        bench_elims(args.repeat, args.parent, args.out, speed, command)
    return 0


if __name__ == "__main__":
    sys.exit(main())
