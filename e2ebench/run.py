"""End-to-end benchmark of ``ekdom eternal`` followed by ``ekdom verify``.

    python3 e2ebench/run.py --workload elim --seed 1 --seconds 40 --trace 0

Closed loop, one client: one ekdom process runs at a time, each in a fresh
interpreter, so every solve starts with cold caches as a user's command
does.  A round runs every instance of the workload once, as

    python -m ekdom.cli eternal -k K FILE --certificate OUT --json --max-states B
    python -m ekdom.cli verify OUT FILE

Round r relabels every instance from (workload, seed, r); rounds repeat
until ``--seconds`` have passed and at least ``MIN_ROUNDS`` have run.  A
time metric is the sum over instances of the instance's mean over rounds,
each sample scaled to reference machine speed (see ``Runner``).
Every call is one operation and is checked against the oracle in
``workloads.py``; the certificate must pass ``verify``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds, per
instance and round, the same two calls in a traced process
(``tracer.py``) and prints the per-layer metrics: self time per layer,
counters from round 0 and each layer's share of the traced solve time.
The last stdout line is the JSON result; a record with provenance and
per-instance rows goes to ``.bench_build/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median

from workloads import BUDGET, WORKLOADS, Instance, edge_list, labeling_rng

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build"

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
SETUP_SAMPLES = 9
#: Children still running this many seconds into a run are killed, and no
#: instance starts after half of it, so a run ends well within 180 s.
HARD_LIMIT_S = 165.0
SETUP_CODE = "import ekdom.cli; from ekdom._kernel import active_kernel; active_kernel()"
#: ``probe()`` time on an uncontended 2.1 GHz Xeon vCPU under CPython 3.11;
#: reported times are seconds at that speed.
PROBE_REF_S = 0.020

# Span name -> per-layer metric holding that span's self time.
SPAN_METRICS = {
    "cli.parse": "cli.parse_s",
    "cli.cert_write": "cli.cert_write_s",
    "cli.cert_read": "cli.cert_read_s",
    "graph.distances": "graph.distances_s",
    "domination.gamma": "domination.gamma_s",
    "configs.enum": "configs.enum_s",
    "kernel.elim": "kernel.elim_s",
    "solver.eternal": "solver.cert_s",
    "solver.verify": "solver.verify_s",
}
LAYERS = ("cli", "graph", "domination", "configs", "kernel", "solver")


class BenchError(RuntimeError):
    """The benchmark cannot run here (as opposed to a failed operation)."""


def probe() -> float:
    """Seconds this CPU takes for a fixed pure-Python loop right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


@dataclass
class Proc:
    code: int
    wall_s: float  # as measured
    scale: float  # PROBE_REF_S / probe time around the process
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def ref_s(self) -> float:
        """Wall time at reference machine speed."""
        return self.wall_s * self.scale


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs one child process at a time, bracketed by speed probes.

    On a shared host the CPU's speed drifts by up to about 1.6x for seconds
    to minutes at a time, and raw wall times follow it: on a 2-vCPU VM,
    ten seeds of 40 s runs spread 25-37% between quartiles.  The benchmark
    pins itself, and so its children, to one CPU and times ``probe`` on
    that CPU between consecutive children; each child's time is also
    reported scaled by PROBE_REF_S over the mean of the probes just before
    and after it, which brought the same spreads down to 3-7%.
    """

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.last_probe = probe()

    def run(self, argv: list[str]) -> Proc:
        """Run one process to completion; wall time and peak RSS from wait4."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        limit = max(self.deadline - time.monotonic(), 0.1)
        before = self.last_probe
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                    cwd=self.work)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_probe = probe()
        return Proc(proc.returncode, wall, 2 * PROBE_REF_S / (before + self.last_probe),
                    usage.ru_maxrss / 1024.0,
                    out_path.read_text(encoding="utf-8", errors="replace"),
                    err_path.read_text(encoding="utf-8", errors="replace"))


def build_program() -> str:
    """Build the optional compiled kernel once per checkout; report how it went."""
    stamp = OUT_DIR / "build.stamp"
    if stamp.is_file():
        return stamp.read_text(encoding="utf-8")
    OUT_DIR.mkdir(exist_ok=True)
    try:
        done = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace",
             "--build-temp", str(OUT_DIR / "build-temp")],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600)
        status = f"build_ext exit {done.returncode}"
    except (OSError, subprocess.TimeoutExpired) as exc:
        status = f"build_ext failed: {exc}"
    stamp.write_text(status, encoding="utf-8")
    return status


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


@dataclass
class Bench:
    workload: str
    seed: int
    trace: bool
    runner: Runner
    attempted: int = 0
    failures: list = field(default_factory=list)
    # (metric, instance) -> one value per round; times at reference speed
    samples: dict = field(default_factory=dict)
    wall_s: dict = field(default_factory=dict)  # same keys, times as measured
    import_s: list = field(default_factory=list)
    round_elim: list = field(default_factory=list)  # per round [elim_s, checks]
    counters: dict = field(default_factory=dict)  # round-0 counts
    kernels: dict = field(default_factory=dict)
    rounds: int = 0

    @property
    def work(self) -> Path:
        return self.runner.work

    def add(self, metric: str, inst: Instance, value: float) -> None:
        self.samples.setdefault((metric, inst.name), []).append(value)

    def total(self, metric: str) -> float:
        """Sum over instances of the instance's mean over rounds.

        The mean, not the median: the samples come from a different
        labeling each round and, once scaled to reference speed, are
        unimodal; over ten seeds the mean spread about two thirds as much.
        """
        return sum(mean(v) for (m, _), v in self.samples.items() if m == metric)

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED {what}", file=sys.stderr)

    # -- operations -----------------------------------------------------
    def check_eternal(self, inst: Instance, tag: str, proc: Proc, cert: Path) -> dict | None:
        """The solve's JSON payload if it passes the oracle, else None."""
        self.attempted += 1
        if proc.code != 0:
            self.fail(f"{tag}: eternal exit {proc.code}: {proc.stderr.strip()[-300:]}")
            return None
        try:
            payload = json.loads(proc.stdout.splitlines()[0])
        except (IndexError, ValueError):
            self.fail(f"{tag}: eternal printed no JSON")
            return None
        per_q = {s["q"]: (s["configs"], s["survivors"]) for s in payload.get("per_q", [])}
        if payload.get("gamma_eternal") != inst.expected:
            self.fail(f"{tag}: gamma_eternal {payload.get('gamma_eternal')} != {inst.expected}")
            return None
        if inst.expected not in per_q or any(inst.per_q.get(q) != v for q, v in per_q.items()):
            self.fail(f"{tag}: per-q (configs, survivors) {per_q} != {inst.per_q}")
            return None
        if not cert.is_file():
            self.fail(f"{tag}: no certificate written")
            return None
        return payload

    def check_verify(self, tag: str, proc: Proc) -> bool:
        self.attempted += 1
        if proc.code != 0:
            self.fail(f"{tag}: verify exit {proc.code}: {proc.stdout.strip()[-300:]}")
            return False
        return True

    def run_pair(self, inst: Instance, graph: Path, tag: str, traced: bool):
        """eternal then verify on one file.

        Returns (solve Proc, verify Proc or None, payload or None,
        certificate path, span files); None marks a failed operation.
        """
        cert = self.work / ("traced.cert.json" if traced else "cert.json")
        spans = [self.work / "solve.spans.json", self.work / "verify.spans.json"]
        for stale in [cert, *spans]:
            stale.unlink(missing_ok=True)
        solve_cmd = ["eternal", "-k", str(inst.k), str(graph), "--certificate", str(cert),
                     "--json", "--max-states", str(BUDGET)]
        verify_cmd = ["verify", str(cert), str(graph)]
        if traced:
            tracer = [sys.executable, str(BENCH_DIR / "tracer.py")]
            solve_argv = tracer + [str(spans[0]), "--"] + solve_cmd
            verify_argv = tracer + [str(spans[1]), "--"] + verify_cmd
        else:
            solve_argv = [sys.executable, "-m", "ekdom.cli"] + solve_cmd
            verify_argv = [sys.executable, "-m", "ekdom.cli"] + verify_cmd
        solve = self.runner.run(solve_argv)
        payload = self.check_eternal(inst, f"{tag} solve", solve, cert)
        verify = None
        if payload is not None:
            verify = self.runner.run(verify_argv)
            if not self.check_verify(f"{tag} verify", verify):
                verify = None
        return solve, verify, payload, cert, spans

    def run_instance(self, inst: Instance, rnd: int) -> None:
        graph = self.work / f"{inst.name}.edges"
        graph.write_text(edge_list(inst, labeling_rng(self.workload, self.seed, rnd, inst)),
                         encoding="utf-8")
        tag = f"{inst.name} round {rnd}"
        solve, verify, payload, cert, _ = self.run_pair(inst, graph, tag, traced=False)
        if payload is None or verify is None:
            return
        for metric, proc in (("solve_s", solve), ("verify_s", verify)):
            self.add(metric, inst, proc.ref_s)
            self.wall_s.setdefault((metric, inst.name), []).append(proc.wall_s)
        self.add("rss_mb", inst, max(solve.rss_mb, verify.rss_mb))
        self.kernels.setdefault(inst.name, payload["kernel"])
        if rnd == 0:
            doc = json.loads(cert.read_text(encoding="utf-8"))
            self.count("cli.cert_bytes", cert.stat().st_size)
            self.count("solver.cert_family", len(doc["family"]))
            self.count("solver.cert_responses", len(doc["response"]))
        if self.trace:
            self.run_traced(inst, graph, rnd, tag, payload)

    def run_traced(self, inst: Instance, graph: Path, rnd: int, tag: str,
                   untraced: dict) -> None:
        solve, verify, payload, _, spans = self.run_pair(inst, graph, f"{tag} traced",
                                                         traced=True)
        if payload is None or verify is None:
            return
        if payload != untraced:
            self.fail(f"{tag}: traced solve reported {payload}, untraced {untraced}")
            return
        docs = [json.loads(p.read_text(encoding="utf-8")) for p in spans]
        checks = sum(s["checks"] for s in payload["per_q"])
        if docs[0]["counters"].get("kernel.checks") != checks:
            self.fail(f"{tag}: traced kernel.checks {docs[0]['counters'].get('kernel.checks')}"
                      f" != reported {checks}")
            return
        self.add("traced_solve_s", inst, solve.ref_s)
        solve_self, verify_self = self_times(docs[0]["spans"]), self_times(docs[1]["spans"])
        for span, metric in SPAN_METRICS.items():
            both = (solve_self.get(span, 0.0) * solve.scale
                    + verify_self.get(span, 0.0) * verify.scale)
            self.add(metric, inst, both)
        for layer in LAYERS:
            own = sum(t for name, t in solve_self.items() if name.split(".")[0] == layer)
            if layer == "cli":
                own += docs[0]["import_s"]
            self.add(f"{layer}.solve_s", inst, own * solve.scale)
        if len(self.round_elim) <= rnd:
            self.round_elim.append([0.0, 0])
        self.round_elim[rnd][0] += solve_self.get("kernel.elim", 0.0) * solve.scale
        self.round_elim[rnd][1] += checks
        for doc, proc in zip(docs, (solve, verify)):
            self.import_s.append(doc["import_s"] * proc.scale)
            if rnd == 0:
                for name, value in doc["counters"].items():
                    self.count(name, value)

    # -- metrics ----------------------------------------------------------
    def end_to_end(self, setup_s: float) -> dict:
        return {
            "solve_s": (self.total("solve_s"), "s"),
            "verify_s": (self.total("verify_s"), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(median(v) for (m, _), v in self.samples.items()
                                if m == "rss_mb"), "MB"),
        }

    def per_layer(self) -> dict:
        c = self.counters
        m = {metric: (self.total(metric), "s") for metric in SPAN_METRICS.values()}
        m["cli.import_s"] = (median(self.import_s), "s")
        m["cli.cert_bytes"] = (c.get("cli.cert_bytes", 0), "bytes")
        m["domination.gamma_calls"] = (c.get("domination.gamma_calls", 0), "count")
        for name in ("multisets", "states", "transform_calls"):
            m[f"configs.{name}"] = (c.get(f"configs.{name}", 0), "count")
        m["configs.yield"] = (ratio(c.get("configs.states", 0), c.get("configs.multisets", 0)),
                              "frac")
        m["configs.transform_ok_frac"] = (ratio(c.get("configs.transform_ok", 0),
                                                c.get("configs.transform_calls", 0)), "frac")
        for name in ("calls", "rounds", "checks", "survivors"):
            m[f"kernel.{name}"] = (c.get(f"kernel.{name}", 0), "count")
        m["kernel.us_per_check"] = (median(1e6 * t / n for t, n in self.round_elim if n), "us")
        m["kernel.survivor_frac"] = (ratio(c.get("kernel.survivors", 0),
                                           c.get("kernel.states", 0)), "frac")
        m["solver.cert_family"] = (c.get("solver.cert_family", 0), "count")
        m["solver.cert_responses"] = (c.get("solver.cert_responses", 0), "count")
        traced = self.total("traced_solve_s")
        m["trace.overhead_s"] = (traced - self.total("solve_s"), "s")
        shares = {layer: self.total(f"{layer}.solve_s") / traced for layer in LAYERS}
        for layer, share in shares.items():
            m[f"{layer}.share"] = (share, "frac")
        m["other.share"] = (1.0 - sum(shares.values()), "frac")
        return m


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def self_times(spans: list[dict]) -> dict:
    """Span name -> summed self time (duration minus direct children)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, covered in zip(spans, child):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - covered)
    return out


def measure_setup(runner: Runner) -> tuple[float, list[float]]:
    """Median time of a fresh interpreter importing ekdom.cli and selecting a
    kernel; one unrecorded warm-up run fills the bytecode cache."""
    argv = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = runner.run(argv)
        if proc.code != 0:
            raise BenchError(f"cannot import ekdom: {proc.stderr.strip()[-500:]}")
        if i:
            samples.append(proc.ref_s)
    return median(samples), samples


def run(workload: str, seed: int, seconds: float, trace: bool,
        instances: list[Instance] | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detailed record)."""
    instances = WORKLOADS[workload] if instances is None else instances
    build = build_program()
    start = time.monotonic()
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as tmp:
        runner = Runner(Path(tmp), start + HARD_LIMIT_S)
        setup_s, setup_samples = measure_setup(runner)
        bench = Bench(workload, seed, trace, runner)
        min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
        stop = time.monotonic() + seconds
        rnd, i = 0, 0
        while not bench.failures:
            now = time.monotonic()
            if (rnd >= min_rounds and now >= stop) or now > start + HARD_LIMIT_S / 2:
                break
            bench.run_instance(instances[i], rnd)
            i += 1
            if i == len(instances):
                rnd, i = rnd + 1, 0
        bench.rounds = rnd + (i > 0)

    def measured(metric: str) -> bool:
        return all((metric, i.name) in bench.samples for i in instances)

    complete = measured("solve_s") and (not trace or measured("traced_solve_s"))
    metrics = {}
    if complete:
        metrics = bench.per_layer() if trace else bench.end_to_end(setup_s)
    failed = len(bench.failures)
    result = {
        "correct": failed == 0 and complete,
        "attempted": max(bench.attempted, 1),
        "failed": failed if bench.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "provenance": {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "budget": BUDGET,
            "build": build,
            "kernel": bench.kernels,
        },
        "rounds": bench.rounds,
        "failed_frac": failed / max(bench.attempted, 1),
        "setup_s": setup_samples,
        "instances": [
            {"name": i.name, "k": i.k, "expected": i.expected,
             "kernel": bench.kernels.get(i.name),
             **{m: bench.samples.get((m, i.name), []) for m in ("solve_s", "verify_s")},
             **{f"{m}_wall": bench.wall_s.get((m, i.name), []) for m in ("solve_s", "verify_s")}}
            for i in instances],
        "failures": bench.failures,
        "result": result,
    }
    return result, record


def report(record: dict) -> None:
    prov = record["provenance"]
    print(f"ekdom e2e benchmark: workload={prov['workload']} seed={prov['seed']} "
          f"trace={int(prov['trace'])} rounds={record['rounds']} "
          f"failed_frac={record['failed_frac']:.3f}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("  instance   means over n rounds: solve / verify at reference speed "
          "(as measured)")
    for row in record["instances"]:
        cells = [f"{mean(row[m]):.3f}s ({mean(row[m + '_wall']):.3f}s)" if row[m] else "-"
                 for m in ("solve_s", "verify_s")]
        print(f"  {row['name']:<10} k={row['k']} gamma_inf={row['expected']} "
              f"kernel={row['kernel']} n={len(row['solve_s'])}  {cells[0]} / {cells[1]}")
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:<26} {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ekdom" / "cli.py").is_file() or not (ROOT / "setup.py").is_file():
        print(f"error: no ekdom sources under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # Children inherit the affinity, so probes and children share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
