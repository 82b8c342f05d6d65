"""Traced ekdom process: wraps each layer's entry points, then runs the CLI.

    python3 e2ebench/tracer.py SPANS.json -- eternal -k 2 g.edges ...

Every entry point is replaced under every name it is looked up by (for
example ``all_pairs_distances`` inside ``ekdom.graph``, where
``is_connected`` calls it, and inside ``ekdom.solver``, which imported
it).  Spans (name, start, end, parent) and counters taken from return
values stay in memory and are written to SPANS.json when ``main``
returns.  The CLI argv after ``--`` is the one the untraced run uses.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from math import comb

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span called ``name``; ``on_result(bound_arguments,
        result)`` collects counters from each call."""
        sig = inspect.signature(fn) if on_result else None

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = [name, 0.0, 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = _clock()
                self._stack.pop()
            if on_result is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(bound.arguments, result)
            return result

        return traced

    def dump(self, path: str, import_s: float) -> None:
        doc = {
            "import_s": import_s,
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``ekdom`` module attribute that is ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "ekdom" or mod_name.startswith("ekdom.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class _TracedJson:
    """Stand-in for the ``json`` module inside ``ekdom.cli``: certificate
    writes (``dump``) and reads (``load``) run inside spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.dump = tracer.wrap("cli.cert_write", json.dump)
        self.load = tracer.wrap("cli.cert_read", json.load)

    def __getattr__(self, name):
        return getattr(json, name)


def install(tracer: Tracer) -> None:
    import ekdom._kernel
    import ekdom.cli
    import ekdom.configs
    import ekdom.domination
    import ekdom.graph
    import ekdom.solver

    def on_gamma(_args, _result):
        tracer.count("domination.gamma_calls")

    def on_enum(args, result):
        n, q = len(args["dist"]), args["q"]
        tracer.count("configs.multisets", comb(n + q - 1, q))
        tracer.count("configs.states", len(result))

    transform = ekdom.configs.transform_assignment

    def counted_transform(*args, **kwargs):
        # Called once per certificate probe, so counted without a span.
        result = transform(*args, **kwargs)
        tracer.count("configs.transform_calls")
        tracer.count("configs.transform_ok", result is not None)
        return result

    def on_elim(args, result):
        alive, rounds, checks, _exceeded = result
        tracer.count("kernel.calls")
        tracer.count("kernel.rounds", rounds)
        tracer.count("kernel.checks", checks)
        tracer.count("kernel.survivors", sum(alive))
        tracer.count("kernel.states", len(args["states"]))

    targets = [
        (ekdom.graph, "all_pairs_distances", "graph.distances", None),
        (ekdom.graph, "parse_graph", "cli.parse", None),
        (ekdom.domination, "gamma_k", "domination.gamma", on_gamma),
        (ekdom.configs, "enumerate_dominating_configs", "configs.enum", on_enum),
        (ekdom._kernel, "run_elimination", "kernel.elim", on_elim),
        (ekdom.solver, "eternal_number", "solver.eternal", None),
        (ekdom.solver, "verify_certificate", "solver.verify", None),
        (ekdom.solver, "certificate_to_json", "cli.cert_write", None),
        (ekdom.solver, "certificate_from_json", "cli.cert_read", None),
    ]
    for module, attr, span, hook in targets:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(span, original, hook))
    _replace_everywhere(transform, counted_transform)
    ekdom.cli.json = _TracedJson(tracer)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <ekdom argv>", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    t0 = _clock()
    import ekdom.cli
    import_s = _clock() - t0
    tracer = Tracer()
    install(tracer)
    try:
        return ekdom.cli.main(cli_argv)
    finally:
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
