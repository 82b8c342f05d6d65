"""Command-line front door.

Only the modules the solver and the verifier need are imported here; the
other subcommands import theirs when they run, which keeps start-up short
for ``eternal`` and ``verify``.

Exit codes: 0 success, 1 parse/usage error, 2 budget exceeded (bounds are
still printed), 3 certificate rejected (malformed or invalid) or
power-check mismatch.
"""
from __future__ import annotations

import argparse
import json  # module-level: e2ebench/tracer.py swaps ekdom.cli.json
import sys
import warnings

from . import _kernel
from .domination import gamma_k
from .graph import (DisconnectedGraphError, Graph, ParseError, format_dot,
                    format_edge_list, is_connected, parse_graph)
from .solver import (DEFAULT_BUDGET, BudgetExceededError, certificate_from_json,
                     certificate_to_json, eternal_number, verify_certificate)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


def _load_graph(path: str) -> Graph:
    """Parse a graph file, printing each parser warning as one stderr line."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = parse_graph(text)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return g


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with EXIT_PARSE instead of argparse's 2 (EXIT_BUDGET)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, budget: bool = True) -> None:
    p.add_argument("-k", type=int, required=True, help="guard movement radius")
    p.add_argument("file", help="edge-list or DOT-subset file ('-' for stdin)")
    if budget:
        p.add_argument("--max-states", type=_non_negative_int, default=DEFAULT_BUDGET,
                       help="(configuration, attack) check budget per guard count")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="ekdom",
        description="Exact eternal distance-k domination: numbers, bounds, certificates.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="static distance-k domination number")
    _add_common(p, budget=False)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("eternal", help="eternal distance-k domination number")
    _add_common(p)
    p.add_argument("--qmax", type=_positive_int, default=None,
                   help="stop after this guard count")
    p.add_argument("--certificate", metavar="OUT.json", default=None,
                   help="write the defense certificate here")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("file", help="graph file")

    p = sub.add_parser("reduce", help="tree reduction trace as JSON")
    _add_common(p, budget=False)

    p = sub.add_parser("closed-form", help="formula values for named families")
    p.add_argument("family", choices=["path", "cycle", "mary"])
    p.add_argument("args", type=int, nargs="+",
                   help="path/cycle: N K; mary: M D K")

    p = sub.add_parser("power-check", help="compare (G, k) against (G^k, 1)")
    _add_common(p)

    p = sub.add_parser("bounds", help="sandwich, spanning-tree and decomposition bounds")
    _add_common(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="emit a named family as an edge list")
    p.add_argument("family", choices=["path", "cycle", "mary", "spider", "pnl", "substar"])
    p.add_argument("args", type=int, nargs="+",
                   help="path/cycle: N; mary: M D; spider: LEG...; pnl: N K Z; substar: N K")
    p.add_argument("--dot", action="store_true", help="emit DOT instead")

    return top


def _cmd_gamma(args) -> int:
    g = _load_graph(args.file)
    result = gamma_k(g, args.k)
    witness = [g.labels[v] for v in result.witness]
    if args.json:
        print(json.dumps({"gamma": result.gamma, "witness": witness}))
    else:
        print(f"gamma_{args.k} = {result.gamma}   witness: {' '.join(witness)}")
    return EXIT_OK


def _cmd_eternal(args) -> int:
    g = _load_graph(args.file)
    report = eternal_number(g, args.k, q_max=args.qmax, budget=args.max_states)
    c = report.certificate
    payload = {
        "k": args.k,
        "gamma_eternal": report.gamma_eternal,
        "bounds": [report.lower_bound, report.upper_bound],
        "gamma_k": report.gamma_k_value,
        "gamma_half_k": report.gamma_half_value,
        "kernel": _kernel.active_kernel(),
        "per_q": [{"q": s.q, "configs": s.num_configs, "rounds": s.rounds,
                   "checks": s.checks, "survivors": s.survivors,
                   "exceeded": s.exceeded, "prefixes": s.prefixes,
                   "work": s.work._asdict()}
                  for s in report.per_q],
        "certificate": None if c is None else {"family": len(c.family),
                                               "responses": len(c.rows)},
    }
    if args.json:
        print(json.dumps(payload))
    elif report.resolved:
        print(f"eternal distance-{args.k} domination number = {report.gamma_eternal}")
        for s in report.per_q:
            print(f"  q={s.q}: {s.num_configs} configurations, "
                  f"{s.rounds} rounds, {s.survivors} survive")
        if c is not None:
            print(f"  certificate: family of {len(c.family)}, "
                  f"{len(c.rows)} responses")
    else:
        reason = "unresolved" if report.budget_exceeded else f"stopped at --qmax {args.qmax}"
        print(f"{reason}: eternal number in [{report.lower_bound}, {report.upper_bound}]")
    if args.certificate:
        if c is not None:
            # One dumps call runs json's C encoder; dump streams the pure
            # Python one, a write per token.
            doc = certificate_to_json(c, g)
            with open(args.certificate, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, separators=(",", ":")))
            print(f"  certificate written to {args.certificate}")
        else:
            print("  no certificate available (unresolved, disconnected, or "
                  "family larger than the cap)", file=sys.stderr)
    return EXIT_BUDGET if report.budget_exceeded else EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.file)
    with open(args.certificate, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"cannot parse {args.certificate}: JSON nested "
                             "too deeply") from None
    try:
        cert = certificate_from_json(doc, g)
    except (ValueError, KeyError) as exc:
        print(f"certificate rejected: {exc}")
        return EXIT_VERIFY
    ok, violation = verify_certificate(g, cert)
    if ok:
        print(f"certificate ok: {len(cert.family)} configurations of "
              f"{cert.q} guards defend at k={cert.k}")
        return EXIT_OK
    print(f"certificate invalid: state={violation.state} "
          f"attack={violation.attack} ({violation.reason})")
    return EXIT_VERIFY


def _cmd_reduce(args) -> int:
    from .reductions import reduce_tree

    g = _load_graph(args.file)
    print(reduce_tree(g, args.k).to_json_text())
    return EXIT_OK


def _cmd_closed_form(args) -> int:
    from .closed_forms import cycle_number, path_number
    from .mary import mary_number_piecewise, mary_number_recursive

    if args.family in ("path", "cycle"):
        if len(args.args) != 2:
            raise ValueError(f"{args.family} takes N K")
        n, k = args.args
        value = path_number(n, k) if args.family == "path" else cycle_number(n, k)
        print(value)
    else:
        if len(args.args) != 3:
            raise ValueError("mary takes M D K")
        m, d, k = args.args
        recursive = mary_number_recursive(m, d, k)
        piecewise, consistent = mary_number_piecewise(m, d, k)
        print(recursive)
        if not consistent:
            print(f"note: the printed closed form gives {piecewise}; the "
                  f"recursion gives {recursive} (residual depth k/2 boundary)",
                  file=sys.stderr)
    return EXIT_OK


def _cmd_power_check(args) -> int:
    from .bounds import power_equivalence_check

    g = _load_graph(args.file)
    report = power_equivalence_check(g, args.k, budget=args.max_states)
    verdict = "equal" if report.numbers_equal else "DIFFER"
    print(f"{verdict}: {report.gamma_direct} = {report.gamma_power}"
          if report.numbers_equal else
          f"{verdict}: {report.gamma_direct} vs {report.gamma_power}")
    if report.numbers_equal and not report.survivors_equal:
        print(f"survivor sets differ at {report.first_mismatch}")
        return EXIT_VERIFY
    return EXIT_OK if report.numbers_equal else EXIT_VERIFY


def _cmd_bounds(args) -> int:
    from .bounds import decomposition_bound, spanning_tree_upper_bound

    g = _load_graph(args.file)
    if not is_connected(g):
        raise DisconnectedGraphError("bounds need a connected graph")
    report = eternal_number(g, args.k, budget=args.max_states)
    low, high = report.gamma_k_value, report.gamma_half_value
    spanning = spanning_tree_upper_bound(g, args.k, budget=args.max_states)
    decomposition, cells = decomposition_bound(g, args.k)
    payload = {
        "gamma_k": low,
        "gamma_half_k": high,
        "eternal": report.gamma_eternal,
        "eternal_bounds": [report.lower_bound, report.upper_bound],
        "spanning_tree": spanning,
        "decomposition": decomposition,
        "decomposition_parts": [{"root": g.labels[r],
                                 "vertices": [g.labels[v] for v in part]}
                                for r, part in cells],
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"sandwich: {low} <= eternal <= {high}")
        if report.resolved:
            print(f"eternal number: {report.gamma_eternal}")
        else:
            print(f"eternal number in [{report.lower_bound}, {report.upper_bound}] (budget)")
        print(f"spanning-tree bound: {spanning}")
        print(f"decomposition bound: {decomposition}")
    return EXIT_OK if report.resolved else EXIT_BUDGET


def _cmd_gen(args) -> int:
    from .closed_forms import (build_p_n_ell, build_subdivided_star, cycle_graph,
                               path_graph, spider_graph)
    from .mary import build_perfect_mary

    family, params = args.family, args.args
    if family == "path":
        g = path_graph(*params)
    elif family == "cycle":
        g = cycle_graph(*params)
    elif family == "mary":
        g = build_perfect_mary(*params)
    elif family == "spider":
        g = spider_graph(params)
    elif family == "pnl":
        g = build_p_n_ell(*params)
    else:
        g = build_subdivided_star(*params)
    sys.stdout.write(format_dot(g) if args.dot else format_edge_list(g))
    return EXIT_OK


_COMMANDS = {
    "gamma": _cmd_gamma,
    "eternal": _cmd_eternal,
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "closed-form": _cmd_closed_form,
    "power-check": _cmd_power_check,
    "bounds": _cmd_bounds,
    "gen": _cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
