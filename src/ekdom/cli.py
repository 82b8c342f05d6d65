"""Command-line front door.

Only the parser and the graph reader are loaded here; each subcommand
imports what it needs when it runs.  ``eternal`` loads the solver and the
kernels, and ``verify`` only the checker (``ekdom.certificate``), so a
verify process runs none of the code it checks and starts up short.
JSON text is read and written with ``_json``, the C codec inside the json
package, giving ``json.loads``'s and ``json.dumps``'s values, bytes and
errors without importing the package; only ``reduce``, whose indented
output needs json's Python encoder, loads it.

Exit codes: 0 success, 1 parse/usage error, 2 budget exceeded (bounds are
still printed), 3 certificate rejected (malformed or invalid) or
power-check mismatch, 141 (128 + SIGPIPE, as a shell reports a filter
whose reader went away) when the reader of stdout closed it early.

A process (``python -m ekdom.cli`` or the ``ekdom`` script) runs
``run()``, which flushes stdout and stderr once ``main()`` returns and ends
with ``os._exit``, skipping the interpreter's teardown: that costs a fresh
process more than importing ekdom does.  The fast exit also skips
``atexit`` handlers and finalizers (``weakref.finalize``, ``__del__``), so
ekdom registers none, and every file it writes is closed before ``main()``
returns.  In-process callers call ``main()``, which never calls ``os._exit``.
"""
import io
import os
import sys
import warnings
from _json import encode_basestring_ascii, make_encoder, make_scanner
from types import SimpleNamespace

from .graph import (DEFAULT_BUDGET, BudgetExceededError, DisconnectedGraphError, Graph,
                    ParseError, format_dot, format_edge_list, is_connected, parse_graph)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3
EXIT_PIPE = 141

# ``_dumps`` and ``_loads`` call ``_json`` directly because the json
# package's modules compile six regexes at import.
_WHITESPACE = " \t\n\r"  # what json skips around a document
_scan = make_scanner(SimpleNamespace(
    strict=True, object_hook=None, object_pairs_hook=None, parse_float=float, parse_int=int,
    parse_constant={"NaN": float("nan"), "Infinity": float("inf"),
                    "-Infinity": float("-inf")}.__getitem__))


def _unserializable(value):
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _dumps(value, separators: tuple[str, str] = (", ", ": ")) -> str:
    """``json.dumps(value, separators=separators)``."""
    item, key = separators
    encode = make_encoder({}, _unserializable, encode_basestring_ascii, None, key, item,
                          False, False, True)
    return "".join(encode(value, 0))


def _decode_error(message: str, text: str, pos: int):
    from json.decoder import JSONDecodeError

    raise JSONDecodeError(message, text, pos) from None


def _loads(text: str):
    """``json.loads(text)``."""
    if text.startswith("\ufeff"):
        _decode_error("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    start = len(text) - len(text.lstrip(_WHITESPACE))
    try:
        value, end = _scan(text, start)
    except StopIteration as exc:
        _decode_error("Expecting value", text, exc.value)
    except SystemError:
        # Before Python 3.12 the scanner raises its JSONDecodeError only
        # once json.decoder is loaded; the second scan fails with it.
        import json.decoder

        value, end = _scan(text, start)
    rest = text[end:].lstrip(_WHITESPACE)
    if rest:
        _decode_error("Extra data", text, len(text) - len(rest))
    return value


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


def _at_least(low: int):
    """An int converter that refuses values below ``low``."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return convert


# The command line, one entry per subcommand: (help, options, positionals).
# An option is (flag and metavar as usage shows them, converter or None for a
# plain flag, default, help); default ``...`` marks it required.  A positional
# is (name, converter or a tuple of choices, help); "args..." takes the rest.
_K = ("-k K", int, ..., "guard movement radius")
_BUDGET = ("--max-states N", _at_least(0), DEFAULT_BUDGET,
           "(configuration, attack) check budget per guard count")
_JSON = ("--json", None, False, "print the result as JSON")
_FILE = ("file", str, "edge-list or DOT-subset file ('-' for stdin)")
_TABLE = {
    "gamma": ("static distance-k domination number", [_K, _JSON], [_FILE]),
    "eternal": ("eternal distance-k domination number", [
        _K, _BUDGET, ("--qmax N", _at_least(1), None, "stop after this guard count"),
        ("--certificate OUT.json", str, None, "write the defense certificate here"), _JSON],
        [_FILE]),
    "verify": ("check a certificate against a graph", [],
               [("certificate", str, "certificate JSON file"), ("file", str, "graph file")]),
    "reduce": ("tree reduction trace as JSON", [_K], [_FILE]),
    "closed-form": ("formula values for named families", [],
                    [("family", ("path", "cycle", "mary"), "named family"),
                     ("args...", int, "path/cycle: N K; mary: M D K")]),
    "power-check": ("compare (G, k) against (G^k, 1)", [_K, _BUDGET], [_FILE]),
    "bounds": ("sandwich, spanning-tree and decomposition bounds", [_K, _BUDGET, _JSON],
               [_FILE]),
    "gen": ("emit a named family as an edge list", [("--dot", None, False, "emit DOT instead")],
            [("family", ("path", "cycle", "mary", "spider", "pnl", "substar"), "named family"),
             ("args...", int, "path/cycle: N; mary: M D; spider: LEG...; pnl: N K Z; "
                              "substar: N K")]),
}


def _negative(arg: str) -> bool:
    r"""Whether argparse reads ``arg``, which starts with "-", as a negative
    number (a value, not an option): ``^-\d+$|^-\d*\.\d+$``, where ``\d``
    is a character that ``str.isdecimal`` accepts and ``$`` also matches
    before one final newline."""
    whole, dot, frac = arg[1:-1 if arg.endswith("\n") else None].partition(".")
    if dot:
        return frac.isdecimal() and (not whole or whole.isdecimal())
    return whole.isdecimal()


def _exit(command: str | None, error: str | None = None):
    """Print the help of ``command`` (None: ekdom itself) and exit 0, or with
    ``error`` print its usage line and the error on stderr and exit 1."""
    if command is None:
        prog, words = "ekdom", ["COMMAND ..."]
        about = "Exact eternal distance-k domination: numbers, bounds, certificates."
        rows = [(name, entry[0]) for name, entry in _TABLE.items()]
    else:
        prog, (about, options, positionals) = f"ekdom {command}", _TABLE[command]
        words = [o[0] if o[2] is ... else f"[{o[0]}]" for o in options]
        words += [p[0] for p in positionals]
        rows = [(o[0], o[3]) for o in options] + [
            (name, f"{h}: {', '.join(to)}" if isinstance(to, tuple) else h)
            for name, to, h in positionals]
    usage = " ".join(["usage:", prog, "[-h]", *words])
    if error is not None:
        sys.stderr.write(f"{usage}\n{prog}: error: {error}\n")
        raise SystemExit(EXIT_PARSE)
    width = 2 + max(len(left) for left, _ in rows)
    print("\n".join([usage, "", about, ""] + [f"  {left:<{width}}{h}" for left, h in rows]))
    raise SystemExit(EXIT_OK)


def _option(arg: str, flags) -> tuple[str, str | None] | None:
    """None when argparse read ``arg`` as a value (``-`` and negative numbers
    too); else the flag it names ("" for an unknown or ambiguous one) and the
    value it carries, or None.  Long flags match by unique prefix."""
    if arg[:1] != "-" or arg == "-" or _negative(arg):
        return None
    if arg.startswith("--"):  # --qmax 3 or --qmax=3
        name, eq, value = arg.partition("=")
    else:  # -k 2, -k2 or -k=2
        name, eq, value = arg[:2], len(arg) > 2, arg[2:].removeprefix("=")
    hits = [name] if name in flags else [
        f for f in flags if len(name) > 2 and f.startswith(name)]
    return (hits[0] if len(hits) == 1 else ""), (value if eq else None)


def _parse(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` against ``_TABLE``, options before or after positionals."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _exit(None)
    if command not in _TABLE:
        _exit(None, "a command is required" if command is None
              else f"invalid command: {command!r}")
    _, options, positionals = _TABLE[command]
    spec = {o[0].split()[0]: o for o in options}
    dest = {flag: flag.lstrip("-").replace("-", "_") for flag in spec}
    args = SimpleNamespace(command=command, **{dest[f]: o[2] for f, o in spec.items()})

    def convert(name: str, to, text: str):
        if isinstance(to, tuple):
            if text in to:
                return text
            _exit(command, f"argument {name}: invalid choice: {text!r} "
                           f"(choose from {', '.join(to)})")
        try:
            return to(text)
        except ValueError as exc:
            _exit(command, f"argument {name}: {exc}")

    flags = ["-h", "--help", *spec]
    values, rest = [], iter(argv[1:])
    for arg in rest:
        if arg == "--":  # the rest are positionals
            values.extend(rest)
            break
        option = _option(arg, flags)
        if option is None:
            values.append(arg)
            continue
        flag, value = option
        if flag in ("-h", "--help"):
            _exit(command)
        if not flag:
            _exit(command, f"unrecognized arguments: {arg}")
        to = spec[flag][1]
        if to is None and value is not None:
            _exit(command, f"argument {flag}: ignored explicit argument {value!r}")
        if to is not None and value is None:
            value = next(rest, None)
            if value is None or _option(value, flags) is not None:
                _exit(command, f"argument {flag}: expected one argument")
        setattr(args, dest[flag], True if to is None else convert(flag, to, value))
    missing = [f for f in spec if getattr(args, dest[f]) is ...]
    for name, to, _ in positionals:
        many = name.endswith("...")
        taken, values = (values, []) if many else (values[:1], values[1:])
        if not taken:
            missing.append(name)
            continue
        taken = [convert(name, to, text) for text in taken]
        setattr(args, name.removesuffix("..."), taken if many else taken[0])
    if missing:
        _exit(command, f"the following arguments are required: {', '.join(missing)}")
    if values:
        _exit(command, f"unrecognized arguments: {' '.join(values)}")
    return args


def _cmd_gamma(args) -> int:
    from .domination import gamma_k

    g = _load_graph(args.file)
    result = gamma_k(g, args.k)
    witness = [g.labels[v] for v in result.witness]
    if args.json:
        print(_dumps({"gamma": result.gamma, "witness": witness}))
    else:
        print(f"gamma_{args.k} = {result.gamma}   witness: {' '.join(witness)}")
    return EXIT_OK


def _claim(path: str | None) -> bool:
    """Open ``path`` for appending, so that an unwritable certificate path
    fails before the solve and an existing file keeps its bytes; True when
    this created the file."""
    if not path:
        return False
    created = not os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    return created


def _cmd_eternal(args) -> int:
    # Names are looked up here, at call time, so a patched or wrapped solver
    # entry point is the one that runs.
    from . import _kernel
    from .solver import certificate_to_json, eternal_number

    g = _load_graph(args.file)
    created, report = _claim(args.certificate), None
    try:
        report = eternal_number(g, args.k, q_max=args.qmax, budget=args.max_states)
    finally:
        if created and (report is None or report.certificate is None):
            os.remove(args.certificate)  # no certificate comes out
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
        print(_dumps(payload))
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
            doc = certificate_to_json(c, g)
            with open(args.certificate, "w", encoding="utf-8") as fh:
                fh.write(_dumps(doc, separators=(",", ":")))
            # Under --json, stdout holds the one JSON document.
            print(f"  certificate written to {args.certificate}",
                  file=sys.stderr if args.json else sys.stdout)
        else:
            print("  no certificate available (unresolved, disconnected, or "
                  "family larger than the cap)", file=sys.stderr)
    return EXIT_BUDGET if report.budget_exceeded else EXIT_OK


def _cmd_verify(args) -> int:
    # The reader checks the format's structural rules, so only the checker's
    # later stages run on what it returns.
    from .certificate import _strategy_violation, certificate_from_json

    g = _load_graph(args.file)
    with open(args.certificate, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = _loads(text)
    except RecursionError:
        raise ValueError(f"cannot parse {args.certificate}: JSON nested "
                         "too deeply") from None
    try:
        cert = certificate_from_json(doc, g)
    except (ValueError, KeyError) as exc:
        print(f"certificate rejected: {exc}")
        return EXIT_VERIFY
    ok, violation = _strategy_violation(g, cert)
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
    from .solver import eternal_number

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
        print(_dumps(payload))
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


def _reader_gone() -> int:
    """Point stdout, whose reader closed the pipe, at the null device, so
    that the output still buffered is dropped without a report when the
    process flushes; the exit code to end with, quietly."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    os.close(null)
    return EXIT_PIPE


def main(argv: list[str] | None = None) -> int:
    try:  # -h writes too, so a reader gone by then ends quietly as well
        args = _parse(sys.argv[1:] if argv is None else argv)
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return _reader_gone()
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


class _WholeWrites(io.RawIOBase):
    """The raw file of an unbuffered stdout (``PYTHONUNBUFFERED``, ``-u``),
    writing each block in full.

    A raw write returns a short count instead of raising when the reader
    of a pipe leaves mid-write, and the text layer of an unbuffered stdout
    leaves the count unchecked: the output would end cut short, with exit
    0.  Writing on after a short count makes the closed pipe raise
    ``BrokenPipeError``, as on a buffered stdout.  Nothing is held back, so
    a failed write (a full disk) is reported once, where it happens.
    """

    def __init__(self, raw):
        self.raw = raw

    def writable(self) -> bool:
        return True

    def fileno(self) -> int:
        return self.raw.fileno()

    def write(self, data) -> int:
        view = memoryview(data)
        while view:  # a non-blocking file that is full writes None: try again
            view = view[self.raw.write(view) or 0:]
        return len(data)


def run() -> None:
    """Run ``main()`` as a process and end it at its last write.

    A closed pipe ends the process quietly with exit 141, whether the
    write in ``main()`` or the last flush here finds it; an unbuffered
    stdout writes through ``_WholeWrites`` so that it, too, finds it.  Any
    other flush that fails (a full disk) falls back to ``sys.exit``, so
    the interpreter reports it as it always has: one "Exception ignored"
    line and exit 120.  A usage error, ``-h`` and an uncaught exception
    never get here and take the normal exit too.
    """
    out = sys.stdout
    if out is not None and isinstance(getattr(out, "buffer", None), io.RawIOBase):
        sys.stdout = io.TextIOWrapper(_WholeWrites(out.buffer), out.encoding, out.errors,
                                      write_through=True)
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except BrokenPipeError:
        code = _reader_gone()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
