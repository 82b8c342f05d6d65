"""Command-line surface: subcommands, formats, exit codes."""
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekdom
from ekdom.cli import _dumps, _loads, _negative, _parse, main
from ekdom.closed_forms import path_graph, spider_graph
from ekdom.graph import all_pairs_distances, parse_graph
from ekdom.mary import build_perfect_mary
from ekdom.solver import BudgetExceededError, certificate_from_json, verify_certificate
from helpers import DEFAULT_SEED, reference_parser

try:
    from ekdom._kernel import _ckernel
except ImportError:
    _ckernel = None


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fingerprint(g):
    dist = all_pairs_distances(g)
    degrees = sorted(g.degree(v) for v in range(g.n))
    pairs = sorted(dist[u][v] for u in range(g.n) for v in range(u + 1, g.n))
    return degrees, pairs


@pytest.mark.parametrize("family,args,n", [
    ("path", ["6"], 6),
    ("cycle", ["8"], 8),
    ("mary", ["2", "3"], 15),
    ("spider", ["2", "2", "2"], 7),
    ("pnl", ["8", "2", "2"], 8),
    ("substar", ["3", "2"], 7),
])
def test_gen_reparses_to_same_fingerprint(capsys, family, args, n):
    code, out, _ = run(capsys, "gen", family, *args)
    assert code == 0
    g = parse_graph(out)
    assert g.n == n
    code, out2, _ = run(capsys, "gen", family, *args)
    assert fingerprint(parse_graph(out2)) == fingerprint(g)


def test_gen_dot_output(capsys):
    code, out, _ = run(capsys, "gen", "path", "4", "--dot")
    assert code == 0 and out.startswith("graph {")
    assert parse_graph(out).n == 4


def test_eternal_certificate_verify_round_trip(tmp_path, capsys):
    graph_file = tmp_path / "p5.edges"
    cert_file = tmp_path / "cert.json"
    code, out, _ = run(capsys, "gen", "path", "5")
    graph_file.write_text(out)

    code, out, _ = run(capsys, "eternal", "-k", "2", str(graph_file),
                       "--certificate", str(cert_file))
    assert code == 0 and "= 2" in out
    assert cert_file.exists()

    code, out, _ = run(capsys, "verify", str(cert_file), str(graph_file))
    assert code == 0 and "ok" in out

    # Sabotage: point a response outside the family.  The reader refuses
    # the index before anything is decoded.
    doc = json.loads(cert_file.read_text())
    sabotaged = json.loads(json.dumps(doc))
    sabotaged["response"][0][0] = 99
    cert_file.write_text(json.dumps(sabotaged))
    code, out, _ = run(capsys, "verify", str(cert_file), str(graph_file))
    assert code == 3 and "rejected" in out and "names next 99, outside" in out

    # Send two guards to one post of a successor with distinct posts: the
    # row decodes, and the verifier finds the targets wrong.
    r = next(r for r, row in enumerate(doc["response"])
             if len(set(doc["family"][row[0]])) == doc["q"])
    doc["response"][r][2] = doc["response"][r][1]
    cert_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(cert_file), str(graph_file))
    assert code == 3 and "invalid" in out
    assert "targets do not match the successor" in out


def test_eternal_json_and_budget_exit(tmp_path, capsys):
    graph_file = tmp_path / "p9.edges"
    _, out, _ = run(capsys, "gen", "path", "9")
    graph_file.write_text(out)
    code, out, _ = run(capsys, "eternal", "-k", "2", str(graph_file), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_eternal"] == 3
    assert [s["exceeded"] for s in payload["per_q"]] == [False, False]
    for s in payload["per_q"]:
        work = s["work"]
        assert list(work) == ["probes", "dead", "matchings", "matched", "jumped"]
        assert work["probes"] == work["dead"] + work["matchings"] >= work["matched"]
    assert payload["per_q"][-1]["work"]["matched"] > 0
    assert all(s["prefixes"] >= s["configs"] > 0 for s in payload["per_q"])

    code, out, _ = run(capsys, "eternal", "-k", "2", str(graph_file),
                       "--max-states", "30")
    assert code == 2 and "unresolved" in out

    # A refused guard count says so; its configs count is only a lower bound,
    # and its prefix count stops where the walk was cut.
    code, out, _ = run(capsys, "eternal", "-k", "2", str(graph_file), "--json",
                       "--max-states", "0")
    assert code == 2
    zero = {"probes": 0, "dead": 0, "matchings": 0, "matched": 0, "jumped": 0}
    assert json.loads(out)["per_q"] == [{"q": 2, "configs": 1, "rounds": 0, "checks": 0,
                                         "survivors": 0, "exceeded": True, "prefixes": 8,
                                         "work": zero}]

    # A --qmax cap is not a budget trip.
    code, out, _ = run(capsys, "eternal", "-k", "2", str(graph_file), "--qmax", "2")
    assert code == 0 and "stopped at --qmax 2: eternal number in [3, 3]" in out


def test_eternal_reports_certificate_size(tmp_path, capsys):
    graph_file = tmp_path / "p9.edges"
    cert_file = tmp_path / "cert.json"
    _, out, _ = run(capsys, "gen", "path", "9")
    graph_file.write_text(out)
    code, out, err = run(capsys, "eternal", "-k", "2", str(graph_file), "--json",
                         "--certificate", str(cert_file))
    assert code == 0
    # stdout is the one JSON document; the file notice goes to stderr.
    size = json.loads(out)["certificate"]
    assert err == f"  certificate written to {cert_file}\n"
    doc = json.loads(cert_file.read_text())
    assert size == {"family": len(doc["family"]), "responses": len(doc["response"])}
    assert size["responses"] == 9 * size["family"]

    code, out, _ = run(capsys, "eternal", "-k", "2", str(graph_file),
                       "--certificate", str(cert_file))
    assert (f"certificate: family of {size['family']}, {size['responses']} responses"
            in out)
    assert out.endswith(f"  certificate written to {cert_file}\n")

    # Stopped below the answer: no certificate.
    code, out, _ = run(capsys, "eternal", "-k", "2", str(graph_file), "--json",
                       "--qmax", "2")
    assert code == 0 and json.loads(out)["certificate"] is None


def test_parse_warnings_print_one_line_each(tmp_path, capsys):
    graph_file = tmp_path / "dup.edges"
    graph_file.write_text("a b\na b\nb c\nc a\nc b\n")  # a triangle
    code, out, err = run(capsys, "eternal", "-k", "1", str(graph_file))
    assert code == 0 and "= 1" in out
    assert err.splitlines() == ["warning: line 2: duplicate edge 'a' 'b' ignored",
                                "warning: line 5: duplicate edge 'c' 'b' ignored"]


@pytest.mark.parametrize("qmax,text", [
    ("1", "stopped at --qmax 1: eternal number in ["),
    ("4", "stopped at --qmax 4: eternal number in [5, 5]"),
    ("5", "eternal distance-1 domination number = 5"),
], ids=["qmax-1", "qmax-4", "qmax-5"])
def test_eternal_qmax_on_disconnected_graph(tmp_path, capsys, qmax, text):
    # P5 + P3 at k = 1 needs 3 + 2 guards; a --qmax stop is not a budget trip.
    graph_file = tmp_path / "p5p3.edges"
    graph_file.write_text("a b\nb c\nc d\nd e\nx y\ny z\n")
    code, out, _ = run(capsys, "eternal", "-k", "1", str(graph_file), "--qmax", qmax)
    assert code == 0 and text in out


def test_gamma_and_bounds_and_power_check(tmp_path, capsys):
    graph_file = tmp_path / "c10.edges"
    _, out, _ = run(capsys, "gen", "cycle", "10")
    graph_file.write_text(out)

    code, out, _ = run(capsys, "gamma", "-k", "2", str(graph_file), "--json")
    assert code == 0 and json.loads(out)["gamma"] == 2

    code, out, _ = run(capsys, "power-check", "-k", "2", str(graph_file))
    assert code == 0 and "equal: 2 = 2" in out

    code, out, _ = run(capsys, "bounds", "-k", "2", str(graph_file), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["eternal"] == 2 and payload["spanning_tree"] == 4


@pytest.mark.parametrize("command", ["bounds", "power-check"])
def test_bounds_and_power_check_refuse_disconnected_graphs(tmp_path, capsys,
                                                           monkeypatch, command):
    # P16 plus a separate edge: refused before any guard count is solved.
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a disconnected graph")

    monkeypatch.setattr("ekdom.solver.eternal_number", no_solve)
    monkeypatch.setattr("ekdom.bounds.eternal_number", no_solve)
    graph_file = tmp_path / "p16-k2.edges"
    graph_file.write_text("".join(f"{i} {i + 1}\n" for i in range(15)) + "a b\n")
    code, _, err = run(capsys, command, "-k", "2", str(graph_file))
    assert code == 1 and "connected graph" in err


def test_reduce_emits_trace_json(tmp_path, capsys):
    graph_file = tmp_path / "t.edges"
    _, out, _ = run(capsys, "gen", "spider", "2", "2", "2")
    graph_file.write_text(out)
    code, out, _ = run(capsys, "reduce", "-k", "2", str(graph_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["bounds"][0] <= doc["bounds"][1]
    assert doc["steps"]


def test_closed_form_subcommand(capsys):
    code, out, _ = run(capsys, "closed-form", "path", "9", "2")
    assert code == 0 and out.strip() == "3"
    code, out, err = run(capsys, "closed-form", "mary", "2", "5", "2")
    assert code == 0 and out.strip() == "11" and "12" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("a b c d\n")
    code, _, err = run(capsys, "gamma", "-k", "2", str(bad))
    assert (code, err) == (1, "parse error: line 1: expected 'A B' or 'v A', got 'a b c d'\n")
    # A long line, such as a certificate passed as the graph, is quoted in part.
    bad.write_text("a b c " + "d" * 5000 + "\n")
    code, _, err = run(capsys, "gamma", "-k", "2", str(bad))
    assert code == 1 and len(err.encode()) < 200 and err.endswith("ddd'...\n")


def _write_p5_certificate(tmp_path, capsys):
    graph_file = tmp_path / "p5.edges"
    cert_file = tmp_path / "cert.json"
    _, out, _ = run(capsys, "gen", "path", "5")
    graph_file.write_text(out)
    code, _, _ = run(capsys, "eternal", "-k", "2", str(graph_file),
                     "--certificate", str(cert_file))
    assert code == 0
    return graph_file, cert_file, json.loads(cert_file.read_text())


def _replace_entry(doc, r, entry):
    return dict(doc, response=doc["response"][:r] + [entry] + doc["response"][r + 1:])


MALFORMED = [
    pytest.param(lambda doc: doc["family"], "JSON object", id="top-level-list"),
    pytest.param(lambda doc: dict(doc, family=7), "wrong type", id="family-not-list"),
    pytest.param(lambda doc: _replace_entry(doc, 0, 5),
                 "response entry 0 is not a list of 3 integers", id="moves-not-list"),
    pytest.param(lambda doc: dict(doc, response=doc["response"] + doc["response"][:1]),
                 "'response' has 21 entries, expected 4 members x 5 vertices = 20",
                 id="duplicate-response"),
    pytest.param(lambda doc: dict(doc, vertices=["zz"] + doc["vertices"][1:]),
                 "unknown vertex label 'zz'", id="unknown-label"),
    pytest.param(lambda doc: dict(doc, vertices=[doc["vertices"][:1]] + doc["vertices"][1:]),
                 "certificate document has a field of the wrong type: unhashable type: 'list'",
                 id="label-array"),
    pytest.param(lambda doc: _replace_entry(doc, 0, [0, 0.9, 0]),
                 "response entry 0 holds a non-integer", id="post-float"),
    pytest.param(lambda doc: dict(doc, k=2.7), "'k' must be an integer", id="k-float"),
    pytest.param(lambda doc: _replace_entry(doc, 0, ["3", 0, 1]),
                 "response entry 0 holds a non-integer", id="next-string"),
    pytest.param(lambda doc: dict(doc, k=True), "'k' must be an integer", id="k-bool"),
    pytest.param(lambda doc: {key: value for key, value in doc.items() if key != "format"},
                 "format None is not supported", id="format-missing"),
    pytest.param(lambda doc: {"k": doc["k"], "q": doc["q"], "family": doc["family"],
                              "response": [{"state": 0, "attack": doc["vertices"][0],
                                            "next": 0, "moves": [["0", "2"], ["2", "0"]]}]},
                 "format None is not supported", id="old-format"),
    pytest.param(lambda doc: dict(doc, format=True), "format True is not supported",
                 id="format-bool"),
    pytest.param(lambda doc: dict(doc, vertices=doc["vertices"][:1] + doc["vertices"][:-1]),
                 "'vertices' must list each of the graph's 5 labels exactly once",
                 id="vertices-repeated"),
    pytest.param(lambda doc: dict(doc, vertices=doc["vertices"][:-1]),
                 "'vertices' must list each of the graph's 5 labels exactly once",
                 id="vertices-short"),
    pytest.param(lambda doc: dict(doc, response=doc["response"][:-1]),
                 "'response' has 19 entries, expected 4 members x 5 vertices = 20",
                 id="last-entry-popped"),
    pytest.param(lambda doc: _replace_entry(doc, 7, [0, 1]),
                 "response entry 7 is not a list of 3", id="entry-short"),
    pytest.param(lambda doc: _replace_entry(doc, 7, [0, 1, True]),
                 "response entry 7 holds a non-integer", id="post-bool"),
    pytest.param(lambda doc: _replace_entry(doc, 7, [-1, 0, 1]),
                 "response entry 7 names next -1, outside a family of 4", id="next-negative"),
    pytest.param(lambda doc: _replace_entry(doc, 7, [4, 0, 1]),
                 "response entry 7 names next 4, outside a family of 4",
                 id="next-past-family"),
    pytest.param(lambda doc: _replace_entry(doc, 7, [0, 0, 2]),
                 "response entry 7 names post 2, outside 2 guards", id="post-past-q"),
    pytest.param(lambda doc: dict(doc, family=doc["family"][:1] + [doc["family"][1][:1]]
                                  + doc["family"][2:]),
                 "family member 1 lists 1 posts, expected q=2", id="member-short"),
    # Strings and objects iterate, so each of these read as P5's own
    # certificate until arrays were required.
    pytest.param(lambda doc: dict(doc, vertices="".join(doc["vertices"])),
                 "'vertices' must be an array, not '01234'", id="vertices-string"),
    pytest.param(lambda doc: dict(doc, vertices={v: i for i, v in enumerate(doc["vertices"])}),
                 "'vertices' must be an array", id="vertices-object"),
    pytest.param(lambda doc: dict(doc, family=["".join(doc["family"][0])] + doc["family"][1:]),
                 "family member 0 must be an array, not '02'", id="member-string"),
    pytest.param(lambda doc: dict(doc, family=[dict.fromkeys(doc["family"][0], 0)]
                                  + doc["family"][1:]),
                 "family member 0 must be an array, not {'0': 0, '2': 0}", id="member-object"),
]

# Faults against the format's structural rules, which the reader and the
# verifier share.
STRUCTURAL = {"moves-not-list", "duplicate-response", "post-float", "next-string",
              "last-entry-popped", "entry-short", "post-bool", "next-negative",
              "next-past-family", "post-past-q", "member-short"}


@pytest.mark.parametrize("mutate,reason", MALFORMED)
def test_verify_rejects_malformed_certificate(tmp_path, capsys, mutate, reason):
    graph_file, cert_file, doc = _write_p5_certificate(tmp_path, capsys)
    assert (doc["format"], doc["q"], len(doc["family"]), len(doc["vertices"])) == (2, 2, 4, 5)
    cert_file.write_text(json.dumps(mutate(doc)))
    code, out, _ = run(capsys, "verify", str(cert_file), str(graph_file))
    assert code == 3 and "rejected" in out and reason in out


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"format": 2, "k": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["top-level", "in-field"])
def test_verify_reports_deeply_nested_json_as_unparseable(tmp_path, capsys, text):
    # Nesting past the recursion limit is an unparseable file, not a crash.
    graph_file, cert_file, _ = _write_p5_certificate(tmp_path, capsys)
    cert_file.write_text(text)
    code, out, err = run(capsys, "verify", str(cert_file), str(graph_file))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


UNPARSEABLE = {
    "empty": "",
    "whitespace": " \n\t\r",
    "bom": "\ufeff{}",
    "truncated": '{"format": 2, "k": [1, ',
    "trailing": '{"format": 2} {}',
    "control": '{"k": "a\x01b"}',
    "delimiter": '{"k" 2}',
}


@pytest.mark.parametrize("text", UNPARSEABLE.values(), ids=UNPARSEABLE)
def test_verify_reports_unparseable_json_in_jsons_words(tmp_path, capsys, text):
    # A fresh process, which has not loaded the json package when the
    # reader fails, prints json's own message (for the text as read back,
    # with its newlines translated).
    graph_file, cert_file, _ = _write_p5_certificate(tmp_path, capsys)
    cert_file.write_text(text, encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(cert_file.read_text(encoding="utf-8"))
    done = subprocess.run([sys.executable, "-m", "ekdom.cli", "verify", str(cert_file),
                           str(graph_file)], capture_output=True, text=True,
                          env=_process_env(), timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {expected.value}\n")


# Any JSON value: text with control characters, lone surrogates and
# non-ASCII letters, and NaN and the infinities among the floats.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12)
_SPACE = st.text(" \t\n\r", max_size=3)


def _decoded(loads, text):
    """The value ``loads`` reads (its repr, so that NaN equals NaN), or the
    message and position of the JSONDecodeError it raises."""
    try:
        return repr(loads(text))
    except json.JSONDecodeError as exc:
        return type(exc), str(exc), exc.pos


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_VALUES)
def test_codec_writes_what_json_writes(value):
    assert _dumps(value) == json.dumps(value)
    assert _dumps(value, separators=(",", ":")) == json.dumps(value, separators=(",", ":"))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_VALUES, st.booleans(), _SPACE, _SPACE)
def test_codec_reads_what_json_reads(value, ascii_only, lead, trail):
    text = lead + json.dumps(value, ensure_ascii=ascii_only) + trail
    assert _decoded(_loads, text) == _decoded(json.loads, text)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_VALUES, _VALUES, st.sampled_from(["bom", "truncated", "trailing", "control"]),
       _SPACE, st.characters(max_codepoint=0x1f), st.data())
def test_codec_fails_where_json_fails(value, other, fault, space, control, data):
    text = json.dumps(value, ensure_ascii=False)
    if fault == "bom":
        text = "\ufeff" + text
    elif fault == "truncated":
        text = space + text[:data.draw(st.integers(0, len(text) - 1))]
    elif fault == "trailing":
        text = text + space + json.dumps(other)
    else:  # a raw control character inside a string
        cut = data.draw(st.integers(1, len(text)))
        text = json.dumps(text[:cut])[:-1] + control + json.dumps(text[cut:])[1:]
    assert _decoded(_loads, text) == _decoded(json.loads, text)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.text(st.sampled_from("0189.\n-e \u0663\u00b2"), max_size=5))
def test_negative_numbers_are_argparses(rest):
    assert _negative("-" + rest) == bool(re.match(r"^-\d+$|^-\d*\.\d+$", "-" + rest))


@pytest.mark.parametrize("mutate,reason", [p for p in MALFORMED if p.id in STRUCTURAL])
def test_verifier_rejects_structural_faults_in_the_readers_words(tmp_path, capsys,
                                                                 mutate, reason):
    # The same fault, put into a decoded certificate in memory.
    graph_file, _, doc = _write_p5_certificate(tmp_path, capsys)
    g = parse_graph(graph_file.read_text())
    broken = mutate(doc)
    with pytest.raises(ValueError) as exc:
        certificate_from_json(broken, g)
    cert = certificate_from_json(doc, g)._replace(
        family=tuple(tuple(map(g.id_of, member)) for member in broken["family"]),
        rows=broken["response"])
    ok, violation = verify_certificate(g, cert)
    assert not ok and violation.reason == str(exc.value)
    assert reason in violation.reason


def test_verify_checks_the_structure_once(tmp_path, capsys, monkeypatch):
    # The reader applies the structural rules, and `ekdom verify` runs only
    # the checker's later stages on what it returns.
    import ekdom.certificate

    graph_file, cert_file, _ = _write_p5_certificate(tmp_path, capsys)
    calls = []
    check = ekdom.certificate._structure_fault
    monkeypatch.setattr(ekdom.certificate, "_structure_fault",
                        lambda *args: calls.append(args) or check(*args))
    code, out, _ = run(capsys, "verify", str(cert_file), str(graph_file))
    assert code == 0 and out.startswith("certificate ok") and len(calls) == 1


@pytest.mark.parametrize("fields", [{"k": 0}, {"q": 0, "family": [], "response": []},
                                    {"q": -1, "family": [], "response": []}],
                         ids=["k-zero", "q-zero", "q-minus-one"])
def test_verify_refuses_a_non_positive_q_or_k(tmp_path, capsys, fields):
    # Structurally sound (an empty family has no rows), so the checker's
    # first later stage reports it, in memory as on the command line.
    graph_file, cert_file, doc = _write_p5_certificate(tmp_path, capsys)
    cert_file.write_text(json.dumps(dict(doc, **fields)))
    code, out, _ = run(capsys, "verify", str(cert_file), str(graph_file))
    assert code == 3 and out == ("certificate invalid: state=None attack=None "
                                 "(q and k must be positive)\n")
    g = parse_graph(graph_file.read_text())
    cert = certificate_from_json(dict(doc, **fields), g)
    assert verify_certificate(g, cert)[1].reason == "q and k must be positive"


@pytest.mark.parametrize("argv", [
    ["eternal", "g.edges"],
    ["eternal", "-k", "x", "g.edges"],
    ["eternal", "-k", "2", "g.edges", "--max-states", "-1"],
    ["bounds", "-k", "2", "g.edges", "--max-states", "-5"],
    ["eternal", "-k", "2", "g.edges", "--qmax", "0"],
], ids=["missing-k", "k-not-int", "negative-budget", "negative-budget-bounds", "qmax-zero"])
def test_usage_errors_exit_with_parse_code(capsys, argv):
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


_KERNEL = {"ekdom._kernel", "ekdom._kernel._ckernel" if _ckernel else "ekdom._kernel.pure"}
_SOLVER = {"ekdom.solver", "ekdom.certificate", "ekdom.configs", "ekdom.domination", *_KERNEL}
# Each subcommand, in an order that writes the certificate before verify
# reads it, with the ekdom modules it runs besides cli and graph.
SUBCOMMAND_MODULES = {
    "eternal": (["eternal", "-k", "2", "{graph}", "--certificate", "{cert}"], _SOLVER),
    "verify": (["verify", "{cert}", "{graph}"], {"ekdom.certificate"}),
    "gamma": (["gamma", "-k", "1", "{graph}"], {"ekdom.domination"}),
    "reduce": (["reduce", "-k", "1", "{graph}"], {"ekdom.domination", "ekdom.reductions"}),
    "closed-form": (["closed-form", "mary", "2", "3", "2"],
                    {"ekdom.closed_forms", "ekdom.mary"}),
    "power-check": (["power-check", "-k", "1", "{graph}"],
                    _SOLVER | {"ekdom.bounds", "ekdom.reductions"}),
    "bounds": (["bounds", "-k", "1", "{graph}"], _SOLVER | {"ekdom.bounds", "ekdom.reductions"}),
    "gen": (["gen", "mary", "2", "3"], {"ekdom.closed_forms", "ekdom.mary"}),
}
# Stdlib modules no subcommand may load: dataclasses and the inspect, ast,
# dis and tokenize modules it pulls in, and argparse with the gettext and
# locale modules its messages load.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "locale")
# Loaded only where named: json by reduce, whose indented output needs the
# package's Python encoder, and __future__ by none.
SOMETIMES = ("array", "json", "__future__")


def _loaded_after(code, *flags):
    """The last line a fresh interpreter started with ``flags`` prints
    running ``code``."""
    src = str(Path(ekdom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    return done.stdout.splitlines()[-1]


def test_cli_import_leaves_other_subcommands_modules_out(tmp_path):
    # Every subcommand, each in a fresh interpreter on a small input, loads
    # the ekdom modules it runs and none of the heavy stdlib ones.  A
    # subcommand that does not solve loads no array either: a verify
    # process runs none of the code it checks.  Only reduce loads json,
    # and none loads __future__.  Under -S, where no site module has
    # loaded typing before ekdom starts, none loads typing either.
    graph_file = tmp_path / "p5.edges"
    graph_file.write_text("".join(f"{i} {i + 1}\n" for i in range(4)))
    names = {"graph": str(graph_file), "cert": str(tmp_path / "cert.json")}
    for command, (argv, modules) in SUBCOMMAND_MODULES.items():
        argv = [a.format(**names) for a in argv]
        expected = sorted({"ekdom.cli", "ekdom.graph", *modules}
                          | ({"array"} if "ekdom._kernel" in modules else set())
                          | ({"json"} if command == "reduce" else set()))
        for flags, watched in (((), HEAVY + SOMETIMES), (("-S",), HEAVY + SOMETIMES + ("typing",))):
            code = ("import contextlib, io, sys, ekdom.cli\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    code = ekdom.cli.main({argv!r})\n"
                    f"print(code, sorted(m for m in sys.modules if m.startswith('ekdom.') or "
                    f"m in {watched!r}))")
            assert _loaded_after(code, *flags) == f"0 {expected}", (command, flags)

    # The checker module on its own loads only the graph module, and the
    # pure kernel twin nothing of ekdom but the package and the kernel layer.
    code = ("import sys, ekdom.certificate; "
            "print(sorted(m for m in sys.modules if m.startswith('ekdom.')))")
    assert _loaded_after(code) == "['ekdom.certificate', 'ekdom.graph']"
    code = ("import sys, ekdom._kernel.pure; "
            "print(sorted(m for m in sys.modules if m.startswith('ekdom')))")
    assert _loaded_after(code) == str(sorted({"ekdom", "ekdom._kernel.pure", *_KERNEL}))


def _outcome(parse, argv):
    """vars() of the parsed namespace, or ("exit", code) for a usage error."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return ("exit", exc.code)


ARGV = [
    # every subcommand
    ["gamma", "-k", "2", "g.edges"],
    ["gamma", "-k", "2", "g.edges", "--json"],
    ["eternal", "-k", "2", "g.edges"],
    ["verify", "c.json", "g.edges"],
    ["reduce", "-k", "1", "t.edges"],
    ["closed-form", "path", "9", "2"],
    ["closed-form", "mary", "2", "5", "2"],
    ["power-check", "-k", "2", "g.edges", "--max-states", "10"],
    ["bounds", "--json", "-k", "2", "g.edges"],
    ["gen", "path", "5"],
    ["gen", "spider", "2", "2", "2", "--dot"],
    # the accepted forms
    ["eternal", "-k2", "g.edges"],
    ["eternal", "-k=2", "g.edges"],
    ["eternal", "g.edges", "-k", "2"],
    ["eternal", "-k", "2", "g.edges", "--certificate", "c.json", "--json",
     "--max-states", "100", "--qmax", "3"],
    ["eternal", "-k", "2", "g.edges", "--certificate=c.json", "--max-states=100",
     "--qmax=3"],
    ["eternal", "-k", "2", "g.edges", "--cert", "c.json", "--max", "7", "--js"],
    ["eternal", "--qm", "2", "-k", "1", "-"],
    ["eternal", "-k", "-2", "g.edges"],
    ["eternal", "-k", "2", "--max-states", "-0", "g.edges"],
    ["eternal", "-k", "2", "g.edges", "--certificate", "-"],
    ["eternal", "-k", "2", "g.edges", "--certificate", "a.json", "--certificate", "b.json"],
    ["verify", "c.json", "-"],
    ["gen", "path", "-3"],
    ["gen", "--dot", "mary", "2", "3"],
    ["gen", "path", "--dot", "4"],
    ["eternal", "-k", "2", "--", "-x.edges"],
    ["gen", "--", "path", "-3"],
    ["eternal", "-k", "2", "g.edges", "--"],
    # usage errors
    ["eternal", "g.edges"],
    ["eternal", "-k", "x", "g.edges"],
    ["eternal", "-k", "2", "g.edges", "--max-states", "-1"],
    ["eternal", "-k", "2", "g.edges", "--max-states", "1.5"],
    ["bounds", "-k", "2", "g.edges", "--max-states", "-5"],
    ["eternal", "-k", "2", "g.edges", "--qmax", "0"],
    ["eternal", "-k", "2", "g.edges", "--qmax", "-1"],
    ["eternal", "-k", "2", "g.edges", "--bogus"],
    ["eternal", "-k", "2", "g.edges", "-x"],
    ["eternal", "-k"],
    ["eternal", "-k", "--json", "g.edges"],
    ["eternal", "-k", "2", "g.edges", "--certificate"],
    ["eternal", "-k", "2", "g.edges", "--json=yes"],
    ["gamma", "-k", "2", "g.edges", "--max-states", "5"],
    ["reduce", "-k", "1", "--json", "t.edges"],
    ["gamma", "-k", "2", "a.edges", "b.edges"],
    ["verify", "c.json"],
    ["verify", "c.json", "g.edges", "h.edges"],
    ["nope", "g.edges"],
    [],
    ["-k", "2", "eternal", "g.edges"],
    ["eternal", "--", "-k", "2"],
    ["gen", "tree", "3"],
    ["closed-form", "spider", "3"],
    ["gen", "path"],
    ["gen", "path", "x"],
    # what argparse reads as a negative number, and what it does not
    ["eternal", "-k", "-.5", "g.edges"],
    ["gen", "path", "-1."],
    ["eternal", "-k", "-1\n", "g.edges"],
    ["gen", "path", "-\u0663"],
    ["eternal", "-k", "-1e3", "g.edges"],
]


@pytest.mark.parametrize("argv", ARGV, ids=[" ".join(a) or "empty" for a in ARGV])
def test_parser_matches_the_argparse_reference(capsys, argv):
    expected = _outcome(reference_parser().parse_args, argv)
    assert expected != ("exit", 0)
    capsys.readouterr()
    assert _outcome(_parse, argv) == expected
    if expected == ("exit", 1):
        err = capsys.readouterr().err
        assert err.startswith("usage: ekdom") and "error: " in err


def test_help_names_every_subcommand_and_option(capsys):
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    for command in ("gamma", "eternal", "verify", "reduce", "closed-form", "power-check",
                    "bounds", "gen"):
        assert command in out
    assert main(["eternal", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ekdom eternal [-h] -k K")
    for name in ("-k", "--max-states", "--qmax", "--certificate", "--json", "file"):
        assert f"\n  {name}" in out


def test_unwritable_certificate_path_fails_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved although the certificate cannot be written")

    monkeypatch.setattr("ekdom.solver.eternal_number", no_solve)
    graph_file = tmp_path / "s.edges"
    graph_file.write_text("a b\nb c\n")
    code, out, err = run(capsys, "eternal", "-k", "1", str(graph_file),
                         "--certificate", str(tmp_path / "missing" / "x.json"))
    assert code == 1 and out == "" and err.startswith("error: ")


def test_certificate_path_is_left_as_found_when_no_certificate_comes_out(
        tmp_path, capsys, monkeypatch):
    graph_file, cert_file = tmp_path / "p9.edges", tmp_path / "cert.json"
    graph_file.write_text("".join(f"{i} {i + 1}\n" for i in range(8)))
    argv = ["eternal", "-k", "2", str(graph_file), "--qmax", "2",
            "--certificate", str(cert_file)]
    code, _, err = run(capsys, *argv)
    assert code == 0 and "no certificate" in err and not cert_file.exists()
    cert_file.write_text("kept")  # opened for appending, never truncated
    run(capsys, *argv)
    assert cert_file.read_text() == "kept"

    def budget_trip(*args, **kwargs):
        raise BudgetExceededError("tripped")

    cert_file.unlink()
    monkeypatch.setattr("ekdom.solver.eternal_number", budget_trip)
    code, _, _ = run(capsys, *argv)
    assert code == 2 and not cert_file.exists()


def _shuffled_edge_list(g, rng):
    """g as an edge-list document under shuffled labels, edges and endpoints."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
             for u, v in g.edges()]
    rng.shuffle(edges)
    return "".join(f"{u} {v}\n" for u, v in edges)


@pytest.mark.parametrize("g,k", [
    (path_graph(12), 1),
    (spider_graph([3, 3, 3]), 1),
    (build_perfect_mary(3, 3), 3),
], ids=["P12-k1", "S333-k1", "T33-k3"])
def test_pure_fallback_cli_matches_the_active_kernel(tmp_path, g, k):
    # Two fresh interpreters run `eternal --json --certificate`: one with the
    # extension hidden, so the kernel layer falls back to the pure twin, and
    # one with whichever kernel imports.  Only the reported kernel may differ.
    graph_file = tmp_path / "g.edges"
    graph_file.write_text(_shuffled_edge_list(g, random.Random(f"{DEFAULT_SEED}:{g.n}")))
    src = str(Path(ekdom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    outputs, certs = [], []
    for hide in ("sys.modules['ekdom._kernel._ckernel'] = None; ", ""):
        cert_file = tmp_path / f"cert{len(certs)}.json"
        code = (f"import sys; {hide}import ekdom.cli; "
                "sys.exit(ekdom.cli.main(sys.argv[1:]))")
        done = subprocess.run([sys.executable, "-c", code, "eternal", "-k", str(k),
                               str(graph_file), "--json", "--certificate", str(cert_file)],
                              capture_output=True, text=True, env=env, check=True,
                              timeout=120)
        outputs.append(json.loads(done.stdout))
        certs.append(cert_file.read_bytes())
    pure, active = outputs
    assert pure.pop("kernel") == "pure"
    assert active.pop("kernel") == ("pure" if _ckernel is None else "compiled")
    assert pure == active and pure["certificate"] is not None
    assert certs[0] == certs[1]


# `python -m ekdom.cli` (what the e2e benchmark times) and the `ekdom` script
# end through cli.run()'s flush and os._exit; TEARDOWN_ENTRY keeps the
# interpreter's teardown.  Both must print the same bytes and exit alike.
TEARDOWN_ENTRY = "import sys, ekdom.cli; sys.exit(ekdom.cli.main(sys.argv[1:]))"
ENTRIES = {"module": ["-m", "ekdom.cli"], "teardown": ["-c", TEARDOWN_ENTRY]}


def _process_env():
    """ekdom on the path, and PYTHONUNBUFFERED unset: an unbuffered stdout
    would hide a write that was never flushed."""
    src = str(Path(ekdom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    return env


PROCESS_CASES = {
    "eternal-json-certificate": (["eternal", "-k", "2", "{graph}", "--json",
                                  "--certificate", "{out}"], 0),
    "eternal-text": (["eternal", "-k", "2", "{graph}"], 0),
    "budget": (["eternal", "-k", "2", "{graph}", "--max-states", "10"], 2),
    "verify-ok": (["verify", "{good}", "{graph}"], 0),
    "verify-tampered": (["verify", "{bad}", "{graph}"], 3),
    "usage-error": (["eternal", "{graph}"], 1),
    "gen-pipe": (["gen", "path", "200000"], 0),
}


@pytest.mark.parametrize("case", PROCESS_CASES)
def test_module_entry_matches_the_teardown_exit(tmp_path, capsys, case):
    graph_file, good, doc = _write_p5_certificate(tmp_path, capsys)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_replace_entry(doc, 0, [99] + doc["response"][0][1:])))
    out_file = tmp_path / "out.json"
    argv_template, expected_code = PROCESS_CASES[case]
    argv = [a.format(graph=graph_file, good=good, bad=bad, out=out_file)
            for a in argv_template]
    seen = {}
    for name, entry in ENTRIES.items():
        out_file.unlink(missing_ok=True)
        done = subprocess.run([sys.executable, *entry, *argv], capture_output=True,
                              env=_process_env(), cwd=tmp_path, timeout=120)
        written = out_file.read_bytes() if out_file.exists() else None
        seen[name] = (done.returncode, done.stdout, done.stderr, written)
    assert seen["module"] == seen["teardown"]
    code, stdout, _, written = seen["module"]
    assert code == expected_code
    if case == "eternal-json-certificate":
        assert json.loads(stdout)["gamma_eternal"] == 2 and written
    if case == "gen-pipe":
        assert len(stdout) > 64 * 1024  # more than a pipe holds


def _into_closed_pipe(entry, argv, read_first, env=None):
    """Run an entry with stdout a real pipe whose reader closes it, having
    read up to ``read_first`` bytes (0: before the process starts)."""
    read_end, write_end = os.pipe()
    if not read_first:
        os.close(read_end)
    with os.fdopen(write_end, "wb") as stdout:
        proc = subprocess.Popen([sys.executable, *ENTRIES[entry], *argv], stdout=stdout,
                                stderr=subprocess.PIPE, env=env or _process_env())
    head = b""
    if read_first:
        head = os.read(read_end, read_first)
        os.close(read_end)
    _, stderr = proc.communicate(timeout=120)
    return proc.returncode, stderr, head


@pytest.mark.parametrize("entry", ENTRIES)
def test_closed_pipe_ends_quietly(entry):
    # `ekdom gen path 200000 | head -c 10`: the write that finds the pipe
    # closed is not a usage error.  The process ends without a word and
    # with 141, the status a shell gives a filter killed by SIGPIPE.
    code, stderr, head = _into_closed_pipe(entry, ["gen", "path", "200000"], 10)
    assert (code, stderr) == (141, b"")
    assert b"# 200000 v".startswith(head) and head


def test_closed_pipe_ends_quietly_when_unbuffered():
    # An unbuffered stdout hands the whole output to one raw write, whose
    # short count when the reader leaves used to pass unnoticed (exit 0).
    env = dict(_process_env(), PYTHONUNBUFFERED="1")
    code, stderr, head = _into_closed_pipe("module", ["gen", "path", "200000"], 10, env)
    assert (code, stderr) == (141, b"")
    assert b"# 200000 v".startswith(head) and head


@pytest.mark.parametrize("entry, unbuffered", [
    ("module", True), ("teardown", True), ("module", False)],
    ids=["module", "teardown", "module-buffered"])
@pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"]], ids=["help", "verify-help"])
def test_closed_pipe_during_help_ends_quietly(entry, unbuffered, argv):
    # `PYTHONUNBUFFERED=1 ekdom verify -h | head -1`: the help text meets
    # the closed pipe while the command line is still being read, which
    # used to end in a BrokenPipeError traceback and exit 1.  Buffered, it
    # meets it at run()'s last flush, which the help used to skip (exit
    # 120 and an "Exception ignored" report).  The teardown entry keeps
    # the interpreter's exit, so only its unbuffered write is ekdom's.
    env = dict(_process_env(), PYTHONUNBUFFERED="1") if unbuffered else None
    assert _into_closed_pipe(entry, argv, 0, env)[:2] == (141, b"")


def test_closed_pipe_at_the_last_flush_ends_quietly():
    # A short output meets the closed pipe only at run()'s last flush,
    # which ends the same way rather than with the interpreter's report.
    assert _into_closed_pipe("module", ["gen", "path", "20"], 0)[:2] == (141, b"")


def test_console_script_ends_through_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(ekdom.__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("ekdom is not imported from a source checkout")
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"ekdom": "ekdom.cli:run"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_flush_keeps_the_interpreters_report(tmp_path):
    # A full device fails the last flush: the fast exit falls back to the
    # interpreter's own, which reports it once and exits 120.
    graph_file = tmp_path / "p5.edges"
    graph_file.write_text("".join(f"{i} {i + 1}\n" for i in range(4)))
    seen = {}
    for name, entry in ENTRIES.items():
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, *entry, "eternal", "-k", "2",
                                   str(graph_file)], stdout=full, stderr=subprocess.PIPE,
                                  env=_process_env(), timeout=60)
        seen[name] = (done.returncode, done.stderr)
    assert seen["module"] == seen["teardown"]
    code, stderr = seen["module"]
    assert code == 120
    assert stderr.count(b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'") == 1
    assert b"Traceback" not in stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_unbuffered_write_is_reported_once(tmp_path):
    # Unbuffered, the write in main() fails and is reported there, once;
    # nothing is left for the last flush to fail on.
    graph_file = tmp_path / "p5.edges"
    graph_file.write_text("".join(f"{i} {i + 1}\n" for i in range(4)))
    seen = {}
    for name, entry in ENTRIES.items():
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, *entry, "eternal", "-k", "2",
                                   str(graph_file)], stdout=full, stderr=subprocess.PIPE,
                                  env=dict(_process_env(), PYTHONUNBUFFERED="1"), timeout=60)
        seen[name] = (done.returncode, done.stderr)
    assert seen["module"] == seen["teardown"]
    code, stderr = seen["module"]
    assert code == 1 and stderr.startswith(b"error: ") and stderr.count(b"\n") == 1


def test_subcommands_register_no_exit_hooks(tmp_path):
    # cli.run() ends with os._exit, which skips atexit handlers and the
    # finalizers weakref.finalize runs through atexit.  A fresh interpreter
    # counts them before importing ekdom, so a stdlib module that a
    # subcommand loads and that registers one is caught as well.
    graph_file, cert_file = tmp_path / "p5.edges", tmp_path / "cert.json"
    graph_file.write_text("".join(f"{i} {i + 1}\n" for i in range(4)))
    g, c = str(graph_file), str(cert_file)
    argvs = [["eternal", "-k", "2", g, "--certificate", c], ["verify", c, g],
             ["gamma", "-k", "1", g], ["bounds", "-k", "1", g], ["reduce", "-k", "1", g],
             ["power-check", "-k", "1", g], ["closed-form", "mary", "2", "3", "2"],
             ["gen", "spider", "2", "2"]]
    code = ("import atexit; before = atexit._ncallbacks(); import ekdom.cli; "
            f"codes = [ekdom.cli.main(argv) for argv in {argvs!r}]; "
            "print('exit hooks', codes, before, atexit._ncallbacks())")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_process_env(), check=True, timeout=120)
    line = next(line for line in done.stdout.splitlines() if line.startswith("exit hooks"))
    codes, before, after = line.removeprefix("exit hooks ").rsplit(" ", 2)
    assert codes == str([0] * len(argvs))
    assert after == before
