"""Defense certificates: the format, its JSON form and the checker.

A certificate is a family of configurations plus, for every (family
member, attacked vertex) pair, one row naming a successor member that
contains the attack and the post each guard walks to.  The solver builds
certificates (``solver._solve_q``); this module reads, writes and checks
them, and imports nothing else from ekdom but ``graph``, so ``ekdom
verify`` runs without the solver, the kernels, ``configs`` or
``domination``.  The checker grows its own radius-k balls from the
adjacency lists and tests the rows a column at a time with multiset
arithmetic, so prover and checker are independent routes to the same
claim.
"""
from itertools import chain, compress, cycle, repeat
from operator import contains, getitem, itemgetter
from typing import NamedTuple

from .graph import Graph

CERTIFICATE_FORMAT = 2  # the one JSON layout certificate_from_json reads


class EternalCertificate(NamedTuple):
    """Explicit defense strategy at guard count q.

    ``family`` lists the members as sorted posts.  ``rows[i * n + v]``
    answers an attack at vertex v on member i, for a graph of n
    vertices: it is ``[next, t_1, ..., t_q]``, and guard p of member i
    (its p-th post) walks to the vertex at post ``t_p`` of
    ``family[next]``.  These are the rows of the JSON ``response`` field.

    A solved certificate is shared: the solve cache keeps it, every
    caller of that guard count gets the same object, and
    ``certificate_to_json``'s document holds its row list.  Derive a
    variant with ``_replace`` and new lists; never edit rows in place.
    """
    k: int
    q: int
    family: tuple[tuple[int, ...], ...]
    rows: list


class CertificateViolation(NamedTuple):
    state: int | None
    attack: str | None
    reason: str


def _balls(g: Graph, k: int) -> list[int]:
    """Bitmask of the closed radius-k ball of every vertex.

    Each round grows every ball by one hop, the union of its neighbours'
    balls, for at most k rounds; a round that changes nothing ends the
    growth early (k at or past every component's diameter).
    """
    balls = [1 << u for u in range(g.n)]
    for _ in range(k):
        grown = [ball | _union(balls, nbrs) for ball, nbrs in zip(balls, g.adj)]
        if grown == balls:
            break
        balls = grown
    return balls


def _union(balls: list[int], vertices) -> int:
    """The union of the balls of ``vertices`` (0 for none)."""
    covered = 0
    for u in vertices:
        covered |= balls[u]
    return covered


def verify_certificate(g: Graph, cert: EternalCertificate
                       ) -> tuple[bool, CertificateViolation | None]:
    """Re-derive every certificate invariant from scratch.

    Uses only the adjacency lists and multiset comparisons (never the
    solver or the kernels).  Checks run in stages: the format's
    structural rules (``_structure_fault``), which the JSON reader
    applies too, then the strategy (``_strategy_violation``).  Each stage
    reports its first violation in (member index, vertex id) scan order.
    Violations are return values, not exceptions.
    """
    fault = _structure_fault(cert.family, cert.rows, cert.q, g.n)
    if fault is not None:
        return _violation(g, *fault)
    return _strategy_violation(g, cert)


def _violation(g: Graph, state: int | None, attack_id: int | None, reason: str
               ) -> tuple[bool, CertificateViolation]:
    attack = g.labels[attack_id] if attack_id is not None else None
    return False, CertificateViolation(state, attack, reason)


def _strategy_violation(g: Graph, cert: EternalCertificate
                        ) -> tuple[bool, CertificateViolation | None]:
    """``verify_certificate``'s stages after the structural rules, for a
    certificate that passes them (``ekdom verify`` runs it on what the
    reader returns, which checked them).

    First q, k and the family: q and k positive, the family not empty,
    and each member in range, sorted and tested against radius-k balls
    grown once.  Then the rows, tested a column at a time
    (``_rows_pass``) and scanned one by one only to locate a fault
    (``_row_fault``).
    """
    n, q, k, family, rows = g.n, cert.q, cert.k, cert.family, cert.rows
    if q < 1 or k < 1:
        return _violation(g, None, None, "q and k must be positive")
    if not family:
        return _violation(g, None, None, "empty family")
    balls = _balls(g, k)
    full = (1 << n) - 1
    for i, member in enumerate(family):
        if any(not (0 <= u < n) for u in member):
            return _violation(g, i, None, f"member {i} names a vertex out of range")
        if tuple(sorted(member)) != tuple(member):
            return _violation(g, i, None, f"member {i} is not in canonical sorted form")
        if _union(balls, member) != full:
            return _violation(g, i, None, f"member {i} is not distance-{k} dominating")
    if _rows_pass(family, rows, q, n, balls):
        return True, None
    return _violation(g, *_row_fault(family, rows, k, n, balls))


def _rows_pass(family, rows: list, q: int, n: int, balls: list[int]) -> bool:
    """Whether every row of a structurally sound certificate with valid
    members passes, tested a column at a time at C speed.

    The attack must lie in the successor, and guard p's target in the
    ball of its source, both looked up row by row in whole columns.  The
    successor multiset is tested once per distinct row whose posts are
    not a permutation of ``range(q)``: guards sent to distinct posts of a
    successor always fill it.
    """
    nexts = list(map(itemgetter(0), rows))
    succs = [family[j] for j in nexts]
    if not all(map(contains, succs, cycle(range(n)))):
        return False
    # reach[a][b] is "1" when b lies in the ball of a, else "0".
    reach = [format(ball, f"0{n}b")[::-1] for ball in balls]
    for p in range(q):
        sources = chain.from_iterable(
            map(repeat, [reach[member[p]] for member in family], repeat(n)))
        targets = map(getitem, succs, map(itemgetter(p + 1), rows))
        if "0" in map(getitem, sources, targets):
            return False
    distinct = list(set(map(tuple, rows)))
    posts = list(map(itemgetter(slice(1, None)), distinct))
    partial = {t for t in set(posts) if len(set(t)) < q}
    for j, *t in compress(distinct, map(partial.__contains__, posts)):
        succ = family[j]
        if tuple(sorted(succ[p] for p in t)) != succ:
            return False
    return True


def _row_fault(family, rows: list, k: int, n: int, balls: list[int]
               ) -> tuple[int, int, str]:
    """The first failing row in (member, attack) scan order, as
    ``(member, attack, reason)``, one row at a time; run only once
    ``_rows_pass`` has found that some row fails.  Within a row, a long
    move (the first guard's first) comes before a wrong successor
    multiset, which comes before an unoccupied attack."""
    for i, member in enumerate(family):
        for v in range(n):
            row = rows[i * n + v]
            succ = family[row[0]]
            targets = [succ[t] for t in row[1:]]
            for a, b in zip(member, targets):
                if not balls[a] >> b & 1:
                    return i, v, f"move {a}->{b} longer than k={k}"
            if tuple(sorted(targets)) != succ:
                return i, v, "move targets do not match the successor"
            if v not in succ:
                return i, v, "successor does not occupy the attacked vertex"


def certificate_to_json(cert: EternalCertificate, g: Graph) -> dict:
    """External JSON form (format 2, labels for vertices); see the CLI.

    ``vertices`` lists every label once and fixes the order of attacks;
    ``family`` lists each member's posts.  ``response`` is the
    certificate's own row list, not a copy: row ``i * n + a`` is
    ``[next, t_1, ..., t_q]``, where guard p of member i (its p-th post)
    walks to the vertex at post ``t_p`` of ``family[next]``.
    """
    labels = g.labels
    return {
        "format": CERTIFICATE_FORMAT,
        "k": cert.k,
        "q": cert.q,
        "vertices": list(labels),
        "family": [[labels[u] for u in member] for member in cert.family],
        "response": cert.rows,
    }


def _json_int(obj: dict, field: str) -> int:
    """``obj[field]``, which must be a JSON integer (not a bool, float or string)."""
    value = obj[field]
    if type(value) is not int:
        raise ValueError(f"certificate field {field!r} must be an integer, "
                         f"not {value!r}")
    return value


def _array(value, name: str):
    """``value``, which must be a JSON array.

    A number, bool or null already fails when iterated; a string or an
    object would iterate as characters or keys, so it is refused here.
    """
    if isinstance(value, (str, dict)):
        raise TypeError(f"{name} must be an array, not {value!r}")
    return value


def _structure_fault(members, rows: list, q: int, n: int
                     ) -> tuple[int | None, int | None, str] | None:
    """The first fault against the certificate format's structural rules,
    as ``(member, attack, reason)``, or None.

    Every member lists q posts, there are ``len(members) * n`` rows, and
    each row is q + 1 ints (not bools) ``[next, t_1, ..., t_q]`` with
    ``next`` in ``range(len(members))`` and each ``t_p`` in ``range(q)``.
    A row fault names row r as member ``r // n`` and attack ``r % n``.
    Whole columns are tested at C speed; only rows that fail there are
    scanned one by one to locate the fault.
    """
    for i, member in enumerate(members):
        if len(member) != q:
            return i, None, f"family member {i} lists {len(member)} posts, expected q={q}"
    m = len(members)
    if len(rows) != m * n:
        return None, None, (f"'response' has {len(rows)} entries, expected "
                            f"{m} members x {n} vertices = {m * n}")
    # q + 1 is the stride of the flattened rows (an empty family may claim q = -1).
    if q >= 0 and set(map(type, rows)) <= {list} and set(map(len, rows)) <= {q + 1}:
        posts = list(chain.from_iterable(rows))
        if set(map(type, posts)) <= {int}:
            nexts = posts[::q + 1]
            del posts[::q + 1]
            if set(nexts) <= set(range(m)) and set(posts) <= set(range(q)):
                return None
    for r, row in enumerate(rows):
        if type(row) is not list or len(row) != q + 1:
            fault = f"is not a list of {q + 1} integers [next, t_1, ..., t_q]: {row!r}"
        elif any(type(x) is not int for x in row):
            fault = f"holds a non-integer: {row!r}"
        elif not 0 <= row[0] < m:
            fault = f"names next {row[0]}, outside a family of {m}"
        else:
            t = next((t for t in row[1:] if not 0 <= t < q), None)
            if t is None:
                continue
            fault = f"names post {t}, outside {q} guards"
        return r // n, r % n, f"response entry {r} {fault}"


def _relist(rows: list, ids: list[int], listed: list[list[int]],
            family: tuple[tuple[int, ...], ...]) -> list:
    """Rows whose attack a is vertex ``ids[a]`` and whose member i lists its
    posts as ``listed[i]``, rewritten to attack order by vertex id and to
    guards and posts in sorted order (``family[i]`` is ``listed[i]``
    sorted).  The reader applies it to documents, the solver to
    certificates of its relabelled graph.

    Guard p of a listed member becomes the guard at that guard's place in
    the member's stable sort, and a target post becomes the first sorted
    post on the same vertex; both permutations are built once per member.
    """
    n = len(ids)
    # post[j][t]: the first sorted post of member j on its listed post t.
    post = [[member.index(u) for u in posts] for member, posts in zip(family, listed)]
    out = [None] * len(rows)
    for i, posts in enumerate(listed):
        # The row items of member i's guards, in sorted order.
        guards = [1 + p for p in sorted(range(len(posts)), key=posts.__getitem__)]
        base = i * n
        for row, v in zip(rows[base:base + n], ids):
            to = post[row[0]]
            out[base + v] = [row[0], *[to[row[c]] for c in guards]]
    return out


def _vertex_ids(index: dict, labels: list) -> list[int]:
    """The ids ``index`` gives ``labels``, with ``Graph.id_of``'s error for
    a label the graph lacks (an unhashable one raises TypeError)."""
    try:
        return [index[label] for label in labels]
    except KeyError as exc:
        raise ValueError(f"unknown vertex label {exc.args[0]!r}") from None


def certificate_from_json(doc: dict, g: Graph) -> EternalCertificate:
    """Inverse of certificate_to_json; raises ValueError on malformed input.

    A document is malformed when it is not an object, is not format 2,
    lacks a field or has one of the wrong type (``format``, ``k`` and
    ``q`` must be JSON integers, ``vertices`` and each ``family`` member
    arrays of labels), names a label the graph lacks, does not list every
    label once in ``vertices``, or breaks the structural rules that
    ``verify_certificate`` applies too (``_structure_fault``: q posts per
    member, ``len(family) * len(vertices)`` response rows, each q + 1
    integers in range).  The validated rows become the certificate's rows
    as they are when ``vertices`` lists the graph's labels in id order and
    every member lists its posts sorted; otherwise they are rewritten to
    that order (``_relist``).  Whether their moves are short and land on
    the successor is left to ``verify_certificate``.
    """
    if not isinstance(doc, dict):
        raise ValueError("certificate document must be a JSON object")
    fmt = doc.get("format")
    if type(fmt) is not int or fmt != CERTIFICATE_FORMAT:
        raise ValueError(f"certificate format {fmt!r} is not supported; "
                         f"expected format {CERTIFICATE_FORMAT}")
    try:
        k, q = _json_int(doc, "k"), _json_int(doc, "q")
        index = {label: u for u, label in enumerate(g.labels)}
        ids = _vertex_ids(index, _array(doc["vertices"], "'vertices'"))
        if len(ids) != g.n or len(set(ids)) != g.n:
            raise ValueError(f"'vertices' must list each of the graph's {g.n} "
                             "labels exactly once")
        listed = [_vertex_ids(index, _array(member, f"family member {i}"))
                  for i, member in enumerate(_array(doc["family"], "'family'"))]
        rows = doc["response"]
        if not isinstance(rows, list):
            raise ValueError("certificate field 'response' must be a list")
        fault = _structure_fault(listed, rows, q, g.n)
        if fault is not None:
            raise ValueError(fault[2])
        family = tuple(tuple(sorted(posts)) for posts in listed)
        if ids != list(range(g.n)) or any(tuple(p) != f for p, f in zip(listed, family)):
            rows = _relist(rows, ids, listed, family)
        return EternalCertificate(k, q, family, rows)
    except KeyError as exc:
        raise ValueError(f"certificate document missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"certificate document has a field of the wrong type: {exc}") from exc
