"""The game engine: exact eternal distance-k domination numbers.

For a guard count q, the engine enumerates every size-q dominating
configuration and runs greatest-fixed-point elimination (see
``ekdom._kernel``): configurations that cannot answer some attack with a
surviving configuration are deleted until nothing changes.  The defended
number is the least q whose survivor set is non-empty; q starts at the
static domination number and Prop-style sandwich bounds cap it from
above, so the loop always terminates.

Each guard count is solved by ``_solve_q``, which caches the last
``graph.CACHE_SIZE`` solves: it runs the elimination and, for a
non-empty fixed point, builds an explicit certificate, so every public
function reads its numbers, survivor sets and certificates from that one
solve.  A certificate is a family of configurations plus, for every
(family member, attacked vertex) pair, one row naming a successor member
that contains the attack and the post each guard walks to.  The kernel
layer builds the rows (``_kernel.certificate_rows``), answering each
attack from the members found so far whenever one qualifies, so the
family stays small; ``verify_certificate`` re-checks them
from scratch using only distances and multiset arithmetic, with no
access to solver or kernel internals, so solver and verifier form
independent routes to the same claim.

State budget: each guard count gets a configurable number of
(configuration, attack) checks (default five million).  A guard count
whose dominating configurations times attacked vertices already exceed
it is refused as soon as the enumeration passes that many states;
otherwise the elimination counts its checks against it.  When the cap
trips, ``eternal_number`` degrades gracefully to the bracketing bounds
established so far.
"""
from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain
from typing import Iterable, NamedTuple

from . import _kernel
from ._kernel import KernelWork
from .configs import Config, canonical, enumerate_dominating_configs
from .domination import ball_masks, covers, gamma_k, is_distance_k_dominating
from .graph import (CACHE_SIZE, Graph, all_pairs_distances, components,
                    induced_subgraph, is_connected)

DEFAULT_BUDGET = _kernel.DEFAULT_BUDGET
CERTIFICATE_CAP = 20_000  # larger defense families yield no certificate
CERTIFICATE_FORMAT = 2  # the one JSON layout certificate_from_json reads


class BudgetExceededError(RuntimeError):
    """The configured (configuration, attack) check budget ran out."""


class QStats(NamedTuple):
    """Elimination statistics for one guard count.

    ``exceeded`` marks a guard count the budget refused or stopped; its
    ``num_configs`` may then be only a lower bound.  ``work`` holds the
    kernel's work counters (all zero for a refused guard count), and
    ``prefixes`` the number of prefixes the configuration walk visited
    (up to its cut, for a refused guard count).
    """
    q: int
    num_configs: int
    rounds: int
    checks: int
    survivors: int
    exceeded: bool
    work: KernelWork = KernelWork()
    prefixes: int = 0


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
    family: tuple[Config, ...]
    rows: list


class CertificateViolation(NamedTuple):
    state: int | None
    attack: str | None
    reason: str


class SolveReport(NamedTuple):
    k: int
    gamma_eternal: int | None
    lower_bound: int
    upper_bound: int
    gamma_k_value: int
    gamma_half_value: int
    per_q: list[QStats]
    certificate: EternalCertificate | None
    budget_exceeded: bool
    component_reports: list[SolveReport] | None = None

    @property
    def resolved(self) -> bool:
        return self.gamma_eternal is not None


@lru_cache(maxsize=CACHE_SIZE)
def _solve_q(g: Graph, k: int, q: int, budget: int
             ) -> tuple[frozenset, QStats, EternalCertificate | None]:
    """Survivors, statistics and certificate of guard count q.

    A non-empty fixed point is closed into a certificate while the
    kernel's witness table is in scope, so the cache keeps the rows but
    never the table.  The family grows from the lexicographically least
    survivor: each (member, attack) is answered by the least member
    already found that holds the attack and is reachable in one step, or,
    when none is, by the least such survivor, which joins the family (see
    ``_kernel.pure.certificate_rows``).  Empty, refused and over-budget
    guard counts, and closures past ``CERTIFICATE_CAP`` members, have no
    certificate.
    """
    dist = all_pairs_distances(g)
    walked = array("q", [0])
    states = enumerate_dominating_configs(dist, k, q, limit=budget // max(g.n, 1),
                                          work=walked)
    if len(states) * g.n > budget:
        # Refused before elimination; the enumeration stopped at its limit,
        # so num_configs is a lower bound on the true count.
        return frozenset(), QStats(q, len(states), 0, 0, 0, True,
                                   prefixes=walked[0]), None
    masks = _kernel.pack_masks(ball_masks(dist, k), g.n)
    wit = array("i", [-1]) * (len(states) * g.n)
    work = array("q", KernelWork())
    alive, rounds, checks, exceeded = _kernel.run_elimination(
        g.n, masks, states, wit, budget=budget, work=work)
    survivors = frozenset() if exceeded else frozenset(
        states[i] for i in range(len(states)) if alive[i])
    stats = QStats(q, len(states), rounds, checks, len(survivors), exceeded,
                   KernelWork(*work), walked[0])
    cert = None
    if survivors:
        closure = _kernel.certificate_rows(g.n, masks, states, alive, wit, CERTIFICATE_CAP)
        if closure is not None:
            members, rows = closure
            cert = EternalCertificate(k, q, tuple(states[i] for i in members), rows)
    return survivors, stats, cert


def eternal_survivors(g: Graph, k: int, q: int, budget: int = DEFAULT_BUDGET) -> frozenset:
    """All size-q configurations that belong to some defense-closed family.

    Raises BudgetExceededError when the instance does not fit the budget.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not is_connected(g):
        raise ValueError("survivor sets are defined per connected graph")
    survivors, stats, _ = _solve_q(g, k, q, budget)
    if stats.exceeded:
        if stats.checks:
            raise BudgetExceededError(
                f"q={q}: {stats.checks} checks exceeded budget {budget}")
        raise BudgetExceededError(
            f"q={q}: more than {budget // g.n} dominating configurations "
            f"x {g.n} attacks exceeds budget {budget}")
    return survivors


def eternal_number(g: Graph, k: int, q_max: int | None = None,
                   budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Exact eternal distance-k domination number with certificate.

    Guard counts are tried upward from the static domination number; the
    first non-empty fixed point wins.  On disconnected input the
    components are solved independently and summed (guards can never
    cross components), with per-component reports attached; each of
    those carries its component's certificate, and the sum has none.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n == 0:
        raise ValueError("empty graph")
    if not is_connected(g):
        return _solve_components(g, k, q_max, budget)

    gk = gamma_k(g, k).gamma
    gh = gamma_k(g, k // 2).gamma
    # The sandwich puts the true number at most gh, so the search stops there.
    q_hi = q_max if q_max is not None else gh
    per_q: list[QStats] = []
    lower = gk  # only completed empty fixed points may lift this
    exceeded = False
    for q in range(gk, q_hi + 1):
        survivors, stats, cert = _solve_q(g, k, q, budget)
        per_q.append(stats)
        if stats.exceeded:
            exceeded = True
            break
        if survivors:
            return SolveReport(k, q, q, q, gk, gh, per_q, cert, False)
        lower = q + 1
    if not exceeded and q_max is None:
        raise RuntimeError(
            "no non-empty fixed point up to the static upper bound; "
            "this contradicts the sandwich and indicates an engine bug")
    return SolveReport(k, None, lower, gh, gk, gh, per_q, None, exceeded)


def _solve_components(g: Graph, k: int, q_max: int | None,
                      budget: int) -> SolveReport:
    """Sum the per-component numbers; guards never cross components.

    Each component's number is at least its gamma_k, so under ``q_max``
    a component may use at most q_max minus the other components' gamma_k.
    A component stopped at that cap, or a sum above ``q_max``, leaves the
    report unresolved without a budget trip.
    """
    subs = [induced_subgraph(g, comp)[0] for comp in components(g)]
    lows = [gamma_k(sub, k).gamma for sub in subs]
    reports = []
    for sub, low in zip(subs, lows):
        cap = None if q_max is None else q_max - (sum(lows) - low)
        reports.append(eternal_number(sub, k, q_max=cap, budget=budget))
    gamma = None
    lower = sum(r.lower_bound for r in reports)
    upper = sum(r.upper_bound for r in reports)
    if all(r.resolved for r in reports) and (q_max is None or lower <= q_max):
        gamma = upper = lower
    return SolveReport(
        k=k,
        gamma_eternal=gamma,
        lower_bound=lower,
        upper_bound=upper,
        gamma_k_value=sum(lows),
        gamma_half_value=sum(r.gamma_half_value for r in reports),
        per_q=[],
        certificate=None,
        budget_exceeded=any(r.budget_exceeded for r in reports),
        component_reports=reports,
    )


def is_eternal_set(g: Graph, k: int, guards: Iterable[int],
                   budget: int = DEFAULT_BUDGET) -> bool:
    """Whether this guard multiset belongs to some defense-closed family.

    Runs the fixed point at q = len(guards) and reports membership.
    Raises BudgetExceededError when that fixed point does not fit the
    budget.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cfg = canonical(guards)
    if any(not (0 <= u < g.n) for u in cfg):
        raise ValueError("guard position out of range")
    dist = all_pairs_distances(g)
    if not is_distance_k_dominating(dist, cfg, k):
        return False
    if is_connected(g):
        return cfg in eternal_survivors(g, k, len(cfg), budget)
    for comp in components(g):
        sub, idmap = induced_subgraph(g, comp)
        part = [idmap[v] for v in cfg if v in idmap]
        if not part:
            return False  # unguarded component
        if not is_eternal_set(sub, k, part, budget):
            return False
    return True


# ---------------------------------------------------------------------------
# Certificates.
# ---------------------------------------------------------------------------

def verify_certificate(g: Graph, cert: EternalCertificate
                       ) -> tuple[bool, CertificateViolation | None]:
    """Re-derive every certificate invariant from scratch.

    Uses only distances and multiset comparisons (never the solver or
    the kernels).  Checks run in stages (the format's structural rules,
    which the JSON reader applies too, then the members, each tested
    against ball masks built once, then each row's moves), and each stage
    reports its first violation in (member index, vertex id) scan order.
    Violations are return values, not exceptions.
    """
    dist = all_pairs_distances(g)
    n, q, k, family, rows = g.n, cert.q, cert.k, cert.family, cert.rows

    def bad(state, attack_id, reason):
        attack = g.labels[attack_id] if attack_id is not None else None
        return False, CertificateViolation(state, attack, reason)

    if q < 1 or k < 1:
        return bad(None, None, "q and k must be positive")
    if not family:
        return bad(None, None, "empty family")
    fault = _structure_fault(family, rows, q, n)
    if fault is not None:
        return bad(*fault)
    balls = ball_masks(dist, k)
    for i, member in enumerate(family):
        if any(not (0 <= u < n) for u in member):
            return bad(i, None, f"member {i} names a vertex out of range")
        if tuple(sorted(member)) != tuple(member):
            return bad(i, None, f"member {i} is not in canonical sorted form")
        if not covers(balls, member):
            return bad(i, None, f"member {i} is not distance-{k} dominating")
    held = [set(member) for member in family]
    for i, member in enumerate(family):
        reach = [dist[u] for u in member]
        passed = set()  # rows of member i already checked, less the attack
        for v in range(n):
            row = rows[i * n + v]
            key = tuple(row)
            if key not in passed:
                succ = family[row[0]]
                targets = [succ[t] for t in row[1:]]
                for a, b, d in zip(member, targets, reach):
                    if d[b] > k:
                        return bad(i, v, f"move {a}->{b} longer than k={k}")
                if tuple(sorted(targets)) != succ:
                    return bad(i, v, "move targets do not match the successor")
                passed.add(key)
            if v not in held[row[0]]:
                return bad(i, v, "successor does not occupy the attacked vertex")
    return True, None


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
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {q + 1}:
        posts = list(chain.from_iterable(rows))
        nexts = posts[::q + 1]
        del posts[::q + 1]
        if (set(map(type, nexts)) | set(map(type, posts)) <= {int}
                and 0 <= min(nexts, default=0) and max(nexts, default=0) < m
                and 0 <= min(posts, default=0) and max(posts, default=0) < q):
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
            family: tuple[Config, ...]) -> list:
    """Rows of a document rewritten to attack order by vertex id and to
    guards and posts in sorted order.

    Guard p of a listed member becomes the guard at that guard's place in
    the member's stable sort, and a target post becomes the first sorted
    post on the same vertex.
    """
    n = len(ids)
    order = [sorted(range(len(posts)), key=posts.__getitem__) for posts in listed]
    first = [{u: member.index(u) for u in member} for member in family]
    out = [None] * len(rows)
    for i, guards in enumerate(order):
        for a, v in enumerate(ids):
            j, *posts = rows[i * n + a]
            out[i * n + v] = [j, *(first[j][listed[j][posts[p]]] for p in guards)]
    return out


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
        ids = [g.id_of(label) for label in _array(doc["vertices"], "'vertices'")]
        if len(ids) != g.n or len(set(ids)) != g.n:
            raise ValueError(f"'vertices' must list each of the graph's {g.n} "
                             "labels exactly once")
        listed = [[g.id_of(u) for u in _array(member, f"family member {i}")]
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
