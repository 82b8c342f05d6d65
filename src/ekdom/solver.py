"""The game engine: exact eternal distance-k domination numbers.

For a guard count q, the engine enumerates every size-q dominating
configuration and runs greatest-fixed-point elimination (see
``ekdom._kernel``): configurations that cannot answer some attack with a
surviving configuration are deleted until nothing changes.  The defended
number is the least q whose survivor set is non-empty; q starts at the
static domination number and Prop-style sandwich bounds cap it from
above, so the loop always terminates.

Each guard count is solved by ``_solve_q``, whose solves ``graph.memo``
keeps with the graph's other results: it runs the elimination and, for a
non-empty fixed point, builds an explicit certificate, so every public
function reads its numbers, survivor sets and certificates from that one
solve.  A certificate (``ekdom.certificate``) is a family of
configurations plus, for every (family member, attacked vertex) pair,
one row naming a successor member that contains the attack and the post
each guard walks to.  The kernel layer builds the rows
(``_kernel.certificate_rows``), answering each attack from the members
found so far whenever one qualifies, so the family stays small.  The
certificate module holds the format, its JSON reader and writer and the
checker, which this module re-exports; the checker imports nothing of
the solver, the kernels, ``configs`` or ``domination``, so solver and
verifier form independent routes to the same claim.

Solve order: every guard count is solved in one vertex order, whatever
ids the input gives.  ``solve_order`` numbers the connected graph in the
visiting order of ``graph.bfs`` from vertex 0, the package's one
breadth-first search, which takes neighbours in id order (the idea behind
Cuthill and McKee's bandwidth-reducing order, 1969), so each ball lies on
nearby ids, the kernels' prefix skips fire early and the certificate
family stays small.  The walk, the sweep and the closure run on the
relabelled graph, and the certificate is mapped back to the caller's ids
(``certificate._relist``).  The cached survivors stay in solve order,
where ``eternal_number`` reads only whether there are any;
``eternal_survivors`` maps them back, once per guard count.  A graph
already in that order, as ``ekdom gen`` writes paths and m-ary trees, is
its own relabelling and is solved exactly as given.  ``gamma_k`` runs on
the input graph.

State budget: each guard count gets a configurable number of
(configuration, attack) checks (default five million).  A guard count
whose dominating configurations times attacked vertices already exceed
it is refused as soon as the enumeration passes that many states;
otherwise the elimination counts its checks against it.  When the cap
trips, ``eternal_number`` degrades gracefully to the bracketing bounds
established so far.  The refusal counts configurations, which no vertex
order changes; the checks, rounds and prefixes are those of the solve
order, so whether the elimination runs out of budget depends on it.
"""
from array import array
from collections.abc import Iterable

from . import Record, _kernel
from ._kernel import KernelWork
# The certificate names and the budget error are re-exported: callers
# import them from here, next to the solver that produces them.
from .certificate import (CERTIFICATE_FORMAT, CertificateViolation, EternalCertificate,
                          _relist, certificate_from_json, certificate_to_json,
                          verify_certificate)
from .configs import canonical, enumerate_dominating_configs
from .domination import covers, gamma_k, graph_balls
from .graph import (DEFAULT_BUDGET, BudgetExceededError, DisconnectedGraphError, Graph,
                    all_pairs_distances, bfs, components, induced_subgraph,
                    is_connected, memo)

CERTIFICATE_CAP = 20_000  # larger defense families yield no certificate


class QStats(Record):
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


class SolveReport(Record):
    k: int
    gamma_eternal: int | None
    lower_bound: int
    upper_bound: int
    gamma_k_value: int
    gamma_half_value: int
    per_q: list[QStats]
    certificate: EternalCertificate | None
    budget_exceeded: bool
    component_reports: "list[SolveReport] | None" = None

    @property
    def resolved(self) -> bool:
        return self.gamma_eternal is not None


def _solve_q(g: Graph, k: int, q: int, budget: int
             ) -> tuple[frozenset, QStats, EternalCertificate | None]:
    """Survivors, statistics and certificate of guard count q.

    A non-empty fixed point is closed into a certificate while the
    kernel's witness table is in scope, so the cache keeps the rows but
    never the table.  Each (k, q, budget) is solved once per graph, on g
    renumbered by ``solve_order``; the certificate is mapped back to g's
    ids, and the survivors are left in solve order (``_in_ids`` maps
    them back).  The family grows from the survivor that is
    lexicographically least in that order: each (member, attack) is
    answered by the least member already found that holds the attack and
    is reachable in one step, or, when none is, by the least such
    survivor, which joins the family (see
    ``_kernel.pure.certificate_rows``).  Empty, refused and over-budget
    guard counts, and closures past ``CERTIFICATE_CAP`` members, have no
    certificate.
    """
    return memo(g, ("solve", k, q, budget), lambda: _in_solve_order(g, k, q, budget))


def solve_order(g: Graph) -> list[int]:
    """The vertex order every guard count is solved in: ``order[i]`` is the
    id of the i-th vertex that ``graph.bfs`` visits from vertex 0.

    Raises DisconnectedGraphError on a disconnected graph, which the
    search does not cover (solves split those into components first).
    """
    order = bfs(g, 0)[0] if g.n else []
    if len(order) != g.n:
        raise DisconnectedGraphError("the solve order covers connected graphs only")
    return order


def _relabelled(g: Graph) -> tuple[list[int], Graph]:
    """``solve_order(g)`` and g renumbered by it (vertex i of the result is
    ``order[i]`` of g, with its label); g itself when the order is the
    identity.  The renumbered graph's distances are g's, permuted, which
    is cheaper than searching it again."""
    order = solve_order(g)
    if order == list(range(g.n)):
        return order, g
    rank = [0] * g.n
    for i, u in enumerate(order):
        rank[u] = i
    h = Graph.build(g.n, [(rank[u], rank[v]) for u, v in g.edges()],
                    [g.labels[u] for u in order])
    dist = all_pairs_distances(g)
    memo(h, "distances", lambda: tuple(tuple(map(dist[u].__getitem__, order)) for u in order))
    return order, h


def _in_solve_order(g: Graph, k: int, q: int, budget: int
                    ) -> tuple[frozenset, QStats, EternalCertificate | None]:
    order, h = memo(g, "order", lambda: _relabelled(g))
    survivors, stats, cert = _fixed_point(h, k, q, budget)
    if h is g or cert is None:
        return survivors, stats, cert
    return survivors, stats, _certificate_in(order, cert)


def _in_ids(g: Graph, survivors: frozenset) -> frozenset:
    """Survivors of g solved in ``solve_order``, in g's ids."""
    order, h = memo(g, "order", lambda: _relabelled(g))
    if h is g:
        return survivors
    return frozenset(tuple(sorted(map(order.__getitem__, s))) for s in survivors)


def _certificate_in(order: list[int], cert: EternalCertificate) -> EternalCertificate:
    """``cert``, a certificate of g renumbered by ``order`` (as
    ``_relabelled`` does), in the ids of g: members keep their places, and
    attacks, guards and posts follow ``certificate._relist``'s rule."""
    listed = [[order[u] for u in member] for member in cert.family]
    family = tuple(tuple(sorted(posts)) for posts in listed)
    return cert._replace(family=family, rows=_relist(cert.rows, order, listed, family))


def _fixed_point(g: Graph, k: int, q: int, budget: int
                 ) -> tuple[frozenset, QStats, EternalCertificate | None]:
    walked = array("q", [0])
    states = enumerate_dominating_configs(all_pairs_distances(g), k, q,
                                          limit=budget // max(g.n, 1), work=walked)
    if len(states) * g.n > budget:
        # Refused before elimination; the enumeration stopped at its limit,
        # so num_configs is a lower bound on the true count.
        return frozenset(), QStats(q, len(states), 0, 0, 0, True,
                                   prefixes=walked[0]), None
    masks = _kernel.pack_masks(graph_balls(g, k), g.n)
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
        raise DisconnectedGraphError("survivor sets are defined per connected graph")
    survivors, stats, _ = _solve_q(g, k, q, budget)
    if stats.exceeded:
        if stats.checks:
            raise BudgetExceededError(
                f"q={q}: {stats.checks} checks exceeded budget {budget}")
        raise BudgetExceededError(
            f"q={q}: more than {budget // g.n} dominating configurations "
            f"x {g.n} attacks exceeds budget {budget}")
    return memo(g, ("survivors", k, q, budget), lambda: _in_ids(g, survivors))


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
    if is_connected(g):
        return covers(graph_balls(g, k), cfg) and cfg in eternal_survivors(g, k, len(cfg), budget)
    # Every component's cover is tested before any component is solved, and
    # on its own balls: the whole graph's are never built.
    parts = []
    for comp in components(g):
        sub, idmap = induced_subgraph(g, comp)
        part = [idmap[v] for v in cfg if v in idmap]
        if not covers(graph_balls(sub, k), part):
            return False  # an unguarded component too
        parts.append((sub, part))
    return all(is_eternal_set(sub, k, part, budget) for sub, part in parts)
