"""Pure-Python configuration walk, elimination kernel and certificate
closure (reference twins of ``_ckernel.c``).

Geometry: the three entry points read the graph only through its ball
masks (``masks``, laid out as in ``enumerate_states``): a guard on u
walks to t in one step iff t lies in ball(u).  The masks must be
symmetric (t lies in ball(u) exactly when u lies in ball(t)), as
``pack_masks(ball_masks(dist, k))`` always is: the closure's matching
relies on it (see Depth), and masks that are not can only yield rows
that ``ekdom verify`` rejects.  The sweep and the closure expand them
once per call into reach rows, so a move test is a list index.

State space: ``enumerate_states`` lists every size-q multiset of
vertices whose balls cover the graph, in lexicographic order; its
contract and its suffix prunes are in its docstring.

Given all size-q dominating configurations of a graph, keep deleting every
configuration that cannot answer some attacked vertex with a surviving
configuration, until a full pass deletes nothing.  What survives is the
unique maximal family closed under defense at this size; the defended
number is the least q whose survivor set is non-empty.

An attack on an occupied vertex is always answerable by standing still,
so only unoccupied vertices are checked.  The expensive question "can
configuration i answer attack v with some surviving j" is amortised:

* per (i, v) we remember the last successor that worked (``wit``); while
  it stays alive the recheck is O(1);
* when it dies, scanning the candidate list for v (configurations whose
  support contains v, ascending) resumes from the stored cursor
  (``pos``).  Everything behind the cursor is either dead forever or
  failed the static movement test, so the cursor never moves backwards.

Each pass visits the configurations in input order.  The greatest fixed
point is unique, so the visiting order changes only ``rounds`` and
``checks``, never the survivors; to sweep in another order, permute
``states`` (``states[::-1]`` runs the reverse sweep).

Movement feasibility between two configurations is a perfect matching on
the q x q "guard can walk there" grid.  The sweep decides it from the
target side, with a prefix matcher: the posts of candidate j are placed
in order, each by an augmenting path (``place``), on distinct
guards of i, and the matcher returns the first post t that cannot be
placed (or success).

* *Run skip.*  With posts 0..t-1 placed, post t fails only when no
  augmenting path exists, that is, when posts 0..t of j have no
  placement on distinct guards of i at all (Berge): some of them have
  fewer guards of i within reach than their number (Hall).  So no state
  that shares j's first t + 1 posts is reachable from i.  A
  table ``skip[j * q + t]`` holds the first index after j, in the order
  ``states`` arrives in, whose (t + 1)-prefix differs from j's; the
  cursor bisects the candidate list to it.  Every state it jumps over
  shares that prefix, for any input order.
* *Prefix reuse.*  While sweeping i, the matcher keeps the previous
  candidate's assignment.  It restarts at the common prefix of that
  candidate and j, capped at the posts it placed, and frees only the
  guards that held later posts.  A failed augmenting path changes no
  assignment, so whether post t can be placed depends only on posts
  0..t, and the first failing post does not depend on this history.

So the cursor still passes only states that are dead or unreachable
from i, and the sweep, the witnesses and ``checks`` are those of a plain
scan with one full matching per live candidate.

The compiled twin runs the same sweep, cursors, budget test, prefix
matcher and skips on C arrays, so the two agree byte for byte, work
counters included; this module is the reference the parity tests
compare it against and the kernel in use wherever the extension was not
built.  Both matchers read, per post, the set of guards within reach as
a bitmask (an int here, 64-bit words there) and try its untried bits in
ascending order.  One thing differs in speed only: a compiled run skip
gallops from the cursor to the end of the run instead of bisecting the
rest of the candidate list.

Both kernels return ``(alive, rounds, checks, exceeded)`` where ``alive``
is a bytearray of 0/1 flags over the input configurations, ``rounds``
counts full passes including the final quiet one, ``checks`` counts
(configuration, attack) evaluations, and ``exceeded`` reports that the
check budget ran out (in which case ``alive`` is meaningless).

Work counters: when the caller passes ``work``, an ``array('q')`` of 5
items whose contents on entry are ignored, both kernels leave there the
candidate probes (``probes``: candidates the cursor looked at), the dead
skips among them (``dead``), the prefix matchings attempted on the live
ones (``matchings``, so ``probes == dead + matchings``), the matchings
that placed every post (``matched``), and the candidates the run skips
jumped over without a probe (``jumped``), in the order of ``KernelWork``.

Witness table: the caller passes ``wit``, an ``array('i')`` of
``len(states) * n`` items whose contents on entry are ignored; both
kernels sweep with ``wit[i][v]`` at index ``i * n + v`` and leave the
final table there.  For a surviving configuration i
and a vertex v that i leaves unoccupied, that entry is the least index
of a surviving configuration that occupies v and that i can move to in
one step: the final quiet pass rechecked the stored witness, and every
candidate behind the cursor is dead or unreachable.  States come in
lexicographic order from ``enumerate_dominating_configs``, so this is
the lexicographically least such survivor.  Other entries (dead i,
occupied v) are leftovers of the sweep, and when ``exceeded`` is set the
whole table means nothing.

Certificate closure: ``certificate_rows`` grows a family breadth-first
from the least survivor.  It answers each attack with the least member
already in the family that holds the attacked vertex and is reachable in
one step, and only when there is none with the witness from that table,
which then joins the family; its contract is in its docstring, and the
compiled twin returns the same ``(members, rows)``.

Depth: the walk and ``place``, the one augmenting-path search of both
the sweep and the closure, keep their paths on explicit stacks, so, like
the compiled twin, this module takes more guards than the interpreter's
recursion limit.  The closure calls ``place`` through ``assign``, with
guards and posts swapped: member i's guards are placed, in order, on the
posts of the response.  The masks are symmetric, so that is step for
step the source-side search in which each guard of i in turn tries the
posts in ascending order, and the rows record the same assignments as
that search would.  ``configs.transform_assignment`` imports ``assign``
when it runs, so this module imports nothing of ``configs``.
"""
from array import array
from bisect import bisect_left, insort

from . import KernelWork


def _balls(n: int, masks: array) -> list[int]:
    """Each vertex's ball as an int, from ``masks`` checked as ``_ckernel`` checks it."""
    if n < 0:
        raise ValueError("n must be non-negative")
    words, view = (n + 63) >> 6, memoryview(masks)
    if view.format != "Q":
        raise TypeError("masks must be an array('Q')")
    if len(view) != n * words:
        raise ValueError("masks must hold n * ((n + 63) // 64) items")
    return [sum(view[v * words + w] << 64 * w for w in range(words)) for v in range(n)]


def _reach(n: int, masks: array) -> list[list[int]]:
    """``reach[u][t]``: 1 when t lies in the ball of u, else 0."""
    return [[ball >> t & 1 for t in range(n)] for ball in _balls(n, masks)]


def place(rows: list[int], c: int, holder: list[int], guard: list[int]) -> bool:
    """Place post c on a free guard by an augmenting path.

    ``rows[c]`` is the guard row of post c: the set of guards that walk
    to it in one step, bit p for guard p.  Only the rows of posts 0..c are
    read.  ``holder[p]`` is the post guard p holds (-1 when free) and
    ``guard[c]`` the guard holding post c; both are updated on success,
    and a failed search changes neither.  The path is searched depth
    first, each post trying the guards of its row it has not tried, in
    ascending order, on an explicit stack, so the number of guards is not
    bounded by the interpreter's recursion limit; a step costs a few int
    operations, not a scan of all the guards.
    """
    fresh = (1 << len(holder)) - 1  # the guards this search has not tried
    path = []  # (post, guard) steps of the path so far
    row = rows[c]
    while True:
        untried = row & fresh
        if untried:
            bit = untried & -untried
            fresh ^= bit
            p = bit.bit_length() - 1
            path.append((c, p))
            c = holder[p]
            if c < 0:
                for c, p in path:
                    holder[p] = c
                    guard[c] = p
                return True
            row = rows[c]
        elif path:  # no untried guard from post c: back up to the step before
            c, _ = path.pop()
            row = rows[c]
        else:
            return False


def _guard_row(reach: list[list[int]], guards: tuple, t: int) -> int:
    """The guard row of vertex t: bit p set when ``guards[p]`` reaches t."""
    row = 0
    for p, u in enumerate(guards):
        if reach[u][t]:
            row |= 1 << p
    return row


def assign(reach, src: tuple, dst: tuple) -> list[int] | None:
    """Match the guards of src onto the posts of dst.

    ``reach[t][u]`` is true when vertex u lies within one step of post t
    (only the rows of dst's posts are read).  Returns ``owner``, where
    guard ``owner[c]`` of src walks to post c, or None when no perfect
    matching exists.  Movement is symmetric, so placing the guards of
    src, in order, on the posts (tried in ascending order) is step for
    step the textbook source-side search in which each guard in turn
    looks for a post, and it finds the same owners.
    """
    q = len(src)
    by_vertex = {u: _guard_row(reach, dst, u) for u in set(src)}
    rows = [by_vertex[u] for u in src]
    owner, post = [-1] * q, [0] * q
    for p in range(q):
        if not place(rows, p, owner, post):
            return None
    return owner


def enumerate_states(n: int, q: int, masks: array, limit: int | None = None,
                     work: array | None = None) -> list[tuple]:
    """Size-q multisets of ``range(n)`` whose balls cover every vertex, as
    non-decreasing tuples in lexicographic order.

    ``masks`` holds the ball of each vertex as ``words = (n + 63) // 64``
    unsigned 64-bit words, least significant first: bit b of item
    ``v * words + w`` is set when vertex ``64 * w + b`` lies in the ball
    of v (an ``array('Q')`` of ``n * words`` items).

    Guards are placed in non-decreasing order, so every guard still to
    come sits at some vertex >= v.  Two suffix tables over the guards
    v..n-1 prune the walk: ``reach[v]``, the union of their balls, must
    complete the cover, and ``widest[v]``, their largest ball, times the
    free slots must be at least the number of uncovered vertices.  Both
    tests only get stricter as v grows, so the first failure ends the
    loop, and the output is the same list in the same order as the
    unpruned walk over all C(n+q-1, q) multisets.

    With ``limit``, the walk stops as soon as it holds ``limit + 1``
    states and returns those, so a caller that budgets on the number of
    dominating configurations never materialises more than it can afford.
    When the caller passes ``work``, an ``array('q')`` of 1 item, the walk
    leaves there the number of prefixes it visited: guard placements that
    passed both prunes, the full-length ones included.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    balls = _balls(n, masks)
    if work is not None and len(work) != 1:
        raise ValueError("work must hold 1 item")
    full = (1 << n) - 1
    reach = [0] * (n + 1)
    widest = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        reach[v] = reach[v + 1] | balls[v]
        widest[v] = max(widest[v + 1], balls[v].bit_count())
    out: list[tuple] = []
    state = [0] * q
    cov = [0] * (q + 1)  # cov[pos]: the union of the balls of posts < pos
    need = [n] * q       # need[pos]: the vertices cov[pos] misses
    prefixes = 0
    # Depth first on an explicit stack: post pos goes to a vertex v at or
    # after the previous post.  The first v that fails a prune ends this
    # post's loop, and the walk backs up.
    pos = v = 0
    while n:
        if v == n or cov[pos] | reach[v] != full or need[pos] > (q - pos) * widest[v]:
            if pos == 0:
                break
            pos -= 1
            v = state[pos] + 1
            continue
        prefixes += 1
        state[pos] = v
        cov[pos + 1] = cov[pos] | balls[v]
        if pos + 1 < q:
            pos += 1
            need[pos] = (full & ~cov[pos]).bit_count()
            continue  # the next post starts at v again
        if cov[q] == full:
            out.append(tuple(state))
            if limit is not None and len(out) > limit:
                break
        v += 1
    if work is not None:
        work[0] = prefixes
    return out


def _skip_table(states: list[tuple], q: int) -> list[int]:
    """``skip[j * q + t]``: the first index after j whose first t + 1
    posts differ from those of ``states[j]``."""
    S = len(states)
    skip = [0] * (S * q)
    for j in range(S - 1, -1, -1):
        cur = states[j]
        same = 0
        if j + 1 < S:
            nxt = states[j + 1]
            while same < q and cur[same] == nxt[same]:
                same += 1
        base = j * q
        for t in range(q):
            skip[base + t] = skip[base + q + t] if t < same else j + 1
    return skip


def run_elimination(n: int, masks: array, states: list[tuple], wit: array,
                    budget: int, work: array | None = None):
    """Gauss-Seidel elimination: deletions take effect within the pass."""
    reach = _reach(n, masks)
    S = len(states)
    if len(wit) != S * n:
        raise ValueError("wit must hold len(states) * n items")
    if work is not None and len(work) != len(KernelWork._fields):
        raise ValueError("work must hold 5 items")
    probes = dead = matchings = matched = jumped = 0
    q = len(states[0]) if S else 0
    free = []  # free[i]: the vertices state i leaves unoccupied, ascending
    cand: list[list[int]] = [[] for _ in range(n)]
    for i, st in enumerate(states):
        occupied = set(st)
        for u in occupied:
            cand[u].append(i)
        free.append([v for v in range(n) if v not in occupied])
    skip = _skip_table(states, q)
    alive = bytearray([1]) * S
    pos = [[0] * n for _ in range(S)]
    wit[:] = array("i", [-1]) * (S * n)
    holder = [-1] * q  # holder[p]: post of the last candidate held by guard p of i
    guard = [0] * q    # guard[c]: guard of i holding post c < placed
    post_rows = [0] * q  # post_rows[c]: the guard row of post c < placed

    checks = 0
    rounds = 0
    changed = S > 0
    exceeded = False
    while changed and not exceeded:
        changed = False
        rounds += 1
        for i in range(S):
            if not alive[i]:
                continue
            st = states[i]
            rows = [None] * n  # rows[t]: _guard_row of t for i, once a post on t is placed
            pos_i = pos[i]
            base = i * n
            holder[:] = [-1] * q
            last = None  # posts of the last candidate matched against i
            placed = 0   # its posts 0..placed-1 hold guards
            for v in free[i]:  # standing still answers an occupied vertex
                checks += 1
                if checks > budget:
                    exceeded = True
                    break
                w = wit[base + v]
                if w >= 0 and alive[w]:
                    continue
                cv = cand[v]
                top = len(cv)
                p = pos_i[v]
                while p < top:
                    j = cv[p]
                    probes += 1
                    if not alive[j]:
                        dead += 1
                        p += 1
                        continue
                    matchings += 1
                    dst = states[j]
                    c = 0
                    if last is not None:
                        while c < placed and dst[c] == last[c]:
                            c += 1
                    for d in range(c, placed):
                        holder[guard[d]] = -1
                    last = dst
                    placed = c
                    while placed < q:
                        t = dst[placed]
                        if rows[t] is None:
                            rows[t] = _guard_row(reach, st, t)
                        post_rows[placed] = rows[t]
                        if not place(post_rows, placed, holder, guard):
                            break
                        placed += 1
                    if placed == q:
                        matched += 1
                        break
                    # No state sharing j's first placed + 1 posts is reachable.
                    nxt = bisect_left(cv, skip[j * q + placed], p + 1, top)
                    jumped += nxt - p - 1
                    p = nxt
                pos_i[v] = p
                if p < top:
                    wit[base + v] = cv[p]
                else:
                    alive[i] = 0
                    changed = True
                    break
            if exceeded:
                break
    if work is not None:
        work[:] = array("q", [probes, dead, matchings, matched, jumped])
    return alive, rounds, checks, exceeded


def certificate_rows(n: int, masks: array, states: list[tuple], alive: bytearray,
                     wit: array, cap: int):
    """Close the least survivor under responses drawn from the family, as
    certificate rows.

    ``alive`` and ``wit`` are what ``run_elimination`` left for
    ``states`` (lexicographically ordered).  Breadth-first from the least
    live state, the response to (member i, attack v) is the least state
    already in the family that holds v and that i reaches in one step.
    For an occupied v, i itself qualifies.  For an unoccupied v the
    witness table names the least live holder of v that i reaches, so
    family members below it are passed without a matching; when no
    member at or above it answers, the witness does and joins the
    family.  Every member is thus reached along witness edges, and the
    family is a subset of the closure that answers every attack with the
    least reachable survivor.  Candidates are tested with ``assign``, once
    per (member, candidate), since its guard rows and assignment depend
    on nothing else, and the rows record the assignment it finds for the
    response (a state can reach itself by a non-identity assignment).

    Returns ``(members, rows)``: ``members`` lists the family's state
    indices in ascending order, and ``rows[r * n + v]`` is
    ``[next, t_1, ..., t_q]`` for the r-th member attacked at v, where
    guard p (its p-th post) walks to the vertex at post ``t_p`` of member
    ``next``, written as that vertex's first post.  Returns None when the
    family has more than ``cap`` members, and ``([], [])`` when nothing
    is alive.  Raises ValueError when the table names no live state that
    answers an attack.
    """
    reach = _reach(n, masks)
    S = len(states)
    if len(alive) != S:
        raise ValueError("alive must hold len(states) flags")
    if len(wit) != S * n:
        raise ValueError("wit must hold len(states) * n items")
    first = next((i for i in range(S) if alive[i]), None)
    if first is None:
        return [], []
    held: list[list[int]] = [[] for _ in range(n)]  # family members holding v, ascending
    order = []  # members in order of discovery
    slot = {}
    answers = []  # per member found: its n rows, next still a state index

    def join(j: int) -> None:
        slot[j] = len(order)
        order.append(j)
        for v in set(states[j]):
            insort(held[v], j)

    join(first)
    for i in order:
        if len(order) > cap:
            return None
        cur = states[i]
        out = []
        owners = {}  # candidate -> assign(reach, cur, states[candidate])
        for v in range(n):
            if v in cur:
                w, lo = i, 0  # i itself answers, at the latest
            else:
                w = wit[i * n + v]
                lo = w if 0 <= w < S and alive[w] else S  # a bad witness: none answers
            owner = None
            hv = held[v]
            for j in hv[bisect_left(hv, lo):]:
                if j not in owners:
                    owners[j] = assign(reach, cur, states[j])
                owner = owners[j]
                if owner is not None:
                    break
            else:
                if lo < S and w not in slot:  # no member answers: the witness joins
                    j = w
                    owner = owners[j] = assign(reach, cur, states[j])
            if owner is None:
                raise ValueError(f"no live state answers attack {v} on state {i}: "
                                 "the witness table does not fit alive")
            dst = states[j]
            row = [j] + [0] * len(cur)
            for c, p in enumerate(owner):
                row[1 + p] = dst.index(dst[c])
            out.append(row)
            if j not in slot:
                join(j)
        answers.append(out)
    members = sorted(order)
    rank = {i: r for r, i in enumerate(members)}
    rows = []
    for i in members:
        for row in answers[slot[i]]:
            row[0] = rank[row[0]]
            rows.append(row)
    return members, rows
