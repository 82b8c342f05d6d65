"""The certificate checker against its row-by-row reference."""
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from ekdom.certificate import EternalCertificate, verify_certificate
from ekdom.graph import components, is_connected
from ekdom.solver import eternal_number
from helpers import oracle_distances, random_graph, reference_verify


def solved_certificate(g, k) -> EternalCertificate:
    """The solver's certificate of a connected graph; on a disconnected one,
    the union of its components' certificates.

    A union member places one member of every component's family, and an
    attack moves only the guards of its component, as that component's
    row says; each target names the first post on its vertex.
    """
    report = eternal_number(g, k)
    if is_connected(g):
        return report.certificate
    parts = [(comp, r.certificate) for comp, r in zip(components(g), report.component_reports)]
    combos = list(product(*(range(len(c.family)) for _, c in parts)))
    index = {combo: i for i, combo in enumerate(combos)}

    def posts(combo):  # (vertex, component, guard) of every guard, sorted by vertex
        return sorted((comp[u], c, p) for c, ((comp, cert), i) in enumerate(zip(parts, combo))
                      for p, u in enumerate(cert.family[i]))

    family = tuple(tuple(u for u, _, _ in posts(combo)) for combo in combos)
    rows = []
    for combo, member in zip(combos, family):
        for v in range(g.n):
            c = next(c for c, (comp, _) in enumerate(parts) if v in comp)
            comp, cert = parts[c]
            j, *moves = cert.rows[combo[c] * len(comp) + comp.index(v)]
            nxt = combo[:c] + (j,) + combo[c + 1:]
            targets = [comp[cert.family[j][moves[p]]] if c2 == c else u
                       for u, c2, p in posts(combo)]
            rows.append([index[nxt], *map(family[index[nxt]].index, targets)])
    q = sum(cert.q for _, cert in parts)
    return EternalCertificate(k, q, family, rows)


KINDS = ["swap", "far", "collapse", "duplicate", "same-vertex", "borrow", "out-of-range",
         "unsorted", "undominating", "smaller-k"]


def mutated(g, cert, kinds, same_member, rng) -> EternalCertificate:
    """A copy of ``cert`` with one fault attempt per entry of ``kinds``.

    Row faults land on rows of one member when ``same_member`` (at
    different attacks, mostly), else on any member.  ``same-vertex`` keeps
    every row legal: each post becomes a post on the same vertex, which
    repeats posts where the successor repeats a vertex.
    """
    n, q, k, solved = g.n, cert.q, cert.k, cert.family
    dist = oracle_distances(g)
    family = list(solved)
    rows = [list(row) for row in cert.rows]

    def far(a, row, p):  # whether a guard on a walks past k to post p of row
        d = dist[a][solved[row[0]][row[p + 1]]]
        return d is None or d > k
    owner = rng.randrange(len(family))
    for kind in kinds:
        i = owner if same_member else rng.randrange(len(family))
        member, v = solved[i], rng.randrange(n)
        row = rows[i * n + v]
        succ = solved[row[0]]
        if kind == "swap" and q > 1:  # one long move with the multiset intact
            one_long = [(w, p, p2) for w in range(n) for p in range(q) for p2 in range(q)
                        if far(member[p], rows[i * n + w], p2)
                        and not far(member[p2], rows[i * n + w], p)]
            w, p, p2 = rng.choice(one_long) if one_long else (v, *rng.sample(range(q), 2))
            row = rows[i * n + w]
            row[p + 1], row[p2 + 1] = row[p2 + 1], row[p + 1]
        elif kind == "far":  # one guard to the successor's farthest post
            p = rng.randrange(q)
            away = [n + 1 if d is None else d for d in dist[member[p]]]
            row[p + 1] = max(range(q), key=lambda t: away[succ[t]])
        elif kind == "collapse":  # every guard to one post
            row[1:] = [rng.randrange(q)] * q
        elif kind == "duplicate":  # a short move onto another vertex: a wrong multiset
            short = [(p, t) for p in range(q) for t in range(q)
                     if succ[t] != succ[row[p + 1]] and dist[member[p]][succ[t]] is not None
                     and dist[member[p]][succ[t]] <= k]
            if short:
                p, t = rng.choice(short)
                row[p + 1] = t
        elif kind == "same-vertex":
            repeats = [r for r, other in enumerate(rows)
                       if len(set(solved[other[0]])) < q]
            row = rows[rng.choice(repeats)] if repeats else row
            succ = solved[row[0]]
            row[1:] = [rng.choice([s for s in range(q) if succ[s] == succ[t]])
                       for t in row[1:]]
        elif kind == "borrow":  # another attack's answer: short moves, v unoccupied
            elsewhere = [w for w in range(n) if v not in solved[rows[i * n + w][0]]]
            if elsewhere:
                rows[i * n + v] = list(rows[i * n + rng.choice(elsewhere)])
        elif kind == "out-of-range":
            family[i] = member[:-1] + (rng.choice([n, n + 3]),)
        elif kind == "unsorted":
            family[i] = member[::-1]
        elif kind == "undominating":
            family[i] = (member[0],) * q
        elif kind == "smaller-k" and k > 1:
            k -= 1
    return cert._replace(k=k, family=tuple(family), rows=rows)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(n=st.integers(1, 9), extra=st.floats(0.0, 0.5), rng=st.randoms(use_true_random=False),
       connected=st.booleans(), k=st.integers(1, 4),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
       same_member=st.booleans())
def test_checker_agrees_with_the_row_scan(n, extra, rng, connected, k, kinds, same_member):
    # k reaches the diameter of many of these graphs and passes it on some; two
    # faults in one certificate pin which one each checker reports first.
    g = random_graph(n, extra, rng, connected)
    cert = solved_certificate(g, k)
    assert verify_certificate(g, cert) == reference_verify(g, cert) == (True, None)
    broken = mutated(g, cert, kinds, same_member, rng)
    assert verify_certificate(g, broken) == reference_verify(g, broken)
