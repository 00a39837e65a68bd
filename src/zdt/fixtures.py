"""Named fixture posets and the documented fixture expectations.

LADDER(k, m) truncates the poset made of an ascending chain sitting below two
disjoint descending chains (full bipartite order between the chain and both
branches).  EX5(k) truncates the poset of k naturals below a,b,c,d and a top,
with c above a and b, and d incomparable to a, b, c.  All expectations on
these truncations are oracle-derived; the infinite originals behave
differently in places and are out of scope.
"""

from __future__ import annotations

from zdt import continuity as ct, poset as ps, topology as tp
from zdt.reports import CheckResult, ClaimReport
from zdt.systems import DIRECTED, FINITE


def chain(k):
    labels = ps.default_labels(k)
    return ps.from_order_pairs(labels, [(labels[i], labels[i + 1]) for i in range(k - 1)])


def antichain(k):
    return ps.from_order_pairs(ps.default_labels(k), [])


def vee():
    return ps.from_order_pairs(["a", "b", "c"], [("a", "c"), ("b", "c")])


def wedge():
    """Λ: a bottom below two incomparable points."""
    return ps.from_order_pairs(["o", "a", "b"], [("o", "a"), ("o", "b")])


def diamond():
    return ps.from_order_pairs(
        ["o", "a", "b", "t"], [("o", "a"), ("o", "b"), ("a", "t"), ("b", "t")]
    )


def twin():
    return ps.from_order_pairs(
        ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )


def fan3():
    return ps.from_order_pairs(
        ["a", "b", "x", "t"], [("a", "t"), ("b", "t"), ("x", "t")]
    )


def ladder(k, m):
    """k-chain fully below two disjoint inverted m-chains."""
    cs = [f"c{i}" for i in range(1, k + 1)]
    ls = [f"l{i}" for i in range(1, m + 1)]
    rs = [f"r{i}" for i in range(1, m + 1)]
    pairs = [(cs[i], cs[i + 1]) for i in range(k - 1)]
    # li descends: l1 on top, lm at the bottom of the branch
    pairs += [(ls[i + 1], ls[i]) for i in range(m - 1)]
    pairs += [(rs[i + 1], rs[i]) for i in range(m - 1)]
    pairs += [(c, t) for c in cs for t in ls + rs]
    return ps.from_order_pairs(cs + ls + rs, pairs)


def ex5(k):
    """k-chain of naturals below a,b,c,d and a top; c over a,b; d apart."""
    ns = [f"n{i}" for i in range(1, k + 1)]
    pairs = [(ns[i], ns[i + 1]) for i in range(k - 1)]
    pairs += [(n, u) for n in ns for u in ("a", "b", "c", "d")]
    pairs += [("a", "c"), ("b", "c")]
    pairs += [(u, "top") for u in ("a", "b", "c", "d")]
    return ps.from_order_pairs(ns + ["a", "b", "c", "d", "top"], pairs)


FIXTURES = {
    "CHAIN3": lambda: chain(3),
    "ANTI2": lambda: antichain(2),
    "VEE": vee,
    "WEDGE": wedge,
    "DIAMOND": diamond,
    "TWIN": twin,
    "FAN3": fan3,
    "LADDER32": lambda: ladder(3, 2),
    "EX5_3": lambda: ex5(3),
}


def run_fixture_suite():
    """The documented fixture expectations, as a list of claim reports."""
    reports = []

    P = fan3()
    r = ClaimReport("fixture-fan3-weakly-meet", "finite")
    w = ct.weakly_meet_witness(P, FINITE)
    xi = P.index("x")
    dmask = P.mask_of(["a", "b"])
    recorded_pair_fails = (
        (ps.cut(P, dmask) >> xi) & 1
        and not (
            tp.closure_subbasic(P, FINITE, P.down[xi] & ps.down_set(P, dmask)) >> xi
        )
        & 1
    )
    if w is not None and recorded_pair_fails:
        r.record(CheckResult.holds(), P)
    else:
        r.record(CheckResult.fails(witness=w), P)
    reports.append(r)

    L = ladder(3, 2)
    conds = tp.lh_conditions(L, FINITE)
    r = ClaimReport("fixture-ladder-lh-3-not-5", "finite")
    if conds["3"] and not conds["5"]:
        r.record(CheckResult.holds(), L)
    else:
        r.record(CheckResult.fails(conditions=conds), L)
    reports.append(r)

    r = ClaimReport("fixture-ladder-relative-cut", "finite")
    e = L.mask_of(["c1", "c2", "c3"])
    a = L.down[L.index("l1")]
    rel = ps.relative_cut(L, e, a)
    if rel == ps.cut(L, e) == L.mask_of(["c1", "c2", "c3"]):
        r.record(CheckResult.holds(), L)
    else:
        r.record(CheckResult.fails(relative=L.names(rel)), L)
    reports.append(r)

    V = vee()
    r = ClaimReport("fixture-vee-compacts", "directed")
    k = ct.kz_compacts(V, DIRECTED)
    if k == V.mask_of(["a", "b"]):
        r.record(CheckResult.holds(), V)
    else:
        r.record(CheckResult.fails(compacts=V.names(k)), V)
    reports.append(r)

    E = ex5(3)
    r = ClaimReport("fixture-ex5-compacts", "directed")
    k = ct.kz_compacts(E, DIRECTED)
    expected = E.mask_of(["n1", "n2", "n3", "d"])
    if k == expected:
        r.record(CheckResult.holds(), E)
    else:
        r.record(CheckResult.fails(compacts=E.names(k)), E)
    reports.append(r)

    # on EX5 the relative cut over the compacts and the plain cut intersected
    # with the compacts coincide for the naturals (both are the chain itself:
    # its top n3 is one of the bounds); the divergence of the infinite
    # original needs the chain to lack a maximum and cannot appear here
    r = ClaimReport("fixture-ex5-relative-cut", "directed")
    naturals = E.mask_of(["n1", "n2", "n3"])
    k = ct.kz_compacts(E, DIRECTED)
    rel = ps.relative_cut(E, naturals, k)
    plain = ps.cut(E, naturals) & k
    if rel == plain == naturals:
        r.record(CheckResult.holds(), E)
    else:
        r.record(
            CheckResult.fails(relative=E.names(rel), intersected=E.names(plain)), E
        )
    reports.append(r)

    return reports
