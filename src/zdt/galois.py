"""Galois connections between finite posets and their interaction with cuts.

Orientation: a connection is a pair of monotone maps d : T -> S (lower
adjoint) and g : S -> T (upper adjoint) with d(a) <= y iff a <= g(y).
"""

from __future__ import annotations

from functools import lru_cache

from zdt import poset as ps, topology as tp
from zdt.continuity import is_delta_z_continuous, preserves_beneath
from zdt.reports import CheckResult


class GaloisConnection:
    """A lower/upper adjoint pair; validity is checked by ``check_galois``."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        if lower.dom != upper.cod or lower.cod != upper.dom:
            raise ValueError("adjoint pair domains do not line up")
        self.lower = lower  # d : T -> S
        self.upper = upper  # g : S -> T

    @property
    def t(self):
        return self.lower.dom

    @property
    def s(self):
        return self.lower.cod

    def __repr__(self):
        return f"GaloisConnection(d={self.lower!r}, g={self.upper!r})"


def check_galois(gc):
    """d(a) <= y iff a <= g(y), over all pairs."""
    d, g = gc.lower, gc.upper
    T, S = gc.t, gc.s
    for a in range(T.n):
        da = d(a)
        for y in range(S.n):
            if S.leq(da, y) != T.leq(a, g(y)):
                return False
    return True


def upper_adjoint_of(d):
    """g with d ⊣ g, i.e. g(y) = max{a : d(a) <= y}, the greatest point of the
    preimage of ↓y, or None if some max is missing."""
    T, S = d.dom, d.cod
    table = []
    for y in range(S.n):
        top = ps.greatest_of(T, d.preimage(S.down[y]))
        if top is None:
            return None
        table.append(top)
    return ps.MonotoneMap(S, T, table, _trusted=True)


def enumerate_galois_connections(T, S):
    """All connections (d, g) between the two posets, by d's table order.

    None depends on a subset system, so they are found once per (T, S)."""
    yield from _connections(T, S)


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def _connections(T, S):
    out = []
    for d in ps.enumerate_monotone_maps(T, S):
        g = upper_adjoint_of(d)
        if g is not None:
            out.append(GaloisConnection(d, g))
    return tuple(out)


def lower_preserves_cuts(gc):
    """d(A^δ) ⊆ d(A)^δ for every subset A of T, on the cut tables of T and S."""
    return tp.preserves_hulls(
        tp.subset_images(gc.lower.table),
        enumerate(ps.cut_table(gc.t)),
        ps.cut_table(gc.s),
    )


def upper_image_closed(gc, system):
    """↓g(C) is subbasic closed in T for every subbasic closed C of S."""
    g = gc.upper
    T = gc.t
    gamma_t = tp.gamma_subbasis(T, system)
    for c in tp.gamma_subbasis(gc.s, system).closed:
        if not gamma_t.is_closed(ps.down_set(T, g.image(c))):
            return False
    return True


def upper_preserves_closed_cuts(gc, system):
    """g(A^δ) ⊆ g(A)^δ for every nonempty subbasic closed A of S.

    Nonemptiness matches the beneath relation's quantification; with A = ∅
    the cut is the set of bottoms and the equivalence with beneath
    preservation would fail on constant connections.
    """
    g = gc.upper
    T, S = gc.t, gc.s
    for a in tp.gamma_subbasis(S, system).closed:
        if a == 0:
            continue
        if g.image(ps.cut(S, a)) & ~ps.cut(T, g.image(a)):
            return False
    return True


def lower_preserves_beneath(gc, system):
    """x ≺_Z y in T implies d(x) ≺_Z d(y) in S."""
    return preserves_beneath(gc.lower.table, gc.t, gc.s, system)


def galois_lemma_suite(gc, system):
    """Cut preservation, closed-image, and the beneath-implication pattern.

    Clause (iii) demands (1)⇒(2) always, and (2)⇒(1) when T is δ_Z-continuous.
    """
    if not check_galois(gc):
        return CheckResult.inapplicable(reason="not a Galois connection")
    clause_cut = lower_preserves_cuts(gc)
    clause_closed = upper_image_closed(gc, system)
    cond1 = upper_preserves_closed_cuts(gc, system)
    cond2 = lower_preserves_beneath(gc, system)
    pattern = (not cond1 or cond2) and (
        not is_delta_z_continuous(gc.t, system) or not cond2 or cond1
    )
    if clause_cut and clause_closed and pattern:
        return CheckResult.holds()
    return CheckResult.fails(
        lower_preserves_cuts=clause_cut,
        upper_image_closed=clause_closed,
        closed_cut_condition=cond1,
        beneath_condition=cond2,
    )
