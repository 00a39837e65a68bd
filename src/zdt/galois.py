"""Galois connections between finite posets and their interaction with cuts.

Orientation: a connection is a pair of monotone maps d : T -> S (lower
adjoint) and g : S -> T (upper adjoint) with d(a) <= y iff a <= g(y).  Both
are function tables: ``d[a]`` is a point of S and ``g[y]`` a point of T.
"""

from __future__ import annotations

from functools import lru_cache

from zdt import poset as ps, topology as tp
from zdt.continuity import preserves_beneath


def upper_adjoint(T, S, d):
    """The table g with d ⊣ g: g(y) is the greatest point of {a : d[a] ≤ y},
    the preimage of ↓y; None if some preimage has no greatest point."""
    g = []
    for y in range(S.n):
        below = S.down[y]
        preimage = 0
        for a, v in enumerate(d):
            if (below >> v) & 1:
                preimage |= 1 << a
        top = ps.greatest_of(T, preimage)
        if top is None:
            return None
        g.append(top)
    return tuple(g)


def enumerate_galois_connections(T, S):
    """All connections (d, g) between the two posets, as table pairs, by d's
    table order.

    None depends on a subset system, so they are found once per (T, S)."""
    yield from _connections(T, S)


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def _connections(T, S):
    out = []
    for d in ps.map_tables(T, S):
        g = upper_adjoint(T, S, d)
        if g is not None:
            out.append((d, g))
    return tuple(out)


def lower_preserves_cuts(T, S, d):
    """d(A^δ) ⊆ d(A)^δ for every subset A of T, on the cut tables of T and S."""
    return tp.preserves_hulls(
        tp.subset_images(d),
        enumerate(ps.cut_table(T)),
        ps.cut_table(S),
    )


def upper_image_closed(T, S, g, system):
    """↓g(C) is subbasic closed in T for every subbasic closed C of S."""
    images = tp.subset_images(g)
    gamma_t = tp.gamma_subbasis(T, system)
    for c in tp.gamma_subbasis(S, system).closed:
        if not gamma_t.is_closed(ps.down_set(T, images[c])):
            return False
    return True


def upper_preserves_closed_cuts(T, S, g, system):
    """g(A^δ) ⊆ g(A)^δ for every nonempty subbasic closed A of S.

    Nonemptiness matches the beneath relation's quantification; with A = ∅
    the cut is the set of bottoms and the equivalence with beneath
    preservation would fail on constant connections.
    """
    images = tp.subset_images(g)
    for a in tp.gamma_subbasis(S, system).closed:
        if a == 0:
            continue
        if images[ps.cut(S, a)] & ~ps.cut(T, images[a]):
            return False
    return True


def lower_preserves_beneath(T, S, d, system):
    """x ≺_Z y in T implies d(x) ≺_Z d(y) in S, for a monotone table d, as
    every lower adjoint is.

    It reads only the maximal points x of each beneath set ↓≺_Z(y) of T
    (``continuity.preserves_beneath``): ↓≺_Z(d(y)) is a lower set of S, as
    an intersection of Γ^Z-closed sets or the carrier, and each point of
    ↓≺_Z(y) lies below some such x, which monotone d preserves.  So d(x) in
    ↓≺_Z(d(y)) for those x puts the whole image there."""
    return preserves_beneath(d, T, S, system)
