"""The Z-way-below and Z-beneath relations and every continuity checker.

Checkers come in pairs: ``*_witness`` returns None when the property holds and
a labeled counterexample dict otherwise (first in canonical iteration order);
the ``is_*`` wrapper just tests for None.
"""

from __future__ import annotations

from functools import lru_cache

from zdt import poset as ps, systems as zs, topology as tp
from zdt.reports import CheckResult


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def _member_cut_pairs(P, system):
    """(I, I^δ) for every I in I_Z(P); a member S has the cut of ↓S."""
    return tuple((d, ps.cut(P, d)) for d in system.member_ideals(P))


def way_below_sets(P, system, a_mask, b_mask):
    """A ≪_Z B: every member whose cut meets ↑B itself meets ↑A.

    A member S meets the up-set ↑A iff ↓S does, and S^δ = (↓S)^δ.  So
    A ≪_Z B iff ↑B misses the union of the cuts of the member ideals that
    miss ↑A.
    """
    return not ps.up_set(P, b_mask) & _wb(P, system, ps.up_set(P, a_mask))


@lru_cache(maxsize=200_000)
def _wb(P, system, up_a):
    """⋃{D^δ : D ∈ I_Z(P), D ∩ ↑A = ∅}, the points x with A not ≪_Z x.

    It depends on A only through ↑A, which keys the memo table.  It is a
    union of lower sets, so it meets ↑B iff it meets B.
    """
    out = 0
    for d, c in _member_cut_pairs(P, system):
        if not d & up_a:
            out |= c
    return out


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def _dd_all(P, system):
    """↟_Z x for every x, as a tuple of masks.

    y ≪_Z x iff every member ideal D with x ∈ D^δ meets ↑y, and a lower set
    D meets ↑y iff y ∈ D; so ↟_Z x = ⋂{D ∈ I_Z(P) : x ∈ D^δ}.
    """
    out = []
    for x in range(P.n):
        m = P.full
        for d, c in _member_cut_pairs(P, system):
            if (c >> x) & 1:
                m &= d
        out.append(m)
    return tuple(out)


def dd_set(P, system, x):
    """↟_Z x = {y : y ≪_Z x}."""
    return _dd_all(P, system)[x]


def uu_set(P, system, a_mask):
    """⇑_Z A = {x : A ≪_Z x}, the points outside ``_wb`` of ↑A."""
    return P.full & ~_wb(P, system, ps.up_set(P, a_mask))


def wb_above(P, system, a_mask):
    """⇟_Z A = {p : a ≪_Z p for some a ∈ A}."""
    dd = _dd_all(P, system)
    out = 0
    for p in range(P.n):
        if dd[p] & a_mask:
            out |= 1 << p
    return out


# -- continuity ---------------------------------------------------------


def weak_s_z_witness(P, system):
    dd = _dd_all(P, system)
    for x in range(P.n):
        if not (ps.cut(P, dd[x]) >> x) & 1:
            return {"element": P.labels[x], "waybelow_set": P.names(dd[x])}
    return None


def is_weak_s_z_continuous(P, system):
    return weak_s_z_witness(P, system) is None


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def _member_ideals(P, system):
    """I_Z(P) = {↓S : S ∈ Z(P)}."""
    return frozenset(system.member_ideals(P))


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def s_z_witness(P, system):
    """The first element whose way-below set fails s_Z-continuity, or None.

    Computed once per (P, system); every caller shares the dict it returns.
    """
    w = weak_s_z_witness(P, system)
    if w is not None:
        return w
    ideals = _member_ideals(P, system)
    for x in range(P.n):
        if dd_set(P, system, x) not in ideals:
            return {
                "element": P.labels[x],
                "waybelow_set": P.names(dd_set(P, system, x)),
                "reason": "not the down-closure of any member",
            }
    return None


def is_s_z_continuous(P, system):
    return s_z_witness(P, system) is None


def quasicontinuity_witness(P, system):
    """The first p whose ω-family {↑F : F ≪_Z p} is not a member of
    Z(Fin P), or does not meet in ↑p; None when there is none.

    F ≪_Z p depends on F only through ↑F, and every nonempty up-set U is
    ↑U.  So the families are built in one pass over the points of Fin P:
    each U joins the family of every p outside ``_wb`` of U.
    """
    fp = ps.fin_poset(P)
    families = [0] * P.n
    for i, u in enumerate(fp.sets):
        above = P.full & ~_wb(P, system, u)
        while above:
            low = above & -above
            above ^= low
            families[low.bit_length() - 1] |= 1 << i
    for p, fam in enumerate(families):
        if not system.contains(fp.poset, fam):
            return {"element": P.labels[p], "reason": "ω-family not a member of Z(Fin P)"}
        inter = P.full
        for i in ps.bits(fam):
            inter &= fp.sets[i]
        if inter != P.up[p]:
            return {
                "element": P.labels[p],
                "family_intersection": P.names(inter),
                "expected": P.names(P.up[p]),
            }
    return None


def is_s_z_quasicontinuous(P, system):
    return quasicontinuity_witness(P, system) is None


# -- meet continuity ----------------------------------------------------


def _meet_closure_failure(P, system, closure):
    """The first x with some member D, x ∈ D^δ and x outside closure(↓x ∩ ↓D),
    and every member ideal ↓D that fails at x; None when no x fails.

    Both conditions read D only through ↓D, since D^δ = (↓D)^δ.
    """
    pairs = _member_cut_pairs(P, system)
    for x in range(P.n):
        failing = {
            d
            for d, cut_mask in pairs
            if (cut_mask >> x) & 1
            # x ∈ ↓D lands inside the closed-over set at once
            and not (d >> x) & 1
            and not (closure(P, system, P.down[x] & d) >> x) & 1
        }
        if failing:
            return x, failing
    return None


def _failure_witness(P, system, failure):
    """Name the element of an (x, failing ideals) failure and the first
    member in mask order whose down-set fails there: the pair an x-major,
    mask-order search over Z(P) would stop at."""
    if failure is None:
        return None
    x, ideals = failure
    return {
        "element": P.labels[x],
        "member": P.names(zs.first_member(P, system, ideals)),
    }


def weakly_meet_witness(P, system):
    """First (x, D), x-major and D in mask order, with x ∈ D^δ and x outside
    the subbasic closure of ↓x ∩ ↓D, or None."""
    failure = _meet_closure_failure(P, system, tp.closure_subbasic)
    return _failure_witness(P, system, failure)


def is_weakly_meet(P, system):
    return _meet_closure_failure(P, system, tp.closure_subbasic) is None


def meet_witness(P, system):
    """As ``weakly_meet_witness``, with the closure of the generated topology."""
    failure = _meet_closure_failure(P, system, tp.closure_topological)
    return _failure_witness(P, system, failure)


def weakly_meet_upsets_witness(P, system):
    """↑(↓x ∩ U) must be subbasic open for every x and subbasic open U."""
    gamma = tp.gamma_subbasis(P, system)
    for x in range(P.n):
        for u in gamma.opens:
            lifted = ps.up_set(P, P.down[x] & u)
            if not gamma.is_open(lifted):
                return {"element": P.labels[x], "open_set": P.names(u)}
    return None


def weakly_meet_via_upsets(P, system):
    return weakly_meet_upsets_witness(P, system) is None


def locally_weakly_meet_witness(P, system):
    for x, sub in enumerate(ps.principal_downs(P)):
        w = weakly_meet_witness(sub.poset, system)
        if w is not None:
            return {"principal": P.labels[x], **w}
    return None


def is_locally_weakly_meet(P, system):
    return locally_weakly_meet_witness(P, system) is None


def _distribution_failure(P, system, meets):
    """The first x with some member ideal I, x ∧ sup I ≠ sup {x ∧ e : e ∈ I},
    and every such I; None when meets distribute over all member sups.

    Checked on I_Z(P) in place of Z(P): sup S = sup ↓S, and each x ∧ e with
    e ∈ ↓S lies below x ∧ s for some s ∈ S, so {x ∧ e : e ∈ ↓S} has the same
    upper bounds, hence the same sup, as {x ∧ e : e ∈ S}.
    """
    sups = [(d, ps.sup_of(P, d)) for d in system.member_ideals(P)]
    for x in range(P.n):
        failing = set()
        for d, sup_d in sups:
            image = 0
            for e in ps.bits(d):
                image |= 1 << meets[x, e]
            if ps.sup_of(P, image) != meets[x, sup_d]:
                failing.add(d)
        if failing:
            return x, failing
    return None


def semilattice_meet_check(P, system):
    """On Z-complete meet-semilattices: weak meet continuity ⟺ meets distribute.

    Inapplicable unless all binary meets and all member sups exist.
    """
    meets = {}
    for i in range(P.n):
        for j in range(i, P.n):
            m = ps.inf_of(P, (1 << i) | (1 << j))
            if m is None:
                return CheckResult.inapplicable(
                    reason=f"no meet for {P.labels[i]},{P.labels[j]}"
                )
            meets[i, j] = meets[j, i] = m
    missing = zs.zcpo_witness(P, system)
    if missing is not None:
        return CheckResult.inapplicable(reason=f"no sup for member {missing['member']}")
    failure = _distribution_failure(P, system, meets)
    law = failure is None
    wm = is_weakly_meet(P, system)
    if wm == law:
        return CheckResult.holds()
    return CheckResult.fails(
        weakly_meet=wm,
        distribution_law=law,
        law_witness=_failure_witness(P, system, failure),
    )


def interior_lemma_check(P, system):
    """int(↑F) ⊆ ⋃{⇟_Z x : x ∈ F} on weakly meet posets, all nonempty F."""
    if not is_weakly_meet(P, system):
        return CheckResult.inapplicable(reason="not weakly meet")
    for f in range(1, P.full + 1):
        inside = tp.interior_subbasic(P, system, ps.up_set(P, f))
        if inside & ~wb_above(P, system, f):
            return CheckResult.fails(
                finite_set=P.names(f),
                interior=P.names(inside),
                union_wb=P.names(wb_above(P, system, f)),
            )
    return CheckResult.holds()


def uu_eq_wbabove_check(P, system):
    """⇑_Z F = ⇟_Z F under weak meet continuity plus quasicontinuity."""
    if not is_weakly_meet(P, system):
        return CheckResult.inapplicable(reason="not weakly meet")
    if not is_s_z_quasicontinuous(P, system):
        return CheckResult.inapplicable(reason="not quasicontinuous")
    for f in range(1, P.full + 1):
        a = uu_set(P, system, f)
        b = wb_above(P, system, f)
        if a != b:
            return CheckResult.fails(
                finite_set=P.names(f), uu=P.names(a), wb_above=P.names(b)
            )
    return CheckResult.holds()


def separation_witness(P, system):
    """A pair x ≰ y that no disjoint (σ^Z, ω) open pair separates, if any.

    The ω-open sets are the lower sets, so ↓y is the least one around y, and
    a σ^Z-open U ∋ x misses some ω-open V ∋ y iff it misses ↓y.  Such a U
    exists iff x lies outside the subbasic closure of ↓y.  (↓y is itself
    subbasic closed, so every finite poset separates; the check stays
    literal to the definition.)
    """
    gamma = tp.gamma_subbasis(P, system)
    hulls = [gamma.closure(P.down[y]) for y in range(P.n)]
    for x in range(P.n):
        for y in range(P.n):
            if not P.leq(x, y) and (hulls[y] >> x) & 1:
                return {"above": P.labels[x], "below": P.labels[y]}
    return None


def has_separation(P, system):
    return separation_witness(P, system) is None


# -- beneath relation ---------------------------------------------------


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def _beneath_all(P, system):
    """beneath_set(y) for every y: ⋂ of nonempty subbasic closed A with y ∈ A^δ."""
    closed = [a for a in tp.gamma_subbasis(P, system).closed if a]
    cuts = [(a, ps.cut(P, a)) for a in closed]
    out = []
    for y in range(P.n):
        acc = P.full
        for a, c in cuts:
            if (c >> y) & 1:
                acc &= a
        out.append(acc)
    return tuple(out)


def beneath(P, system, x, y):
    """x ≺_Z y: every nonempty subbasic closed set whose cut captures y holds x."""
    return bool((_beneath_all(P, system)[y] >> x) & 1)


def beneath_set(P, system, y):
    return _beneath_all(P, system)[y]


def preserves_beneath(table, dom, cod, system):
    """x ≺_Z y in ``dom`` implies table[x] ≺_Z table[y] in ``cod``, for a
    monotone ``table``.

    Only the maximal points x of each beneath_set(y) are checked.  The set
    beneath_set(table[y]) is an intersection of Γ^Z-closed sets, which are
    lower sets, or the whole carrier, so it is a lower set.  Every point of
    the finite beneath_set(y) lies below one of its maximal points x, and a
    monotone table sends it below table[x]; so it lands in that lower set
    whenever table[x] does.  On a table that is not monotone the check can
    miss a failure.
    """
    ben_cod = _beneath_all(cod, system)
    tops = ps.maxima(dom, _beneath_all(dom, system))
    for xs, v in zip(tops, table):
        allowed = ben_cod[v]
        for x in xs:
            if not (allowed >> table[x]) & 1:
                return False
    return True


def delta_z_witness(P, system):
    ben = _beneath_all(P, system)
    for a in range(P.n):
        if not (ps.cut(P, ben[a]) >> a) & 1:
            return {"element": P.labels[a], "beneath_set": P.names(ben[a])}
    return None


def is_delta_z_continuous(P, system):
    return delta_z_witness(P, system) is None


def kz_compacts(P, system):
    """k_Z(P) = {x : x ≺_Z x}: no nonempty Γ^Z-closed A misses x while its
    cut captures x.

    Where every D ∈ I_Z(P) has cut(D) = D, as for the principal ideals and
    on a chain, no member constrains a lower set, so Γ^Z(P) is every lower
    set.  A lower set misses x iff it lies inside U = P ∖ ↑x, itself a
    lower set, and cut is monotone; so x is compact iff U is empty or
    x ∉ cut(U).  That takes n cuts in place of the beneath table, which
    enumerates Γ^Z(P).  A principal ideal ↓y is its own cut, as y is its
    sup, so only the other member ideals need one.
    """
    principal = set(P.down)
    if all(d in principal or ps.cut(P, d) == d for d in system.member_ideals(P)):
        out = 0
        for x in range(P.n):
            outside = P.full & ~P.up[x]
            if not outside or not (ps.cut(P, outside) >> x) & 1:
                out |= 1 << x
        return out
    ben = _beneath_all(P, system)
    out = 0
    for x in range(P.n):
        if (ben[x] >> x) & 1:
            out |= 1 << x
    return out


def prealgebraic_witness(P, system):
    k = kz_compacts(P, system)
    for x in range(P.n):
        if not (ps.cut(P, k & P.down[x]) >> x) & 1:
            return {"element": P.labels[x], "compact_below": P.names(k & P.down[x])}
    return None

