"""The closed-family lattice functor, its right adjoint on compacts, the
induced monad, and Eilenberg-Moore algebra checks.

Objects: ``gamma_lattice(P, Z)`` is Γ^Z(P) under inclusion (a complete
lattice); ``delta_object(P, Z)`` is its poset of Z-compact elements, the value
of the composite endofunctor on P.  The unit sends p to ↓p; the
multiplication sends a family of compacts to the closure of its union.  The
unit, the multiplication, the counit and the algebra structure maps are
function tables: tuples of indices into their codomains.
"""

from __future__ import annotations

from functools import lru_cache

from zdt import poset as ps, topology as tp
from zdt.continuity import (
    beneath_set,
    kz_compacts,
    prealgebraic_witness,
    preserves_beneath,
)
from zdt.errors import SizeCapError, SupMissingError, ZdtError
from zdt.reports import CheckResult
from zdt.systems import CONNECTED, FINITE, family_poset


class GammaLattice:
    """Γ^Z(P) as an inclusion-ordered complete lattice."""

    __slots__ = ("base", "system", "elements", "poset", "index")

    def __init__(self, base, system, elements, poset):
        self.base = base
        self.system = system
        self.elements = elements
        self.poset = poset
        self.index = {m: i for i, m in enumerate(elements)}

    def sup(self, idx_mask):
        """Sup of a set of lattice elements: the closure of their union."""
        union = 0
        for i in ps.bits(idx_mask):
            union |= self.elements[i]
        return self.index[tp.closure_subbasic(self.base, self.system, union)]

    def __repr__(self):
        return f"GammaLattice({self.base!r}, {self.system.name}, {len(self.elements)})"


class DeltaObject:
    """The Z-compact members of Γ^Z(P), still ordered by inclusion.

    ``points[i]`` lists the points of P in ``sets[i]``; ``covers`` holds the
    cover pairs of ``poset``; ``unit`` is the table of η_P, the index of ↓p
    for each point p.
    """

    __slots__ = ("base", "system", "sets", "poset", "index", "points", "covers", "unit")

    def __init__(self, base, system, sets, poset):
        self.base = base
        self.system = system
        self.sets = sets
        self.poset = poset
        self.index = {m: i for i, m in enumerate(sets)}
        self.points = tuple(tuple(ps.bits(m)) for m in sets)
        self.covers = tuple(ps.covers(poset))

    def __repr__(self):
        return f"DeltaObject({self.base!r}, {self.system.name}, {len(self.sets)})"


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def gamma_lattice(P, system):
    elements = tp.gamma_subbasis(P, system).closed
    poset = family_poset(P, elements)
    if P.full not in elements:
        raise ZdtError("closed family misses the carrier")
    members = set(elements)
    for a in elements:
        for b in elements:
            if a & b not in members:
                raise ZdtError("closed family not intersection-closed")
    return GammaLattice(P, system, elements, poset)


def check_gamma_lattice(L):
    """Completeness plus prealgebraicity of a computed Γ-lattice.

    Every subfamily needs a lattice sup equal to the closure of its union.
    The empty family, the singletons and the pairs suffice: closure(A ∪ B) =
    closure(closure(A) ∪ B), and the upper bounds of A ∪ {b} are those of
    {sup A, b}, so a family's sups reduce to a pair's by induction on its size.
    """
    for fam in _small_families(L.poset.n):
        s = ps.sup_of(L.poset, fam)
        if s is None or L.sup(fam) != s:
            return CheckResult.fails(subfamily=fam, reason="sup mismatch")
    w = prealgebraic_witness(L.poset, L.system)
    if w is not None:
        return CheckResult.fails(**w)
    return CheckResult.holds()


def _small_families(n):
    """The families of at most two of n elements, as ascending masks."""
    yield 0
    for j in range(n):
        top = 1 << j
        yield top
        for i in range(j):
            yield top | (1 << i)


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def delta_object(P, system):
    """δ(P): the compacts of Γ^Z(P), with the unit's table, read off the
    Γ-lattice L by the closed forms proved here; ``kz_compacts`` of L is
    the definition, and ``tests/oracles.delta_by_compacts`` builds it.

    - ``finite``, ``connected``: all of Γ^Z(P), so δ(P) is L itself.  In a
      finite lattice every nonempty lower set holds the bottom, so it is
      connected and in I_Z; a nonempty closed A is then a member ideal, so
      cut(A) ⊆ A, and no A misses a point that its cut captures: every
      point is compact.
    - ``singletons``, ``chains``, ``directed`` and the ``PRINCIPAL_IDEALS``
      view: ∅ and the ↓p, in L's order, with L's order restricted to them,
      which has the labels and inclusion rows that ``family_poset(P, sets)``
      would build.  On a finite Q, I_Z(Q) is the principal ideals, each its
      own cut, so Γ^Z(Q) is every lower set; by the closed form of
      ``kz_compacts``, one with two or more maximal points m is the join of
      the ↓m inside it, none of which holds it, so it is not compact, while
      ∅ and the ↓p are.
    """
    L = gamma_lattice(P, system)
    if system in (FINITE, CONNECTED):
        obj = DeltaObject(P, system, L.elements, L.poset)
    else:
        keep = {0, *P.down}
        k = sum(1 << i for i, m in enumerate(L.elements) if m in keep)
        sets = tuple(m for m in L.elements if m in keep)
        obj = DeltaObject(P, system, sets, ps.restrict(L.poset, k).poset)
    unit = []
    for p in range(P.n):
        i = obj.index.get(P.down[p])
        if i is None:
            raise ZdtError(
                f"principal ideal of {P.labels[p]} is not compact; unit ill-typed"
            )
        unit.append(i)
    obj.unit = tuple(unit)
    return obj


def eta(P, system):
    """The unit at P as a table, p ↦ ↓p, an order embedding into δ(P)."""
    return delta_object(P, system).unit


class _CompactIndex(dict):
    """The index in δ(P) of cl A, by mask A, or None where cl A is not
    compact; each entry is computed on its first lookup."""

    __slots__ = ("closure", "index")

    def __init__(self, closure, index):
        super().__init__()
        self.closure = closure
        self.index = index

    def __missing__(self, mask):
        i = self[mask] = self.index.get(self.closure(mask))
        return i


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def compact_index(P, system):
    """cl A as an index of δ(P) for each subset A of P, looked up by mask,
    None where cl A is not compact.  Built once per (P, system) and filled
    as it is read: a δ(P) of up to ``claims.LATTICE_CAP`` points is a
    codomain of δ too, and it has too many subsets to tabulate them all."""
    return _CompactIndex(
        tp.gamma_subbasis(P, system).closure, delta_object(P, system).index
    )


# the most points compact_table takes: 2^8 subsets; δ(Q) of a naturality
# codomain Q of at most three points has at most 2^3 points
COMPACT_TABLE_CAP = 8


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def compact_table(Q, system):
    """``compact_index`` over every subset of Q, as a tuple, and whether cl
    is monotone and reads each set only through its down-set: cl m ⊆ cl m'
    for m ⊆ m', for which the pairs m ⊂ m ∪ {q} suffice, and
    cl m = cl ↓m.  Both hold unless a closure is tampered with: cl m is the
    least closed set over m, and closed sets are lower sets.  While they
    do, every δf into Q is monotone, as A ⊆ B gives cl f(A) ⊆ cl f(B), and
    cl f(A) = cl f(max A) for a monotone f and a lower set A, as
    f(max A) ⊆ f(A) ⊆ ↓f(max A).  So the naturality pass folds δf and δδf
    at maximal points with no cover checks, and refuses a Q where a flag of
    Q or δ(Q) fails (``_naturality_failure``).  Q may have at most
    ``COMPACT_TABLE_CAP`` points."""
    if Q.n > COMPACT_TABLE_CAP:
        raise SizeCapError("compact_table", Q.n, COMPACT_TABLE_CAP)
    closures = tp.closure_table(Q, system)
    downs = [0] * len(closures)
    for m in range(1, len(closures)):
        low = m & -m
        downs[m] = downs[m ^ low] | Q.down[low.bit_length() - 1]
    foldable = all(
        closures[m] & ~closures[m | 1 << q] == 0
        for m in range(len(closures))
        for q in range(Q.n)
    ) and all(closures[d] == c for d, c in zip(downs, closures))
    index = delta_object(Q, system).index
    return tuple(index.get(c) for c in closures), foldable


def compacts_of(rows, values, compact):
    """The ``compact`` entry of each row's image, the mask of ``values`` at
    the row's points, in row order; stops before the first None, so a list
    shorter than ``rows`` ends where an image escapes the compacts."""
    out = []
    for row in rows:
        image = 0
        for p in row:
            image |= 1 << values[p]
        i = compact[image]
        if i is None:
            break
        out.append(i)
    return out


def _escape(dom, cod, system, a, values):
    """The witness of a compact set ``a`` of ``dom`` whose image under
    ``values`` does not close to a compact set of ``cod``."""
    image = 0
    for p in ps.bits(a):
        image |= 1 << values[p]
    closed = tp.closure_subbasic(cod, system, image)
    return {"of": dom.names(a), "image_closure": cod.names(closed)}


def delta_tables(dom, cod, system):
    """The endofunctor on function tables from ``dom`` to ``cod``: returns
    ``delta(values)``, the table A ↦ cl(f(A)) on the compacts and None, or
    None and a witness when some cl(f(A)) is not compact.  A table that
    breaks a cover pair raises ``NotMonotoneError`` (``poset.check_monotone``).

    It reads every point of each compact set and checks every cover pair,
    so it takes any table, monotone or not, and any closure; the naturality
    pass folds at maximal points (``_naturality_failure``)."""
    DP, DQ = delta_object(dom, system), delta_object(cod, system)
    compact = compact_index(cod, system)
    sets, points = DP.sets, DP.points

    def delta(values):
        table = compacts_of(points, values, compact)
        if len(table) < len(points):
            return None, _escape(dom, cod, system, sets[len(table)], values)
        ps.check_monotone(table, DP.poset, DQ.poset, DP.covers)
        return table, None

    return delta


def epsilon(L_poset, system):
    """The counit at a complete lattice: a closed family of compacts ↦ its sup.

    Returns the table from the Γ-lattice of the compact subposet into the
    lattice, by the index of each family there, together with that subposet.
    """
    k = kz_compacts(L_poset, system)
    sub = ps.restrict(L_poset, k)
    families = gamma_lattice(sub.poset, system)
    table = []
    for e in families.elements:
        s = ps.sup_of(L_poset, sub.to_parent(e))
        if s is None:
            raise SupMissingError("counit needs sups of compact families")
        table.append(s)
    table = tuple(table)
    ps.check_monotone(table, families.poset, L_poset, ps.covers(families.poset))
    return table, sub


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def mu(P, system):
    """The multiplication as a table δδ(P) -> δ(P), checked monotone once
    per (P, system): each family 𝒜 goes to cl(⋃𝒜), the least closed set
    over its members, so its sup wherever it lies in δ(P).  It always does
    (``delta_object``): on ``finite`` and ``connected`` δ(P) is Γ^Z(P); on
    the other three δδ(P) is ∅ and the ↓k for k in δ(P), whose unions are ∅
    and k.  A tampered closure that leaves δ(P) raises ``SupMissingError``.
    """
    D1 = delta_object(P, system)
    D2 = delta_object(D1.poset, system)
    compact = compact_index(P, system)
    table = []
    for fam in D2.sets:
        union = 0
        for i in ps.bits(fam):
            union |= D1.sets[i]
        s = compact[union]
        if s is None:
            raise SupMissingError(f"family {fam:#x} closes outside the compacts")
        table.append(s)
    table = tuple(table)
    ps.check_monotone(table, D2.poset, D1.poset, D2.covers)
    return table


# -- delta-cpos and Eilenberg-Moore algebras -----------------------------


def delta_cpo_witness(P, system):
    """The first compact closed set, as a subset of P, without a supremum in P."""
    for a in delta_object(P, system).sets:
        if ps.sup_of(P, a) is None:
            return {"closed_set": P.names(a), "reason": "no supremum"}
    return None


def is_delta_cpo(P, system):
    """Every compact closed set, as a subset of P, has a supremum in P."""
    return em_structure_map(P, system) is not None


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def em_structure_map(P, system):
    """The sup map as the algebra structure, a table δ(P) -> P checked
    monotone, present exactly on delta-cpos; built once per (P, system), as
    ``prop-em-morph`` reads it at every codomain of every domain."""
    d = delta_object(P, system)
    table = []
    for a in d.sets:
        s = ps.sup_of(P, a)
        if s is None:
            return None
        table.append(s)
    table = tuple(table)
    ps.check_monotone(table, d.poset, P, d.covers)
    return table


def em_laws(P, system):
    """Unit law, multiplication law, and σ^Z-continuity of a structure map,
    as a function of its table δ(P) -> P.  μ_P is built once, on the first
    table that passes the unit law, the first that needs it."""
    D1 = delta_object(P, system)
    eta_p = eta(P, system)
    continuous = tp.sigma_z_continuity(D1.poset, P, system)
    late = []

    def check(xi):
        for p, e in enumerate(eta_p):
            if xi[e] != p:
                return CheckResult.fails(law="unit", element=P.labels[p])
        if not late:
            late.extend((mu(P, system), delta_tables(D1.poset, P, system)))
        mu_p, delta_xi = late
        dxi, bad = delta_xi(xi)
        if dxi is None:
            return CheckResult.fails(law="multiplication", reason="δ(ξ) ill-typed", **bad)
        if [xi[m] for m in mu_p] != [xi[d] for d in dxi]:
            return CheckResult.fails(law="multiplication")
        if not continuous(xi):
            return CheckResult.fails(law="continuity")
        return CheckResult.holds()

    return check


# -- theorem-level verifications -----------------------------------------


def union_sup_check(P, system):
    """Sups in the Γ-lattice of its own closed families are plain unions."""
    L = gamma_lattice(P, system)
    for fam in tp.gamma_subbasis(L.poset, system).closed:
        union = 0
        for i in ps.bits(fam):
            union |= L.elements[i]
        if union not in L.index:
            return CheckResult.fails(
                family=[P.names(L.elements[i]) for i in ps.bits(fam)],
                union=P.names(union),
                reason="union escapes the closed family",
            )
        if ps.sup_of(L.poset, fam) != L.index[union]:
            return CheckResult.fails(
                family=[P.names(L.elements[i]) for i in ps.bits(fam)],
                union=P.names(union),
                reason="lattice sup differs from the union",
            )
    return CheckResult.holds()


def join_table(L_poset):
    """The bottom and the binary-join table of a finite lattice, by index.

    Raises SupMissingError when the order lacks a bottom or some binary join,
    i.e. when it is not a lattice.
    """
    bottom = ps.sup_of(L_poset, 0)
    join = [
        [ps.sup_of(L_poset, (1 << i) | (1 << j)) for j in range(L_poset.n)]
        for i in range(L_poset.n)
    ]
    if bottom is None or any(None in row for row in join):
        raise SupMissingError("the lattice lacks a bottom or a binary join")
    return bottom, join


def preserves_joins(table, dom, cod):
    """True iff ``table`` sends the bottom to the bottom and i ∨ j to
    table[i] ∨ table[j] for each (i, j, i ∨ j) that ``dom`` lists.
    ``dom`` is (bottom, triples) and ``cod`` a ``join_table`` result.

    Over every pair i > j these are exactly the maps with an upper adjoint
    between finite lattices (Davey & Priestley, *Introduction to Lattices and
    Order*, 7.34): a lower adjoint preserves every join, the empty one
    included; conversely, for a join-preserving m the set {a : m(a) ≤ y}
    holds the bottom and is closed under binary joins, so its join is its
    greatest element, the value of the upper adjoint at y.  Joins commute
    and are idempotent, so the pairs i > j suffice; ``verify_adjunction``
    lists only its closure gaps.
    """
    bottom, triples = dom
    cod_bottom, cod_join = cod
    if table[bottom] != cod_bottom:
        return False
    for i, j, k in triples:
        if table[k] != cod_join[table[i]][table[j]]:
            return False
    return True


def verify_adjunction(P, system):
    """Triangle identities and the universal property of the unit, at the
    Γ-lattice L = Γ^Z(P).

    The mediator for a continuous f into the compacts of L is A ↦ sup f(A),
    folded over L's join table at the maximal points of A, as f is monotone;
    so it factors f, as ↓p has the one maximal point p.  It is unique, as
    every member A of Γ^Z(P) is the join of the ↓p inside it: a rival
    mediator preserves every join, having an upper adjoint, and agrees on
    each ↓p, where both factor f.  A is an order ideal (``gamma_subbasis``
    filters ``kernels.order_ideals``), the union of the ↓p for p in A; each
    ↓p is a member, as p bounds each member ideal inside it and so its cut;
    and the join is cl A = A.

    The mediator has an upper adjoint iff it preserves the bottom and binary
    joins (Davey & Priestley 7.34), and, as a sup of f's values, iff it
    preserves the bottom and the joins of the closure gaps of Γ^Z(P)
    (``topology.closure_gaps``).  ``preserves_joins`` checks them on the
    tables.  Either way the mediator is monotone, as ``preserves_beneath``
    requires.

    The walk decides only the tables that are lex-least in their orbits
    under the group of ``_adjunction_actions``, f ↦ σ̂∘f∘σ⁻¹.  A table's
    verdict (skipped, passed, or the part and reason of its failure) is a
    function of the table and of the instance tables the walk reads, and the
    group fixes each of them, so every table of an orbit has the same
    verdict.  The first failing table in table order is the least of its
    orbit, as the least one is no later and fails too; so the walk over the
    lex-least tables meets the same first failure, and holds where the full
    walk holds.
    """
    LP = gamma_lattice(P, system)

    # triangle at P: counit after Γ^Z(unit) is the identity on Γ^Z(P);
    # Γ^Z(unit) sends A to cl η[A], a closed family of δ(P)
    D1 = delta_object(P, system)
    images = tp.subset_images(eta(P, system))
    for a in LP.elements:
        fam = tp.closure_subbasic(D1.poset, system, images[a])
        union = 0
        for j in ps.bits(fam):
            union |= D1.sets[j]
        back = tp.closure_subbasic(P, system, union)
        if back != a:
            return CheckResult.fails(
                triangle="poset side", closed_set=P.names(a), got=P.names(back)
            )

    # triangle at L: compacts of L travel through the counit unchanged; ε
    # is read at ↓q by its index among the closed families of K(L)
    eps, sub = epsilon(LP.poset, system)
    family_index = gamma_lattice(sub.poset, system).index
    dq = delta_object(sub.poset, system)
    for q, e in enumerate(eta(sub.poset, system)):
        if eps[family_index[dq.sets[e]]] != sub.embed[q]:
            return CheckResult.fails(
                triangle="lattice side", compact=LP.poset.labels[sub.embed[q]]
            )

    # universal property of the unit
    principal = [LP.index[P.down[p]] for p in range(P.n)]
    joins_l = join_table(LP.poset)
    bottom, join = joins_l
    # Γ^Z(P)'s least member, cl ∅, is index 0: it lies inside every member
    gaps = (0, tuple((a, principal[p], k) for a, p, k in tp.closure_gaps(P, system)))
    tops = ps.maxima(P, LP.elements)
    continuous = tp.sigma_z_continuity(P, sub.poset, system)
    actions = _adjunction_actions(P, system, LP, sub)
    for f in ps.monotone_tables(P, sub.poset):
        if actions and not ps.lex_least(f, actions):
            continue
        if not continuous(f):
            continue
        values = [sub.embed[v] for v in f]
        mediator = []
        for pts in tops:
            s = bottom
            for p in pts:
                s = join[s][values[p]]
            mediator.append(s)
        if not preserves_joins(mediator, gaps, joins_l):
            return CheckResult.fails(part="mediator", reason="no upper adjoint")
        if not preserves_beneath(mediator, LP.poset, LP.poset, system):
            return CheckResult.fails(part="mediator", reason="beneath not preserved")
    return CheckResult.holds()


def _adjunction_actions(P, system, LP, sub):
    """The actions f ↦ σ̂∘f∘σ⁻¹ on tables P -> K(L), for L = Γ^Z(P), of
    the automorphisms σ of P that fix every table the adjunction's walk
    reads, as ``poset.lex_least`` takes them; the identity left out.

    σ̂ is σ acting on the members of Γ^Z(P), the points of L, and then on
    the compact points K(L).  Such a σ must map Γ^Z(P) and its closure gaps
    onto themselves, and σ̂ must fix the beneath table of L, the compact
    points and the closed family of K(L).  σ̂ preserves inclusion, so it
    also fixes L's order and join table, and with σ the maximal points of
    each member and the principal ideals.  The join check asks, of a
    monotone f, m(cl S) = ⋁ f(S) at each gap S = A ∪ ↓p, whichever (A, p)
    lists S, so it reads the gaps only as the pairs (S, cl S).  So the
    continuity check, the mediator and its join and beneath checks give
    σ̂∘f∘σ⁻¹ the verdict of f.  Each condition asks σ to fix one structure, so the σ that meet all
    of them form a group.  It is all of Aut P unless a table is tampered
    with, as each system is invariant under isomorphism."""
    others = ps.automorphisms(P)[1:]
    if not others:
        return ()
    closed = LP.elements
    gaps = {(closed[a] | P.down[p], closed[k]) for a, p, k in tp.closure_gaps(P, system)}
    beneath = [beneath_set(LP.poset, system, y) for y in range(LP.poset.n)]
    position = {x: j for j, x in enumerate(sub.embed)}
    compact_closed = tp.gamma_subbasis(sub.poset, system).closed
    actions = []
    for sigma in others:
        hat = ps.family_action(sigma, closed, LP.index)
        if hat is None or ps.permuted(hat, sub.carrier) != sub.carrier:
            continue
        if any(beneath[hat[y]] != ps.permuted(hat, b) for y, b in enumerate(beneath)):
            continue
        if {(ps.permuted(sigma, a), ps.permuted(sigma, c)) for a, c in gaps} != gaps:
            continue
        tau = tuple(position[hat[x]] for x in sub.embed)
        if ps.family_action(tau, compact_closed) is not None:
            actions.append((ps.inverse(sigma), tau))
    return tuple(actions)


def verify_monad_laws(P, system):
    """Unit and associativity laws plus naturality on the codomains of one
    to three points.

    Every map is a function table: δη and δμ come from ``delta_tables``,
    where a table that breaks a cover pair raises ``NotMonotoneError``
    (``poset.check_monotone``), and naturality runs one pass per codomain
    (``_naturality_failure``).
    """
    D1 = delta_object(P, system)
    D2 = delta_object(D1.poset, system)
    eta_p = eta(P, system)
    if not tp.sigma_z_continuity(P, D1.poset, system)(eta_p):
        return CheckResult.fails(law="unit continuity")
    mu_p = mu(P, system)
    if not tp.sigma_z_continuity(D2.poset, D1.poset, system)(mu_p):
        return CheckResult.fails(law="multiplication continuity")

    eta_d1 = eta(D1.poset, system)
    for a in range(D1.poset.n):
        if mu_p[eta_d1[a]] != a:
            return CheckResult.fails(law="left unit", element=D1.poset.labels[a])
    d_eta, bad = delta_tables(P, D1.poset, system)(eta_p)
    if d_eta is None:
        return CheckResult.fails(law="right unit", reason="δ(η) ill-typed", **bad)
    for a in range(D1.poset.n):
        if mu_p[d_eta[a]] != a:
            return CheckResult.fails(law="right unit", element=D1.poset.labels[a])

    mu_d1 = mu(D1.poset, system)
    d_mu, bad = delta_tables(D2.poset, D1.poset, system)(mu_p)
    if d_mu is None:
        return CheckResult.fails(law="associativity", reason="δ(μ) ill-typed", **bad)
    if [mu_p[v] for v in mu_d1] != [mu_p[v] for v in d_mu]:
        return CheckResult.fails(law="associativity")

    domain = _NaturalityDomain(P, system, eta_p, mu_p)
    for n in (1, 2, 3):
        for Q in ps.enumerate_posets(n):
            bad = _naturality_failure(Q, system, domain)
            if bad is not None:
                return CheckResult.fails(**bad)
    return CheckResult.holds()


class _NaturalityDomain:
    """What ``_naturality_failure`` reads of P, built once per instance:
    δ(P), δδ(P), the rows (maximal points) of their sets, η_P as pairs
    (p, η_P(p)), and whether the row of δ(P) at each η_P(p) is (p,); μ_P,
    whether the rows of δδ(P) that are not (k,) with μ_P(j) = k are all
    the empty row () with μ_P(j) the empty row of δ(P), and whether there
    are any; and the ``width`` of δ(P), the most points a row of it has."""

    __slots__ = ("base", "d1", "d2", "rows_1", "rows_2", "mu", "units", "diagonal",
                 "empty", "rest", "width")

    def __init__(self, P, system, eta_p, mu_p):
        self.base = P
        self.d1 = D1 = delta_object(P, system)
        self.d2 = D2 = delta_object(D1.poset, system)
        self.rows_1 = rows_1 = ps.maxima(P, D1.sets)
        self.rows_2 = rows_2 = ps.maxima(D1.poset, D2.sets)
        self.mu = mu_p
        self.units = tuple(enumerate(eta_p))
        self.diagonal = all(rows_1[e] == (p,) for p, e in self.units)
        rest = [j for j, row in enumerate(rows_2) if row != (mu_p[j],)]
        self.empty = all(rows_2[j] == () and rows_1[mu_p[j]] == () for j in rest)
        self.rest = bool(rest)
        self.width = max(map(len, rows_1))


def _naturality_failure(Q, system, domain):
    """The witness of the first σ^Z-continuous f : P -> Q, in table order,
    that breaks δf ∘ η_P = η_Q ∘ f or δf ∘ μ_P = μ_Q ∘ δδf, or None; P and
    what the pass reads of it come in ``domain`` (``_NaturalityDomain``).

    δf and δδf come from the one row loop, ``compacts_of``, which reads
    each compact set at its maximal points through the tabulated closures
    of Q and δ(Q), with no cover check (``compact_table``; δ(Q) has at most
    eight points).  Where a closure does not fold, which only tampering
    makes, the pass raises ``ZdtError``.

    Four checks are decided once per codomain, each exactly, from the
    tables of Q and δ(Q) alone:

    - The unit equation holds for every f when the rows of δ(P) at η_P are
      diagonal and cl{q} is η_Q(q) for every q of Q: then δf(η_P(p)) is
      cl{f(p)} = η_Q(f(p)).
    - On a diagonal row j = (k,) of δδ(P), δδf(j) is cl{δf(k)} and μ_P(j)
      is k, so both the escape and the multiplication equation there read
      one value v = δf(k) of δ(Q).  When cl{v} is compact and μ_Q sends it
      back to v for every v, no diagonal row escapes or fails.
    - No δf escapes when cl m is compact for every mask m of Q with at most
      ``width`` points: a row of δ(P) has at most that many points, and so
      has its image.
    - On untampered tables the only other row of δδ(P) is the empty
      family.  When each other row j is () and μ_P(j) is the empty row of
      δ(P), δδf(j) is cl ∅ of δ(Q) and δf(μ_P(j)) is cl ∅ of Q for every
      f, so no such row escapes or fails when cl ∅ of δ(Q) is compact and
      μ_Q sends it to cl ∅ of Q.

    When all four hold, no table can fail, and the pass returns None
    without reading the tables P -> Q or σ^Z-continuity: continuity only
    skips tables.  Otherwise, which only tampering makes, one loop decides
    each f of ``poset.map_tables(P, Q)`` in the steps of the object loop:
    continuity (``topology.sigma_z_continuity``), δf with its escape
    witness, the unit equation, δδf with its escape witness, and the
    multiplication equation on every row, so the witnesses do not move.
    """
    P, D1, D2, rows_1, mu_p = domain.base, domain.d1, domain.d2, domain.rows_1, domain.mu
    DQ = delta_object(Q, system)
    eta_q, mu_q = eta(Q, system), mu(Q, system)
    compact_q, foldable_q = compact_table(Q, system)
    compact_dq, foldable_dq = compact_table(DQ.poset, system)
    if not (foldable_q and foldable_dq):
        raise ZdtError(f"the closure of {Q!r} or of δ of it does not fold")
    unit_holds = domain.diagonal and all(compact_q[1 << q] == eta_q[q] for q in range(Q.n))
    diagonal_holds = all(
        compact_dq[1 << v] is not None and mu_q[compact_dq[1 << v]] == v
        for v in range(DQ.poset.n)
    )
    if (
        unit_holds
        and diagonal_holds
        and all(c is not None for m, c in enumerate(compact_q) if m.bit_count() <= domain.width)
        and domain.empty
        and (not domain.rest or compact_dq[0] is not None and mu_q[compact_dq[0]] == compact_q[0])
    ):
        return None
    continuous = tp.sigma_z_continuity(P, Q, system)
    rows_2 = domain.rows_2
    for f in ps.map_tables(P, Q):
        if not continuous(f):
            continue
        df = compacts_of(rows_1, f, compact_q)
        if len(df) < len(rows_1):
            return {"law": "functoriality", **_escape(P, Q, system, D1.sets[len(df)], f)}
        for p, e in domain.units:
            if df[e] != eta_q[f[p]]:
                return {"law": "unit naturality", "map": f}
        ddf = compacts_of(rows_2, df, compact_dq)
        if len(ddf) < len(rows_2):
            a = D2.sets[len(ddf)]
            return {"law": "functoriality", **_escape(D1.poset, DQ.poset, system, a, df)}
        for j, d in enumerate(ddf):
            if df[mu_p[j]] != mu_q[d]:
                return {"law": "multiplication naturality", "map": f}
    return None
