"""Subbasic and generated Z-Scott topologies, closures, and map continuity.

The subbasic closed family Γ^Z(P) consists of the subsets A absorbing cuts of
their Z-subsets: for all S ∈ Z(P), S ⊆ A implies S^δ ⊆ A.  Since singletons
always belong to Z(P), members are necessarily lower sets, so candidates range
over order ideals.  The constraint "S ⊆ A ⇒ S^δ ⊆ A" depends on S only through
↓S (ideals contain S iff they contain ↓S, and S^δ = (↓S)^δ), so each member
ideal in I_Z(P) (``SubsetSystem.member_ideals``) contributes one constraint.
"""

from __future__ import annotations

from functools import lru_cache

from zdt import kernels, poset as ps
from zdt.reports import CheckResult


class TopologyFamily:
    """A family of closed subsets of one poset, in ascending mask order."""

    __slots__ = ("base", "kind", "closed", "_members", "_irreducible")

    def __init__(self, base, kind, closed):
        self.base = base
        self.kind = kind
        self.closed = tuple(closed)
        self._members = frozenset(self.closed)
        self._irreducible = None

    @property
    def irreducible(self):
        """The meet-irreducible members, in ascending mask order; built on
        first use.

        A member is meet-irreducible when it is not the carrier and not the
        intersection of the members strictly above it.  In a finite closure
        system every member is the intersection of the meet-irreducible
        members that contain it, the carrier being the empty intersection.
        """
        if self._irreducible is None:
            out = []
            for i, c in enumerate(self.closed):
                above = self.base.full
                for d in self.closed[i + 1:]:
                    if c & ~d == 0:
                        above &= d
                if above != c:
                    out.append(c)
            self._irreducible = tuple(out)
        return self._irreducible

    @property
    def opens(self):
        full = self.base.full
        return tuple(sorted(full & ~c for c in self.closed))

    def is_closed(self, mask):
        return mask in self._members

    def is_open(self, mask):
        return (self.base.full & ~mask) in self._members

    def closure(self, mask):
        """Least member containing the mask (the family is a closure system)."""
        out = self.base.full
        for c in self.closed:
            if mask & ~c == 0:
                out &= c
        return out

    def interior(self, mask):
        """Union of all open members inside the mask."""
        out = 0
        full = self.base.full
        for c in self.closed:
            u = full & ~c
            if u & ~mask == 0:
                out |= u
        return out

    def __eq__(self, other):
        return (
            isinstance(other, TopologyFamily)
            and self.base == other.base
            and self.closed == other.closed
        )

    def __hash__(self):
        return hash((self.base, self.closed))

    def __repr__(self):
        return f"TopologyFamily({self.kind}, {len(self.closed)} closed sets)"


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def gamma_subbasis(P, system):
    """Γ^Z(P): the subbasic closed family (a closure system of lower sets)."""
    ideals = kernels.order_ideals(P.n, P.up, P.down)
    constraints = []
    for d in system.member_ideals(P):
        c = ps.cut(P, d)
        if c & ~d:
            constraints.append((d, c))
    closed = kernels.absorbing_ideals(ideals, constraints)
    return TopologyFamily(P, "subbasic-closed", tuple(closed))


def sigma_subbasis(P, system):
    """σ^Z(P), the open view: exactly the complements of Γ^Z(P) members."""
    gamma = gamma_subbasis(P, system)
    return TopologyFamily(P, "subbasic-open-complements", gamma.closed)


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def sigma_topology(P, system):
    """Γ_Z(P): the closed sets of the topology σ^Z(P) generates.

    These are the finite unions of members of Γ^Z(P).  That family is
    already intersection-closed: by distributivity
    (a_1 ∪ … ∪ a_k) ∩ (b_1 ∪ … ∪ b_m) = ⋃ a_i ∩ b_j, and every a_i ∩ b_j is
    in Γ^Z(P), a closure system.  So one union pass gives the least family
    closed under finite unions and intersections.
    """
    family = {0}
    for c in gamma_subbasis(P, system).closed:
        family |= {u | c for u in family}
    return TopologyFamily(P, "topology-closed", tuple(sorted(family)))


def closure_subbasic(P, system, mask):
    return gamma_subbasis(P, system).closure(mask)


def closure_topological(P, system, mask):
    return sigma_topology(P, system).closure(mask)


def interior_subbasic(P, system, mask):
    """Union of the subbasic opens inside the mask (σ^Z is union-closed)."""
    return gamma_subbasis(P, system).interior(mask)


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def lower_topology(P):
    """ω(P): closed sets generated by the principal filters ↑x.

    On a finite poset these are exactly the upper sets: every upper set U is
    the finite union of the ↑x with x ∈ U, and upper sets are closed under
    intersection.
    """
    family = kernels.order_ideals(P.n, P.down, P.up)
    return TopologyFamily(P, "lower-topology-closed", tuple(family))


FAMILY_KINDS = {
    "gamma-subbasis": lambda P, Z: gamma_subbasis(P, Z),
    "sigma-subbasis": lambda P, Z: sigma_subbasis(P, Z),
    "gamma-topology": lambda P, Z: sigma_topology(P, Z),
    "sigma-topology": lambda P, Z: sigma_topology(P, Z),
    "lower": lambda P, Z: lower_topology(P),
}


# -- maps ---------------------------------------------------------------


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def closure_table(P, system):
    """cl A for every subset A of P, by mask."""
    gamma = gamma_subbasis(P, system)
    return tuple(gamma.closure(a) for a in range(1 << P.n))


def closure_gaps(P, system):
    """The closure gaps of Γ^Z(P), as triples (a, p, k) of indices into its
    ``closed`` tuple and a point: S = closed[a] ∪ ↓p is not closed, and
    cl S = closed[k].  One triple per such S, for the first (a, p) in order
    that gives it.

    A map m(A) = ⋁ f(A) on Γ^Z(P), for a monotone f from P into a lattice,
    preserves the bottom and every binary join iff m(cl ∅) is the bottom and
    m(cl S) = m(A) ∨ f(p) for each gap.  These are joins A ∨ ↓p = cl S, with
    m(↓p) = f(p) as f is monotone.  Conversely, m(cl(A ∪ ↓p)) = m(A) ∨ f(p)
    then holds for every closed A and point p: a closed union needs no
    check, as ⋁ f(A ∪ ↓p) = m(A) ∨ f(p), and every (a, p) that gives one S
    has m(A) ∨ f(p) = ⋁ f(S).  A closed B is the union of the ↓p with p ∈ B,
    and cl(X ∪ Y) = cl(cl X ∪ Y), so A ∨ B = cl(… cl(A ∪ ↓p_1) … ∪ ↓p_k);
    by induction on the points of B, m(A ∨ B) = m(A) ∨ ⋁ f(B) = m(A) ∨ m(B).
    """
    closed = gamma_subbasis(P, system).closed
    index = {c: i for i, c in enumerate(closed)}
    closures = closure_table(P, system)
    seen = set()
    out = []
    for a, c in enumerate(closed):
        for p in range(P.n):
            s = c | P.down[p]
            if s not in index and s not in seen:
                seen.add(s)
                out.append((a, p, index[closures[s]]))
    return tuple(out)


def sigma_z_continuity(dom, cod, system):
    """σ^Z-continuity of function tables from ``dom`` to ``cod``: the
    preimage of each meet-irreducible closed set of ``cod`` is closed.

    That is every closed set's condition.  Each closed C of ``cod`` is the
    intersection of the meet-irreducible members above it (see
    ``TopologyFamily.irreducible``); preimage commutes with ∩; and Γ^Z(dom)
    is ∩-closed and holds the carrier, the preimage of the empty
    intersection.  So the preimage of C is closed once those of the
    meet-irreducibles are.
    """
    is_closed = gamma_subbasis(dom, system).is_closed
    irreducible = gamma_subbasis(cod, system).irreducible
    points = tuple((p, 1 << p) for p in range(dom.n))

    def continuous(table):
        for c in irreducible:
            pre = 0
            for p, bit in points:
                if (c >> table[p]) & 1:
                    pre |= bit
            if not is_closed(pre):
                return False
        return True

    return continuous


def subset_images(table):
    """The image of every subset of the domain of a function table, by mask."""
    images = [0] * (1 << len(table))
    for a in range(1, len(images)):
        low = a & -a
        images[a] = images[a ^ low] | 1 << table[low.bit_length() - 1]
    return images


def preserves_hulls(images, pairs, cod_hulls):
    """f(H) ⊆ hull f(A) for each pair (A, H), with f's ``images`` and the
    codomain's ``cod_hulls`` by mask.  Over (A, cl A) it is closure
    preservation; over the (D, D^δ) of I_Z(dom) it is cut preservation on
    Z(dom), as S^δ = (↓S)^δ and f(S)^δ = f(↓S)^δ (f(↓S) ⊆ ↓f(S))."""
    for a, h in pairs:
        if images[h] & ~cod_hulls[images[a]]:
            return False
    return True


# -- lower hereditariness ------------------------------------------------


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def is_lower_hereditary(P, system):
    """Whether σ^Z(P) is lower hereditary; see ``lower_hereditary_witness``."""
    return _lower_hereditary_failure(P, system) is None


def _member_relative_cuts(P, system):
    """(A, D, relcut_A(D)) for every nonempty A ∈ Γ^Z(P) and every D ∈ I_Z(P)
    with D ⊆ A; A ascending, and D ascending within each A.

    These pairs are all that Γ^Z(A) reads.  A is a lower set, so a member S
    of Z(A) (a member of Z(P) inside A: each system's predicate reads only
    the order among the points of S) has ↓_A S = ↓S, and S ⊆ A iff ↓S ⊆ A;
    hence I_Z(A) = {D ∈ I_Z(P) : D ⊆ A}, and Γ^Z(A) is the set of lower
    sets C ⊆ A with relcut_A(D) ⊆ C for each such D ⊆ C.
    """
    ideals = system.member_ideals(P)
    for a in gamma_subbasis(P, system).closed:
        if a:
            for d in ideals:
                if d & ~a == 0:
                    yield a, d, ps.relative_cut(P, d, a)


def _member_hulls(P, system):
    """cl_Γ(D) for every D ∈ I_Z(P)."""
    gamma = gamma_subbasis(P, system)
    return {d: gamma.closure(d) for d in system.member_ideals(P)}


def _trace_witness(P, system, a):
    """The traces of A that are not in Γ^Z(A), and the reverse, on the subposet."""
    closed = gamma_subbasis(P, system).closed
    sub = ps.restrict(P, a)
    traces = tuple(sorted(sub.to_sub(b) for b in closed if b & ~a == 0))
    own = gamma_subbasis(sub.poset, system).closed
    return {
        "closed_set": P.names(a),
        "trace_only": [sub.poset.names(m) for m in sorted(set(traces) - set(own))],
        "subposet_only": [sub.poset.names(m) for m in sorted(set(own) - set(traces))],
    }


def lower_hereditary_witness(P, system):
    """First nonempty A ∈ Γ^Z(P) whose trace family differs from Γ^Z(A), if any.

    The traces {B ∩ A : B ∈ Γ^Z(P)} are exactly the members of Γ^Z(P)
    inside A: each B ∩ A is one, because Γ^Z(P) is intersection-closed and
    holds A, and each member B ⊆ A is its own trace.  With I_Z(A) as in
    ``_member_relative_cuts``:

    * relcut_A(D) ⊇ cut(D): the upper bounds of D in A are some of those in
      P, and cut(D) ⊆ A since A is Γ^Z-closed.  So every C ∈ Γ^Z(A) holds
      cut(D) for each D ⊆ C, and Γ^Z(A) ⊆ traces(A);
    * traces(A) ⊆ Γ^Z(A) iff relcut_A(D) ⊆ cl_Γ(D) for every D: if it holds,
      a trace B ⊇ D holds cl_Γ(D), hence relcut_A(D); conversely cl_Γ(D) ⊆ A
      is a trace that holds D.

    So A fails iff some D ⊆ A has relcut_A(D) ⊄ cl_Γ(D), and then only the
    trace side can differ.  The witness is built on the subposet, for the
    failing A only.
    """
    a = _lower_hereditary_failure(P, system)
    return None if a is None else _trace_witness(P, system, a)


def _lower_hereditary_failure(P, system):
    """The first A of ``lower_hereditary_witness``, or None."""
    hull = _member_hulls(P, system)
    for a, d, rel in _member_relative_cuts(P, system):
        if rel & ~hull[d]:
            return a
    return None


def lh_conditions(P, system):
    """The five lower-hereditariness conditions, each as a bool.

    (1) lower hereditary; (2) every inclusion ↓x → P is σ^Z-continuous;
    (3) relative cuts over ↓x agree with cuts for members of Z(↓x);
    (4) same over every subbasic closed ambient set; (5) upper-bound sets of
    members are filtered (checked on I_Z(P): S and ↓S share upper bounds).

    (1)-(4) come from one pass over ``_member_relative_cuts``.  (1) is the
    test of ``lower_hereditary_witness`` over every A.  (2) is the same test
    over the A in {↓x}: each ↓x is Γ^Z-closed (x bounds every D ⊆ ↓x, so
    cut(D) ⊆ ↓x), the preimages of the inclusion are the traces B ∩ ↓x, and
    it is continuous iff they all lie in Γ^Z(↓x).  (3) and (4) test
    relcut_A(D) = cut(D), over {↓x} and over every A; both cuts read a
    member only through its down-closure, which is the same in A and in P.
    """
    hull = _member_hulls(P, system)
    cuts = {d: ps.cut(P, d) for d in hull}
    principal = frozenset(P.down)
    c1 = c2 = c3 = c4 = True
    for a, d, rel in _member_relative_cuts(P, system):
        traced = not rel & ~hull[d]
        agrees = rel == cuts[d]
        c1 = c1 and traced
        c4 = c4 and agrees
        if a in principal:
            c2 = c2 and traced
            c3 = c3 and agrees
    c5 = all(
        ps.is_filtered(P, ps.upper_bounds(P, d)) for d in system.member_ideals(P)
    )
    return {"1": c1, "2": c2, "3": c3, "4": c4, "5": c5}


def lemma_lh_conditions(P, system):
    """Evaluate the five conditions and the implication pattern (5)⇒(1)⇔(2)⇔(3)⇔(4)."""
    c = lh_conditions(P, system)
    if (not c["5"] or c["1"]) and c["1"] == c["2"] == c["3"] == c["4"]:
        return CheckResult.holds()
    return CheckResult.fails(**{f"cond{k}": v for k, v in c.items()})
