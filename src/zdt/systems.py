"""Built-in subset systems Z and per-instance diagnostics for their axioms.

A subset system assigns to every poset the family Z(P) of its member subsets;
the five built-ins are instantiated uniformly on any finite poset, including
derived ones (Fin P, inclusion-ordered set families, subposets).  The empty
set is never a member.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from zdt import kernels, poset as ps, topology as tp
from zdt.reports import CheckResult, ClaimReport


@dataclass(frozen=True)
class SubsetSystem:
    name: str
    sys_id: int

    def contains(self, P, mask):
        """Membership of a carrier subset in Z(P); the empty set never belongs."""
        if mask & ~P.full:
            return False
        return kernels.z_contains(self.sys_id, P.n, P.up, P.down, mask)

    def members(self, P):
        """Z(P) as an ascending tuple of masks."""
        return _members(self, P)

    def member_ideals(self, P):
        """I_Z(P) = {↓S : S ∈ Z(P)} as an ascending tuple, without Z(P),
        computed once per (system, P).

        The checkers read a member S only through ↓S: S meets an up-set iff
        ↓S does, and S and ↓S have the same upper bounds, hence the same cut
        and the same sup.  The distinct ↓S have closed forms:

        * singletons, chains, directed: a finite member has a greatest
          element, so the down-closures are exactly the principal ideals;
        * finite, connected: a down-set D equals ↓D, so the down-closures
          are exactly the down-sets that are members: every nonempty one for
          finite; for connected, ↓S is connected when S is, since every
          e ∈ ↓S lies below some point of S.

        The harness relies on the first case: ``claims.run_claim`` evaluates
        an instance once for those three systems, through
        ``PrincipalIdealsView`` (``claims._SharedEvaluation``).
        """
        return _member_ideals(self, P)

    def __hash__(self):
        # every cache is keyed by a system; equal systems share a sys_id
        return self.sys_id

    def __repr__(self):
        return f"SubsetSystem({self.name})"


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def _members(system, P):
    return tuple(kernels.z_member_masks(system.sys_id, P.n, P.up, P.down))


@lru_cache(maxsize=ps.INSTANCE_CACHE_SIZE)
def _member_ideals(system, P):
    # an unknown system raises on every call: lru_cache keeps no exception
    sys_id = system.sys_id
    if sys_id in (kernels.SYS_SINGLETONS, kernels.SYS_CHAINS, kernels.SYS_DIRECTED):
        return tuple(sorted(set(P.down)))
    if sys_id not in (kernels.SYS_FINITE, kernels.SYS_CONNECTED):
        raise ValueError(f"no closed form of I_Z(P) for system id {sys_id}")
    return tuple(
        d
        for d in kernels.order_ideals(P.n, P.up, P.down)
        if kernels.z_contains(sys_id, P.n, P.up, P.down, d)
    )


SINGLETONS = SubsetSystem("singletons", kernels.SYS_SINGLETONS)
CHAINS = SubsetSystem("chains", kernels.SYS_CHAINS)
DIRECTED = SubsetSystem("directed", kernels.SYS_DIRECTED)
FINITE = SubsetSystem("finite", kernels.SYS_FINITE)
CONNECTED = SubsetSystem("connected", kernels.SYS_CONNECTED)

SYSTEMS = {
    s.name: s for s in (SINGLETONS, CHAINS, DIRECTED, FINITE, CONNECTED)
}

# the systems whose I_Z(P) is the principal ideals of every finite P
PRINCIPAL_IDEAL_SYSTEMS = ("singletons", "chains", "directed")


class SystemViewError(Exception):
    """A checker read Z(P), or a system's name, through a view that knows
    only I_Z(P).  Nothing on the evaluation path catches it but the
    harness, which then evaluates the instance with each real system."""


class PrincipalIdealsView:
    """The one thing ``singletons``, ``chains`` and ``directed`` share on a
    finite poset: I_Z(P), the principal ideals (``SubsetSystem.member_ideals``).

    A checker that reads its system only through ``member_ideals`` returns
    the same result with this view as with any of the three, so the harness
    evaluates such an instance once for all of them.  Reading anything that
    tells them apart (a member, membership, the name or the system id)
    raises ``SystemViewError``.  The view hashes and compares by identity,
    so the per-(P, system) caches keep its tables apart from those of
    ``singletons``.
    """

    __slots__ = ()

    def member_ideals(self, P):
        return SINGLETONS.member_ideals(P)

    def _read(self, what):
        raise SystemViewError(f"{what} is not determined by I_Z(P)")

    def contains(self, P, mask):
        self._read("membership in Z(P)")

    def members(self, P):
        self._read("Z(P)")

    @property
    def name(self):
        self._read("the system's name")

    @property
    def sys_id(self):
        self._read("the system id")

    def __repr__(self):
        self._read("the system's repr")


PRINCIPAL_IDEALS = PrincipalIdealsView()


def get_system(name):
    try:
        return SYSTEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; choose from {sorted(SYSTEMS)}"
        ) from None


def first_member(P, system, ideals):
    """The first member S of Z(P) in mask order with ↓S in ``ideals``.

    Checkers decide on I_Z(P) and call this only to name a failing member.
    When the failing ideals are those of the first failing element, it is the
    member a search over Z(P) in mask order would stop at.
    """
    for s in system.members(P):
        if ps.down_set(P, s) in ideals:
            return s


def zcpo_witness(P, system):
    """The first member of Z(P), in mask order, without a supremum in P.

    sup S = sup ↓S, so the sups are taken over I_Z(P) only.
    """
    missing = {d for d in system.member_ideals(P) if ps.sup_of(P, d) is None}
    if not missing:
        return None
    return {"member": P.names(first_member(P, system, missing)), "reason": "no supremum"}


def is_zcpo(P, system):
    """True iff every member of Z(P) has a supremum in P."""
    return zcpo_witness(P, system) is None


# -- bounded diagnostics ------------------------------------------------

AXIOM_SIZE = 3  # the most points of the posets the axiom sweeps walk


def check_system_axioms(system):
    """Singleton membership and closure under monotone images, exhaustively.

    Runs over all labeled posets with at most ``AXIOM_SIZE`` elements and
    all monotone maps between them; instance evidence, not a universal proof.
    """
    report = ClaimReport("system-axioms", f"{system.name} n<={AXIOM_SIZE}")
    posets = [
        P for n in range(1, AXIOM_SIZE + 1) for P in ps.enumerate_posets(n, "labeled")
    ]
    for P in posets:
        res = CheckResult.holds()
        for i in range(P.n):
            if not system.contains(P, 1 << i):
                res = CheckResult.fails(poset=P, singleton=P.labels[i])
                break
        report.record(res, P)
    for P in posets:
        mem = system.members(P)
        for Q in posets:
            for f in ps.map_tables(P, Q):
                images = tp.subset_images(f)
                res = CheckResult.holds()
                for s in mem:
                    if not system.contains(Q, images[s]):
                        res = CheckResult.fails(
                            dom=P, cod=Q, table=f, member=P.names(s)
                        )
                        break
                report.record(res, (P, Q, f))
    return report


def _reflects_order(P, Q, table):
    """x <= y iff f(x) <= f(y), for a monotone f: the preimage of each ↑f(x)
    contains ↑x, and f reflects the order when it is no larger."""
    for x in range(P.n):
        above = Q.up[table[x]]
        for y, v in enumerate(table):
            if (above >> v) & 1 and not (P.up[x] >> y) & 1:
                return False
    return True


def check_subset_hereditary_instances(system):
    """D ∈ Z(P) iff f(D) ∈ Z(Q), over all order embeddings at bounded size:
    the monotone tables that reflect the order."""
    report = ClaimReport("subset-hereditary", f"{system.name} n<={AXIOM_SIZE}")
    posets = [
        P for n in range(1, AXIOM_SIZE + 1) for P in ps.enumerate_posets(n, "labeled")
    ]
    for P in posets:
        for Q in posets:
            if Q.n < P.n:
                continue
            for f in ps.map_tables(P, Q):
                if not _reflects_order(P, Q, f):
                    continue
                images = tp.subset_images(f)
                res = CheckResult.holds()
                for d in range(1, P.full + 1):
                    if system.contains(P, d) != system.contains(Q, images[d]):
                        res = CheckResult.fails(
                            dom=P, cod=Q, table=f, subset=P.names(d)
                        )
                        break
                report.record(res, (P, Q, f))
    return report


def check_property_M_instance(system, P):
    """Principal down-families of Fin P belong to Z(Fin P), per element of Fin P.

    Fin P orders its up-sets by reverse inclusion, so the down row of ↑F
    holds the ↑G with ↑F ⊆ ↑G."""
    fp = ps.fin_poset(P)
    report = ClaimReport("property-M", f"{system.name} on {P.n}-poset")
    for i, u in enumerate(fp.sets):
        if system.contains(fp.poset, fp.poset.down[i]):
            report.record(CheckResult.holds(), u)
        else:
            report.record(CheckResult.fails(upper_set=P.names(u)), u)
    return report


def check_ffup_instance(system, P):
    """Element-wise unions of member families of Z(Fin P) stay members.

    Checks every member family and every pair of them; longer tuples
    reduce to iterated pairs only heuristically.
    """
    fp = ps.fin_poset(P)
    FP = fp.poset
    mem = system.members(FP)
    report = ClaimReport("ffup", f"{system.name} on {P.n}-poset")
    for fam in mem:
        report.record(CheckResult.holds() if system.contains(FP, fam)
                      else CheckResult.fails(family=fam), fam)
    for fam1 in mem:
        for fam2 in mem:
            union_family = 0
            for i in ps.bits(fam1):
                for j in ps.bits(fam2):
                    u = fp.sets[i] | fp.sets[j]
                    union_family |= 1 << fp.index[u]
            if system.contains(FP, union_family):
                report.record(CheckResult.holds(), (fam1, fam2))
            else:
                report.record(
                    CheckResult.fails(
                        family1=[P.names(fp.sets[i]) for i in ps.bits(fam1)],
                        family2=[P.names(fp.sets[j]) for j in ps.bits(fam2)],
                    ),
                    (fam1, fam2),
                )
    return report


def family_poset(P, masks):
    """A set family over P as a poset under inclusion; the set {a, b} is
    labeled ``s_a_b`` and the empty set ``s_empty``."""
    masks = tuple(masks)
    names = P.labels
    labels = []
    rows = []
    for a in masks:
        labels.append("s_" + "_".join([names[i] for i in ps.bits(a)]) if a else "s_empty")
        row = 0
        for j, b in enumerate(masks):
            if a & ~b == 0:
                row |= 1 << j
        rows.append(row)
    return ps.FinitePoset(labels, rows, _trusted=True)


def check_union_complete_instance(system, P):
    """⋃S ∈ Z(P) for every S ∈ Z(Z(P)), with Z(P) ordered by inclusion."""
    mem = system.members(P)
    ZP = family_poset(P, mem)
    report = ClaimReport("union-complete", f"{system.name} on {P.n}-poset")
    for fam in system.members(ZP):
        union = 0
        for i in ps.bits(fam):
            union |= mem[i]
        if system.contains(P, union):
            report.record(CheckResult.holds(), fam)
        else:
            report.record(
                CheckResult.fails(
                    family=[P.names(mem[i]) for i in ps.bits(fam)],
                    union=P.names(union),
                ),
                fam,
            )
    return report


def check_rudin_instance(system, P, e_mask, families):
    """Search for a Rudin set K for the given upper set E and family 𝒢.

    ``families`` is an iterable of upper-set masks (the members of 𝒢).  The
    four clauses are checked for every candidate K inside the union of the
    minimal-element sets; the report carries the first witness K or records
    exhaustion as a failure.  Whether 𝒢 satisfies the hypotheses that make a
    Rudin set mandatory is the caller's business.
    """
    G = [g for g in families]
    report = ClaimReport("rudin", f"{system.name} on {P.n}-poset")
    if not G or any(g == 0 for g in G):
        report.record(CheckResult.inapplicable(reason="family empty or contains the empty set"))
        return report
    mins = {g: ps.min_of_upset(P, g) for g in G}
    pool = 0
    for g in G:
        pool |= mins[g]
    sub = pool
    candidates = []
    while True:
        candidates.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & pool
    for k in sorted(candidates):
        if k == 0:
            continue
        if any(k & mins[g] == 0 for g in G):
            continue
        if not system.contains(P, k):
            continue
        bound = P.full
        for i in ps.bits(k):
            bound &= P.up[i]
        if bound & ~e_mask:
            continue
        if any(
            g & ~h == 0 and (k & mins[g]) & ~ps.up_set(P, k & mins[h])
            for g in G
            for h in G
        ):
            continue
        report.record(CheckResult.holds(), P.names(k))
        return report
    report.record(CheckResult.fails(reason="no Rudin set exists", pool=P.names(pool)))
    return report
