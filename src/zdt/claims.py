"""Claim registry and the exhaustive verification harness.

Each claim binds hypothesis and conclusion predicates over a (poset, system)
instance and returns a three-valued result, so vacuously satisfied hypotheses
are visible in reports.  Claims whose statement quantifies over a second
poset or over maps run that quantifier internally, over all iso-classes of
size <= INNER_SIZE.
"""

from __future__ import annotations

import atexit
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product

from zdt import continuity as ct, galois as gl, io as zio, monad as md
from zdt import poset as ps, topology as tp
from zdt.errors import LabelDependenceError, SizeCapError, SupMissingError, UnknownClaimError
from zdt.reports import WITNESS_CAP, CheckResult, ClaimReport, Status
from zdt.systems import (
    PRINCIPAL_IDEAL_SYSTEMS,
    PRINCIPAL_IDEALS,
    SystemViewError,
    first_member,
    get_system,
    is_zcpo,
)

INNER_SIZE = 3
ALL_SYSTEMS = ("singletons", "chains", "directed", "finite", "connected")
LATTICE_CAP = 24  # largest Γ-lattice the double-family claims will walk


@lru_cache(maxsize=8)
def _inner_posets():
    return tuple(
        P for n in range(1, INNER_SIZE + 1) for P in ps.enumerate_posets(n)
    )


# -- claim conclusions ---------------------------------------------------


def _eval_lemma_wmc(P, system):
    direct = ct.is_weakly_meet(P, system)
    via = ct.weakly_meet_via_upsets(P, system)
    if direct == via:
        return CheckResult.holds()
    return CheckResult.fails(direct=direct, via_upsets=via)


def _eval_lemma_semilattice(P, system):
    return ct.semilattice_meet_check(P, system)


def _eval_prop_gamma_wmc(P, system):
    L = md.gamma_lattice(P, system)
    if L.poset.n > LATTICE_CAP:
        return CheckResult.inapplicable(reason="lattice too large")
    base = ct.is_weakly_meet(P, system)
    lifted = ct.is_weakly_meet(L.poset, system)
    if base == lifted:
        return CheckResult.holds()
    return CheckResult.fails(poset_side=base, lattice_side=lifted)


def _eval_lemma_int(P, system):
    return ct.interior_lemma_check(P, system)


def _eval_lemma_uu_eq(P, system):
    return ct.uu_eq_wbabove_check(P, system)


def _eval_thm_main_s3(P, system):
    ideals = ct._member_ideals(P, system)
    for x in range(P.n):
        if ct.dd_set(P, system, x) not in ideals:
            return CheckResult.inapplicable(
                reason="waybelow set of some element is not a member ideal",
                element=P.labels[x],
            )
    c1 = ct.is_s_z_continuous(P, system)
    wm = ct.is_weakly_meet(P, system)
    c2 = wm and ct.is_s_z_quasicontinuous(P, system)
    c3 = wm and ct.has_separation(P, system)
    if c1 == c2 == c3:
        return CheckResult.holds()
    return CheckResult.fails(continuous=c1, quasicontinuous_side=c2, separation_side=c3)


def _eval_lemma_sigma_cont(P, system):
    member_cuts = ct._member_cut_pairs(P, system)
    closures = list(enumerate(tp.closure_table(P, system)))
    for Q in _inner_posets():
        continuous = tp.sigma_z_continuity(P, Q, system)
        cuts_q = ps.cut_table(Q)
        closures_q = tp.closure_table(Q, system)
        for f in ps.map_tables(P, Q):
            c1 = continuous(f)
            images = tp.subset_images(f)
            c2 = tp.preserves_hulls(images, member_cuts, cuts_q)
            if c1 != c2:
                return CheckResult.fails(
                    cod=repr(Q), table=f, continuous=c1, preserves_cuts=c2
                )
            if c2 and not tp.preserves_hulls(images, closures, closures_q):
                return CheckResult.fails(
                    cod=repr(Q), table=f, reason="closure image escapes"
                )
    return CheckResult.holds()


def _eval_lemma_lh(P, system):
    return tp.lemma_lh_conditions(P, system)


def _eval_cor_zcpo_lh(P, system):
    if not is_zcpo(P, system):
        return CheckResult.inapplicable(reason="not a zcpo")
    if tp.is_lower_hereditary(P, system):
        return CheckResult.holds()
    return CheckResult.fails(**tp.lower_hereditary_witness(P, system))


def _eval_thm_local_wmc(P, system):
    if not tp.is_lower_hereditary(P, system):
        return CheckResult.inapplicable(reason="topology not lower hereditary")
    w = ct.is_weakly_meet(P, system)
    loc = ct.is_locally_weakly_meet(P, system)
    if w == loc:
        return CheckResult.holds()
    return CheckResult.fails(weakly_meet=w, locally=loc)


def _principal_downs(P):
    """The posets ↓x, one per element x of P."""
    return tuple(sub.poset for sub in ps.principal_downs(P))


def _rel_dd_in_system(downs, system):
    """Every relative waybelow set ↟_Z^x y is a member of Z(↓x)."""
    for D in downs:
        for y in range(D.n):
            if not system.contains(D, ct.dd_set(D, system, y)):
                return False
    return True


def _down_sets_continuous(downs, system):
    return all(ct.is_s_z_continuous(D, system) for D in downs)


def _dd_in_system(P, system):
    return all(
        system.contains(P, ct.dd_set(P, system, x)) for x in range(P.n)
    )


def _eval_prop_down_cont(P, system):
    if not tp.is_lower_hereditary(P, system):
        return CheckResult.inapplicable(reason="topology not lower hereditary")
    if not ct.is_weak_s_z_continuous(P, system):
        return CheckResult.inapplicable(reason="not weak s_Z-continuous")
    downs = _principal_downs(P)
    if not _rel_dd_in_system(downs, system):
        return CheckResult.inapplicable(reason="relative waybelow set not a member")
    if _down_sets_continuous(downs, system):
        return CheckResult.holds()
    return CheckResult.fails(reason="some principal ideal is not continuous")


def _eval_prop_up_cont(P, system):
    if not tp.is_lower_hereditary(P, system):
        return CheckResult.inapplicable(reason="topology not lower hereditary")
    if not _down_sets_continuous(_principal_downs(P), system):
        return CheckResult.inapplicable(reason="principal ideals not all continuous")
    if not _dd_in_system(P, system):
        return CheckResult.inapplicable(reason="waybelow set not a member")
    if ct.is_s_z_continuous(P, system):
        return CheckResult.holds()
    return CheckResult.fails(**ct.s_z_witness(P, system))


def _eval_thm_s4_equiv(P, system):
    if not tp.is_lower_hereditary(P, system):
        return CheckResult.inapplicable(reason="topology not lower hereditary")
    downs = _principal_downs(P)
    side1 = ct.is_s_z_continuous(P, system) and _rel_dd_in_system(downs, system)
    side2 = _down_sets_continuous(downs, system) and _dd_in_system(P, system)
    if side1 == side2:
        return CheckResult.holds()
    return CheckResult.fails(global_side=side1, local_side=side2)


def _eval_prop_beneath(P, system):
    gamma = tp.gamma_subbasis(P, system)
    bottom = ps.least_of(P, P.full)
    for y in range(P.n):
        bset = ct.beneath_set(P, system, y)
        if not gamma.is_closed(bset):
            return CheckResult.fails(
                element=P.labels[y], reason="beneath set not subbasic closed"
            )
        if bset & ~P.down[y]:
            return CheckResult.fails(element=P.labels[y], reason="beneath above")
        if bottom is not None and not (bset >> bottom) & 1:
            return CheckResult.fails(element=P.labels[y], reason="bottom not beneath")
    for m in range(P.n):
        for x in range(P.n):
            if not P.leq(m, x):
                continue
            for y in range(P.n):
                if not ct.beneath(P, system, x, y):
                    continue
                for n_ in range(P.n):
                    if P.leq(y, n_) and not ct.beneath(P, system, m, n_):
                        return CheckResult.fails(
                            chain=(P.labels[m], P.labels[x], P.labels[y], P.labels[n_]),
                            reason="interpolation broken",
                        )
    return CheckResult.holds()


def _eval_prop_union_sup(P, system):
    L = md.gamma_lattice(P, system)
    if L.poset.n > LATTICE_CAP:
        return CheckResult.inapplicable(reason="lattice too large")
    return md.union_sup_check(P, system)


def _eval_gamma_prealgebraic(P, system):
    L = md.gamma_lattice(P, system)
    if L.poset.n > LATTICE_CAP:
        return CheckResult.inapplicable(reason="lattice too large")
    return md.check_gamma_lattice(L)


def _eval_lemma_galois_cut(P, system):
    for S in _inner_posets():
        for d, _ in gl.enumerate_galois_connections(P, S):
            if not gl.lower_preserves_cuts(P, S, d):
                return CheckResult.fails(cod=repr(S), table=d)
    return CheckResult.holds()


def _eval_lemma_galois_closed(P, system):
    for S in _inner_posets():
        for d, g in gl.enumerate_galois_connections(P, S):
            if not gl.upper_image_closed(P, S, g, system):
                return CheckResult.fails(cod=repr(S), table=d)
    return CheckResult.holds()


def _eval_lemma_galois_beneath(P, system):
    delta_cont = ct.is_delta_z_continuous(P, system)
    for S in _inner_posets():
        for d, g in gl.enumerate_galois_connections(P, S):
            cond1 = gl.upper_preserves_closed_cuts(P, S, g, system)
            cond2 = gl.lower_preserves_beneath(P, S, d, system)
            if cond1 and not cond2:
                return CheckResult.fails(
                    cod=repr(S), table=d, direction="(1) without (2)"
                )
            if delta_cont and cond2 and not cond1:
                return CheckResult.fails(
                    cod=repr(S), table=d, direction="(2) without (1)"
                )
    return CheckResult.holds()


def _eval_lemma_kz_zcpo(P, system):
    if not is_zcpo(P, system):
        return CheckResult.inapplicable(reason="not a zcpo")
    # Checked on the member ideals of Z(K), K the compacts: a member S ⊆ K
    # has the upper bounds of its down-closure in K, in K and in P alike.
    k = ct.kz_compacts(P, system)
    sub = ps.restrict(P, k)
    failing = {}
    for d in system.member_ideals(sub.poset):
        s_sub = ps.sup_of(sub.poset, d)
        if s_sub is None:
            failing[d] = "no sup"
        elif sub.embed[s_sub] != ps.sup_of(P, sub.to_parent(d)):
            failing[d] = "sup disagrees with ambient sup"
    if not failing:
        return CheckResult.holds()
    m = first_member(sub.poset, system, failing)
    return CheckResult.fails(
        member=sub.poset.names(m), reason=failing[ps.down_set(sub.poset, m)]
    )


def _guarded(f, *args):
    try:
        return f(*args)
    except SizeCapError as e:
        return CheckResult.inapplicable(reason=str(e))
    except SupMissingError as e:
        return CheckResult.fails(reason=str(e))


def _eval_thm_adjunction(P, system):
    L = md.gamma_lattice(P, system)
    if L.poset.n > LATTICE_CAP:
        return CheckResult.inapplicable(reason="lattice too large")
    return _guarded(md.verify_adjunction, P, system)


def _eval_thm_monad(P, system):
    if md.gamma_lattice(P, system).poset.n > LATTICE_CAP:
        return CheckResult.inapplicable(reason="lattice too large")
    return _guarded(md.verify_monad_laws, P, system)


def _eval_thm_em(P, system):
    if md.gamma_lattice(P, system).poset.n > LATTICE_CAP:
        return CheckResult.inapplicable(reason="lattice too large")
    d = md.delta_object(P, system)
    xi = md.em_structure_map(P, system)
    em_laws = md.em_laws(P, system)
    if xi is not None:
        res = em_laws(xi)
        if not res.ok:
            return res
    # every survivor meets the unit law ξ(η_P(p)) = p, so the search walks
    # only the tables that do; two points with one unit value leave that
    # value no choice, and the search no table
    pins = [P.full] * d.poset.n
    for p, e in enumerate(md.eta(P, system)):
        pins[e] &= 1 << p
    survivors = []
    continuous = tp.sigma_z_continuity(d.poset, P, system)
    for cand in ps.monotone_tables(d.poset, P, pins):
        if not continuous(cand):
            continue
        if em_laws(cand).ok:
            survivors.append(cand)
    if xi is None and survivors:
        return CheckResult.fails(
            reason="structure map on a non-delta-cpo", tables=survivors
        )
    if xi is not None and survivors != [xi]:
        return CheckResult.fails(reason="structure map not unique", tables=survivors)
    return CheckResult.holds()


def _sup_failure(table, sups, rows, cod_sups):
    """The first i with f(sups[i]) ≠ sup f(rows[i]), read from ``cod_sups``
    by mask, for a monotone f given by its ``table``; None if there is
    none.  With ``rows[i]`` the maximal points of a set A, sup f(rows[i])
    is sup f(A), whether or not it exists: each point of A lies under one
    of them, so f(A) and f(max A) have the same upper bounds."""
    for i, row in enumerate(rows):
        image = 0
        for p in row:
            image |= 1 << table[p]
        if table[sups[i]] != cod_sups[image]:
            return i
    return None


def _eval_prop_em_morph(P, system):
    if not md.is_delta_cpo(P, system):
        return CheckResult.inapplicable(reason="domain not a delta-cpo")
    # ξ_P's table holds sup A for each compact A; both sides read it, and
    # the sup equation reads each A at its maximal points
    xi_p = md.em_structure_map(P, system)
    rows = ps.maxima(P, md.delta_object(P, system).sets)
    for Q in _inner_posets():
        xi_q = md.em_structure_map(Q, system)
        if xi_q is None:  # ξ_Q exists exactly on the δ-cpos
            continue
        continuous = tp.sigma_z_continuity(P, Q, system)
        delta = md.delta_tables(P, Q, system)
        sups_q = ps.sup_table(Q)
        for f in ps.map_tables(P, Q):
            if not continuous(f):
                continue
            eq = _sup_failure(f, xi_p, rows, sups_q) is None
            df, bad = delta(f)
            if df is None:
                return CheckResult.fails(reason="functor ill-typed", **bad)
            square = [f[s] for s in xi_p] == [xi_q[v] for v in df]
            if eq != square:
                return CheckResult.fails(
                    cod=repr(Q), table=f, equation=eq, square=square
                )
    return CheckResult.holds()


def _eval_ctrl_directed(P, system):
    if system.name != "directed":
        return CheckResult.inapplicable(reason="control applies to the directed system")
    if ct.is_s_z_continuous(P, system) and ct.is_weakly_meet(P, system):
        return CheckResult.holds()
    return CheckResult.fails()


def _eval_ctrl_finite(P, system):
    if system.name != "finite":
        return CheckResult.inapplicable(reason="control applies to the finite system")
    for x in range(P.n):
        for y in range(P.n):
            if ct.beneath(P, system, x, y) != P.leq(x, y):
                return CheckResult.fails(pair=(P.labels[x], P.labels[y]))
    if not ct.is_delta_z_continuous(P, system):
        return CheckResult.fails(reason="not delta continuous")
    if ct.kz_compacts(P, system) != P.full:
        return CheckResult.fails(reason="some element is not compact")
    return CheckResult.holds()


# -- registry ------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One verifiable statement: default system scope plus the population
    depth the suite exercises it at (run_claim's default)."""

    id: str
    statement: str
    systems: tuple
    evaluate: object
    max_size: int = 4

    def __repr__(self):
        return f"Claim({self.id})"


_CLAIMS = [
    Claim(
        "lemma-wmc",
        "weak meet continuity coincides with openness of ↑(↓x ∩ U)",
        ALL_SYSTEMS,
        _eval_lemma_wmc,
        max_size=5,
    ),
    Claim(
        "lemma-semilattice",
        "on Z-complete semilattices weak meet continuity is the meet distribution law",
        ALL_SYSTEMS,
        _eval_lemma_semilattice,
        max_size=5,
    ),
    Claim(
        "prop-gamma-wmc",
        "P and its closed-set lattice agree on weak meet continuity",
        ALL_SYSTEMS,
        _eval_prop_gamma_wmc,
        max_size=4,
    ),
    Claim(
        "lemma-int",
        "interiors of up-closures stay inside the union of waybelow-above sets",
        ALL_SYSTEMS,
        _eval_lemma_int,
        max_size=5,
    ),
    Claim(
        "lemma-uu-eq",
        "the two waybelow liftings of a finite set agree under quasicontinuity",
        ALL_SYSTEMS,
        _eval_lemma_uu_eq,
        max_size=5,
    ),
    Claim(
        "thm-main-s3",
        "continuity = weak meet continuity + quasicontinuity = weak meet continuity + separation"
        " (assumes the system's family-union and minimal-family machinery; singletons and"
        " chains fail those on two-element instances and are out of default scope)",
        ("finite", "directed", "connected"),
        _eval_thm_main_s3,
        max_size=5,
    ),
    Claim(
        "lemma-sigma-cont",
        "map continuity coincides with cut preservation and implies closure preservation",
        ALL_SYSTEMS,
        _eval_lemma_sigma_cont,
        max_size=4,
    ),
    Claim(
        "lemma-lh",
        "filtered bounds imply lower hereditariness; four reformulations agree",
        ALL_SYSTEMS,
        _eval_lemma_lh,
        max_size=5,
    ),
    Claim(
        "cor-zcpo-lh",
        "zcpos have lower hereditary subbasic topologies",
        ALL_SYSTEMS,
        _eval_cor_zcpo_lh,
        max_size=5,
    ),
    Claim(
        "thm-local-wmc",
        "under lower hereditariness weak meet continuity is a local property",
        ALL_SYSTEMS,
        _eval_thm_local_wmc,
        max_size=5,
    ),
    Claim(
        "prop-down-cont",
        "relative waybelow membership makes every principal ideal continuous",
        ALL_SYSTEMS,
        _eval_prop_down_cont,
        max_size=5,
    ),
    Claim(
        "prop-up-cont",
        "continuous principal ideals with member waybelow sets make P continuous",
        ALL_SYSTEMS,
        _eval_prop_up_cont,
        max_size=5,
    ),
    Claim(
        "thm-s4-equiv",
        "the global and principal-ideal continuity packages are equivalent",
        ALL_SYSTEMS,
        _eval_thm_s4_equiv,
        max_size=5,
    ),
    Claim(
        "prop-beneath",
        "beneath is below, interpolates with the order, holds at the bottom, and closes",
        ALL_SYSTEMS,
        _eval_prop_beneath,
        max_size=5,
    ),
    Claim(
        "prop-union-sup",
        "sups of closed families of closed sets are plain unions",
        ALL_SYSTEMS,
        _eval_prop_union_sup,
        max_size=4,
    ),
    Claim(
        "gamma-prealgebraic",
        "every closed-set lattice is complete and prealgebraic",
        ALL_SYSTEMS,
        _eval_gamma_prealgebraic,
        max_size=4,
    ),
    Claim(
        "lemma-galois-cut",
        "lower adjoints preserve cuts of arbitrary subsets",
        ALL_SYSTEMS,
        _eval_lemma_galois_cut,
        max_size=3,
    ),
    Claim(
        "lemma-galois-closed",
        "down-closures of upper-adjoint images of closed sets are closed",
        ALL_SYSTEMS,
        _eval_lemma_galois_closed,
        max_size=3,
    ),
    Claim(
        "lemma-galois-beneath",
        "closed-cut preservation transfers beneath along the lower adjoint",
        ALL_SYSTEMS,
        _eval_lemma_galois_beneath,
        max_size=3,
    ),
    Claim(
        "lemma-kz-zcpo",
        "compacts of a zcpo form a zcpo with the ambient sups",
        ALL_SYSTEMS,
        _eval_lemma_kz_zcpo,
        max_size=5,
    ),
    Claim(
        "thm-adjunction",
        "the closed-family functor is left adjoint to the compacts functor",
        ALL_SYSTEMS,
        _eval_thm_adjunction,
        max_size=4,
    ),
    Claim(
        "thm-monad",
        "unit, multiplication, associativity and naturality of the induced monad",
        ALL_SYSTEMS,
        _eval_thm_monad,
        max_size=4,
    ),
    Claim(
        "thm-em",
        "algebra structure maps exist exactly on delta-cpos, uniquely",
        ALL_SYSTEMS,
        _eval_thm_em,
        max_size=4,
    ),
    Claim(
        "prop-em-morph",
        "algebra morphisms are exactly the sup-preserving continuous maps",
        ALL_SYSTEMS,
        _eval_prop_em_morph,
        max_size=4,
    ),
    Claim(
        "ctrl-directed",
        "directed control: every finite poset is continuous and weakly meet continuous",
        ("directed",),
        _eval_ctrl_directed,
        max_size=5,
    ),
    Claim(
        "ctrl-finite",
        "finite control: beneath collapses to the order and everything is compact",
        ("finite",),
        _eval_ctrl_finite,
        max_size=5,
    ),
]


def registry():
    return tuple(_CLAIMS)


def get_claim(claim_id):
    for c in _CLAIMS:
        if c.id == claim_id:
            return c
    raise UnknownClaimError(f"unknown claim {claim_id!r}")


# -- harness --------------------------------------------------------------


class _SharedEvaluation:
    """One call's evaluator of cells, each named by (system name, poset, key).

    Where the call covers two or more of ``singletons``, ``chains`` and
    ``directed``, an instance is evaluated once for all of them, through
    ``PRINCIPAL_IDEALS``: the three have the same I_Z(P), and a checker that
    reads nothing else returns the same result with each.  The result is
    kept under the cell's key, the instance's (n, index).  A checker that
    reads more raises ``SystemViewError``; that instance, and every later
    one in the call, is then evaluated with each system itself, so a claim
    that reads Z(P) costs one wasted attempt.  The kept results live as
    long as the object, one call, so no later call sees a stale result.
    """

    def __init__(self, evaluate, system_names):
        self.evaluate = evaluate
        self.try_view = len(set(system_names) & set(PRINCIPAL_IDEAL_SYSTEMS)) > 1
        self.shared = {}  # key -> the result for every principal-ideal system

    def __call__(self, system_name, P, key):
        if system_name in PRINCIPAL_IDEAL_SYSTEMS:
            if key in self.shared:
                return self.shared[key]
            if self.try_view:
                try:
                    res = _guarded(self.evaluate, P, PRINCIPAL_IDEALS)
                except SystemViewError:
                    self.try_view = False
                else:
                    self.shared[key] = res
                    return res
        return _guarded(self.evaluate, P, get_system(system_name))


def _worker(claim_id, tasks):
    """Evaluate one claim on a worker's cells, in order.

    A task is (system, n, index, up): the worker takes the poset from its
    own up-to-iso population by index, so each instance stays one object in
    one worker and its cached tables serve every later claim.  ``up``
    guards that the worker's population is the caller's.  An instance's cells all
    go to the same worker, so it shares them as the caller would.
    """
    evaluate = _SharedEvaluation(get_claim(claim_id).evaluate, [t[0] for t in tasks])
    out = []
    for system_name, n, index, up in tasks:
        P = ps.population(n)[index]
        if P.up != up:
            raise RuntimeError(f"worker's n={n} population differs at {index}")
        res = evaluate(system_name, P, (n, index))
        out.append((res.status.value, res.witness))
    return out


def _serve(conn):
    """A worker's loop: run each (fn, args) received and send back
    (True, result) or (False, exception), until the pipe closes."""
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = True, fn(*args)
        except Exception as e:
            reply = False, e
        conn.send(reply)


class _Worker:
    """One pool worker: a process serving calls over a pipe.

    It starts by the platform's default method, as ``multiprocessing.Pool``
    did here before.  Where that is fork (Linux), a worker inherits the
    populations and tables the caller has built, and a calling script needs
    no ``__main__`` guard; the pool starts no threads of its own.
    """

    def __init__(self):
        # imported here, as most processes never start a worker
        import multiprocessing

        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(target=_serve, args=(child,), daemon=True)
        self.process.start()
        child.close()

    def send(self, fn, *args):
        self.conn.send((fn, args))

    def result(self):
        ok, value = self.conn.recv()
        if not ok:
            raise value
        return value

    def close(self):
        self.conn.close()
        self.process.terminate()
        self.process.join()


_workers = []  # the pool: live for the whole process, one size at a time

# A pooled call pays a round trip to every worker, about 2 ms on a 2-core
# x86 VM, and the first one also forks the workers, about 12 ms for two.
# A call of a few ms is then slower and steadier in process, so run_claim
# evaluates in process until a call has run this long and pools the rest.
POOL_AFTER_S = 0.2
_clock = time.monotonic


def _worker_set(count):
    """The pool with ``count`` workers; a pool of another size is closed first."""
    if len(_workers) != count:
        close_workers()
        while len(_workers) < count:
            _workers.append(_Worker())  # kept at once, so a failed start can close them
    return _workers


def close_workers():
    """End the pool's workers; the next pooled call starts a fresh pool."""
    while _workers:
        _workers.pop().close()


atexit.register(close_workers)


def _run_pooled(claim_id, cells, count):
    """Each cell's result, computed by worker ``index % count``: one batch per
    worker, and the same worker for an instance on every call.  An exception
    in a worker reaches the caller and the pool is thrown away."""
    batches = [[] for _ in range(count)]
    for _, name, n, index, P in cells:
        batches[index % count].append((name, n, index, P.up))
    try:
        workers = _worker_set(count)
        for w, batch in zip(workers, batches):
            w.send(_worker, claim_id, batch)
        outcomes = [iter(w.result()) for w in workers]
    except BaseException:
        close_workers()
        raise
    return [
        CheckResult(Status(status), witness)
        for status, witness in (next(outcomes[index % count]) for _, _, _, index, _ in cells)
    ]


def _evaluate_cells(claim, cells, jobs):
    """Each cell's result: in process, and with ``jobs > 1`` in the pool
    for the cells left once the call has run ``POOL_AFTER_S``.  In process,
    each instance is evaluated on the poset enumerated by the caller, and
    shared between systems as ``_SharedEvaluation`` says."""
    workers = min(jobs, os.cpu_count() or 1)
    evaluate = _SharedEvaluation(claim.evaluate, [cell[1] for cell in cells])
    results = []
    start = _clock()
    for i, (_, name, n, index, P) in enumerate(cells):
        count = min(workers, len(cells) - i)
        if count > 1 and _clock() - start >= POOL_AFTER_S:
            return results + _run_pooled(claim.id, cells[i:], count)
        results.append(evaluate(name, P, (n, index)))
    return results


def _record_labeled(report, claim, system_name, n, class_results):
    """Count every labeled order on n points by the result of its class.

    By orbit-stabilizer a class stands for n!/|Aut P| labeled orders, and
    every claim is a statement up to isomorphism.  The witnesses are the
    first ``WITNESS_CAP`` labeled orders, in enumeration order, whose class
    fails; each is evaluated itself, so its witness names its own labels.
    One that does not fail raises ``LabelDependenceError``: a count built on
    a checker that reads labels would not be exact.
    """
    system = get_system(system_name)
    labels = ps.default_labels(n)
    rows, classes, sizes = ps.labeled_orbits(n)
    failing = sum(size for res, size in zip(class_results, sizes) if res.status is Status.FAILS)
    taken = [0] * len(sizes)
    wanted = min(WITNESS_CAP, failing)
    for up, c in zip(rows, classes):
        if len(report.witnesses) == wanted:
            break
        if class_results[c].status is Status.FAILS:
            # the poset of population(n, "labeled"), which is not built here
            P = ps.FinitePoset(labels, up, _trusted=True)
            res = _guarded(claim.evaluate, P, system)
            if res.status is not Status.FAILS:
                raise LabelDependenceError(
                    f"{claim.id} on {system_name}: the labeled order {P!r} "
                    f"{res.status.value}, but its class fails"
                )
            report.record(res, P)
            taken[c] += 1
    # a failing class has orders left only once the witnesses are full
    for res, size, done in zip(class_results, sizes, taken):
        if size > done:
            report.record(res, count=size - done)


def run_claim(claim_id, max_size=None, mode="up_to_iso", systems=None, jobs=1):
    """Evaluate one claim over all posets of 1 to ``max_size`` points and
    the given systems.

    Returns one ClaimReport per (system, size), deterministically; ``jobs``
    only parallelizes, it never reorders, and only what is left of a call
    after ``POOL_AFTER_S`` goes to the pool.  ``max_size`` defaults to the
    claim's own tested depth; above ``poset.ENUM_CAP`` it raises
    ``SizeCapError`` before any work.  ``systems`` defaults to the claim's
    scope; given, exactly those systems run, in that order, in scope or not.
    Either mode evaluates one poset per isomorphism class; ``"labeled"``
    counts each class once per labeled order in it (see ``_record_labeled``).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if mode not in ("labeled", "up_to_iso"):
        raise ValueError(f"unknown mode {mode!r}")
    claim = get_claim(claim_id)
    if max_size is None:
        max_size = claim.max_size
    if max_size > ps.ENUM_CAP:
        raise SizeCapError("run_claim", max_size, ps.ENUM_CAP)
    if max_size < 1:
        raise ValueError(f"max_size {max_size} is below 1")
    system_names = claim.systems if systems is None else tuple(systems)
    for name in system_names:
        get_system(name)  # unknown names raise ValueError before any work
    reports = []
    cells = []
    for name in system_names:
        for n in range(1, max_size + 1):
            report = ClaimReport(claim_id, f"{name} n={n}")
            reports.append(report)
            for index, P in enumerate(ps.enumerate_posets(n)):
                cells.append((report, name, n, index, P))
    results = _evaluate_cells(claim, cells, jobs)
    if mode == "up_to_iso":
        for (report, *_, P), res in zip(cells, results):
            report.record(res, P)
        return reports
    # the cells of a report are consecutive, one per class
    results = iter(results)
    for report, (name, n) in zip(reports, product(system_names, range(1, max_size + 1))):
        _record_labeled(report, claim, name, n, list(islice(results, ps.count_posets(n))))
    return reports


def format_reports(reports):
    """The harness text format: one CLAIM line per cell plus witness blocks."""
    lines = []
    for r in reports:
        lines.append(r.summary_line())
        for instance, witness in r.witnesses:
            lines.append("WITNESS")
            if isinstance(instance, ps.FinitePoset):
                lines.extend(zio.format_poset_text(instance, "witness").rstrip().splitlines())
            lines.extend(zio.format_witness(witness))
    return "\n".join(lines) + "\n"
