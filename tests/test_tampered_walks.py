"""The decisions of the lattice path and the walks they fall back to, held
to the full walks, on every instance up to 4 points and under tampered
tables.

The adjunction's decision (``monad._mediators_pass``) and its walk over
P -> K(L) are held to ``oracles.adjunction_walk``: each tamper breaks one
condition of the decision, so that it refuses and the walk decides, witness
for witness.  The monad's naturality pass over P -> Q is held to the object
loop ``oracles.naturality_walk``, which decides every table, under tampers
that break the symmetry of an instance: a pass that decided one table per
orbit of its automorphisms would miss their failures."""

import pytest

import oracles
from oracles import ANTI2, ANTI3, POINT, assert_refused, patch_table
from zdt import continuity as ct, monad as md, poset as ps, topology as tp
from zdt.reports import CheckResult, Status
from zdt.systems import CONNECTED, DIRECTED, FINITE, PRINCIPAL_IDEALS, SYSTEMS

EVERY_SYSTEM = (*SYSTEMS.values(), PRINCIPAL_IDEALS)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_decided_walks_match_the_full_walks(n):
    for P in ps.enumerate_posets(n):
        for system in EVERY_SYSTEM:
            res = md.verify_adjunction(P, system)
            assert res == oracles.adjunction_walk(P, system), (P, system)
            eta_p, mu_p = md.eta(P, system), md.mu(P, system)
            for Q in (Q for k in (1, 2, 3) for Q in ps.enumerate_posets(k)):
                got = oracles.naturality_pass(P, Q, system, eta_p, mu_p)
                want = oracles.naturality_walk(P, Q, system)
                assert got == want, (P, Q, system)


def _decided(monkeypatch, P, system):
    """``verify_adjunction(P, system)``, and what ``_mediators_pass``
    returned in it."""
    real = md._mediators_pass
    seen = []

    def spy(*tables):
        seen.append(real(*tables))
        return seen[-1]

    monkeypatch.setattr(md, "_mediators_pass", spy)
    return md.verify_adjunction(P, system), seen


def _patch_beneath(monkeypatch, L, table):
    """Make ``continuity._beneath_all`` return ``table`` at the poset L."""
    real = ct._beneath_all
    monkeypatch.setattr(
        ct, "_beneath_all", lambda Q, system: table if Q == L else real(Q, system)
    )


def test_a_tampered_beneath_table_refuses_the_decision(monkeypatch):
    # Γ^Z of the 3-antichain on `finite` is ∅, {a}, {b}, {c} and the
    # carrier, all compact.  Declaring {a}, {b} and the carrier, but not
    # {c}, beneath ∅ breaks the beneath equation at ∅: a mediator whose top
    # goes to {c} fails, and the decision refuses
    LP = md.gamma_lattice(ANTI3, FINITE)
    assert _decided(monkeypatch, ANTI3, FINITE) == (CheckResult.holds(), [True])
    _patch_beneath(monkeypatch, LP.poset, (0b10111, *ct._beneath_all(LP.poset, FINITE)[1:]))
    res, seen = _decided(monkeypatch, ANTI3, FINITE)
    assert seen == [False]
    assert res == oracles.adjunction_walk(ANTI3, FINITE)
    assert res.witness == {"part": "mediator", "reason": "beneath not preserved"}


def test_compacts_that_are_not_join_closed_refuse_the_decision(monkeypatch):
    # Γ^Z of the 3-antichain on `connected` is every subset, all compact.
    # Taking the carrier out of its own beneath set leaves the other seven
    # compact, and the beneath table still the union of the ↓k below each
    # point, but {a, b} ∨ {c} is no longer compact while {a, b} has two
    # maximal points: the mediator of a map onto {a, b} and {c} fails, and
    # the decision refuses
    L = md.gamma_lattice(ANTI3, CONNECTED).poset
    table = ct._beneath_all(L, CONNECTED)
    assert table[7] == L.full and L.labels[7] == "s_a_b_c"
    _patch_beneath(monkeypatch, L, (*table[:7], L.full & ~(1 << 7)))
    assert ct.kz_compacts(L, CONNECTED) == L.full & ~(1 << 7)
    res, seen = _decided(monkeypatch, ANTI3, CONNECTED)
    assert seen == [False]
    assert res == oracles.adjunction_walk(ANTI3, CONNECTED)
    assert res.witness == {"part": "mediator", "reason": "beneath not preserved"}


def test_a_tampered_closure_gap_refuses_the_decision(monkeypatch):
    # the closure gaps of the 3-antichain on `finite` are {a, b}, {a, c} and
    # {b, c}, each closing to the carrier.  Declaring that {b, c} closes to
    # {a} fails every mediator that does not send c below b, as the full
    # walk does, and the decision refuses
    real = tp.closure_gaps
    gaps = real(ANTI3, FINITE)
    assert gaps == ((1, 1, 4), (1, 2, 4), (2, 2, 4))
    monkeypatch.setattr(
        tp,
        "closure_gaps",
        lambda P, system: (*gaps[:2], (2, 2, 1)) if P == ANTI3 else real(P, system),
    )
    res, seen = _decided(monkeypatch, ANTI3, FINITE)
    assert seen == [False]
    assert res == oracles.adjunction_walk(ANTI3, FINITE)
    assert res.witness == {"part": "mediator", "reason": "no upper adjoint"}


def test_compacts_below_a_point_that_are_not_closed_refuse_the_decision(monkeypatch):
    # Γ^Z of the 3-antichain on `connected` is every subset, all compact.
    # A beneath table that is the union of the ↓k for k among ∅, {a}, {b}
    # and {c} leaves those four compact, none with two maximal points, so
    # the beneath condition holds; but the compacts below {a, b}, ∅, {a}
    # and {b}, are connected through ∅ and their cut is all of K(L), so
    # they are not closed there.  The decision refuses, and the walk holds,
    # as the full walk does.  Tampering with Γ^Z(K(L)) itself cannot show
    # this: K(L) is δ(P) as a poset, and the poset-side triangle, which
    # reads its closures, fails first
    L = md.gamma_lattice(ANTI3, CONNECTED).poset
    atoms = 0b10111
    assert L.labels[:3] == ("s_empty", "s_a", "s_b") and L.labels[4] == "s_c"
    table = []
    for d in L.down:
        union = 0
        for k in ps.bits(d & atoms):
            union |= L.down[k]
        table.append(union)
    _patch_beneath(monkeypatch, L, tuple(table))
    assert ct.kz_compacts(L, CONNECTED) == atoms
    _, sub = md.epsilon(L, CONNECTED)
    assert not tp.gamma_subbasis(sub.poset, CONNECTED).is_closed(0b0111)
    res, seen = _decided(monkeypatch, ANTI3, CONNECTED)
    assert seen == [False]
    assert res == oracles.adjunction_walk(ANTI3, CONNECTED)
    assert res.status is Status.HOLDS


def _naturality(P, system):
    """verify_monad_laws's naturality result at P, and the full walk's."""
    want = None
    for Q in (Q for k in (1, 2, 3) for Q in ps.enumerate_posets(k)):
        want = want or oracles.naturality_walk(P, Q, system)
    want = CheckResult.holds() if want is None else CheckResult.fails(**want)
    return md.verify_monad_laws(P, system), want


def test_naturality_with_a_symmetry_breaking_unit_matches_the_full_walk(monkeypatch):
    # η of the 2-antichain made (1, 0): its swap no longer commutes with η,
    # so tables into it that the swap relates get different verdicts, and
    # the pass, which decides every table, fails where the full walk does
    assert oracles.automorphism_count(2, ANTI2.up) == 2
    patch_table(monkeypatch, "eta", ANTI2, (1, 0))
    got, want = _naturality(ANTI3, FINITE)
    assert got == want and got.status is Status.FAILS
    assert got.witness == {"law": "unit naturality", "map": (1, 1, 1)}


def test_naturality_with_a_symmetry_breaking_multiplication_matches_the_full_walk(
    monkeypatch,
):
    # μ of the 2-antichain sends the compact family {{b}} to {a} in place of
    # {b}: the swap no longer commutes with μ, and the map of the point to b
    # fails, while the map to a, the least table of its orbit, passes
    assert md.mu(ANTI2, DIRECTED) == (0, 0, 1, 2)
    patch_table(monkeypatch, "mu", ANTI2, (0, 0, 1, 1))
    got, want = _naturality(POINT, DIRECTED)
    assert got == want
    assert got.witness == {"law": "multiplication naturality", "map": (1,)}


def test_naturality_with_a_symmetry_breaking_closure_matches_the_full_walk(patch_closure):
    # in the 3-antichain, {c} closes to {b, c}, which is not compact, and
    # every closure stays monotone and reads sets through their down-sets,
    # so the pass reads the tables into it by maximal points.  The first map
    # to fail sends b to c; under all of Aut Q the least table of its orbit
    # would be (0, 1), which passes
    patch_closure(ANTI3, {4: 6, 5: 7})
    assert md.compact_table(ANTI3, DIRECTED)[1]
    got, want = _naturality(ANTI2, DIRECTED)
    assert got == want
    assert got.witness == {
        "law": "functoriality", "of": ("b",), "image_closure": ("b", "c")
    }


def test_naturality_with_a_symmetry_breaking_closed_family_matches_the_full_walk(
    patch_closed_sets,
):
    # Γ^Z of the 3-antichain on `directed` is every subset; without {a, b}
    # only the swap of a and b maps it onto itself, and the pass skips the
    # maps that pull a closed set back to {a, b}, as the full walk does: it
    # finds no failure on any codomain
    eta_p, mu_p = md.eta(ANTI3, DIRECTED), md.mu(ANTI3, DIRECTED)
    patch_closed_sets(ANTI3, {0b011})
    continuous = tp.sigma_z_continuity(ANTI3, ANTI2, DIRECTED)
    assert [f for f in ps.map_tables(ANTI3, ANTI2) if not continuous(f)] == [
        (0, 0, 1), (1, 1, 0)
    ]
    for Q in (Q for k in (1, 2, 3) for Q in ps.enumerate_posets(k)):
        got = oracles.naturality_pass(ANTI3, Q, DIRECTED, eta_p, mu_p)
        assert got is None and got == oracles.naturality_walk(ANTI3, Q, DIRECTED), Q


def test_naturality_on_a_closure_that_reads_more_than_down_sets(patch_closure):
    # on the 2-chain a < b, b closing to itself keeps the closure monotone,
    # but not a function of down-sets: cl {b} ≠ cl ↓b.  So δf cannot fold at
    # maximal points, and the pass refuses the 2-chain, where the full walk
    # finds a δf that escapes the compacts
    Q = ps.from_order_pairs(["a", "b"], [("a", "b")])
    patch_closure(Q, {2: 2})
    assert not md.compact_table(Q, DIRECTED)[1]
    eta_p, mu_p = md.eta(ANTI2, DIRECTED), md.mu(ANTI2, DIRECTED)
    assert_refused(Q, oracles.naturality_pass, ANTI2, Q, DIRECTED, eta_p, mu_p)
    assert oracles.naturality_walk(ANTI2, Q, DIRECTED) == {
        "law": "functoriality", "of": ("b",), "image_closure": ("b",)
    }
