"""The adjunction's decision (``monad._mediators_pass``) and its fallback
walk over P -> K(L), held to the full walk ``oracles.adjunction_walk``:
on every instance up to 4 points, and under tampered tables, each of which
breaks one condition of the decision so that it refuses and the walk
decides, witness for witness."""

import pytest

import oracles
from oracles import ANTI3
from zdt import continuity as ct, monad as md, poset as ps, topology as tp
from zdt.reports import CheckResult, Status
from zdt.systems import CONNECTED, FINITE, PRINCIPAL_IDEALS, SYSTEMS

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
