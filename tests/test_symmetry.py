"""Automorphisms, the lex-least test of orbit representatives, and the
adjunction's walk over P -> K(L), which decides one function table per
orbit; with the monad's naturality pass over P -> Q, which decides every
table, under the same tampered tables.  Each is held to a brute-force group
or orbit, or to the full walk (``oracles.adjunction_walk``, and the object
loop ``oracles.naturality_walk``)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import ANTI2, ANTI3, POINT, assert_refused, patch_table
from zdt import continuity as ct, monad as md, poset as ps, topology as tp
from zdt.reports import CheckResult, Status
from zdt.systems import DIRECTED, FINITE, PRINCIPAL_IDEALS, SYSTEMS

EVERY_SYSTEM = (*SYSTEMS.values(), PRINCIPAL_IDEALS)


def _random_poset(seed, n):
    rows = oracles.random_orders(random.Random(seed), n, 5)[seed % 5]
    return ps.FinitePoset(ps.default_labels(n), rows)


@given(st.integers(0, 2**32 - 1), st.sampled_from((6, 7)))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_automorphisms_and_orbit_sizes_against_brute_force(seed, n):
    # Aut P against every relabeling of the 6 or 7 points; and the tables
    # P -> Q that lex_least keeps under the actions of Aut P × Aut Q, as the
    # adjunction's walk takes them, are one per orbit, whose orbits, from
    # the brute-force groups, cover map_tables exactly
    P = _random_poset(seed, n)
    group_p = oracles.automorphisms(P)
    assert list(ps.automorphisms(P)) == sorted(group_p)
    for Q in ps.enumerate_posets(2):
        pairs = [(s, t) for s in group_p for t in oracles.automorphisms(Q)]
        actions = tuple(
            (ps.inverse(s), t) for s in ps.automorphisms(P) for t in ps.automorphisms(Q)
        )[1:]
        tables = ps.map_tables(P, Q)
        reps = tuple(f for f in tables if ps.lex_least(f, actions))
        assert reps == tuple(f for f in tables if f == min(oracles.orbit(f, pairs)))
        assert sum(len(oracles.orbit(f, pairs)) for f in reps) == len(tables)


def test_automorphisms_of_small_posets_against_brute_force():
    # every labeled order up to 4 points, and the classes on 5
    posets = [P for n in range(1, 5) for P in ps.enumerate_posets(n, "labeled")]
    for P in posets + list(ps.enumerate_posets(5)):
        assert list(ps.automorphisms(P)) == sorted(oracles.automorphisms(P))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_walks_match_the_full_walks(n):
    for P in ps.enumerate_posets(n):
        for system in EVERY_SYSTEM:
            res = md.verify_adjunction(P, system)
            assert res == oracles.adjunction_walk(P, system), (P, system.name)
            eta_p, mu_p = md.eta(P, system), md.mu(P, system)
            for Q in (Q for k in (1, 2, 3) for Q in ps.enumerate_posets(k)):
                got = oracles.naturality_pass(P, Q, system, eta_p, mu_p)
                want = oracles.naturality_walk(P, Q, system)
                assert got == want, (P, Q, system.name)


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
    assert len(ps.automorphisms(ANTI2)) == 2
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


def test_a_beneath_table_that_breaks_the_symmetry_shrinks_the_adjunction_group(monkeypatch):
    # Γ^Z of the 3-antichain on `finite` is ∅, {a}, {b}, {c} and the
    # carrier.  Declaring {a}, {b} and the carrier, but not {c}, beneath ∅
    # leaves only the swap of a and b: a mediator whose top goes to {c} now
    # fails, while under all of Aut P the least table of its orbit sends the
    # top to {a} and passes
    LP = md.gamma_lattice(ANTI3, FINITE)
    _, sub = md.epsilon(LP.poset, FINITE)
    assert len(md._adjunction_actions(ANTI3, FINITE, LP, sub)) == 5
    real = ct._beneath_all

    def patched(Q, system):
        table = real(Q, system)
        return (0b10111, *table[1:]) if Q == LP.poset else table

    monkeypatch.setattr(ct, "_beneath_all", patched)
    assert [moved for moved, _ in md._adjunction_actions(ANTI3, FINITE, LP, sub)] == [
        (1, 0, 2)
    ]
    res = md.verify_adjunction(ANTI3, FINITE)
    assert res == oracles.adjunction_walk(ANTI3, FINITE)
    assert res.witness == {"part": "mediator", "reason": "beneath not preserved"}


def test_a_closure_gap_that_breaks_the_symmetry_shrinks_the_adjunction_group(monkeypatch):
    # the closure gaps of the 3-antichain on `finite` are {a, b}, {a, c} and
    # {b, c}, each closing to the carrier.  Declaring that {b, c} closes to
    # {a} leaves only the automorphisms that fix a, and fails every mediator
    # that does not send c below b, as the full walk does
    LP = md.gamma_lattice(ANTI3, FINITE)
    _, sub = md.epsilon(LP.poset, FINITE)
    real = tp.closure_gaps
    gaps = real(ANTI3, FINITE)
    assert gaps == ((1, 1, 4), (1, 2, 4), (2, 2, 4))
    monkeypatch.setattr(
        tp,
        "closure_gaps",
        lambda P, system: (*gaps[:2], (2, 2, 1)) if P == ANTI3 else real(P, system),
    )
    assert [moved for moved, _ in md._adjunction_actions(ANTI3, FINITE, LP, sub)] == [
        (0, 2, 1)
    ]
    res = md.verify_adjunction(ANTI3, FINITE)
    assert res == oracles.adjunction_walk(ANTI3, FINITE)
    assert res.witness == {"part": "mediator", "reason": "no upper adjoint"}


def test_a_compact_family_that_breaks_the_symmetry_shrinks_the_adjunction_group(
    patch_closed_sets,
):
    # K(L) of the 3-antichain on `directed` is ∅ below {a}, {b} and {c};
    # taking its closed set {∅, {a}, {b}} out of Γ^Z(K(L)) leaves only the
    # swap of a and b, which maps the rest of that family onto itself
    LP = md.gamma_lattice(ANTI3, DIRECTED)
    _, sub = md.epsilon(LP.poset, DIRECTED)
    assert len(md._adjunction_actions(ANTI3, DIRECTED, LP, sub)) == 5
    # warm every cache the run reads, so the patch reaches the group and
    # the continuity check alone
    assert md.verify_adjunction(ANTI3, DIRECTED).status is Status.HOLDS
    assert sub.poset.labels == ("s_empty", "s_a", "s_b", "s_c")
    patch_closed_sets(sub.poset, {0b0111})
    assert [moved for moved, _ in md._adjunction_actions(ANTI3, DIRECTED, LP, sub)] == [
        (1, 0, 2)
    ]
    assert md.verify_adjunction(ANTI3, DIRECTED) == oracles.adjunction_walk(ANTI3, DIRECTED)


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
