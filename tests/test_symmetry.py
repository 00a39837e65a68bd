"""The monad's naturality pass over P -> Q under tampered tables that break
the symmetry of an instance: a pass that decided one table per orbit of
its automorphisms would miss their failures.  Each is held to the object
loop ``oracles.naturality_walk``, which decides every table; the
adjunction's tamper tests are in ``tests/test_tampered_walks.py``."""

import oracles
from oracles import ANTI2, ANTI3, POINT, assert_refused, patch_table
from zdt import monad as md, poset as ps, topology as tp
from zdt.reports import CheckResult, Status
from zdt.systems import DIRECTED, FINITE


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
