"""Galois connections: adjoint computation and the cut/beneath lemmas."""

import pytest

import oracles
from zdt import claims as cl, continuity as ct, fixtures as fx, galois as gl, poset as ps
from zdt.reports import Status
from zdt.systems import DIRECTED, SYSTEMS


def small_posets(max_n=3):
    return [P for n in range(1, max_n + 1) for P in ps.enumerate_posets(n)]


def test_identity_connection(chain3):
    ident = (0, 1, 2)
    g = gl.upper_adjoint(chain3, chain3, ident)
    assert g == ident and oracles.is_galois(chain3, chain3, ident, g)
    assert gl.lower_preserves_cuts(chain3, chain3, ident)
    for system in SYSTEMS.values():
        assert gl.upper_image_closed(chain3, chain3, g, system)
        assert gl.upper_preserves_closed_cuts(chain3, chain3, g, system)
        assert gl.lower_preserves_beneath(chain3, chain3, ident, system)


def test_upper_adjoint_examples(vee, diamond, chain3):
    two = fx.chain(2)
    # collapsing the incomparable pair of the vee leaves no greatest preimage
    assert gl.upper_adjoint(vee, two, (0, 0, 1)) is None
    # constant to the bottom of a lattice pairs with constant to the top
    g = gl.upper_adjoint(diamond, two, (0, 0, 0, 0))
    assert g is not None and all(diamond.labels[g[y]] == "t" for y in range(two.n))
    assert oracles.lower_adjoint_of(chain3, chain3, (0, 1, 2)) == (0, 1, 2)


def test_adjoint_construction_yields_connections():
    # every g the package builds is the oracle's greatest preimage, makes a
    # connection by the definition, and has d as its lower adjoint
    posets = small_posets(3)
    for T in posets:
        for S in posets:
            for d in ps.map_tables(T, S):
                g = gl.upper_adjoint(T, S, d)
                if g is None:
                    continue
                assert g == oracles.greatest_preimages(T, S, d), (T, S, d)
                assert oracles.is_galois(T, S, d, g)
                assert oracles.lower_adjoint_of(S, T, g) == d


def test_adjoints_against_the_oracle():
    # on every monotone table between posets with n <= 3: an upper adjoint
    # exists iff the oracle finds a greatest point below each y, and a lower
    # adjoint iff the table has an upper adjoint between the duals
    posets = small_posets(3)
    found = {True: 0, False: 0}
    for T in posets:
        for S in posets:
            for d in oracles.monotone_tables(T, S, {}):
                g = gl.upper_adjoint(T, S, d)
                assert (g is not None) == oracles.has_upper_adjoint(T, S, d)
                if g is not None:
                    assert oracles.is_galois(T, S, d, g)
                lower = oracles.lower_adjoint_of(T, S, d)
                assert (lower is not None) == oracles.has_upper_adjoint(
                    oracles.dual(T), oracles.dual(S), d
                )
                if lower is not None:
                    assert oracles.is_galois(S, T, lower, d)
                found[g is not None] += 1
    assert found[True] and found[False]


def test_connections_against_the_oracle():
    # every pair with n <= 3: the lower adjoints are the oracle's monotone
    # tables that have an upper adjoint, in the same order, each paired with
    # the oracle's greatest preimages, and a second call hands back the same
    # pairs
    posets = small_posets(3)
    for T in posets:
        for S in posets:
            found = list(gl.enumerate_galois_connections(T, S))
            expected = [
                (d, oracles.greatest_preimages(T, S, d))
                for d in oracles.monotone_tables(T, S, {})
                if oracles.has_upper_adjoint(T, S, d)
            ]
            assert found == expected, (T, S)
            assert all(oracles.is_galois(T, S, d, g) for d, g in found)
            again = list(gl.enumerate_galois_connections(T, S))
            assert all(a is b for a, b in zip(found, again, strict=True))


def test_lower_cut_preservation_against_the_oracle():
    # lower_preserves_cuts reads only d, so every monotone d is checked,
    # with or without an upper adjoint, and some break cuts
    posets = small_posets(3)
    found = {True: 0, False: 0}
    for T in posets:
        for S in posets:
            for table in oracles.monotone_tables(T, S, {}):
                expected = all(
                    oracles.image(table, oracles.cut(T, a))
                    <= oracles.cut(S, oracles.image(table, a))
                    for a in oracles.subsets(T)
                )
                assert gl.lower_preserves_cuts(T, S, table) == expected, (T, S, table)
                found[expected] += 1
    assert found[True] and found[False]


def test_failing_pair_detected(chain3):
    # (0, 0, 2) ⊣ (1, 2, 2) fails the definition at a = c, y = b, since
    # d(c) = c is not below b while g(b) = c is; the upper adjoint of
    # (0, 0, 2) is (1, 1, 2)
    down, up = (0, 0, 2), (1, 2, 2)
    assert not oracles.is_galois(chain3, chain3, down, up)
    assert gl.upper_adjoint(chain3, chain3, down) == (1, 1, 2)
    assert (down, up) not in gl.enumerate_galois_connections(chain3, chain3)


def test_lemma_suite_exhaustive_all_systems():
    # the three lemmas on every connection between posets with n <= 3:
    # cut preservation, closed images, and the beneath pattern, whose
    # converse is claimed on δ_Z-continuous domains only
    posets = small_posets(3)
    for T in posets:
        for S in posets:
            for d, g in gl.enumerate_galois_connections(T, S):
                assert gl.lower_preserves_cuts(T, S, d), (T, S, d)
                for system in SYSTEMS.values():
                    assert gl.upper_image_closed(T, S, g, system)
                    cond1 = gl.upper_preserves_closed_cuts(T, S, g, system)
                    cond2 = gl.lower_preserves_beneath(T, S, d, system)
                    assert not cond1 or cond2, (T, S, d, system)
                    if ct.is_delta_z_continuous(T, system):
                        assert cond1 == cond2, (T, S, d, system)


def test_beneath_preservation_pattern(wedge):
    # spot check: a connection into the wedge preserving beneath both ways
    two = fx.chain(2)
    for d, g in gl.enumerate_galois_connections(wedge, two):
        cond1 = gl.upper_preserves_closed_cuts(wedge, two, g, DIRECTED)
        cond2 = gl.lower_preserves_beneath(wedge, two, d, DIRECTED)
        assert (not cond1) or cond2


# -- the failure branches of the three Galois evaluators -----------------
#
# Every cell of the three claims holds, so no report reaches these branches.
# Each test patches the predicates an evaluator reads (whatever their
# arguments) and pins the exact witness it returns: the first connection,
# by inner codomain and then by table order, found by the oracle.


def _first_connection(P):
    for S in cl._inner_posets():
        for table in oracles.monotone_tables(P, S, {}):
            if oracles.has_upper_adjoint(P, S, table):
                return S, table


def _evaluate(claim_id, P, system):
    return cl.get_claim(claim_id).evaluate(P, system)


def _always(value):
    return lambda *args: value


@pytest.mark.parametrize(
    "claim_id, predicate",
    [
        ("lemma-galois-cut", "lower_preserves_cuts"),
        ("lemma-galois-closed", "upper_image_closed"),
    ],
)
def test_galois_failure_witness_is_the_first_connection(claim_id, predicate, monkeypatch):
    monkeypatch.setattr(gl, predicate, _always(False))
    for P in small_posets(3):
        S, table = _first_connection(P)
        for system in SYSTEMS.values():
            res = _evaluate(claim_id, P, system)
            assert res.status is Status.FAILS
            assert res.witness == {"cod": repr(S), "table": table}, (P, system)


def test_galois_beneath_failure_one_without_two(monkeypatch):
    monkeypatch.setattr(gl, "upper_preserves_closed_cuts", _always(True))
    monkeypatch.setattr(gl, "lower_preserves_beneath", _always(False))
    for P in small_posets(3):
        S, table = _first_connection(P)
        for system in SYSTEMS.values():
            res = _evaluate("lemma-galois-beneath", P, system)
            assert res.witness == {
                "cod": repr(S), "table": table, "direction": "(1) without (2)"
            }, (P, system)


@pytest.mark.parametrize("delta_continuous", [True, False])
def test_galois_beneath_failure_two_without_one(delta_continuous, monkeypatch):
    # the converse is claimed only on δ_Z-continuous posets
    monkeypatch.setattr(ct, "is_delta_z_continuous", _always(delta_continuous))
    monkeypatch.setattr(gl, "upper_preserves_closed_cuts", _always(False))
    monkeypatch.setattr(gl, "lower_preserves_beneath", _always(True))
    for P in small_posets(3):
        S, table = _first_connection(P)
        for system in SYSTEMS.values():
            res = _evaluate("lemma-galois-beneath", P, system)
            if delta_continuous:
                assert res.witness == {
                    "cod": repr(S), "table": table, "direction": "(2) without (1)"
                }, (P, system)
            else:
                assert res.status is Status.HOLDS, (P, system)
