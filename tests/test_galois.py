"""Galois connections: adjoint computation and the cut/beneath lemmas."""

import oracles
from zdt import fixtures as fx, galois as gl, poset as ps
from zdt.reports import Status
from zdt.systems import DIRECTED, FINITE, SYSTEMS


def small_posets(max_n=3):
    return [P for n in range(1, max_n + 1) for P in ps.enumerate_posets(n)]


def test_identity_connection(chain3):
    ident = ps.MonotoneMap.identity(chain3)
    gc = gl.GaloisConnection(ident, ident)
    assert gl.check_galois(gc)
    assert gl.galois_lemma_suite(gc, FINITE).status is Status.HOLDS


def test_upper_adjoint_examples(vee, diamond, chain3):
    two = fx.chain(2)
    # collapsing the incomparable pair of the vee leaves no greatest preimage
    d = ps.MonotoneMap(vee, two, (0, 0, 1))
    assert gl.upper_adjoint_of(d) is None
    # constant to the bottom of a lattice pairs with constant to the top
    d = ps.MonotoneMap(diamond, two, (0, 0, 0, 0))
    g = gl.upper_adjoint_of(d)
    assert g is not None and all(
        diamond.labels[g(y)] == "t" for y in range(two.n)
    )
    ident = ps.MonotoneMap.identity(chain3)
    assert gl.upper_adjoint_of(ident).table == ident.table
    assert oracles.lower_adjoint_of(ident).table == ident.table


def test_adjoint_construction_yields_connections():
    posets = small_posets(3)
    for T in posets:
        for S in posets:
            for d in ps.enumerate_monotone_maps(T, S):
                g = gl.upper_adjoint_of(d)
                if g is None:
                    continue
                gc = gl.GaloisConnection(d, g)
                assert gl.check_galois(gc)
                # and the lower adjoint of g recovers d
                assert oracles.lower_adjoint_of(g).table == d.table


def test_adjoints_against_the_oracle():
    # on every monotone table between posets with n <= 3: an upper adjoint
    # exists iff the oracle finds a greatest point below each y, and a lower
    # adjoint iff the table has an upper adjoint between the duals
    posets = small_posets(3)
    found = {True: 0, False: 0}
    for T in posets:
        for S in posets:
            for table in oracles.monotone_tables(T, S, {}):
                d = ps.MonotoneMap(T, S, table)
                g = gl.upper_adjoint_of(d)
                assert (g is not None) == oracles.has_upper_adjoint(T, S, table)
                if g is not None:
                    assert gl.check_galois(gl.GaloisConnection(d, g))
                lower = oracles.lower_adjoint_of(d)
                assert (lower is not None) == oracles.has_upper_adjoint(
                    ps.dual(T), ps.dual(S), table
                )
                if lower is not None:
                    assert gl.check_galois(gl.GaloisConnection(lower, d))
                found[g is not None] += 1
    assert found[True] and found[False]


def test_connections_against_the_oracle():
    # every pair with n <= 3: the lower adjoints are the oracle's monotone
    # tables that have an upper adjoint, in the same order, and a second
    # call hands back the same connection objects
    posets = small_posets(3)
    for T in posets:
        for S in posets:
            found = list(gl.enumerate_galois_connections(T, S))
            expected = [
                table
                for table in oracles.monotone_tables(T, S, {})
                if oracles.has_upper_adjoint(T, S, table)
            ]
            assert [gc.lower.table for gc in found] == expected, (T, S)
            assert all(gl.check_galois(gc) for gc in found)
            again = list(gl.enumerate_galois_connections(T, S))
            assert len(again) == len(found)
            assert all(a is b for a, b in zip(found, again))


def test_lower_cut_preservation_against_the_oracle():
    # lower_preserves_cuts reads only d, so pairing each monotone d with a
    # constant g, which is no upper adjoint, reaches maps that break cuts
    posets = small_posets(3)
    found = {True: 0, False: 0}
    for T in posets:
        for S in posets:
            g = ps.MonotoneMap(S, T, (0,) * S.n)
            for table in oracles.monotone_tables(T, S, {}):
                expected = all(
                    oracles.image(table, oracles.cut(T, a))
                    <= oracles.cut(S, oracles.image(table, a))
                    for a in oracles.subsets(T)
                )
                gc = gl.GaloisConnection(ps.MonotoneMap(T, S, table), g)
                assert gl.lower_preserves_cuts(gc) == expected, (T, S, table)
                found[expected] += 1
    assert found[True] and found[False]


def test_failing_pair_detected(chain3):
    up = ps.MonotoneMap(chain3, chain3, (1, 2, 2))
    down = ps.MonotoneMap(chain3, chain3, (0, 0, 2))
    gc = gl.GaloisConnection(down, up)
    assert not gl.check_galois(gc)
    assert gl.galois_lemma_suite(gc, FINITE).status is Status.INAPPLICABLE


def test_lemma_suite_exhaustive_all_systems():
    posets = small_posets(3)
    for T in posets:
        for S in posets:
            for gc in gl.enumerate_galois_connections(T, S):
                assert gl.lower_preserves_cuts(gc), (T, S, gc.lower.table)
                for system in SYSTEMS.values():
                    assert gl.upper_image_closed(gc, system)
                    res = gl.galois_lemma_suite(gc, system)
                    assert res.status is Status.HOLDS, (T, S, gc.lower.table, system)


def test_beneath_preservation_pattern(wedge):
    # spot check: a connection into the wedge preserving beneath both ways
    two = fx.chain(2)
    for gc in gl.enumerate_galois_connections(wedge, two):
        cond1 = gl.upper_preserves_closed_cuts(gc, DIRECTED)
        cond2 = gl.lower_preserves_beneath(gc, DIRECTED)
        assert (not cond1) or cond2
