"""Closed families, closures, interiors, and map continuity."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from zdt import fixtures as fx, poset as ps, topology as tp
from zdt.systems import (
    CHAINS, CONNECTED, DIRECTED, FINITE, PRINCIPAL_IDEALS, SINGLETONS, SYSTEMS,
)

UP_TO_SIZE_5 = [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]


def small_posets(max_n=4):
    return (P for n in range(1, max_n + 1) for P in ps.enumerate_posets(n))


def test_gamma_examples(vee, fan3):
    g = tp.gamma_subbasis(vee, FINITE)
    assert [vee.names(c) for c in g.closed] == [(), ("a",), ("b",), ("a", "b", "c")]
    one = ps.from_order_pairs(["x"], [])
    assert [one.names(c) for c in tp.gamma_subbasis(one, FINITE).closed] == [(), ("x",)]


def test_sigma_examples(fan3, vee):
    s = tp.sigma_subbasis(fan3, FINITE)
    assert [fan3.names(u) for u in s.opens] == [
        (),
        ("a", "b", "t"),
        ("a", "x", "t"),
        ("b", "x", "t"),
        ("a", "b", "x", "t"),
    ]
    assert [vee.names(u) for u in tp.sigma_subbasis(vee, FINITE).opens] == [
        (),
        ("a", "c"),
        ("b", "c"),
        ("a", "b", "c"),
    ]


def test_gamma_against_oracle():
    for P in small_posets(4):
        for name in SYSTEMS:
            expected = sorted(oracles.to_mask(a) for a in oracles.gamma(P, name))
            assert list(tp.gamma_subbasis(P, SYSTEMS[name]).closed) == expected


@given(st.integers(0, 2**32 - 1), st.integers(6, 8))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_gamma_on_random_posets_against_oracle(seed, n):
    # the transitive closure of a random acyclic relation on 6 to 8 points,
    # past the exhaustive populations, through the closed forms of each
    # system's member ideals; the principal-ideals view shares directed's I_Z
    rows = oracles.random_orders(random.Random(seed), n, 5)[seed % 5]
    P = ps.FinitePoset(ps.default_labels(n), rows)
    for name, system in (*SYSTEMS.items(), ("directed", PRINCIPAL_IDEALS)):
        expected = sorted(oracles.to_mask(a) for a in oracles.gamma(P, name))
        assert list(tp.gamma_subbasis(P, system).closed) == expected, (P, name)


def test_sigma_matches_its_direct_definition():
    # U is open iff every member whose cut meets U meets U itself; this is
    # computed here straight from the quantifier and compared with the
    # complement view the package uses
    for P in small_posets(3):
        for name, system in SYSTEMS.items():
            mem = [oracles.to_mask(s) for s in oracles.members(P, name)]
            cuts = {s: ps.cut(P, s) for s in mem}
            direct = sorted(
                u
                for u in range(P.full + 1)
                if all(not (cuts[s] & u) or (s & u) for s in mem)
            )
            assert direct == sorted(tp.sigma_subbasis(P, system).opens)


def assert_member_ideals_match_members(posets):
    for P in posets:
        for system in SYSTEMS.values():
            expected = sorted({ps.down_set(P, s) for s in system.members(P)})
            assert list(system.member_ideals(P)) == expected


def test_down_closure_family_matches_members():
    assert_member_ideals_match_members(small_posets(4))


@pytest.mark.slow
def test_down_closure_family_matches_members_n5():
    assert_member_ideals_match_members(ps.enumerate_posets(5))


def test_gamma_is_closure_system_of_lower_sets():
    for P in small_posets(5):
        for system in SYSTEMS.values():
            fam = tp.gamma_subbasis(P, system)
            closed = set(fam.closed)
            assert P.full in closed
            for a in closed:
                assert oracles.down(P, oracles.to_set(a)) == oracles.to_set(a)
                for b in closed:
                    assert a & b in closed
            assert all(d in closed for d in P.down)


def test_sigma_members_are_upper_and_union_closed():
    for P in small_posets(4):
        for system in SYSTEMS.values():
            fam = tp.gamma_subbasis(P, system)
            opens = set(fam.opens)
            for u in opens:
                assert oracles.up(P, oracles.to_set(u)) == oracles.to_set(u)
                for v in opens:
                    assert u | v in opens


def test_directed_gamma_is_all_lower_sets():
    for P in small_posets(4):
        expected = [
            m
            for m in range(P.full + 1)
            if oracles.down(P, oracles.to_set(m)) == oracles.to_set(m)
        ]
        assert list(tp.gamma_subbasis(P, DIRECTED).closed) == expected
        # the subbasis is already a topology in this case
        assert tp.sigma_topology(P, DIRECTED).closed == tp.gamma_subbasis(P, DIRECTED).closed


@pytest.mark.parametrize("n", UP_TO_SIZE_5)
def test_sigma_topology_against_fixpoint_oracle(n):
    for P in ps.enumerate_posets(n):
        for name, system in SYSTEMS.items():
            expected = sorted(oracles.to_mask(a) for a in oracles.sigma_topology(P, name))
            assert list(tp.sigma_topology(P, system).closed) == expected


def test_topology_generation(vee):
    t = tp.sigma_topology(vee, FINITE)
    assert [vee.names(c) for c in t.closed] == [
        (),
        ("a",),
        ("b",),
        ("a", "b"),
        ("a", "b", "c"),
    ]


def test_topology_is_closed_under_unions_and_intersections():
    for P in small_posets(4):
        for system in SYSTEMS.values():
            fam = set(tp.sigma_topology(P, system).closed)
            assert 0 in fam and P.full in fam
            for a in fam:
                for b in fam:
                    assert a | b in fam and a & b in fam


def test_closures(vee, chain3):
    m = vee.mask_of(["a", "b"])
    assert vee.names(tp.closure_subbasic(vee, FINITE, m)) == ("a", "b", "c")
    assert vee.names(tp.closure_topological(vee, FINITE, m)) == ("a", "b")
    assert tp.closure_subbasic(vee, FINITE, 0) == 0
    assert chain3.names(tp.closure_subbasic(chain3, CHAINS, chain3.mask_of(["b"]))) == (
        "a",
        "b",
    )


def test_closure_operator_laws():
    for P in small_posets(4):
        for system in (FINITE, CONNECTED):
            for m in range(P.full + 1):
                sub = tp.closure_subbasic(P, system, m)
                top = tp.closure_topological(P, system, m)
                assert m & ~sub == 0
                assert tp.closure_subbasic(P, system, sub) == sub
                assert top & ~sub == 0
                assert ps.down_set(P, m) & ~top == 0 if m else True
                assert sub == oracles.to_mask(
                    oracles.closure(P, system.name, oracles.to_set(m))
                )


def test_interior(fan3):
    assert tp.interior_subbasic(fan3, FINITE, fan3.up[fan3.index("x")]) == 0
    m = fan3.mask_of(["a", "b", "t"])
    assert tp.interior_subbasic(fan3, FINITE, m) == m
    assert tp.interior_subbasic(fan3, FINITE, fan3.full) == fan3.full


def test_lower_topology(chain3, anti2, vee):
    assert [chain3.names(c) for c in tp.lower_topology(chain3).closed] == [
        (),
        ("c",),
        ("b", "c"),
        ("a", "b", "c"),
    ]
    assert len(tp.lower_topology(anti2).closed) == 4
    assert [vee.names(c) for c in tp.lower_topology(vee).closed] == [
        (),
        ("c",),
        ("a", "c"),
        ("b", "c"),
        ("a", "b", "c"),
    ]


@pytest.mark.parametrize("n", UP_TO_SIZE_5)
def test_lower_topology_against_fixpoint_oracle(n):
    for P in ps.enumerate_posets(n):
        expected = sorted(oracles.to_mask(c) for c in oracles.lower_topology(P))
        assert list(tp.lower_topology(P).closed) == expected


def test_sigma_continuity_basics(vee):
    ident = oracles.MonotoneMap.identity(vee)
    assert oracles.is_sigma_z_continuous(ident, FINITE)
    for P in small_posets(3):
        for Q in small_posets(3):
            for f in oracles.enumerate_monotone_maps(P, Q):
                assert oracles.is_sigma_z_continuous(f, DIRECTED)


def preserves_cuts(f, system):
    """f(S^δ) ⊆ f(S)^δ for every member S of Z(dom), by the table check."""
    pairs = [(d, ps.cut(f.dom, d)) for d in system.member_ideals(f.dom)]
    cuts = [ps.cut(f.cod, m) for m in range(1 << f.cod.n)]
    return tp.preserves_hulls(tp.subset_images(f.table), pairs, cuts)


def preserves_closures(f, system):
    """f(cl A) ⊆ cl f(A) for every subset A of dom, by the table check."""
    pairs = list(enumerate(tp.closure_table(f.dom, system)))
    closures = tp.closure_table(f.cod, system)
    return tp.preserves_hulls(tp.subset_images(f.table), pairs, closures)


def test_continuity_iff_cut_preservation():
    posets = list(small_posets(3))
    for P in posets:
        for Q in posets:
            for f in oracles.enumerate_monotone_maps(P, Q):
                for system in SYSTEMS.values():
                    c1 = oracles.is_sigma_z_continuous(f, system)
                    c2 = preserves_cuts(f, system)
                    assert c1 == c2, (P, Q, f.table, system.name)
                    if c1:
                        assert preserves_closures(f, system)


def test_map_preserves_cuts_against_member_loop_oracle():
    posets = list(small_posets(3))
    outcomes = set()
    for P in posets:
        for Q in posets:
            for f in oracles.enumerate_monotone_maps(P, Q):
                for name, system in SYSTEMS.items():
                    expected = oracles.preserves_cuts(P, Q, f.table, name)
                    assert preserves_cuts(f, system) == expected, (f, name)
                    outcomes.add(expected)
    assert outcomes == {True, False}


def test_continuity_lemma_on_larger_domains():
    # spot coverage for 4-element domains and codomains
    fours = list(ps.enumerate_posets(4))[:6]
    for P in fours:
        for Q in fours:
            for f in oracles.enumerate_monotone_maps(P, Q):
                for system in (FINITE, SINGLETONS):
                    assert oracles.is_sigma_z_continuous(f, system) == preserves_cuts(f, system)


def test_lower_hereditary(fan3, twin):
    for P in small_posets(4):
        assert tp.is_lower_hereditary(P, DIRECTED)
    assert tp.is_lower_hereditary(fx.diamond(), FINITE)
    # computed harness data: the twin poset is NOT lower hereditary for the
    # finite system; {a,b} traces into the vee-shaped closed set {a,b,c},
    # where its cut grows to the whole subposet
    assert not tp.is_lower_hereditary(twin, FINITE)
    w = tp.lower_hereditary_witness(twin, FINITE)
    assert w["closed_set"] == ("a", "b", "c")
    assert ("a", "b") in w["trace_only"]


@pytest.mark.parametrize("n", UP_TO_SIZE_5)
def test_lower_hereditary_against_trace_oracle(n):
    for P in ps.enumerate_posets(n):
        for name, system in SYSTEMS.items():
            w = tp.lower_hereditary_witness(P, system)
            # whole dicts, list order included, against the subposet loop
            assert w == oracles.lower_hereditary_witness(P, system), (P, name)
            expected = oracles.lower_hereditary_failure(P, name)
            if expected is None:
                assert w is None, (P, name)
                continue
            a, trace_only, own_only = expected
            names = lambda sets: {P.names(oracles.to_mask(s)) for s in sets}
            assert w["closed_set"] == P.names(oracles.to_mask(a))
            assert set(w["trace_only"]) == names(trace_only)
            assert set(w["subposet_only"]) == names(own_only)


def test_lh_conditions_patterns(chain3):
    one = ps.from_order_pairs(["x"], [])
    assert all(tp.lh_conditions(one, FINITE).values())
    assert all(tp.lh_conditions(fx.diamond(), FINITE).values())
    c = tp.lh_conditions(fx.ladder(3, 2), FINITE)
    assert c["3"] and not c["5"]
    for P in small_posets(4):
        for system in SYSTEMS.values():
            c = tp.lh_conditions(P, system)
            assert (not c["5"]) or c["1"]
            assert c["1"] == c["2"] == c["3"] == c["4"]


@pytest.mark.parametrize("n", UP_TO_SIZE_5)
def test_lh_conditions_against_member_loop_oracle(n):
    outcomes = set()
    for P in ps.enumerate_posets(n):
        for name, system in SYSTEMS.items():
            expected = {
                "1": oracles.lower_hereditary_failure(P, name) is None,
                "2": oracles.inclusion_continuity(P, name),
                **oracles.lh_cut_conditions(P, name),
            }
            assert tp.lh_conditions(P, system) == expected, (P, name)
            outcomes.update(expected.items())
    if n >= 4:
        assert outcomes == {(k, v) for k in "12345" for v in (True, False)}


# The table paths of the map layer against the object loops they replaced,
# map by map: every monotone table from P to each poset of at most three
# points, on every system, computed as ``lemma-sigma-cont`` computes them.


def _map_tables_against_objects(P, system, outcomes, hulls=True):
    # with ``hulls`` false, σ^Z-continuity alone: the cut and closure
    # oracles walk every subset of P for each table
    from zdt import continuity as ct

    member_cuts = ct._member_cut_pairs(P, system)
    closures_p = list(enumerate(tp.closure_table(P, system)))
    oracle_closures_p = oracles.closures(P, system)
    for Q in small_posets(3):
        continuous = tp.sigma_z_continuity(P, Q, system)
        cuts_q = [ps.cut(Q, m) for m in range(1 << Q.n)]
        closures_q = tp.closure_table(Q, system)
        oracle_closures_q = oracles.closures(Q, system)
        for table in ps.monotone_tables(P, Q):
            f = oracles.MonotoneMap(P, Q, table)
            got = (continuous(table),)
            want = (oracles.map_sigma_continuous(f, system),)
            if hulls:
                images = tp.subset_images(table)
                got += (
                    tp.preserves_hulls(images, member_cuts, cuts_q),
                    tp.preserves_hulls(images, closures_p, closures_q),
                )
                want += (
                    oracles.map_preserves_cuts(f, system),
                    oracles.map_preserves_closures(f, oracle_closures_p, oracle_closures_q),
                )
            assert got == want, (P, Q, table, system.name)
            assert got[0] == oracles.is_sigma_z_continuous(f, system)
            if hulls:
                assert got[1] == preserves_cuts(f, system)
                assert got[2] == preserves_closures(f, system)
            outcomes.add(got)


@pytest.mark.parametrize("n", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_map_tables_against_object_loops(n):
    outcomes = set()
    for P in ps.enumerate_posets(n):
        for system in SYSTEMS.values():
            _map_tables_against_objects(P, system, outcomes)
    # every map from a poset of at most two points is continuous; from three
    # points on some are not, and each of those also breaks cut and closure
    # preservation
    both = {(True, True, True), (False, False, False)}
    assert outcomes == (both if n >= 3 else {(True, True, True)})


@pytest.mark.parametrize("n", [6, 7])
def test_continuity_on_random_posets_against_the_object_loop(n):
    # σ^Z-continuity read on the meet-irreducibles, which the naturality
    # pass of thm-monad runs on every table, past the exhaustive
    # populations: five fixed-seed random orders of n points, sparse to
    # dense, mapped into every poset of at most three points, on every
    # system.  Continuity alone keeps both sizes under 1 s of tier-1
    outcomes = set()
    for rows in oracles.random_orders(random.Random(n), n, 5):
        P = ps.FinitePoset(ps.default_labels(n), rows)
        for system in SYSTEMS.values():
            _map_tables_against_objects(P, system, outcomes, hulls=False)
    assert outcomes == {(True,), (False,)}


def test_subset_images_against_oracle():
    for P in small_posets(3):
        for Q in small_posets(3):
            for table in ps.monotone_tables(P, Q):
                images = tp.subset_images(table)
                for A in oracles.subsets(P):
                    want = oracles.image(table, A)
                    assert images[oracles.to_mask(A)] == oracles.to_mask(want)


# The reductions of the map layer against the walks they shorten.


def _family_views(max_n):
    """(P, system, name) for every P up to ``max_n`` points and every system,
    with the principal-ideals view under the name of `directed`, whose I_Z
    it shares."""
    for P in small_posets(max_n):
        for name, system in SYSTEMS.items():
            yield P, system, name
        yield P, PRINCIPAL_IDEALS, "directed"


def test_irreducible_points_against_the_intersection_walk():
    # a member is meet-irreducible iff it is not the carrier and not the
    # intersection of the members strictly above it; each member is the
    # intersection of the meet-irreducible ones that contain it
    for P, system, _ in _family_views(4):
        for family in (tp.gamma_subbasis(P, system), tp.lower_topology(P)):
            closed = [oracles.to_set(c) for c in family.closed]
            carrier = frozenset(oracles.elements(P))
            want = [
                c for c in closed
                if c != carrier and c != carrier.intersection(*(d for d in closed if c < d))
            ]
            got = [oracles.to_set(c) for c in family.irreducible]
            assert got == want, (P, family)
            for c in closed:
                assert c == carrier.intersection(*(d for d in got if c <= d))


def test_continuity_on_a_patched_codomain_family(monkeypatch):
    # Γ^Z(Q) patched to the upper sets of Q, a closure system whose
    # meet-irreducibles differ: the preimages are upper sets, so most maps
    # are not continuous, and the check on the meet-irreducibles still
    # agrees with the oracle's walk over every closed set.  The codomains
    # are relabeled copies, so that no domain's family is patched
    real = tp.gamma_subbasis
    targets = [
        ps.FinitePoset([f"q{i}" for i in range(Q.n)], Q.up) for Q in small_posets(3)
    ]

    def patched(Q, system):
        if Q in targets:
            return tp.TopologyFamily(Q, "patched", tp.lower_topology(Q).closed)
        return real(Q, system)

    monkeypatch.setattr(tp, "gamma_subbasis", patched)
    outcomes = set()
    for P in small_posets(3):
        gamma_p = real(P, DIRECTED)
        for Q in targets:
            continuous = tp.sigma_z_continuity(P, Q, DIRECTED)
            for table in ps.monotone_tables(P, Q):
                pulled = [oracles.preimage(table, U) for U in oracles.lower_topology(Q)]
                want = all(gamma_p.is_closed(oracles.to_mask(A)) for A in pulled)
                assert continuous(table) == want, (P, Q, table)
                outcomes.add(want)
    assert outcomes == {True, False}


def test_closure_gaps_against_the_oracle_closure():
    # every union A ∪ ↓p of a closed A and a point that is not closed, once,
    # with the index of its closure, from the oracle's closed family
    for P, system, name in _family_views(4):
        closed = oracles.gamma(P, name)
        index = {A: i for i, A in enumerate(sorted(closed, key=oracles.to_mask))}
        want = {}
        for A in sorted(closed, key=oracles.to_mask):
            for p in oracles.elements(P):
                S = A | oracles.down(P, {p})
                if S not in index and S not in want:
                    want[S] = (index[A], p, index[oracles.closure(P, name, S)])
        assert tp.closure_gaps(P, system) == tuple(want.values()), (P, name)
