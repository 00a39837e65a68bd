"""Way-below, beneath, and the continuity property checkers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from zdt import continuity as ct, fixtures as fx, monad as md, poset as ps, topology as tp
from zdt.reports import Status
from zdt.systems import (
    CHAINS, CONNECTED, DIRECTED, FINITE, PRINCIPAL_IDEALS, SINGLETONS, SYSTEMS,
)


UP_TO_SIZE_5 = [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]


def small_posets(max_n=4):
    return (P for n in range(1, max_n + 1) for P in ps.enumerate_posets(n))


def named(P, failure):
    """The witness dict of an oracle's (element, member) failure."""
    if failure is None:
        return None
    x, S = failure
    return {"element": P.labels[x], "member": P.names(oracles.to_mask(S))}


def test_way_below_examples(chain3, fan3):
    assert ct.way_below_sets(chain3, FINITE, 0b001, 0b001)  # bottom below itself
    a, t = fan3.mask_of(["a"]), fan3.mask_of(["t"])
    assert not ct.way_below_sets(fan3, FINITE, a, t)
    for P in small_posets(4):
        for x in range(P.n):
            for y in range(P.n):
                assert ct.way_below_sets(P, DIRECTED, 1 << y, 1 << x) == P.leq(y, x)


def assert_way_below_readers_match_oracle(posets):
    # way_below_sets, dd_set and uu_set all read _wb; each is held
    # to the oracle's quantifier over the members themselves
    for P in posets:
        subsets = range(P.full + 1)
        for name, system in SYSTEMS.items():
            way_below = oracles.way_below(P, name)
            wb = lambda a, b: way_below(oracles.to_set(a), oracles.to_set(b))
            for a in subsets:
                for b in subsets:
                    assert ct.way_below_sets(P, system, a, b) == wb(a, b), (P, name)
                assert ct.uu_set(P, system, a) == oracles.to_mask(
                    x for x in range(P.n) if wb(a, 1 << x)
                )
            for x in range(P.n):
                assert ct.dd_set(P, system, x) == oracles.to_mask(
                    y for y in range(P.n) if wb(1 << y, 1 << x)
                )


def test_way_below_against_oracle():
    assert_way_below_readers_match_oracle(small_posets(4))


@pytest.mark.slow
def test_way_below_against_oracle_n5():
    assert_way_below_readers_match_oracle(ps.enumerate_posets(5))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=6, deadline=None, derandomize=True)
def test_dd_set_on_random_posets_against_oracle(seed):
    # the transitive closure of a random acyclic relation on 8 points:
    # oracles.way_below decides one pair at a time, so the n² singleton
    # pairs cost little beside listing the members of the 256 subsets
    rows = oracles.random_orders(random.Random(seed), 8, 5)[seed % 5]
    P = ps.FinitePoset(ps.default_labels(8), rows)
    for name, system in SYSTEMS.items():
        way_below = oracles.way_below(P, name)
        for x in range(P.n):
            assert ct.dd_set(P, system, x) == oracles.to_mask(
                y for y in range(P.n) if way_below(frozenset({y}), frozenset({x}))
            ), (P, name)


def test_way_below_order_compatibility():
    for P in small_posets(5):
        for system in SYSTEMS.values():
            dd = [ct.dd_set(P, system, x) for x in range(P.n)]
            for x in range(P.n):
                for y in ps.bits(dd[x]):
                    assert P.leq(y, x)  # y << x forces y <= x
                    # m <= y << x <= n propagates
                    for m in ps.bits(P.down[y]):
                        assert (dd[x] >> m) & 1
                    for n_ in ps.bits(P.up[x]):
                        assert (dd[n_] >> y) & 1


def test_dd_uu_sets(fan3):
    assert ct.uu_set(fan3, FINITE, 0) == 0
    t = fan3.index("t")
    assert not (ct.dd_set(fan3, FINITE, t) >> fan3.index("a")) & 1
    for P in small_posets(4):
        for a in range(P.full + 1):
            wb = ct.wb_above(P, DIRECTED, a)
            assert wb == ps.up_set(P, a) if a else wb == 0


def test_weak_and_full_continuity(fan3):
    for P in small_posets(4):
        assert ct.is_s_z_continuous(P, DIRECTED)
        assert ct.is_weak_s_z_continuous(P, DIRECTED)
    assert not ct.is_weak_s_z_continuous(fan3, FINITE)
    one = ps.from_order_pairs(["x"], [])
    for system in SYSTEMS.values():
        assert ct.is_s_z_continuous(one, system)


def test_quasicontinuity(chain3, anti2):
    assert ct.is_s_z_quasicontinuous(chain3, FINITE)
    assert not ct.is_s_z_quasicontinuous(anti2, SINGLETONS)
    one = ps.from_order_pairs(["x"], [])
    for system in SYSTEMS.values():
        assert ct.is_s_z_quasicontinuous(one, system)
    for P in small_posets(4):
        assert ct.is_s_z_quasicontinuous(P, DIRECTED)


def quasicontinuity_named(P, failure):
    """The witness dict of an oracle's quasicontinuity failure."""
    if failure is None:
        return None
    p, inter = failure
    if inter is None:
        return {"element": P.labels[p], "reason": "ω-family not a member of Z(Fin P)"}
    return {
        "element": P.labels[p],
        "family_intersection": P.names(oracles.to_mask(inter)),
        "expected": P.names(oracles.to_mask(oracles.up(P, {p}))),
    }


def test_quasicontinuity_against_oracle():
    # the one-pass families against the way-below quantifier per element,
    # witness for witness, over every labeled poset with n <= 4
    kinds = set()
    for n in range(1, 5):
        for P in ps.enumerate_posets(n, "labeled"):
            for name, system in SYSTEMS.items():
                expected = quasicontinuity_named(P, oracles.quasicontinuity_failure(P, name))
                assert ct.quasicontinuity_witness(P, system) == expected, (P, name)
                kinds.add(None if expected is None else tuple(expected))
    # no poset here reaches the intersection branch; the next test does
    assert kinds == {None, ("element", "reason")}


def test_quasicontinuity_intersection_branch(monkeypatch):
    # with every F way below every point, each family is all of Fin P, which
    # meets in ↑p only when p is the least point
    monkeypatch.setattr(ct, "_wb", lambda P, system, up_a: 0)
    monkeypatch.setattr(oracles, "way_below", lambda P, name: lambda A, B: True)
    kinds = set()
    for P in small_posets(3):
        for name, system in SYSTEMS.items():
            expected = quasicontinuity_named(P, oracles.quasicontinuity_failure(P, name))
            assert ct.quasicontinuity_witness(P, system) == expected, (P, name)
            kinds.add(None if expected is None else tuple(expected))
    assert ("element", "family_intersection", "expected") in kinds


def test_weakly_meet_examples(fan3, vee):
    assert not ct.is_weakly_meet(fan3, FINITE)
    w = ct.weakly_meet_witness(fan3, FINITE)
    assert w is not None
    assert ct.is_weakly_meet(vee, FINITE)
    for P in small_posets(4):
        assert ct.is_weakly_meet(P, DIRECTED)
        assert ct.is_weakly_meet(P, SINGLETONS)


def test_weakly_meet_against_oracle():
    for P in small_posets(3):
        for name, system in SYSTEMS.items():
            assert ct.is_weakly_meet(P, system) == oracles.weakly_meet(P, name)


@pytest.mark.parametrize("n", UP_TO_SIZE_5)
def test_meet_witnesses_against_member_loop_oracle(n):
    seen = set()
    for P in ps.enumerate_posets(n):
        for name, system in SYSTEMS.items():
            checks = (
                (ct.weakly_meet_witness, oracles.gamma(P, name)),
                (ct.meet_witness, oracles.sigma_topology(P, name)),
            )
            for witness, family in checks:
                expected = named(P, oracles.meet_failure(P, name, family))
                assert witness(P, system) == expected, (P, name, witness)
                seen.add(expected is None)
            assert ct.is_weakly_meet(P, system) == (checks[0][0](P, system) is None)
    assert seen == ({True} if n < 3 else {True, False})


@pytest.mark.parametrize("n", UP_TO_SIZE_5)
def test_semilattice_check_against_member_loop_oracle(n, monkeypatch):
    for P in ps.enumerate_posets(n):
        for name, system in SYSTEMS.items():
            res = ct.semilattice_meet_check(P, system)
            expected = oracles.semilattice_check(P, name)
            assert (res.status.value, res.witness) == expected, (P, name)
    # the check never fails on a poset, so force the weak meet side to True
    # to reach the law witness wherever the law fails
    monkeypatch.setattr(ct, "is_weakly_meet", lambda P, system: True)
    law_failures = 0
    for P in ps.enumerate_posets(n):
        for name, system in SYSTEMS.items():
            res = ct.semilattice_meet_check(P, system)
            if res.status is Status.INAPPLICABLE:
                continue
            law = oracles.distribution_failure(P, name)
            assert res.witness == (
                None
                if law is None
                else {"weakly_meet": True, "distribution_law": False, "law_witness": law}
            ), (P, name)
            law_failures += law is not None
    assert (law_failures > 0) == (n == 5)


def test_weakly_meet_upsets_equivalence():
    for P in small_posets(4):
        for system in SYSTEMS.values():
            assert ct.is_weakly_meet(P, system) == ct.weakly_meet_via_upsets(P, system)


def test_meet_via_generated_topology(chain3):
    # the generated closure sits inside the subbasic one, so meet continuity
    # is the stronger property
    def is_meet(P, system):
        return ct.meet_witness(P, system) is None

    for P in small_posets(4):
        for system in (FINITE, CONNECTED):
            if is_meet(P, system):
                assert ct.is_weakly_meet(P, system)
    # the vee separates the two notions: {a,b} is closed in the generated
    # topology (a union of subbasic sets) but not subbasic closed
    assert ct.is_weakly_meet(fx.vee(), FINITE)
    assert not is_meet(fx.vee(), FINITE)
    assert not is_meet(fx.fan3(), FINITE)
    assert is_meet(chain3, FINITE)


def test_locally_weakly_meet(fan3, chain3):
    assert not ct.is_locally_weakly_meet(fan3, FINITE)  # ↓t is the whole fan
    assert ct.is_locally_weakly_meet(chain3, CHAINS)
    one = ps.from_order_pairs(["x"], [])
    assert ct.is_locally_weakly_meet(one, FINITE)


def test_semilattice_check(diamond, chain3, twin):
    assert ct.semilattice_meet_check(diamond, FINITE).status is Status.HOLDS
    assert ct.semilattice_meet_check(chain3, CHAINS).status is Status.HOLDS
    assert ct.semilattice_meet_check(twin, FINITE).status is Status.INAPPLICABLE


def test_interior_lemma(chain3, fan3, vee):
    assert ct.interior_lemma_check(chain3, FINITE).status is Status.HOLDS
    assert ct.interior_lemma_check(fan3, FINITE).status is Status.INAPPLICABLE
    assert ct.interior_lemma_check(vee, FINITE).status is Status.HOLDS


def test_uu_eq_check():
    for P in small_posets(4):
        res = ct.uu_eq_wbabove_check(P, FINITE)
        assert res.status is not Status.FAILS


def test_separation(chain3, fan3):
    assert ct.has_separation(chain3, FINITE)
    one = ps.from_order_pairs(["x"], [])
    assert ct.has_separation(one, FINITE)
    # every poset separates, for every system: ↓y is subbasic closed and
    # ω-open, so for x ≰ y the σ^Z-open P∖↓y holds x and misses ↓y ∋ y
    assert ct.has_separation(fan3, FINITE)
    for P in small_posets(3):
        for system in SYSTEMS.values():
            assert ct.has_separation(P, system)


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_separation_against_walk_oracle(n):
    # both sides find no failure, as the proof in test_separation says
    for P in ps.enumerate_posets(n):
        for name, system in SYSTEMS.items():
            assert oracles.separation_failure(P, name) is None
            assert ct.separation_witness(P, system) is None


def test_beneath_examples(vee, diamond):
    a, b, c = (vee.index(l) for l in "abc")
    assert ct.beneath(vee, DIRECTED, a, c)
    assert ct.beneath(vee, DIRECTED, b, c)
    assert not ct.beneath(vee, DIRECTED, c, c)
    o = diamond.index("o")
    for x in range(diamond.n):
        assert ct.beneath(diamond, DIRECTED, o, x)


def test_beneath_against_oracle():
    for P in small_posets(3):
        for name, system in SYSTEMS.items():
            for x in range(P.n):
                for y in range(P.n):
                    assert ct.beneath(P, system, x, y) == oracles.beneath(
                        P, name, x, y
                    )


def test_preserves_beneath_against_oracle():
    posets = list(small_posets(3))
    outcomes = set()
    for name, system in SYSTEMS.items():
        ben = {P: oracles.beneath_pairs(P, name) for P in posets}
        for P in posets:
            for Q in posets:
                for f in oracles.enumerate_monotone_maps(P, Q):
                    expected = all((f(x), f(y)) in ben[Q] for x, y in ben[P])
                    got = ct.preserves_beneath(f.table, P, Q, system)
                    assert got == expected, (name, f)
                    assert oracles.map_preserves_beneath(f, system) == expected
                    outcomes.add(expected)
    assert outcomes == {True, False}


def test_preserves_beneath_reads_every_maximal_point(monkeypatch):
    # a domain whose beneath sets are the whole 2-antichain, with its two
    # maximal points x < y in index order, into the 2-chain on `finite`,
    # where beneath is the order: the table sending x to the bottom and y to
    # the top breaks beneath preservation at y only, and only below x
    dom = ps.FinitePoset(["x", "y"], fx.antichain(2).up)
    chain = fx.chain(2)
    bottom = ps.least_of(chain, chain.full)
    real = ct._beneath_all
    monkeypatch.setattr(
        ct, "_beneath_all", lambda P, system: (P.full,) * P.n if P == dom else real(P, system)
    )
    for table, expected in (((bottom, 1 - bottom), False), ((bottom, bottom), True)):
        f = oracles.MonotoneMap(dom, chain, table)
        assert ct.preserves_beneath(table, dom, chain, FINITE) is expected
        assert oracles.map_preserves_beneath(f, FINITE) is expected


def test_beneath_finite_collapses_to_order():
    for P in small_posets(4):
        for x in range(P.n):
            for y in range(P.n):
                assert ct.beneath(P, FINITE, x, y) == P.leq(x, y)
        assert ct.is_delta_z_continuous(P, FINITE)
        assert ct.kz_compacts(P, FINITE) == P.full


def test_beneath_set_closed():
    for P in small_posets(5):
        for system in SYSTEMS.values():
            gamma = tp.gamma_subbasis(P, system)
            for y in range(P.n):
                assert gamma.is_closed(ct.beneath_set(P, system, y))


def test_compacts_and_prealgebraicity(vee, diamond, chain3):
    assert vee.names(ct.kz_compacts(vee, DIRECTED)) == ("a", "b")
    assert diamond.names(ct.kz_compacts(diamond, DIRECTED)) == ("o", "a", "b")
    assert chain3.names(ct.kz_compacts(chain3, DIRECTED)) == ("a", "b", "c")
    assert ct.prealgebraic_witness(vee, DIRECTED) is None
    assert ct.prealgebraic_witness(diamond, DIRECTED) is None
    assert ct.is_delta_z_continuous(vee, DIRECTED)


# kz_compacts takes a closed form where every member ideal is its own cut,
# and reads the beneath table elsewhere.  Both paths are held to the
# diagonal of that table and, on at most 6 points, to the oracle's beneath
# relation; the principal-ideals view shares the oracle of `singletons`.
EVERY_SYSTEM = (*SYSTEMS.items(), ("singletons", PRINCIPAL_IDEALS))


def _compacts_against_beneath(P, name, system, oracle=True):
    """Assert kz_compacts against the beneath table's diagonal, and the
    oracle's where asked and P has at most 6 points; return whether the
    closed form answered."""
    got = ct.kz_compacts(P, system)
    ben = ct._beneath_all(P, system)
    assert got == sum(1 << x for x in range(P.n) if (ben[x] >> x) & 1), (P, name)
    if oracle and P.n <= 6:
        pairs = oracles.beneath_pairs(P, name)
        assert got == oracles.to_mask(x for x in range(P.n) if (x, x) in pairs), (P, name)
    return all(ps.cut(P, d) == d for d in system.member_ideals(P))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_compacts_against_the_beneath_table_and_oracle(n):
    paths = set()
    for P in ps.enumerate_posets(n):
        for name, system in EVERY_SYSTEM:
            paths.add(_compacts_against_beneath(P, name, system))
    # up to 2 points every member ideal is its own cut
    assert paths == ({True} if n <= 2 else {True, False})


def test_compacts_of_lattices_and_compact_posets_against_the_beneath_table():
    # every Γ-lattice, δ(P) and δδ(P) poset of the posets with n <= 4; the
    # lattices have up to 18 points, so the oracle reads the small ones only
    paths = set()
    for P in small_posets(4):
        for name, system in EVERY_SYSTEM:
            D1 = md.delta_object(P, system).poset
            D2 = md.delta_object(D1, system).poset
            for Q in (md.gamma_lattice(P, system).poset, D1, D2):
                paths.add(_compacts_against_beneath(Q, name, system))
    assert paths == {True, False}


@given(st.integers(0, 2**32 - 1), st.integers(6, 9))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_compacts_on_random_posets_against_the_beneath_table(seed, n):
    # the transitive closure of a random acyclic relation on 6 to 9 points
    rows = oracles.random_orders(random.Random(seed), n, 5)[seed % 5]
    P = ps.FinitePoset(ps.default_labels(n), rows)
    for name, system in EVERY_SYSTEM:
        _compacts_against_beneath(P, name, system, oracle=False)
