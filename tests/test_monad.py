"""Gamma lattices, delta objects, adjunction, monad laws, EM algebras."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (
    ANTI2, ANTI3, CHAIN2, CHAIN3, POINT, assert_refused, continuity_against_the_fibre_walk,
    patch_table,
)
from zdt import claims as cl, continuity as ct, fixtures as fx, galois as gl
from zdt import monad as md, poset as ps, systems as zs, topology as tp
from zdt.errors import NotMonotoneError, SizeCapError, SupMissingError, ZdtError
from zdt.reports import CheckResult, Status
from zdt.systems import CHAINS, CONNECTED, DIRECTED, FINITE, PRINCIPAL_IDEALS, SYSTEMS


def small_posets(max_n=4):
    return (P for n in range(1, max_n + 1) for P in ps.enumerate_posets(n))


def test_gamma_lattice_shapes(anti2, vee):
    L = md.gamma_lattice(anti2, DIRECTED)
    assert len(L.elements) == 4  # a Boolean square
    LV = md.gamma_lattice(vee, FINITE)
    assert len(LV.elements) == 4  # a diamond
    assert oracles.canonical_form(LV.poset) == oracles.canonical_form(fx.diamond())
    one = ps.from_order_pairs(["x"], [])
    assert md.gamma_lattice(one, FINITE).poset.n == 2


def _sup_check_matches_the_walk(posets):
    for P in posets:
        for system in SYSTEMS.values():
            L = md.gamma_lattice(P, system)
            res = md.check_gamma_lattice(L)
            assert res.status is Status.HOLDS, (P, system.name, res.witness)
            assert oracles.sup_walk_holds(L, system.name), (P, system.name)


def test_gamma_lattice_invariants():
    _sup_check_matches_the_walk(small_posets(3))


@pytest.mark.slow
def test_gamma_lattice_sup_check_against_the_walk_n4():
    _sup_check_matches_the_walk(ps.enumerate_posets(4))


def test_gamma_lattice_check_fails_on_a_tampered_order(anti2):
    # the Boolean square reordered as a 4-chain: the chain's sup of the two
    # atoms is one of them, while the closure of their union is the top
    L = md.gamma_lattice(anti2, DIRECTED)
    tampered = md.GammaLattice(L.base, L.system, L.elements, fx.chain(4))
    assert not oracles.sup_walk_holds(tampered, DIRECTED.name)
    res = md.check_gamma_lattice(tampered)
    assert res.status is Status.FAILS
    assert res.witness["reason"] == "sup mismatch"


def test_gamma_lattice_sups_are_closures(vee):
    L = md.gamma_lattice(vee, FINITE)
    everything = (1 << L.poset.n) - 1
    assert L.elements[L.sup(everything)] == vee.full
    assert L.elements[L.sup(0)] == 0


def test_delta_poset_is_the_family_poset_of_its_sets():
    # δ(P)'s poset, restricted from its Γ-lattice, and δδ(P)'s, against the
    # inclusion poset of their sets built afresh
    for P in small_posets(4):
        for system in (*SYSTEMS.values(), PRINCIPAL_IDEALS):
            D1 = md.delta_object(P, system)
            D2 = md.delta_object(D1.poset, system)
            assert D1.poset == zs.family_poset(P, D1.sets), P
            assert D2.poset == zs.family_poset(D1.poset, D2.sets), P


def test_delta_objects(anti2, wedge):
    d = md.delta_object(anti2, DIRECTED)
    assert [anti2.names(s) for s in d.sets] == [(), ("a",), ("b",)]
    dw = md.delta_object(wedge, DIRECTED)
    assert [wedge.names(s) for s in dw.sets] == [
        (),
        ("o",),
        ("o", "a"),
        ("o", "b"),
    ]
    one = ps.from_order_pairs(["x"], [])
    assert len(md.delta_object(one, DIRECTED).sets) == 2


def _assert_unit_embeds(P, system):
    # η_P, read through eta, is the unit table that δ(P) keeps
    d = md.delta_object(P, system)
    e = md.eta(P, system)
    assert e is d.unit
    assert [d.sets[i] for i in e] == list(P.down)
    for x in range(P.n):
        for y in range(P.n):
            assert P.leq(x, y) == d.poset.leq(e[x], e[y])


def test_eta_is_order_embedding():
    for P in small_posets(5):
        _assert_unit_embeds(P, DIRECTED)
    for P in small_posets(3):
        for system in SYSTEMS.values():
            _assert_unit_embeds(P, system)


def test_union_sup(anti2):
    assert md.union_sup_check(anti2, DIRECTED).status is Status.HOLDS
    for P in small_posets(4):
        for system in SYSTEMS.values():
            assert md.union_sup_check(P, system).status is Status.HOLDS


def test_epsilon_on_gamma_lattice(anti2):
    L = md.gamma_lattice(anti2, DIRECTED)
    eps, sub = md.epsilon(L.poset, system=DIRECTED)
    # the counit hits each compact family's sup, one value per closed family
    # of the compacts; on the square the compacts are the bottom and the two
    # atoms
    assert sub.poset.n == 3
    assert len(eps) == md.gamma_lattice(sub.poset, DIRECTED).poset.n
    for v in eps:
        assert v in range(L.poset.n)


def _under_the_lattice_cap(max_n):
    """(P, system) for the posets up to ``max_n`` points and the five
    systems, where the Γ-lattice has at most ``claims.LATTICE_CAP`` points."""
    for P in small_posets(max_n):
        for system in SYSTEMS.values():
            if md.gamma_lattice(P, system).poset.n <= cl.LATTICE_CAP:
                yield P, system


def _delta_against_the_compacts(P):
    """δ(X) from its closed form against ``oracles.delta_by_compacts``, its
    definition, at X = P, δ(P) and δδ(P), for the five systems and the
    principal-ideals view, where the Γ-lattice of P has at most
    ``claims.LATTICE_CAP`` points."""
    for name, system in (*SYSTEMS.items(), ("principal ideals", PRINCIPAL_IDEALS)):
        if md.gamma_lattice(P, system).poset.n > cl.LATTICE_CAP:
            continue
        X = P
        for level in range(3):
            got = md.delta_object(X, system)
            sets, poset = oracles.delta_by_compacts(X, system)
            assert got.sets == sets, (P, name, level)
            assert (got.poset.labels, got.poset.up) == (poset.labels, poset.up), (P, name, level)
            X = got.poset


def test_delta_sets_by_system():
    # the proof in ``delta_object``: on `finite` and `connected` every member
    # of Γ^Z(P) is compact, and on the other three and the view the compacts
    # are ∅ and the principal ideals, on every poset up to iso with n ≤ 5
    for P in small_posets(5):
        _delta_against_the_compacts(P)


def test_delta_sets_on_random_posets():
    # past n = 5: fixed-seed orders on 6 to 8 points, twelve per size,
    # sparse to dense; the cap on P's Γ-lattice and the three levels keep
    # this and the test above within about 1 s together
    rng = random.Random(20261020)
    for n in (6, 7, 8):
        for rows in oracles.random_orders(rng, n, 12):
            _delta_against_the_compacts(ps.FinitePoset(ps.default_labels(n), rows))


def test_mu_is_the_sup_in_the_compacts():
    # the proof in ``mu``: the closure of each family's union is its sup
    # among the compacts, which the sup walk finds
    for P, system in _under_the_lattice_cap(5):
        assert md.mu(P, system) == oracles.mu_by_sups(P, system), (P, system.name)


def test_every_member_is_the_join_of_its_principal_ideals():
    # the premise of the adjunction's uniqueness (``verify_adjunction``):
    # each ↓p is a member of Γ^Z(P), and each member A is the sup, in the
    # Γ-lattice, of the ↓p for p in A
    for P, system in _under_the_lattice_cap(5):
        L = md.gamma_lattice(P, system)
        principal = [L.index[d] for d in P.down]
        for i, a in enumerate(L.elements):
            below = {principal[p] for p in oracles.to_set(a)}
            assert oracles.sup(L.poset, below) == i, (P, system.name, a)


def _beneath_against_objects(monkeypatch):
    """Patch the adjunction's beneath check to hold each mediator's table to
    the object check on the validated map; returns the list of outcomes."""
    real = md.preserves_beneath
    outcomes = []

    def compared(table, dom, cod, system):
        found = real(table, dom, cod, system)
        fbar = oracles.MonotoneMap(dom, cod, table)
        assert found == oracles.map_preserves_beneath(fbar, system), table
        outcomes.append(found)
        return found

    monkeypatch.setattr(md, "preserves_beneath", compared)
    return outcomes


def _adjunction_holds_with_joins_against_adjoints(posets, monkeypatch):
    # with the decision refused, every mediator verify_adjunction builds
    # goes through its join check on the closure gaps of Γ^Z(P); the join
    # check over every pair and the search for an upper adjoint of the same
    # table must agree, and so must the oracle's brute force on the first
    # two mediators of each instance.  The continuity check decides every
    # monotone table P -> K(L), in order, and agrees with the oracle's fibre
    # walk map by map.  Each mediator also goes through the beneath check,
    # on maximal points, once per table that the continuity check passes
    join_check = md.preserves_joins
    outcomes = []
    monkeypatch.setattr(md, "_mediators_pass", lambda *tables: False)
    beneath = _beneath_against_objects(monkeypatch)
    decided = continuity_against_the_fibre_walk(monkeypatch)
    continuity = collections.Counter()
    for P in posets:
        for name, system in (*SYSTEMS.items(), ("principal ideals", PRINCIPAL_IDEALS)):
            LP = md.gamma_lattice(P, system).poset
            every = _every_join(md.join_table(LP))
            first = len(outcomes)

            def compared(table, dom, cod, LP=LP, every=every, first=first):
                found = join_check(table, dom, cod)
                assert found == join_check(table, every, cod), table
                assert found == (gl.upper_adjoint(LP, LP, table) is not None), table
                if len(outcomes) < first + 2:
                    assert found == oracles.has_upper_adjoint(LP, LP, table), table
                outcomes.append(found)
                return found

            monkeypatch.setattr(md, "preserves_joins", compared)
            before = len(beneath)
            decided.clear()
            res = md.verify_adjunction(P, system)
            assert res.status is Status.HOLDS, (P, name, res.witness)
            _, kq = md.epsilon(LP, system)
            tables = list(ps.monotone_tables(P, kq.poset))
            assert [t for t, _ in decided] == tables, (P, name)
            continuity.update(found for _, found in decided)
            assert len(beneath) - before == sum(found for _, found in decided), (P, name)
    assert outcomes and all(outcomes)
    assert beneath == outcomes
    return continuity


def test_adjunction_small(monkeypatch):
    continuity = _adjunction_holds_with_joins_against_adjoints(small_posets(3), monkeypatch)
    # on `finite` some maps from the 3-antichain into the compacts are not
    # continuous, and the walk skips them
    assert continuity[True] > 0 and continuity[False] > 0


@pytest.mark.slow
def test_adjunction_joins_against_adjoints_n4(monkeypatch):
    _adjunction_holds_with_joins_against_adjoints(ps.enumerate_posets(4), monkeypatch)


def test_adjunction_join_branch(monkeypatch):
    # with the decision refused, every map from the 3-antichain into the
    # compacts let through as if it were continuous: the first one that is
    # not has a mediator without an upper adjoint, by the gap check, the
    # walk over every pair and the oracle alike
    P = fx.antichain(3)
    real = md.preserves_joins
    LP = md.gamma_lattice(P, FINITE).poset
    every = _every_join(md.join_table(LP))
    found = []

    def compared(table, dom, cod):
        gaps = real(table, dom, cod)
        found.append(
            (gaps, real(table, every, cod), oracles.has_upper_adjoint(LP, LP, table))
        )
        return gaps

    monkeypatch.setattr(md, "preserves_joins", compared)
    monkeypatch.setattr(md, "_mediators_pass", lambda *tables: False)
    assert md.verify_adjunction(P, FINITE).status is Status.HOLDS
    holds = len(found)
    monkeypatch.setattr(tp, "sigma_z_continuity", lambda dom, cod, system: lambda f: True)
    res = md.verify_adjunction(P, FINITE)
    assert res.witness == {"part": "mediator", "reason": "no upper adjoint"}
    assert found[-1] == (False, False, False)
    assert all(f == (True, True, True) for f in found[:-1]) and len(found) > holds + 1


def test_adjunction_beneath_branch(monkeypatch):
    # every pair of Γ^Z(P) declared beneath on the mediator's domain side:
    # into a foreign lattice, the first mediator that takes two values not
    # beneath each other fails, by the table check and the object check alike
    P = fx.chain(2)
    L = md.gamma_lattice(fx.vee(), DIRECTED)
    LP = md.gamma_lattice(P, DIRECTED).poset
    # warm every cache the run reads, so the patch reaches the check alone
    assert oracles.adjunction_walk(P, DIRECTED, L).status is Status.HOLDS
    real = ct._beneath_all
    monkeypatch.setattr(
        ct, "_beneath_all", lambda Q, system: (Q.full,) * Q.n if Q == LP else real(Q, system)
    )
    beneath = _beneath_against_objects(monkeypatch)
    res = oracles.adjunction_walk(P, DIRECTED, L)
    assert res.witness == {"part": "mediator", "reason": "beneath not preserved"}
    assert beneath[-1] is False


def test_adjunction_lattice_side_reads_the_counit(monkeypatch, anti2):
    # K(L) of the Boolean square on `directed` is the bottom and the two
    # atoms; the counit's value at the closed family ↓q of one compact q
    # moved off q fails the lattice-side triangle at q, and at no other
    L = md.gamma_lattice(anti2, DIRECTED).poset
    assert md.verify_adjunction(anti2, DIRECTED).status is Status.HOLDS
    real = md.epsilon
    eps, sub = real(L, DIRECTED)
    families = md.gamma_lattice(sub.poset, DIRECTED).index
    assert sub.poset.n == 3
    for q in range(sub.poset.n):
        i = families[sub.poset.down[q]]
        assert eps[i] == sub.embed[q]
        moved = (*eps[:i], (eps[i] + 1) % L.n, *eps[i + 1:])
        monkeypatch.setattr(
            md, "epsilon",
            lambda L_poset, system, moved=moved: (moved, sub)
            if L_poset == L else real(L_poset, system),
        )
        res = md.verify_adjunction(anti2, DIRECTED)
        assert res.witness == {"triangle": "lattice side", "compact": L.labels[sub.embed[q]]}


@pytest.mark.parametrize("n", [1, 2, pytest.param(3, marks=pytest.mark.slow)])
def test_mediator_search_finds_no_competitor(n):
    # the brute-force search over every monotone candidate pinned on the
    # principal ideals, with an upper adjoint and preserving beneath, finds
    # the sup mediator and nothing else
    searched = 0
    for P in ps.enumerate_posets(n):
        for system in SYSTEMS.values():
            LP = md.gamma_lattice(P, system)
            _, kq = md.epsilon(LP.poset, system)
            ben = oracles.beneath_pairs(LP.poset, system.name)
            sets = [oracles.to_set(a) for a in LP.elements]
            for table in ps.monotone_tables(P, kq.poset):
                f = oracles.MonotoneMap(P, kq.poset, table, _trusted=True)
                if not oracles.is_sigma_z_continuous(f, system):
                    continue
                pinned = {LP.index[P.down[p]]: kq.embed[f(p)] for p in range(P.n)}
                fbar = tuple(
                    oracles.sup(LP.poset, {kq.embed[f(p)] for p in a}) for a in sets
                )
                found = oracles.mediators(LP.poset, LP.poset, pinned, ben, ben)
                assert found == [fbar], (P, system.name, f.table)
                searched += 1
    assert searched > 0


def _every_join(joins):
    """A ``join_table`` result as ``preserves_joins`` reads its domain: the
    bottom and every pair i > j with its join."""
    bottom, join = joins
    return bottom, tuple((i, j, row[j]) for i, row in enumerate(join) for j in range(i))


def test_join_check_equals_the_upper_adjoint_search():
    # Davey & Priestley 7.34 on every monotone map between the Γ-lattices of
    # at most 5 elements of the posets up to n=3, up to iso, over every system
    small = {}
    for P in small_posets(3):
        for system in SYSTEMS.values():
            L = md.gamma_lattice(P, system).poset
            if L.n <= 5:
                small.setdefault(oracles.canonical_form(L).up, L)
    lattices = [(L, md.join_table(L)) for L in small.values()]
    outcomes = {True: 0, False: 0}
    for T, joins_t in lattices:
        for S, joins_s in lattices:
            for d in oracles.enumerate_monotone_maps(T, S):
                found = md.preserves_joins(d.table, _every_join(joins_t), joins_s)
                assert found == (gl.upper_adjoint(T, S, d.table) is not None), (T, S, d.table)
                outcomes[found] += 1
    assert outcomes == {True: 1393, False: 2788}


def test_adjunction_against_a_foreign_lattice():
    # the universal property quantifies over any prealgebraic lattice, not
    # just the one built from P itself
    one = ps.from_order_pairs(["x"], [])
    for source in (fx.antichain(2), fx.vee(), fx.chain(2)):
        L = md.gamma_lattice(source, DIRECTED)
        for P in (one, fx.chain(2), fx.antichain(2)):
            res = oracles.adjunction_walk(P, DIRECTED, L)
            assert res.status is Status.HOLDS, (P, source, res.witness)


def test_monad_laws():
    for P in small_posets(3):
        for system in SYSTEMS.values():
            res = md.verify_monad_laws(P, system)
            assert res.status is Status.HOLDS, (P, system.name, res.witness)


def test_monad_laws_directed_n4():
    for P in ps.enumerate_posets(4):
        res = md.verify_monad_laws(P, DIRECTED)
        assert res.status is Status.HOLDS, (P, res.witness)


def _same_as_the_object_loop(P, system):
    """verify_monad_laws gives the object loop's result, or raises the
    same NotMonotoneError; returns either."""
    try:
        want = oracles.monad_naturality_failure(P, system)
    except NotMonotoneError as err:
        with pytest.raises(NotMonotoneError) as got:
            md.verify_monad_laws(P, system)
        assert str(got.value) == str(err)
        return got.value
    res = md.verify_monad_laws(P, system)
    assert res == (CheckResult.holds() if want is None else CheckResult.fails(**want))
    return res


@pytest.mark.parametrize("n", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_monad_naturality_against_the_object_loop(n):
    for P in ps.enumerate_posets(n):
        for system in SYSTEMS.values():
            res = _same_as_the_object_loop(P, system)
            assert res.status is Status.HOLDS, (P, system.name, res.witness)


def _random_instances(seed, n):
    """The transitive closure of a random acyclic relation on n points, on
    every system whose Γ-lattice thm-monad walks (at most
    claims.LATTICE_CAP points)."""
    rows = oracles.random_orders(random.Random(seed), n, 5)[seed % 5]
    P = ps.FinitePoset(ps.default_labels(n), rows)
    for system in SYSTEMS.values():
        if md.gamma_lattice(P, system).poset.n <= cl.LATTICE_CAP:
            yield P, system


@given(st.integers(0, 2**32 - 1), st.integers(5, 6))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_monad_naturality_on_random_posets_against_the_object_loop(seed, n):
    # random posets of 5 or 6 points, past the exhaustive populations above
    for P, system in _random_instances(seed, n):
        _same_as_the_object_loop(P, system)


def _no_map_tables(P, Q):
    raise AssertionError(f"the naturality pass read the tables {P!r} -> {Q!r}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_untampered_naturality_reads_no_map_table(monkeypatch, n):
    # on untampered tables every check of the naturality pass is decided
    # once per codomain (``monad._naturality_failure``), so thm-monad holds
    # without reading a table P -> Q
    monkeypatch.setattr(ps, "map_tables", _no_map_tables)
    for P in ps.enumerate_posets(n):
        for system in SYSTEMS.values():
            res = md.verify_monad_laws(P, system)
            assert res.status is Status.HOLDS, (P, system.name, res.witness)


@given(st.integers(0, 2**32 - 1), st.integers(5, 6))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_untampered_naturality_reads_no_map_table_on_random_posets(seed, n):
    # the random posets of the test above
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ps, "map_tables", _no_map_tables)
        for P, system in _random_instances(seed, n):
            res = md.verify_monad_laws(P, system)
            assert res.status is Status.HOLDS, (P, system.name, res.witness)


def _no_monotone_tables(P, Q, allowed=None):
    raise AssertionError(f"the adjunction walked the tables {P!r} -> {Q!r}")


def test_untampered_adjunction_walks_no_table(monkeypatch):
    # on untampered tables ``monad._mediators_pass`` decides the universal
    # property once per instance, so thm-adjunction holds without walking a
    # table P -> K(L): at every instance up to 4 points, on each system and
    # the principal-ideals view, and at every instance of the n = 5
    # `connected` cell
    monkeypatch.setattr(ps, "monotone_tables", _no_monotone_tables)
    every = (*SYSTEMS.values(), PRINCIPAL_IDEALS)
    instances = [(P, system) for P in small_posets(4) for system in every]
    instances += [
        (P, CONNECTED)
        for P in ps.enumerate_posets(5)
        if md.gamma_lattice(P, CONNECTED).poset.n <= cl.LATTICE_CAP
    ]
    assert len(instances) == 144 + 62
    for P, system in instances:
        res = md.verify_adjunction(P, system)
        assert res.status is Status.HOLDS, (P, system, res.witness)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=6, deadline=None, derandomize=True)
def test_untampered_adjunction_walks_no_table_on_random_posets(seed):
    # random posets of 6 points, past the exhaustive populations above
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ps, "monotone_tables", _no_monotone_tables)
        for P, system in _random_instances(seed, 6):
            res = md.verify_adjunction(P, system)
            assert res.status is Status.HOLDS, (P, system.name, res.witness)


def test_compact_table_cap():
    # every naturality codomain's δ(Q) fits; a larger poset is refused
    for Q in (q for n in (1, 2, 3) for q in ps.enumerate_posets(n)):
        for system in SYSTEMS.values():
            assert md.delta_object(Q, system).poset.n <= md.COMPACT_TABLE_CAP
    with pytest.raises(SizeCapError):
        md.compact_table(fx.chain(md.COMPACT_TABLE_CAP + 1), CONNECTED)


def test_delta_map_against_closure_oracle():
    # δf, from delta_tables, sends each compact set A to cl(f(A)), read off
    # the oracle's Γ^Z(Q).  Every table P -> Q is tried, monotone or not:
    # some cl(f(A)) of a table that is not monotone escapes the compacts,
    # and the witness names the first compact A whose closure does; a
    # continuous f never escapes
    posets = list(small_posets(3))
    escapes = 0
    for system in SYSTEMS.values():
        for Q in posets:
            DQ = md.delta_object(Q, system)
            closed = oracles.gamma(Q, system.name)
            for P in posets:
                DP = md.delta_object(P, system)
                delta = md.delta_tables(P, Q, system)
                for t in itertools.product(range(Q.n), repeat=P.n):
                    table, want = [], None
                    for A in DP.sets:
                        image = frozenset(t[p] for p in oracles.to_set(A))
                        hull = oracles.to_mask(frozenset(range(Q.n)).intersection(
                            *(C for C in closed if image <= C)
                        ))
                        if hull not in DQ.sets:
                            want = {"of": P.names(A), "image_closure": Q.names(hull)}
                            break
                        table.append(DQ.sets.index(hull))
                    df, bad = delta(t)
                    assert bad == want, (P, Q, t)
                    if want is not None:
                        assert df is None
                        assert not tp.sigma_z_continuity(P, Q, system)(t)
                        escapes += 1
                        continue
                    assert df == table, (P, Q, t)
    assert escapes > 0


def test_map_tables_are_enumerated_once_per_pair(monkeypatch):
    # prop-em-morph and lemma-sigma-cont read the tables of each (P, Q)
    # pair from one enumeration, whatever the system; the naturality pass
    # reads them only where a codomain check fails
    counts = collections.Counter()
    real = ps.monotone_tables

    def counted(P, Q):
        counts[P, Q] += 1
        return real(P, Q)

    monkeypatch.setattr(ps, "monotone_tables", counted)
    ps.map_tables.cache_clear()
    domains = list(small_posets(3))
    for P in domains:
        for system in SYSTEMS.values():
            assert md.verify_monad_laws(P, system).status is Status.HOLDS
            assert cl._eval_prop_em_morph(P, system).status is not Status.FAILS
            assert cl._eval_lemma_sigma_cont(P, system).status is Status.HOLDS
    assert counts == {(P, Q): 1 for P in domains for Q in cl._inner_posets()}


# Each failure branch of the naturality loop, reached by patching the unit,
# the multiplication or a closure at one codomain that P does not equal
# (the posets and patches are in ``oracles``).


def _patch_not_closed(monkeypatch, base, mask):
    real = tp.TopologyFamily.is_closed
    monkeypatch.setattr(
        tp.TopologyFamily,
        "is_closed",
        lambda fam, m: (fam.base != base or m != mask) and real(fam, m),
    )


def _hide_structure_map(monkeypatch, target):
    """Make ``target`` look like a poset that is not a δ-cpo, to the
    structure map, to ``is_delta_cpo`` and to the sup loop of
    ``delta_cpo_witness`` that ``oracles.em_theorem`` reads."""
    hidden = {"reason": "hidden"}
    for name, value in (
        ("em_structure_map", None),
        ("is_delta_cpo", False),
        ("delta_cpo_witness", hidden),
    ):
        real = getattr(md, name)
        monkeypatch.setattr(
            md, name, lambda Q, system, real=real, value=value: (
                value if Q == target else real(Q, system)
            )
        )


def test_naturality_loop_unit_branch(monkeypatch):
    # η of the 3-chain c < b < a is (3, 2, 1); only b's value moves, so the
    # first map to fail sends the 2-chain's top to a and its bottom to b
    patch_table(monkeypatch, "eta", CHAIN3, (3, 1, 1))
    res = _same_as_the_object_loop(CHAIN2, DIRECTED)
    assert res.witness == {"law": "unit naturality", "map": (0, 1)}


def test_naturality_loop_skips_discontinuous_maps(monkeypatch):
    # on `finite`, only the two constant maps from the 3-antichain to the
    # 2-antichain are continuous; the first map onto b that is checked, and
    # fails at the patched unit, is the constant one
    patch_table(monkeypatch, "eta", ANTI2, (1, 0))
    res = _same_as_the_object_loop(ANTI3, FINITE)
    assert res.witness == {"law": "unit naturality", "map": (1, 1, 1)}


def test_naturality_loop_multiplication_branch(monkeypatch):
    patch_table(monkeypatch, "mu", POINT, (0, 0, 0))
    res = _same_as_the_object_loop(CHAIN2, DIRECTED)
    assert res.witness == {"law": "multiplication naturality", "map": (0, 0)}


def test_naturality_loop_escape_of_delta_f(patch_closure):
    # every nonempty image in the 2-antichain closes to the whole carrier,
    # which is not compact
    patch_closure(ANTI2, {1: 3, 2: 3, 3: 3})
    res = _same_as_the_object_loop(CHAIN2, DIRECTED)
    assert res.witness == {
        "law": "functoriality", "of": ("b",), "image_closure": ("a", "b")
    }


def test_naturality_loop_escape_of_delta_delta_f(patch_closure):
    DQ = md.delta_object(ANTI2, DIRECTED).poset
    patch_closure(DQ, {m: DQ.full for m in range(1, 1 << DQ.n)})
    res = _same_as_the_object_loop(CHAIN2, DIRECTED)
    assert res.witness["law"] == "functoriality"
    assert res.witness["image_closure"] == DQ.labels


def test_naturality_loop_non_monotone_delta_f(patch_closure):
    # in the 3-chain c < b < a, the image {a, b} closes to {c}: δf for
    # f = (a, b) on the 2-chain b < a sends {b} ⊆ {a, b} to {b, c} ⊄ {c}
    # in the object loop, and the pass refuses the 3-chain, whose closure
    # is not monotone
    patch_closure(CHAIN3, {3: 4})
    assert not md.compact_table(CHAIN3, DIRECTED)[1]
    with pytest.raises(NotMonotoneError):
        oracles.monad_naturality_failure(CHAIN2, DIRECTED)
    assert_refused(CHAIN3, md.verify_monad_laws, CHAIN2, DIRECTED)


def test_naturality_loop_on_a_non_monotone_closure(patch_closure):
    # the 3-antichain's carrier closing to ∅ makes its closure non-monotone,
    # though no image of the 2-chain is the carrier, so the object loop
    # holds: the pass still refuses the 3-antichain
    patch_closure(ANTI3, {7: 0})
    assert oracles.monad_naturality_failure(CHAIN2, DIRECTED) is None
    assert not md.compact_table(ANTI3, DIRECTED)[1]
    eta_p, mu_p = md.eta(CHAIN2, DIRECTED), md.mu(CHAIN2, DIRECTED)
    assert_refused(ANTI3, oracles.naturality_pass, CHAIN2, ANTI3, DIRECTED, eta_p, mu_p)


# The naturality pass decides the unit equation, the diagonal rows of
# δδ(P), the escape of δf and the empty row once per codomain, and walks
# the tables only where one of them fails (``monad._naturality_failure``).
# Each test below tampers with one table of a codomain so that a check
# fails at one value and the pass walks, and asserts the witness that the
# walk finds.


@pytest.fixture
def patch_compact_table(monkeypatch):
    """``patch(Q, mask, value)`` makes ``compact_table(Q, DIRECTED)`` hold
    ``value`` at ``mask``, with its fold flag as it is."""

    def patch(Q, mask, value):
        table, foldable = md.compact_table(Q, DIRECTED)
        moved = (*table[:mask], value, *table[mask + 1:])
        patch_table(monkeypatch, "compact_table", Q, (moved, foldable))

    return patch


def test_naturality_unit_equation_failing_at_one_value(patch_compact_table):
    # cl {b} read as {c}, index 1 of δ(Q), in place of ↓b = η_Q(b): the
    # first map onto b breaks the unit equation
    assert md.compact_table(CHAIN3, DIRECTED)[0][0b010] == md.eta(CHAIN3, DIRECTED)[1] == 2
    patch_compact_table(CHAIN3, 0b010, 1)
    res = md.verify_monad_laws(CHAIN2, DIRECTED)
    assert res.witness == {"law": "unit naturality", "map": (0, 1)}


@pytest.mark.parametrize("value, witness", [
    (None, {"law": "functoriality", "of": ("s_empty", "s_b"),
            "image_closure": ("s_empty", "s_c", "s_b_c")}),
    (1, {"law": "multiplication naturality", "map": (0, 1)}),
])
def test_naturality_diagonal_rows_failing_at_one_value(patch_compact_table, value, witness):
    # in δ(Q) = ∅ < {c} < {b, c} < Q, the closure of the value {b, c} is its
    # ↓, index 3 of δδ(Q), which μ_Q sends back to it.  Read as no compact
    # set, δδf escapes on the first diagonal row that reaches that value;
    # read as ↓{c}, which μ_Q sends to {c}, the multiplication equation
    # fails there
    DQ = md.delta_object(CHAIN3, DIRECTED).poset
    assert md.compact_table(DQ, DIRECTED)[0][0b0100] == 3 and md.mu(CHAIN3, DIRECTED)[3] == 2
    patch_compact_table(DQ, 0b0100, value)
    assert md.verify_monad_laws(CHAIN2, DIRECTED).witness == witness


def test_naturality_escape_of_delta_f_past_the_width(patch_closure):
    # on `finite` the row of {a, b} in δ of the 2-antichain has two points.
    # The 3-antichain's closure made to keep {a, b}, which is not closed and
    # so not compact, still folds, and cl ∅ and each cl {q} stay compact, so
    # only the width check sees it: the first map onto a and b escapes
    assert md.compact_table(ANTI3, FINITE)[0][0b011] is not None
    patch_closure(ANTI3, {0b011: 0b011})
    table, foldable = md.compact_table(ANTI3, FINITE)
    assert foldable and table[0b011] is None
    assert None not in (table[0], table[0b001], table[0b010], table[0b100])
    res = _same_as_the_object_loop(ANTI2, FINITE)
    assert res.witness == {
        "law": "functoriality", "of": ("a", "b"), "image_closure": ("a", "b")
    }


def test_naturality_empty_family_failing(monkeypatch):
    # μ of the point read as sending the empty family of δδ(Q), cl ∅ of
    # δ(Q), to {a} in place of ∅ = cl ∅ of Q, while the diagonal rows hold:
    # the empty row of δδ of the 2-chain breaks the multiplication equation
    # at the first continuous map
    DQ = md.delta_object(POINT, DIRECTED).poset
    compact_dq = md.compact_table(DQ, DIRECTED)[0]
    mu_q = md.mu(POINT, DIRECTED)
    assert mu_q[compact_dq[0]] == md.compact_table(POINT, DIRECTED)[0][0] == 0
    patch_table(monkeypatch, "mu", POINT, (1, *mu_q[1:]))
    res = _same_as_the_object_loop(CHAIN2, DIRECTED)
    assert res.witness == {"law": "multiplication naturality", "map": (0, 0)}


def test_naturality_continuity_with_an_irreducible_that_is_not_a_lower_set(monkeypatch):
    # the walk reads continuity on the meet-irreducibles of Γ^Z(Q).  {a},
    # the top of the 3-chain, made a meet-irreducible pulls back to the top
    # of the 2-chain under (a, b), which is then not continuous: with the
    # unit patched to fail at b, the first map that fails is (b, b), not
    # (a, b).  The object loop reads every closed set, not the
    # irreducibles, so it does not see this patch
    patch_table(monkeypatch, "eta", CHAIN3, (3, 1, 1))
    assert md.verify_monad_laws(CHAIN2, DIRECTED).witness["map"] == (0, 1)
    real = tp.TopologyFamily.irreducible
    monkeypatch.setattr(tp.TopologyFamily, "irreducible", property(
        lambda fam: (*real.fget(fam), 0b001) if fam.base == CHAIN3 else real.fget(fam)
    ))
    res = md.verify_monad_laws(CHAIN2, DIRECTED)
    assert res.witness == {"law": "unit naturality", "map": (1, 1)}


def test_monotone_on_covers_against_the_constructor():
    posets = list(small_posets(3))
    for P in posets:
        covers = ps.covers(P)
        for Q in posets:
            for table in itertools.product(range(Q.n), repeat=P.n):
                try:
                    oracles.MonotoneMap(P, Q, table)
                    monotone = True
                except NotMonotoneError:
                    monotone = False
                assert ps.monotone_on_covers(table, covers, Q) == monotone


def test_sup_tables_are_checked_monotone(monkeypatch, patch_closure):
    # μ, ξ and ε check their tables on cover pairs and raise the validating
    # constructor's NotMonotoneError, as building them as maps did.  μ's
    # union closures on the 2-chain b < a are ∅, {b} and {a, b}: ∅ closing
    # to {a, b} keeps each of them compact, and sends the family {∅} above
    # {∅, {b}}.  A sup of the empty set sent to the top makes ξ's and ε's
    # tables start above their next values.  Every table they read is
    # built before the patches
    D1 = md.delta_object(CHAIN2, DIRECTED).poset
    md.delta_object(D1, DIRECTED)
    L = md.gamma_lattice(CHAIN2, DIRECTED).poset
    md.epsilon(L, DIRECTED)
    md.mu.cache_clear()
    md.em_structure_map.cache_clear()
    try:
        patch_closure(CHAIN2, {0: 3})
        with pytest.raises(NotMonotoneError, match="broken by the table"):
            md.mu(CHAIN2, DIRECTED)
        real = ps.sup_of
        for build, arg, target in ((md.em_structure_map, CHAIN2, CHAIN2), (md.epsilon, L, L)):
            top = real(target, target.full)
            monkeypatch.setattr(
                ps, "sup_of",
                lambda X, m, target=target, top=top: (
                    top if X == target and m == 0 else real(X, m)
                ),
            )
            with pytest.raises(NotMonotoneError, match="broken by the table"):
                build(arg, DIRECTED)
    finally:
        md.mu.cache_clear()
        md.em_structure_map.cache_clear()


def test_em_uniqueness_search_handles_wide_delta_posets():
    # chains on the 4-antichain produce a 9-element compact poset; the
    # uniqueness search must still run rather than bail on a size cap
    P = fx.antichain(4)
    res = cl.get_claim("thm-em").evaluate(P, CHAINS)
    assert res.status is Status.HOLDS


def test_delta_cpo_and_structure(anti2, wedge):
    assert not md.is_delta_cpo(anti2, DIRECTED)
    assert md.em_structure_map(anti2, DIRECTED) is None
    assert md.is_delta_cpo(wedge, DIRECTED)
    xi = md.em_structure_map(wedge, DIRECTED)
    assert xi is not None
    assert md.em_laws(wedge, DIRECTED)(xi).status is Status.HOLDS
    # complete lattices always carry a structure map
    for P in (fx.diamond(), fx.chain(3)):
        for system in SYSTEMS.values():
            assert md.is_delta_cpo(P, system)


def _equation_failure(f, P, Q, system):
    """``claims._sup_failure`` as prop-em-morph calls it, at the maximal
    points of each compact A of P: the index of the first A with
    f(sup A) ≠ sup f(A) in Q, or None."""
    sups = md.em_structure_map(P, system)
    rows = ps.maxima(P, md.delta_object(P, system).sets)
    return cl._sup_failure(f, sups, rows, [ps.sup_of(Q, m) for m in range(1 << Q.n)])


def test_em_morphisms(wedge):
    assert _equation_failure((0, 1, 2), wedge, wedge, DIRECTED) is None
    # constant to bottom between delta-cpos with bottoms preserves sups
    two = fx.chain(2)
    assert _equation_failure((0, 0, 0), wedge, two, DIRECTED) is None


def test_em_morphism_equation_against_oracle():
    # f(sup A) = sup f(A) over the compact A, read at the maximal points
    # of A, against the oracle's sup of the whole image f(A)
    outcomes = set()
    posets = list(small_posets(3))
    for system in SYSTEMS.values():
        cpos = [P for P in posets if md.is_delta_cpo(P, system)]
        for P in cpos:
            compacts = md.delta_object(P, system).sets
            for Q in cpos:
                for f in ps.map_tables(P, Q):
                    want = None
                    for i, A in enumerate(compacts):
                        S = oracles.to_set(A)
                        if f[oracles.sup(P, S)] != oracles.sup(Q, oracles.image(f, S)):
                            want = i
                            break
                    assert _equation_failure(f, P, Q, system) == want
                    outcomes.add(want is None)
    assert outcomes == {True, False}


# thm-em and prop-em-morph read function tables; the object loops they
# replaced are oracles.em_check, em_theorem and em_morphisms.


def _outcome(fn):
    """The result of ``fn()``, or the type and message of the error it raises."""
    try:
        return fn()
    except ZdtError as err:
        return type(err).__name__, str(err)


def _unit_tables(D1, eta_p, n):
    """Every table from δ(P) to the n points of P that passes the unit law,
    monotone or not."""
    free = [i for i in range(D1.n) if i not in eta_p]
    for values in itertools.product(range(n), repeat=len(free)):
        table = [None] * D1.n
        for p, e in enumerate(eta_p):
            table[e] = p
        for i, v in zip(free, values):
            table[i] = v
        yield tuple(table)


@pytest.mark.parametrize("n", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_em_laws_against_the_object_loop(n):
    laws_seen = set()
    for P in ps.enumerate_posets(n):
        for system in SYSTEMS.values():
            if md.gamma_lattice(P, system).poset.n > cl.LATTICE_CAP:
                continue
            want = oracles.em_theorem(P, system)
            assert cl._eval_thm_em(P, system) == want, (P, system.name)
            D1 = md.delta_object(P, system).poset
            eta_p = md.eta(P, system)
            if n ** (D1.n - P.n) > 5000:
                continue
            laws = md.em_laws(P, system)
            for t in _unit_tables(D1, eta_p, n):
                xi = oracles.MonotoneMap(D1, P, t, _trusted=True)
                got = _outcome(lambda: laws(t))
                assert got == _outcome(lambda: oracles.em_check(P, xi, system)), t
                laws_seen.add(got.witness and got.witness.get("reason", got.witness["law"]))
    if n >= 2:
        assert laws_seen == {None, "multiplication", "δ(ξ) ill-typed", "continuity"}


@pytest.mark.parametrize("n", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_em_morphisms_against_the_object_loop(n):
    for P in ps.enumerate_posets(n):
        for system in SYSTEMS.values():
            want = oracles.em_morphisms(P, system, cl._inner_posets())
            assert cl._eval_prop_em_morph(P, system) == want, (P, system.name)


# Each failure branch of the two EM loops, reached by a patched table.


def _thm_em_both_ways(P, system):
    got = _outcome(lambda: cl._eval_thm_em(P, system))
    assert got == _outcome(lambda: oracles.em_theorem(P, system))
    return got


def _em_morph_both_ways(P, system):
    got = _outcome(lambda: cl._eval_prop_em_morph(P, system))
    assert got == _outcome(lambda: oracles.em_morphisms(P, system, cl._inner_posets()))
    return got


def test_em_loop_unit_branch(monkeypatch):
    # η of the 2-chain b < a is (2, 1); sending b to the top as well
    patch_table(monkeypatch, "eta", CHAIN2, (2, 2))
    res = _thm_em_both_ways(CHAIN2, DIRECTED)
    assert res.witness == {"law": "unit", "element": "b"}


def test_em_loop_multiplication_branch(monkeypatch):
    patch_table(monkeypatch, "mu", CHAIN2, (0, 0, 1, 1))
    assert _thm_em_both_ways(CHAIN2, DIRECTED).witness == {"law": "multiplication"}


def test_em_loop_ill_typed_delta_xi(patch_closure):
    # {b} closes to {a}, which is not a compact closed set
    patch_closure(CHAIN2, {2: 1})
    assert _thm_em_both_ways(CHAIN2, DIRECTED).witness == {
        "law": "multiplication",
        "reason": "δ(ξ) ill-typed",
        "of": ("s_empty",),
        "image_closure": ("a",),
    }


def test_em_laws_non_monotone_delta_xi(patch_closure):
    # in the 3-chain c < b < a, {a} closes to {b, c} and {a, c} to {c}; the
    # table sending ∅ to a and {c} to c has ξ{∅} = {a} and ξ{∅, {c}} = {a, c}
    # under δ(ξ), which then breaks the first cover pair of δδ(P)
    patch_closure(CHAIN3, {1: 6, 5: 4})
    D1 = md.delta_object(CHAIN3, DIRECTED).poset
    xi = (0, 2, 1, 0)
    got = _outcome(lambda: md.em_laws(CHAIN3, DIRECTED)(xi))
    want = _outcome(
        lambda: oracles.em_check(CHAIN3, oracles.MonotoneMap(D1, CHAIN3, xi, _trusted=True), DIRECTED)
    )
    assert got == want
    assert got[0] == "NotMonotoneError"


def test_em_loop_continuity_branch(monkeypatch):
    # ξ = (1, 1, 0) on δ(2-chain) pulls the closed {b} back to {∅, {b}}
    _patch_not_closed(monkeypatch, md.delta_object(CHAIN2, DIRECTED).poset, 3)
    assert _thm_em_both_ways(CHAIN2, DIRECTED).witness == {"law": "continuity"}


def test_em_loop_structure_map_on_a_non_delta_cpo(monkeypatch):
    _hide_structure_map(monkeypatch, CHAIN2)
    assert _thm_em_both_ways(CHAIN2, DIRECTED).witness == {
        "reason": "structure map on a non-delta-cpo", "tables": [(1, 1, 0)]
    }


def test_em_loop_structure_map_not_unique(monkeypatch):
    # a candidate search that finds nothing leaves the structure map alone;
    # the oracle walks δ(P) -> P with its own generator, so both are emptied
    D1 = md.delta_object(CHAIN2, DIRECTED).poset
    real, real_oracle = ps.monotone_tables, oracles.monotone_tables
    monkeypatch.setattr(
        ps,
        "monotone_tables",
        lambda P, Q, allowed=None: iter(()) if P == D1 else real(P, Q, allowed),
    )
    monkeypatch.setattr(
        oracles,
        "monotone_tables",
        lambda P, Q, pinned: iter(()) if P == D1 else real_oracle(P, Q, pinned),
    )
    assert _thm_em_both_ways(CHAIN2, DIRECTED).witness == {
        "reason": "structure map not unique", "tables": []
    }


def _record_pinned_searches(monkeypatch):
    """Record every table that a pinned ``monotone_tables`` call yields."""
    real = ps.monotone_tables
    walked = []

    def recorded(P, Q, allowed=None):
        for table in real(P, Q, allowed):
            if allowed is not None:
                walked.append((P, table))
            yield table

    monkeypatch.setattr(ps, "monotone_tables", recorded)
    return walked


def test_em_search_walks_exactly_the_unit_law_tables(monkeypatch):
    # the pinned search yields the monotone tables δ(P) -> P that pass the
    # unit law, in table order, and nothing else
    walked = _record_pinned_searches(monkeypatch)
    for P in small_posets(3):
        for system in (*SYSTEMS.values(), PRINCIPAL_IDEALS):
            D1 = md.delta_object(P, system).poset
            eta_p = md.eta(P, system)
            walked.clear()
            cl._eval_thm_em(P, system)
            want = [
                t for t in ps.monotone_tables(D1, P)
                if all(t[e] == p for p, e in enumerate(eta_p))
            ]
            assert [t for dom, t in walked if dom == D1] == want, P


def test_em_search_on_a_non_injective_unit_walks_no_table(monkeypatch):
    # η of the 2-chain b < a sends both points to the top of δ(P), and the
    # structure map is hidden, so the search runs: the two pins on the top
    # intersect to nothing, and no table is walked, as none passes the
    # unit law
    patch_table(monkeypatch, "eta", CHAIN2, (2, 2))
    _hide_structure_map(monkeypatch, CHAIN2)
    walked = _record_pinned_searches(monkeypatch)
    assert _thm_em_both_ways(CHAIN2, DIRECTED) == CheckResult.holds()
    assert walked == []


@pytest.mark.parametrize(
    "closures, error", [({}, SupMissingError), ({2: 3, 3: 2}, NotMonotoneError)]
)
def test_em_loop_errors_of_mu_surface_alike(monkeypatch, patch_closure, closures, error):
    # μ is built on the first table that passes the unit law, once: an error
    # it raises leaves both loops at the same point.  Swapping the closures
    # of {b} and {a, b} on the 2-chain b < a sends the family {∅, {b}}
    # above the family of all three compacts, and μ's cover check raises.  μ is cached per
    # (P, system), so its cache is cleared around the closure patch: μ is
    # built under the patch, and nothing built under it outlives the test
    cached_mu = md.mu
    cached_mu.cache_clear()
    if error is SupMissingError:
        def raising(Q, system):
            raise SupMissingError("patched")

        monkeypatch.setattr(md, "mu", raising)
    patch_closure(CHAIN2, closures)
    try:
        got = _thm_em_both_ways(CHAIN2, DIRECTED)
    finally:
        cached_mu.cache_clear()
    assert got[0] == error.__name__


def test_em_loop_builds_mu_for_continuous_candidates_only(monkeypatch):
    # the 2-chain's structure table (1, 1, 0) made discontinuous, and hidden
    # from the search as on a non-δ-cpo: the only table that passes the unit
    # law is filtered out before it reaches the laws, so a μ that would raise
    # is never built
    _patch_not_closed(monkeypatch, md.delta_object(CHAIN2, DIRECTED).poset, 3)
    _hide_structure_map(monkeypatch, CHAIN2)

    def raising(Q, system):
        raise SupMissingError("patched")

    monkeypatch.setattr(md, "mu", raising)
    assert _thm_em_both_ways(CHAIN2, DIRECTED) == CheckResult.holds()


def test_em_laws_build_mu_once(monkeypatch):
    calls = []
    real = md.mu

    def counted(Q, system):
        calls.append(Q)
        return real(Q, system)

    monkeypatch.setattr(md, "mu", counted)
    assert cl._eval_thm_em(CHAIN3, DIRECTED).status is Status.HOLDS
    assert cl._eval_thm_em(ANTI2, DIRECTED).status is Status.HOLDS
    # the 2-antichain has no monotone table that passes the unit law
    assert calls == [CHAIN3]


def test_em_morph_loop_ill_typed_delta_f(patch_closure):
    patch_closure(CHAIN2, {2: 1})
    assert _em_morph_both_ways(CHAIN3, DIRECTED).witness == {
        "reason": "functor ill-typed", "of": ("c",), "image_closure": ("a",)
    }


def test_em_morph_loop_non_monotone_delta_f(patch_closure):
    patch_closure(CHAIN2, {2: 3, 3: 2})
    got = _em_morph_both_ways(CHAIN3, DIRECTED)
    assert got[0] == "NotMonotoneError"


def test_em_morph_loop_square_branch(monkeypatch):
    # ξ of the 2-chain sent to its top everywhere: the first continuous map
    # that meets the sup equation misses the square
    patch_table(monkeypatch, "em_structure_map", CHAIN2, (1, 1, 1))
    assert _em_morph_both_ways(CHAIN3, DIRECTED).witness == {
        "cod": repr(CHAIN2), "table": (0, 0, 1), "equation": True, "square": False
    }
