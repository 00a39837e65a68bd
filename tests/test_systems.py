"""Subset systems: membership, enumeration, axioms, and meta-diagnostics."""

import pytest

import oracles
from zdt import fixtures as fx, poset as ps
from zdt import systems as zs


def small_posets(max_n=4, mode="labeled"):
    return (P for n in range(1, max_n + 1) for P in ps.enumerate_posets(n, mode))


def test_member_examples(anti2, vee, chain3, twin):
    assert [anti2.names(m) for m in zs.DIRECTED.members(anti2)] == [("a",), ("b",)]
    assert [anti2.names(m) for m in zs.FINITE.members(anti2)] == [
        ("a",),
        ("b",),
        ("a", "b"),
    ]
    assert [vee.names(m) for m in zs.CONNECTED.members(vee)] == [
        ("a",),
        ("b",),
        ("c",),
        ("a", "c"),
        ("b", "c"),
        ("a", "b", "c"),
    ]
    assert zs.CHAINS.contains(chain3, chain3.mask_of(["a", "c"]))
    assert not zs.DIRECTED.contains(twin, twin.mask_of(["a", "b"]))
    assert not zs.FINITE.contains(chain3, 0)


def test_members_match_oracle():
    for P in small_posets(4, "up_to_iso"):
        for name, system in zs.SYSTEMS.items():
            expected = sorted(oracles.to_mask(s) for s in oracles.members(P, name))
            assert list(system.members(P)) == expected


def test_member_ideals_need_a_builtin_system(vee):
    # I_Z(P) is cached, but a refusal is not: every call raises again
    custom = zs.SubsetSystem("custom", 99)
    for _ in range(2):
        with pytest.raises(ValueError, match="no closed form"):
            custom.member_ideals(vee)


def test_member_ideals_are_computed_once(vee):
    for system in zs.SYSTEMS.values():
        ideals = system.member_ideals(vee)
        assert isinstance(ideals, tuple)
        assert system.member_ideals(fx.vee()) is ideals


def test_system_hash_is_its_id():
    # the caches key on systems: equal systems must hash equal, and the
    # built-ins must not collide
    for system in zs.SYSTEMS.values():
        twin = zs.SubsetSystem(system.name, system.sys_id)
        assert twin == system and hash(twin) == hash(system) == system.sys_id
    assert len({hash(s) for s in zs.SYSTEMS.values()}) == 5


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_zcpo_witness_against_member_loop_oracle(n):
    outcomes = set()
    for P in ps.enumerate_posets(n):
        for name, system in zs.SYSTEMS.items():
            S = oracles.zcpo_failure(P, name)
            expected = None
            if S is not None:
                expected = {"member": P.names(oracles.to_mask(S)), "reason": "no supremum"}
            assert zs.zcpo_witness(P, system) == expected, (P, name)
            assert zs.is_zcpo(P, system) == (S is None)
            outcomes.add(S is None)
    assert outcomes == ({True} if n == 1 else {True, False})


def test_contains_agrees_with_members():
    for P in small_posets(4, "up_to_iso"):
        for system in zs.SYSTEMS.values():
            mem = set(system.members(P))
            for mask in range(P.full + 1):
                assert system.contains(P, mask) == (mask in mem)


def test_finite_is_maximum_singletons_minimum():
    for P in small_posets(4, "up_to_iso"):
        fin = set(zs.FINITE.members(P))
        sing = set(zs.SINGLETONS.members(P))
        for system in zs.SYSTEMS.values():
            mem = set(system.members(P))
            assert mem <= fin
            assert sing <= mem


def test_chain_and_directed_members_have_maxima():
    for P in small_posets(5, "up_to_iso"):
        for system in (zs.CHAINS, zs.DIRECTED):
            for m in system.members(P):
                top = ps.greatest_of(P, m)
                assert top is not None
                assert ps.cut(P, m) == P.down[top]


@pytest.mark.parametrize("name", sorted(zs.SYSTEMS))
def test_system_axioms_bound3(name):
    report = zs.check_system_axioms(zs.SYSTEMS[name])
    assert report.ok, report.witnesses[:2]


@pytest.mark.parametrize("name", sorted(zs.SYSTEMS))
def test_subset_hereditary_bound3(name):
    report = zs.check_subset_hereditary_instances(zs.SYSTEMS[name])
    assert report.ok, report.witnesses[:2]


def test_is_zcpo(twin, diamond):
    assert not zs.is_zcpo(twin, zs.FINITE)
    assert zs.is_zcpo(diamond, zs.FINITE)
    for P in small_posets(4, "up_to_iso"):
        assert zs.is_zcpo(P, zs.DIRECTED)
        assert zs.is_zcpo(P, zs.CHAINS)
        assert zs.is_zcpo(P, zs.SINGLETONS)


def test_property_m_instances(anti2, chain3):
    assert zs.check_property_M_instance(zs.FINITE, anti2).ok
    assert zs.check_property_M_instance(zs.DIRECTED, chain3).ok
    report = zs.check_property_M_instance(zs.SINGLETONS, anti2)
    assert not report.ok
    # chains lose property M once two incomparable filters refine ↑F
    assert not zs.check_property_M_instance(zs.CHAINS, fx.vee()).ok
    for P in small_posets(3, "up_to_iso"):
        for name in ("directed", "finite", "connected"):
            assert zs.check_property_M_instance(zs.SYSTEMS[name], P).ok


def test_union_complete_instances(anti2):
    assert zs.check_union_complete_instance(zs.FINITE, anti2).ok
    for P in small_posets(3, "up_to_iso"):
        for system in zs.SYSTEMS.values():
            report = zs.check_union_complete_instance(system, P)
            assert report.ok, (P, system.name, report.witnesses[:1])


def test_ffup_instances(chain3):
    assert zs.check_ffup_instance(zs.SINGLETONS, chain3).ok
    for P in small_posets(3, "up_to_iso"):
        for name in ("directed", "finite", "connected"):
            assert zs.check_ffup_instance(zs.SYSTEMS[name], P).ok


def test_rudin_search_reports_failure_then_success(chain3):
    # E = ↑b cannot be pinned by K={a}: ⋂↑a is the whole carrier
    report = zs.check_rudin_instance(
        zs.FINITE, chain3, chain3.up[1], [chain3.up[0]]
    )
    assert report.fails == 1
    report = zs.check_rudin_instance(
        zs.FINITE, chain3, chain3.up[1], [chain3.up[1]]
    )
    assert report.holds == 1
    report = zs.check_rudin_instance(zs.FINITE, chain3, chain3.up[1], [0])
    assert report.inapplicable == 1


def test_rudin_finds_witnesses_on_small_instances():
    # whenever the hypotheses of the property hold, a witness set should exist
    # for the finite system on these sizes
    for P in small_posets(3, "up_to_iso"):
        fp = ps.fin_poset(P)
        for e in range(P.full + 1):
            if ps.up_set(P, e) != e:
                continue
            for fam in zs.FINITE.members(fp.poset):
                members = [fp.sets[i] for i in ps.bits(fam)]
                inter = P.full
                for g in members:
                    inter &= g
                if inter & ~e:
                    continue
                report = zs.check_rudin_instance(zs.FINITE, P, e, members)
                assert report.holds == 1, (P, e, members)


def test_family_poset_orders_by_inclusion(vee):
    fam = (0, vee.mask_of(["a"]), vee.full)
    FP = zs.family_poset(vee, fam)
    assert FP.leq(0, 1) and FP.leq(1, 2) and not FP.leq(2, 0)


def _labeled_up_to(bound):
    return [P for n in range(1, bound + 1) for P in ps.enumerate_posets(n, "labeled")]


def _reflects_order(P, Q, table):
    return all(
        P.leq(i, j) == Q.leq(table[i], table[j]) for i in range(P.n) for j in range(P.n)
    )


@pytest.mark.parametrize("name", sorted(zs.SYSTEMS))
def test_system_axioms_visit_every_map(name):
    # one instance per labeled poset (singletons) and one per monotone map
    posets = _labeled_up_to(3)
    maps = sum(
        1 for P in posets for Q in posets for _ in oracles.monotone_tables(P, Q, {})
    )
    report = zs.check_system_axioms(zs.SYSTEMS[name])
    assert report.total == len(posets) + maps == 4841


@pytest.mark.parametrize("name", sorted(zs.SYSTEMS))
def test_subset_hereditary_visits_every_embedding(name):
    posets = _labeled_up_to(3)
    embeddings = sum(
        1
        for P in posets
        for Q in posets
        for table in oracles.monotone_tables(P, Q, {})
        if _reflects_order(P, Q, table)
    )
    report = zs.check_subset_hereditary_instances(zs.SYSTEMS[name])
    assert report.total == embeddings == 298
