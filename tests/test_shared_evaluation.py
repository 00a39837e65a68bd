"""One evaluation per instance for singletons, chains and directed.

On a finite poset the three systems have the same I_Z(P), the principal
ideals, so ``run_claim`` evaluates a claim once through
``systems.PRINCIPAL_IDEALS``, a view that knows nothing else, and falls back
to each system itself where the claim reads more.  The reports must be those
of the walk that evaluates every cell with its own system.
"""

import dataclasses
from functools import lru_cache

import pytest

import oracles
from zdt import claims as cl, poset as ps, systems as zs, topology as tp
from zdt.reports import CheckResult
from zdt.systems import PRINCIPAL_IDEAL_SYSTEMS, PRINCIPAL_IDEALS, SystemViewError

# The claims that read Z(P) beyond I_Z(P) on some instance, so that the
# harness evaluates them with each system after one attempt through the view.
# A change that makes another claim fall back loses its shared evaluation.
READS_Z = ("lemma-uu-eq", "prop-down-cont", "prop-up-cont", "thm-s4-equiv")

SHARED = tuple(
    c.id for c in cl.registry() if len(set(c.systems) & set(PRINCIPAL_IDEAL_SYSTEMS)) > 1
)

# (mode, depth cap): up to iso as deep as the claim goes up to 4, labeled to 3
POPULATIONS = (("up_to_iso", 4), ("labeled", 3))


@lru_cache(maxsize=None)
def _per_system(claim_id, mode, depth):
    return cl.format_reports(oracles.per_system_reports(claim_id, depth, mode))


@pytest.fixture
def view_calls(monkeypatch):
    """Every evaluation through the view, as (poset, whether it raised)."""
    calls = []
    guarded = cl._guarded

    def counting(f, P, system):
        if system is not PRINCIPAL_IDEALS:
            return guarded(f, P, system)
        try:
            res = guarded(f, P, system)
        except SystemViewError:
            calls.append((P, True))
            raise
        calls.append((P, False))
        return res

    monkeypatch.setattr(cl, "_guarded", counting)
    return calls


def test_the_shared_claims_are_the_registry_less_the_single_system_ones():
    assert len(SHARED) == 23
    assert set(READS_Z) < set(SHARED)
    assert {c.id for c in cl.registry()} - set(SHARED) == {
        "thm-main-s3", "ctrl-directed", "ctrl-finite",
    }


@pytest.mark.parametrize("claim_id", SHARED)
def test_shared_reports_match_the_per_system_walk(claim_id, view_calls):
    raised = []
    for mode, cap in POPULATIONS:
        depth = min(cl.get_claim(claim_id).max_size, cap)
        shared = cl.format_reports(cl.run_claim(claim_id, depth, mode=mode))
        assert shared == _per_system(claim_id, mode, depth), mode
        assert view_calls, mode
        # once the view raises, the call tries it no more
        assert [r for _, r in view_calls].count(True) <= 1
        assert not any(r for _, r in view_calls[:-1])
        raised.append(view_calls[-1][1])
        view_calls.clear()
    assert raised[0] == (claim_id in READS_Z)


@pytest.mark.parametrize("claim_id", SHARED)
def test_pooled_shared_reports_match_the_per_system_walk(monkeypatch, claim_id):
    monkeypatch.setattr(cl.os, "cpu_count", lambda: 2)
    for mode, cap in POPULATIONS:
        depth = min(cl.get_claim(claim_id).max_size, cap)
        pooled = cl.format_reports(cl.run_claim(claim_id, depth, mode=mode, jobs=2))
        assert pooled == _per_system(claim_id, mode, depth), mode
    assert len(cl._workers) == 2


def _reads_z_on_three_points(P, system):
    # reads membership, and names its system, on the 3-point posets only
    if P.n == 3:
        system.contains(P, 1)
        return CheckResult.fails(system=system.name)
    return CheckResult.holds()


@pytest.fixture
def probe_claim(monkeypatch):
    claims = [
        dataclasses.replace(c, evaluate=_reads_z_on_three_points)
        if c.id == "lemma-wmc" else c
        for c in cl._CLAIMS
    ]
    monkeypatch.setattr(cl, "_CLAIMS", claims)
    return "lemma-wmc"


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_claim_that_reads_z_falls_back_to_each_system(
    monkeypatch, probe_claim, view_calls, jobs
):
    monkeypatch.setattr(cl.os, "cpu_count", lambda: 2)
    reports = cl.run_claim(probe_claim, 4, systems=PRINCIPAL_IDEAL_SYSTEMS, jobs=jobs)
    expected = oracles.per_system_reports(probe_claim, 4, "up_to_iso", PRINCIPAL_IDEAL_SYSTEMS)
    assert cl.format_reports(reports) == cl.format_reports(expected)
    for name in PRINCIPAL_IDEAL_SYSTEMS:
        (n3,) = [r for r in reports if r.population == f"{name} n=3"]
        assert n3.fails == 5
        assert {w["system"] for _, w in n3.witnesses} == {name}
    if jobs == 1:
        # n = 1 and 2 through the view; the first 3-point poset raises, and
        # the call tries the view no more
        assert [P for P, _ in view_calls] == list(
            ps.population(1) + ps.population(2) + ps.population(3)[:1]
        )
        assert [r for _, r in view_calls] == [False, False, False, True]


def test_each_instance_is_evaluated_once_for_the_three(view_calls):
    cl.run_claim("thm-local-wmc", 4, systems=("chains", "finite"))
    assert view_calls == []
    for systems in (("finite", "directed", "chains"), cl.ALL_SYSTEMS):
        view_calls.clear()
        cl.run_claim("thm-local-wmc", 4, systems=systems)
        assert [P for P, _ in view_calls] == [P for n in range(1, 5) for P in ps.population(n)]


def test_the_view_raises_on_everything_but_its_ideals():
    P = ps.population(3)[0]
    assert PRINCIPAL_IDEALS.member_ideals(P) == tuple(sorted(set(P.down)))
    for read in (
        lambda: PRINCIPAL_IDEALS.contains(P, 1),
        lambda: PRINCIPAL_IDEALS.members(P),
        lambda: PRINCIPAL_IDEALS.name,
        lambda: PRINCIPAL_IDEALS.sys_id,
        lambda: repr(PRINCIPAL_IDEALS),
        lambda: f"{PRINCIPAL_IDEALS}",
    ):
        with pytest.raises(SystemViewError):
            read()


def test_guarded_lets_the_view_error_through():
    def reads_members(P, system):
        return CheckResult.fails(members=system.members(P))

    with pytest.raises(SystemViewError):
        cl._guarded(reads_members, ps.population(2)[0], PRINCIPAL_IDEALS)


def test_the_view_keeps_its_own_cache_entries():
    P = ps.population(3)[1]
    assert PRINCIPAL_IDEALS != zs.SINGLETONS and zs.SINGLETONS != PRINCIPAL_IDEALS
    assert tp.gamma_subbasis(P, PRINCIPAL_IDEALS) is not tp.gamma_subbasis(P, zs.SINGLETONS)
    assert tp.closure_table(P, PRINCIPAL_IDEALS) == tp.closure_table(P, zs.SINGLETONS)
