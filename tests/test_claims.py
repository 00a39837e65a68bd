"""Registry behavior, harness determinism, and the recorded findings."""

import itertools
import multiprocessing

import pytest

import oracles
from test_instance_tables import INSTANCE_CACHES, clear_zdt_caches, zdt_caches
from zdt import claims as cl, continuity as ct, poset as ps, topology as tp
from zdt import fixtures as fx
from zdt.errors import SizeCapError, UnknownClaimError
from zdt.reports import WITNESS_CAP, CheckResult, Status
from zdt.systems import FINITE, SYSTEMS


def test_registry_contents():
    reg = cl.registry()
    assert len(reg) >= 22
    ids = [c.id for c in reg]
    assert len(set(ids)) == len(ids)
    for required in (
        "lemma-wmc",
        "lemma-semilattice",
        "prop-gamma-wmc",
        "lemma-int",
        "lemma-uu-eq",
        "thm-main-s3",
        "lemma-sigma-cont",
        "lemma-lh",
        "cor-zcpo-lh",
        "thm-local-wmc",
        "prop-down-cont",
        "prop-up-cont",
        "prop-beneath",
        "prop-union-sup",
        "lemma-galois-cut",
        "lemma-galois-closed",
        "lemma-galois-beneath",
        "lemma-kz-zcpo",
        "thm-adjunction",
        "thm-monad",
        "thm-em",
        "prop-em-morph",
    ):
        assert required in ids
    assert cl.get_claim("thm-em").statement
    with pytest.raises(UnknownClaimError):
        cl.get_claim("nonsense")


def test_run_claim_population_counts():
    reports = cl.run_claim("lemma-wmc", 3, mode="labeled", systems=("finite",))
    assert [r.total for r in reports] == [1, 3, 19]
    assert all(r.ok for r in reports)
    reports = cl.run_claim("lemma-wmc", 3, systems=("finite",))
    assert [r.total for r in reports] == [1, 2, 5]


def test_run_claim_deterministic_across_jobs():
    for claim_id, size, systems in (
        ("lemma-wmc", 4, ("finite", "chains")),
        ("thm-local-wmc", 4, ("finite",)),  # failing cells carry witnesses
        ("prop-beneath", 3, None),
    ):
        solo = cl.format_reports(cl.run_claim(claim_id, size, systems=systems, jobs=1))
        multi = cl.format_reports(cl.run_claim(claim_id, size, systems=systems, jobs=2))
        assert solo == multi


def test_in_process_run_evaluates_the_enumerated_posets(monkeypatch):
    # at jobs=1 every instance is built once, by the enumeration, and the
    # evaluator receives that very poset; the population is built once per
    # process, so both systems' cells get the same objects
    ps._iso_representatives.cache_clear()
    built = []
    seen = []
    init = ps.FinitePoset.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    def evaluate(P, system):
        seen.append(P)
        return CheckResult.fails()

    probe = cl.Claim("probe", "every instance fails", ("finite", "chains"), evaluate, 3)
    monkeypatch.setattr(cl, "_CLAIMS", [probe])
    monkeypatch.setattr(ps.FinitePoset, "__init__", counting)
    reports = cl.run_claim("probe")
    assert len(built) == 1 + 2 + 5
    assert len(seen) == 2 * len(built)
    assert all(a is b for a, b in zip(seen[: len(built)], seen[len(built) :]))
    recorded = [P for r in reports for P, _ in r.witnesses]
    assert len(recorded) == len(seen)
    assert all(a is b for a, b in zip(seen, recorded))


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(100_000, 2, 2), (100_000, 64, 8), (2, 2, 2), (2, 1, None), (4, None, None)],
)
def test_run_claim_clamps_workers(monkeypatch, jobs, cpus, workers):
    # each worker is replaced by one that runs its batch in-process, so no
    # process starts; 8 tasks cap the pool at 8
    started = []

    class InProcessWorker:
        def __init__(self):
            started.append(self)

        def send(self, fn, *args):
            self.value = fn(*args)

        def result(self):
            return self.value

        def close(self):
            pass

    monkeypatch.setattr(cl, "_Worker", InProcessWorker)
    monkeypatch.setattr(cl.os, "cpu_count", lambda: cpus)
    run = lambda j: cl.format_reports(cl.run_claim("lemma-wmc", 3, systems=("finite",), jobs=j))
    pooled = run(jobs)
    assert len(started) == (workers or 0)
    assert cl._workers == started
    assert pooled == run(1)


# claims over labeled n <= 3 and up to iso n <= 4; thm-local-wmc has failures
SEQUENCE = (
    ("thm-local-wmc", 4, "up_to_iso"),
    ("lemma-uu-eq", 3, "labeled"),
    ("prop-beneath", 4, "up_to_iso"),
    ("thm-s4-equiv", 3, "labeled"),
    ("thm-local-wmc", 3, "labeled"),
)


def _sequence_reports(jobs):
    return [
        cl.format_reports(cl.run_claim(claim_id, size, mode=mode, jobs=jobs))
        for claim_id, size, mode in SEQUENCE
    ]


def _worker_pids():
    return [w.process.pid for w in cl._workers]


def _live_pids():
    return {p.pid for p in multiprocessing.active_children()}


def test_pooled_sequence_matches_in_process(monkeypatch):
    monkeypatch.setattr(cl.os, "cpu_count", lambda: 2)
    pooled = _sequence_reports(2)
    assert len(cl._workers) == 2
    assert any("WITNESS" in text for text in pooled)
    assert pooled == _sequence_reports(1)


def test_workers_live_for_the_process(monkeypatch):
    monkeypatch.setattr(cl.os, "cpu_count", lambda: 4)
    run = lambda jobs: cl.run_claim("lemma-wmc", 3, mode="labeled", jobs=jobs)
    run(2)
    first = _worker_pids()
    assert len(first) == 2 and set(first) <= _live_pids()
    run(2)
    run(1)  # in process: the pool is left as it is
    assert _worker_pids() == first
    run(3)
    second = _worker_pids()
    assert len(second) == 3 and set(second) <= _live_pids()
    assert not set(first) & _live_pids()
    cl.close_workers()
    assert cl._workers == [] and not set(second) & _live_pids()


def test_a_short_call_starts_no_pool(monkeypatch):
    # the conftest pools from the first cell; here a call must run 60 s first
    monkeypatch.setattr(cl.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cl, "POOL_AFTER_S", 60)
    run = lambda jobs: cl.format_reports(cl.run_claim("thm-local-wmc", 4, mode="labeled", jobs=jobs))
    short = run(2)
    assert cl._workers == []
    assert "WITNESS" in short and short == run(1)


def test_a_long_call_pools_the_cells_left(monkeypatch):
    # each reading of the clock advances it by one: the cells evaluated
    # before it reads POOL_AFTER_S = 5 are the first four, all in process
    monkeypatch.setattr(cl.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cl, "POOL_AFTER_S", 5)
    monkeypatch.setattr(cl, "_clock", itertools.count().__next__)
    in_process = []
    guarded = cl._guarded
    monkeypatch.setattr(cl, "_guarded", lambda f, *args: in_process.append(args) or guarded(f, *args))
    run = lambda jobs: cl.format_reports(cl.run_claim("thm-local-wmc", 4, systems=("chains",), jobs=jobs))
    pooled = run(2)
    first_four = ps.population(1) + ps.population(2) + ps.population(3)[:1]
    assert [P for P, _ in in_process] == list(first_four)
    assert len(cl._workers) == 2
    assert pooled == run(1)


def _instance_cache_misses():
    return {
        name: cache.cache_info().misses
        for name, cache in zdt_caches().items()
        if name in INSTANCE_CACHES
    }


def _misses_per_worker():
    misses = []
    for w in cl._workers:
        w.send(_instance_cache_misses)
        misses.append(w.result())
    return misses


def test_workers_keep_their_instance_tables(monkeypatch):
    # thm-s4-equiv builds the tables that prop-up-cont reads on the same
    # instances, so the second claim finds every one of them in its worker;
    # its cells sit at other positions, but each instance keeps its worker;
    # the workers fork from cleared caches, so they inherit no tables
    monkeypatch.setattr(cl.os, "cpu_count", lambda: 2)
    clear_zdt_caches()
    cl.run_claim("thm-s4-equiv", 5, jobs=2)
    before = _misses_per_worker()
    assert all(m["topology.is_lower_hereditary"] > 100 for m in before)
    cl.run_claim("prop-up-cont", 5, systems=("finite", "chains"), jobs=2)
    assert _misses_per_worker() == before


def test_population_mismatch_raises_and_renews_the_pool(monkeypatch):
    monkeypatch.setattr(cl.os, "cpu_count", lambda: 2)
    run = lambda: cl.format_reports(cl.run_claim("lemma-wmc", 3, mode="labeled", jobs=2))
    expected = run()
    first = _worker_pids()
    population = ps.population
    with monkeypatch.context() as patch:
        # the caller's populations, not the workers', are read backwards
        patch.setattr(ps, "population", lambda n, mode="up_to_iso": population(n, mode)[::-1])
        with pytest.raises(RuntimeError, match="population differs"):
            run()
    assert cl._workers == [] and not set(first) & _live_pids()
    assert run() == expected
    assert len(cl._workers) == 2 and not set(_worker_pids()) & set(first)


@pytest.mark.parametrize("jobs", [0, -1])
def test_run_claim_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs"):
        cl.run_claim("lemma-wmc", 2, jobs=jobs)


def test_witness_cap_and_exact_counts():
    reports = cl.run_claim("thm-local-wmc", 5, systems=("finite",))
    total_fails = sum(r.fails for r in reports)
    assert total_fails == 39
    assert max(r.fails for r in reports) > WITNESS_CAP
    for r in reports:
        assert len(r.witnesses) == min(r.fails, WITNESS_CAP)
        assert r.holds + r.fails + r.inapplicable == r.total


def test_scope_restriction_and_override():
    # singletons are outside the main theorem's default scope but can be
    # forced explicitly, in which case the missing hypotheses show up as
    # real counterexamples
    assert "singletons" not in cl.get_claim("thm-main-s3").systems
    reports = cl.run_claim("thm-main-s3", 2, systems=("singletons",))
    assert sum(r.fails for r in reports) > 0


def test_mixed_scope_runs_every_given_system_in_order():
    # an out-of-scope system given next to an in-scope one runs as well
    reports = cl.run_claim("thm-main-s3", 2, systems=("singletons", "finite"))
    assert [r.population for r in reports] == [
        "singletons n=1", "singletons n=2", "finite n=1", "finite n=2",
    ]
    assert sum(r.fails for r in reports[:2]) > 0
    assert all(r.ok for r in reports[2:])


def test_run_claim_rejects_unknown_system_before_enumerating(monkeypatch):
    def enumerate_posets(*args, **kwargs):
        raise AssertionError("enumerated posets for an invalid request")

    monkeypatch.setattr(cl.ps, "enumerate_posets", enumerate_posets)
    with pytest.raises(ValueError, match="unknown system 'nonsense'"):
        cl.run_claim("lemma-wmc", 2, systems=("finite", "nonsense"))


@pytest.mark.parametrize("max_size, min_size", [(0, 1), (-1, 1)])
def test_run_claim_rejects_max_size_below_min_size(max_size, min_size):
    # every run starts at min_size 1
    with pytest.raises(ValueError, match=f"max_size {max_size} is below {min_size}"):
        cl.run_claim("lemma-wmc", max_size)


@pytest.mark.parametrize("max_size", [ps.ENUM_CAP + 1, 9])
def test_run_claim_rejects_max_size_above_cap_before_enumerating(monkeypatch, max_size):
    # the error names the size asked for, not the first size over the cap
    def enumerate_posets(*args, **kwargs):
        raise AssertionError("enumerated posets for an invalid request")

    monkeypatch.setattr(cl.ps, "enumerate_posets", enumerate_posets)
    with pytest.raises(SizeCapError) as exc:
        cl.run_claim("lemma-wmc", max_size)
    error = exc.value
    assert (error.what, error.size, error.cap) == ("run_claim", max_size, ps.ENUM_CAP)


# -- recorded findings ----------------------------------------------------


def test_finding_local_wmc_gap_on_the_three_antichain():
    """The locally-weakly-meet equivalence breaks when a member has no
    upper bounds at all: the discrete 3-poset is lower hereditary and
    locally weakly meet, yet not weakly meet."""
    P = fx.antichain(3)
    assert tp.is_lower_hereditary(P, FINITE)
    assert ct.is_locally_weakly_meet(P, FINITE)
    assert not ct.is_weakly_meet(P, FINITE)
    d = P.mask_of(["b", "c"])
    assert ps.upper_bounds(P, d) == 0
    assert ps.cut(P, d) == P.full
    res = cl.get_claim("thm-local-wmc").evaluate(P, FINITE)
    assert res.status is Status.FAILS


def test_finding_up_cont_gap():
    """Same root cause for the principal-ideal-to-global direction: a 2-chain
    plus an isolated point has continuous principal ideals and member
    waybelow sets, yet the whole poset is not continuous."""
    P = ps.from_order_pairs(["a", "b", "c"], [("c", "a")])
    res = cl.get_claim("prop-up-cont").evaluate(P, FINITE)
    assert res.status is Status.FAILS
    res = cl.get_claim("thm-s4-equiv").evaluate(P, FINITE)
    assert res.status is Status.FAILS


def test_repaired_hypothesis_restores_all_three():
    """Restricting to posets whose members all have filtered upper-bound sets
    (which are then nonempty) removes every counterexample through n = 4."""
    for P in (p for n in (1, 2, 3, 4) for p in ps.enumerate_posets(n)):
        for system in SYSTEMS.values():
            if not tp.lh_conditions(P, system)["5"]:
                continue
            for claim_id in ("thm-local-wmc", "prop-up-cont", "thm-s4-equiv"):
                res = cl.get_claim(claim_id).evaluate(P, system)
                assert res.status is not Status.FAILS, (P, system.name, claim_id)


def test_chains_half_of_the_local_theorem_is_clean():
    reports = cl.run_claim("thm-local-wmc", 4, systems=("chains",))
    assert all(r.ok for r in reports)


def test_interior_and_lifting_lemmas_full_depth():
    reports = cl.run_claim("lemma-int", 5, systems=("finite",))
    reports += cl.run_claim("lemma-uu-eq", 5, systems=("finite",))
    assert all(r.ok for r in reports)


def test_compacts_of_zcpos_full_depth():
    reports = cl.run_claim("lemma-kz-zcpo", 5, systems=("finite", "directed"))
    assert all(r.ok for r in reports)


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_compacts_lemma_against_member_loop_oracle(n, monkeypatch):
    evaluate = cl.get_claim("lemma-kz-zcpo").evaluate

    def expected(P, name, K):
        if oracles.zcpo_failure(P, name) is not None:
            return "inapplicable", {"reason": "not a zcpo"}
        failure = oracles.compact_sup_failure(P, name, K)
        if failure is None:
            return "holds", None
        S, reason = failure
        return "fails", {"member": P.names(oracles.to_mask(S)), "reason": reason}

    for P in ps.enumerate_posets(n):
        for name, system in SYSTEMS.items():
            ben = oracles.beneath_pairs(P, name)
            K = frozenset(x for x in range(P.n) if (x, x) in ben)
            res = evaluate(P, system)
            assert (res.status.value, res.witness) == expected(P, name, K), (P, name)
    # the lemma holds on every poset, so swap the compacts for every nonempty
    # subset to reach both failure witnesses
    reasons = set()
    for P in ps.enumerate_posets(n):
        for K in range(1, P.full + 1):
            monkeypatch.setattr(ct, "kz_compacts", lambda P, system: K)
            for name, system in SYSTEMS.items():
                res = evaluate(P, system)
                want = expected(P, name, oracles.to_set(K))
                assert (res.status.value, res.witness) == want, (P, name, K)
                if want[0] == "fails":
                    reasons.add(want[1]["reason"])
    assert ("no sup" in reasons, "sup disagrees with ambient sup" in reasons) == (
        n >= 3,
        n >= 4,
    )


GAMMA_WMC_N5 = [
    "CLAIM prop-gamma-wmc directed n=5 holds=62 fails=0 inapplicable=1",
    "CLAIM prop-gamma-wmc connected n=5 holds=62 fails=0 inapplicable=1",
]


def test_gamma_lattice_weak_meet_transfer_n5_counts():
    # recorded with the member-loop checkers, which spent minutes on the
    # 24-element Γ-lattices that checking member ideals decides at once
    reports = cl.run_claim("prop-gamma-wmc", 5, systems=("directed", "connected"))
    lines = [r.summary_line() for r in reports if r.population.endswith("n=5")]
    assert lines == GAMMA_WMC_N5


def test_gamma_lattice_weak_meet_transfer_small():
    reports = cl.run_claim("prop-gamma-wmc", 3)
    assert all(r.ok for r in reports)


@pytest.mark.slow
def test_gamma_lattice_weak_meet_transfer_n4():
    reports = cl.run_claim("prop-gamma-wmc", 4)
    assert all(r.ok for r in reports)


@pytest.mark.slow
def test_map_continuity_lemma_exhaustive_n4():
    posets = [P for n in (1, 2, 3, 4) for P in ps.enumerate_posets(n)]
    for system in SYSTEMS.values():
        for P in posets:
            member_cuts = ct._member_cut_pairs(P, system)
            for Q in posets:
                continuous = tp.sigma_z_continuity(P, Q, system)
                cuts_q = [ps.cut(Q, m) for m in range(1 << Q.n)]
                for f in ps.monotone_tables(P, Q):
                    images = tp.subset_images(f)
                    assert continuous(f) == tp.preserves_hulls(images, member_cuts, cuts_q)


def test_format_reports_round_trip(tmp_path):
    from zdt import cli, io as zio

    reports = cl.run_claim("thm-local-wmc", 3, systems=("finite",))
    text = cl.format_reports(reports)
    assert "CLAIM thm-local-wmc finite n=3" in text
    # the emitted witness poset reproduces its failure through the CLI
    witness_poset = None
    for r in reports:
        if r.witnesses:
            witness_poset = r.witnesses[0][0]
            break
    assert witness_poset is not None
    path = tmp_path / "w.poset"
    path.write_text(zio.format_poset_text(witness_poset, "w"))
    assert (
        cli.main(
            ["check", "--poset", str(path), "--system", "finite", "--property", "weakly-meet"]
        )
        == 1
    )
    assert (
        cli.main(
            [
                "check",
                "--poset",
                str(path),
                "--system",
                "finite",
                "--property",
                "locally-weakly-meet",
            ]
        )
        == 0
    )


# lemma-sigma-cont reads function tables; the object loop it replaced is
# oracles.sigma_cont_lemma, and each failure branch is reached by patching the
# closed family of one poset.


@pytest.mark.parametrize("n", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_sigma_cont_lemma_against_the_object_loop(n):
    for P in ps.enumerate_posets(n):
        for system in SYSTEMS.values():
            want = oracles.sigma_cont_lemma(P, system, cl._inner_posets())
            assert cl._eval_lemma_sigma_cont(P, system) == want, (P, system.name)


def _chain2():
    return next(Q for Q in ps.enumerate_posets(2) if Q.up == (1, 3))


def _sigma_cont_both_ways(P, system):
    res = cl._eval_lemma_sigma_cont(P, system)
    assert res == oracles.sigma_cont_lemma(P, system, cl._inner_posets())
    return res.witness


def test_sigma_cont_lemma_continuity_branch(monkeypatch):
    # the bottom {b} of the 2-chain b < a declared not closed: the identity
    # on it, the first map with {b} as a preimage, is discontinuous while it
    # still preserves cuts
    chain2 = _chain2()
    real = tp.TopologyFamily.is_closed
    monkeypatch.setattr(
        tp.TopologyFamily,
        "is_closed",
        lambda fam, mask: (fam.base != chain2 or mask != 2) and real(fam, mask),
    )
    assert _sigma_cont_both_ways(chain2, FINITE) == {
        "cod": repr(chain2), "table": (0, 1), "continuous": False, "preserves_cuts": True
    }


def test_sigma_cont_lemma_closure_branch(patch_closure):
    # the top {a} of the 2-chain closes to the empty set: the constant map
    # from the 2-antichain onto a sends the closure of {a, b} outside it
    chain2 = _chain2()
    anti2 = next(Q for Q in ps.enumerate_posets(2) if Q.up == (1, 2))
    patch_closure(chain2, {1: 0})
    assert _sigma_cont_both_ways(anti2, FINITE) == {
        "cod": repr(chain2), "table": (0, 0), "reason": "closure image escapes"
    }
