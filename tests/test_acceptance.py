"""The acceptance suite: eleven criteria, one printed pass/fail line each.

Every criterion runs at its stated population and tolerance (exact: zero
violations).  Criterion 6 is expected to surface the recorded finding about
the locally-weakly-meet equivalence for the finite system; it asserts the
stated requirement regardless, so a failure there is a reproducible report,
not a flake.
"""

from zdt import claims as cl, continuity as ct, poset as ps, systems as zs
from zdt import topology as tp
from zdt.fixtures import ladder, run_fixture_suite


def _line(num, ok, text):
    print(f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def test_criterion_01_core_operator_oracle_suite():
    violations = 0
    for n in range(1, 6):
        for P in ps.enumerate_posets(n, "labeled"):
            full = P.full
            cuts = [ps.cut(P, e) for e in range(full + 1)]
            for e in range(full + 1):
                ce = cuts[e]
                if e & ~ce:
                    violations += 1  # extensive
                if cuts[ce] != ce:
                    violations += 1  # idempotent
                s = ps.sup_of(P, e)
                if s is not None and ce != P.down[s]:
                    violations += 1  # principal-of-sup law
                if ps.relative_cut(P, e, full) != ce:
                    violations += 1  # relative cut over the full carrier
            for f in range(full + 1):
                e = f
                while True:  # all submasks: monotonicity
                    if cuts[e] & ~cuts[f]:
                        violations += 1
                    if e == 0:
                        break
                    e = (e - 1) & f
    assert _line(1, violations == 0, f"core operator laws, labeled n<=5 ({violations} violations)")


def test_criterion_02_system_axioms():
    bad = []
    for name in sorted(zs.SYSTEMS):
        report = zs.check_system_axioms(zs.SYSTEMS[name])
        if not report.ok:
            bad.append(name)
    assert _line(2, not bad, f"subset-system axioms at bound 3 (violations: {bad or 'none'})")


def test_criterion_03_weakly_meet_characterization():
    reports = cl.run_claim(
        "lemma-wmc", 5, systems=("finite", "directed", "chains", "connected")
    )
    fails = sum(r.fails for r in reports)
    assert _line(3, fails == 0, f"weak-meet characterization n<=5 ({fails} counterexamples)")


def test_criterion_04_main_equivalence_finite():
    reports = cl.run_claim("thm-main-s3", 5, systems=("finite",))
    fails = sum(r.fails for r in reports)
    assert _line(4, fails == 0, f"main equivalence, finite system n<=5 ({fails} counterexamples)")


def test_criterion_05_lower_hereditary_lemma():
    reports = cl.run_claim("lemma-lh", 5, systems=("finite", "chains"))
    fails = sum(r.fails for r in reports)
    conds = tp.lh_conditions(ladder(3, 2), zs.FINITE)
    fixture_ok = conds["3"] and not conds["5"]
    ok = fails == 0 and fixture_ok
    assert _line(
        5,
        ok,
        f"hereditariness implication pattern n<=5 ({fails} counterexamples; "
        f"ladder fixture separation {'shown' if fixture_ok else 'missing'})",
    )


def test_criterion_06_locally_weakly_meet_theorem():
    reports = cl.run_claim("thm-local-wmc", 5, systems=("finite", "chains"))
    fails = sum(r.fails for r in reports)
    assert _line(
        6,
        fails == 0,
        f"local weak-meet equivalence n<=5, finite+chains ({fails} counterexamples)",
    )


def test_criterion_07_beneath_compact_suite():
    fails = 0
    fails += sum(r.fails for r in cl.run_claim("prop-beneath", 5))
    fails += sum(r.fails for r in cl.run_claim("prop-union-sup", 4))
    fails += sum(r.fails for r in cl.run_claim("gamma-prealgebraic", 4))
    assert _line(7, fails == 0, f"beneath/compact suite ({fails} violations)")


def test_criterion_08_galois_suite():
    fails = 0
    for claim_id in ("lemma-galois-cut", "lemma-galois-closed", "lemma-galois-beneath"):
        fails += sum(r.fails for r in cl.run_claim(claim_id, 3))
    assert _line(8, fails == 0, f"adjoint-pair suite n<=3, all systems ({fails} violations)")


def test_criterion_09_monad_em_suite():
    fails = 0
    for claim_id in ("thm-adjunction", "thm-monad", "thm-em", "prop-em-morph"):
        fails += sum(
            r.fails for r in cl.run_claim(claim_id, 4, systems=("directed",))
        )
    assert _line(9, fails == 0, f"adjunction/monad/EM suite n<=4 directed ({fails} violations)")


def test_criterion_10_degenerate_controls():
    fails = sum(r.fails for r in cl.run_claim("ctrl-directed", 5))
    fails += sum(r.fails for r in cl.run_claim("ctrl-finite", 5))
    assert _line(10, fails == 0, f"degenerate controls n<=5 ({fails} violations)")


DETERMINISM_CELLS = (
    ("lemma-wmc", 5, ("finite", "directed", "chains", "connected")),
    ("thm-main-s3", 5, ("finite",)),
    ("lemma-lh", 5, ("finite", "chains")),
    ("thm-local-wmc", 5, ("finite", "chains")),
    ("prop-beneath", 5, None),
    ("prop-union-sup", 4, None),
    ("gamma-prealgebraic", 4, None),
    ("lemma-galois-cut", 3, None),
    ("lemma-galois-closed", 3, None),
    ("lemma-galois-beneath", 3, None),
    ("thm-adjunction", 4, ("directed",)),
    ("thm-monad", 4, ("directed",)),
    ("thm-em", 4, ("directed",)),
    ("prop-em-morph", 4, ("directed",)),
)


def test_criterion_11_determinism_across_jobs():
    mismatched = []
    for claim_id, size, systems in DETERMINISM_CELLS:
        solo = cl.format_reports(
            cl.run_claim(claim_id, size, systems=systems, jobs=1)
        )
        many = cl.format_reports(
            cl.run_claim(claim_id, size, systems=systems, jobs=8)
        )
        if solo != many:
            mismatched.append(claim_id)
    assert _line(
        11, not mismatched, f"reports identical for jobs 1 vs 8 (mismatched: {mismatched or 'none'})"
    )


def test_fixture_suite_is_green():
    reports = run_fixture_suite()
    assert all(r.ok for r in reports)
