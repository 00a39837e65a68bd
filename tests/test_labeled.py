"""Labeled populations counted by orbit weight: each class stands for
n!/|Aut P| labeled orders, and the reports equal those of a walk that
evaluates every labeled order itself."""

import dataclasses
from math import factorial

import pytest

import oracles
from zdt import claims as cl, kernels, poset as ps
from zdt.errors import LabelDependenceError
from zdt.reports import CheckResult, ClaimReport

# OEIS A001035 and A000112: labeled orders and classes on n points
LABELED = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231, 6: 130023}
CLASSES = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}


def _depth(claim):
    return 3 if claim.id == "thm-adjunction" else min(claim.max_size, 4)


@pytest.mark.parametrize("claim_id", [c.id for c in cl.registry()])
def test_labeled_reports_match_the_per_order_walk(claim_id):
    # metamorphic: a checker that reads labels where it should read the order
    # relation makes some labeled order disagree with its class
    depth = _depth(cl.get_claim(claim_id))
    expected = cl.format_reports(oracles.labeled_reports(claim_id, depth))
    assert cl.format_reports(cl.run_claim(claim_id, depth, mode="labeled")) == expected


@pytest.mark.slow
def test_adjunction_labeled_n4_matches_the_per_order_walk():
    expected = cl.format_reports(oracles.labeled_reports("thm-adjunction", 4))
    assert cl.format_reports(cl.run_claim("thm-adjunction", 4, mode="labeled")) == expected


def test_pooled_labeled_reports_match_the_per_order_walk(monkeypatch):
    monkeypatch.setattr(cl.os, "cpu_count", lambda: 2)
    expected = cl.format_reports(oracles.labeled_reports("thm-local-wmc", 4))
    assert expected.count("WITNESS") >= 10
    pooled = cl.format_reports(cl.run_claim("thm-local-wmc", 4, mode="labeled", jobs=2))
    assert len(cl._workers) == 2
    assert pooled == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_class_sizes_sum_to_the_labeled_count(n):
    rows, classes, sizes = ps.labeled_orbits(n)
    assert len(sizes) == ps.count_posets(n) == CLASSES[n]
    assert sum(sizes) == len(rows) == len(classes) == LABELED[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_sizes_are_orbit_sizes(n):
    for P, size in zip(ps.population(n), ps.labeled_orbits(n)[2]):
        assert size == factorial(n) // oracles.automorphism_count(n, P.up), P


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_labeled_classes_agree_with_canonical_keys(n):
    _, classes, _ = ps.labeled_orbits(n)
    reps = ps.population(n)
    for P, c in zip(ps.population(n, "labeled"), classes):
        assert kernels.canonical_key(n, P.up) == reps[c].up


def test_labeled_orbits_list_each_order_once():
    orbits = kernels.labeled_orbits([P.up for P in ps.population(4)])
    assert [rows for rows, _ in orbits] == kernels.enumerate_labeled_orders(4)
    assert {c for _, c in orbits} == set(range(CLASSES[4]))


def test_record_counts_many_instances_with_one_witness():
    report = ClaimReport("c", "p")
    report.record(CheckResult.fails(x=1), "P", count=3)
    report.record(CheckResult.holds(), count=4)
    report.record(CheckResult.inapplicable(), count=5)
    assert (report.holds, report.fails, report.inapplicable) == (4, 3, 5)
    assert report.witnesses == [("P", {"x": 1})]


def _reads_labels(P, system):
    # fails exactly when element 0 is maximal, as it is in every class
    # representative, so the classes fail and some labeled orders do not
    return CheckResult.fails() if P.up[0] == 1 else CheckResult.holds()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_checker_that_reads_labels_is_caught(monkeypatch, jobs):
    monkeypatch.setattr(cl.os, "cpu_count", lambda: 2)
    claims = [
        dataclasses.replace(c, evaluate=_reads_labels) if c.id == "lemma-wmc" else c
        for c in cl._CLAIMS
    ]
    monkeypatch.setattr(cl, "_CLAIMS", claims)
    assert all(P.up[0] == 1 for n in (1, 2, 3) for P in ps.population(n))
    with pytest.raises(LabelDependenceError, match=r"lemma-wmc on chains: .*\[a<b\]\) holds"):
        cl.run_claim("lemma-wmc", 3, mode="labeled", systems=("chains",), jobs=jobs)
    # up to iso, the same checker gives counts: every class fails
    reports = cl.run_claim("lemma-wmc", 3, systems=("chains",), jobs=jobs)
    assert [r.fails for r in reports] == [1, 2, 5]
