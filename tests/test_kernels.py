"""Kernel enumeration and canonical forms against the independent oracle."""

import random

import pytest

import oracles
from zdt import kernels
from zdt import poset as ps

LABELED_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}
UP_TO_SIZE_5 = [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_labeled_counts(n):
    assert len(kernels.enumerate_labeled_orders(n)) == LABELED_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_labeled_counts_against_relation_filter(n):
    assert len(oracles.labeled_orders(n)) == LABELED_COUNTS[n]


@pytest.mark.slow
def test_labeled_count_n5_against_relation_filter():
    assert len(oracles.labeled_orders(5)) == 4231


@pytest.mark.parametrize("n", UP_TO_SIZE_5)
def test_labeled_orders_match_relation_filter(n):
    assert kernels.enumerate_labeled_orders(n) == sorted(oracles.labeled_orders(n))


@pytest.mark.slow
def test_labeled_count_n6():
    assert len(kernels.enumerate_labeled_orders(6)) == 130023


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_iso_counts(n):
    assert ps.count_posets(n) == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}[n]


@pytest.mark.slow
def test_iso_count_n6():
    assert ps.count_posets(6) == 318


@pytest.mark.parametrize("n", UP_TO_SIZE_5)
def test_iso_representatives_match_canonicalized_relation_filter(n):
    keys = {kernels.canonical_key(n, rows) for rows in oracles.labeled_orders(n)}
    assert [P.up for P in ps._iso_representatives(n)] == sorted(keys)


@pytest.mark.parametrize("n", UP_TO_SIZE_5)
def test_canonical_key_matches_minimum_over_all_relabelings(n):
    for rows in oracles.labeled_orders(n):
        assert kernels.canonical_key(n, rows) == oracles.canonical_key(n, rows)


def test_canonical_key_matches_minimum_over_all_relabelings_on_a_sample_n6():
    rng = random.Random(6)
    orders = oracles.random_orders(rng, 6, 300)
    assert len({kernels.canonical_key(6, rows) for rows in orders}) > 100
    for rows in orders:
        assert kernels.canonical_key(6, rows) == oracles.canonical_key(6, rows)


def test_canonical_is_permutation_invariant():
    rng = random.Random(5)
    samples = [(4, rng.sample(kernels.enumerate_labeled_orders(4), 60))]
    samples += [(n, oracles.random_orders(rng, n, 60)) for n in (5, 6)]
    for n, orders in samples:
        for up in orders:
            perm = list(range(n))
            rng.shuffle(perm)
            assert kernels.canonical_key(n, up) == kernels.canonical_key(
                n, oracles.relabel(up, perm)
            )


def test_iso_class_count_n7():
    # OEIS A000112; grown one point at a time past ENUM_CAP
    assert len(kernels.iso_class_keys(7)) == 2045


def test_directed_members_match_pairwise_definition():
    for P in (p for n in (1, 2, 3, 4) for p in ps.enumerate_posets(n, "labeled")):
        from_filter = [
            m
            for m in range(1, P.full + 1)
            if kernels.z_contains(kernels.SYS_DIRECTED, P.n, P.up, P.down, m)
        ]
        assert list(
            kernels.z_member_masks(kernels.SYS_DIRECTED, P.n, P.up, P.down)
        ) == from_filter
