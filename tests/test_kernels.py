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


def test_canonical_is_permutation_invariant():
    rng = random.Random(5)
    orders = kernels.enumerate_labeled_orders(4)
    for up in rng.sample(orders, 60):
        n = 4
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [0] * n
        for i in range(n):
            acc = 0
            r = up[i]
            while r:
                l = r & -r
                r ^= l
                acc |= 1 << perm[l.bit_length() - 1]
            relabeled[perm[i]] = acc
        assert kernels.canonical_key(n, up) == kernels.canonical_key(
            n, tuple(relabeled)
        )


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
