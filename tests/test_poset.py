"""Core order operators against hand values and the frozenset oracle."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from zdt import fixtures as fx, monad as md, poset as ps
from zdt.errors import (
    AntisymmetryError,
    DuplicateLabelError,
    EmptyInputError,
    NotASubsetError,
    NotMonotoneError,
    SizeCapError,
    UnknownLabelError,
)
from zdt.systems import CHAINS, DIRECTED


def test_bits_against_the_oracle():
    # a memo: each mask's tuple is built once and then shared
    for m in range(1 << 10):
        got = ps.bits(m)
        assert type(got) is tuple and got == tuple(sorted(oracles.to_set(m)))
        assert ps.bits(m) is got


def test_from_order_pairs_closes_transitively(chain3):
    assert chain3.leq(0, 2)
    assert not chain3.leq(2, 0)


def test_from_order_pairs_discrete(anti2):
    assert anti2.up == (0b01, 0b10)


def test_from_order_pairs_cycle_rejected():
    with pytest.raises(AntisymmetryError):
        ps.from_order_pairs(["a", "b"], [("a", "b"), ("b", "a")])


def test_from_order_pairs_bad_labels():
    with pytest.raises(DuplicateLabelError):
        ps.from_order_pairs(["a", "a"], [])
    with pytest.raises(UnknownLabelError):
        ps.from_order_pairs(["a", "b"], [("a", "z")])


def test_up_down_sets(chain3, vee):
    assert chain3.names(ps.up_set(chain3, chain3.mask_of(["b"]))) == ("b", "c")
    assert vee.names(ps.down_set(vee, vee.mask_of(["c"]))) == ("a", "b", "c")
    assert ps.up_set(chain3, 0) == 0


def test_bounds(vee, anti2):
    assert vee.names(ps.upper_bounds(vee, vee.mask_of(["a", "b"]))) == ("c",)
    assert ps.upper_bounds(anti2, anti2.full) == 0
    assert ps.upper_bounds(anti2, 0) == anti2.full


def test_cut_examples(chain3, anti2, twin):
    assert chain3.names(ps.cut(chain3, chain3.mask_of(["a", "b"]))) == ("a", "b")
    assert ps.cut(anti2, anti2.full) == anti2.full
    assert twin.names(ps.cut(twin, twin.mask_of(["a", "b"]))) == ("a", "b")


def test_relative_cut(chain3):
    e = chain3.mask_of(["a"])
    a = chain3.mask_of(["a", "b"])
    assert ps.relative_cut(chain3, e, a) == e
    with pytest.raises(NotASubsetError):
        ps.relative_cut(chain3, chain3.full, a)


def test_relative_cut_whole_carrier_matches_cut():
    for P in (p for n in (1, 2, 3, 4) for p in ps.enumerate_posets(n, "labeled")):
        for e in range(P.full + 1):
            assert ps.relative_cut(P, e, P.full) == ps.cut(P, e)


def test_sup_inf(diamond, twin, wedge):
    assert diamond.labels[ps.sup_of(diamond, diamond.mask_of(["a", "b"]))] == "t"
    assert ps.sup_of(twin, twin.mask_of(["a", "b"])) is None
    assert wedge.labels[ps.sup_of(wedge, 0)] == "o"
    assert diamond.labels[ps.inf_of(diamond, diamond.mask_of(["a", "b"]))] == "o"


def test_min_of_upset(chain3, anti2, vee):
    assert chain3.names(ps.min_of_upset(chain3, chain3.mask_of(["a", "b"]))) == ("a",)
    assert ps.min_of_upset(anti2, anti2.full) == anti2.full
    assert vee.names(ps.min_of_upset(vee, vee.mask_of(["a", "c"]))) == ("a",)
    with pytest.raises(EmptyInputError):
        ps.min_of_upset(chain3, 0)


def test_min_generates_same_filter():
    for P in (p for n in (1, 2, 3, 4) for p in ps.enumerate_posets(n)):
        for f in range(1, P.full + 1):
            assert ps.up_set(P, ps.min_of_upset(P, f)) == ps.up_set(P, f)


def test_dual_restrict(diamond):
    sub = ps.restrict(diamond, diamond.mask_of(["o", "a", "t"]))
    assert oracles.canonical_form(sub.poset) == oracles.canonical_form(fx.chain(3))


def test_restrict_to_empty_carrier(chain3):
    sub = ps.restrict(chain3, 0)
    assert sub.poset.n == 0
    assert sub.to_parent(0) == 0 and sub.to_sub(chain3.full) == 0


def test_subposet_embedding_is_order_embedding(diamond):
    sub = ps.restrict(diamond, diamond.mask_of(["a", "b", "t"]))
    for x in range(sub.poset.n):
        for y in range(sub.poset.n):
            assert sub.poset.leq(x, y) == diamond.leq(sub.embed[x], sub.embed[y])


def test_fin_poset(anti2, chain3):
    fp = ps.fin_poset(anti2)
    assert [anti2.names(s) for s in fp.sets] == [("a",), ("b",), ("a", "b")]
    bottom = [i for i in range(3) if ps.least_of(fp.poset, fp.poset.full) == i]
    assert fp.sets[bottom[0]] == anti2.full  # the largest set is the bottom
    fp3 = ps.fin_poset(chain3)
    assert oracles.canonical_form(fp3.poset) == oracles.canonical_form(fx.chain(3))
    one = ps.from_order_pairs(["x"], [])
    assert ps.fin_poset(one).poset.n == 1
    with pytest.raises(SizeCapError):
        ps.fin_poset(fx.antichain(ps.FINP_CAP + 1))


def test_fin_poset_order_is_reverse_inclusion():
    for P in (p for n in (1, 2, 3, 4) for p in ps.enumerate_posets(n)):
        fp = ps.fin_poset(P)
        for i, a in enumerate(fp.sets):
            for j, b in enumerate(fp.sets):
                assert fp.poset.leq(i, j) == (b & ~a == 0)


def test_is_filtered(chain3):
    assert ps.is_filtered(chain3, chain3.mask_of(["b", "c"]))
    assert not ps.is_filtered(chain3, 0)
    L = fx.ladder(3, 2)
    assert not ps.is_filtered(L, L.mask_of(["l1", "l2", "r1", "r2"]))
    # the computed upper-bound set of the bottom chain includes its own top
    # and is therefore filtered, unlike the two bare branches
    bottom = L.mask_of(["c1", "c2", "c3"])
    ub = ps.upper_bounds(L, bottom)
    assert L.names(ub) == ("c3", "l1", "l2", "r1", "r2")
    assert ps.is_filtered(L, ub)


def test_enumerate_posets_modes():
    labeled2 = list(ps.enumerate_posets(2, "labeled"))
    assert len(labeled2) == 3
    iso2 = list(ps.enumerate_posets(2))
    assert len(iso2) == 2
    with pytest.raises(SizeCapError):
        list(ps.enumerate_posets(9))
    with pytest.raises(SizeCapError):
        list(ps.enumerate_posets(0))


def test_enumerate_monotone_maps(chain3, anti2):
    two = fx.chain(2)
    assert sum(1 for _ in oracles.enumerate_monotone_maps(chain3, chain3)) == 10
    assert sum(1 for _ in oracles.enumerate_monotone_maps(anti2, two)) == 4
    assert sum(1 for _ in oracles.enumerate_monotone_maps(two, anti2)) == 2


def test_enumerate_monotone_maps_against_oracle():
    posets = [p for n in (1, 2, 3) for p in ps.enumerate_posets(n)]
    for P in posets:
        for Q in posets:
            got = list(oracles.enumerate_monotone_maps(P, Q))
            assert len(got) == oracles.monotone_map_count(P, Q)
            assert len({m.table for m in got}) == len(got)
            assert got == sorted(got, key=lambda m: m.table)


def test_monotone_tables_against_backtracking_oracle():
    # the same tables in the same lexicographic order, as maps and as tuples
    posets = [p for n in (1, 2, 3) for p in ps.enumerate_posets(n)]
    for P in posets:
        for Q in posets:
            want = list(oracles.monotone_tables(P, Q, {}))
            assert list(ps.monotone_tables(P, Q)) == want, (P, Q)
            assert [m.table for m in oracles.enumerate_monotone_maps(P, Q)] == want


def test_map_tables_are_the_monotone_tables():
    # one tuple per pair, in the generator's order, for every labeled domain
    # of at most four points and every codomain of at most three
    codomains = [Q for n in (1, 2, 3) for Q in ps.enumerate_posets(n)]
    for P in (p for n in (1, 2, 3, 4) for p in ps.enumerate_posets(n, "labeled")):
        for Q in codomains:
            tables = ps.map_tables(P, Q)
            assert tables == tuple(ps.monotone_tables(P, Q)), (P, Q)
            assert ps.map_tables(P, Q) is tables


def test_monotone_map_validation(chain3, anti2):
    with pytest.raises(NotMonotoneError):
        oracles.MonotoneMap(chain3, fx.chain(2), (1, 0, 1))
    m = oracles.MonotoneMap(chain3, chain3, (0, 0, 1))
    assert m.image(chain3.full) == chain3.mask_of(["a", "b"])
    assert m.preimage(chain3.mask_of(["a"])) == chain3.mask_of(["a", "b"])


def _raised(fn):
    """The message of the ``NotMonotoneError`` that ``fn()`` raises, or None."""
    try:
        fn()
    except NotMonotoneError as err:
        return str(err)
    return None


def test_check_monotone_names_the_constructors_pair():
    # every table, monotone or not, between labeled posets of at most three
    # points: check_monotone raises where the validating constructor does,
    # naming the same pair; some tables break two pairs at one point i, as
    # the 3-chain sent upside down breaks a<=b and a<=c, and the first of
    # those is named
    posets = [P for n in (1, 2, 3) for P in ps.enumerate_posets(n, "labeled")]
    shared_i = 0
    for P in posets:
        covers = ps.covers(P)
        for Q in posets:
            for table in itertools.product(range(Q.n), repeat=P.n):
                want = _raised(lambda: oracles.MonotoneMap(P, Q, table))
                assert _raised(lambda: ps.check_monotone(table, P, Q, covers)) == want
                broken = [
                    i for i in range(P.n) for j in range(P.n)
                    if P.leq(i, j) and not Q.leq(table[i], table[j])
                ]
                shared_i += len(broken) > len(set(broken))
    assert shared_i > 0
    chain3 = fx.chain(3)
    with pytest.raises(NotMonotoneError, match=r"\Aa<=b broken by the table\Z"):
        ps.check_monotone((2, 1, 0), chain3, chain3, ps.covers(chain3))


bounded_posets = st.builds(
    lambda n, picks: ps.from_order_pairs(
        ps.default_labels(n),
        [
            (ps.default_labels(n)[i], ps.default_labels(n)[j])
            for (i, j) in picks
            if i < j < n
        ],
    ),
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
)


@given(bounded_posets, st.integers(0, 31), st.integers(0, 31))
@settings(max_examples=200, deadline=None)
def test_cut_is_a_closure_operator(P, e_bits, f_bits):
    e = e_bits & P.full
    f = f_bits & P.full
    ce = ps.cut(P, e)
    assert e & ~ce == 0
    assert ps.cut(P, ce) == ce
    if e & ~f == 0:
        assert ce & ~ps.cut(P, f) == 0
    assert ce == oracles.to_mask(oracles.cut(P, oracles.to_set(e)))


@given(bounded_posets, st.integers(0, 31))
@settings(max_examples=200, deadline=None)
def test_up_down_are_closure_operators(P, bits):
    a = bits & P.full
    for op in (ps.up_set, ps.down_set):
        v = op(P, a)
        assert a & ~v == 0
        assert op(P, v) == v


@given(bounded_posets, st.integers(0, 31), st.integers(0, 31))
@settings(max_examples=200, deadline=None)
def test_relative_cut_matches_oracle(P, e_bits, a_bits):
    a = a_bits & P.full
    e = e_bits & a
    got = ps.relative_cut(P, e, a)
    want = oracles.to_mask(
        oracles.relative_cut(P, oracles.to_set(e), oracles.to_set(a))
    )
    assert got == want
    assert e & ~got == 0 and got & ~a == 0


def test_cut_equals_principal_of_sup_when_sup_exists():
    for P in (p for n in (1, 2, 3, 4, 5) for p in ps.enumerate_posets(n)):
        for e in range(P.full + 1):
            s = ps.sup_of(P, e)
            if s is not None:
                assert ps.cut(P, e) == P.down[s]


# -- inlined operators against the frozenset oracles ----------------------

SET_OPERATORS = (
    (ps.up_set, oracles.up),
    (ps.down_set, oracles.down),
    (ps.upper_bounds, oracles.upper_bounds),
    (ps.lower_bounds, oracles.lower_bounds),
    (ps.cut, oracles.cut),
)
ELEMENT_OPERATORS = (
    (ps.least_of, oracles.least),
    (ps.greatest_of, oracles.greatest),
    (ps.sup_of, oracles.sup),
    (ps.inf_of, oracles.inf),
)


def _labeled(max_n):
    return (p for n in range(1, max_n + 1) for p in ps.enumerate_posets(n, "labeled"))


def _operators_match_oracles(P):
    """Every operator on every mask A, and relative_cut on every E ⊆ A."""
    for a in range(P.full + 1):
        A = oracles.to_set(a)
        for op, oracle in SET_OPERATORS:
            assert op(P, a) == oracles.to_mask(oracle(P, A)), (op.__name__, P, a)
        for op, oracle in ELEMENT_OPERATORS:
            assert op(P, a) == oracle(P, A), (op.__name__, P, a)
        e = a
        while True:
            want = oracles.relative_cut(P, oracles.to_set(e), A)
            assert ps.relative_cut(P, e, a) == oracles.to_mask(want), (P, e, a)
            if e == 0:
                break
            e = (e - 1) & a


def test_operators_against_oracles_labeled_n4():
    for P in _labeled(4):
        _operators_match_oracles(P)


@pytest.mark.slow
def test_operators_against_oracles_n5():
    for P in ps.enumerate_posets(5):
        _operators_match_oracles(P)


def test_operators_against_oracles_on_gamma_lattices():
    # the operators' widest inputs: Γ-lattices over ten and nine points
    peak = ps.from_order_pairs("abcd", [("d", "a"), ("d", "b")])
    for P, system in ((peak, CHAINS), (fx.fan3(), DIRECTED)):
        L = md.gamma_lattice(P, system).poset
        assert L.n > 8
        _operators_match_oracles(L)


def test_subset_tables_against_oracles_labeled_n4():
    for P in _labeled(4):
        sups, cuts = ps.sup_table(P), ps.cut_table(P)
        assert len(sups) == len(cuts) == 1 << P.n
        for a in range(P.full + 1):
            A = oracles.to_set(a)
            assert sups[a] == oracles.sup(P, A), (P, a)
            assert cuts[a] == oracles.to_mask(oracles.cut(P, A)), (P, a)


def test_map_image_and_preimage_against_oracle():
    posets = list(_labeled(3))
    for P in posets:
        for Q in posets:
            for f in oracles.enumerate_monotone_maps(P, Q):
                for a in range(P.full + 1):
                    want = oracles.image(f.table, oracles.to_set(a))
                    assert f.image(a) == oracles.to_mask(want), (f, a)
                for b in range(Q.full + 1):
                    want = oracles.preimage(f.table, oracles.to_set(b))
                    assert f.preimage(b) == oracles.to_mask(want), (f, b)


def test_subposet_rows_against_oracle():
    for P in _labeled(4):
        for c in range(P.full + 1):
            sub = ps.restrict(P, c)
            C = oracles.to_set(c)
            assert sub.embed == tuple(sorted(C))
            assert sub.poset.labels == tuple(P.labels[i] for i in sub.embed)
            k = sub.poset.n
            got = frozenset(
                (sub.embed[x], sub.embed[y])
                for x in range(k)
                for y in range(k)
                if sub.poset.leq(x, y)
            )
            assert got == oracles.restricted_order(P, C), (P, c)


# -- out-of-carrier masks -------------------------------------------------

MASK_CHECKED = (
    ps.up_set, ps.down_set, ps.upper_bounds, ps.lower_bounds, ps.cut,
    ps.min_of_upset, ps.is_filtered,
)
OUT_OF_CARRIER_POSETS = (fx.chain(3), fx.antichain(2), fx.diamond(), fx.fan3())


def _outside_masks(P):
    outside = 1 << P.n
    return (outside, outside | 1, outside | P.full)


def _carrier_message(P, mask):
    return re.escape(f"mask {bin(mask)} outside carrier of size {P.n}")


@pytest.mark.parametrize("op", MASK_CHECKED, ids=lambda op: op.__name__)
def test_out_of_carrier_mask_raises(op):
    for P in OUT_OF_CARRIER_POSETS:
        for mask in _outside_masks(P):
            with pytest.raises(NotASubsetError, match=_carrier_message(P, mask)):
                op(P, mask)


def test_relative_cut_out_of_carrier_raises_on_either_argument():
    for P in OUT_OF_CARRIER_POSETS:
        for mask in _outside_masks(P):
            with pytest.raises(NotASubsetError, match="E must be a subset of A"):
                ps.relative_cut(P, mask, P.full)
            with pytest.raises(NotASubsetError, match=_carrier_message(P, mask)):
                ps.relative_cut(P, 0, mask)
            with pytest.raises(NotASubsetError, match=_carrier_message(P, mask)):
                ps.relative_cut(P, mask, mask)
