"""Finite posets, carrier subsets as bitmasks, and the basic order operators.

Conventions used throughout the package:

* a poset element is its carrier index ``0..n-1``;
* a subset of the carrier is an int mask with bit ``i`` for element ``i``;
* ``P.up[i]`` is the mask of ``{j : i <= j}``, ``P.down[i]`` of ``{j : j <= i}``.

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

import re
import string
from functools import lru_cache

from zdt import kernels
from zdt.errors import (
    AntisymmetryError,
    DuplicateLabelError,
    EmptyInputError,
    NotASubsetError,
    NotMonotoneError,
    SizeCapError,
    UnknownLabelError,
)

LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")

ENUM_CAP = 6
FINP_CAP = 12

# The bound of every cache keyed by one (poset, system) instance or one poset.
# A sweep walks each instance once per claim, so a cache holds a whole sweep
# only if it holds every instance of it: the full registry at default depth
# reaches at most 1,165 keys in one cache, and the 19 non-lattice claims over
# the labeled posets with n <= 4 reach 243, or 1,515 when every labeled order
# is evaluated itself, as the label-invariance tests do; each maximum is that
# of I_Z, which also holds the subposets and lattices the claims build.
INSTANCE_CACHE_SIZE = 4096


def default_labels(n):
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"x{i}" for i in range(n))


class FinitePoset:
    """An immutable finite poset over labeled elements.

    ``leq_rows[i]`` has bit ``j`` set when element ``i <= j``.  The relation is
    validated to be reflexive, antisymmetric and transitive unless the caller
    vouches for it with ``_trusted``.
    """

    __slots__ = ("n", "full", "labels", "up", "down", "_hash", "_index")

    def __init__(self, labels, leq_rows, *, _trusted=False):
        labels = tuple(labels)
        up = tuple(leq_rows)
        n = len(labels)
        if len(up) != n:
            raise ValueError("labels and relation rows disagree in length")
        if len(set(labels)) != n:
            raise DuplicateLabelError(f"duplicate labels in {labels}")
        for lbl in labels:
            if not LABEL_RE.match(lbl):
                raise UnknownLabelError(f"bad label {lbl!r}")
        if not _trusted and not kernels.is_partial_order(n, up):
            raise AntisymmetryError("relation is not a partial order")
        down = [0] * n
        for i in range(n):
            row = up[i]
            while row:
                lsb = row & -row
                row ^= lsb
                down[lsb.bit_length() - 1] |= 1 << i
        self.n = n
        self.full = (1 << n) - 1
        self.labels = labels
        self.up = up
        self.down = tuple(down)
        self._hash = hash((labels, up))
        self._index = {lbl: i for i, lbl in enumerate(labels)}

    # -- basics --------------------------------------------------------

    def leq(self, i, j):
        return bool((self.up[i] >> j) & 1)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown label {label!r}") from None

    def mask_of(self, names):
        m = 0
        for name in names:
            m |= 1 << self.index(name)
        return m

    def names(self, mask):
        return tuple(self.labels[i] for i in bits(mask))

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.labels == other.labels
            and self.up == other.up
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        rels = [
            f"{self.labels[i]}<{self.labels[j]}"
            for i in range(self.n)
            for j in bits(self.up[i] & ~(1 << i))
        ]
        return f"FinitePoset({list(self.labels)}, [{', '.join(rels)}])"


class Subposet:
    """A carrier subset with the restricted order and its embedding."""

    __slots__ = ("parent", "carrier", "poset", "embed")

    def __init__(self, parent, carrier_mask):
        if carrier_mask & ~parent.full:
            raise NotASubsetError("carrier not a subset of the parent")
        embed = tuple(bits(carrier_mask))
        pos = [0] * parent.n  # parent index -> subposet index
        for k, i in enumerate(embed):
            pos[i] = k
        up = parent.up
        rows = []
        for i in embed:
            m = up[i] & carrier_mask
            row = 0
            while m:
                lsb = m & -m
                m ^= lsb
                row |= 1 << pos[lsb.bit_length() - 1]
            rows.append(row)
        self.parent = parent
        self.carrier = carrier_mask
        self.embed = embed
        self.poset = FinitePoset(
            tuple(parent.labels[i] for i in embed), rows, _trusted=True
        )

    def to_parent(self, mask):
        out = 0
        for k in bits(mask):
            out |= 1 << self.embed[k]
        return out

    def to_sub(self, parent_mask):
        out = 0
        for k, i in enumerate(self.embed):
            if (parent_mask >> i) & 1:
                out |= 1 << k
        return out


class FinP:
    """All nonempty upper sets ``↑F`` of a poset, ordered by reverse inclusion."""

    __slots__ = ("base", "sets", "poset", "index")

    def __init__(self, base):
        if base.n == 0:
            raise EmptyInputError("Fin P needs a nonempty poset")
        if base.n > FINP_CAP:
            raise SizeCapError("fin_poset", base.n, FINP_CAP)
        filters = [m for m in kernels.order_ideals(base.n, base.down, base.up) if m]
        rows = []
        for u in filters:
            row = 0
            for j, v in enumerate(filters):
                if v & ~u == 0:  # ↑G <= ↑F iff ↑F ⊆ ↑G
                    row |= 1 << j
            rows.append(row)
        labels = tuple(
            "u_" + "_".join(base.names(min_of_upset(base, u))) for u in filters
        )
        self.base = base
        self.sets = tuple(filters)
        self.poset = FinitePoset(labels, rows, _trusted=True)
        self.index = {m: i for i, m in enumerate(filters)}


# -- constructors ------------------------------------------------------


def from_order_pairs(labels, pairs):
    """Build a poset from asserted ``x <= y`` pairs, closing transitively.

    Cycles surface as AntisymmetryError; unknown or duplicate labels are hard
    errors as well.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabelError(f"duplicate labels in {labels}")
    idx = {lbl: i for i, lbl in enumerate(labels)}
    rows = [1 << i for i in range(len(labels))]
    for a, b in pairs:
        if a not in idx:
            raise UnknownLabelError(f"unknown label {a!r} in order pair")
        if b not in idx:
            raise UnknownLabelError(f"unknown label {b!r} in order pair")
        rows[idx[a]] |= 1 << idx[b]
    closed = kernels.transitive_closure(len(labels), rows)
    for i in range(len(labels)):
        for j in bits(closed[i] & ~(1 << i)):
            if (closed[j] >> i) & 1:
                raise AntisymmetryError(
                    f"asserted pairs force a cycle through {labels[i]} and {labels[j]}"
                )
    return FinitePoset(labels, closed, _trusted=True)


def restrict(P, mask):
    return Subposet(P, mask)


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def principal_downs(P):
    """The subposets ↓x, one per element x of P, built once per poset."""
    return tuple(Subposet(P, d) for d in P.down)


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def fin_poset(P):
    return FinP(P)


# -- subset operators --------------------------------------------------
#
# The operators below are the innermost loops of every claim, so each walks
# its mask inline (lowest set bit first) instead of through ``bits``, and
# tests ``mask & ~P.full`` itself, calling ``_check_subset`` only to raise.


def bits(mask):
    while mask:
        lsb = mask & -mask
        mask ^= lsb
        yield lsb.bit_length() - 1


def _check_subset(P, mask):
    if mask & ~P.full:
        raise NotASubsetError(f"mask {bin(mask)} outside carrier of size {P.n}")


def up_set(P, mask):
    if mask & ~P.full:
        _check_subset(P, mask)
    up = P.up
    out = 0
    while mask:
        lsb = mask & -mask
        mask ^= lsb
        out |= up[lsb.bit_length() - 1]
    return out


def down_set(P, mask):
    if mask & ~P.full:
        _check_subset(P, mask)
    down = P.down
    out = 0
    while mask:
        lsb = mask & -mask
        mask ^= lsb
        out |= down[lsb.bit_length() - 1]
    return out


def upper_bounds(P, mask):
    out = P.full
    if mask & ~out:
        _check_subset(P, mask)
    up = P.up
    while mask:
        lsb = mask & -mask
        mask ^= lsb
        out &= up[lsb.bit_length() - 1]
    return out


def lower_bounds(P, mask):
    out = P.full
    if mask & ~out:
        _check_subset(P, mask)
    down = P.down
    while mask:
        lsb = mask & -mask
        mask ^= lsb
        out &= down[lsb.bit_length() - 1]
    return out


def cut(P, mask):
    """E^ul: lower bounds of the upper bounds (equals ↓sup E when sup exists)."""
    full = P.full
    if mask & ~full:
        _check_subset(P, mask)
    up = P.up
    bound = full
    while mask:
        lsb = mask & -mask
        mask ^= lsb
        bound &= up[lsb.bit_length() - 1]
    down = P.down
    out = full
    while bound:
        lsb = bound & -bound
        bound ^= lsb
        out &= down[lsb.bit_length() - 1]
    return out


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def cut_table(P):
    """cut(P, A) for every subset A of P, by mask, computed once per poset."""
    return tuple(cut(P, a) for a in range(1 << P.n))


def relative_cut(P, e_mask, a_mask):
    """Cut of E relative to an ambient subset A containing it."""
    if a_mask & ~P.full:
        _check_subset(P, a_mask)
    if e_mask & ~a_mask:
        raise NotASubsetError("E must be a subset of A")
    up = P.up
    bound = a_mask
    while e_mask:
        lsb = e_mask & -e_mask
        e_mask ^= lsb
        bound &= up[lsb.bit_length() - 1]
    down = P.down
    out = a_mask
    while bound:
        lsb = bound & -bound
        bound ^= lsb
        out &= down[lsb.bit_length() - 1]
    return out


def least_of(P, mask):
    """The least element of a subset, or None."""
    up = P.up
    m = mask
    while m:
        lsb = m & -m
        m ^= lsb
        i = lsb.bit_length() - 1
        if mask & ~up[i] == 0:
            return i
    return None


def greatest_of(P, mask):
    down = P.down
    m = mask
    while m:
        lsb = m & -m
        m ^= lsb
        i = lsb.bit_length() - 1
        if mask & ~down[i] == 0:
            return i
    return None


def sup_of(P, mask):
    """Least upper bound if it exists, else None (sup ∅ is the bottom, if any)."""
    return least_of(P, upper_bounds(P, mask))


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def sup_table(P):
    """sup_of(P, A) for every subset A of P, by mask, computed once per poset."""
    return tuple(sup_of(P, a) for a in range(1 << P.n))


def inf_of(P, mask):
    return greatest_of(P, lower_bounds(P, mask))


def min_of_upset(P, mask):
    """Minimal elements of a nonempty set F; generates the same ↑F."""
    if mask == 0:
        raise EmptyInputError("min(↑F) needs a nonempty F")
    _check_subset(P, mask)
    out = 0
    for i in bits(mask):
        if P.down[i] & mask & ~(1 << i) == 0:
            out |= 1 << i
    return out


def is_filtered(P, mask):
    """Nonempty and every pair has a lower bound inside the subset."""
    if mask == 0:
        return False
    _check_subset(P, mask)
    elems = list(bits(mask))
    for a in range(len(elems)):
        da = P.down[elems[a]]
        for b in range(a, len(elems)):
            if not (da & P.down[elems[b]] & mask):
                return False
    return True


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def maxima(P, masks):
    """The maximal points of each mask in the tuple ``masks``, as tuples.

    Keyed by the masks themselves, so that it always answers for the table
    of masks its caller has just read."""
    return tuple(tuple(x for x in bits(m) if P.up[x] & m == 1 << x) for m in masks)


def covers(P):
    """Cover pairs (i, j) of the transitive reduction, lexicographic order."""
    out = []
    for i in range(P.n):
        strictly_up = P.up[i] & ~(1 << i)
        for j in bits(strictly_up):
            between = strictly_up & P.down[j] & ~(1 << j)
            if between == 0:
                out.append((i, j))
    return out


def monotone_on_covers(table, cover_pairs, cod):
    """True iff ``table`` keeps each of its domain's ``cover_pairs`` in order
    in ``cod``; by transitivity, exactly when it is monotone."""
    up = cod.up
    for i, j in cover_pairs:
        if not (up[table[i]] >> table[j]) & 1:
            return False
    return True


def check_monotone(table, dom, cod, covers):
    """Raise ``NotMonotoneError`` where a table from ``dom`` to ``cod``
    breaks one of the cover pairs ``covers`` of ``dom``, naming the first
    broken pair i <= j, i ascending and then j ascending."""
    if monotone_on_covers(table, covers, cod):
        return
    up = cod.up
    for i in range(dom.n):
        for j in bits(dom.up[i]):
            if not (up[table[i]] >> table[j]) & 1:
                raise NotMonotoneError(
                    f"{dom.labels[i]}<={dom.labels[j]} broken by the table"
                )


# -- enumeration -------------------------------------------------------


def enumerate_posets(n, mode="up_to_iso"):
    """Yield the labeled posets on n points, or one poset per iso class.

    Each population is built once per process, so every call yields the same
    poset objects and the instance caches find them by identity.
    """
    if not 1 <= n <= ENUM_CAP:
        raise SizeCapError("enumerate_posets", n, ENUM_CAP)
    if mode not in ("labeled", "up_to_iso"):
        raise ValueError(f"unknown mode {mode!r}")
    yield from population(n, mode)


def population(n, mode="up_to_iso"):
    """The tuple of posets ``enumerate_posets(n, mode)`` yields, built once
    per process; a pool worker finds its instances in it by index."""
    return _labeled_orders(n) if mode == "labeled" else _iso_representatives(n)


@lru_cache(maxsize=8)
def labeled_orbits(n):
    """The labeled orders on n points by class, without building posets:
    (rows, classes, sizes), where ``rows[i]`` is the order matrix of
    ``population(n, "labeled")[i]``, ``classes[i]`` the index of its class in
    ``population(n, "up_to_iso")``, and ``sizes[c]`` the number of labeled
    orders in class c, n!/|Aut P| by orbit-stabilizer."""
    keys = [P.up for P in _iso_representatives(n)]
    pairs = kernels.labeled_orbits(keys)
    classes = tuple(c for _, c in pairs)
    sizes = [0] * len(keys)
    for c in classes:
        sizes[c] += 1
    return tuple(rows for rows, _ in pairs), classes, tuple(sizes)


def _population(n, rows_list):
    labels = default_labels(n)
    return tuple(FinitePoset(labels, rows, _trusted=True) for rows in rows_list)


@lru_cache(maxsize=8)
def _labeled_orders(n):
    return _population(n, labeled_orbits(n)[0])


@lru_cache(maxsize=8)
def _iso_representatives(n):
    # grown from the classes one point smaller, which this cache holds too
    smaller = [P.up for P in _iso_representatives(n - 1)] if n > 1 else [()]
    return _population(n, kernels.grow_classes(n - 1, smaller))


def count_posets(n):
    if not 1 <= n <= ENUM_CAP:
        raise SizeCapError("count_posets", n, ENUM_CAP)
    return len(population(n))


def monotone_tables(P, Q, allowed=None):
    """All monotone tables P -> Q as tuples, in lexicographic order.

    The values allowed at point i are the v above the value of every earlier
    point below i and below the value of every earlier point above it: the
    intersection of those points' ``Q.up`` and ``Q.down`` rows.  ``allowed``,
    if given, holds one mask of Q per point of P, and the tables are those
    with each value inside its point's mask.
    """
    if allowed is None:
        allowed = (Q.full,) * P.n
    below = [tuple(bits(P.down[i] & ((1 << i) - 1))) for i in range(P.n)]
    above = [tuple(bits(P.up[i] & ((1 << i) - 1))) for i in range(P.n)]
    table = [0] * P.n

    def rec(i):
        if i == P.n:
            yield tuple(table)
            return
        values = allowed[i]
        for j in below[i]:
            values &= Q.up[table[j]]
        for j in above[i]:
            values &= Q.down[table[j]]
        for v in bits(values):
            table[i] = v
            yield from rec(i + 1)

    yield from rec(0)


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def map_tables(P, Q):
    """``monotone_tables(P, Q)`` as a tuple, built once per pair of posets.

    For the codomains of at most three points that the map claims quantify
    over (every system shares them); a large codomain, as in the P -> K(L)
    walk of the adjunction, keeps the generator."""
    return tuple(monotone_tables(P, Q))


# -- symmetry ----------------------------------------------------------
#
# A permutation of n points is its table, ``perm[i]`` the image of i.  The
# adjunction's walk over the tables P -> K(L) decides one table per orbit of
# a group that fixes every table it reads (``monad.verify_adjunction``).
# The naturality pass walks every table of ``map_tables``, and only where a
# per-codomain check fails: its per-table work is one row loop, and an
# orbit filter would cost about what it saves.


@lru_cache(maxsize=INSTANCE_CACHE_SIZE)
def automorphisms(P):
    """The order automorphisms of P, in lexicographic order of their tables,
    so the identity first.

    Backtracking sends point i to an unused point v with as many points
    above and below it, such that j ≤ i ⟺ σ(j) ≤ v and i ≤ j ⟺ v ≤ σ(j)
    for each earlier point j.  Those pairs are every pair, so each table it
    completes is an automorphism, and it misses none."""
    n, up, down = P.n, P.up, P.down
    shape = [(up[i].bit_count(), down[i].bit_count()) for i in range(n)]
    table = [0] * n
    out = []

    def rec(i, used):
        if i == n:
            out.append(tuple(table))
            return
        for v in range(n):
            if (used >> v) & 1 or shape[v] != shape[i]:
                continue
            if all(
                (up[i] >> j & 1) == (up[v] >> table[j] & 1)
                and (down[i] >> j & 1) == (down[v] >> table[j] & 1)
                for j in range(i)
            ):
                table[i] = v
                rec(i + 1, used | 1 << v)

    rec(0, 0)
    return tuple(out)


def inverse(perm):
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


def permuted(perm, mask):
    """The image of a mask under a permutation of its points."""
    out = 0
    while mask:
        lsb = mask & -mask
        mask ^= lsb
        out |= 1 << perm[lsb.bit_length() - 1]
    return out


def family_action(perm, masks, index=None):
    """The permutation of the positions of ``masks`` that ``perm`` induces,
    i ↦ the position of perm(masks[i]); None when perm does not map the
    family onto itself.  ``index`` maps each mask to its position, if the
    caller holds one."""
    if index is None:
        index = {m: i for i, m in enumerate(masks)}
    out = []
    for m in masks:
        j = index.get(permuted(perm, m))
        if j is None:
            return None
        out.append(j)
    return tuple(out)


def lex_least(table, actions):
    """Whether no action maps ``table`` to a lexicographically smaller one.

    Each action is a pair (moved, values) and sends a table f to the g with
    g[p] = values[f[moved[p]]]: f ↦ τ∘f∘σ⁻¹ for moved = σ⁻¹ and values = τ.
    Over the non-identity elements of a group, this is the test that f is
    the least table of its orbit.  Each comparison stops at the first point
    where the two tables differ, and nothing is kept between calls."""
    for moved, values in actions:
        for p, q in enumerate(moved):
            v = values[table[q]]
            w = table[p]
            if v != w:
                if v < w:
                    return False
                break
    return True
