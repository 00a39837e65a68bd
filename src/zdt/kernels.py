"""Bitset kernels: enumeration, canonical forms, member masks, ideal filtering.

All hot inner loops of the workbench live behind this small surface.  A poset
is passed around as ``(n, up, down)`` where ``up[i]`` is the bitmask of
``{j : i <= j}`` and ``down[i]`` the bitmask of ``{j : j <= i}``.  Subsets of
the carrier are plain ints with bit ``i`` standing for element ``i``.
"""

from itertools import permutations

BACKEND = "python"

SYS_SINGLETONS = 0
SYS_CHAINS = 1
SYS_DIRECTED = 2
SYS_FINITE = 3
SYS_CONNECTED = 4


def transitive_closure(n, rows):
    """Reflexive-transitive closure of an arbitrary relation given as row masks."""
    out = [rows[i] | (1 << i) for i in range(n)]
    for k in range(n):
        bit = 1 << k
        rk = out[k]
        for i in range(n):
            if out[i] & bit:
                out[i] |= rk
    return tuple(out)


def is_partial_order(n, rows):
    """Reflexivity, antisymmetry and transitivity of row-mask relation."""
    for i in range(n):
        if not (rows[i] >> i) & 1:
            return False
    for i in range(n):
        ri = rows[i]
        t = ri & ~(1 << i)
        while t:
            lsb = t & -t
            t ^= lsb
            j = lsb.bit_length() - 1
            if (rows[j] >> i) & 1:
                return False
            if rows[j] & ~ri:
                return False
    return True


def _relabel(rows, perm):
    """The order matrix with element ``i`` renamed ``perm[i]``."""
    new = [0] * len(rows)
    for i, row in enumerate(rows):
        acc = 0
        while row:
            lsb = row & -row
            row ^= lsb
            acc |= 1 << perm[lsb.bit_length() - 1]
        new[perm[i]] = acc
    return tuple(new)


def canonical_key(n, rows):
    """Lexicographically minimal relabeling of the order matrix.

    The least tuple of row masks over all n! relabelings; a complete
    isomorphism invariant for labeled posets.  It is found by a search over
    reverse linear extensions only, which is exact by the following facts.

    1. Row k of a relabeled matrix is the up-set of the element labeled k.
    2. If that element has a strict upper bound not yet labeled, the bound's
       label exceeds k, so row k >= 2^(k+1).
    3. Some unlabeled element has every strict upper bound labeled: any
       maximal element of the unlabeled set.  Its row k, fixed by the labels
       already given, is < 2^(k+1).

    Suppose a relabeling with the least key labels the elements
    x_0, ..., x_{n-1}, and each x_i with i < k was labeled after all its
    strict upper bounds.  Then rows 0..k-1 are fixed by x_0..x_{k-1}.  Were
    x_k labeled before one of its strict upper bounds, labeling a maximal
    unlabeled element at k instead would keep those rows and lower row k by
    facts 2 and 3: a smaller key.  So in a least key every element is labeled
    after all its strict upper bounds, and each row is fixed when it is
    written.  The search goes level by level: at level k it extends every
    partial labeling whose rows equal the least prefix by every unlabeled
    element whose strict up-set is labeled, and keeps the extensions whose
    row k is least.
    """
    above = [rows[x] & ~(1 << x) for x in range(n)]
    full = (1 << n) - 1
    level = [(0, (0,) * n)]  # (labeled elements, label bit of each element)
    key = []
    for k in range(n):
        bit = 1 << k
        best, kept = 1 << n, []
        for done, label in level:
            free = full & ~done
            while free:
                lsb = free & -free
                free ^= lsb
                x = lsb.bit_length() - 1
                if above[x] & ~done:
                    continue
                row = bit
                t = above[x]
                while t:
                    low = t & -t
                    t ^= low
                    row |= label[low.bit_length() - 1]
                if row < best:
                    best, kept = row, []
                if row == best:
                    kept.append((done | lsb, label[:x] + (bit,) + label[x + 1 :]))
        key.append(best)
        level = kept
    return tuple(key)


def grow_classes(m, keys):
    """The class keys on m+1 points, ascending, from all class keys on m points.

    Every (m+1)-point poset is an m-point poset plus a maximal element whose
    strict down-set is an order ideal of it (Brinkmann & McKay, "Posets on up
    to 16 points", Order 19, 2002), so the classes grow one point at a time.
    """
    top = 1 << m
    grown = set()
    for up in keys:
        for ideal in order_ideals(m, up, _down_rows(m, up)):
            rows = tuple(r | top if (ideal >> i) & 1 else r for i, r in enumerate(up))
            grown.add(canonical_key(m + 1, rows + (top,)))
    return sorted(grown)


def iso_class_keys(n):
    """Canonical keys of the posets on n points, one per class, ascending."""
    keys = [()]
    for m in range(n):
        keys = grow_classes(m, keys)
    return keys


def enumerate_labeled_orders(n):
    """All partial orders on n labeled points, as sorted tuples of row masks."""
    return [rows for rows, _ in labeled_orbits(iso_class_keys(n))]


def labeled_orbits(keys):
    """Each partial order on the points of the class keys ``keys``, one key
    per class on n points, with the index of its class in ``keys``, as
    (rows, class) pairs sorted by rows.

    Each labeled order is a relabeling of exactly one class key, so the orbits
    of the keys under all permutations cover every labeled order, and the key
    it came from is its class.
    """
    perms = list(permutations(range(len(keys[0]))))
    return sorted(
        {_relabel(key, perm): c for c, key in enumerate(keys) for perm in perms}.items()
    )


def _down_rows(n, up):
    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    return tuple(down)


def _bits(mask):
    while mask:
        lsb = mask & -mask
        mask ^= lsb
        yield lsb.bit_length() - 1


def z_contains(sys_id, n, up, down, mask):
    """Membership of a nonempty carrier subset in the given subset system."""
    if mask == 0:
        return False
    if sys_id == SYS_FINITE:
        return True
    if sys_id == SYS_SINGLETONS:
        return mask & (mask - 1) == 0
    if sys_id == SYS_CHAINS:
        m = mask
        while m:
            lsb = m & -m
            m ^= lsb
            i = lsb.bit_length() - 1
            if mask & ~(up[i] | down[i]):
                return False
        return True
    if sys_id == SYS_DIRECTED:
        elems = list(_bits(mask))
        for a in range(len(elems)):
            ua = up[elems[a]]
            for b in range(a, len(elems)):
                if not (ua & up[elems[b]] & mask):
                    return False
        return True
    if sys_id == SYS_CONNECTED:
        start = mask & -mask
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            while frontier:
                lsb = frontier & -frontier
                frontier ^= lsb
                i = lsb.bit_length() - 1
                nxt |= up[i] | down[i]
            frontier = nxt & mask & ~comp
            comp |= frontier
        return comp == mask
    raise ValueError(f"unknown system id {sys_id}")


def z_member_masks(sys_id, n, up, down):
    """All members of Z(P), ascending by mask value."""
    full = (1 << n) - 1
    if sys_id == SYS_FINITE:
        return list(range(1, full + 1))
    if sys_id == SYS_SINGLETONS:
        return [1 << i for i in range(n)]
    if sys_id == SYS_DIRECTED:
        # a finite subset is directed iff it contains a maximum, which is unique
        out = []
        for m in range(n):
            base = down[m] & ~(1 << m)
            top = 1 << m
            sub = base
            while True:
                out.append(sub | top)
                if sub == 0:
                    break
                sub = (sub - 1) & base
        out.sort()
        return out
    if sys_id == SYS_CHAINS:
        # grow each chain along its unique increasing enumeration
        out = []
        stack = [(1 << i, i) for i in range(n - 1, -1, -1)]
        while stack:
            mask, last = stack.pop()
            out.append(mask)
            t = up[last] & ~(1 << last)
            for j in _bits(t):
                stack.append((mask | (1 << j), j))
        out.sort()
        return out
    if sys_id == SYS_CONNECTED:
        return [m for m in range(1, full + 1) if z_contains(sys_id, n, up, down, m)]
    raise ValueError(f"unknown system id {sys_id}")


def order_ideals(n, up, down):
    """All lower sets of the poset, ascending by mask value."""
    ideals = [0]
    for x in _topo_order(n, up):
        need = down[x] & ~(1 << x)
        bit = 1 << x
        ideals.extend([i | bit for i in ideals if need & ~i == 0])
    ideals.sort()
    return ideals


def _topo_order(n, up):
    # ascending by number of elements above; ties by index
    return sorted(range(n), key=lambda i: (-bin(up[i]).count("1"), i))


def absorbing_ideals(ideals, constraints):
    """Filter lower sets A by: for every (s, c), s ⊆ A implies c ⊆ A."""
    out = []
    for a in ideals:
        ok = True
        for s, c in constraints:
            if s & ~a == 0 and c & ~a:
                ok = False
                break
        if ok:
            out.append(a)
    return out

