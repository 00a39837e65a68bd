"""Naive reference implementations used as independent oracles.

Everything here works on ``frozenset`` values and translates the defining
quantifiers directly, with no bitset tricks and no sharing with the package
internals; tests compare the fast implementations against these.  The
exceptions are ``lower_hereditary_witness``, the map objects with their
object loops (``monad_naturality_failure`` and the slow paths), the full
walks, and the fixtures and patches of the monad tests at the end of the
module, which say why in their docstrings.
"""

from itertools import chain, combinations, permutations, product


def elements(P):
    return range(P.n)


def subsets(P, nonempty=False):
    elems = list(range(P.n))
    start = 1 if nonempty else 0
    for k in range(start, P.n + 1):
        for combo in combinations(elems, k):
            yield frozenset(combo)


def to_mask(s):
    m = 0
    for i in s:
        m |= 1 << i
    return m


def to_set(mask):
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def up(P, A):
    return frozenset(p for p in elements(P) if any(P.leq(a, p) for a in A))


def down(P, A):
    return frozenset(p for p in elements(P) if any(P.leq(p, a) for a in A))


def upper_bounds(P, A):
    return frozenset(p for p in elements(P) if all(P.leq(a, p) for a in A))


def lower_bounds(P, A):
    return frozenset(p for p in elements(P) if all(P.leq(p, a) for a in A))


def cut(P, E):
    return lower_bounds(P, upper_bounds(P, E))


def relative_cut(P, E, A):
    bound = upper_bounds(P, E) & A
    return frozenset(p for p in A if all(P.leq(p, m) for m in bound))


def least(P, A):
    for m in A:
        if all(P.leq(m, a) for a in A):
            return m
    return None


def greatest(P, A):
    for m in A:
        if all(P.leq(a, m) for a in A):
            return m
    return None


def image(table, A):
    return frozenset(table[a] for a in A)


def preimage(table, B):
    return frozenset(i for i, v in enumerate(table) if v in B)


def restricted_order(P, C):
    """The pairs (i, j) of elements of C with i <= j in P."""
    return frozenset((i, j) for i in C for j in C if P.leq(i, j))


def sup(P, A):
    ub = upper_bounds(P, A)
    for m in ub:
        if all(P.leq(m, other) for other in ub):
            return m
    return None


def inf(P, A):
    lb = lower_bounds(P, A)
    for m in lb:
        if all(P.leq(other, m) for other in lb):
            return m
    return None


def is_filtered(P, A):
    return bool(A) and all(
        any(P.leq(c, a) and P.leq(c, b) for c in A) for a in A for b in A
    )


def is_chain(P, S):
    return all(P.leq(a, b) or P.leq(b, a) for a in S for b in S)


def is_directed(P, S):
    return bool(S) and all(
        any(P.leq(a, c) and P.leq(b, c) for c in S) for a in S for b in S
    )


def is_connected(P, S):
    if not S:
        return False
    todo = {next(iter(S))}
    seen = set()
    while todo:
        x = todo.pop()
        seen.add(x)
        for y in S:
            if y not in seen and (P.leq(x, y) or P.leq(y, x)):
                todo.add(y)
    return seen == set(S)


MEMBER_PREDICATES = {
    "singletons": lambda P, S: len(S) == 1,
    "chains": lambda P, S: is_chain(P, S),
    "directed": is_directed,
    "finite": lambda P, S: True,
    "connected": is_connected,
}


def members(P, name):
    pred = MEMBER_PREDICATES[name]
    return [S for S in subsets(P, nonempty=True) if pred(P, S)]


def gamma(P, name):
    mem = members(P, name)
    out = []
    for A in subsets(P):
        if all(not S <= A or cut(P, S) <= A for S in mem):
            out.append(A)
    return out


def closure(P, name, M):
    acc = frozenset(elements(P))
    for A in gamma(P, name):
        if M <= A:
            acc &= A
    return acc


def way_below(P, name):
    """A ≪_Z B as a predicate of one pair (A, B) of subsets: each member
    whose cut meets ↑B meets ↑A.  The members and their cuts are listed
    once; each pair reads its two up-sets, each computed on first use."""
    mem = [(S, cut(P, S)) for S in members(P, name)]
    ups = {}

    def up_of(A):
        if A not in ups:
            ups[A] = up(P, A)
        return ups[A]

    def holds(A, B):
        up_a, up_b = up_of(A), up_of(B)
        return all(not (c & up_b) or (S & up_a) for S, c in mem)

    return holds


class _ReverseInclusion:
    """Sets ordered by reverse inclusion, as Fin P orders its up-sets."""

    def __init__(self, sets):
        self.sets = sets

    def leq(self, i, j):
        return self.sets[j] <= self.sets[i]


def quasicontinuity_failure(P, name):
    """The first p whose family {↑F : F finite, nonempty, F ≪_Z p} is not a
    member of Z(Fin P), as (p, None), or does not meet in ↑p, as (p, the
    intersection); None when there is none.

    Each system's membership reads only the order among a set's own points,
    so the family is tested as the subposet of Fin P it spans.
    """
    way_below_p = way_below(P, name)
    finite = list(subsets(P, nonempty=True))
    for p in elements(P):
        family = list({up(P, F) for F in finite if way_below_p(F, frozenset({p}))})
        if not family or not MEMBER_PREDICATES[name](
            _ReverseInclusion(family), range(len(family))
        ):
            return p, None
        inter = frozenset(elements(P)).intersection(*family)
        if inter != up(P, {p}):
            return p, inter
    return None


def beneath(P, name, x, y):
    for A in gamma(P, name):
        if A and y in cut(P, A) and x not in A:
            return False
    return True


def weakly_meet(P, name):
    return meet_failure(P, name, gamma(P, name)) is None


# -- member loops --------------------------------------------------------
#
# The package's checkers read the member ideals ↓S in place of the members.
# The functions below loop over the members themselves, in mask order, as the
# reference for the checkers' values and witnesses.


def members_by_mask(P, name):
    return sorted(members(P, name), key=to_mask)


def _hull(P, family, M):
    return frozenset(elements(P)).intersection(*(A for A in family if M <= A))


def meet_failure(P, name, family):
    """First (x, S), x-major and S in mask order, with x ∈ S^δ and x outside
    the least set of ``family`` holding ↓x ∩ ↓S; None when there is none."""
    mem = [(S, cut(P, S)) for S in members_by_mask(P, name)]
    for x in elements(P):
        for S, c in mem:
            if x in c and x not in _hull(P, family, down(P, {x}) & down(P, S)):
                return x, S
    return None


def zcpo_failure(P, name):
    """The first member of Z(P) in mask order without a sup, or None."""
    for S in members_by_mask(P, name):
        if sup(P, S) is None:
            return S
    return None


def semilattice_check(P, name):
    """(status, witness) of the semilattice lemma: inapplicable without every
    binary meet or every member sup; otherwise it holds iff weak meet
    continuity agrees with x ∧ sup S = sup {x ∧ e : e ∈ S} for all x and S,
    and on failure names the law's first (x, S), x-major, S in mask order."""
    for i in elements(P):
        for j in elements(P):
            if j >= i and inf(P, {i, j}) is None:
                return "inapplicable", {
                    "reason": f"no meet for {P.labels[i]},{P.labels[j]}"
                }
    missing = zcpo_failure(P, name)
    if missing is not None:
        return "inapplicable", {
            "reason": f"no sup for member {P.names(to_mask(missing))}"
        }
    law = distribution_failure(P, name)
    wm = weakly_meet(P, name)
    if wm == (law is None):
        return "holds", None
    return "fails", {
        "weakly_meet": wm,
        "distribution_law": law is None,
        "law_witness": law,
    }


def distribution_failure(P, name):
    """The first (x, S), x-major and S in mask order, with
    x ∧ sup S ≠ sup {x ∧ e : e ∈ S}, as a witness dict; None if none."""
    for x in elements(P):
        for S in members_by_mask(P, name):
            image = frozenset(inf(P, {x, e}) for e in S)
            if inf(P, {x, sup(P, S)}) != sup(P, image):
                return {"element": P.labels[x], "member": P.names(to_mask(S))}
    return None


def preserves_cuts(P, Q, table, name):
    """f(S^δ) ⊆ f(S)^δ for every member S of Z(P), f given by its table."""
    image = lambda A: frozenset(table[a] for a in A)
    return all(image(cut(P, S)) <= cut(Q, image(S)) for S in members(P, name))


def lh_cut_conditions(P, name):
    """Conditions (3)-(5) of the lower-hereditariness lemma: relative cuts in
    every ↓x, then in every nonempty A ∈ Γ^Z(P), equal the cuts in P for the
    members inside (the members of Z(A), as ``gamma_within`` says); and the
    upper-bound set of every member is filtered."""
    mem = members(P, name)

    def agree(A):
        return all(
            relative_cut(P, S, A) == cut(P, S) for S in mem if S <= A
        )

    return {
        "3": all(agree(down(P, {x})) for x in elements(P)),
        "4": all(agree(A) for A in gamma(P, name) if A),
        "5": all(is_filtered(P, upper_bounds(P, S)) for S in mem),
    }


def compact_sup_failure(P, name, K):
    """The first member S of Z(K), in mask order, whose sup in the subposet K
    is missing or differs from its sup in P, with the reason; else None."""
    for S in members_by_mask(P, name):
        if not S <= K:
            continue
        ub = upper_bounds(P, S) & K
        least = [m for m in ub if all(P.leq(m, o) for o in ub)]
        if not least:
            return S, "no sup"
        if least[0] != sup(P, S):
            return S, "sup disagrees with ambient sup"
    return None


def labeled_orders(n):
    """Filter candidate reflexive relations for the three axioms.

    Returns the set of orders as tuples of row masks (bit ``j`` of row ``i``
    set when ``i <= j``).  Full scan of all off-diagonal assignments through
    n = 4; at n = 5 the antisymmetry axiom is applied per unordered pair while
    generating (three states per pair), which enumerates exactly the reflexive
    antisymmetric relations and then filters transitivity.
    """
    out = set()
    if n <= 4:
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in product((False, True), repeat=len(cells)):
            rel = [[i == j for j in range(n)] for i in range(n)]
            for (i, j), b in zip(cells, bits):
                rel[i][j] = b
            if _is_order(n, rel):
                out.add(_rows(n, rel))
        return out
    pairs = list(combinations(range(n), 2))
    for states in product((0, 1, 2), repeat=len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), s in zip(pairs, states):
            if s == 1:
                rel[i][j] = True
            elif s == 2:
                rel[j][i] = True
        if _is_transitive(n, rel):
            out.add(_rows(n, rel))
    return out


def relabel(rows, perm):
    """The order matrix with element ``i`` renamed ``perm[i]``."""
    n = len(rows)
    new = [0] * n
    for i, row in enumerate(rows):
        new[perm[i]] = sum(1 << perm[j] for j in range(n) if (row >> j) & 1)
    return tuple(new)


def canonical_key(n, rows):
    """The least relabeled order matrix, as a minimum over all n! relabelings."""
    ups = [[j for j in range(n) if (row >> j) & 1] for row in rows]
    best = None
    for perm in permutations(range(n)):
        new = [0] * n
        for i, js in enumerate(ups):
            acc = 0
            for j in js:
                acc |= 1 << perm[j]
            new[perm[i]] = acc
        if best is None or new < best:
            best = new
    return tuple(best)


def random_orders(rng, n, count):
    """``count`` seeded labeled orders on n points: the transitive closure of
    a random acyclic relation on shuffled points, sparse to dense."""
    out = []
    for i in range(count):
        density = (i % 5 + 1) / 6
        place = list(range(n))
        rng.shuffle(place)
        rel = [[a == b or (place[a] < place[b] and rng.random() < density)
                for b in range(n)] for a in range(n)]
        for k in range(n):
            for a in range(n):
                if rel[a][k]:
                    rel[a] = [x or y for x, y in zip(rel[a], rel[k])]
        out.append(tuple(to_mask(b for b in range(n) if rel[a][b])
                         for a in range(n)))
    return out


def automorphism_count(n, rows):
    """|Aut P|: the relabelings that leave the order matrix as it is."""
    return sum(relabel(rows, perm) == tuple(rows) for perm in permutations(range(n)))


def _rows(n, rel):
    return tuple(to_mask(j for j in range(n) if rel[i][j]) for i in range(n))


def _is_order(n, rel):
    for i in range(n):
        for j in range(n):
            if i != j and rel[i][j] and rel[j][i]:
                return False
    return _is_transitive(n, rel)


def _is_transitive(n, rel):
    for i in range(n):
        for j in range(n):
            if rel[i][j]:
                for k in range(n):
                    if rel[j][k] and not rel[i][k]:
                        return False
    return True


def monotone_map_count(P, Q):
    count = 0
    for table in product(range(Q.n), repeat=P.n):
        if all(
            Q.leq(table[i], table[j])
            for i in range(P.n)
            for j in range(P.n)
            if P.leq(i, j)
        ):
            count += 1
    return count


def beneath_pairs(P, name):
    """All (x, y) with x beneath y, from one pass over the closed sets."""
    cuts = [(A, cut(P, A)) for A in gamma(P, name) if A]
    return frozenset(
        (x, y)
        for x in elements(P)
        for y in elements(P)
        if all(x in A for A, c in cuts if y in c)
    )


def monotone_tables(P, Q, pinned):
    """Every monotone table P -> Q taking the ``pinned`` values (a dict from
    element to value), by backtracking; each choice is checked against every
    value already fixed."""
    table = dict(pinned)

    def fits(i, v):
        for j, w in table.items():
            if P.leq(i, j) and not Q.leq(v, w):
                return False
            if P.leq(j, i) and not Q.leq(w, v):
                return False
        return True

    if not all(fits(i, v) for i, v in pinned.items()):
        return
    free = [i for i in elements(P) if i not in table]

    def extend(k):
        if k == len(free):
            yield tuple(table[i] for i in elements(P))
            return
        i = free[k]
        for v in elements(Q):
            if fits(i, v):
                table[i] = v
                yield from extend(k + 1)
                del table[i]

    yield from extend(0)


def has_upper_adjoint(P, Q, table):
    """Each {p : table[p] <= q} has a greatest element."""
    for q in elements(Q):
        below = [p for p in elements(P) if Q.leq(table[p], q)]
        if not any(all(P.leq(b, m) for b in below) for m in below):
            return False
    return True


def greatest_preimages(P, Q, table):
    """For each q of Q, the greatest p with table[p] <= q, or None: the
    upper adjoint's table when no entry is None."""
    return tuple(
        greatest(P, [p for p in elements(P) if Q.leq(table[p], q)]) for q in elements(Q)
    )


def lower_adjoint_of(S, T, g):
    """The table d : T -> S with d ⊣ g for a table g : S -> T: d(a) is the
    least y with a <= g(y); None if some a has none."""
    d = tuple(
        least(S, [y for y in elements(S) if T.leq(a, g[y])]) for a in elements(T)
    )
    return None if None in d else d


def is_galois(T, S, d, g):
    """d(a) <= y iff a <= g(y) for every a of T and y of S: the definition of
    a Galois connection d ⊣ g, over all pairs."""
    return all(
        S.leq(d[a], y) == T.leq(a, g[y]) for a in elements(T) for y in elements(S)
    )


def mediators(P, Q, pinned, beneath_p, beneath_q):
    """The brute-force mediator search: every monotone P -> Q that takes the
    pinned values, has an upper adjoint and maps beneath pairs to beneath
    pairs."""
    return [
        t
        for t in monotone_tables(P, Q, pinned)
        if has_upper_adjoint(P, Q, t)
        and all((t[x], t[y]) in beneath_q for x, y in beneath_p)
    ]


def sup_walk_holds(L, name):
    """Every one of the 2^|L| subfamilies of a Γ-lattice has a lattice sup,
    and that sup is the closure of the family's union in the base poset."""
    P, K = L.base, L.poset
    closed = gamma(P, name)
    sets = [to_set(m) for m in L.elements]
    ups = [up(K, {k}) for k in elements(K)]
    for fam in subsets(K):
        union = frozenset().union(*(sets[i] for i in fam))
        hull = frozenset(elements(P)).intersection(*(A for A in closed if union <= A))
        bounds = frozenset(elements(K)).intersection(*(ups[i] for i in fam))
        least = [m for m in bounds if bounds <= ups[m]]
        if not least or sets[least[0]] != hull:
            return False
    return True


def _fixpoint(family, ops):
    """Close a set of frozensets under the binary ``ops`` by repeated passes."""
    family = set(family)
    changed = True
    while changed:
        changed = False
        fam = list(family)
        for a in fam:
            for b in fam:
                for op in ops:
                    new = op(a, b)
                    if new not in family:
                        family.add(new)
                        changed = True
    return family


def sigma_topology(P, name):
    """Γ^Z(P) closed under binary unions and intersections to a fixpoint."""
    return _fixpoint(gamma(P, name), (frozenset.union, frozenset.intersection))


def lower_topology(P):
    """The closed sets of ω(P): all unions of principal filters ↑x, plus the
    carrier, closed under binary intersections to a fixpoint."""
    unions = {frozenset()}
    for x in elements(P):
        unions |= {u | up(P, {x}) for u in unions}
    unions.add(frozenset(elements(P)))
    return _fixpoint(unions, (frozenset.intersection,))


def separation_failure(P, name):
    """First (x, y), x-major, with x not below y such that no σ^Z-open U ∋ x
    is disjoint from an ω-open V ∋ y; None when every such pair separates."""
    carrier = frozenset(elements(P))
    sigma_opens = [carrier - A for A in gamma(P, name)]
    omega_opens = [carrier - C for C in lower_topology(P)]
    for x in elements(P):
        for y in elements(P):
            if P.leq(x, y):
                continue
            if not any(
                x in U and y in V and not U & V
                for U in sigma_opens
                for V in omega_opens
            ):
                return x, y
    return None


def gamma_within(P, name, A):
    """Γ^Z of the subposet A, in the coordinates of P: the subsets C of A
    that hold the relative cut of every member S ⊆ C.  A member of Z(A) is a
    member of Z(P) inside A, since every system's predicate reads only the
    order among the elements of S."""
    mem = [S for S in members(P, name) if S <= A]
    out = []
    for C in subsets(P):
        if C <= A and all(not S <= C or relative_cut(P, S, A) <= C for S in mem):
            out.append(C)
    return out


def lower_hereditary_failure(P, name):
    """First nonempty A ∈ Γ^Z(P), by mask, whose traces {B ∩ A : B ∈ Γ^Z(P)}
    differ from Γ^Z(A), as (A, trace-only sets, subposet-only sets)."""
    closed = gamma(P, name)
    for A in sorted(closed, key=to_mask):
        if not A:
            continue
        traces = {B & A for B in closed}
        own = set(gamma_within(P, name, A))
        if traces != own:
            return A, traces - own, own - traces
    return None


def inclusion_continuity(P, name):
    """Condition (2) of the lower-hereditariness lemma: every inclusion
    ↓x → P is σ^Z-continuous, that is, each preimage B ∩ ↓x of a closed
    B ∈ Γ^Z(P) is in Γ^Z(↓x)."""
    closed = gamma(P, name)
    for x in elements(P):
        A = down(P, {x})
        own = set(gamma_within(P, name, A))
        if any(B & A not in own for B in closed):
            return False
    return True


def lower_hereditary_witness(P, system):
    """The witness of the first nonempty A ∈ Γ^Z(P), by mask, whose traces
    differ from Γ^Z of the subposet A, or None: the loop that
    ``topology.lower_hereditary_witness`` ran before it read relative cuts,
    building the subposet and its Γ^Z for every A.

    Like ``monad_naturality_failure``, it uses the package's own objects
    (``restrict``, ``gamma_subbasis`` on the subposet, ``names``), so that a
    test can hold the new witness to the old one, list order included;
    ``lower_hereditary_failure`` checks the same sets from the quantifiers.
    """
    from zdt import poset as ps, topology as tp

    closed = tp.gamma_subbasis(P, system).closed
    for a in closed:
        if a == 0:
            continue
        sub = ps.restrict(P, a)
        traces = tuple(sorted(sub.to_sub(b) for b in closed if b & ~a == 0))
        own = tp.gamma_subbasis(sub.poset, system).closed
        if own != traces:
            return {
                "closed_set": P.names(a),
                "trace_only": [
                    sub.poset.names(m) for m in sorted(set(traces) - set(own))
                ],
                "subposet_only": [
                    sub.poset.names(m) for m in sorted(set(own) - set(traces))
                ],
            }
    return None


# -- map objects -----------------------------------------------------------
#
# The object form of maps that the package ran its map claims on before they
# read function tables.  The object loops below use it as their reference;
# ``poset.check_monotone`` raises the constructor's message.


class MonotoneMap:
    """A total order-preserving function table between two finite posets,
    validated on construction unless the caller vouches for it."""

    __slots__ = ("dom", "cod", "table", "_hash")

    def __init__(self, dom, cod, table, *, _trusted=False):
        from zdt.errors import NotMonotoneError

        table = tuple(table)
        if len(table) != dom.n:
            raise NotMonotoneError("table length disagrees with the domain")
        if not _trusted:
            for v in table:
                if not 0 <= v < cod.n:
                    raise ValueError(f"table value {v} outside codomain")
            for i in range(dom.n):
                for j in range(dom.n):
                    if dom.leq(i, j) and not cod.leq(table[i], table[j]):
                        raise NotMonotoneError(
                            f"{dom.labels[i]}<={dom.labels[j]} broken by the table"
                        )
        self.dom = dom
        self.cod = cod
        self.table = table
        self._hash = hash((dom, cod, table))

    def __call__(self, i):
        return self.table[i]

    def image(self, mask):
        table = self.table
        out = 0
        while mask:
            lsb = mask & -mask
            mask ^= lsb
            out |= 1 << table[lsb.bit_length() - 1]
        return out

    def preimage(self, mask):
        out = 0
        bit = 1
        for v in self.table:
            if (mask >> v) & 1:
                out |= bit
            bit <<= 1
        return out

    def compose(self, other):
        """self ∘ other (apply ``other`` first)."""
        from zdt.errors import NotMonotoneError

        if other.cod is not self.dom and other.cod != self.dom:
            raise NotMonotoneError("composition domains disagree")
        return MonotoneMap(
            other.dom, self.cod, tuple(self.table[v] for v in other.table),
            _trusted=True,
        )

    @classmethod
    def identity(cls, P):
        return cls(P, P, tuple(range(P.n)), _trusted=True)

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.table == other.table
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        pairs = ", ".join(
            f"{self.dom.labels[i]}↦{self.cod.labels[v]}"
            for i, v in enumerate(self.table)
        )
        return f"MonotoneMap({pairs})"


def enumerate_monotone_maps(P, Q):
    """All monotone maps P -> Q, in the lexicographic table order of
    ``poset.monotone_tables``, the order of the package's table walks."""
    from zdt import poset as ps

    for table in ps.monotone_tables(P, Q):
        yield MonotoneMap(P, Q, table, _trusted=True)


def is_sigma_z_continuous(f, system):
    """The package's σ^Z-continuity (``topology.sigma_z_continuity``) of a
    map object."""
    from zdt import topology as tp

    return tp.sigma_z_continuity(f.dom, f.cod, system)(f.table)


def dual(P):
    """The opposite poset on the same labels."""
    from zdt import poset as ps

    return ps.FinitePoset(P.labels, P.down, _trusted=True)


def canonical_form(P):
    """The representative poset of P's isomorphism class, on the default
    labels: ``kernels.canonical_key`` wrapped as a poset."""
    from zdt import kernels, poset as ps

    key = kernels.canonical_key(P.n, P.up)
    return ps.FinitePoset(ps.default_labels(P.n), key, _trusted=True)


def delta_map(f, system):
    """δf, A ↦ cl f(A) on the compacts of f's domain, with one
    ``TopologyFamily.closure`` per compact set and the validating
    ``MonotoneMap`` constructor; or None and the first compact A whose
    cl f(A) is not compact.  It shares no table with ``monad.delta_tables``,
    which it is the slow path of."""
    from zdt import monad as md, topology as tp

    DP = md.delta_object(f.dom, system)
    DQ = md.delta_object(f.cod, system)
    family = tp.gamma_subbasis(f.cod, system)
    table = []
    for a in DP.sets:
        closed = family.closure(f.image(a))
        if closed not in DQ.index:
            return None, {"of": f.dom.names(a), "image_closure": f.cod.names(closed)}
        table.append(DQ.index[closed])
    return MonotoneMap(DP.poset, DQ.poset, table), None


def eta_map(P, system):
    """The package's unit table at P as a ``MonotoneMap`` into δ(P)."""
    from zdt import monad as md

    return MonotoneMap(
        P, md.delta_object(P, system).poset, md.eta(P, system), _trusted=True
    )


def mu_map(P, system):
    """The package's multiplication table at P as a ``MonotoneMap``
    δδ(P) -> δ(P)."""
    from zdt import monad as md

    D1 = md.delta_object(P, system)
    D2 = md.delta_object(D1.poset, system)
    return MonotoneMap(D2.poset, D1.poset, md.mu(P, system), _trusted=True)


def mu_by_sups(P, system):
    """μ_P as ``monad.mu`` built it before it read the closure of a union:
    each family of δδ(P) ↦ its sup in δ(P), by this module's ``sup``, or
    None where it has none.  It reads the package's δ(P) and δδ(P)."""
    from zdt import monad as md

    D1 = md.delta_object(P, system)
    D2 = md.delta_object(D1.poset, system)
    return tuple(sup(D1.poset, to_set(fam)) for fam in D2.sets)


def delta_by_compacts(X, system):
    """δ(X) by its definition, as ``monad.delta_object`` built it before it
    read closed forms: the sets of the Γ-lattice of X on the diagonal of
    its beneath table (``continuity.kz_compacts``), in the lattice's order,
    and the lattice's order restricted to them."""
    from zdt import continuity as ct, monad as md, poset as ps

    L = md.gamma_lattice(X, system)
    k = ct.kz_compacts(L.poset, system)
    return tuple(L.elements[i] for i in ps.bits(k)), ps.restrict(L.poset, k).poset


def structure_map(P, system):
    """The package's structure table at P as a ``MonotoneMap`` δ(P) -> P,
    or None where it has none."""
    from zdt import monad as md

    xi = md.em_structure_map(P, system)
    if xi is None:
        return None
    return MonotoneMap(md.delta_object(P, system).poset, P, xi, _trusted=True)


def monad_naturality_failure(P, system):
    """The witness of the first failure of the monad's naturality at P, or
    None: the loop over maps that ``monad.verify_monad_laws`` ran before it
    read tables, ``naturality_walk`` at each poset of one to three points in
    turn.

    Unlike the rest of this module, it deliberately uses the package's own
    tables (``eta`` and ``mu``, wrapped by ``eta_map`` and ``mu_map``) and
    objects (``MonotoneMap.compose``, with ``delta_map`` and
    ``map_sigma_continuous`` of this module), so that a test can hold the
    table loop to the object loop it replaced, patched functions and raised
    errors included.  ``test_delta_map_against_closure_oracle`` checks
    ``monad.delta_tables`` itself against ``closure``.
    """
    from zdt import poset as ps

    for n in (1, 2, 3):
        for Q in ps.enumerate_posets(n):
            bad = naturality_walk(P, Q, system)
            if bad is not None:
                return bad
    return None


def naturality_walk(P, Q, system):
    """The witness of the first σ^Z-continuous f : P -> Q, in table order,
    that breaks δf ∘ η_P = η_Q ∘ f or δf ∘ μ_P = μ_Q ∘ δδf, or None: the
    object loop of ``monad_naturality_failure`` at one codomain, over every
    monotone map, with δ from this module's ``delta_map``.  It reads no
    table of ``monad``'s naturality pass, which it is the slow path of."""
    eta_p, mu_p = eta_map(P, system), mu_map(P, system)
    eta_q, mu_q = eta_map(Q, system), mu_map(Q, system)
    for f in enumerate_monotone_maps(P, Q):
        if not map_sigma_continuous(f, system):
            continue
        df, bad = delta_map(f, system)
        if df is None:
            return {"law": "functoriality", **bad}
        if df.compose(eta_p).table != eta_q.compose(f).table:
            return {"law": "unit naturality", "map": f.table}
        ddf, bad = delta_map(df, system)
        if ddf is None:
            return {"law": "functoriality", **bad}
        if df.compose(mu_p).table != mu_q.compose(ddf).table:
            return {"law": "multiplication naturality", "map": f.table}
    return None


# -- slow paths of the map layer -------------------------------------------
#
# The loops that the package ran on validated ``MonotoneMap`` objects before
# its map claims read function tables.  Like ``monad_naturality_failure``,
# they use the package's own objects (``preimage``, ``image``, ``compose``)
# and tables (``eta``, ``mu``, ``em_structure_map``, wrapped as maps here)
# and this module's ``delta_map``, so that a test can hold
# each table loop to the loop it replaced, patched functions and raised
# errors included.


def map_sigma_continuous(f, system):
    """σ^Z-continuity through ``MonotoneMap.preimage`` on every closed set."""
    from zdt import topology as tp

    dom_family = tp.gamma_subbasis(f.dom, system)
    for a in tp.gamma_subbasis(f.cod, system).closed:
        if not dom_family.is_closed(f.preimage(a)):
            return False
    return True


def map_preserves_beneath(f, system):
    """x ≺_Z y in the domain implies f(x) ≺_Z f(y), on the map object."""
    from zdt import continuity as ct

    for y in range(f.dom.n):
        if f.image(ct.beneath_set(f.dom, system, y)) & ~ct.beneath_set(
            f.cod, system, f(y)
        ):
            return False
    return True


def map_preserves_cuts(f, system):
    """f(D^δ) ⊆ f(D)^δ over the member ideals D of the domain, one
    ``member_ideals`` call and two cuts per map."""
    from zdt import poset as ps

    for d in system.member_ideals(f.dom):
        if f.image(ps.cut(f.dom, d)) & ~ps.cut(f.cod, f.image(d)):
            return False
    return True


def closures(P, system):
    """cl A for every subset A of P, by mask, one ``closure_subbasic`` each;
    the callers of ``map_preserves_closures`` build it once per (poset,
    system), not once per map."""
    from zdt import topology as tp

    return [tp.closure_subbasic(P, system, a) for a in range(1 << P.n)]


def map_preserves_closures(f, dom_closures, cod_closures):
    """f(cl A) ⊆ cl f(A) over all 2^n subsets A, with the ``closures`` of
    f's domain and codomain."""
    for a, closed in enumerate(dom_closures):
        if f.image(closed) & ~cod_closures[f.image(a)]:
            return False
    return True


def sigma_cont_lemma(P, system, codomains):
    """``lemma-sigma-cont`` at P over the ``codomains``, on map objects."""
    from zdt.reports import CheckResult

    closures_p = closures(P, system)
    for Q in codomains:
        closures_q = closures(Q, system)
        for f in enumerate_monotone_maps(P, Q):
            c1 = map_sigma_continuous(f, system)
            c2 = map_preserves_cuts(f, system)
            if c1 != c2:
                return CheckResult.fails(
                    cod=repr(Q), table=f.table, continuous=c1, preserves_cuts=c2
                )
            if c2 and not map_preserves_closures(f, closures_p, closures_q):
                return CheckResult.fails(
                    cod=repr(Q), table=f.table, reason="closure image escapes"
                )
    return CheckResult.holds()


def em_check(P, xi, system):
    """The unit, multiplication and continuity laws of a structure map, with
    a fresh η, μ, δξ and two compositions per call."""
    from zdt.reports import CheckResult

    et = eta_map(P, system)
    for p in range(P.n):
        if xi(et(p)) != p:
            return CheckResult.fails(law="unit", element=P.labels[p])
    mu_p = mu_map(P, system)
    dxi, bad = delta_map(xi, system)
    if dxi is None:
        return CheckResult.fails(law="multiplication", reason="δ(ξ) ill-typed", **bad)
    if xi.compose(mu_p).table != xi.compose(dxi).table:
        return CheckResult.fails(law="multiplication")
    if not map_sigma_continuous(xi, system):
        return CheckResult.fails(law="continuity")
    return CheckResult.holds()


def em_theorem(P, system):
    """``thm-em`` at P, below the lattice cap: the structure map exists
    exactly where ``monad.delta_cpo_witness``, a sup loop of its own, finds
    no compact set without a sup; it passes ``em_check``; and it is the only
    continuous candidate that does, over
    every monotone table δ(P) -> P from this module's ``monotone_tables``.
    The walk needs no bound at the sizes the tests give it: on the posets
    of at most four points it yields at most 106 tables for any system."""
    from zdt import monad as md
    from zdt.reports import CheckResult

    d = md.delta_object(P, system)
    xi = structure_map(P, system)
    dcpo = md.delta_cpo_witness(P, system) is None
    if dcpo != (xi is not None):
        return CheckResult.fails(delta_cpo=dcpo, structure_map=xi is not None)
    if xi is not None:
        res = em_check(P, xi, system)
        if not res.ok:
            return res
    survivors = []
    for table in monotone_tables(d.poset, P, {}):
        cand = MonotoneMap(d.poset, P, table)
        if map_sigma_continuous(cand, system) and em_check(P, cand, system).ok:
            survivors.append(table)
    if xi is None and survivors:
        return CheckResult.fails(
            reason="structure map on a non-delta-cpo", tables=survivors
        )
    if xi is not None and survivors != [xi.table]:
        return CheckResult.fails(reason="structure map not unique", tables=survivors)
    return CheckResult.holds()


def em_morphisms(P, system, codomains):
    """``prop-em-morph`` at P over the ``codomains``: for a δ-cpo P, the sup
    equation against the square f ∘ ξ_P = ξ_Q ∘ δf, built with ``compose``.
    Which posets are δ-cpos it asks ``monad.delta_cpo_witness``, a sup loop
    of its own, and not the structure map that the claim reads."""
    from zdt import monad as md, poset as ps
    from zdt.reports import CheckResult

    if md.delta_cpo_witness(P, system) is not None:
        return CheckResult.inapplicable(reason="domain not a delta-cpo")
    xi_p = structure_map(P, system)
    for Q in codomains:
        if md.delta_cpo_witness(Q, system) is not None:
            continue
        xi_q = structure_map(Q, system)
        for f in enumerate_monotone_maps(P, Q):
            if not map_sigma_continuous(f, system):
                continue
            eq = all(
                f(ps.sup_of(P, a)) == ps.sup_of(Q, f.image(a))
                for a in md.delta_object(P, system).sets
            )
            df, bad = delta_map(f, system)
            if df is None:
                return CheckResult.fails(reason="functor ill-typed", **bad)
            square = f.compose(xi_p).table == xi_q.compose(df).table
            if eq != square:
                return CheckResult.fails(
                    cod=repr(Q), table=f.table, equation=eq, square=square
                )
    return CheckResult.holds()


def per_system_reports(claim_id, max_size, mode, systems=None):
    """``run_claim``'s reports by evaluating every poset of the ``mode``
    population with each system itself, as the harness did before it
    counted labeled classes by orbit weight and shared one evaluation among
    the systems whose I_Z(P) is the principal ideals.

    It reuses the claim's evaluator and the package's populations, since the
    question is whether the harness may skip evaluations: whether a checker
    reads labels, or reads more of Z than I_Z(P).
    """
    from zdt import claims as cl, poset as ps
    from zdt.reports import ClaimReport
    from zdt.systems import get_system

    claim = cl.get_claim(claim_id)
    reports = []
    for name in claim.systems if systems is None else systems:
        for n in range(1, max_size + 1):
            report = ClaimReport(claim_id, f"{name} n={n}")
            for P in ps.enumerate_posets(n, mode):
                report.record(cl._guarded(claim.evaluate, P, get_system(name)), P)
            reports.append(report)
    return reports


def labeled_reports(claim_id, max_size, systems=None):
    """``run_claim(mode="labeled")`` by evaluating every labeled order itself:
    the verdict of each labeled order must equal the verdict of its class."""
    return per_system_reports(claim_id, max_size, "labeled", systems)


# -- full walks ------------------------------------------------------------
#
# The adjunction's walk over P -> K(L) as the package ran it before it
# decided one table per orbit: every monotone table, in order.  It reads the
# package's own tables and functions through its modules, so that a test can
# hold the orbit walk to the full walk, patched functions and tables
# included.  The naturality walk's full walk is ``naturality_walk``.


def _gamma_map(f, system):
    """Γ^Z on morphisms: A ↦ cl(f(A)), between the two Γ-lattices, as the
    package built it before the adjunction read cl η[A] from subset images."""
    from zdt import monad as md, topology as tp

    LP = md.gamma_lattice(f.dom, system)
    LQ = md.gamma_lattice(f.cod, system)
    table = tuple(
        LQ.index[tp.closure_subbasic(f.cod, system, f.image(a))] for a in LP.elements
    )
    return MonotoneMap(LP.poset, LQ.poset, table, _trusted=True)


def adjunction_walk(P, system, L=None):
    """``monad.verify_adjunction`` deciding every monotone table P -> K(L),
    at L = Γ^Z(P) or at any Γ-lattice ``L`` a test gives it."""
    from zdt import monad as md, poset as ps, topology as tp
    from zdt.reports import CheckResult

    LP = md.gamma_lattice(P, system)
    if L is None:
        L = LP

    D1 = md.delta_object(P, system)
    g_eta = _gamma_map(eta_map(P, system), system)
    gamma_d1 = md.gamma_lattice(D1.poset, system)
    for i, a in enumerate(LP.elements):
        fam = gamma_d1.elements[g_eta(i)]
        union = 0
        for j in ps.bits(fam):
            union |= D1.sets[j]
        back = tp.closure_subbasic(P, system, union)
        if back != a:
            return CheckResult.fails(
                triangle="poset side", closed_set=P.names(a), got=P.names(back)
            )

    _, sub = md.epsilon(L.poset, system)
    et_q = md.eta(sub.poset, system)
    dq = md.delta_object(sub.poset, system)
    for q in range(sub.poset.n):
        fam = dq.sets[et_q[q]]
        s = ps.sup_of(L.poset, sub.to_parent(fam))
        if s != sub.embed[q]:
            return CheckResult.fails(
                triangle="lattice side", compact=L.poset.labels[sub.embed[q]]
            )

    principal = [LP.index[P.down[p]] for p in range(P.n)]
    sup_determined = all(
        LP.sup(sum(1 << principal[p] for p in ps.bits(a))) == i
        for i, a in enumerate(LP.elements)
    )
    joins_l = md.join_table(L.poset)
    bottom, join = joins_l
    gaps = (0, tuple((a, principal[p], k) for a, p, k in tp.closure_gaps(P, system)))
    tops = ps.maxima(P, LP.elements)
    continuous = tp.sigma_z_continuity(P, sub.poset, system)
    for f in ps.monotone_tables(P, sub.poset):
        if not continuous(f):
            continue
        values = [sub.embed[v] for v in f]
        mediator = []
        for pts in tops:
            s = bottom
            for p in pts:
                s = join[s][values[p]]
            mediator.append(s)
        if not md.preserves_joins(mediator, gaps, joins_l):
            return CheckResult.fails(part="mediator", reason="no upper adjoint")
        if not md.preserves_beneath(mediator, LP.poset, L.poset, system):
            return CheckResult.fails(part="mediator", reason="beneath not preserved")
        if not sup_determined:
            return CheckResult.fails(part="uniqueness", reason="sup-determination")
    return CheckResult.holds()


def automorphisms(P):
    """Aut P: the relabelings of all n! that leave the order as it is."""
    return [
        perm for perm in permutations(range(P.n)) if relabel(P.up, perm) == tuple(P.up)
    ]


def orbit(table, pairs):
    """The tables τ∘f∘σ⁻¹ for the pairs (σ, τ) of a group, from f's table."""
    out = set()
    for sigma, tau in pairs:
        g = [None] * len(table)
        for p, v in enumerate(table):
            g[sigma[p]] = tau[v]
        out.add(tuple(g))
    return out


# -- fixtures and patches of the monad tests --------------------------------
#
# The small posets whose tables the tests of the naturality, EM and symmetry
# walks patch, and the patches they share.  They read and patch the
# package, as a test of its failure branches must.


def _poset(n, up):
    from zdt import poset as ps

    return next(Q for Q in ps.enumerate_posets(n) if Q.up == up)


POINT, CHAIN2, ANTI2 = _poset(1, (1,)), _poset(2, (1, 3)), _poset(2, (1, 2))
CHAIN3, ANTI3 = _poset(3, (1, 3, 7)), _poset(3, (1, 2, 4))


def patch_table(monkeypatch, name, target, table):
    """Make the ``monad`` function ``name`` return ``table`` at ``target``."""
    from zdt import monad as md

    real = getattr(md, name)
    monkeypatch.setattr(
        md, name, lambda Q, system: table if Q == target else real(Q, system)
    )


def naturality_pass(P, Q, system, eta_p, mu_p):
    """``monad._naturality_failure`` at the codomain Q, with what it reads
    of P built by ``monad._NaturalityDomain``, as ``verify_monad_laws``
    builds it."""
    from zdt import monad as md

    return md._naturality_failure(Q, system, md._NaturalityDomain(P, system, eta_p, mu_p))


def assert_refused(Q, call, *args):
    """``call(*args)`` refuses the naturality codomain Q, whose closure or
    δ(Q)'s does not fold at maximal points, with a ``ZdtError`` naming Q."""
    import pytest
    from zdt.errors import ZdtError

    with pytest.raises(ZdtError, match="does not fold") as err:
        call(*args)
    assert err.type is ZdtError and repr(Q) in str(err.value)


def continuity_against_the_fibre_walk(monkeypatch):
    """Patch ``topology.sigma_z_continuity`` so that each table it decides,
    on the meet-irreducible closed sets, is held to ``map_sigma_continuous``
    over every closed set; returns the list of (table, outcome) it decided."""
    from zdt import topology as tp

    real = tp.sigma_z_continuity
    decided = []

    def compared(dom, cod, system):
        continuous = real(dom, cod, system)

        def check(table):
            found = continuous(table)
            f = MonotoneMap(dom, cod, table)
            assert found == map_sigma_continuous(f, system), table
            decided.append((table, found))
            return found

        return check

    monkeypatch.setattr(tp, "sigma_z_continuity", compared)
    return decided
