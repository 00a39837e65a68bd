"""Mutants of the fast paths, each with the tests expected to kill it.

Each entry names a file of the repository, an exact source fragment that
occurs in it once, the fragment's replacement, and the ids of the tests that
must fail on the mutated tree.  ``tests/test_mutation_catalogue.py`` checks
that every fragment occurs exactly once, so that a change that rewrites a
fast path rewrites its mutants too; ``mutation/run.py`` applies each mutant
to a copy of the tree and runs its tests.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str
    fragment: str
    replacement: str
    tests: tuple


SYMMETRY = "tests/test_symmetry.py"
MONAD = "tests/test_monad.py"
CONTINUITY = "tests/test_continuity.py"

MUTANTS = (
    # the lex-least test keeping the greatest table of each orbit
    Mutant(
        "src/zdt/poset.py",
        "                if v < w:\n                    return False",
        "                if v > w:\n                    return False",
        (
            f"{SYMMETRY}::test_automorphisms_and_orbit_sizes_against_brute_force",
            f"{MONAD}::test_adjunction_small",
        ),
    ),
    # automorphisms that keep i <= j but not j <= i
    Mutant(
        "src/zdt/poset.py",
        "                and (down[i] >> j & 1) == (down[v] >> table[j] & 1)\n",
        "",
        (f"{SYMMETRY}::test_automorphisms_of_small_posets_against_brute_force",),
    ),
    # adjunction groups that ignore the beneath table
    Mutant(
        "src/zdt/monad.py",
        "        if any(beneath[hat[y]] != ps.permuted(hat, b) for y, b in enumerate(beneath)):",
        "        if False:",
        (f"{SYMMETRY}::test_a_beneath_table_that_breaks_the_symmetry_shrinks_the_adjunction_group",),
    ),
    # the maxima fold allowed for a closure that reads more than down-sets
    Mutant(
        "src/zdt/monad.py",
        "    ) and all(closures[d] == c for d, c in zip(downs, closures))",
        "    )",
        (f"{SYMMETRY}::test_naturality_on_a_closure_that_reads_more_than_down_sets",),
    ),
    # the fold flag fixed at true
    Mutant(
        "src/zdt/monad.py",
        "    return tuple(index.get(c) for c in closures), foldable",
        "    return tuple(index.get(c) for c in closures), True",
        (
            f"{MONAD}::test_naturality_loop_non_monotone_delta_f",
            f"{MONAD}::test_naturality_loop_on_a_non_monotone_closure",
        ),
    ),
    # the naturality pass folding at maximal points where a closure does not
    # let it
    Mutant(
        "src/zdt/monad.py",
        "    if not (foldable_q and foldable_dq):",
        "    if False:",
        (
            f"{MONAD}::test_naturality_loop_on_a_non_monotone_closure",
            f"{SYMMETRY}::test_naturality_on_a_closure_that_reads_more_than_down_sets",
        ),
    ),
    # μ indexed by the raw union of a family, without its closure.  On an
    # untampered closure the union is already closed: a nonempty family of
    # δδ(P) is the ↓k of its greatest member k.  So only a patched closure
    # that moves the closure of a union tells the two apart
    Mutant(
        "src/zdt/monad.py",
        "        s = compact[union]",
        "        s = D1.index.get(union)",
        (f"{MONAD}::test_sup_tables_are_checked_monotone",),
    ),
    # the δ row loop going on past an image that is not compact
    Mutant(
        "src/zdt/monad.py",
        "        if i is None:\n            break\n",
        "",
        (
            f"{MONAD}::test_naturality_loop_escape_of_delta_f",
            f"{MONAD}::test_delta_map_against_closure_oracle",
        ),
    ),
    # σ^Z-continuity read at the first meet-irreducible closed set only
    Mutant(
        "src/zdt/topology.py",
        "        for c in irreducible:\n            pre = 0",
        "        for c in irreducible[:1]:\n            pre = 0",
        (
            "tests/test_topology.py::test_map_tables_against_object_loops",
            "tests/test_topology.py::test_continuity_on_random_posets_against_the_object_loop",
            f"{MONAD}::test_monad_naturality_against_the_object_loop",
        ),
    ),
    # the adjunction's walk skipping every other table
    Mutant(
        "src/zdt/monad.py",
        "    for f in ps.monotone_tables(P, sub.poset):",
        "    for f in list(ps.monotone_tables(P, sub.poset))[::2]:",
        (f"{MONAD}::test_adjunction_small",),
    ),
    # beneath checked at the first maximal point only
    Mutant(
        "src/zdt/continuity.py",
        "        for x in xs:\n            if not (allowed >> table[x]) & 1:",
        "        for x in xs[:1]:\n            if not (allowed >> table[x]) & 1:",
        (f"{CONTINUITY}::test_preserves_beneath_reads_every_maximal_point",),
    ),
    # adjunction groups that ignore the closure gaps
    Mutant(
        "src/zdt/monad.py",
        "        if {(ps.permuted(sigma, a), ps.permuted(sigma, c)) for a, c in gaps} != gaps:",
        "        if False:",
        (f"{SYMMETRY}::test_a_closure_gap_that_breaks_the_symmetry_shrinks_the_adjunction_group",),
    ),
    # adjunction groups that ignore the closed family of K(L)
    Mutant(
        "src/zdt/monad.py",
        "        if ps.family_action(tau, compact_closed) is not None:",
        "        if True:",
        (
            f"{SYMMETRY}::test_a_compact_family_that_breaks_the_symmetry"
            "_shrinks_the_adjunction_group",
        ),
    ),
    # the compacts' closed form calling a point with nothing outside ↑x
    # (a bottom) not compact
    Mutant(
        "src/zdt/continuity.py",
        "            if not outside or not (ps.cut(P, outside) >> x) & 1:",
        "            if outside and not (ps.cut(P, outside) >> x) & 1:",
        (f"{CONTINUITY}::test_compacts_against_the_beneath_table_and_oracle",),
    ),
    # the unit-law pins of thm-em's search overwriting each other
    Mutant(
        "src/zdt/claims.py",
        "        pins[e] &= 1 << p",
        "        pins[e] = 1 << p",
        (f"{MONAD}::test_em_search_on_a_non_injective_unit_walks_no_table",),
    ),
    # δ(P)'s poset restricted to the whole Γ-lattice
    Mutant(
        "src/zdt/monad.py",
        "ps.restrict(L.poset, k).poset",
        "ps.restrict(L.poset, L.poset.full).poset",
        (f"{MONAD}::test_delta_poset_is_the_family_poset_of_its_sets",),
    ),
    # the sup table holding infima
    Mutant(
        "src/zdt/poset.py",
        "    return tuple(sup_of(P, a) for a in range(1 << P.n))",
        "    return tuple(inf_of(P, a) for a in range(1 << P.n))",
        ("tests/test_poset.py::test_subset_tables_against_oracles_labeled_n4",),
    ),
    # the adjunction's lattice-side triangle reading ε at one fixed index
    Mutant(
        "src/zdt/monad.py",
        "        if eps[family_index[dq.sets[e]]] != sub.embed[q]:",
        "        if eps[0] != sub.embed[q]:",
        (f"{MONAD}::test_adjunction_lattice_side_reads_the_counit",),
    ),
    # the shared monotone check of μ, ξ, ε and δf letting every table through
    Mutant(
        "src/zdt/poset.py",
        "    if monotone_on_covers(table, covers, cod):\n        return\n",
        "    return\n",
        (
            f"{MONAD}::test_sup_tables_are_checked_monotone",
            f"{MONAD}::test_naturality_loop_non_monotone_delta_f",
        ),
    ),
    # the shared monotone check naming the last broken pair at its point
    Mutant(
        "src/zdt/poset.py",
        "        for j in bits(dom.up[i]):\n            if not (up[table[i]] >> table[j]) & 1:",
        "        for j in reversed(list(bits(dom.up[i]))):\n"
        "            if not (up[table[i]] >> table[j]) & 1:",
        ("tests/test_poset.py::test_check_monotone_names_the_constructors_pair",),
    ),
    # δ(P)'s unit table storing the index after each ↓p
    Mutant(
        "src/zdt/monad.py",
        "        unit.append(i)\n",
        "        unit.append(i + 1)\n",
        (f"{MONAD}::test_eta_is_order_embedding",),
    ),
    # δ(P)'s two closed forms swapped between the system groups
    Mutant(
        "src/zdt/monad.py",
        "    if system in (FINITE, CONNECTED):",
        "    if system not in (FINITE, CONNECTED):",
        (f"{MONAD}::test_delta_sets_by_system",),
    ),
    # the hoisted unit equation ignoring a failing value
    Mutant(
        "src/zdt/monad.py",
        "domain.diagonal and all(compact_q[1 << q] == eta_q[q] for q in range(Q.n))",
        "domain.diagonal",
        (
            f"{MONAD}::test_naturality_unit_equation_failing_at_one_value",
            f"{MONAD}::test_naturality_loop_unit_branch",
        ),
    ),
    # the hoisted escape and multiplication equation on diagonal rows
    # ignoring a failing value
    Mutant(
        "src/zdt/monad.py",
        "        compact_dq[1 << v] is not None and mu_q[compact_dq[1 << v]] == v\n",
        "        True\n",
        (f"{MONAD}::test_naturality_diagonal_rows_failing_at_one_value",),
    ),
    # the escape of δf decided per codomain without the width of δ(P)
    Mutant(
        "src/zdt/monad.py",
        "        and all(c is not None for m, c in enumerate(compact_q) if m.bit_count() <= domain.width)\n",
        "",
        (f"{MONAD}::test_naturality_escape_of_delta_f_past_the_width",),
    ),
    # the empty row of δδ(P) decided per codomain without its equation
    Mutant(
        "src/zdt/monad.py",
        " and mu_q[compact_dq[0]] == compact_q[0])",
        ")",
        (f"{MONAD}::test_naturality_empty_family_failing",),
    ),
    # prop-em-morph reading the codomain's cuts as its sups
    Mutant(
        "src/zdt/claims.py",
        "        sups_q = ps.sup_table(Q)",
        "        sups_q = ps.cut_table(Q)",
        (f"{MONAD}::test_em_morphisms_against_the_object_loop",),
    ),
)
