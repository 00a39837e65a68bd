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
    # naturality groups that ignore the unit
    Mutant(
        "src/zdt/monad.py",
        "            and ps.fixes(eta_p, sigma, hat)\n",
        "",
        (f"{SYMMETRY}::test_a_unit_that_breaks_the_symmetry_shrinks_the_codomain_group",),
    ),
    # naturality groups that ignore the multiplication
    Mutant(
        "src/zdt/monad.py",
        "            and ps.fixes(mu_p, twice, hat)\n",
        "",
        (
            f"{SYMMETRY}::test_a_multiplication_that_breaks_the_symmetry"
            "_shrinks_the_codomain_group",
        ),
    ),
    # naturality codomain groups that ignore the closure of Q
    Mutant(
        "src/zdt/monad.py",
        "        and ps.fixes(compact_q, tp.subset_images(rho), hat)\n",
        "",
        (f"{SYMMETRY}::test_a_closure_that_breaks_the_symmetry_shrinks_the_codomain_group",),
    ),
    # adjunction groups that ignore the beneath table
    Mutant(
        "src/zdt/monad.py",
        "        if any(beneath[hat[y]] != ps.permuted(hat, b) for y, b in enumerate(beneath)):",
        "        if False:",
        (f"{SYMMETRY}::test_a_beneath_table_that_breaks_the_symmetry_shrinks_the_adjunction_group",),
    ),
    # an explicit L walked by orbits of Aut P
    Mutant(
        "src/zdt/monad.py",
        "actions = _adjunction_actions(P, system, LP, sub) if own else ()",
        "actions = _adjunction_actions(P, system, LP, sub) if True else ()",
        (f"{SYMMETRY}::test_explicit_lattice_keeps_the_full_walk",),
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
    # the adjunction's walk skipping every other table
    Mutant(
        "src/zdt/monad.py",
        "    for f in ps.monotone_tables(P, sub.poset, cap=max(P.n, sub.poset.n)):",
        "    for f in list(ps.monotone_tables(P, sub.poset, cap=max(P.n, sub.poset.n)))[::2]:",
        (f"{MONAD}::test_adjunction_small",),
    ),
    # beneath checked at the first maximal point only
    Mutant(
        "src/zdt/continuity.py",
        "        for x in xs:\n            if not (allowed >> table[x]) & 1:",
        "        for x in xs[:1]:\n            if not (allowed >> table[x]) & 1:",
        ("tests/test_continuity.py::test_preserves_beneath_reads_every_maximal_point",),
    ),
)
