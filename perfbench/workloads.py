"""The benchmark's workloads: fixed task lists whose order comes from a seed.

A task is one verdict: one ``run_claim`` call, or one ``zdt search`` process
for the cold workload.  The seed permutes the order of the claims and nothing
else; the tasks of one claim keep their relative order.  For the in-process
workloads that order decides which ``lru_cache`` entries survive from one
claim to the next; for ``search-cold`` every verdict starts from cold anyway.

Depths are chosen so that one sweep of each workload takes about 4 to 8 s on a
2-core x86 box with the pure-Python kernels, which lets a run repeat its sweep
in fresh processes and report medians.  See README.md for why each was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALL = None  # the claim's default system scope

# The seven claims whose evaluators build the closed-set lattice Γ^Z(P).
LATTICE_CLAIMS = (
    "prop-gamma-wmc",
    "prop-union-sup",
    "gamma-prealgebraic",
    "thm-adjunction",
    "thm-monad",
    "thm-em",
    "prop-em-morph",
)

# The other nineteen, each with the depth of its registry default.
NON_LATTICE_CLAIMS = (
    ("lemma-wmc", 5),
    ("lemma-semilattice", 5),
    ("lemma-int", 5),
    ("lemma-uu-eq", 5),
    ("thm-main-s3", 5),
    ("lemma-sigma-cont", 4),
    ("lemma-lh", 5),
    ("cor-zcpo-lh", 5),
    ("thm-local-wmc", 5),
    ("prop-down-cont", 5),
    ("prop-up-cont", 5),
    ("thm-s4-equiv", 5),
    ("prop-beneath", 5),
    ("lemma-galois-cut", 3),
    ("lemma-galois-closed", 3),
    ("lemma-galois-beneath", 3),
    ("lemma-kz-zcpo", 5),
    ("ctrl-directed", 5),
    ("ctrl-finite", 5),
)

SMOKE_MAX_SIZE = 2


@dataclass(frozen=True)
class Task:
    claim: str
    mode: str  # "up_to_iso" or "labeled"
    max_size: int
    systems: tuple | None = ALL

    @property
    def key(self):
        scope = ",".join(self.systems) if self.systems else "default"
        return f"{self.claim}:{self.mode}:{self.max_size}:{scope}"

    def cli_args(self):
        """`zdt search` arguments; cold tasks are up to iso over default systems."""
        return ["search", "--claim", self.claim, "--max-size", str(self.max_size)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tasks: tuple  # in registry order; ``ordered`` applies the seed
    cold: bool = False  # one `zdt search` process per task
    jobs: int = 1

    def ordered(self, seed, smoke=False):
        """The tasks in the seed's claim order, optionally at smoke depth."""
        claims = sorted({t.claim for t in self.tasks})
        random.Random(seed).shuffle(claims)
        rank = {c: i for i, c in enumerate(claims)}
        tasks = sorted(self.tasks, key=lambda t: rank[t.claim])  # stable
        if smoke:
            tasks = [
                Task(t.claim, t.mode, min(t.max_size, SMOKE_MAX_SIZE), t.systems)
                for t in tasks
            ]
        return tasks


def _up_to_iso(claim, max_size, systems=ALL):
    return Task(claim, "up_to_iso", max_size, systems)


_LABELED = tuple(
    # lemma-sigma-cont maps into every poset of size <= 3; at labeled n=4 it
    # alone would take 14 s, so it stops at n=3.
    Task(claim, "labeled", 3 if claim == "lemma-sigma-cont" else min(depth, 4))
    for claim, depth in NON_LATTICE_CLAIMS
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-cold",
            "one fresh `zdt search` process per claim at its default depth, as a CLI"
            " user pays for a verdict; canonical keys of the n=5 orders dominate",
            tuple(
                _up_to_iso(claim, depth)
                for claim, depth in NON_LATTICE_CLAIMS
                # an odd count keeps the median verdict off a boundary between claims
                if claim in ("lemma-wmc", "thm-local-wmc", "thm-s4-equiv")
            ),
            cold=True,
        ),
        Workload(
            "labeled-sweep",
            "the nineteen non-lattice claims in one process over labeled posets;"
            " about 1,200 (poset, system) keys thrash the 512-entry caches",
            _LABELED,
        ),
        Workload(
            "lattice-claims",
            "the seven Gamma-lattice claims in one process up to iso; the monad,"
            " topology and order-operator layers dominate and the caches fit",
            # The two costliest claims run as two verdicts each, so that the
            # median verdict is one of four of similar cost, not one of the
            # small verdicts whose time depends on which claim filled the caches.
            (
                _up_to_iso("prop-gamma-wmc", 4, ("singletons", "chains", "finite")),
                _up_to_iso("prop-union-sup", 4),
                _up_to_iso("gamma-prealgebraic", 4, ("chains",)),
                _up_to_iso("gamma-prealgebraic", 4, ("directed", "finite")),
                _up_to_iso("thm-adjunction", 3, ("singletons", "chains")),
                _up_to_iso("thm-adjunction", 3, ("directed", "finite")),
                _up_to_iso("thm-monad", 4),
                _up_to_iso("thm-em", 4),
                _up_to_iso("prop-em-morph", 4),
            ),
        ),
        Workload(
            "labeled-jobs2",
            "the labeled-sweep inputs with jobs=2: the only workload that starts"
            " the multiprocessing pool of run_claim",
            _LABELED,
            jobs=2,
        ),
    )
}
