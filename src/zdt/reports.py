"""Three-valued check outcomes and aggregated claim reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Status(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one claim evaluation on one instance."""

    status: Status
    witness: dict | None = None

    @classmethod
    def holds(cls):
        return cls(Status.HOLDS)

    @classmethod
    def fails(cls, **witness):
        return cls(Status.FAILS, witness)

    @classmethod
    def inapplicable(cls, **witness):
        return cls(Status.INAPPLICABLE, witness or None)

    @property
    def ok(self):
        return self.status is not Status.FAILS


WITNESS_CAP = 10


@dataclass
class ClaimReport:
    """Aggregated outcome of a claim over a population of instances.

    Counts are always exact; at most ``WITNESS_CAP`` failure witnesses are
    retained, each a ``(poset, data)`` pair reproducible from the poset text
    format.
    """

    claim_id: str
    population: str
    holds: int = 0
    fails: int = 0
    inapplicable: int = 0
    witnesses: list = field(default_factory=list)

    def record(self, result, instance=None, count=1):
        """Count ``count`` instances with this result; a failure keeps one
        witness while fewer than ``WITNESS_CAP`` are kept."""
        if result.status is Status.HOLDS:
            self.holds += count
        elif result.status is Status.FAILS:
            self.fails += count
            if len(self.witnesses) < WITNESS_CAP:
                self.witnesses.append((instance, result.witness))
        else:
            self.inapplicable += count

    @property
    def total(self):
        return self.holds + self.fails + self.inapplicable

    @property
    def ok(self):
        return self.fails == 0

    def summary_line(self):
        return (
            f"CLAIM {self.claim_id} {self.population} "
            f"holds={self.holds} fails={self.fails} inapplicable={self.inapplicable}"
        )

    def __repr__(self):
        return f"<ClaimReport {self.summary_line()}>"
