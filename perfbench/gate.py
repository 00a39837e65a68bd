"""Correctness gate: CLAIM counts against the recorded lines and against OEIS.

Only the count lines are compared, never the witness blocks, so a change that
picks other witnesses but keeps every count passes.  Independently of the
recording, each cell's population (holds + fails + inapplicable) must equal
the number of posets on n points: OEIS A000112 up to isomorphism, A001035
labeled.
"""

from __future__ import annotations

import json
import os
import re

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# Number of posets on n = 0, 1, 2, ... points.
A000112 = (1, 1, 2, 5, 16, 63, 318, 2045)  # up to isomorphism
A001035 = (1, 1, 3, 19, 219, 4231, 130023)  # labeled

CLAIM_RE = re.compile(
    r"^CLAIM (\S+) (\S+) n=(\d+) holds=(\d+) fails=(\d+) inapplicable=(\d+)$"
)


def claim_lines(text):
    """The CLAIM count lines of a `format_reports` text, witnesses dropped."""
    return [line for line in text.splitlines() if line.startswith("CLAIM ")]


def parse(line):
    """(claim, system, n, holds, fails, inapplicable), or None if malformed."""
    m = CLAIM_RE.match(line)
    if m is None:
        return None
    claim, system, *nums = m.groups()
    return (claim, system, *map(int, nums))


def instances(lines):
    """Instances decided in the given CLAIM lines."""
    total = 0
    for line in lines:
        cell = parse(line)
        if cell is not None:
            total += sum(cell[3:])
    return total


def population_ok(mode, cell):
    table = A001035 if mode == "labeled" else A000112
    n = cell[2]
    return n < len(table) and sum(cell[3:]) == table[n]


def expected_exit_code(want):
    """`zdt search` exits 1 when some cell has a failing instance."""
    return 1 if any(parse(line)[4] for line in want) else 0


def check(task, lines, want, exit_code=None):
    """(cells attempted, cells wrong) for one verdict.

    A cell is wrong when its line is missing, differs from the recorded one,
    is malformed or has the wrong population.  Unexpected extra lines count as
    wrong cells too.  For a CLI verdict, an exit code other than the recorded
    verdict's marks every cell wrong.
    """
    got = {}
    extra = 0
    for line in lines:
        cell = parse(line)
        if cell is None:
            extra += 1
        else:
            got[cell[:3]] = (line, cell)
    wrong = extra
    for line in want:
        key = parse(line)[:3]
        line_got, cell = got.pop(key, (None, None))
        if line_got != line or not population_ok(task.mode, cell):
            wrong += 1
    wrong += len(got)
    attempted = len(want) + extra + len(got)
    if exit_code is not None and exit_code != expected_exit_code(want):
        wrong = attempted
    return attempted, wrong


def load_expected(path=EXPECTED_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["cells"]
