#!/usr/bin/env python3
"""Record the CLAIM count lines that the correctness gate expects.

    PYTHONPATH=src python3 perfbench/record_expected.py

Runs every task of every workload, at full and at smoke depth, in this
process and writes their count lines to ``perfbench/expected.json``.  Run it
only on a commit whose reports are trusted; the file in the tree was recorded
from the commit named in its ``recorded_from`` field.
"""

from __future__ import annotations

import json
import subprocess
import sys

from zdt import claims

import gate
from workloads import WORKLOADS


def main():
    tasks = {}
    for workload in WORKLOADS.values():
        for smoke in (False, True):
            for task in workload.ordered(0, smoke=smoke):
                tasks[task.key] = task
    cells = {}
    for key, task in sorted(tasks.items()):
        reports = claims.run_claim(
            task.claim, task.max_size, mode=task.mode, systems=task.systems
        )
        cells[key] = gate.claim_lines(claims.format_reports(reports))
        print(key, len(cells[key]), file=sys.stderr)
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    with open(gate.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"recorded_from": sha or None, "cells": cells}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
