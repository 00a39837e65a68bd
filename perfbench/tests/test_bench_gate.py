"""The correctness gate trips on altered, missing or mis-populated cells."""

import pytest

import gate
from workloads import WORKLOADS, Task

TASK = Task("lemma-wmc", "up_to_iso", 5)
LABELED = Task("lemma-wmc", "labeled", 4)


@pytest.fixture(scope="module")
def expected():
    return gate.load_expected()


def test_recorded_lines_pass(expected):
    want = expected[TASK.key]
    assert len(want) == 25
    assert gate.check(TASK, want, want, exit_code=0) == (25, 0)


def test_one_altered_count_trips_the_gate(expected):
    want = expected[TASK.key]
    got = list(want)
    got[7] = got[7].replace("fails=0", "fails=1")
    assert got[7] != want[7]
    assert gate.check(TASK, got, want) == (25, 1)


def test_missing_and_extra_lines_count_as_wrong(expected):
    want = expected[TASK.key]
    assert gate.check(TASK, want[:-2], want) == (25, 2)
    extra = "CLAIM lemma-wmc finite n=6 holds=318 fails=0 inapplicable=0"
    assert gate.check(TASK, want + [extra, "garbage"], want) == (27, 2)


def test_population_is_checked_against_oeis_independently(expected):
    want = expected[LABELED.key]
    # a recording that agrees with itself but not with A001035 still fails
    bad = [line.replace("n=4 holds=219", "n=4 holds=218") for line in want]
    assert bad != want
    assert gate.check(LABELED, bad, bad) == (len(bad), 5)
    assert gate.population_ok("up_to_iso", gate.parse(expected[TASK.key][-1]))


def test_exit_code_is_part_of_a_cli_verdict(expected):
    want = expected[TASK.key]
    assert gate.check(TASK, want, want, exit_code=1) == (25, 25)
    for claim in ("thm-local-wmc", "thm-s4-equiv"):  # recorded findings
        assert gate.expected_exit_code(expected[Task(claim, "up_to_iso", 5).key]) == 1


def test_every_task_has_a_recording(expected):
    for workload in WORKLOADS.values():
        for smoke in (False, True):
            for task in workload.ordered(7, smoke=smoke):
                want = expected[task.key]
                assert want and all(gate.population_ok(task.mode, gate.parse(w)) for w in want)
