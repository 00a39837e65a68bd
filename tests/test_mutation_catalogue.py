"""The mutation catalogue stays in step with the code it mutates."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _catalogue():
    spec = importlib.util.spec_from_file_location(
        "catalogue", ROOT / "mutation" / "catalogue.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_fragment_occurs_exactly_once():
    mutants = _catalogue()
    assert mutants
    for m in mutants:
        assert (ROOT / m.file).read_text().count(m.fragment) == 1, m
        assert m.fragment != m.replacement, m


def test_each_named_test_file_exists():
    for m in _catalogue():
        assert m.tests, m
        for test_id in m.tests:
            path, _, name = test_id.partition("::")
            assert name in (ROOT / path).read_text(), test_id
