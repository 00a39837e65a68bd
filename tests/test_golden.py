"""The whole registry's reports, byte for byte against a committed golden file.

After a deliberate witness change, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py`` and record why in CHANGES.md.
"""

from pathlib import Path

from zdt import claims as cl

# every claim at its default depth
GOLDEN = Path(__file__).parent / "golden" / "registry.txt"


def registry_reports():
    return "".join(cl.format_reports(cl.run_claim(c.id)) for c in cl.registry())


def test_registry_reports_match_golden():
    assert registry_reports() == GOLDEN.read_bytes().decode("utf-8")


if __name__ == "__main__":
    GOLDEN.write_bytes(registry_reports().encode("utf-8"))
