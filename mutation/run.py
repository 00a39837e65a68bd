"""Apply each mutant of ``mutation/catalogue.py`` to a copy of the tree and
run the tests it names; print the killed and the surviving mutants as JSON.

    python mutation/run.py [--workdir DIR] [INDEX ...]

Each mutant gets a fresh copy of the files git tracks or would track in a temporary directory
(under DIR if given).  A mutant is killed when its tests fail on the copy.
Exits 1 if any mutant survives.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "mutation"))

from catalogue import MUTANTS  # noqa: E402


def tracked_files():
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    return [name for name in out.decode().split("\0") if (ROOT / name).is_file()]


def run_mutant(mutant, workdir):
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for name in tracked_files():
            target = Path(tmp, name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, target)
        path = Path(tmp, mutant.file)
        source = path.read_text()
        if source.count(mutant.fragment) != 1:
            return "fragment not found once"
        path.write_text(source.replace(mutant.fragment, mutant.replacement))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        return "killed" if proc.returncode != 0 else "survived"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None)
    parser.add_argument("indices", nargs="*", type=int)
    args = parser.parse_args(argv)
    chosen = args.indices or range(len(MUTANTS))
    results = {}
    for i in chosen:
        m = MUTANTS[i]
        results[i] = {"file": m.file, "replacement": m.replacement,
                      "outcome": run_mutant(m, args.workdir)}
    killed = [i for i, r in results.items() if r["outcome"] == "killed"]
    survived = [i for i, r in results.items() if r["outcome"] != "killed"]
    print(json.dumps({"killed": killed, "survived": survived, "mutants": results},
                     indent=1, ensure_ascii=False))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
