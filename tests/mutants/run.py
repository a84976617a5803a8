"""Apply every mutant of the catalogue and check that its tests catch it.

    python tests/mutants/run.py              # every mutant
    python tests/mutants/run.py NAME ...     # only these
    python tests/mutants/run.py --list       # names and files

Run from anywhere; it finds the repository from its own path.  Each
mutant is applied to a fresh temporary copy of ``src/`` and ``tests/``
(never to the checkout), and only the mutant's own tests run there, in a
fresh ``python -m pytest``.  A mutant is

* *caught* when its tests fail,
* *survived* when they pass: the guard lost its teeth,
* *stale* when its text no longer occurs exactly once in its file,
* *broken* when pytest could not run its tests (exit code 2 and above:
  a test id that no longer exists, a collection error).

Every mutant is reported by name; the exit code is 0 only when every
mutant was caught.  The runner needs nothing beyond the test suite's own
requirements, and it is not part of the test suite: pytest collects no
file here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalogue import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parents[2]
#: A mutant's tests that have not finished by then count as broken.
TIMEOUT_S = 900


def _copy_tree(target: Path) -> None:
    """What the mutant's tests need: the package, the tests, the config."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    shutil.copy2(ROOT / "pytest.ini", target / "pytest.ini")


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """``(verdict, detail)`` of one mutant."""
    source = (ROOT / mutant.path).read_text()
    found = source.count(mutant.old)
    if found != 1:
        return "stale", f"its text occurs {found} times in {mutant.path}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        (work / mutant.path).write_text(source.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *mutant.tests,
        ]
        try:
            done = subprocess.run(
                command, cwd=work, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "broken", f"its tests did not finish in {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines() or [""]
    tail = lines[-1]
    if done.returncode == 1:
        failed = [line for line in lines if line.startswith("FAILED ")]
        return "caught", failed[0] if failed else tail
    if done.returncode == 0:
        return "survived", tail
    return "broken", f"pytest exited {done.returncode}: {tail}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="list the mutants")
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"no such mutant: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] if args.names else list(MUTANTS)
    if args.list:
        for mutant in chosen:
            print(f"{mutant.name}  {mutant.path}")
        return 0

    verdicts: dict[str, list[str]] = {}
    for mutant in chosen:
        start = time.perf_counter()
        verdict, detail = run_mutant(mutant)
        verdicts.setdefault(verdict, []).append(mutant.name)
        took = time.perf_counter() - start
        print(f"{verdict:8}  {mutant.name}  ({took:.0f} s)  {detail}", flush=True)
    caught = len(verdicts.get("caught", []))
    print(f"{caught} of {len(chosen)} mutants caught")
    for verdict in ("survived", "stale", "broken"):
        for name in verdicts.get(verdict, []):
            print(f"{verdict.upper()}: {name}")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
