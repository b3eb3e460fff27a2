"""Replay the golden corpus through the command line, one fresh interpreter per job.

    python tests/replay_golden.py

Runs ``python -m projderiv.cli --job <name>.json`` from tests/golden/ for every
name in expected.json, with this checkout's src/ on the import path, and
compares stdout with <name>.out and stderr and the exit code with
expected.json, byte for byte.  test_golden.py calls main() in process, under
pytest's warning filters; this sees what a user of the CLI sees, a warning
printed on stderr included.  Exits 1 and names every job that differs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"


def main() -> int:
    expected = json.loads((GOLDEN / "expected.json").read_text())
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    differ = []
    for name, want in sorted(expected.items()):
        proc = subprocess.run(
            [sys.executable, "-m", "projderiv.cli", "--job", f"{name}.json"],
            cwd=GOLDEN, env=env, capture_output=True, timeout=120,
        )
        got = (proc.stdout, proc.stderr, proc.returncode)
        if got != ((GOLDEN / f"{name}.out").read_bytes(), want["stderr"].encode(), want["exit"]):
            differ.append(name)
            print(f"{name}: exit {proc.returncode}, stderr {proc.stderr.decode()!r}")
    print(f"{len(expected) - len(differ)} of {len(expected)} golden jobs replayed byte for byte")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
