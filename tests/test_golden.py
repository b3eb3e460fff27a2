"""Golden report corpus: every job under tests/golden/ must reproduce its
recorded stdout, stderr and exit code byte for byte.

The corpus covers each accepted (command, set kind) pair and each path that
refuses a job.  To add a case, write ``<name>.json``, run it with
``python3 -m projderiv.cli --job <name>.json`` from that directory, and
record the stdout in ``<name>.out`` and the exit code and stderr in
``expected.json``.
"""

import json
from pathlib import Path

import pytest

from projderiv.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = json.loads((GOLDEN / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_golden_report(name, capsys):
    code = main(["--job", str(GOLDEN / f"{name}.json")])
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.out").read_text()
    assert captured.err == EXPECTED[name]["stderr"]
    assert code == EXPECTED[name]["exit"]
