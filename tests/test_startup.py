"""Start-up cost of the command line: importing it loads no module it does not need.

Every CLI job runs in a fresh interpreter, so what ``import projderiv.cli`` loads beyond
numpy is paid by each job.  ``dataclasses`` (code generation for every class),
``fractions`` with ``decimal`` (once used by ``sequences.distance``, across differing tails,
and loaded by no call since), and ``argparse`` with ``gettext`` (for one ``--job`` flag)
stay out of that import."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from projderiv import GeometricTail, SeqVector, distance
from projderiv.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import projderiv.cli
added = sorted(set(sys.modules) - before)
from projderiv import GeometricTail, SeqVector, distance
x = SeqVector({}, GeometricTail(1.0, 0.5, 1))
y = SeqVector({2: 3.0}, GeometricTail(1.0, 0.25, 1))
print(json.dumps({"added": added, "distance": distance(x, y), "loaded": sorted(sys.modules)}))
"""


def test_importing_the_cli_loads_no_dataclasses_fractions_decimal_or_argparse():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert "projderiv.cli" in probe["added"]
    assert not {"dataclasses", "fractions", "decimal", "argparse", "gettext"} & set(probe["added"])
    # distance across differing tails sums its exact series with ints, and loads neither
    assert not {"fractions", "decimal"} & set(probe["loaded"])
    # and that sum is exact: over j ≥ 0,
    # Σ (2^-j − 4^-j)² = 4/3 − 16/7 + 16/15 = 4/35, and y's override swaps (1/2 − 1/4)² for (1/2 − 3)²
    x = SeqVector({}, GeometricTail(1.0, 0.5, 1))
    y = SeqVector({2: 3.0}, GeometricTail(1.0, 0.25, 1))
    assert probe["distance"] == distance(x, y)
    exact = Fraction(4, 35) - Fraction(1, 16) + Fraction(25, 4)
    assert math.isclose(probe["distance"], math.sqrt(exact), rel_tol=2 * sys.float_info.epsilon)


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv,code,stream,text",
    [
        (["--job=" + str(GOLDEN / "project_ball.json")], 0, "out", (GOLDEN / "project_ball.out").read_text()),
        (["-h"], 0, "out", "usage: projderiv [-h] --job JOB\n"),
        ([], 2, "err", "projderiv: error: the following arguments are required: --job\n"),
        (["--job"], 2, "err", "projderiv: error: the following arguments are required: --job\n"),
        (["--job", "a.json", "-q", "b"], 2, "err", "projderiv: error: unrecognized arguments: -q b\n"),
    ],
    ids=["job-equals-path", "short-help", "no-flag", "flag-without-path", "unrecognized"],
)
def test_the_command_line_parses_its_one_flag_without_argparse(capsys, argv, code, stream, text):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert text in (captured.out if stream == "out" else captured.err)
    assert (captured.err if stream == "out" else captured.out) == ""
