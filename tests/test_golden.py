"""Golden report corpus: every job under tests/golden/ must reproduce its
recorded stdout, stderr and exit code byte for byte.

The corpus covers each accepted (command, set kind) pair and each path that
refuses a job.  To add a case, write ``<name>.json``, run it with
``python3 -m projderiv.cli --job <name>.json`` from that directory, and
record the stdout in ``<name>.out`` and the exit code and stderr in
``expected.json``.
"""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from projderiv.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = json.loads((GOLDEN / "expected.json").read_text())


def test_golden_corpus_is_closed():
    # a job without an expected.json entry or an .out file would drop out of
    # test_golden_report and replay_golden.py without a failure
    jobs = {p.stem for p in GOLDEN.glob("*.json")} - {"expected"}
    reports = {p.stem for p in GOLDEN.glob("*.out")}
    assert jobs == set(EXPECTED) == reports


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_golden_report(name, capsys):
    code = main(["--job", str(GOLDEN / f"{name}.json")])
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.out").read_text()
    assert captured.err == EXPECTED[name]["stderr"]
    assert code == EXPECTED[name]["exit"]


# Metamorphic relation (Chen, Cheung & Yiu 1998): scaling x, the center, the
# radius and d by 2^k scales every length in a report by exactly 2^k and leaves
# every dimensionless number (ratios, derivatives applied to the direction w,
# indices, steps) and every word as it is.  verify is left out: its default scan
# radii are absolute, and its fd_match step is 1e-5·(1 + ‖x‖).
SCALE_JOBS = sorted(
    name
    for name, want in EXPECTED.items()
    if want["exit"] != 2
    and (job := json.loads((GOLDEN / f"{name}.json").read_text()))["command"]
    in ("project", "classify", "derive", "gateaux", "refute")
    and job["set"]["kind"] in ("ball", "cone_rn")
)
NUMBER = re.compile(r"(?<![\w.])-?(?:inf|nan|\d+(?:\.\d+)?(?:e[+-]\d+)?)(?![\w.])")
LENGTH_KEYS = {"set", "input x", "input d", "signed_gap", "anchor"}
PROBE_KEYS = {"direction", "forward_limit", "backward_limit", "gap", "VERDICT"}


def is_length(job: dict, key: str) -> bool:
    if key in PROBE_KEYS:  # lengths along d; the default cone_rn probe is a unit axis
        return job["set"]["kind"] == "ball" or "d" in job["inputs"]
    if key == "result":  # gateaux results are derivatives applied to w
        return job["command"] == "project"
    return key in LENGTH_KEYS


def scale_job(job: dict, k: int) -> dict:
    scaled = json.loads(json.dumps(job))
    ldexp = lambda values: [math.ldexp(v, k) for v in values]
    if scaled["set"]["kind"] == "ball":
        scaled["set"]["center"] = ldexp(scaled["set"]["center"])
        scaled["set"]["radius"] = math.ldexp(scaled["set"]["radius"], k)
    for key in ("x", "d"):
        if key in scaled["inputs"]:
            scaled["inputs"][key] = ldexp(scaled["inputs"][key])
    return scaled


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(name=st.sampled_from(SCALE_JOBS), k=st.integers(-480, 480))
@example(name="refute_ball_direction", k=480)
@example(name="refute_ball_sphere", k=-480)
@example(name="refute_cone_rn_direction", k=400)
@example(name="classify_cone_rn", k=-480)
def test_golden_report_scales_with_the_job(name, k, tmp_path, capsys):
    job = json.loads((GOLDEN / f"{name}.json").read_text())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scale_job(job, k)))
    code = main(["--job", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXPECTED[name]["exit"], "")
    want = (GOLDEN / f"{name}.out").read_text().splitlines()
    got = captured.out.splitlines()
    assert [NUMBER.sub("#", line) for line in got] == [NUMBER.sub("#", line) for line in want]
    for line, base in zip(got, want):
        key = line.split(" = ", 1)[0] if " = " in line else line.split()[0].rstrip(":")
        for g, b in zip(NUMBER.findall(line), NUMBER.findall(base)):
            expected = math.ldexp(float(b), k) if is_length(job, key) else float(b)
            assert g == format(expected, ".17g"), (key, line, base)
