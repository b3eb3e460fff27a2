import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

from projderiv import GeometricTail, SeqVector
from projderiv.cli import fmt_seq, fmt_vec, main

VERDICT_RE = re.compile(r"^VERDICT [a-z_]+ (pass|fail) \S+ \S+$")


def write_job(tmp_path, job, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    return str(path)


def run(tmp_path, capsys, job, *extra):
    code = main(["--job", write_job(tmp_path, job), *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ball_job(command, center, radius, **rest):
    return {
        "command": command,
        "set": {"kind": "ball", "center": center, "radius": radius},
        **rest,
    }


# ------------------------------------------------------------- happy paths


def test_project_ball(tmp_path, capsys):
    code, out, err = run(
        tmp_path, capsys, ball_job("project", [0, 0], 1, inputs={"x": [2, 0]})
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "command: project"
    assert lines[1] == "set: ball center=[0, 0] radius=1"
    assert lines[2] == "input x = [2, 0]"
    assert lines[3] == "result = [1, 0]"


def test_project_orthant(tmp_path, capsys):
    job = {"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": [3, -2, 0]}}
    code, out, _ = run(tmp_path, capsys, job)
    assert code == 0
    assert "result = [3, 0, 0]" in out


def test_project_sequence(tmp_path, capsys):
    x = {"overrides": [[1, -2.0]], "tail": {"kind": "geometric", "a": 1.0, "rho": 0.5, "start": 1}}
    job = {"command": "project", "set": {"kind": "cone_l2"}, "inputs": {"x": x}}
    code, out, _ = run(tmp_path, capsys, job)
    assert code == 0
    assert 'result = {"overrides": [[1, 0]], "tail": {"kind": "geometric", "a": 1, "rho": 0.5, "start": 1}}' in out


def test_classify_ball_sphere(tmp_path, capsys):
    code, out, _ = run(
        tmp_path, capsys, ball_job("classify", [0, 0], 1, inputs={"x": [1, 0]})
    )
    assert code == 0
    assert "region = sphere" in out
    assert "signed_gap = 0" in out


def test_classify_orthant_partition(tmp_path, capsys):
    job = {"command": "classify", "set": {"kind": "cone_rn"}, "inputs": {"x": [2, -1, 0]}}
    code, out, _ = run(tmp_path, capsys, job)
    assert code == 0
    assert "region = has_zero" in out
    assert "plus = [0]" in out
    assert "minus = [1]" in out
    assert "zero = [2]" in out


def test_derive_ball_exterior(tmp_path, capsys):
    code, out, _ = run(
        tmp_path, capsys,
        ball_job("derive", [0, 0], 1, inputs={"x": [2, 0], "w": [0, 3]}),
    )
    assert code == 0
    assert "kind = exterior" in out
    assert "linear = true" in out
    assert "anchor = [2, 0]" in out
    assert "scale = 0.5" in out
    assert "apply(w) = [0, 1.5]" in out


def test_derive_ball_exterior_at_extreme_scale(tmp_path, capsys):
    # ‖x − c‖² ≈ 2.9e488 overflowed: the report said scale = 0 and apply(w) = [0, 0]
    job = ball_job("derive", [0, 1.7e244], 1, inputs={"x": [0, 0], "w": [1, 0]})
    code, out, err = run(tmp_path, capsys, job)
    assert code == 0 and err == ""
    scale = next(line for line in out.splitlines() if line.startswith("scale = "))[len("scale = "):]
    assert float(scale) == pytest.approx(1.0 / 1.7e244, rel=1e-15)
    assert f"apply(w) = [{scale}, 0]" in out


def test_derive_ball_sphere_reports_nonexistence(tmp_path, capsys):
    code, out, _ = run(
        tmp_path, capsys,
        ball_job("derive", [0, 0], 1, inputs={"x": [1, 0], "w": [1, 0]}),
    )
    assert code == 0  # reporting a classification is not a failed check
    assert "kind = not_frechet" in out
    assert "linear = false" in out
    assert "apply = unavailable" in out


def test_derive_orthant_directional_only(tmp_path, capsys):
    job = {
        "command": "derive",
        "set": {"kind": "cone_rn"},
        "inputs": {"x": [1, 0, -2], "w": [1, 1, 1]},
    }
    code, out, _ = run(tmp_path, capsys, job)
    assert code == 0
    assert "kind = directional_only" in out
    assert "apply(w) = [1, 1, 0]" in out


def test_derive_sequence_cone_refuses(tmp_path, capsys):
    x = {"overrides": [], "tail": {"kind": "geometric", "a": 1.0, "rho": 0.5, "start": 1}}
    job = {"command": "derive", "set": {"kind": "cone_l2"}, "inputs": {"x": x}}
    code, _, err = run(tmp_path, capsys, job)
    assert code == 2
    assert "gateaux or witness" in err


def test_gateaux_ball_direction_classes(tmp_path, capsys):
    code, out, _ = run(
        tmp_path, capsys,
        ball_job("gateaux", [0, 0], 1, inputs={"x": [1, 0], "w": [1, 0]}),
    )
    assert code == 0
    assert "direction_class = outward_or_tangent" in out
    assert "result = [0, 0]" in out
    code, out, _ = run(
        tmp_path, capsys,
        ball_job("gateaux", [0, 0], 1, inputs={"x": [1, 0], "w": [-1, 0]}),
    )
    assert "direction_class = inward" in out
    assert "result = [-1, -0]" in out or "result = [-1, 0]" in out


# ----------------------------------------------------------------- verify


def test_verify_ball_interior_passes(tmp_path, capsys):
    code, out, _ = run(
        tmp_path, capsys, ball_job("verify", [0, 0], 1, inputs={"x": [0.1, 0.2]})
    )
    assert code == 0
    verdicts = [l for l in out.splitlines() if l.startswith("VERDICT")]
    assert [v.split()[1] for v in verdicts] == ["oracle_agreement", "strict_decay", "fd_match"]
    assert all(v.split()[2] == "pass" for v in verdicts)
    assert sum(1 for l in out.splitlines() if l.startswith("scan radius=")) == 4


def test_verify_ball_sphere_is_unusable(tmp_path, capsys):
    code, _, err = run(
        tmp_path, capsys, ball_job("verify", [0, 0], 1, inputs={"x": [1, 0]})
    )
    assert code == 2
    assert "sphere" in err


def test_verify_orthant_mask_point(tmp_path, capsys):
    job = {"command": "verify", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, -2]}}
    code, out, _ = run(tmp_path, capsys, job)
    assert code == 0
    assert out.count("VERDICT") == 3


def test_verify_orthant_zero_coordinate_is_unusable(tmp_path, capsys):
    job = {"command": "verify", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, 0]}}
    code, _, err = run(tmp_path, capsys, job)
    assert code == 2
    assert "zero coordinate" in err


def test_verify_sequence_cone(tmp_path, capsys):
    x = {"overrides": [[1, -2.0]], "tail": {"kind": "geometric", "a": 1.0, "rho": 0.5, "start": 1}}
    job = {"command": "verify", "set": {"kind": "cone_l2"}, "inputs": {"x": x}}
    code, out, _ = run(tmp_path, capsys, job)
    assert code == 0
    verdicts = [l.split()[1] for l in out.splitlines() if l.startswith("VERDICT")]
    assert verdicts == ["truncation_consistency", "oracle_agreement"]


# ----------------------------------------------------------------- refute


def test_refute_ball_sphere_default_direction(tmp_path, capsys):
    code, out, _ = run(
        tmp_path, capsys, ball_job("refute", [0, 0], 1, inputs={"x": [1, 0]})
    )
    assert code == 0
    assert "direction = [1, 0]" in out
    gap_line = next(l for l in out.splitlines() if l.startswith("gap = "))
    assert math.isclose(float(gap_line.split(" = ")[1]), 1.0, abs_tol=1e-6)
    assert "VERDICT not_frechet pass" in out


def test_refute_ball_interior_fails_verdict(tmp_path, capsys):
    code, out, _ = run(
        tmp_path, capsys,
        ball_job("refute", [0, 0], 1, inputs={"x": [0.2, 0.1], "d": [1, 0]}),
    )
    assert code == 1
    assert "VERDICT not_frechet fail" in out


def test_refute_orthant_certificate(tmp_path, capsys):
    job = {"command": "refute", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, 0, -2]}}
    code, out, _ = run(tmp_path, capsys, job)
    assert code == 0
    assert "direction = [0, 1, 0]" in out
    assert "forward_limit = " in out and "backward_limit = " in out
    gap_line = next(l for l in out.splitlines() if l.startswith("gap = "))
    assert math.isclose(float(gap_line.split(" = ")[1]), 1.0, abs_tol=1e-6)
    assert "VERDICT not_frechet pass" in out


def test_refute_orthant_without_zero_needs_direction(tmp_path, capsys):
    job = {"command": "refute", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, -2]}}
    code, _, err = run(tmp_path, capsys, job)
    assert code == 2
    assert "supply input d" in err


# ---------------------------------------------------------------- witness


def seq_tail_job(command, coeff, **inputs):
    x = {"overrides": [], "tail": {"kind": "geometric", "a": coeff, "rho": 0.5, "start": 1}}
    return {"command": command, "set": {"kind": "cone_l2"}, "inputs": {"x": x, **inputs}}


def test_witness_derivative_candidate(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, seq_tail_job("witness", 1.0, n=10))
    assert code == 0
    assert "candidate = identity" in out
    assert "residual_u = 0.5" in out
    assert "residual_v = 0.66666666666666663" in out
    assert "VERDICT witness_constants pass" in out


def test_witness_interior_escape(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, seq_tail_job("witness", 1.0, epsilon=1.0))
    assert code == 0
    assert "outside_cone = true" in out
    assert "VERDICT escape pass" in out


def test_witness_needs_exactly_one_mode(tmp_path, capsys):
    code, _, err = run(tmp_path, capsys, seq_tail_job("witness", 1.0, n=10, epsilon=1.0))
    assert code == 2 and "exactly one" in err
    code, _, err = run(tmp_path, capsys, seq_tail_job("witness", 1.0))
    assert code == 2 and "exactly one" in err


def test_witness_wrong_set_kind(tmp_path, capsys):
    code, _, err = run(
        tmp_path, capsys, ball_job("witness", [0, 0], 1, inputs={"x": [1, 0], "n": 5})
    )
    assert code == 2
    assert "cone_l2" in err


def test_verify_scan_radius_below_resolution_is_unusable(tmp_path, capsys):
    # a radius of 1e-2 cannot move a coordinate of size 1e200, so every sample
    # pair collapses onto the base point; the scan must refuse, not loop or report 0
    job = {"command": "verify", "set": {"kind": "cone_rn"}, "inputs": {"x": [1e200, -1e200]}}
    code, out, err = run(tmp_path, capsys, job)
    assert code == 2
    assert err.startswith("error: ") and "radius" in err
    assert out == ""


def test_verify_scan_residuals_at_scale_2_pow_890_match_unit_scale(tmp_path, capsys):
    # x and the radii times 2^890 is exact, so every residual keeps its bits;
    # squared differences near 2^1780 overflowed and printed residual=0
    def residuals(scale):
        job = {
            "command": "verify",
            "set": {"kind": "cone_rn"},
            "inputs": {"x": [scale, -scale]},
            "options": {"seed": 4, "radii": [2.0 * scale, 0.2 * scale]},
        }
        code, out, err = run(tmp_path, capsys, job)
        assert code != 2 and err == ""
        return [line.split(" residual=")[1] for line in out.splitlines() if line.startswith("scan ")]

    unit = residuals(1.0)
    assert unit[0] != "0"
    assert residuals(2.0**890) == unit


def test_witness_below_square_underflow_keeps_exact_residuals(tmp_path, capsys):
    # x_600 = 0.5**599 ≈ 2.4e-181 squares to zero in float64; the distances
    # are scaled before squaring, so the residuals stay exactly 1/2 and 2/3
    x = {"overrides": [], "tail": {"kind": "geometric", "a": 1, "rho": 0.5, "start": 1}}
    job = {"command": "witness", "set": {"kind": "cone_l2"}, "inputs": {"x": x, "n": 600}}
    code, out, err = run(tmp_path, capsys, job)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "residual_u = 0.5" in lines
    assert "residual_v = 0.66666666666666663" in lines


def test_witness_coordinate_underflowed_to_zero_keeps_exact_residuals(tmp_path, capsys):
    # x_1200 = 0.5**1199 is 0 in float64; the residuals do not depend on its size
    x = {"overrides": [], "tail": {"kind": "geometric", "a": 1, "rho": 0.5, "start": 1}}
    job = {"command": "witness", "set": {"kind": "cone_l2"}, "inputs": {"x": x, "n": 1200}}
    code, out, err = run(tmp_path, capsys, job)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "residual_u = 0.5" in lines
    assert "residual_v = 0.66666666666666663" in lines


def escape_job(x, epsilon):
    return {"command": "witness", "set": {"kind": "cone_l2"}, "inputs": {"x": x, "epsilon": epsilon}}


def test_witness_escape_refuses_eps_whose_half_underflows(tmp_path, capsys):
    # -5e-324 / 2 rounds to -0.0, which would leave x itself as the "escape"
    code, out, err = run(tmp_path, capsys, escape_job({"overrides": [], "tail": {"kind": "zero"}}, 5e-324))
    assert code == 2 and out == ""
    assert err == "error: eps/2 underflows to 0 in floating point; pick a larger eps\n"
    assert "Traceback" not in err


def test_witness_escape_at_scale_1e200(tmp_path, capsys):
    # eps²/4 and the squared tail mass overflow to inf here; the tail norm does not
    x = {"overrides": [], "tail": {"kind": "geometric", "a": 1e200, "rho": 0.5, "start": 1}}
    code, out, err = run(tmp_path, capsys, escape_job(x, 1e200))
    assert code == 0 and err == ""
    assert "outside_cone = true" in out.splitlines()


@pytest.mark.parametrize(
    "a, rho, epsilon",
    [(1e100, 0.5, 1e-300), (1e308, 0.9, 1.0)],  # dip / norm underflows; the norm overflows
)
def test_witness_escape_at_extreme_tail_to_eps_ratios(tmp_path, capsys, a, rho, epsilon):
    x = {"overrides": [], "tail": {"kind": "geometric", "a": a, "rho": rho, "start": 1}}
    code, out, err = run(tmp_path, capsys, escape_job(x, epsilon))
    assert code == 0 and err == ""
    assert "outside_cone = true" in out.splitlines()
    assert "VERDICT escape pass" in out


def test_witness_escape_distance_across_a_slow_tail_is_exact(tmp_path, capsys):
    # the norm identity printed 2.7701735588603616e-06 here, failing the verdict
    x = {"overrides": [[1, 0.5]], "tail": {"kind": "geometric", "a": 1, "rho": 0.999, "start": 2}}
    code, out, err = run(tmp_path, capsys, escape_job(x, 1e-6))
    assert code == 0 and err == ""
    fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    escape = dict(json.loads(fields["escape"])["overrides"])
    got = float(fields["distance"])
    # exact sum over the float coordinates x holds: its tail values are
    # 0.999**(i - 2), as SeqVector computes them, up to the dip and beyond it
    last = max(escape)
    coord = {i: 1.0 * 0.999 ** (i - 2) for i in range(2, last + 2)}
    coord[1] = 0.5
    exact = sum((Fraction(coord[i]) - Fraction(escape.get(i, 0.0))) ** 2 for i in range(1, last + 1))
    exact += Fraction(coord[last + 1]) ** 2 / (1 - Fraction(0.999) ** 2)
    ulp = math.ulp(got)
    assert Fraction(got - ulp) ** 2 <= exact <= Fraction(got + ulp) ** 2
    assert got < 1e-6


# ------------------------------------------------------- job file validation


def test_missing_job_flag(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unreadable_and_invalid_json(tmp_path, capsys):
    assert main(["--job", str(tmp_path / "absent.json")]) == 2
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["--job", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_unknown_fields_rejected(tmp_path, capsys):
    bad_jobs = [
        {"command": "noop", "set": {"kind": "cone_rn"}, "inputs": {"x": [1]}},
        {"command": "project", "set": {"kind": "hyperplane"}, "inputs": {"x": [1]}},
        {"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": [1], "y": [2]}},
        {"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": [1]}, "options": {"mystery": 1}},
        {"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": [1]}, "extra": 1},
        {"command": "project", "set": {"kind": "cone_rn", "radius": 1}, "inputs": {"x": [1]}},
        {"command": "project", "set": {"kind": "ball", "center": [0]}, "inputs": {"x": [1]}},
    ]
    for job in bad_jobs:
        code, _, err = run(tmp_path, capsys, job)
        assert code == 2, job
        assert err.startswith("error:"), job


def test_input_validation(tmp_path, capsys):
    job = {"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": []}}
    assert run(tmp_path, capsys, job)[0] == 2
    job = {"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, "a"]}}
    assert run(tmp_path, capsys, job)[0] == 2
    job = {"command": "witness", "set": {"kind": "cone_l2"},
           "inputs": {"x": {"overrides": [], "tail": {"kind": "zero"}}, "n": 0}}
    assert run(tmp_path, capsys, job)[0] == 2
    job = seq_tail_job("witness", 1.0, epsilon=-2.0)
    assert run(tmp_path, capsys, job)[0] == 2


def test_seed_validation(tmp_path, capsys):
    job = ball_job("verify", [0, 0], 1, inputs={"x": [0.1, 0.2]})
    code, _, err = run(tmp_path, capsys, job, "--seed", "-1")
    assert code == 2 and "seed" in err
    job["options"] = {"seed": 2**64}
    assert run(tmp_path, capsys, job)[0] == 2


HUGE = 10**400  # a JSON integer beyond the float range


def seq_record(override, a, rho=0.5, index=1, start=2):
    tail = {"kind": "geometric", "a": a, "rho": rho, "start": start}
    return {"overrides": [[index, override]], "tail": tail}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "job,message",
    [
        ({"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, HUGE]}},
         "input x must be finite"),
        (ball_job("project", [HUGE, 0], 1, inputs={"x": [2, 0]}), "set.center must be finite"),
        (ball_job("project", [0, 0], HUGE, inputs={"x": [2, 0]}), "set.radius must be finite"),
        (seq_tail_job("witness", 1.0, epsilon=HUGE), "input epsilon must be finite"),
        (ball_job("refute", [0, 0], 1, inputs={"x": [1, 0]}, options={"steps": [1e-3, HUGE]}),
         "option steps must be finite"),
        (ball_job("verify", [0, 0], 1, inputs={"x": [2, 0]}, options={"radii": [HUGE]}),
         "option radii must be finite"),
        ({"command": "project", "set": {"kind": "cone_l2"}, "inputs": {"x": seq_record(HUGE, 1)}},
         "input x: coordinate value must be finite"),
        ({"command": "project", "set": {"kind": "cone_l2"}, "inputs": {"x": seq_record(1, HUGE)}},
         "input x: tail a must be finite"),
    ],
)
def test_integer_beyond_float_range_is_refused_as_nonfinite(tmp_path, capsys, job, message, sign):
    job = json.loads(json.dumps(job).replace(str(HUGE), str(sign * HUGE)))
    code, out, err = run(tmp_path, capsys, job)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "record,message",
    [
        (seq_record(True, 1), "coordinate value must be a number"),
        (seq_record("1", 1), "coordinate value must be a number"),
        (seq_record(1, "1"), "tail a must be a number"),
        (seq_record(1, False), "tail a must be a number"),
        ({"overrides": [], "tail": {"kind": "geometric", "a": 1, "rho": "0.5", "start": 1}},
         "tail rho must be a number"),
    ],
)
def test_sequence_record_refuses_bools_and_strings(tmp_path, capsys, record, message):
    job = {"command": "project", "set": {"kind": "cone_l2"}, "inputs": {"x": record}}
    code, out, err = run(tmp_path, capsys, job)
    assert (code, out, err) == (2, "", f"error: input x: {message}\n")


# Small jobs of every command whose numeric slots (SLOT) the fuzz test fills.
# samples_per_radius, which sets the amount of work, stays fixed, and the
# escape job keeps rho = 0.5: its witness writes out every tail coordinate up
# to an index that grows like 1/log(1/rho).
SLOT = "<number>"
FUZZ_SEQ = seq_record(SLOT, SLOT, rho=SLOT)
FUZZ_BALL = {"kind": "ball", "center": [SLOT, SLOT], "radius": SLOT}
FUZZ_JOBS = [
    {"command": "project", "set": FUZZ_BALL, "inputs": {"x": [SLOT, SLOT]}},
    {"command": "classify", "set": {"kind": "cone_rn"}, "inputs": {"x": [SLOT, SLOT, SLOT]}},
    {"command": "derive", "set": FUZZ_BALL, "inputs": {"x": [SLOT, SLOT], "w": [SLOT, SLOT]}},
    {"command": "gateaux", "set": FUZZ_BALL, "inputs": {"x": [SLOT, SLOT], "w": [SLOT, SLOT]}},
    {"command": "refute", "set": {"kind": "cone_rn"}, "inputs": {"x": [SLOT, SLOT]},
     "options": {"steps": [SLOT]}},
    {"command": "refute", "set": FUZZ_BALL, "inputs": {"x": [SLOT, SLOT], "d": [SLOT, SLOT]}},
    {"command": "verify", "set": FUZZ_BALL, "inputs": {"x": [SLOT, SLOT]},
     "options": {"radii": [SLOT, SLOT], "samples_per_radius": 2}},
    {"command": "verify", "set": {"kind": "cone_rn"}, "inputs": {"x": [SLOT, SLOT]},
     "options": {"radii": [SLOT], "samples_per_radius": 2}},
    {"command": "verify", "set": {"kind": "cone_l2"}, "inputs": {"x": FUZZ_SEQ}},
    {"command": "gateaux", "set": {"kind": "cone_l2"}, "inputs": {"x": FUZZ_SEQ, "w": FUZZ_SEQ}},
    {"command": "witness", "set": {"kind": "cone_l2"}, "inputs": {"x": FUZZ_SEQ, "n": SLOT}},
    {"command": "witness", "set": {"kind": "cone_l2"},
     "inputs": {"x": seq_record(SLOT, SLOT), "epsilon": SLOT}},
    {"command": "classify", "set": {"kind": "cone_l2"},
     "inputs": {"x": seq_record(1.0, 1.0, index=SLOT, start=SLOT)}},
]
FUZZ_VALUES = st.one_of(
    st.integers(),
    st.integers(min_value=-HUGE, max_value=HUGE),
    st.floats(),  # inf and nan included
    st.booleans(),
    st.text(max_size=2),
)


def fill_slots(template, draw):
    if template == SLOT:
        return draw(FUZZ_VALUES)
    if isinstance(template, dict):
        return {k: fill_slots(v, draw) for k, v in template.items()}
    if isinstance(template, list):
        return [fill_slots(v, draw) for v in template]
    return template


# The contract is the exit code.  Beyond ~1e154, numpy's norms overflow with a
# RuntimeWarning (the open scale defect of ROADMAP item 1); from the CLI that is
# a line on stderr, so here it is shown as a warning rather than raised.
@pytest.mark.filterwarnings("default::RuntimeWarning")
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(template=st.sampled_from(FUZZ_JOBS), data=st.data())
def test_any_numbers_in_a_job_give_an_exit_code_not_a_traceback(tmp_path, capsys, template, data):
    job = fill_slots(template, data.draw)
    code, _, err = run(tmp_path, capsys, job)
    assert code in (0, 1, 2), job
    assert (code == 2) == err.startswith("error: "), (job, err)


# ------------------------------------------------------------- formatters


AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 2.0**-1022, 2.0**1023]
floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(AWKWARD))
ratios = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def per_number(v) -> str:
    return format(float(v), ".17g")  # the formatter before numbers were formatted in bulk


def fmt_seq_per_number(s) -> str:
    rec = s.to_record()
    pairs = ", ".join(f"[{i}, {per_number(v)}]" for i, v in rec["overrides"])
    tail = rec["tail"]
    if tail["kind"] == "zero":
        return '{"overrides": [%s], "tail": {"kind": "zero"}}' % pairs
    return '{"overrides": [%s], "tail": {"kind": "geometric", "a": %s, "rho": %s, "start": %d}}' % (
        pairs, per_number(tail["a"]), per_number(tail["rho"]), tail["start"]
    )


@settings(max_examples=200, derandomize=True)
@given(st.lists(floats | st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=30))
def test_fmt_vec_matches_the_per_number_formatter(values):
    want = "[" + ", ".join(per_number(v) for v in values) + "]"
    assert fmt_vec(np.array(values)) == want
    assert fmt_vec(tuple(values)) == want


@settings(max_examples=200, derandomize=True)
@given(
    st.dictionaries(st.integers(1, 2**70), floats, max_size=30),
    st.none() | st.builds(GeometricTail, floats, ratios, st.integers(1, 2**70)),
)
def test_fmt_seq_matches_the_per_number_formatter(overrides, tail):
    s = SeqVector(overrides, tail)
    assert fmt_seq(s) == fmt_seq_per_number(s)
    assert json.loads(fmt_seq(s)) == json.loads(json.dumps(s.to_record()))


# --------------------------------------------------------- report contract


def test_reports_are_deterministic(tmp_path, capsys):
    job = ball_job(
        "verify", [0.3, -1.2, 0.4], 2.0,
        inputs={"x": [0.5, -1.0, 0.3]},
        options={"seed": 7, "samples_per_radius": 16},
    )
    _, first, _ = run(tmp_path, capsys, job)
    _, second, _ = run(tmp_path, capsys, job)
    assert first == second
    _, reseeded, _ = run(tmp_path, capsys, job, "--seed", "8")
    assert reseeded != first  # scan residual table must reflect the new draw


def test_echoed_inputs_parse_back_bit_exactly(tmp_path, capsys):
    values = [0.1, 1.0 / 3.0, 1e-300, -7.25, 2.0**-52]
    job = {"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": values}}
    _, out, _ = run(tmp_path, capsys, job)
    echo = next(l for l in out.splitlines() if l.startswith("input x = "))
    parsed = [float(tok) for tok in echo.split(" = ")[1].strip("[]").split(", ")]
    assert parsed == values  # exact equality, not approximate


def test_out_file_matches_stdout(tmp_path, capsys):
    job = ball_job("project", [0, 0], 1, inputs={"x": [2, 0]})
    out_path = tmp_path / "report.txt"
    code = main(["--job", write_job(tmp_path, job), "--out", str(out_path)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert out_path.read_text() == stdout


def test_quiet_prints_only_verdicts(tmp_path, capsys):
    job = seq_tail_job("witness", -1.0, n=5)
    code, out, _ = run(tmp_path, capsys, job, "--quiet")
    assert code == 0
    lines = out.splitlines()
    assert lines == ["VERDICT witness_constants pass 0 9.9999999999999998e-13"]


def test_verdict_grammar(tmp_path, capsys):
    jobs = [
        ball_job("verify", [0, 0], 1, inputs={"x": [0.1, 0.2]}),
        ball_job("refute", [0, 0], 1, inputs={"x": [1, 0]}),
        seq_tail_job("witness", 1.0, n=5),
        seq_tail_job("witness", 1.0, epsilon=0.125),
    ]
    for job in jobs:
        _, out, _ = run(tmp_path, capsys, job)
        verdicts = [l for l in out.splitlines() if l.startswith("VERDICT")]
        assert verdicts, job
        for line in verdicts:
            assert VERDICT_RE.match(line), line
