import itertools
import json
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import numpy as np

import projderiv
from projderiv import GeometricTail, SeqVector, sequences
from projderiv.cli import fmt_seq, fmt_vec, main

VERDICT_RE = re.compile(r"^VERDICT [a-z_]+ (pass|fail) \S+ \S+$")


def write_job(tmp_path, job, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    return str(path)


def run(tmp_path, capsys, job):
    code = main(["--job", write_job(tmp_path, job)])
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



@pytest.mark.parametrize(
    "center,x,result",
    [([0, 0], [2, -0.0], "[1, 0]"), ([-0.0, 0], [-5e-324, 2], "[-0, 1]")],
    ids=["positive-zero-center", "negative-zero-center"],
)
def test_project_ball_prints_the_sign_of_a_zero_as_before(tmp_path, capsys, center, x, result):
    code, out, err = run(tmp_path, capsys, ball_job("project", center, 1, inputs={"x": x}))
    assert (code, err, out.splitlines()[3]) == (0, "", f"result = {result}")


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


@pytest.mark.parametrize("r", [1e200, 1e-200])
def test_gateaux_ball_sphere_at_extreme_radii(tmp_path, capsys, r):
    # r² overflowed at 1e200 (exit 2, "Numerical result out of range") and
    # underflowed to 0 at 1e-200 (exit 2, "float division by zero")
    job = ball_job("gateaux", [0, 0], r, inputs={"x": [r, 0], "w": [1, 1]})
    code, out, err = run(tmp_path, capsys, job)
    assert code == 0 and err == ""
    assert out.splitlines()[-2:] == ["direction_class = outward_or_tangent", "result = [0, 1]"]


@pytest.mark.parametrize(
    "set_spec", [{"kind": "ball", "center": [0, 0], "radius": 1}, {"kind": "cone_rn"}],
    ids=["ball", "cone_rn"],
)
def test_gateaux_refuses_a_direction_of_the_wrong_length(tmp_path, capsys, set_spec):
    job = {"command": "gateaux", "set": set_spec, "inputs": {"x": [1, 0], "w": [1, 0, 0]}}
    code, out, err = run(tmp_path, capsys, job)
    assert (code, out, err) == (2, "", "error: dimension mismatch: 2 vs 3\n")


# verify and refute printed numpy's "operands could not be broadcast" (verify after its
# whole scan), and derive its deriv.apply's "3 vs 2", the other way round
@pytest.mark.parametrize("command,key", [("verify", "w"), ("refute", "d"), ("derive", "w")])
@pytest.mark.parametrize(
    "set_spec,x",
    [({"kind": "ball", "center": [0, 0], "radius": 1}, [2, 0]), ({"kind": "cone_rn"}, [2, -1])],
    ids=["ball", "cone_rn"],
)
@pytest.mark.parametrize("direction", [[1, 0, 0], [1]], ids=["longer", "shorter"])
def test_every_dense_direction_of_the_wrong_length_is_refused_alike(
    tmp_path, capsys, monkeypatch, command, key, set_spec, x, direction
):
    monkeypatch.setattr(projderiv.cli, "strict_residual_scan", None)  # refused before any scan
    job = {"command": command, "set": set_spec, "inputs": {"x": x, key: direction}}
    code, out, err = run(tmp_path, capsys, job)
    assert (code, out, err) == (2, "", f"error: dimension mismatch: 2 vs {len(direction)}\n")


def test_derive_at_a_sphere_point_refuses_a_direction_of_the_wrong_length(tmp_path, capsys):
    # printed "apply = unavailable" and exited 0
    job = ball_job("derive", [0, 0], 1, inputs={"x": [1, 0], "w": [1, 0, 0]})
    code, out, err = run(tmp_path, capsys, job)
    assert (code, out, err) == (2, "", "error: dimension mismatch: 2 vs 3\n")


@pytest.mark.parametrize(
    "w,result", [([-1e-200, 0], "[-9.9999999999999998e-201, 0]"), ([-1e-300, 1], "[-1e-300, 1]")]
)
def test_gateaux_direction_class_agrees_with_the_result(tmp_path, capsys, w, result):
    # ⟨x − c, w⟩ was formed unscaled and underflowed to -0: the report said
    # outward_or_tangent next to the inward result
    job = ball_job("gateaux", [0, 0], 1e-200, inputs={"x": [1e-200, 0], "w": w})
    code, out, err = run(tmp_path, capsys, job)
    assert code == 0 and err == ""
    assert out.splitlines()[-2:] == ["direction_class = inward", f"result = {result}"]


# ⟨w, x − c⟩ overflowed to nan: the job printed two RuntimeWarnings, then
# direction_class = inward and result = w; direction_class and apply share one side
@pytest.mark.filterwarnings("error")
def test_gateaux_direction_class_where_w_is_near_the_float_max(tmp_path, capsys):
    w = [1.7e308, -1e308] + [1.7e308, -1.7e308] * 7
    job = ball_job("gateaux", [0] * 16, 3.96, inputs={"x": [0.99] * 16, "w": w})
    code, out, err = run(tmp_path, capsys, job)
    assert code == 0 and err == ""
    result = "result = [1.65625e+308, -1.0437499999999999e+308" + (
        ", 1.65625e+308, -1.7437499999999999e+308" * 7) + "]"
    assert out.splitlines()[-2:] == ["direction_class = outward_or_tangent", result]


# r/‖s‖ overflowed on the far path: project printed two RuntimeWarnings and [nan, inf]
@pytest.mark.filterwarnings("error")
def test_project_far_point_onto_a_ball_of_radius_near_the_float_max(tmp_path, capsys):
    job = ball_job("project", [0, -1.1e308], 1.7e308, inputs={"x": [0, 1e308]})
    code, out, err = run(tmp_path, capsys, job)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "result = [0, 5.9999999999999997e+307]"


# x − c overflows: derive printed scale = 0 and apply(w) = [nan, nan] after a
# RuntimeWarning, and refute a RuntimeWarning before its error line
FAR_APART = {"center": [-1e308, 0], "radius": 1}


@pytest.mark.filterwarnings("error")
def test_derive_where_point_and_center_are_too_far_apart(tmp_path, capsys):
    job = ball_job("derive", **FAR_APART, inputs={"x": [1e308, 0], "w": [0, 1]})
    code, out, err = run(tmp_path, capsys, job)
    assert code == 0 and err == ""
    assert "scale = 4.9999999999999995e-309" in out.splitlines()
    assert out.splitlines()[-1] == "apply(w) = [0, 4.9999999999999995e-309]"


# ⟨w, a⟩/⟨a, a⟩ overflowed in w: derive printed apply(w) = [-inf, inf] after a
# RuntimeWarning; w is radial, so the derivative maps it to 0
@pytest.mark.filterwarnings("error")
def test_derive_where_w_is_near_the_float_max(tmp_path, capsys):
    job = ball_job("derive", [1e308, -1e308], 1e308, inputs={"x": [-1e308, 1e308], "w": [1e308, -1e308]})
    code, out, err = run(tmp_path, capsys, job)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "apply(w) = [0, 0]"


@pytest.mark.filterwarnings("error")
def test_refute_where_point_and_center_are_too_far_apart(tmp_path, capsys):
    job = ball_job("refute", **FAR_APART, inputs={"x": [1e308, 0]})
    code, out, err = run(tmp_path, capsys, job)
    want = "error: x and the center are too far apart: x − center leaves the float range\n"
    assert (code, out, err) == (2, "", want)


# verify scans and differences at x − c, on the ball of radius r centred at 0: where
# x − c overflows, the first job printed strict_decay 31.1 (a false failure) and the
# second passed; both are refused, before any scan line
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius,x", [(1e307, [-1e308, 1]), (1, [-1e308, 0])], ids=["r1e307", "r1"])
def test_verify_where_point_and_center_are_too_far_apart(tmp_path, capsys, radius, x):
    job = ball_job("verify", [1e308, 0], radius, inputs={"x": x})
    code, out, err = run(tmp_path, capsys, job)
    want = "error: x and the center are too far apart: x − center leaves the float range\n"
    assert (code, out, err) == (2, "", want)


# x + h·w overflowed in fd_match: the job printed "RuntimeWarning: overflow encountered
# in add" and exited with "error: vector coordinates must be finite", naming no step
@pytest.mark.filterwarnings("error")
def test_verify_refuses_an_fd_match_step_that_leaves_the_float_range(tmp_path, capsys):
    job = {
        "command": "verify",
        "set": {"kind": "cone_rn"},
        "inputs": {"x": [1.7e308, 1.7e308], "w": [1, 0]},
        "options": {"radii": [1e304, 1e303, 1e302, 1e301]},
    }
    code, out, err = run(tmp_path, capsys, job)
    want = "error: fd_match step 4.2499999999999998e+307 takes x ± h·w out of the float range\n"
    assert (code, out, err) == (2, "", want)


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


# 1e8 away from the origin, the scan's points and the quotient's ends rounded at 1e8:
# residuals grew below radius 1e-3 (strict_decay 14.8) and fd_match read 3.4e-3
def test_verify_ball_centred_1e8_away_passes(tmp_path, capsys):
    job = ball_job("verify", [1e8, -3e7], 2, inputs={"x": [100000003.5, -29999998.25]})
    code, out, err = run(tmp_path, capsys, job)
    assert (code, err) == (0, "")
    verdicts = [l.split()[1:3] for l in out.splitlines() if l.startswith("VERDICT")]
    assert verdicts == [["oracle_agreement", "pass"], ["strict_decay", "pass"], ["fd_match", "pass"]]


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


def test_refute_orthant_threshold_at_scale_1e200(tmp_path, capsys):
    # the threshold counted ‖x‖ although the unit probe moves only x's zero
    # coordinate: it read 2.2204460492503129e+191 and the verdict failed
    job = {"command": "refute", "set": {"kind": "cone_rn"}, "inputs": {"x": [1e200, 0]}}
    code, out, err = run(tmp_path, capsys, job)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "VERDICT not_frechet pass 1 2.2204460492503127e-09"


def test_refute_orthant_threshold_beyond_the_float_range(tmp_path, capsys):
    # ‖x‖ is beyond the float range, but the probe moves only x's zero coordinate:
    # the threshold saturated to inf and the verdict failed
    job = {"command": "refute", "set": {"kind": "cone_rn"}, "inputs": {"x": [1.5e308, 1.5e308, 0]}}
    code, out, err = run(tmp_path, capsys, job)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "VERDICT not_frechet pass 1 2.2204460492503127e-09"


def test_refute_ball_threshold_beyond_the_float_range_saturates(tmp_path, capsys):
    # ‖x‖ is beyond the float range: the threshold is inf, which no gap exceeds
    job = ball_job("refute", [0, 0], 1, inputs={"x": [1.5e308, 1.5e308], "d": [1, 0]})
    code, out, err = run(tmp_path, capsys, job)
    assert code == 1 and err == ""
    assert re.fullmatch(r"VERDICT not_frechet fail \S+ inf", out.splitlines()[-1])


@pytest.mark.parametrize(
    "job",
    [
        ball_job("refute", [0, 0], 1, inputs={"x": [0.6, 0.8]}),  # sphere point, radial probe
        {"command": "refute", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, 0, -2]}},  # zero axis
        {"command": "refute", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, 0, -2], "d": [0.6, 0.8, 0]}},
    ],
)
def test_refute_reads_only_the_smallest_step(tmp_path, capsys, job):
    reports = []
    for options in ({"steps": [1e-3, 1e-4, 1e-5]}, {"steps": [1e-5]}, {}):
        code, out, err = run(tmp_path, capsys, {**job, "options": options})
        assert err == ""
        reports.append((code, [line for line in out.splitlines() if not line.startswith("option steps = ")]))
    assert reports[0] == reports[1] == reports[2]


# cone_rn printed "VERDICT not_frechet fail 0 0" and exited 1
@pytest.mark.parametrize(
    "set_spec,x",
    [({"kind": "ball", "center": [0, 0], "radius": 1}, [1, 0]), ({"kind": "cone_rn"}, [0, 2])],
    ids=["ball", "cone_rn"],
)
def test_refute_refuses_a_zero_direction_on_both_dense_kinds(tmp_path, capsys, set_spec, x):
    job = {"command": "refute", "set": set_spec, "inputs": {"x": x, "d": [0, 0]}}
    code, out, err = run(tmp_path, capsys, job)
    assert (code, out, err) == (2, "", "error: refutation direction is zero; supply input d\n")


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


# ------------------------------------------------------------ command table

SEQ_X = {"overrides": [[1, -2.0]], "tail": {"kind": "geometric", "a": 1.0, "rho": 0.5, "start": 1}}
RUNS = [  # one job per (command, set kind) pair that runs, every verdict passing
    ball_job("project", [0, 0], 1, inputs={"x": [2, 0]}),
    {"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, -2]}},
    {"command": "project", "set": {"kind": "cone_l2"}, "inputs": {"x": SEQ_X}},
    ball_job("classify", [0, 0], 1, inputs={"x": [2, 0]}),
    {"command": "classify", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, -2]}},
    {"command": "classify", "set": {"kind": "cone_l2"}, "inputs": {"x": SEQ_X}},
    ball_job("derive", [0, 0], 1, inputs={"x": [2, 0]}),
    {"command": "derive", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, -2]}},
    ball_job("gateaux", [0, 0], 1, inputs={"x": [1, 0], "w": [1, 0]}),
    {"command": "gateaux", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, 0], "w": [1, 1]}},
    {"command": "gateaux", "set": {"kind": "cone_l2"}, "inputs": {"x": SEQ_X, "w": SEQ_X}},
    ball_job("verify", [0, 0], 1, inputs={"x": [2, 0]}),
    {"command": "verify", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, -2]}},
    {"command": "verify", "set": {"kind": "cone_l2"}, "inputs": {"x": SEQ_X}},
    ball_job("refute", [0, 0], 1, inputs={"x": [1, 0]}),
    {"command": "refute", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, 0]}},
    {"command": "witness", "set": {"kind": "cone_l2"}, "inputs": {"x": SEQ_X, "n": 10}},
]
DERIVE_L2 = (
    "derive is not available for cone_l2 (the projection is nowhere Fréchet differentiable); "
    "use gateaux or witness"
)
REFUSED = {  # (command, set kind) -> its refusal, printed before any input is read
    ("derive", "cone_l2"): DERIVE_L2,
    ("refute", "cone_l2"): "refute applies to ball and cone_rn; for cone_l2 use witness",
    ("witness", "ball"): "witness applies to cone_l2 only",
    ("witness", "cone_rn"): "witness applies to cone_l2 only",
}


def test_the_command_table_covers_every_pair():
    runs = {(job["command"], job["set"]["kind"]) for job in RUNS}
    assert len(runs) == len(RUNS) == 17 and not runs & set(REFUSED)
    assert runs | set(REFUSED) == set(itertools.product(projderiv.cli.COMMANDS, projderiv.cli.SET_KINDS))


@pytest.mark.parametrize("job", RUNS, ids=lambda job: f"{job['command']}-{job['set']['kind']}")
def test_every_allowed_pair_runs(tmp_path, capsys, job):
    code, out, err = run(tmp_path, capsys, job)
    assert (code, err) == (0, "")
    assert out.startswith(f"command: {job['command']}\nset: {job['set']['kind']}")


# derive and refute on cone_l2 read x first: with no x, they printed
# "command 'derive' on set 'cone_l2' needs input 'x'"
@pytest.mark.parametrize("with_x", [True, False], ids=["with-x", "no-x"])
@pytest.mark.parametrize("pair", sorted(REFUSED), ids="-".join)
def test_every_refused_pair_is_refused_before_its_inputs_are_read(tmp_path, capsys, pair, with_x):
    command, kind = pair
    x = {"cone_l2": SEQ_X, "ball": [2, 0], "cone_rn": [1, -2]}[kind]
    job = ball_job(command, [0, 0], 1) if kind == "ball" else {"command": command, "set": {"kind": kind}}
    job["inputs"] = {"x": x, "n": 10} if with_x else {}
    code, out, err = run(tmp_path, capsys, job)
    assert (code, out, err) == (2, "", f"error: {REFUSED[pair]}\n")


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
        assert (code, err) == (0, "")  # fd_match failed at 2^890 while its step was capped at 1e-5
        return [line.split(" residual=")[1] for line in out.splitlines() if line.startswith("scan ")]

    unit = residuals(1.0)
    assert unit[0] != "0"
    assert residuals(2.0**890) == unit


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "job,step",
    [
        # ‖x‖ and the gap to the sphere are inf, and so is 1e-5·(1 + ‖x‖)
        (ball_job("verify", [0, 0], 1, inputs={"x": [1.5e308, 1.5e308], "w": [1, 0]},
                  options={"radii": [1e300], "samples_per_radius": 2}), "inf"),
        # min |x_i| / 4 rounds to 0
        ({"command": "verify", "set": {"kind": "cone_rn"}, "inputs": {"x": [5e-324, -5e-324]},
          "options": {"radii": [5e-324], "samples_per_radius": 2}}, "0"),
    ],
    ids=["ball-inf", "cone_rn-0"],
)
def test_verify_refuses_an_fd_step_outside_the_float_range(tmp_path, capsys, job, step):
    code, out, err = run(tmp_path, capsys, job)
    assert (code, out, err) == (2, "", f"error: fd_match step {step} leaves the float range\n")


# δ/4·10^-3 rounded to 0, and the scan refused an option the job never set:
# "error: radii must be positive and finite"
@pytest.mark.parametrize(
    "job,delta",
    [
        ({"command": "verify", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, 5e-324]}},
         "4.9406564584124654e-324"),
        ({"command": "verify", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, 4e-323]}},
         "3.9525251667299724e-323"),
        (ball_job("verify", [0, 0], 5e-324, inputs={"x": [1e-323, 0]}), "4.9406564584124654e-324"),
    ],
    ids=["cone_rn-5e-324", "cone_rn-4e-323", "ball-5e-324"],
)
def test_verify_refuses_default_radii_that_underflow(tmp_path, capsys, job, delta):
    code, out, err = run(tmp_path, capsys, job)
    want = f"error: default scan radii round to 0 at smooth radius {delta}; supply option radii\n"
    assert (code, out, err) == (2, "", want)


def count_calls(monkeypatch, name: str, module=projderiv, calls=None) -> list:
    """Record the calls of `module`'s function `name` (appended to `calls`) through every
    projderiv.* namespace that holds it, as the traced benchmark counts them (cli imports
    its functions by name)."""
    original, calls = getattr(module, name), [] if calls is None else calls

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name == "projderiv" or module_name.startswith("projderiv."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


# verify classified a ball point twice (the derivative, then the scan radii), and
# classify split a cone_rn point by sign twice (the region, then the masks)
@pytest.mark.parametrize(
    "job,name",
    [
        (ball_job("verify", [0, 0], 1, inputs={"x": [2, 0]}), "classify_ball"),
        (ball_job("verify", [0, 0], 1, inputs={"x": [0.5, 0]}), "classify_ball"),
        ({"command": "classify", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, -2, 0]}}, "sign_partition"),
    ],
    ids=["ball-verify-exterior", "ball-verify-interior", "cone_rn-classify"],
)
def test_a_job_classifies_its_point_once(tmp_path, capsys, monkeypatch, job, name):
    calls = count_calls(monkeypatch, name)
    code, _, err = run(tmp_path, capsys, job)
    assert (code, err, len(calls)) == (0, "", 1)


# verify copied and checked the loader's vectors again and again: 12 coercions in this
# ball job and 10 in the cone_rn job, one per scan block and two in the fd_match quotient.
# What is left: the projection of x, the oracle's x and p, the derivative's x and the
# scan's base point, each a public function checking its own input
@pytest.mark.parametrize(
    "job",
    [
        ball_job("verify", [0] * 16, 1, inputs={"x": [0.5] * 16}),
        {"command": "verify", "set": {"kind": "cone_rn"}, "inputs": {"x": [1, -2] * 8}},
    ],
    ids=["ball-n16", "cone_rn-n16"],
)
def test_a_verify_job_coerces_each_vector_once_per_public_call(tmp_path, capsys, monkeypatch, job):
    calls = []
    for name in ("as_vector", "as_points"):
        count_calls(monkeypatch, name, projderiv.vectors, calls)
    code, out, err = run(tmp_path, capsys, job)
    assert (code, err, len(calls)) == (0, "", 5)
    assert out.count("VERDICT") == 3


# refute coerced the same vectors up to 12 times: refute_linearity's d, then x and ±d in
# each of its two quotients, and the public projection's points in each of its four calls
# of f. What is left: cone_refute_frechet's x, refute_linearity's x and d (its (d, −d)
# stack goes to the quotient unchecked), and the threshold's x and d (no cone partition
# on a ball)
@pytest.mark.parametrize(
    "job,most",
    [
        ({"command": "refute", "set": {"kind": "cone_rn"}, "inputs": {"x": [0, 1, -1]}}, 5),
        (ball_job("refute", [1, -2, 0.5], 1.5, inputs={"x": [2.5, -2, 0.5]}), 4),
        (ball_job("refute", [0, 0], 1, inputs={"x": [0.6, 0.8], "d": [1, 1]}), 4),
    ],
    ids=["cone_rn-axis", "ball-sphere", "ball-given-d"],
)
def test_a_refute_job_coerces_each_vector_once(tmp_path, capsys, monkeypatch, job, most):
    calls = count_calls(monkeypatch, "_finite_copy", projderiv.vectors)
    code, out, err = run(tmp_path, capsys, job)
    assert (code, err) == (0, "") and out.count("VERDICT not_frechet pass") == 1
    assert len(calls) <= most


# refute on a ball ran its unchecked kernel on an x of another length than the center:
# with no d it printed numpy's "operands could not be broadcast together with shapes (3,)
# (2,)" or, for x = [1], took x − c = [1, 1] and printed "dimension mismatch: 1 vs 2"
@pytest.mark.parametrize(
    "inputs,got",
    [({"x": [1, 0, 0]}, 3), ({"x": [1]}, 1), ({"x": [1, 0, 0], "d": [1, 0, 0]}, 3), ({"x": [1], "d": [1]}, 1)],
    ids=["longer", "shorter", "longer-with-d", "shorter-with-d"],
)
def test_refute_on_a_ball_refuses_an_x_of_the_wrong_length(tmp_path, capsys, inputs, got):
    code, out, err = run(tmp_path, capsys, ball_job("refute", [0, 0], 1, inputs=inputs))
    assert (code, out, err) == (2, "", f"error: dimension mismatch: 2 vs {got}\n")


# the escape built its result through the checking constructor, which checked its
# 17,833 indices again after the record's 4
def test_an_escape_job_checks_only_the_records_own_indices(tmp_path, capsys, monkeypatch):
    checked, original = [], sequences._check_indices

    def counted(indices):
        indices = list(indices)
        checked.extend(indices)
        return original(indices)

    monkeypatch.setattr(sequences, "_check_indices", counted)
    overrides = [[1, 2.0], [4, 0.5], [30, 0.0], [120, 1.5]]
    x = {"overrides": overrides, "tail": {"kind": "geometric", "a": 1.25, "rho": 0.999, "start": 10}}
    job = {"command": "witness", "set": {"kind": "cone_l2"}, "inputs": {"x": x, "epsilon": 1e-6}}
    code, out, err = run(tmp_path, capsys, job)
    assert (code, err) == (0, "")
    assert out.count("], [") > 17_000  # the escape's overrides, one pair apart
    assert len(checked) <= len(overrides)


# the cone_rn step was min(1e-5, min|x_i|/16), which is not scaled to x: from
# k = 7 (x = [128, -128, 384]) to k = 37 fd_match failed; from k = 38 on the
# absolute scan radii no longer move x
@pytest.mark.parametrize("k", range(-60, 38))
def test_verify_cone_rn_passes_at_2_pow_k(tmp_path, capsys, k):
    x = [math.ldexp(v, k) for v in (1.0, -1.0, 3.0)]
    code, out, err = run(tmp_path, capsys, {"command": "verify", "set": {"kind": "cone_rn"}, "inputs": {"x": x}})
    assert (code, err) == (0, "")
    verdicts = [line.split()[1:3] for line in out.splitlines() if line.startswith("VERDICT")]
    assert verdicts == [["oracle_agreement", "pass"], ["strict_decay", "pass"], ["fd_match", "pass"]]


# a w longer than 1 carried x ± h·w across the region boundary: the ball job
# printed "VERDICT fd_match fail 25.012493753126968 9.9999999999999991e-05".  The
# cone_rn job fails (0.5 against 1e-09) if h is not bounded by w's length, and the
# dense ball job (‖w‖∞ = 1, ‖w‖ = 10) if h is bounded by ‖w‖∞ only
@pytest.mark.parametrize(
    "job",
    [
        ball_job("verify", [0, 0], 1, inputs={"x": [1.001, 0], "w": [100, 0]}),
        {"command": "verify", "set": {"kind": "cone_rn"}, "inputs": {"x": [1e-3, 1e3], "w": [-5, 0]}},
        ball_job("verify", [0] * 100, 1, inputs={"x": [0.100001] * 100, "w": [1] * 100},
                 options={"radii": [1e-6], "samples_per_radius": 2}),
    ],
    ids=["ball", "cone_rn", "ball-dense-w"],
)
def test_verify_fd_match_with_a_long_direction(tmp_path, capsys, job):
    code, out, err = run(tmp_path, capsys, job)
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("VERDICT fd_match pass ")


# x ± h·w lost h·w to rounding, from 1e-200 on all of it, so the quotient was 0 while
# apply(w) was not: the second job printed "VERDICT fd_match fail 1.2941176470588234e-200
# 3.1622776601683793e-206", and the last "fail 1.1758762371021668e-321 0"
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("w", [[1e-8, 3e-8], [1e-200, 3e-200], [1e-300, 5e-301], [1e-320, 0]])
def test_verify_fd_match_with_a_short_direction(tmp_path, capsys, w):
    job = ball_job("verify", [0, 0], 1, inputs={"x": [2, 0.5], "w": w})
    code, out, err = run(tmp_path, capsys, job)
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("VERDICT fd_match pass ")


# fd_match measures along w/2^k, so on a ball 2^k·w has 2^k times the error and the
# tolerance of the w it is measured along, bit for bit
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_fd_match_on_a_ball_scales_with_w(tmp_path, capsys):
    def fd_match(w):
        job = ball_job("verify", [0, 0], 1, inputs={"x": [2, 0.5], "w": w})
        code, out, err = run(tmp_path, capsys, job)
        assert code == 0 and err == ""
        return [float(v) for v in out.splitlines()[-1].split()[3:]]

    # ‖w‖ ≈ 0.67: w is measured along itself, 2^k·w along 2·w for every other k
    err, tol = fd_match([0.6, 1.2])
    for k in (-900, -300, -2, -1, 1, 2, 300, 1000):
        scaled = fd_match([math.ldexp(0.3, k), math.ldexp(0.6, k)])
        assert scaled == [math.ldexp(err, k - 1), math.ldexp(tol, k - 1)], k


# a zero w measured nothing: the ball printed "VERDICT fd_match pass 0 0", and cone_rn
# "VERDICT fd_match pass 0 1.0000000000000001e-09"
@pytest.mark.parametrize(
    "set_spec,x",
    [({"kind": "ball", "center": [0, 0], "radius": 1}, [2, 0]), ({"kind": "cone_rn"}, [2, -1])],
    ids=["ball", "cone_rn"],
)
def test_verify_refuses_a_zero_fd_match_direction(tmp_path, capsys, monkeypatch, set_spec, x):
    monkeypatch.setattr(projderiv.cli, "strict_residual_scan", None)  # refused before any scan
    job = {"command": "verify", "set": set_spec, "inputs": {"x": x, "w": [0, 0]}}
    code, out, err = run(tmp_path, capsys, job)
    assert (code, out, err) == (2, "", "error: fd_match direction is zero; supply a nonzero input w\n")


# base + radius·g overflowed: both jobs printed a RuntimeWarning before
# "error: vector coordinates must be finite"
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "job",
    [
        {"command": "verify", "set": {"kind": "cone_rn"}, "inputs": {"x": [1e308, -1e308]},
         "options": {"radii": [1e308]}},
        ball_job("verify", [1e308, 1e308], 1e308, inputs={"x": [1e308, 1e308]},
                 options={"radii": [1e308, 1e308], "samples_per_radius": 2}),
    ],
    ids=["cone_rn", "ball"],
)
def test_verify_refuses_a_scan_radius_outside_the_float_range(tmp_path, capsys, job):
    code, out, err = run(tmp_path, capsys, job)
    assert (code, out, err) == (2, "", "error: scan radius 1e+308 leaves the float range\n")


# strict_decay compared consecutive residuals in the order given, so radii that
# grow or repeat printed a false failure where the map is smooth:
# "VERDICT strict_decay fail 1004.1834270120515 0.5" and "... fail 1 0.5"
@pytest.mark.parametrize(
    "radii,message",
    [
        ([1e-5, 1e-2], "1.0000000000000001e-05 then 0.01"),
        ([1e-3, 1e-3], "0.001 then 0.001"),
    ],
    ids=["growing", "repeated"],
)
def test_verify_refuses_radii_that_do_not_strictly_decrease(tmp_path, capsys, radii, message):
    job = ball_job("verify", [0, 0], 1, inputs={"x": [2, 0]}, options={"radii": radii})
    code, out, err = run(tmp_path, capsys, job)
    assert (code, out, err) == (2, "", f"error: scan radii must strictly decrease, not {message}\n")


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


@pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100_000], ids=["not-text", "nested-too-deep"])
def test_job_file_that_cannot_be_decoded_is_refused(tmp_path, capsys, content):
    path = tmp_path / "job.json"
    path.write_bytes(content)
    assert main(["--job", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: job file is not valid JSON: ")


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
    job = ball_job("verify", [0, 0], 1, inputs={"x": [0.1, 0.2]}, options={"seed": 2**64})
    assert run(tmp_path, capsys, job)[0] == 2


ZERO_SEQ = {"overrides": [], "tail": {"kind": "zero"}}
NOT_A_RECORD = "record must have exactly the keys 'overrides' and 'tail'"


def loader_case(section, key, value, message, set_kind="cone_rn"):
    """A job that differs from a good one only in one key, and the stderr line it must give."""
    x = ZERO_SEQ if set_kind == "cone_l2" else [1.0]
    job = {"command": "project", "set": {"kind": set_kind}, "inputs": {"x": x}}
    if section == "set":
        job["set"] = {"kind": "ball", "center": [0], "radius": 1, key: value}
    else:
        job[section] = {**job.get(section, {}), key: value}
    return pytest.param(job, message, id=f"{set_kind}-{section}.{key}={value!r}")


def dense_cases(key, what):
    return [
        loader_case("inputs", key, "a", f"{what} must be a non-empty list of numbers"),
        loader_case("inputs", key, True, f"{what} must be a non-empty list of numbers"),
        loader_case("inputs", key, [], f"{what} must be a non-empty list of numbers"),
        loader_case("inputs", key, [True], f"{what} must be a number"),
        loader_case("inputs", key, [1, "1"], f"{what} must be a number"),
    ]


def record_cases(key):
    return [
        loader_case("inputs", key, value, f"input {key}: {NOT_A_RECORD}", set_kind="cone_l2")
        for value in ("a", True, [], [1.0])
    ]


def positive_list_cases(key):
    return [
        loader_case("options", key, "a", f"option {key} must be a non-empty list"),
        loader_case("options", key, True, f"option {key} must be a non-empty list"),
        loader_case("options", key, [], f"option {key} must be a non-empty list"),
        loader_case("options", key, [True], f"option {key} must be a number"),
        loader_case("options", key, [1e-3, 0], f"option {key} entries must be positive"),
        loader_case("options", key, [-1e-3], f"option {key} entries must be positive"),
    ]


SEED_MESSAGE = "seed must be an integer in [0, 2^64)"
LOADER_REFUSALS = [
    *dense_cases("x", "input x"),
    *dense_cases("w", "input w"),
    *dense_cases("d", "input d"),
    *[loader_case("inputs", "n", v, "input n must be a positive integer")
      for v in ("a", True, [], 0, -1, 1.5)],
    loader_case("inputs", "epsilon", "a", "input epsilon must be a number"),
    loader_case("inputs", "epsilon", True, "input epsilon must be a number"),
    loader_case("inputs", "epsilon", [], "input epsilon must be a number"),
    loader_case("inputs", "epsilon", 0, "input epsilon must be positive"),
    loader_case("inputs", "epsilon", -1.0, "input epsilon must be positive"),
    *record_cases("x"),
    *record_cases("w"),
    loader_case("inputs", "d", [], "input d must be a non-empty list of numbers", set_kind="cone_l2"),
    *[loader_case("options", "seed", v, SEED_MESSAGE) for v in ("a", True, [], -1, 2**64, 1.0)],
    *positive_list_cases("steps"),
    *positive_list_cases("radii"),
    *[loader_case("options", "samples_per_radius", v, "option samples_per_radius must be a positive integer")
      for v in ("a", True, [], 0, -1, 2.0)],
    loader_case("set", "center", "a", "set.center must be a non-empty list of numbers"),
    loader_case("set", "center", True, "set.center must be a non-empty list of numbers"),
    loader_case("set", "center", [], "set.center must be a non-empty list of numbers"),
    loader_case("set", "center", [True], "set.center must be a number"),
    loader_case("set", "radius", "a", "set.radius must be a number"),
    loader_case("set", "radius", True, "set.radius must be a number"),
    loader_case("set", "radius", [], "set.radius must be a number"),
    loader_case("set", "radius", 0, "radius must be finite and positive"),
    loader_case("set", "radius", -1, "radius must be finite and positive"),
    pytest.param({"command": "project", "set": {"kind": "cone_rn"}, "inputs": []},
                 "inputs must be an object", id="inputs-not-an-object"),
    pytest.param({"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": [1]}, "options": 1},
                 "options must be an object", id="options-not-an-object"),
    loader_case("inputs", "y", [1], "unknown inputs: ['y']"),
    loader_case("options", "mystery", 1, "unknown options: ['mystery']"),
    # with several bad keys, the first in the order set, inputs x w d n epsilon, options is named
    pytest.param({"command": "project", "set": {"kind": "ball", "center": [], "radius": 1},
                  "inputs": {"x": []}}, "set.center must be a non-empty list of numbers",
                 id="order-set-before-inputs"),
    pytest.param({"command": "project", "set": {"kind": "cone_rn"},
                  "inputs": {"epsilon": 0, "n": 0, "d": [], "w": [], "x": []}},
                 "input x must be a non-empty list of numbers", id="order-x-first"),
    pytest.param({"command": "project", "set": {"kind": "cone_rn"},
                  "inputs": {"epsilon": 0, "n": 0, "d": [], "w": []}},
                 "input w must be a non-empty list of numbers", id="order-w-before-d"),
    pytest.param({"command": "project", "set": {"kind": "cone_rn"},
                  "inputs": {"epsilon": 0, "n": 0, "d": []}},
                 "input d must be a non-empty list of numbers", id="order-d-before-n"),
    pytest.param({"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"epsilon": 0, "n": 0}},
                 "input n must be a positive integer", id="order-n-before-epsilon"),
    pytest.param({"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": [], "y": 1}},
                 "unknown inputs: ['y']", id="order-unknown-before-values"),
    pytest.param({"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"n": 0},
                  "options": {"seed": -1}}, "input n must be a positive integer",
                 id="order-inputs-before-options"),
    pytest.param({"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": [1]},
                  "options": {"samples_per_radius": 0, "radii": [], "steps": [], "seed": -1}},
                 SEED_MESSAGE, id="order-seed-first"),
    pytest.param({"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": [1]},
                  "options": {"samples_per_radius": 0, "radii": [], "steps": []}},
                 "option steps must be a non-empty list", id="order-steps-before-radii"),
    pytest.param({"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": [1]},
                  "options": {"samples_per_radius": 0, "radii": []}},
                 "option radii must be a non-empty list", id="order-radii-before-samples"),
]


@pytest.mark.parametrize("job,message", LOADER_REFUSALS)
def test_every_loader_refusal_names_its_key(tmp_path, capsys, job, message):
    code, out, err = run(tmp_path, capsys, job)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


# The loader converts a whole list at once; a bad entry last in a long list is
# refused with the same line as in a one-entry list.
LONG = [0.5] * 999


@pytest.mark.parametrize(
    "bad,what",
    [(True, "a number"), ("1", "a number"), (HUGE, "finite"), (math.nan, "finite")],
    ids=["bool", "string", "huge", "nan"],
)
@pytest.mark.parametrize(
    "make,name",
    [
        (lambda v: {"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": v}}, "input x"),
        (lambda v: ball_job("project", v, 1, inputs={"x": [0.5] * 1000}), "set.center"),
    ],
    ids=["x", "center"],
)
def test_a_bad_number_last_in_1000_coordinates_is_refused(tmp_path, capsys, make, name, bad, what):
    code, out, err = run(tmp_path, capsys, make([*LONG, bad]))
    assert (code, out, err) == (2, "", f"error: {name} must be {what}\n")


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
    {"command": "refute", "set": FUZZ_BALL, "inputs": {"x": [SLOT, SLOT], "d": [SLOT, SLOT]},
     "options": {"steps": [SLOT]}},
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


SIGNS = [(1,), (-1,), (1, -1), (-1, 1)]


def run_at_scale(tmp_path, capsys, template, magnitude, signs):
    values = (s * magnitude for s in itertools.cycle(signs))
    job = fill_slots(template, lambda _: next(values))
    code, _, err = run(tmp_path, capsys, job)
    assert code in (0, 1, 2), job
    assert (code == 2) == err.startswith("error: "), (job, err)


# Every length is taken by vectors.norm, so no job at these scales warns; the
# signs alternate from slot to slot in two of the four patterns.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("signs", SIGNS)
@pytest.mark.parametrize("magnitude", [1e200, 1e-200])
@pytest.mark.parametrize("template", FUZZ_JOBS)
def test_every_job_at_scale_1e200_and_1e_minus_200_runs_without_a_warning(
    tmp_path, capsys, template, magnitude, signs
):
    run_at_scale(tmp_path, capsys, template, magnitude, signs)


# At the top of the float range sums such as x + ρ·g and products such as ⟨w, a⟩
# overflow where norms do not: the scan refuses such radii, and apply rescales w.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("signs", SIGNS)
@pytest.mark.parametrize("magnitude", [1e308, 1.5e308])
@pytest.mark.parametrize("template", FUZZ_JOBS)
def test_every_job_at_scale_1e308_and_1_5e308_runs_without_a_warning(
    tmp_path, capsys, template, magnitude, signs
):
    run_at_scale(tmp_path, capsys, template, magnitude, signs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


# Lengths at which each formatter builds one long template: a 3,000-coordinate
# vector at every magnitude, and an escape witness's 20,000 overrides
_rng = np.random.default_rng(20)
LONG_VECTOR = [*AWKWARD, math.inf, -math.inf, math.nan,
               *(_rng.standard_normal(2987) * 10.0 ** _rng.integers(-300, 300, 2987)).tolist()]
ESCAPE_SIZED = {**{i: 0.999 ** (i - 1) for i in range(1, 20000)}, 20000: -5e-7}


def per_number(v) -> str:
    return format(float(v), ".17g")  # the formatter before numbers were formatted in bulk


def fmt_seq_per_number(s) -> str:
    pairs = ", ".join(f"[{i}, {per_number(v)}]" for i, v in sorted(s.overrides.items()))
    tail = s.tail
    if tail is None:
        return '{"overrides": [%s], "tail": {"kind": "zero"}}' % pairs
    return '{"overrides": [%s], "tail": {"kind": "geometric", "a": %s, "rho": %s, "start": %d}}' % (
        pairs, per_number(tail.coeff), per_number(tail.ratio), tail.start
    )


@settings(max_examples=200, derandomize=True)
@given(st.lists(floats | st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=30))
@example(LONG_VECTOR)
def test_fmt_vec_matches_the_per_number_formatter(values):
    want = "[" + ", ".join(per_number(v) for v in values) + "]"
    assert fmt_vec(np.array(values)) == want
    assert fmt_vec(tuple(values)) == want


@settings(max_examples=200, derandomize=True)
@given(
    st.dictionaries(st.integers(1, 2**70), floats, max_size=30),
    st.none() | st.builds(GeometricTail, floats, ratios, st.integers(1, 2**70)),
)
@example({}, None)
@example({}, GeometricTail(-1.5, 0.999, 3))
@example(ESCAPE_SIZED, None)
def test_fmt_seq_matches_the_per_number_formatter(overrides, tail):
    s = SeqVector(overrides, tail)
    assert fmt_seq(s) == fmt_seq_per_number(s)
    assert SeqVector.from_record(json.loads(fmt_seq(s))) == s


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
    job["options"]["seed"] = 8
    _, reseeded, _ = run(tmp_path, capsys, job)
    assert reseeded != first  # scan residual table must reflect the new draw


def test_echoed_inputs_parse_back_bit_exactly(tmp_path, capsys):
    values = [0.1, 1.0 / 3.0, 1e-300, -7.25, 2.0**-52]
    job = {"command": "project", "set": {"kind": "cone_rn"}, "inputs": {"x": values}}
    _, out, _ = run(tmp_path, capsys, job)
    echo = next(l for l in out.splitlines() if l.startswith("input x = "))
    parsed = [float(tok) for tok in echo.split(" = ")[1].strip("[]").split(", ")]
    assert parsed == values  # exact equality, not approximate


def test_witness_report_has_one_verdict_line(tmp_path, capsys):
    job = seq_tail_job("witness", -1.0, n=5)
    code, out, _ = run(tmp_path, capsys, job)
    assert code == 0
    verdicts = [line for line in out.splitlines() if line.startswith("VERDICT")]
    assert verdicts == ["VERDICT witness_constants pass 0 9.9999999999999998e-13"]


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
