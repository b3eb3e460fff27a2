"""Command-line runner: one JSON job file in, one deterministic text report out.

A job names a command (project / classify / derive / gateaux / verify /
refute / witness), a feasible set (ball, cone_rn, cone_l2), inputs, and
options.  Reports echo every input with 17 significant digits (so they
parse back bit-for-bit), and each check emits one line

    VERDICT <op> <pass|fail> <measured> <threshold>

Exit code 0: all verdicts pass; 1: some verdict failed; 2: unusable job.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .balls import (
    Ball,
    BallDerivKind,
    ball_frechet_derivative,
    ball_gateaux_sphere,
    classify_ball,
    project_ball,
)
from .orthant import (
    ConeDerivKind,
    cone_frechet_derivative,
    cone_gateaux,
    cone_refute_frechet,
    classify_cone,
    guarded_fd_step,
    project_cone,
    sign_partition,
)
from .sequences import (
    SeqVector,
    distance,
    in_cone,
    interior_escape_witness,
    classify_l2,
    l2_gateaux,
    l2_nonfrechet_witness,
    project_cone_l2,
)
from .vectors import parse_numbers
from .verify import (
    OracleConvergenceError,
    qp_projection_oracle,
    refutation_threshold,
    refute_linearity,
    strict_residual_scan,
)

SET_KINDS = ("ball", "cone_rn", "cone_l2")
INPUT_KEYS = ("x", "w", "d", "n", "epsilon")
OPTION_KEYS = ("seed", "steps", "radii", "samples_per_radius")
DEFAULT_STEPS = (1e-3, 1e-4, 1e-5)


class JobError(Exception):
    """Job file cannot be run as written (exit code 2)."""


def fmt_num(v: float) -> str:
    return format(float(v), ".17g")


def fmt_vec(v) -> str:
    return "[" + ", ".join(["%.17g" % c for c in np.asarray(v, dtype=np.float64).tolist()]) + "]"


def fmt_seq(s: SeqVector) -> str:
    """The record form of s (see ``SeqVector.to_record``) as one line of JSON."""
    pairs = ", ".join(["[%d, %.17g]" % p for p in s.overrides.items()])
    t = s.tail
    if t is None:
        tail_text = '{"kind": "zero"}'
    else:
        tail_text = '{"kind": "geometric", "a": %.17g, "rho": %.17g, "start": %d}' % (
            t.coeff, t.ratio, t.start
        )
    return '{"overrides": [%s], "tail": %s}' % (pairs, tail_text)


def _require_numbers(values: list, what: str) -> list[float]:
    try:
        return parse_numbers(values, what)
    except ValueError as e:
        raise JobError(str(e)) from None


def _require_vector(value, what: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise JobError(f"{what} must be a non-empty list of numbers")
    return np.array(_require_numbers(value, what))


@dataclass
class JobSpec:
    command: str
    set_kind: str
    ball: Ball | None = None
    inputs: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)


def load_job(path: str) -> JobSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as e:
        raise JobError(f"cannot read job file: {e}") from e
    except json.JSONDecodeError as e:
        raise JobError(f"job file is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise JobError("job must be a JSON object")
    unknown = set(raw) - {"command", "set", "inputs", "options"}
    if unknown:
        raise JobError(f"unknown job keys: {sorted(unknown)}")

    command = raw.get("command")
    if command not in COMMANDS:
        raise JobError(f"command must be one of {list(COMMANDS)}, got {command!r}")

    set_spec = raw.get("set")
    if not isinstance(set_spec, dict) or set_spec.get("kind") not in SET_KINDS:
        raise JobError(f"set.kind must be one of {list(SET_KINDS)}")
    set_kind = set_spec["kind"]
    ball = None
    if set_kind == "ball":
        if set(set_spec) != {"kind", "center", "radius"}:
            raise JobError("ball set needs exactly center and radius")
        try:
            ball = Ball(
                center=_require_vector(set_spec["center"], "set.center"),
                radius=_require_numbers([set_spec["radius"]], "set.radius")[0],
            )
        except ValueError as e:
            raise JobError(str(e)) from e
    elif set(set_spec) != {"kind"}:
        raise JobError(f"set kind {set_kind!r} takes no parameters")

    inputs_raw = raw.get("inputs", {})
    if not isinstance(inputs_raw, dict):
        raise JobError("inputs must be an object")
    unknown = set(inputs_raw) - set(INPUT_KEYS)
    if unknown:
        raise JobError(f"unknown inputs: {sorted(unknown)}")
    inputs = {}
    for key in ("x", "w", "d"):
        if key not in inputs_raw:
            continue
        if set_kind == "cone_l2" and key in ("x", "w"):
            try:
                inputs[key] = SeqVector.from_record(inputs_raw[key])
            except ValueError as e:
                raise JobError(f"input {key}: {e}") from e
        else:
            inputs[key] = _require_vector(inputs_raw[key], f"input {key}")
    if "n" in inputs_raw:
        n = inputs_raw["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise JobError("input n must be a positive integer")
        inputs["n"] = n
    if "epsilon" in inputs_raw:
        eps = _require_numbers([inputs_raw["epsilon"]], "input epsilon")[0]
        if eps <= 0:
            raise JobError("input epsilon must be positive")
        inputs["epsilon"] = eps

    options_raw = raw.get("options", {})
    if not isinstance(options_raw, dict):
        raise JobError("options must be an object")
    unknown = set(options_raw) - set(OPTION_KEYS)
    if unknown:
        raise JobError(f"unknown options: {sorted(unknown)}")
    options = {}
    if "seed" in options_raw:
        options["seed"] = _require_seed(options_raw["seed"])
    for key in ("steps", "radii"):
        if key in options_raw:
            values = options_raw[key]
            if not isinstance(values, list) or not values:
                raise JobError(f"option {key} must be a non-empty list")
            parsed = _require_numbers(values, f"option {key}")
            if any(v <= 0 for v in parsed):
                raise JobError(f"option {key} entries must be positive")
            options[key] = tuple(parsed)
    if "samples_per_radius" in options_raw:
        spr = options_raw["samples_per_radius"]
        if isinstance(spr, bool) or not isinstance(spr, int) or spr < 1:
            raise JobError("option samples_per_radius must be a positive integer")
        options["samples_per_radius"] = spr

    return JobSpec(command=command, set_kind=set_kind, ball=ball, inputs=inputs, options=options)


def _require_seed(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
        raise JobError("seed must be an integer in [0, 2^64)")
    return value


def _need(job: JobSpec, key: str):
    if key not in job.inputs:
        raise JobError(f"command {job.command!r} on set {job.set_kind!r} needs input {key!r}")
    return job.inputs[key]


def _set_description(job: JobSpec) -> str:
    if job.set_kind == "ball":
        return f"ball center={fmt_vec(job.ball.center)} radius={fmt_num(job.ball.radius)}"
    return job.set_kind


def _echo_lines(job: JobSpec) -> list[str]:
    lines = [f"command: {job.command}", f"set: {_set_description(job)}"]
    for key in sorted(job.inputs):
        value = job.inputs[key]
        if isinstance(value, SeqVector):
            text = fmt_seq(value)
        elif isinstance(value, np.ndarray):
            text = fmt_vec(value)
        elif isinstance(value, int):
            text = str(value)
        else:
            text = fmt_num(value)
        lines.append(f"input {key} = {text}")
    for key in sorted(job.options):
        value = job.options[key]
        if isinstance(value, tuple):
            text = fmt_vec(value)
        else:
            text = str(value)
        lines.append(f"option {key} = {text}")
    return lines


def _verdict(lines: list[str], op: str, ok: bool, measured: float, threshold: float) -> bool:
    lines.append(
        f"VERDICT {op} {'pass' if ok else 'fail'} {fmt_num(measured)} {fmt_num(threshold)}"
    )
    return ok


def _cmd_project(job: JobSpec, lines: list[str]) -> None:
    x = _need(job, "x")
    if job.set_kind == "ball":
        lines.append(f"result = {fmt_vec(project_ball(job.ball, x))}")
    elif job.set_kind == "cone_rn":
        lines.append(f"result = {fmt_vec(project_cone(x))}")
    else:
        lines.append(f"result = {fmt_seq(project_cone_l2(x))}")


def _cmd_classify(job: JobSpec, lines: list[str]) -> None:
    x = _need(job, "x")
    if job.set_kind == "ball":
        region = classify_ball(job.ball, x)
        lines.append(f"region = {region.tag.value}")
        lines.append(f"signed_gap = {fmt_num(region.signed_gap)}")
    elif job.set_kind == "cone_rn":
        lines.append(f"region = {classify_cone(x).value}")
        part = sign_partition(x)
        for name, indices in (("plus", part.plus), ("minus", part.minus), ("zero", part.zero)):
            lines.append(f"{name} = {sorted(indices)}")
    else:
        lines.append(f"region = {classify_l2(x).value}")


def _cmd_derive(job: JobSpec, lines: list[str]) -> None:
    x = _need(job, "x")
    w = job.inputs.get("w")
    if job.set_kind == "ball":
        deriv = ball_frechet_derivative(job.ball, x)
        lines.append(f"kind = {deriv.kind.value}")
        lines.append(f"linear = {str(deriv.is_linear).lower()}")
        if deriv.kind is BallDerivKind.EXTERIOR:
            lines.append(f"anchor = {fmt_vec(deriv.anchor)}")
            lines.append(f"scale = {fmt_num(deriv.scale)}")
        if deriv.kind is BallDerivKind.NOT_FRECHET:
            lines.append("note = no linear derivative exists on the sphere; use gateaux or refute")
            if w is not None:
                lines.append("apply = unavailable")
        elif w is not None:
            lines.append(f"apply(w) = {fmt_vec(deriv.apply(w))}")
    elif job.set_kind == "cone_rn":
        deriv = cone_frechet_derivative(x)
        lines.append(f"kind = {deriv.kind.value}")
        lines.append(f"linear = {str(deriv.is_linear).lower()}")
        if deriv.kind is ConeDerivKind.DIRECTIONAL_ONLY:
            lines.append("note = only a one-sided directional derivative exists here; see refute")
        if w is not None:
            lines.append(f"apply(w) = {fmt_vec(deriv.apply(w))}")
    else:
        raise JobError(
            "derive is not available for cone_l2 (the projection is nowhere Fréchet "
            "differentiable); use gateaux or witness"
        )


def _cmd_gateaux(job: JobSpec, lines: list[str]) -> None:
    x, w = _need(job, "x"), _need(job, "w")
    if job.set_kind == "ball":
        result = ball_gateaux_sphere(job.ball, x, w)
        side = float(np.dot(x - job.ball.center, w))
        lines.append(f"direction_class = {'outward_or_tangent' if side >= 0 else 'inward'}")
        lines.append(f"result = {fmt_vec(result)}")
    elif job.set_kind == "cone_rn":
        lines.append(f"result = {fmt_vec(cone_gateaux(x, w))}")
    else:
        lines.append(f"result = {fmt_seq(l2_gateaux(x, w))}")


def _scan_radii(job: JobSpec, region_gap: float) -> tuple[float, ...]:
    if "radii" in job.options:
        return job.options["radii"]
    top = 1e-2
    if region_gap > 0.0:
        top = min(top, region_gap / 4.0)
    return tuple(top * 10.0**-k for k in range(4))


def _cmd_verify(job: JobSpec, lines: list[str]) -> bool:
    x = _need(job, "x")
    ok = True
    seed = job.options.get("seed", 0)
    samples = job.options.get("samples_per_radius", 64)

    if job.set_kind == "cone_l2":
        length = 64
        dense = x.truncate(length)
        closed = project_cone_l2(x).truncate(length)
        err = float(np.max(np.abs(closed - project_cone(dense))))
        ok &= _verdict(lines, "truncation_consistency", err <= 1e-12, err, 1e-12)
        oracle = qp_projection_oracle("orthant", dense)
        err = float(np.linalg.norm(closed - oracle))
        ok &= _verdict(lines, "oracle_agreement", err <= 1e-8, err, 1e-8)
        return ok

    if job.set_kind == "ball":
        f = lambda p: project_ball(job.ball, p)
        projected = f(x)
        oracle = qp_projection_oracle(job.ball, x)
        deriv = ball_frechet_derivative(job.ball, x)
        if not deriv.is_linear:
            raise JobError("x lies on the sphere, where no derivative exists; use refute")
        region_gap = abs(classify_ball(job.ball, x).signed_gap)
        h = min(1e-5 * (1.0 + float(np.linalg.norm(x))), region_gap / 4.0)
        fd_tol_is_relative = True
    else:
        f = project_cone
        projected = f(x)
        oracle = qp_projection_oracle("orthant", x)
        deriv = cone_frechet_derivative(x)
        if not deriv.is_linear:
            raise JobError("x has a zero coordinate, where no derivative exists; use refute")
        region_gap = float(np.min(np.abs(x[x != 0.0]))) if np.any(x != 0.0) else 0.0
        h = guarded_fd_step(x)
        fd_tol_is_relative = False

    err = float(np.linalg.norm(projected - oracle))
    ok &= _verdict(lines, "oracle_agreement", err <= 1e-8, err, 1e-8)

    radii = _scan_radii(job, region_gap)
    scan = strict_residual_scan(
        f, deriv.apply, x, radii=radii, samples_per_radius=samples, seed=seed
    )
    for radius, residual in zip(scan.radii, scan.residuals):
        lines.append(f"scan radius={fmt_num(radius)} residual={fmt_num(residual)}")
    ratio = scan.worst_decay_ratio()
    ok &= _verdict(lines, "strict_decay", ratio <= 0.5, ratio, 0.5)

    w = job.inputs.get("w")
    if w is None:
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(x.size)
        w /= float(np.linalg.norm(w))
    fd = (f(x + h * w) - f(x - h * w)) / (2.0 * h)
    err = float(np.linalg.norm(fd - deriv.apply(w)))
    if fd_tol_is_relative:
        tol = 1e-6 * max(float(np.linalg.norm(deriv.apply(w))), float(np.linalg.norm(w)))
    else:
        tol = 1e-9
    ok &= _verdict(lines, "fd_match", err <= tol, err, tol)
    return ok


def _cmd_refute(job: JobSpec, lines: list[str]) -> bool:
    x = _need(job, "x")
    steps = job.options.get("steps", DEFAULT_STEPS)
    if job.set_kind == "cone_l2":
        raise JobError("refute applies to ball and cone_rn; for cone_l2 use witness")
    d = job.inputs.get("d")
    cone_axis = job.set_kind == "cone_rn" and d is None
    if cone_axis:
        try:
            cert = cone_refute_frechet(x, steps)
        except ValueError as e:
            raise JobError(f"{e}; supply input d for a custom probe") from e
    else:
        if job.set_kind == "ball":
            f = lambda p: project_ball(job.ball, p)
            if d is None:
                d = x - job.ball.center
            if float(np.linalg.norm(d)) == 0.0:
                raise JobError("refutation direction is zero; supply input d")
        else:
            f = project_cone
        cert = refute_linearity(f, x, d, steps)
    lines.append(f"direction = {fmt_vec(cert.direction)}")
    if cone_axis:
        lines.append(f"forward_limit = {fmt_vec(cert.forward_limit)}")
        lines.append(f"backward_limit = {fmt_vec(cert.backward_limit)}")
    threshold = refutation_threshold(x, cert.direction, steps)
    lines.append(f"gap = {fmt_num(cert.gap)}")
    return _verdict(lines, "not_frechet", cert.gap > threshold, cert.gap, threshold)


def _cmd_witness(job: JobSpec, lines: list[str]) -> bool:
    if job.set_kind != "cone_l2":
        raise JobError("witness applies to cone_l2 only")
    x = _need(job, "x")
    has_n = "n" in job.inputs
    has_eps = "epsilon" in job.inputs
    if has_n == has_eps:
        raise JobError("witness needs exactly one of inputs n (derivative) or epsilon (interior)")
    if has_n:
        report = l2_nonfrechet_witness(x, job.inputs["n"])
        lines.append(f"candidate = {report.candidate}")
        lines.append(f"residual_u = {fmt_num(report.residual_u)}")
        lines.append(f"residual_v = {fmt_num(report.residual_v)}")
        deviation = max(abs(report.residual_u - 0.5), abs(report.residual_v - 2.0 / 3.0))
        return _verdict(lines, "witness_constants", deviation <= 1e-12, deviation, 1e-12)
    eps = job.inputs["epsilon"]
    escape = interior_escape_witness(x, eps)
    gap = distance(x, escape)
    outside = not in_cone(escape)
    lines.append(f"escape = {fmt_seq(escape)}")
    lines.append(f"outside_cone = {str(outside).lower()}")
    lines.append(f"distance = {fmt_num(gap)}")
    return _verdict(lines, "escape", outside and gap < eps, gap, eps)


# command -> handler; handlers that print no VERDICT line return None
_HANDLERS = {
    "project": _cmd_project,
    "classify": _cmd_classify,
    "derive": _cmd_derive,
    "gateaux": _cmd_gateaux,
    "verify": _cmd_verify,
    "refute": _cmd_refute,
    "witness": _cmd_witness,
}
COMMANDS = tuple(_HANDLERS)


def run_job(job: JobSpec) -> tuple[list[str], bool]:
    """Execute a job; returns (report lines, all-verdicts-passed)."""
    lines = _echo_lines(job)
    try:
        ok = _HANDLERS[job.command](job, lines)
    except (ValueError, ArithmeticError, OracleConvergenceError) as e:
        raise JobError(str(e)) from e
    return lines, ok is not False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="projderiv",
        description="Run a projection/derivative job file and print a deterministic report.",
    )
    parser.add_argument("--job", required=True, help="path to the JSON job file")
    parser.add_argument("--seed", type=int, default=None, help="override options.seed")
    parser.add_argument("--out", default=None, help="also write the report to this file")
    parser.add_argument("--quiet", action="store_true", help="print only VERDICT lines")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0

    try:
        job = load_job(args.job)
        if args.seed is not None:
            job.options["seed"] = _require_seed(args.seed)
        lines, ok = run_job(job)
    except JobError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    report = "\n".join(lines) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(report)
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return 2
    if args.quiet:
        for line in lines:
            if line.startswith("VERDICT"):
                print(line)
    else:
        print(report, end="")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
