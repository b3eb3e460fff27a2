"""Command-line runner: one JSON job file in, one deterministic text report out.

A job names a command (project / classify / derive / gateaux / verify /
refute / witness), a feasible set (ball, cone_rn, cone_l2), inputs, and
options.  Reports echo every input with 17 significant digits (so they
parse back bit-for-bit), and each check emits one line

    VERDICT <op> <pass|fail> <measured> <threshold>

Exit code 0: all verdicts pass; 1: some verdict failed; 2: unusable job.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .balls import (
    Ball,
    BallDerivKind,
    classify_ball,
    project_ball,
    _ball_deriv,
    _offset,
    _project_ball,
    _project_origin,
)
from .orthant import (
    ConeDerivKind,
    cone_refute_frechet,
    project_cone,
    sign_partition,
    _clamp,
    _cone_deriv,
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
from .vectors import parse_number, parse_numbers, _same_dim
from .verify import (
    CERTIFICATE_GATE,
    FD_STEP,
    default_radii,
    fd_match,
    qp_projection_oracle,
    refute_linearity,
    strict_residual_scan,
    _threshold,
)

SET_KINDS = ("ball", "cone_rn", "cone_l2")


class JobError(Exception):
    """Job file cannot be run as written (exit code 2)."""


def fmt_vec(v) -> str:
    values = tuple(np.asarray(v, dtype=np.float64).tolist())
    return "[" + ("%.17g, " * len(values))[:-2] % values + "]"


def fmt_seq(s: SeqVector) -> str:
    """s as one line of JSON, in the record form that ``SeqVector.from_record`` reads."""
    ov = s.overrides
    # the indices in one pass, which leaves a %.17g for each value, and the values in a second
    pairs = ("[%d, %%.17g], " * len(ov))[:-2] % tuple(ov) % tuple(ov.values())
    t = s.tail
    if t is None:
        tail_text = '{"kind": "zero"}'
    else:
        tail_text = '{"kind": "geometric", "a": %.17g, "rho": %.17g, "start": %d}' % (
            t.coeff, t.ratio, t.start
        )
    return '{"overrides": [%s], "tail": %s}' % (pairs, tail_text)


def _fmt(value) -> str:
    """Any job value or result: a sequence, a vector or list of numbers, a count, a number."""
    if isinstance(value, SeqVector):
        return fmt_seq(value)
    if isinstance(value, (np.ndarray, tuple)):
        return fmt_vec(value)
    if isinstance(value, int):
        return str(value)
    return "%.17g" % value


def _vector(value, what: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{what} must be a non-empty list of numbers")
    return parse_numbers(value, what)


def _record(value, what: str) -> SeqVector:
    try:
        return SeqVector.from_record(value)
    except ValueError as e:
        raise ValueError(f"{what}: {e}") from None


def _count(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive integer")
    return value


def _positive(value, what: str) -> float:
    v = parse_number(value, what)
    if v <= 0:
        raise ValueError(f"{what} must be positive")
    return v


def _positives(value, what: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{what} must be a non-empty list")
    parsed = parse_numbers(value, what)
    if (parsed <= 0).any():
        raise ValueError(f"{what} entries must be positive")
    return tuple(parsed.tolist())


def _seed(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
        raise ValueError("seed must be an integer in [0, 2^64)")
    return value


# key -> parser, per job section, in the order the keys are checked; each parser
# returns the parsed value or raises a ValueError whose message names `what`
INPUTS = {"x": _vector, "w": _vector, "d": _vector, "n": _count, "epsilon": _positive}
SEQUENCE_INPUTS = {**INPUTS, "x": _record, "w": _record}  # the inputs on cone_l2
OPTIONS = {"seed": _seed, "steps": _positives, "radii": _positives, "samples_per_radius": _count}


def _section(raw: dict, name: str, parsers: dict) -> dict:
    """The parsed keys of section `name` ("inputs" or "options") of a job."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be an object")
    unknown = set(section) - set(parsers)
    if unknown:
        raise ValueError(f"unknown {name}: {sorted(unknown)}")
    what = name[:-1]  # "input x", "option steps"
    return {key: parse(section[key], f"{what} {key}") for key, parse in parsers.items() if key in section}


class JobSpec(NamedTuple):
    command: str
    set_kind: str
    ball: Ball | None = None
    inputs: Mapping = MappingProxyType({})
    options: Mapping = MappingProxyType({})


def load_job(path: str) -> JobSpec:
    try:
        with open(path) as f:  # as Path.read_text, with no Path to build
            raw = json.load(f)
        return _job_spec(raw)
    except OSError as e:
        raise JobError(f"cannot read job file: {e}") from e
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:  # not text, not JSON, too deep
        raise JobError(f"job file is not valid JSON: {e}") from e
    except ValueError as e:  # every refusal of the job's content
        raise JobError(str(e)) from e


def _job_spec(raw) -> JobSpec:
    if not isinstance(raw, dict):
        raise ValueError("job must be a JSON object")
    unknown = set(raw) - {"command", "set", "inputs", "options"}
    if unknown:
        raise ValueError(f"unknown job keys: {sorted(unknown)}")

    command = raw.get("command")
    if command not in COMMANDS:
        raise ValueError(f"command must be one of {list(COMMANDS)}, got {command!r}")

    set_spec = raw.get("set")
    if not isinstance(set_spec, dict) or set_spec.get("kind") not in SET_KINDS:
        raise ValueError(f"set.kind must be one of {list(SET_KINDS)}")
    set_kind = set_spec["kind"]
    ball = None
    if set_kind == "ball":
        if set(set_spec) != {"kind", "center", "radius"}:
            raise ValueError("ball set needs exactly center and radius")
        center = _vector(set_spec["center"], "set.center")
        ball = Ball._parsed(center, parse_number(set_spec["radius"], "set.radius"))
    elif set(set_spec) != {"kind"}:
        raise ValueError(f"set kind {set_kind!r} takes no parameters")

    inputs = _section(raw, "inputs", SEQUENCE_INPUTS if set_kind == "cone_l2" else INPUTS)
    options = _section(raw, "options", OPTIONS)
    return JobSpec(command=command, set_kind=set_kind, ball=ball, inputs=inputs, options=options)


def _need(job: JobSpec, key: str):
    if key not in job.inputs:
        raise JobError(f"command {job.command!r} on set {job.set_kind!r} needs input {key!r}")
    return job.inputs[key]


def _echo_lines(job: JobSpec) -> list[str]:
    ball = f" center={_fmt(job.ball.center)} radius={_fmt(job.ball.radius)}" if job.ball else ""
    lines = [f"command: {job.command}", f"set: {job.set_kind}{ball}"]
    lines += [f"input {key} = {_fmt(job.inputs[key])}" for key in sorted(job.inputs)]
    lines += [f"option {key} = {_fmt(job.options[key])}" for key in sorted(job.options)]
    return lines


def _projection(job: JobSpec):
    """The projection onto the job's set, as a map of a point (or a stack of points)."""
    if job.set_kind == "ball":
        return partial(project_ball, job.ball)
    return project_cone if job.set_kind == "cone_rn" else project_cone_l2


def _derivative(job: JobSpec, x):
    """The derivative object of the projection at the loader's checked x, on a ball or cone_rn."""
    return _ball_deriv(job.ball, _same_dim(job.ball.center, x)) if job.ball else _cone_deriv(x)


def _direction(job: JobSpec, x, key: str):
    """Dense input w or d, if the job has it, checked against x's dimension."""
    v = job.inputs.get(key)
    return v if v is None else _same_dim(x, v)


def _centred(ball: Ball, x, anchor=None):
    """x − center (or the derivative's ``anchor``), refused where it leaves the float range."""
    d = _offset(ball, x) if anchor is None else anchor
    if not np.isfinite(d).all():
        raise JobError("x and the center are too far apart: x − center leaves the float range")
    return d


def _verdict(lines: list[str], op: str, ok: bool, measured: float, threshold: float) -> bool:
    lines.append(f"VERDICT {op} {'pass' if ok else 'fail'} {_fmt(measured)} {_fmt(threshold)}")
    return ok


def _cmd_project(job: JobSpec, x, lines: list[str]) -> None:
    lines.append(f"result = {_fmt(_projection(job)(x))}")


def _cmd_classify(job: JobSpec, x, lines: list[str]) -> None:
    if job.set_kind == "ball":
        region = classify_ball(job.ball, x)
        lines.append(f"region = {region.tag.value}")
        lines.append(f"signed_gap = {_fmt(region.signed_gap)}")
    elif job.set_kind == "cone_rn":
        part = sign_partition(x)
        lines.append(f"region = {part.region.value}")
        for name, mask in (("plus", part.plus), ("minus", part.minus), ("zero", part.zero)):
            lines.append(f"{name} = {np.flatnonzero(mask).tolist()}")
    else:
        lines.append(f"region = {classify_l2(x).value}")


def _cmd_derive(job: JobSpec, x, lines: list[str]) -> None:
    w = _direction(job, x, "w")
    deriv = _derivative(job, x)
    lines.append(f"kind = {deriv.kind.value}")
    lines.append(f"linear = {str(deriv.is_linear).lower()}")
    if deriv.kind is BallDerivKind.EXTERIOR:
        lines.append(f"anchor = {fmt_vec(deriv.anchor)}")
        lines.append(f"scale = {_fmt(deriv.scale)}")
    if deriv.kind is BallDerivKind.NOT_FRECHET:
        lines.append("note = no linear derivative exists on the sphere; use gateaux or refute")
        if w is not None:
            lines.append("apply = unavailable")
        return
    if deriv.kind is ConeDerivKind.DIRECTIONAL_ONLY:
        lines.append("note = only a one-sided directional derivative exists here; see refute")
    if w is not None:
        lines.append(f"apply(w) = {fmt_vec(deriv.apply(w))}")


def _cmd_gateaux(job: JobSpec, x, lines: list[str]) -> None:
    w = _need(job, "w")
    if job.set_kind == "cone_l2":
        lines.append(f"result = {_fmt(l2_gateaux(x, w))}")
        return
    deriv = _derivative(job, x)
    if job.ball and deriv.is_linear:
        raise JobError("base point must lie on the sphere")
    result = deriv.apply(w)  # checks w against x's dimension
    if job.ball:  # the side apply branched on
        lines.append(f"direction_class = {'outward_or_tangent' if deriv._outward(w) else 'inward'}")
    lines.append(f"result = {_fmt(result)}")


def _cmd_verify(job: JobSpec, x, lines: list[str]) -> bool:
    f = _projection(job)
    p = f(x)
    ok = True
    if job.set_kind == "cone_l2":  # the dense clamp of the first 64 coordinates, exactly
        x, p = x.truncate(64), p.truncate(64)
        err = float(np.max(np.abs(p - project_cone(x))))
        ok = _verdict(lines, "truncation_consistency", err == 0.0, err, 0.0)
    cert = qp_projection_oracle(job.ball, x, p)
    ok &= _verdict(lines, "oracle_agreement", cert <= CERTIFICATE_GATE, cert, CERTIFICATE_GATE)
    if job.set_kind == "cone_l2":
        return ok

    w = _direction(job, x, "w")
    if w is not None and not w.any():
        raise JobError("fd_match direction is zero; supply a nonzero input w")
    deriv = _derivative(job, x)
    if not deriv.is_linear:
        where = "lies on the sphere" if job.ball else "has a zero coordinate"
        raise JobError(f"x {where}, where no derivative exists; use refute")
    delta = deriv.smooth_radius  # > 0: x is off the sphere and has no zero
    radii = job.options.get("radii") or default_radii(delta)
    samples, seed = job.options.get("samples_per_radius", 64), job.options.get("seed", 0)
    f, apply = _clamp, deriv._apply
    if job.ball:  # P_{c+B}(x) = c + P_B(x − c): scan and difference at x − c, on B centred at 0
        x = _centred(job.ball, x, deriv.anchor)
        f = partial(_project_origin, job.ball.radius)
    # the scan's and the quotient's points are finite and of x's dimension: no check again
    scan = strict_residual_scan(f, apply, x, radii, samples, seed)
    for radius, residual in zip(scan.radii, scan.residuals):
        lines.append(f"scan radius={_fmt(radius)} residual={_fmt(residual)}")
    ratio = scan.worst_decay_ratio()
    ok &= _verdict(lines, "strict_decay", ratio <= 0.5, ratio, 0.5)

    w = scan.direction if w is None else w  # default: the unit direction of the scan's first draw
    return ok & _verdict(lines, "fd_match", *fd_match(f, apply, x, w, delta, job.ball is not None))


def _cmd_refute(job: JobSpec, x, lines: list[str]) -> bool:
    step = min(job.options.get("steps", (FD_STEP,)))  # only the smallest step is used
    d = _direction(job, x, "d")
    if job.ball:  # the unchecked kernel below needs x of the center's dimension
        _same_dim(job.ball.center, x)
        d = _centred(job.ball, x) if d is None else d
    cone_axis = d is None  # cone_rn's default probe, along its first zero coordinate
    if cone_axis:
        try:
            cert = cone_refute_frechet(x, step)
        except ValueError as e:
            raise JobError(f"{e}; supply input d for a custom probe") from e
    else:
        if not d.any():
            raise JobError("refutation direction is zero; supply input d")
        f = partial(_project_ball, job.ball) if job.ball else _clamp  # on the loader's checked x
        cert = refute_linearity(f, x, d, step)
    lines.append(f"direction = {fmt_vec(cert.direction)}")
    if cone_axis:
        lines.append(f"forward_limit = {fmt_vec(cert.forward_limit)}")
        lines.append(f"backward_limit = {fmt_vec(cert.backward_limit)}")
    threshold = _threshold(job.ball, x, cert.direction, step)  # x and the direction are checked
    lines.append(f"gap = {_fmt(cert.gap)}")
    return _verdict(lines, "not_frechet", cert.gap > threshold, cert.gap, threshold)


def _cmd_witness(job: JobSpec, x, lines: list[str]) -> bool:
    has_n, has_eps = "n" in job.inputs, "epsilon" in job.inputs
    if has_n == has_eps:
        raise JobError("witness needs exactly one of inputs n (derivative) or epsilon (interior)")
    if has_n:
        report = l2_nonfrechet_witness(x, job.inputs["n"])
        lines.append(f"candidate = {report.candidate}")
        lines.append(f"residual_u = {_fmt(report.residual_u)}")
        lines.append(f"residual_v = {_fmt(report.residual_v)}")
        deviation = max(abs(report.residual_u - 0.5), abs(report.residual_v - 2.0 / 3.0))
        return _verdict(lines, "witness_constants", deviation <= 1e-12, deviation, 1e-12)
    eps = job.inputs["epsilon"]
    escape = interior_escape_witness(x, eps)
    gap = distance(x, escape)
    outside = not in_cone(escape)
    lines.append(f"escape = {fmt_seq(escape)}")
    lines.append(f"outside_cone = {str(outside).lower()}")
    lines.append(f"distance = {_fmt(gap)}")
    return _verdict(lines, "escape", outside and gap < eps, gap, eps)


_DENSE = ("ball", "cone_rn")
# command -> (handler, the set kinds it runs on, the refusal on any other kind); a handler
# takes the job, its input x and the report lines, and returns None if it prints no VERDICT
_HANDLERS = {
    "project": (_cmd_project, SET_KINDS, None),
    "classify": (_cmd_classify, SET_KINDS, None),
    "derive": (_cmd_derive, _DENSE, "derive is not available for cone_l2 (the projection is "
               "nowhere Fréchet differentiable); use gateaux or witness"),
    "gateaux": (_cmd_gateaux, SET_KINDS, None),
    "verify": (_cmd_verify, SET_KINDS, None),
    "refute": (_cmd_refute, _DENSE, "refute applies to ball and cone_rn; for cone_l2 use witness"),
    "witness": (_cmd_witness, ("cone_l2",), "witness applies to cone_l2 only"),
}
COMMANDS = tuple(_HANDLERS)


def run_job(job: JobSpec) -> tuple[list[str], bool]:
    """Execute a job; returns (report lines, all-verdicts-passed)."""
    handler, kinds, refusal = _HANDLERS[job.command]
    if job.set_kind not in kinds:
        raise JobError(refusal)
    x = _need(job, "x")  # every command reads x
    lines = _echo_lines(job)
    try:
        ok = handler(job, x, lines)
    except (ValueError, ArithmeticError) as e:
        raise JobError(str(e)) from e
    return lines, ok is not False


def main(argv=None) -> int:
    usage = "usage: projderiv [-h] --job JOB"  # parsed by hand: argparse costs every job ~3 ms
    args, job, extra = iter(sys.argv[1:] if argv is None else argv), None, []
    for arg in args:
        if arg in ("-h", "--help"):
            print(f"{usage}\n\nRun the JSON job file JOB and print a deterministic report.")
            return 0
        if arg == "--job" or arg.startswith("--job="):
            job = arg[len("--job="):] if "=" in arg else next(args, None)
        else:
            extra.append(arg)
    if job is None or extra:  # a usage error: exit 2, with argparse's message
        error = "unrecognized arguments: " + " ".join(extra) if job is not None else (
            "the following arguments are required: --job")
        print(f"{usage}\nprojderiv: error: {error}", file=sys.stderr)
        return 2
    try:
        lines, ok = run_job(load_job(job))
    except JobError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
