"""Independent expected results for benchmark jobs, and the report checker.

Nothing here imports projderiv.  The formulas are written from the
mathematics: the ball projection with a scaled norm (no overflow or
underflow for any finite input), the clamp, the derivative operators, the
clamp and inner products of sequences with math.fsum, and the witness
constants 1/2 and 2/3.  Tolerances scale with machine epsilon and the
magnitude of the job's own inputs.

check(job, outcome) returns None when the program's output is right, or a
short cause string when it is not:

  exception:<Type>    an exception other than JobError left run_job
  job_error           JobError on a job the generator built as usable
  verdict_fail:<op>   a VERDICT line says fail where ground truth says pass
  missing:<line>      an expected report line is absent
  mismatch:<line>     a report value disagrees with the reference
"""

from __future__ import annotations

import json
import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)


# ------------------------------------------------------------ dense vectors


def scaled_norm(v: np.ndarray) -> float:
    """‖v‖ computed as s·‖v/s‖ with s = max|v_i|: no overflow or underflow."""
    s = float(np.max(np.abs(v))) if v.size else 0.0
    if s == 0.0:
        return 0.0
    t = v / s
    return s * math.sqrt(float(np.dot(t, t)))


def project_ball(c: np.ndarray, r: float, x: np.ndarray) -> np.ndarray:
    d = x - c
    dist = scaled_norm(d)
    if dist <= r:
        return x
    return c + r * (d / dist)


def clamp(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def ball_exterior_apply(c, r, x, w):
    """(r/‖a‖)(w − ⟨w, â⟩ â) with a = x − c, â = a/‖a‖."""
    a = x - c
    na = scaled_norm(a)
    ah = a / na
    return (r / na) * (w - float(np.dot(w, ah)) * ah)


def cone_apply(x, w):
    """One-sided derivative of the clamp at x along w (linear where no x_i = 0)."""
    return np.where(x > 0.0, w, 0.0) + np.where(x == 0.0, np.maximum(w, 0.0), 0.0)


def ball_gateaux(c, r, x, w):
    a = x - c
    ah = a / scaled_norm(a)
    s = float(np.dot(ah, w))
    return w - s * ah if s >= 0.0 else w


def cone_region(x) -> str:
    if np.any(x == 0.0):
        return "has_zero"
    if np.all(x > 0.0):
        return "interior"
    if np.all(x < 0.0):
        return "negative_interior"
    return "mixed_signs"


# ---------------------------------------------------------------- sequences


class Seq:
    """Square-summable sequence: overrides over a geometric tail (a, rho, start)."""

    def __init__(self, over: dict[int, float], tail: tuple | None):
        self.over, self.tail = over, tail

    @classmethod
    def from_record(cls, record: dict) -> "Seq":
        over = {int(i): float(v) for i, v in record["overrides"]}
        t = record["tail"]
        if t["kind"] == "zero" or float(t["a"]) == 0.0:
            return cls(over, None)
        return cls(over, (float(t["a"]), float(t["rho"]), int(t["start"])))

    def tail_at(self, i: int) -> float:
        if self.tail is None or i < self.tail[2]:
            return 0.0
        a, rho, start = self.tail
        return a * rho ** (i - start)

    def coord(self, i: int) -> float:
        return self.over[i] if i in self.over else self.tail_at(i)

    def horizon(self) -> int:
        """An index past every override and the tail start."""
        return max([0, *self.over]) + (self.tail[2] if self.tail else 0) + 2


def seq_same(p: Seq, q: Seq) -> bool:
    """Equal as sequences: every coordinate up to a common horizon, then tails."""
    k = max(p.horizon(), q.horizon())
    if any(p.coord(i) != q.coord(i) for i in range(1, k + 1)):
        return False
    return p.tail == q.tail


def seq_clamp(x: Seq) -> Seq:
    """max(x, 0) coordinatewise."""
    if x.tail is not None and x.tail[0] < 0.0:
        return Seq({i: v for i, v in x.over.items() if v > 0.0}, None)
    return Seq({i: max(v, 0.0) for i, v in x.over.items()}, x.tail)


def seq_region(x: Seq) -> str:
    if x.tail is None:
        return "other"
    start = x.tail[2]
    signs = set()
    for i in range(1, start):
        v = x.over.get(i, 0.0)
        if v == 0.0:
            return "other"
        signs.add(v > 0.0)
    for i, v in x.over.items():
        if v == 0.0:
            return "other"
        signs.add(v > 0.0)
    signs.add(x.tail[0] > 0.0)
    if signs == {True}:
        return "all_positive"
    if signs == {False}:
        return "all_negative"
    return "mixed_signs"


def seq_gateaux(x: Seq, w: Seq) -> Seq:
    """One-sided derivative of the clamp at a sign-definite x along w: w on
    x's positive coordinates, 0 on its negative ones."""
    region = seq_region(x)
    if region == "all_positive":
        return w
    if region == "all_negative":
        return Seq({}, None)
    k = max(x.horizon(), w.horizon())
    if x.tail[0] > 0.0:
        out = dict(w.over)
        for i in range(1, k + 1):
            if x.coord(i) < 0.0:
                out[i] = 0.0
        return Seq(out, w.tail)
    return Seq({i: w.coord(i) for i in range(1, k + 1) if x.coord(i) > 0.0}, None)


def escape_distance_sq(x: Seq, e: Seq) -> tuple[float, float]:
    """(‖x − e‖², ‖x‖² + ‖e‖²) for a zero-tail e, with math.fsum and the
    closed-form tail mass of x beyond e's last override."""
    k = max([0, *e.over, *x.over])
    diffs = [(x.coord(i) - e.coord(i)) ** 2 for i in range(1, k + 1)]
    size = [x.coord(i) ** 2 for i in range(1, k + 1)] + [v * v for v in e.over.values()]
    rest = 0.0
    if x.tail is not None:
        a, rho, start = x.tail
        first = max(k + 1, start)
        head = a * rho ** (first - start)
        rest = head * head / (1.0 - rho * rho)
    return math.fsum(diffs) + rest, math.fsum(size) + rest


# ----------------------------------------------------------- report parsing


def parse_report(lines: list[str]) -> tuple[dict, list[tuple]]:
    fields, verdicts = {}, []
    for line in lines:
        if line.startswith("VERDICT "):
            parts = line.split()
            verdicts.append((parts[1], parts[2], float(parts[3]), float(parts[4])))
        elif " = " in line:
            key, value = line.split(" = ", 1)
            fields.setdefault(key, value)
    return fields, verdicts


def _vec(text: str) -> np.ndarray:
    inner = text.strip()[1:-1].strip()
    if not inner:
        return np.zeros(0)
    return np.array([float(t) for t in inner.split(",")])


def _seq_text(text: str) -> Seq | None:
    try:
        return Seq.from_record(json.loads(text))
    except (ValueError, KeyError, TypeError):
        return None


def _close(got: np.ndarray, want: np.ndarray, scale: float) -> bool:
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    tol = 8.0 * (got.size + 8) * EPS * scale
    return float(np.max(np.abs(got - want), initial=0.0)) <= tol


def _inf(*vs) -> float:
    return max(float(np.max(np.abs(v))) if np.ndim(v) else abs(float(v)) for v in vs)


# ------------------------------------------------------------------- checks


def check(job, outcome) -> str | None:
    """Cause of failure for this job's outcome, or None when it is right.

    outcome is ("report", lines, ok), ("job_error", message) or
    ("exception", type name).
    """
    if outcome[0] == "exception":
        return f"exception:{outcome[1]}"
    if outcome[0] == "job_error":
        return "job_error"
    _, lines, ok = outcome
    fields, verdicts = parse_report(lines)
    for op, status, _, _ in verdicts:
        if status != "pass":
            return f"verdict_fail:{op}"
    if bool(ok) != all(status == "pass" for _, status, _, _ in verdicts):
        return "mismatch:ok_flag"
    if job.set_kind == "cone_l2":
        return _check_seq(job, fields, verdicts)
    return _check_dense(job, fields, verdicts)


def _check_dense(job, fields, verdicts) -> str | None:
    spec, cmd = job.spec, job.command
    inputs = spec["inputs"]
    x = np.array(inputs["x"], dtype=float)
    w = np.array(inputs["w"], dtype=float) if "w" in inputs else None
    ball = spec["set"]["kind"] == "ball"
    if ball:
        c = np.array(spec["set"]["center"], dtype=float)
        r = float(spec["set"]["radius"])
        region = job.truth["region"]
        scale = _inf(x, c, r)
    else:
        scale = _inf(x)
    try:
        if cmd == "verify":
            ops = {op for op, *_ in verdicts}
            want = {"oracle_agreement", "strict_decay", "fd_match"}
            return None if ops == want else "missing:VERDICT"
        if cmd == "project":
            # error scale of the output, not of x: an exterior x of any size
            # projects onto a sphere of size |c| + r
            want = project_ball(c, r, x) if ball else clamp(x)
            got = _vec(fields["result"])
            out_scale = _inf(want, c, r) if ball else scale
            return None if _close(got, want, out_scale) else "mismatch:result"
        if cmd == "classify":
            if ball:
                if fields["region"] != region:
                    return "mismatch:region"
                gap = float(fields["signed_gap"])
                want_gap = scaled_norm(x - c) - r
                tol = 64.0 * EPS * scale * math.sqrt(x.size)
                return None if abs(gap - want_gap) <= tol else "mismatch:signed_gap"
            if fields["region"] != cone_region(x):
                return "mismatch:region"
            for name, mask in (("plus", x > 0.0), ("minus", x < 0.0), ("zero", x == 0.0)):
                if json.loads(fields[name]) != [int(i) for i in np.flatnonzero(mask)]:
                    return f"mismatch:{name}"
            return None
        if cmd == "derive":
            if ball:
                kind = {"interior": "identity", "exterior": "exterior", "sphere": "not_frechet"}[region]
                if fields["kind"] != kind:
                    return "mismatch:kind"
                if region == "sphere":
                    return None if fields["apply"] == "unavailable" else "mismatch:apply"
                want = w if region == "interior" else ball_exterior_apply(c, r, x, w)
                wscale = _inf(w)
            else:
                if fields["kind"] != _cone_deriv_kind(x):
                    return "mismatch:kind"
                want, wscale = cone_apply(x, w), _inf(w)
            got = _vec(fields["apply(w)"])
            return None if _close(got, want, wscale) else "mismatch:apply(w)"
        if cmd == "gateaux":
            if ball:
                side = float(np.dot(x - c, w))
                cls = "outward_or_tangent" if side >= 0.0 else "inward"
                if fields["direction_class"] != cls:
                    return "mismatch:direction_class"
                want = ball_gateaux(c, r, x, w)
            else:
                want = cone_apply(x, w)
            got = _vec(fields["result"])
            return None if _close(got, want, _inf(w)) else "mismatch:result"
        if cmd == "refute":
            return _check_refute(job, fields, x, scale)
    except KeyError as e:
        return f"missing:{e.args[0]}"
    except ValueError:
        return "mismatch:unparseable"
    return "missing:command"


def _cone_deriv_kind(x) -> str:
    return {
        "interior": "identity",
        "negative_interior": "zero",
        "mixed_signs": "mask",
        "has_zero": "directional_only",
    }[cone_region(x)]


def _check_refute(job, fields, x, scale) -> str | None:
    spec = job.spec
    inputs = spec["inputs"]
    gap = float(fields["gap"])
    direction = _vec(fields["direction"])
    t = 1e-5  # the smallest default step: the gap is the quotient at it
    if spec["set"]["kind"] == "ball":
        c = np.array(spec["set"]["center"], dtype=float)
        r = float(spec["set"]["radius"])
        a = x - c
        d = np.array(inputs["d"], dtype=float) if "d" in inputs else a
        if not _close(direction, d, _inf(d)):
            return "mismatch:direction"
        # For outward d the forward quotient loses d's radial part and the
        # backward side is the identity, so the gap is <a/‖a‖, d>.
        nd = scaled_norm(d)
        want = float(np.dot(a / scaled_norm(a), d))
        tol = 10.0 * t * nd * nd / r + 1e3 * EPS * (scale + nd) / t
        return None if abs(gap - want) <= tol else "mismatch:gap"
    if "d" in inputs:
        d = np.array(inputs["d"], dtype=float)
        if not _close(direction, d, _inf(d)):
            return "mismatch:direction"
        want = scaled_norm(np.where(x == 0.0, d, 0.0))
        # each nonzero coordinate's quotients carry rounding of eps·|x_i| / t
        tol = 8.0 * EPS * (scaled_norm(x) + scaled_norm(d)) / t + 64.0 * EPS * want
    else:
        k = int(np.flatnonzero(x == 0.0)[0])
        e = np.zeros(x.size)
        e[k] = 1.0
        if not np.array_equal(direction, e):
            return "mismatch:direction"
        if not np.array_equal(_vec(fields["forward_limit"]), e):
            return "mismatch:forward_limit"
        if not np.array_equal(_vec(fields["backward_limit"]), np.zeros(x.size)):
            return "mismatch:backward_limit"
        want, tol = 1.0, 64.0 * EPS
    return None if abs(gap - want) <= tol else "mismatch:gap"


def _check_seq(job, fields, verdicts) -> str | None:
    cmd, inputs = job.command, job.spec["inputs"]
    x = Seq.from_record(inputs["x"])
    try:
        if cmd == "project":
            got = _seq_text(fields["result"])
            want = seq_clamp(x)
            return None if got is not None and seq_same(got, want) else "mismatch:result"
        if cmd == "classify":
            return None if fields["region"] == seq_region(x) else "mismatch:region"
        if cmd == "gateaux":
            got = _seq_text(fields["result"])
            want = seq_gateaux(x, Seq.from_record(inputs["w"]))
            return None if got is not None and seq_same(got, want) else "mismatch:result"
        if cmd == "verify":
            ops = {op for op, *_ in verdicts}
            return None if ops == {"truncation_consistency", "oracle_agreement"} else "missing:VERDICT"
        if "n" in inputs:
            names = {"all_positive": "identity", "all_negative": "zero", "mixed_signs": "mask"}
            if fields["candidate"] != names[seq_region(x)]:
                return "mismatch:candidate"
            # Flipping pure-tail coordinate n to -x_n and to -2 x_n leaves
            # residuals |x_n| / 2|x_n| and 2|x_n| / 3|x_n| for every candidate.
            for key, want in (("residual_u", 1.0 / 2.0), ("residual_v", 2.0 / 3.0)):
                if abs(float(fields[key]) - want) > 64.0 * EPS:
                    return f"mismatch:{key}"
            return None if [v[0] for v in verdicts] == ["witness_constants"] else "missing:VERDICT"
        eps = float(inputs["epsilon"])
        e = _seq_text(fields["escape"])
        if e is None or e.tail is not None:
            return "mismatch:escape"
        outside = any(v < 0.0 for v in e.over.values())
        if fields["outside_cone"] != str(outside).lower() or not outside:
            return "mismatch:outside_cone"
        dist_sq, size = escape_distance_sq(x, e)
        if not math.sqrt(dist_sq) < eps:
            return "mismatch:escape_distance"
        got = float(fields["distance"])
        if abs(got * got - dist_sq) > 64.0 * EPS * size:
            return "mismatch:distance"
        return None if [v[0] for v in verdicts] == ["escape"] else "missing:VERDICT"
    except KeyError as e:
        return f"missing:{e.args[0]}"
    except ValueError:
        return "mismatch:unparseable"
