"""End-to-end acceptance checks for the projection-derivative toolkit.

Each test exercises one shipped guarantee at its stated tolerance and prints
one summary line (visible under ``pytest -s``):

    ACCEPTANCE <nn> <name>: pass|fail
"""

import time

import numpy as np

from projderiv import (
    Ball,
    GeometricTail,
    SeqVector,
    ball_frechet_derivative,
    ball_gateaux_sphere,
    cone_frechet_derivative,
    cone_refute_frechet,
    distance,
    fd_directional,
    in_cone,
    interior_escape_witness,
    l2_nonfrechet_witness,
    project_ball,
    project_cone,
    project_cone_l2,
    qp_projection_oracle,
    refute_linearity,
    strict_residual_scan,
)
from projderiv.verify import CERTIFICATE_GATE, FD_STEP


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'pass' if ok else 'fail'}")
    assert ok, f"acceptance check {number} ({name}) failed"


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / float(np.linalg.norm(v))


def _mixed_point(rng, dim):
    """No zero coordinates, both signs present (dim >= 2)."""
    x = rng.uniform(0.2, 3.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    x[0], x[1] = abs(x[0]), -abs(x[1])
    return x


def test_acceptance_01_projection_axioms():
    # 1e4 random pairs per feasible set across dims {1,2,3,8,16}: the
    # variational inequality, monotonicity, and nonexpansiveness all hold
    # with slack >= -1e-10, in under 5 seconds.
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = np.inf
    for dim in (1, 2, 3, 8, 16):
        ball = Ball(center=rng.normal(size=dim), radius=float(rng.uniform(0.5, 2.5)))
        projections = (lambda v, b=ball: project_ball(b, v), project_cone)
        for _ in range(2000):
            x = rng.normal(scale=2.0, size=dim)
            y = rng.normal(scale=2.0, size=dim)
            for project in projections:
                px, py = project(x), project(y)
                variational = float(np.dot(x - px, px - py))
                monotone = float(np.dot(px - py, x - y) - np.dot(px - py, px - py))
                nonexpansive = float(np.linalg.norm(x - y) - np.linalg.norm(px - py))
                worst = min(worst, variational, monotone, nonexpansive)
    elapsed = time.perf_counter() - start
    _report(1, "projection-axioms", worst >= -1e-10 and elapsed < 5.0)


def test_acceptance_02_oracle_agreement():
    # closed-form projections certified optimal at 1e3 random points per
    # set, dims <= 8: every certificate residual <= 64 eps in units of the
    # job scale (at most 2.8e-9 absolute at every job scale up to 1e5)
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        x = rng.normal(scale=2.0, size=dim)
        ball = Ball(center=rng.normal(size=dim), radius=float(rng.uniform(0.5, 2.0)))
        cert_ball = qp_projection_oracle(ball, x, project_ball(ball, x))
        cert_cone = qp_projection_oracle(None, x, project_cone(x))
        worst = max(worst, cert_ball, cert_cone)
    _report(2, "oracle-agreement", worst <= CERTIFICATE_GATE)


def test_acceptance_03_derivative_vs_central_difference():
    # linear-derivative formulas against central differences: 100 interior
    # and 100 exterior ball points at <= 1e-6 relative error, and 100
    # mixed-sign orthant points at <= 1e-9 absolute error
    rng = np.random.default_rng(103)
    ok = True
    for exterior in (False, True):
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            ball = Ball(center=rng.normal(size=dim), radius=float(rng.uniform(0.5, 2.5)))
            reach = 1.3 + rng.uniform(0.0, 1.0) if exterior else 0.6
            x = ball.center + (reach * ball.radius) * _unit(rng, dim)
            applied = ball_frechet_derivative(ball, x).apply
            w = _unit(rng, dim)
            h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
            fd = (project_ball(ball, x + h * w) - project_ball(ball, x - h * w)) / (2.0 * h)
            err = float(np.linalg.norm(fd - applied(w)))
            ok &= err <= 1e-6 * max(float(np.linalg.norm(applied(w))), 1.0)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        x = _mixed_point(rng, dim)
        applied = cone_frechet_derivative(x).apply
        w = _unit(rng, dim)
        h = min(FD_STEP, float(np.min(np.abs(x))) / 16.0)  # keeps every coordinate's sign
        fd = (project_cone(x + h * w) - project_cone(x - h * w)) / (2.0 * h)
        ok &= float(np.linalg.norm(fd - applied(w))) <= 1e-9
    _report(3, "derivative-vs-central-difference", ok)


def test_acceptance_04_strict_residual_decay():
    # two-point remainder scans at 20 qualifying points per regime (ball
    # interior/exterior; orthant all-positive/all-negative/mixed):
    # residual(rho/10) <= 0.5 * residual(rho) across rho in 1e-2 .. 1e-5
    rng = np.random.default_rng(104)
    radii = (1e-2, 1e-3, 1e-4, 1e-5)
    ok = True
    for index in range(20):
        dim = int(rng.integers(2, 9))
        ball = Ball(center=rng.normal(size=dim), radius=float(rng.uniform(0.5, 2.5)))
        ball_project = lambda p, b=ball: project_ball(b, p)
        interior = ball.center + (0.5 * ball.radius) * _unit(rng, dim)
        exterior = ball.center + ((1.5 + rng.uniform(0.0, 1.0)) * ball.radius) * _unit(rng, dim)
        cases = [
            (ball_project, ball_frechet_derivative(ball, interior).apply, interior),
            (ball_project, ball_frechet_derivative(ball, exterior).apply, exterior),
        ]
        all_positive = rng.uniform(0.2, 3.0, size=dim)
        all_negative = -rng.uniform(0.2, 3.0, size=dim)
        for x in (all_positive, all_negative, _mixed_point(rng, dim)):
            cases.append((project_cone, cone_frechet_derivative(x).apply, x))
        for f, applied, x in cases:
            scan = strict_residual_scan(
                f, applied, x, radii=radii, samples_per_radius=64, seed=1000 + index
            )
            ok &= scan.worst_decay_ratio() <= 0.5
    _report(4, "strict-residual-decay", ok)


def test_acceptance_05_sphere_radial_refutation():
    # at 20 random sphere points with the radial probe direction d = x, the
    # linearity gap equals the radius within 1e-6 (radii 1 and 2.5)
    rng = np.random.default_rng(105)
    ok = True
    for radius in (1.0, 2.5):
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            ball = Ball(center=np.zeros(dim), radius=radius)
            x = radius * _unit(rng, dim)
            gap = refute_linearity(lambda p, b=ball: project_ball(b, p), x, x).gap
            ok &= abs(gap - radius) <= 1e-6
    _report(5, "sphere-radial-refutation", ok)


def test_acceptance_06_orthant_boundary_refutation():
    # at 20 random points with at least one zero coordinate, the certificate
    # along the smallest zero-index axis has gap 1 within 1e-6
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        x = rng.uniform(0.2, 3.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        zero_count = int(rng.integers(1, dim + 1))
        zeros = rng.choice(dim, size=zero_count, replace=False)
        x[zeros] = 0.0
        cert = cone_refute_frechet(x)
        ok &= abs(cert.gap - 1.0) <= 1e-6
        expected_axis = np.zeros(dim)
        expected_axis[int(min(zeros))] = 1.0
        ok &= np.array_equal(cert.direction, expected_axis)
    _report(6, "orthant-boundary-refutation", ok)


def test_acceptance_07_sphere_directional_formulas():
    # one-sided FD errors shrink first-order (decade ratios in [5, 20]) for
    # generic directions, and the radial directions reproduce the exact
    # values: 0 along +x, w along -x, within 1e-9
    rng = np.random.default_rng(107)
    ok = True
    for radius in (1.0, 2.5):
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            ball = Ball(center=np.zeros(dim), radius=radius)
            x = radius * _unit(rng, dim)
            radial = x / radius
            tangent = rng.standard_normal(dim)
            tangent -= np.dot(tangent, radial) * radial
            tangent /= float(np.linalg.norm(tangent))
            w = tangent + rng.uniform(0.3, 0.7) * radial
            claim = ball_gateaux_sphere(ball, x, w)
            f = lambda p, b=ball: project_ball(b, p)
            e1, e2, e3 = (
                float(np.linalg.norm(fd_directional(f, x, w, t) - claim)) for t in (1e-3, 1e-4, 1e-5)
            )
            ok &= 5.0 <= e1 / e2 <= 20.0 and 5.0 <= e2 / e3 <= 20.0
            outward = ball_gateaux_sphere(ball, x, x)
            ok &= float(np.linalg.norm(outward)) <= 1e-9
            ok &= float(np.linalg.norm(ball_gateaux_sphere(ball, x, -x) - (-x))) <= 1e-9
            ok &= float(np.linalg.norm(fd_directional(f, x, x) - outward)) <= 1e-9
    _report(7, "sphere-directional-formulas", ok)


def _dense_witness_residuals(x, n, candidate, length):
    """Independent residual computation on a plain-array truncation."""
    t = x.truncate(length)
    apply_candidate = {
        "identity": lambda d: d,
        "zero": lambda d: np.zeros_like(d),
        "mask": lambda d: d * (t > 0.0),
    }[candidate]
    out = []
    for mult in (-1.0, -2.0):
        pert = t.copy()
        pert[n - 1] = mult * t[n - 1]
        numerator = np.maximum(pert, 0.0) - np.maximum(t, 0.0) - apply_candidate(pert - t)
        out.append(float(np.linalg.norm(numerator) / np.linalg.norm(pert - t)))
    return out


def test_acceptance_08_sequence_witness_constants():
    # single-coordinate sign flips defeat the only derivative candidate with
    # residuals exactly 1/2 and 2/3, independent of the flipped index, for
    # both the all-positive and all-negative geometric profiles; the closed
    # forms are confirmed by a dense truncation oracle (tolerance 1e-12)
    ok = True
    for coeff in (1.0, -1.0):
        x = SeqVector({}, GeometricTail(coeff=coeff, ratio=0.5, start=1))
        for n in (5, 10, 100):
            report = l2_nonfrechet_witness(x, n)
            ok &= abs(report.residual_u - 0.5) <= 1e-12
            ok &= abs(report.residual_v - 2.0 / 3.0) <= 1e-12
            oracle_u, oracle_v = _dense_witness_residuals(x, n, report.candidate, n + 32)
            ok &= abs(report.residual_u - oracle_u) <= 1e-12
            ok &= abs(report.residual_v - oracle_v) <= 1e-12
    _report(8, "sequence-witness-constants", ok)


def test_acceptance_09_interior_escape():
    # for 50 random cone members and every epsilon in {1, 1e-3, 1e-6}, the
    # escape witness leaves the cone while staying strictly within epsilon
    rng = np.random.default_rng(109)
    members = [SeqVector({}, None)]
    while len(members) < 50:
        if rng.random() < 0.3:
            indices = rng.integers(1, 30, size=4)
            values = rng.uniform(0.0, 3.0, size=4)
            members.append(SeqVector({int(i): float(v) for i, v in zip(indices, values)}, None))
        else:
            overrides = {i: float(v) for i, v in enumerate(rng.uniform(-2.0, 3.0, size=5), start=1)}
            tail = GeometricTail(
                coeff=float(rng.uniform(0.2, 2.0)),
                ratio=float(rng.uniform(0.3, 0.9)),
                start=6,
            )
            members.append(project_cone_l2(SeqVector(overrides, tail)))
    ok = True
    for x in members:
        for eps in (1.0, 1e-3, 1e-6):
            y = interior_escape_witness(x, eps)
            ok &= not in_cone(y)
            ok &= distance(x, y) < eps
    _report(9, "interior-escape", ok)


def test_acceptance_10_directional_derivative_exactness():
    # at the origin the directional derivative IS the projection, bit for
    # bit, for 1e3 random directions; and forward quotients of the clamp
    # reproduce the directional derivative exactly for steps below the
    # sign-preservation guard (dyadic steps, integer data)
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        w = rng.normal(scale=3.0, size=dim)
        ok &= np.array_equal(cone_frechet_derivative(np.zeros(dim)).apply(w), project_cone(w))
    steps = (2.0**-17, 2.0**-18, 2.0**-19)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        x = rng.integers(-3, 4, size=dim).astype(np.float64)
        x[int(rng.integers(dim))] = 0.0
        w = rng.integers(-4, 5, size=dim).astype(np.float64)
        if not np.any(w):
            w[0] = 1.0
        # the sign-preservation guard: no step flips a nonzero coordinate
        ok &= max(steps) <= min(FD_STEP, float(np.min(np.abs(x[x != 0.0]), initial=np.inf)) / 16.0)
        claim = cone_frechet_derivative(x).apply(w)
        quotients = [fd_directional(project_cone, x, w, t) for t in steps]
        ok &= [float(np.linalg.norm(q - claim)) for q in quotients] == [0.0, 0.0, 0.0]
        ok &= np.array_equal(quotients[-1], claim)
    _report(10, "directional-derivative-exactness", ok)
