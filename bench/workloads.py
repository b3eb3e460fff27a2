"""Seeded job streams for the three benchmark workloads.

Every workload is a fixed table of job classes with fixed counts.  The seed
draws the values inside each class (points, directions, coefficients, job
seeds) and the order of the list; it never changes how many jobs of each
class there are.  Parameters that drive a job's cost (dimension, number of
overrides, tail ratio) come from fixed grids or from evenly spaced quantiles
that the seed only permutes, so one pass over the list costs about the same
for every seed and the latency percentiles do not jump between runs.

Each job carries the facts its reference check needs that are true by
construction (for example "this point was built on the sphere"), and the
name of the known defect its class probes, if any.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("verify_dense", "closed_forms", "seq_certificates")

# Scales of the magnitude minority in closed_forms (set, point and radius all
# scaled together); the range the library promises to handle.
MAGNITUDES = (1e-150, 1e-100, 1e-50, 1e-20, 1e20, 1e50, 1e100, 1e150)


@dataclass
class Job:
    spec: dict  # the JSON job file the program reads
    group: str  # generator class, e.g. "verify/ball/exterior/n16"
    truth: dict = field(default_factory=dict)  # facts fixed by construction
    defect: str | None = None  # known defect this class probes at the parent commit
    serial: int = -1  # creation index, before the seeded shuffle

    @property
    def command(self) -> str:
        return self.spec["command"]

    @property
    def set_kind(self) -> str:
        return self.spec["set"]["kind"]


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _floats(v) -> list[float]:
    return [float(c) for c in v]


# ---------------------------------------------------------------- dense sets


def _ball(rng, n, region, scale=1.0, center_scale=1.0):
    """Ball set and a point in the given region; returns (set, x, u, dist)."""
    r = float(rng.uniform(0.5, 2.0))
    c = rng.standard_normal(n) * center_scale
    u = _unit(rng, n)
    if region == "interior":
        dist = float(rng.uniform(0.1, 0.8)) * r
    elif region == "exterior":
        dist = float(rng.uniform(1.25, 3.0)) * r
    else:
        dist = r
    c, r, dist = c * scale, r * scale, dist * scale
    x = c + dist * u
    return {"kind": "ball", "center": _floats(c), "radius": r}, x, u, dist


def _cone_point(rng, n, signs, zeros=0, scale=1.0):
    """Orthant point with |x_i| in [0.1, 2] * scale and `zeros` exact zeros."""
    mag = rng.uniform(0.1, 2.0, size=n)
    if signs == "positive":
        s = np.ones(n)
    elif signs == "negative":
        s = -np.ones(n)
    else:
        s = rng.choice([-1.0, 1.0], size=n)
        s[0], s[-1] = 1.0, -1.0
    x = s * mag * scale
    if zeros:
        # never at index 0, which the refutation probes first when every
        # coordinate falls inside its zero band
        x[1 + rng.choice(n - 1, size=min(zeros, n - 1), replace=False)] = 0.0
    return x


def _direction_off_tangent(rng, n, normal):
    """Unit direction w with |<w, normal>| in [0.2, 0.9], so its side of the
    sphere is clear; `normal` is a unit vector."""
    along = float(rng.uniform(0.2, 0.9)) * float(rng.choice([-1.0, 1.0]))
    v = rng.standard_normal(n)
    v -= float(np.dot(v, normal)) * normal
    v /= np.linalg.norm(v)
    return along * normal + math.sqrt(1.0 - along * along) * v


def _job(command, set_spec, inputs, options=None):
    spec = {"command": command, "set": set_spec, "inputs": inputs}
    if options:
        spec["options"] = options
    return spec


# ------------------------------------------------------------- verify_dense


def _verify_ball(region, n, center_scale=1.0):
    def build(rng, _q):
        set_spec, x, _, _ = _ball(rng, n, region, center_scale=center_scale)
        seed = int(rng.integers(2**32))
        return _job("verify", set_spec, {"x": _floats(x)}, {"seed": seed}), {"region": region}

    return build


def _verify_cone(signs, n):
    def build(rng, _q):
        x = _cone_point(rng, n, signs)
        seed = int(rng.integers(2**32))
        return _job("verify", {"kind": "cone_rn"}, {"x": _floats(x)}, {"seed": seed}), {}

    return build


# (group, count, build function, known defect)
def _verify_dense_table():
    table = []
    # Size mix: 25% n=2, 62% n=16, 10% n=1000, 2% defect probes (n=2).  The
    # small dims cost about the same per job, so p50 sits inside one cluster;
    # the n=1000 jobs are the top 10%, so p99 sits inside them (in the
    # mixed-sign cone jobs, the slowest n=1000 kind).  174 jobs take 2-3 s,
    # so a run makes about eight passes, enough for a steady per-job mean.
    for n, (interior, exterior, cone_pos, cone_neg, cone_mixed) in (
        (2, (14, 14, 4, 4, 8)),
        (16, (36, 36, 9, 9, 18)),
        (1000, (4, 5, 2, 2, 5)),
    ):
        table.append((f"verify/ball/interior/n{n}", interior, _verify_ball("interior", n), None))
        table.append((f"verify/ball/exterior/n{n}", exterior, _verify_ball("exterior", n), None))
        table.append((f"verify/cone_rn/positive/n{n}", cone_pos, _verify_cone("positive", n), None))
        table.append((f"verify/cone_rn/negative/n{n}", cone_neg, _verify_cone("negative", n), None))
        table.append((f"verify/cone_rn/mixed/n{n}", cone_mixed, _verify_cone("mixed", n), None))
    # Exterior points of a ball centred 1e8 from the origin: the default scan
    # radii are absolute, so strict_decay fails (listed in ROADMAP.md).
    table.append(
        (
            "verify/ball/exterior/center1e8/n2",
            4,
            _verify_ball("exterior", 2, center_scale=1e8),
            "scan_radii_absolute",
        )
    )
    return table


# ------------------------------------------------------------- closed_forms


def _cf_ball(command, region, n, scale=1.0, with_w=False, with_d=False):
    def build(rng, _q):
        set_spec, x, u, _ = _ball(rng, n, region, scale=scale)
        inputs = {"x": _floats(x)}
        truth = {"region": region}
        if with_w:
            w = _direction_off_tangent(rng, n, u) if region == "sphere" else _unit(rng, n)
            inputs["w"] = _floats(w)
        if with_d:
            # outward direction: <d, x - c> > 0
            d = _direction_off_tangent(rng, n, u)
            if float(np.dot(d, u)) < 0.0:
                d = -d
            inputs["d"] = _floats(d)
        return _job(command, set_spec, inputs), truth

    return build


def _cf_cone(command, signs, n, zeros=0, scale=1.0, with_w=False, with_d=False):
    def build(rng, _q):
        x = _cone_point(rng, n, signs, zeros=zeros, scale=scale)
        inputs = {"x": _floats(x)}
        if with_w:
            inputs["w"] = _floats(rng.standard_normal(n))
        if with_d:
            # a clear component on every zero coordinate keeps the gap well
            # above the refutation threshold
            d = _unit(rng, n)
            zero = x == 0.0
            d[zero] = rng.uniform(0.5, 1.0, size=int(zero.sum())) * rng.choice([-1.0, 1.0], size=int(zero.sum()))
            inputs["d"] = _floats(d / np.linalg.norm(d))
        return _job(command, {"kind": "cone_rn"}, inputs), {}

    return build


def _cf_huge_ball(rng, _q):
    # ‖x‖ ~ 1e200: np.linalg.norm overflows and project_ball returns the
    # center (listed in ROADMAP.md).
    set_spec, _, _, _ = _ball(rng, 2, "interior")
    x = _unit(rng, 2) * float(rng.uniform(1.0, 5.0)) * 1e200
    return _job("project", set_spec, {"x": _floats(x)}), {"region": "exterior"}


def _cf_wide_cone(rng, _q):
    # classify_cone([1e15, 1e-3]) says has_zero: the zero band is relative to
    # max|x| (listed in ROADMAP.md).
    x = [float(rng.uniform(1.0, 9.0)) * 1e15, float(rng.uniform(1.0, 9.0)) * 1e-3]
    return _job("classify", {"kind": "cone_rn"}, {"x": x}), {}


def _closed_forms_table():
    table = []

    def add(group, count, build, defect=None):
        table.append((group, count, build, defect))

    # Unit-scale jobs.  Per dim: n=2 and n=16 are cheap (0.1-0.4 ms), n=1000
    # costs 3-12 ms; n=1000 is 12% of the list so p99 falls inside it and p50
    # inside the cheap bulk.
    for n, k in ((2, 4), (16, 4), (1000, 1)):
        add(f"project/ball/interior/n{n}", 6 * k, _cf_ball("project", "interior", n))
        add(f"project/ball/exterior/n{n}", 6 * k, _cf_ball("project", "exterior", n))
        add(f"project/cone_rn/mixed/n{n}", 8 * k, _cf_cone("project", "mixed", n, zeros=1))
        add(f"classify/ball/interior/n{n}", 4 * k, _cf_ball("classify", "interior", n))
        add(f"classify/ball/exterior/n{n}", 4 * k, _cf_ball("classify", "exterior", n))
        add(f"classify/ball/sphere/n{n}", 4 * k, _cf_ball("classify", "sphere", n))
        add(f"classify/cone_rn/mixed/n{n}", 6 * k, _cf_cone("classify", "mixed", n))
        add(f"classify/cone_rn/zeros/n{n}", 6 * k, _cf_cone("classify", "mixed", n, zeros=1))
        add(f"derive/ball/interior/n{n}", 4 * k, _cf_ball("derive", "interior", n, with_w=True))
        # at n=1000 the slowest kind (~12 ms): 2% of the list, so p99 falls
        # in the middle of it rather than between two kinds
        add(f"derive/ball/exterior/n{n}", 6 * k if n < 1000 else 20, _cf_ball("derive", "exterior", n, with_w=True))
        add(f"derive/ball/sphere/n{n}", 2 * k, _cf_ball("derive", "sphere", n, with_w=True))
        add(f"derive/cone_rn/mixed/n{n}", 6 * k, _cf_cone("derive", "mixed", n, with_w=True))
        add(f"derive/cone_rn/zeros/n{n}", 4 * k, _cf_cone("derive", "mixed", n, zeros=1, with_w=True))
        add(f"gateaux/ball/sphere/n{n}", 8 * k, _cf_ball("gateaux", "sphere", n, with_w=True))
        add(f"gateaux/cone_rn/zeros/n{n}", 8 * k, _cf_cone("gateaux", "mixed", n, zeros=1, with_w=True))
        add(f"refute/ball/sphere/n{n}", 4 * k, _cf_ball("refute", "sphere", n))
        add(f"refute/ball/sphere_d/n{n}", 4 * k, _cf_ball("refute", "sphere", n, with_d=True))
        add(f"refute/cone_rn/zeros/n{n}", 4 * k, _cf_cone("refute", "mixed", n, zeros=1))
        add(f"refute/cone_rn/zeros_d/n{n}", 4 * k, _cf_cone("refute", "mixed", n, zeros=2, with_d=True))
    # Magnitude minority: one job per (command, set, scale) at n=16, with the
    # set, point and radius scaled together.  Tolerance bands that ignore the
    # scale make several of these fail (listed in ROADMAP.md).
    for s in MAGNITUDES:
        tag = f"{s:.0e}"
        add(f"scaled/project/ball/{tag}", 1, _cf_ball("project", "exterior", 16, scale=s), "absolute_tolerances")
        add(f"scaled/classify/ball/{tag}", 1, _cf_ball("classify", "exterior", 16, scale=s), "absolute_tolerances")
        add(f"scaled/classify/cone_rn/{tag}", 1, _cf_cone("classify", "mixed", 16, scale=s), "absolute_tolerances")
        add(f"scaled/derive/ball/{tag}", 1, _cf_ball("derive", "exterior", 16, scale=s, with_w=True), "absolute_tolerances")
        add(f"scaled/derive/cone_rn/{tag}", 1, _cf_cone("derive", "mixed", 16, scale=s, with_w=True), "absolute_tolerances")
        add(f"scaled/gateaux/ball/{tag}", 1, _cf_ball("gateaux", "sphere", 16, scale=s, with_w=True), "absolute_tolerances")
        add(f"scaled/refute/ball/{tag}", 1, _cf_ball("refute", "sphere", 16, scale=s), "absolute_tolerances")
        add(f"scaled/refute/cone_rn/{tag}", 1, _cf_cone("refute", "mixed", 16, zeros=1, scale=s), "absolute_tolerances")
    # 20 each brings the list to 1000 jobs, so 10 lie beyond p99
    add("defect/project/ball/norm1e200", 20, _cf_huge_ball, "norm_overflow")
    add("defect/classify/cone_rn/wide", 20, _cf_wide_cone, "zero_band_relative_to_max")
    return table


# --------------------------------------------------------- seq_certificates


def _seq(rng, k, rho, signs, start_back=0, zero_every=0, mag_hi=2.0):
    """Record with overrides on 1..k and a geometric tail from k+1-start_back.

    signs: "positive", "negative" or "mixed" (override signs random, tail sign
    random).  zero_every > 0 writes exact zeros into some overrides.
    Override magnitudes lie in [0.05, mag_hi], the tail coefficient's in [0.5, 2].
    """
    start = max(1, k + 1 - start_back)
    coeff = float(rng.uniform(0.5, 2.0))
    mag = rng.uniform(0.05, mag_hi, size=k)
    if signs == "positive":
        s, tail_sign = np.ones(k), 1.0
    elif signs == "negative":
        s, tail_sign = -np.ones(k), -1.0
    else:
        s = rng.choice([-1.0, 1.0], size=k)
        tail_sign = float(rng.choice([-1.0, 1.0]))
    vals = s * mag
    if zero_every and k:
        vals[:: zero_every] = 0.0
    overrides = [[i + 1, float(v)] for i, v in enumerate(vals)]
    tail = {"kind": "geometric", "a": tail_sign * coeff, "rho": float(rho), "start": int(start)}
    return {"overrides": overrides, "tail": tail}


def _seq_simple(command, signs, zero_every=0, with_w=False):
    def build(rng, q):
        k, rho = int(round(q[0] * 200)), 0.3 + 0.69 * q[1]
        x = _seq(rng, k, rho, signs, start_back=int(rng.integers(0, 4)), zero_every=zero_every)
        inputs = {"x": x}
        if with_w:
            kw = int(rng.integers(0, 40))
            inputs["w"] = _seq(rng, kw, float(rng.uniform(0.3, 0.95)), "mixed")
        return _job(command, {"kind": "cone_l2"}, inputs), {}

    return build


def _seq_witness_n(signs, rho=None, tiny_tail=False):
    def build(rng, q):
        k = int(round(q[0] * 200))
        r = rho if rho is not None else 0.3 + 0.69 * q[1]
        x = _seq(rng, k, r, signs, start_back=int(rng.integers(0, 4)))
        tail = x["tail"]
        first = max(k + 1, tail["start"])
        a = abs(tail["a"]) * r ** (first - tail["start"])
        if tiny_tail:
            # x_n <= 1e-170: (x_n)^2 underflows and distance() returns 0.
            lo = math.ceil(math.log(1e-170 / a) / math.log(r))
            offset = lo + int(rng.integers(0, 700))
        else:
            # x_n >= 1e-140: squares stay normal numbers.
            hi = max(1, math.floor(math.log(1e-140 / a) / math.log(r)))
            offset = int(rng.integers(0, min(hi, 5000) + 1))
        inputs = {"x": x, "n": first + offset}
        return _job("witness", {"kind": "cone_l2"}, inputs), {}

    return build


def _seq_escape(rho, eps):
    def build(rng, q):
        k = int(round(q[0] * 200))
        # Small overrides keep ‖x‖² <= ~20 outside the defect class: distance()
        # then errs by far less than the escape's margin below eps, so the
        # verdict does not flip between seeds.
        x = _seq(rng, k, rho, "positive", start_back=int(rng.integers(0, 4)), mag_hi=0.2)
        return _job("witness", {"kind": "cone_l2"}, {"x": x, "epsilon": eps}), {}

    return build


def _seq_certificates_table():
    table = []

    def add(group, count, build, defect=None):
        table.append((group, count, build, defect))

    add("project/mixed", 120, _seq_simple("project", "mixed", zero_every=7))
    add("classify/positive", 40, _seq_simple("classify", "positive"))
    add("classify/negative", 40, _seq_simple("classify", "negative"))
    add("classify/mixed", 40, _seq_simple("classify", "mixed"))
    add("classify/zeros", 30, _seq_simple("classify", "mixed", zero_every=5))
    add("gateaux/positive", 40, _seq_simple("gateaux", "positive", with_w=True))
    add("gateaux/negative", 40, _seq_simple("gateaux", "negative", with_w=True))
    add("gateaux/mixed", 60, _seq_simple("gateaux", "mixed", with_w=True))
    add("verify/mixed", 130, _seq_simple("verify", "mixed", zero_every=9))
    add("witness_n/positive", 50, _seq_witness_n("positive"))
    add("witness_n/negative", 50, _seq_witness_n("negative"))
    add("witness_n/mixed", 60, _seq_witness_n("mixed"))
    # rho = 0.5 with n far enough out that x_n^2 underflows (and, for the
    # largest n, x_n itself): ZeroDivisionError in distance().
    add("defect/witness_n/rho0.5/underflow", 30, _seq_witness_n("positive", rho=0.5, tiny_tail=True), "distance_underflow")
    # Escape witnesses: cost grows like log(1/eps) / (1 - rho).
    for rho in (0.3, 0.5, 0.7, 0.9):
        for eps in (1e-2, 1e-4, 1e-6):
            add(f"witness_eps/rho{rho}/eps{eps:.0e}", 20, _seq_escape(rho, eps))
    add("witness_eps/rho0.99/eps1e-02", 15, _seq_escape(0.99, 1e-2))
    add("witness_eps/rho0.99/eps1e-06", 15, _seq_escape(0.99, 1e-6))
    # rho = 0.999, eps = 1e-6: distance() uses the norm identity across
    # different tails, and its cancellation error exceeds eps^2, so the
    # escape verdict fails.  These are the slowest 2% of jobs, so p99 lies
    # inside this class.
    add("defect/witness_eps/rho0.999/eps1e-06", 20, _seq_escape(0.999, 1e-6), "distance_cancellation")
    return table


TABLES = {
    "verify_dense": _verify_dense_table,
    "closed_forms": _closed_forms_table,
    "seq_certificates": _seq_certificates_table,
}


def generate(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The workload's job list for this seed, in run order.

    size "tiny" keeps one job per class (for the smoke test).
    """
    rng = np.random.default_rng([seed & (2**64 - 1), WORKLOADS.index(workload)])
    jobs = []
    for group, count, build, defect in TABLES[workload]():
        if size == "tiny":
            count = 1
        quantiles = np.stack(
            [rng.permutation((np.arange(count) + 0.5) / count) for _ in range(2)], axis=1
        )
        for i in range(count):
            spec, truth = build(rng, quantiles[i])
            jobs.append(Job(spec, group, truth, defect, serial=len(jobs)))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def digest(jobs: list[Job]) -> str:
    """sha256 of the job files in run order."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps(job.spec, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
