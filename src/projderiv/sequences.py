"""Positive cone in the space of square-summable sequences.

Vectors are represented exactly as finitely many index overrides laid over
an optional geometric tail (``coeff * ratio**(i - start)`` from index
``start`` on, zero before it unless overridden).  This family is closed
under the operations here — clamping, masking, single-coordinate edits —
and all norms and inner products have closed forms, so the infinite-
dimensional phenomena survive with no truncation error:

* the cone has empty interior (:func:`interior_escape_witness` produces an
  arbitrarily close outside point for any cone member),
* the projection clamps coordinates but is nowhere Fréchet differentiable
  on the sign-definite regions, despite having one-sided directional
  derivatives there (:func:`l2_gateaux`); :func:`l2_nonfrechet_witness`
  pins the failure down with residuals that stay at 1/2 and 2/3 no matter
  how far out the probed coordinate sits.

Indices are 1-based throughout, matching the serialized form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .vectors import Vector, parse_numbers


@dataclass(frozen=True)
class GeometricTail:
    """Tail coordinates coeff * ratio**(i - start) for i >= start."""

    coeff: float
    ratio: float
    start: int

    def __post_init__(self):
        coeff, ratio = float(self.coeff), float(self.ratio)
        if not math.isfinite(coeff):
            raise ValueError("tail coefficient must be finite")
        if not 0.0 < ratio < 1.0:
            raise ValueError("tail ratio must lie strictly between 0 and 1")
        if isinstance(self.start, bool) or not isinstance(self.start, int) or self.start < 1:
            raise ValueError("tail start must be a positive integer index")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "ratio", ratio)

    def value_at(self, i: int) -> float:
        if i < self.start:
            return 0.0
        try:
            return self.coeff * self.ratio ** (i - self.start)
        except OverflowError:  # an exponent beyond the float range: ratio < 1 underflows
            return 0.0


def _tail_value(tail: GeometricTail | None, i: int) -> float:
    return 0.0 if tail is None else tail.value_at(i)


def _check_index(i) -> int:
    if isinstance(i, bool) or not isinstance(i, int) or i < 1:
        raise ValueError("coordinate indices must be positive integers")
    return i


@dataclass(frozen=True)
class SeqVector:
    """Square-summable sequence: finite overrides over an optional geometric tail.

    Construction canonicalizes: a zero-coefficient tail becomes the zero
    tail, and overrides exactly equal to the tail value underneath them are
    dropped.  Equality is therefore representation equality of canonical
    forms, with no tolerance.
    """

    overrides: Mapping[int, float] = field(default_factory=dict)
    tail: GeometricTail | None = None

    def __post_init__(self):
        tail = self.tail
        if tail is not None and tail.coeff == 0.0:
            tail = None
        clean: dict[int, float] = {}
        for i, v in self.overrides.items():
            _check_index(i)
            v = float(v)
            if not math.isfinite(v):
                raise ValueError("coordinate values must be finite")
            if v == _tail_value(tail, i):
                continue
            clean[i] = v
        object.__setattr__(self, "overrides", dict(sorted(clean.items())))
        object.__setattr__(self, "tail", tail)

    @property
    def support_max(self) -> int:
        """Largest overridden index (0 when there are no overrides)."""
        return max(self.overrides, default=0)

    def coord(self, i: int) -> float:
        _check_index(i)
        if i in self.overrides:
            return self.overrides[i]
        return _tail_value(self.tail, i)

    def with_coord(self, i: int, value: float) -> "SeqVector":
        """Copy with coordinate i set to the given value."""
        ov = dict(self.overrides)
        ov[_check_index(i)] = float(value)
        return SeqVector(ov, self.tail)

    def add_finite(self, delta: Mapping[int, float]) -> "SeqVector":
        """Copy with finitely many coordinates shifted by delta."""
        ov = dict(self.overrides)
        for i, v in delta.items():
            ov[_check_index(i)] = self.coord(i) + float(v)
        return SeqVector(ov, self.tail)

    def truncate(self, m: int) -> Vector:
        """First m coordinates as a dense array."""
        if m < 1:
            raise ValueError("truncation length must be at least 1")
        return np.array([self.coord(i) for i in range(1, m + 1)])

    def dot(self, other: "SeqVector") -> float:
        """Inner product in closed form (geometric series for the tails)."""
        idx = set(self.overrides) | set(other.overrides)
        terms = [
            self.coord(i) * other.coord(i)
            - _tail_value(self.tail, i) * _tail_value(other.tail, i)
            for i in idx
        ]
        total = math.fsum(terms)
        if self.tail is not None and other.tail is not None:
            s0 = max(self.tail.start, other.tail.start)
            head = self.tail.value_at(s0) * other.tail.value_at(s0)
            total += head / (1.0 - self.tail.ratio * other.tail.ratio)
        return total

    def norm_sq(self) -> float:
        return max(self.dot(self), 0.0)

    def tail_mass_after(self, j: int) -> float:
        """Sum of squared coordinates at indices strictly beyond j."""
        if j < 0:
            raise ValueError("index must be nonnegative")
        terms = [
            self.overrides[i] ** 2 - _tail_value(self.tail, i) ** 2
            for i in self.overrides
            if i > j
        ]
        total = math.fsum(terms)
        if self.tail is not None:
            head = self.tail.value_at(max(j + 1, self.tail.start))
            total += head * head / (1.0 - self.tail.ratio**2)
        return max(total, 0.0)

    def to_record(self) -> dict:
        """Plain-data form: {overrides: [[index, value]...], tail: {...}}."""
        if self.tail is None:
            tail = {"kind": "zero"}
        else:
            tail = {
                "kind": "geometric",
                "a": self.tail.coeff,
                "rho": self.tail.ratio,
                "start": self.tail.start,
            }
        return {
            "overrides": [[i, v] for i, v in sorted(self.overrides.items())],
            "tail": tail,
        }

    @classmethod
    def from_record(cls, record) -> "SeqVector":
        if not isinstance(record, dict) or set(record) != {"overrides", "tail"}:
            raise ValueError("record must have exactly the keys 'overrides' and 'tail'")
        pairs = record["overrides"]
        if not isinstance(pairs, list) or any(
            not isinstance(p, (list, tuple)) or len(p) != 2 for p in pairs
        ):
            raise ValueError("overrides must be a list of [index, value] pairs")
        ov = {}
        for i, v in pairs:
            if _check_index(i) in ov:
                raise ValueError(f"duplicate override index {i}")
            ov[i] = v
        parse_numbers(list(ov.values()), "coordinate value")  # the constructor converts them
        tail_rec = record["tail"]
        if not isinstance(tail_rec, dict) or "kind" not in tail_rec:
            raise ValueError("tail must be a record with a 'kind'")
        if tail_rec["kind"] == "zero":
            if set(tail_rec) != {"kind"}:
                raise ValueError("zero tail takes no parameters")
            tail = None
        elif tail_rec["kind"] == "geometric":
            if set(tail_rec) != {"kind", "a", "rho", "start"}:
                raise ValueError("geometric tail needs exactly a, rho, start")
            tail = GeometricTail(
                coeff=parse_numbers([tail_rec["a"]], "tail a")[0],
                ratio=parse_numbers([tail_rec["rho"]], "tail rho")[0],
                start=tail_rec["start"],
            )
        else:
            raise ValueError(f"unknown tail kind {tail_rec['kind']!r}")
        return cls(ov, tail)


def diff_coords(x: SeqVector, y: SeqVector) -> dict[int, float]:
    """Coordinates of x - y, which is finitely supported when tails match."""
    if x.tail != y.tail:
        raise ValueError("x - y has infinite support: tails differ")
    idx = set(x.overrides) | set(y.overrides)
    return {i: x.coord(i) - y.coord(i) for i in idx}


def distance(x: SeqVector, y: SeqVector) -> float:
    """‖x - y‖.  Exact finite sum when the tails match; for differing tails
    falls back to the norm/inner-product identity, which loses half the
    significant digits when x and y nearly coincide.  The finite sum scales
    the differences by an exact power of two so that no square under- or overflows."""
    if x.tail == y.tail:
        diffs = diff_coords(x, y).values()
        top = max(map(abs, diffs), default=0.0)
        if top == 0.0:
            return 0.0
        k = math.frexp(top)[1]
        scaled = [math.ldexp(d, -k) for d in diffs]
        return math.ldexp(math.sqrt(math.fsum(d * d for d in scaled)), k)
    gap_sq = x.norm_sq() - 2.0 * x.dot(y) + y.norm_sq()
    return math.sqrt(max(gap_sq, 0.0))


class L2Region(Enum):
    ALL_POSITIVE = "all_positive"  # every coordinate strictly positive
    ALL_NEGATIVE = "all_negative"  # every coordinate strictly negative
    MIXED_SIGNS = "mixed_signs"  # no zeros, both signs (finite minority side)
    OTHER = "other"  # has a zero coordinate (always true with a zero tail)


def classify_l2(x: SeqVector) -> L2Region:
    """Sign-pattern region of the full (infinite) coordinate sequence.

    Sign tests are exact: unlike the finite-dimensional classifier there is
    no zero band, because the representation stores signs exactly.
    """
    t = x.tail
    if t is None:
        return L2Region.OTHER
    if any(i not in x.overrides for i in range(1, t.start)):
        return L2Region.OTHER
    if any(v == 0.0 for v in x.overrides.values()):
        return L2Region.OTHER
    signs = {v > 0.0 for v in x.overrides.values()}
    signs.add(t.coeff > 0.0)
    if signs == {True}:
        return L2Region.ALL_POSITIVE
    if signs == {False}:
        return L2Region.ALL_NEGATIVE
    return L2Region.MIXED_SIGNS


def in_cone(x: SeqVector) -> bool:
    """Membership in the positive cone (every coordinate >= 0)."""
    if any(v < 0.0 for v in x.overrides.values()):
        return False
    return x.tail is None or x.tail.coeff > 0.0


def project_cone_l2(x: SeqVector) -> SeqVector:
    """Nearest point of the positive cone: clamp every coordinate at zero."""
    if x.tail is not None and x.tail.coeff < 0.0:
        return SeqVector({i: v for i, v in x.overrides.items() if v > 0.0}, None)
    # zero or positive tail survives; keep explicit zeros shadowing a positive tail
    return SeqVector({i: (v if v > 0.0 else 0.0) for i, v in x.overrides.items()}, x.tail)


def l2_gateaux(x: SeqVector, w: SeqVector) -> SeqVector:
    """One-sided directional derivative of the cone projection at x along w.

    Exists on the three sign-definite regions — identity, zero map, or the
    mask keeping w on x's positive coordinates — even though none of them
    contains a Fréchet differentiability point.
    """
    region = classify_l2(x)
    if region is L2Region.OTHER:
        raise ValueError("directional derivative needs a sign-definite base point")
    if region is L2Region.ALL_POSITIVE:
        return w
    if region is L2Region.ALL_NEGATIVE:
        return SeqVector({}, None)
    if x.tail.coeff > 0.0:
        negative = {i: 0.0 for i, v in x.overrides.items() if v < 0.0}
        return SeqVector({**w.overrides, **negative}, w.tail)
    return SeqVector({i: w.coord(i) for i, v in x.overrides.items() if v > 0.0}, None)


@dataclass(frozen=True)
class WitnessReport:
    """Two-perturbation evidence that the Gâteaux candidate is not Fréchet.

    Perturbing the pure-tail coordinate n to -x_n leaves residual_u, and to
    -2 x_n leaves residual_v, both normalized by the perturbation size.
    Fréchet differentiability would force both to vanish as n grows; they
    stay at 1/2 and 2/3 exactly, for every n.
    """

    n: int
    candidate: str
    residual_u: float
    residual_v: float


_CANDIDATE_NAME = {
    L2Region.ALL_POSITIVE: "identity",
    L2Region.ALL_NEGATIVE: "zero",
    L2Region.MIXED_SIGNS: "mask",
}


def l2_nonfrechet_witness(x: SeqVector, n: int) -> WitnessReport:
    """Residuals of the Gâteaux candidate under two flips of coordinate n.

    n must sit in the pure-tail region (beyond every override), where the
    coordinate is nonzero but arbitrarily small — exactly where a Fréchet
    derivative would have to win and does not.
    """
    region = classify_l2(x)
    if region is L2Region.OTHER:
        raise ValueError("witness needs a sign-definite base point")
    _check_index(n)
    if n <= x.support_max or n < x.tail.start:
        raise ValueError("witness index must lie in the pure-tail region beyond all overrides")
    xn = x.coord(n)
    if abs(xn) < sys.float_info.min:
        # x_n is subnormal or underflowed to 0, where its flips would round.
        # Flipping coordinate n moves only coordinate n of the projection and
        # of the candidate, so both residuals are ratios of multiples of |x_n|
        # and do not depend on its size: probe a unit coordinate of its sign.
        xn = math.copysign(1.0, x.tail.coeff)
        x = x.with_coord(n, xn)
    px = project_cone_l2(x)

    def residual(mult: float) -> float:
        pert = x.with_coord(n, mult * xn)
        shift = SeqVector({n: mult * xn - xn}, None)
        claimed = px.add_finite(l2_gateaux(x, shift).overrides)
        return distance(project_cone_l2(pert), claimed) / distance(pert, x)

    return WitnessReport(
        n=n,
        candidate=_CANDIDATE_NAME[region],
        residual_u=residual(-1.0),
        residual_v=residual(-2.0),
    )


def interior_escape_witness(x: SeqVector, eps: float) -> SeqVector:
    """A point outside the cone within eps of the cone member x.

    Keeps x up to an index m carrying all but eps²/4 of the remaining mass,
    then dips the next coordinate to -eps/2 and cuts the tail.  Existence
    for every x and eps is what makes the cone's interior empty — there is
    no ball around any member that stays inside.
    """
    if not in_cone(x):
        raise ValueError("escape witness starts from a cone member")
    eps = float(eps)
    if not math.isfinite(eps) or eps <= 0.0:
        raise ValueError("eps must be positive and finite")
    m = x.support_max
    if x.tail is not None:
        m = max(m, x.tail.start - 1)
        target = eps * eps / 4.0
        if target == 0.0:  # no tail mass could be compared with it
            raise ValueError("eps²/4 underflows to 0 in floating point; pick a larger eps")
        mass = x.tail_mass_after(m)
        if mass >= target and mass > 0.0:
            jump = math.log(target / mass) / (2.0 * math.log(x.tail.ratio))
            m += max(0, math.ceil(jump))
        while x.tail_mass_after(m) >= target:
            m += 1
    tail = range(x.tail.start, m + 1) if x.tail else ()  # before it, only overrides are nonzero
    coords = {i: x.coord(i) for i in {*x.overrides, *tail} if x.coord(i) != 0.0}
    coords[m + 1] = -eps / 2.0
    return SeqVector(coords, None)
