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
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import compress
from typing import Mapping

import numpy as np

from .vectors import Vector, parse_number, parse_numbers, _INT_LIMIT

_MIN_NORMAL = sys.float_info.min


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

    def values(self, indices) -> list[float]:
        """The tail's coordinates at the given indices, in one pass.

        They are 0.0 before the start and where the exponent lies beyond the
        float range (``ratio ** n`` would raise).  Where the power is
        subnormal or 0, a large coefficient is applied halfway down, so a tail
        such as 1e300·0.5^(i−1) is not cut at i ≈ 1075."""
        a, r, s = self.coeff, self.ratio, self.start
        return [
            0.0 if not 0 <= (n := i - s) < _INT_LIMIT
            else a * p if (p := r**n) >= _MIN_NORMAL
            else a * r ** (n // 2) * r ** (n - n // 2)
            for i in indices
        ]

    def value_at(self, i: int) -> float:
        return self.values((i,))[0]

    def norm_from(self, i: int) -> float:
        """ℓ² norm of the tail's coordinates at indices i and beyond."""
        r = self.ratio  # 1 - r² as (1 - r)(1 + r): no cancellation as r nears 1
        return abs(self.value_at(max(i, self.start))) / math.sqrt((1.0 - r) * (1.0 + r))


def _tail_values(tail: GeometricTail | None, indices) -> list[float]:
    return tail.values(indices) if tail else [0.0] * len(indices)


def _check_indices(indices) -> None:
    for i in indices:
        if type(i) is not int or i < 1:  # type(True) is bool, not int
            raise ValueError("coordinate indices must be positive integers")


def _check_index(i) -> int:
    _check_indices((i,))
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
        _check_indices(self.overrides)
        indices = sorted(self.overrides)
        values = list(map(float, map(self.overrides.__getitem__, indices)))
        if not all(map(math.isfinite, values)):
            raise ValueError("coordinate values must be finite")
        self._canonical(indices, values, self.tail)

    def _canonical(self, indices: list[int], values: list[float], tail) -> SeqVector:
        """Set the canonical form of the overrides (sorted distinct positive int indices, finite
        float values, as checked by the caller) over tail, evaluated only from its start on."""
        if tail is not None and tail.coeff == 0.0:
            tail = None
        cut = bisect_left(indices, tail.start) if tail else len(indices)
        differ = values[:cut]  # the tail is 0 before its start: keep the nonzero values there
        if tail:
            differ += map(operator.ne, values[cut:], tail.values(indices[cut:]))
        object.__setattr__(self, "overrides", dict(compress(zip(indices, values), differ)))
        object.__setattr__(self, "tail", tail)
        return self

    @property
    def support_max(self) -> int:
        """Largest overridden index (0 when there are no overrides)."""
        return next(reversed(self.overrides), 0)  # canonical overrides are sorted

    def coord(self, i: int) -> float:
        return self.coords((_check_index(i),))[0]

    def coords(self, indices) -> list[float]:
        """Coordinates at the given (positive integer) indices, in one pass."""
        return list(map(self.overrides.get, indices, _tail_values(self.tail, indices)))

    def with_coord(self, i: int, value: float) -> "SeqVector":
        """Copy with coordinate i set to the given value."""
        return self._edited({_check_index(i): float(value)})

    def add_finite(self, delta: Mapping[int, float]) -> "SeqVector":
        """Copy with finitely many coordinates shifted by delta (``coord`` checks each index)."""
        return self._edited({i: self.coord(i) + float(v) for i, v in delta.items()})

    def _edited(self, new: dict[int, float]) -> "SeqVector":
        """Copy with new's coordinates (checked indices) set, checking only their values."""
        if not all(map(math.isfinite, new.values())):
            raise ValueError("coordinate values must be finite")
        return _trusted({**self.overrides, **new}, self.tail)

    def truncate(self, m: int) -> Vector:
        """First m coordinates as a dense array."""
        if m < 1:
            raise ValueError("truncation length must be at least 1")
        return np.array(self.coords(range(1, m + 1)))

    def dot(self, other: "SeqVector") -> float:
        """Inner product in closed form (geometric series for the tails)."""
        idx = list({*self.overrides, *other.overrides})
        tx, ty = _tail_values(self.tail, idx), _tail_values(other.tail, idx)
        xs, ys = map(self.overrides.get, idx, tx), map(other.overrides.get, idx, ty)
        total = math.fsum([a * b - c * d for a, b, c, d in zip(xs, ys, tx, ty)])
        if self.tail is not None and other.tail is not None:
            s0 = max(self.tail.start, other.tail.start)
            head = self.tail.value_at(s0) * other.tail.value_at(s0)
            rx, ry = self.tail.ratio, other.tail.ratio  # 1 - rx·ry without cancellation near 1
            total += head / ((1.0 - rx) + rx * (1.0 - ry))
        return total

    @classmethod
    def from_record(cls, record) -> "SeqVector":
        if not isinstance(record, dict) or set(record) != {"overrides", "tail"}:
            raise ValueError("record must have exactly the keys 'overrides' and 'tail'")
        pairs = record["overrides"]
        listed = isinstance(pairs, list) and {list, tuple}.issuperset(map(type, pairs))
        if not listed or not {2}.issuperset(map(len, pairs)):
            raise ValueError("overrides must be a list of [index, value] pairs")
        indices = [i for i, _ in pairs]
        _check_indices(indices)
        ov = dict(pairs)
        if len(ov) < len(pairs):
            seen = set()
            repeat = next(i for i in indices if i in seen or seen.add(i))
            raise ValueError(f"duplicate override index {repeat}")
        order = sorted(ov)
        values = parse_numbers(list(map(ov.__getitem__, order)), "coordinate value").tolist()
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
            a, rho = parse_number(tail_rec["a"], "tail a"), parse_number(tail_rec["rho"], "tail rho")
            tail = GeometricTail(a, rho, tail_rec["start"])
        else:
            raise ValueError(f"unknown tail kind {tail_rec['kind']!r}")
        return cls.__new__(cls)._canonical(order, values, tail)  # checked above, so not again


def _trusted(ov: dict[int, float], tail: GeometricTail | None) -> SeqVector:
    """Canonical form of overrides from checked sequences, in any index order: no second check."""
    idx = sorted(ov)
    return SeqVector.__new__(SeqVector)._canonical(idx, list(map(ov.__getitem__, idx)), tail)


def distance(x: SeqVector, y: SeqVector) -> float:
    """‖x - y‖, within about an ulp at any scale.

    The coordinate differences are summed up to the last index where x or y
    is not pure tail (over the overrides alone when the tails are equal);
    beyond it the tails' difference adds Σ_k (h_x ρ_x^k − h_y ρ_y^k)², with
    h the tail values just past that index, as an exact rational.  Every term
    is scaled by one power of two and rounded once before one exactly
    rounded sum."""
    signed = ((1.0, x.tail), (-1.0, y.tail))
    tails = [] if x.tail == y.tail else [(s, t) for s, t in signed if t is not None]
    last = max([x.support_max, y.support_max, *(t.start - 1 for _, t in tails)])
    idx = {*x.overrides, *y.overrides}
    for _, t in tails:  # from |coeff|·ρ^n < 2^-1080 on, its coordinates are 0.0 in float64
        reach = math.ceil((math.log(abs(t.coeff)) + 1080 * math.log(2.0)) / -math.log(t.ratio))
        idx.update(range(t.start, min(last, t.start + reach) + 1))
    idx = list(idx)
    diffs = list(filter(None, map(operator.sub, x.coords(idx), y.coords(idx))))  # 0s add nothing
    heads = [(s * t.value_at(last + 1), t.ratio) for s, t in tails]
    top = max(map(abs, [*diffs, *(h for h, _ in heads)]), default=0.0)
    if top == 0.0:
        return 0.0
    k = math.frexp(top)[1]
    scaled = [math.ldexp(d, -k) for d in diffs]
    heads = [(Fraction(math.ldexp(h, -k)), Fraction(r)) for h, r in heads]
    # Σ_k (Σ_t a_t p_t^k)² = Σ_{s,t} a_s a_t / (1 - p_s p_t), exact and so never negative
    beyond = sum(a * b / (1 - p * q) for a, p in heads for b, q in heads)
    return math.ldexp(math.sqrt(math.fsum([*(d * d for d in scaled), float(beyond)])), k)


class L2Region(Enum):
    ALL_POSITIVE = "all_positive"  # every coordinate strictly positive
    ALL_NEGATIVE = "all_negative"  # every coordinate strictly negative
    MIXED_SIGNS = "mixed_signs"  # no zeros, both signs (finite minority side)
    OTHER = "other"  # has a zero coordinate (always true with a zero tail)


def classify_l2(x: SeqVector) -> L2Region:
    """Sign-pattern region of the full (infinite) coordinate sequence.

    Sign tests are exact, as in the finite-dimensional classifier: the
    representation stores every coordinate's sign exactly.
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
    return min(x.overrides.values(), default=0.0) >= 0.0 and (x.tail is None or x.tail.coeff > 0.0)


def project_cone_l2(x: SeqVector) -> SeqVector:
    """Nearest point of the positive cone: clamp every coordinate at zero."""
    tail = x.tail if x.tail is not None and x.tail.coeff > 0.0 else None
    # the canonical form drops the clamped zeros unless they shadow a surviving positive tail
    values = [v if v > 0.0 else 0.0 for v in x.overrides.values()]
    return SeqVector.__new__(SeqVector)._canonical(list(x.overrides), values, tail)


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
        return _trusted({}, None)
    if x.tail.coeff > 0.0:
        negative = {i: 0.0 for i, v in x.overrides.items() if v < 0.0}
        return _trusted({**w.overrides, **negative}, w.tail)
    idx = [i for i, v in x.overrides.items() if v > 0.0]
    return SeqVector.__new__(SeqVector)._canonical(idx, w.coords(idx), None)


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

    Keeps x up to an index m beyond which its tail has norm below eps/2,
    then dips the next coordinate to -eps/2 and cuts the tail.  Existence
    for every x and eps is what makes the cone's interior empty — there is
    no ball around any member that stays inside.
    """
    if not in_cone(x):
        raise ValueError("escape witness starts from a cone member")
    eps = float(eps)
    if not math.isfinite(eps) or eps <= 0.0:
        raise ValueError("eps must be positive and finite")
    dip = eps / 2.0
    if dip == 0.0:  # a zero dip would leave x inside the cone
        raise ValueError("eps/2 underflows to 0 in floating point; pick a larger eps")
    m = x.support_max
    if x.tail is not None:
        m = max(m, x.tail.start - 1)
        head, r = abs(x.tail.value_at(m + 1)), x.tail.ratio
        if head > 0.0:  # log(norm_from(m + 1) / dip), summed so nothing leaves the float range
            excess = math.log(head) - 0.5 * math.log((1.0 - r) * (1.0 + r)) - math.log(dip)
            m += max(0, math.ceil(excess / -math.log(r)) - 1)  # one short; the walk settles m
        while x.tail.norm_from(m + 1) >= dip:
            m += 1
    start = x.tail.start if x.tail else m + 1  # before it, only overrides are nonzero
    idx = [*(i for i in x.overrides if i < start), *range(start, m + 1)]  # sorted: m ≥ each
    # the canonical form keeps the nonzero coordinates, as the tail is cut
    return SeqVector.__new__(SeqVector)._canonical([*idx, m + 1], [*x.coords(idx), -dip], None)
