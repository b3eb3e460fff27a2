"""The package's records and value types: immutable, and equal, hashed, copied and pickled
as documented.  The records are named tuples; Ball, GeometricTail and SeqVector check their
input on construction, and a copy or an unpickled object is built through that check."""

import copy
import pickle

import numpy as np
import pytest

from projderiv import (
    Ball,
    BallDeriv,
    BallDerivKind,
    GeometricTail,
    ResidualScan,
    SeqVector,
    ball_frechet_derivative,
    classify_ball,
    cone_frechet_derivative,
    cone_refute_frechet,
    l2_nonfrechet_witness,
    sign_partition,
)
from projderiv.cli import JobSpec

TAIL = GeometricTail(2.0, 0.5, 3)
SEQ = SeqVector({1: -1.5, 7: 0.25}, TAIL)
BALL = Ball([1.0, -2.0], 3.0)

# type -> (an instance, its first field)
INSTANCES = {
    "Ball": (BALL, "center"),
    "BallRegion": (classify_ball(BALL, [9.0, 0.0]), "tag"),
    "BallDeriv": (ball_frechet_derivative(BALL, [9.0, 0.0]), "kind"),
    "SignPartition": (sign_partition([1.0, 0.0, -1.0]), "plus"),
    "ConeDeriv": (cone_frechet_derivative([1.0, -1.0]), "kind"),
    "ResidualScan": (ResidualScan((1e-2, 1e-3), (0.5, 0.05)), "radii"),
    "Refutation": (cone_refute_frechet([1.0, 0.0]), "direction"),
    "WitnessReport": (l2_nonfrechet_witness(SeqVector({}, GeometricTail(1.0, 0.5, 1)), 9), "n"),
    "JobSpec": (JobSpec("project", "ball", BALL), "command"),
    "GeometricTail": (TAIL, "coeff"),
    "SeqVector": (SEQ, "overrides"),
}
VALUES = {"Ball": BALL, "GeometricTail": TAIL, "SeqVector": SEQ}


@pytest.mark.parametrize("name", INSTANCES)
def test_fields_cannot_be_assigned(name):
    value, field = INSTANCES[name]
    assert type(value).__name__ == name
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", VALUES)
@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))], ids=["copy", "deepcopy", "pickle"]
)
def test_values_copy_and_pickle_to_equal_values(name, clone):
    value = VALUES[name]
    twin = clone(value)
    assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_ball_compares_and_hashes_by_value():
    same = Ball(np.array([1.0, -2.0]), 3)
    assert same == BALL and hash(same) == hash(BALL)
    assert Ball([0.0, 0.0], 1.0) == Ball([-0.0, 0.0], 1.0)
    assert hash(Ball([0.0, 0.0], 1.0)) == hash(Ball([-0.0, 0.0], 1.0))
    assert BALL != Ball([1.0, -2.0], 4.0) and BALL != Ball([1.0, 2.0], 3.0)
    assert not BALL.center.flags.writeable
    assert repr(Ball([0.0, 1.0], 2)) == "Ball(center=array([0., 1.]), radius=2.0)"


def test_geometric_tail_compares_and_hashes_by_its_fields():
    assert GeometricTail(2, 0.5, 3) == TAIL and hash(TAIL) == hash((2.0, 0.5, 3))
    assert TAIL != GeometricTail(2.0, 0.5, 4)
    assert repr(TAIL) == "GeometricTail(coeff=2.0, ratio=0.5, start=3)"


def test_seq_vector_compares_by_canonical_form_and_is_unhashable():
    assert SeqVector({1: -1.5, 7: 0.25, 3: 2.0}, TAIL) == SEQ  # x_3 is the tail's value there
    assert SeqVector() == SeqVector({}, None) != SEQ
    with pytest.raises(TypeError):
        hash(SEQ)
    assert repr(SeqVector({2: 1.0})) == "SeqVector(overrides={2: 1.0}, tail=None)"


def test_sign_partitions_are_equal_only_to_themselves():
    first, second = sign_partition([1.0, 0.0, -1.0]), sign_partition([1.0, 0.0, -1.0])
    assert first != second and not first == second
    assert first == first and len({first, second}) == 2


def test_ball_deriv_takes_its_defaults_by_keyword():
    deriv = BallDeriv(BallDerivKind.IDENTITY, 3)
    assert (deriv.anchor, deriv.scaled_anchor, deriv.scale, deriv.scaled_radius) == (None,) * 4
    assert deriv.smooth_radius == 0.0 and deriv.is_linear
    assert BallDeriv(BallDerivKind.IDENTITY, 2, smooth_radius=0.5).smooth_radius == 0.5
