"""``projderiv.__all__`` is the package's public name list: it names exactly what
``__init__`` binds (submodules aside), every entry resolves, and a star-import runs."""

import types

import projderiv


def test_all_lists_exactly_the_bound_public_names():
    bound = {
        name for name, value in vars(projderiv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(projderiv.__all__) == len(set(projderiv.__all__))
    assert set(projderiv.__all__) == bound


def test_every_listed_name_resolves():
    for name in projderiv.__all__:
        assert getattr(projderiv, name) is not None, name


def test_star_import_runs():
    namespace = {}
    exec("from projderiv import *", namespace)
    assert set(projderiv.__all__) <= set(namespace)


# __all__ is derived from what __init__ binds, so a stray import there (say, from typing
# import Mapping) would join it: every entry is projderiv's own, bar Vector (numpy's ndarray)
def test_every_listed_name_is_defined_in_projderiv():
    for name in projderiv.__all__:
        if name != "Vector":
            assert getattr(projderiv, name).__module__.startswith("projderiv."), name
