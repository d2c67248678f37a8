import importlib
import inspect

import pytest

import arfcurves


def test_every_public_name_resolves_to_its_home_module():
    assert len(arfcurves.__all__) == sum(
        len(names.split()) for names in arfcurves._EXPORTS.values())
    for name in arfcurves.__all__:
        home = importlib.import_module("arfcurves." + arfcurves._HOME[name])
        value = getattr(arfcurves, name)
        assert value is getattr(home, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from arfcurves import *", namespace)
    for name in arfcurves.__all__:
        assert namespace[name] is getattr(arfcurves, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        arfcurves.no_such_name
    assert not hasattr(arfcurves, "no_such_name")


def test_submodules_import_through_the_package():
    from arfcurves import branch_ring, kernels
    assert branch_ring is importlib.import_module("arfcurves.branch_ring")
    assert kernels is importlib.import_module("arfcurves.kernels")
