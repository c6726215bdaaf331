"""The package namespace: every public name resolves lazily to its home module's object."""

import importlib
import importlib.util

import pytest

import cmikit

HOMES = ("statements", "distributions", "witnesses", "textio")


def home_object(name):
    """The object ``name`` is bound to in the layer modules; all that bind it must agree."""
    modules = [importlib.import_module(f"cmikit.{m}") for m in HOMES]
    objects = [vars(m)[name] for m in modules if name in vars(m)]
    assert objects and all(o is objects[0] for o in objects), name
    return objects[0]


@pytest.fixture
def fresh():
    """A new instance of the package module, none of its names resolved yet."""
    spec = importlib.util.find_spec("cmikit")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", cmikit.__all__)
def test_every_public_name_is_its_home_modules_object(fresh, name):
    assert name not in vars(fresh)
    assert getattr(fresh, name) is home_object(name)
    assert name in vars(fresh)  # cached: later accesses skip __getattr__


def test_star_import_binds_all_of_all():
    namespace = {}
    exec("from cmikit import *", namespace)
    assert set(cmikit.__all__) <= set(namespace)
    assert all(namespace[name] is home_object(name) for name in cmikit.__all__)


def test_dir_lists_every_public_name_before_any_is_resolved(fresh):
    assert set(fresh.__all__) <= set(dir(fresh))
    assert "__version__" in dir(fresh)


def test_unknown_attribute_raises_attribute_error_naming_it():
    # Names removed from the package fail like a name it never had.
    for name in ("no_such_name", "Rational", "is_sub_cmi", "repeated_indices", "set_implies"):
        with pytest.raises(AttributeError, match=f"'cmikit' has no attribute '{name}'"):
            getattr(cmikit, name)
        with pytest.raises(ImportError, match=name):
            exec(f"from cmikit import {name}", {})
