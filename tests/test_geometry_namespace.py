"""The ``riemstats.geometry`` namespace: the generic layer is imported with
the package, and every space module on first use of one of its names."""

import importlib
import json
import subprocess
import sys

import pytest

from riemstats import geometry

GENERIC = [f"riemstats.geometry.{name}" for name in ("base", "invariant", "numerical")]


def test_import_loads_only_the_generic_layer_and_lists_every_name():
    """In a fresh process the package binds only the generic layer, yet
    ``dir()`` already lists every public name."""
    code = (
        "import json, sys, riemstats.geometry as g; "
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('riemstats.geometry.')),"
        " sorted(vars(g)), dir(g), g.__all__]))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded, bound, listed, public = json.loads(out.stdout)
    assert loaded == GENERIC
    assert not set(geometry._LAZY) & set(bound)
    assert set(public) <= set(listed)


@pytest.mark.parametrize("name", geometry.__all__)
def test_public_name_is_its_defining_module_attribute(name):
    value = getattr(geometry, name)
    home = value.__module__
    if name in geometry._LAZY:
        assert home == f"riemstats.geometry.{geometry._LAZY[name]}"
    assert getattr(importlib.import_module(home), name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from riemstats.geometry import *", namespace)
    for name in geometry.__all__:
        assert namespace[name] is getattr(geometry, name)


def test_unknown_name_raises_attribute_error():
    message = r"^module 'riemstats.geometry' has no attribute 'Torus'$"
    with pytest.raises(AttributeError, match=message):
        geometry.Torus
