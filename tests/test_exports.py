"""Every exported name resolves, so a deleted function cannot linger in an ``__all__``."""

import importlib
import pkgutil

import pytest

import trafficstate

# The command line module is a script entry point and exports nothing.
LIBRARY_MODULES = sorted(
    f"trafficstate.{m.name}" for m in pkgutil.iter_modules(trafficstate.__path__) if m.name != "cli"
)


@pytest.mark.parametrize("module", ["trafficstate", *LIBRARY_MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(set(names)) == len(names), "duplicate names"
    assert [name for name in names if not hasattr(mod, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from trafficstate import *", namespace)
    assert set(trafficstate.__all__) <= set(namespace)
