"""Every exported name resolves, so a deleted function cannot linger in an ``__all__``,
and every exported name is used by the package itself, unless it is listed with a reason.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


# Exported names that no module of the package uses, each with why it stays.
UNREFERENCED_EXPORTS = {
    "kf_step": "the dense textbook filter step that criterion 1 holds run_filter to",
    "observability_gramian": "the numerical observability check of the placement rule, criterion 6",
    "save_network": "the file writer paired with load_network",
}


def package_references() -> set[str]:
    """Names the package's modules load or import, each outside the top-level definition of that name.

    ``__init__.py`` only re-exports, and ``__all__`` lists hold strings, so
    neither counts.
    """
    refs = set()
    for path in Path(trafficstate.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom):
                    refs.update(alias.name for alias in sub.names)
                elif isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load):
                    name = sub.id if isinstance(sub, ast.Name) else sub.attr
                    if name != own:
                        refs.add(name)
    return refs


def test_every_exported_name_is_used_by_the_package():
    refs = package_references()
    unused = {
        name for module in LIBRARY_MODULES for name in importlib.import_module(module).__all__ if name not in refs
    }
    assert unused == set(UNREFERENCED_EXPORTS)
