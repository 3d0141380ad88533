"""Every exported name resolves, so a deleted function cannot linger in an ``__all__``,
and every exported name is used by the package itself, unless it is listed with a reason.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import trafficstate
from trafficstate import cli

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
    "build_C": "the output matrix of the LtvSnapshot that kf_step and observability_gramian take",
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


def _defaults(args: ast.arguments) -> dict[str, int | None]:
    """Each defaulted parameter, with its position among the positional ones (None if keyword-only)."""
    positional = args.posonlyargs + args.args
    out = {a.arg: positional.index(a) for a in positional[len(positional) - len(args.defaults) :]}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return out


def _scan(node, name: str, defs: list, calls: list, *, owner=None, top=True, enclosing=(None, ())) -> None:
    """Collect every def as (key, owner class, public API or not, node) and every call as (node, enclosing def).

    ``enclosing`` is the key and the ``_defaults`` of the innermost def
    around a call.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _scan(child, f"{name}.{child.name}", defs, calls, owner=child.name, top=top, enclosing=enclosing)
        elif isinstance(child, ast.FunctionDef):
            key = f"{name}.{child.name}"
            public = top and not key.split(".")[2].startswith("_")
            public &= not child.name.startswith("_") or (owner is not None and child.name == "__init__")
            defs.append((key, owner, public, child))
            _scan(child, key, defs, calls, top=False, enclosing=(key, _defaults(child.args)))
        else:
            if isinstance(child, ast.Call):
                calls.append((child, enclosing))
            _scan(child, name, defs, calls, owner=owner, top=top, enclosing=enclosing)


def unset_parameters() -> set[str]:
    """``function:parameter`` of each library default that no call in the package ever sets.

    The defaults checked are those of the public functions and methods of
    the library modules (a class's ``__init__`` is called by the class
    name); calls are matched by name. A call sets a parameter when it passes
    it by keyword or position, or through ``*`` or ``**``. An argument that
    only forwards a defaulted parameter of the calling function sets it only
    if that parameter is itself set, so a value threaded through several
    functions from nowhere still counts as unset.
    """
    checked = []  # (key, called as, parameter, position)
    passes = []  # (called name, keyword or position or "*" or "**", forwarded (key, parameter) or None)
    for path in Path(trafficstate.__file__).parent.glob("*.py"):
        module, defs, calls = f"trafficstate.{path.stem}", [], []
        _scan(ast.parse(path.read_text()), module, defs, calls)
        for key, owner, public, node in defs:
            if module not in LIBRARY_MODULES or not public or node.name in UNREFERENCED_EXPORTS:
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            shift = int(owner is not None and not static)  # self or cls
            called_as = owner if node.name == "__init__" else node.name
            for param, position in _defaults(node.args).items():
                checked.append((key, called_as, param, None if position is None else position - shift))
        for call, (caller, caller_defaults) in calls:
            called = getattr(call.func, "id", getattr(call.func, "attr", None))

            def forwarded(value):
                return (caller, value.id) if isinstance(value, ast.Name) and value.id in caller_defaults else None

            for i, value in enumerate(call.args):
                passes.append((called, "*" if isinstance(value, ast.Starred) else i, forwarded(value)))
            passes += [(called, kw.arg or "**", forwarded(kw.value)) for kw in call.keywords]

    def sets(how, param: str, position: int | None) -> bool:
        if how == "*":
            return position is not None
        return how in (param, "**") or (position is not None and how == position)

    set_params: set[tuple[str, str]] = set()
    while True:
        grown = {
            (key, param)
            for key, called_as, param, position in checked
            for called, how, source in passes
            if called == called_as and sets(how, param, position) and (source is None or source in set_params)
        }
        if grown <= set_params:
            return {f"{key}:{param}" for key, _, param, _ in checked if (key, param) not in set_params}
        set_params |= grown


def test_every_library_default_is_set_by_the_package():
    # A default no caller changes is a constant: drop the parameter, or list
    # the function in UNREFERENCED_EXPORTS if only tests call it.
    assert unset_parameters() == set()


# Each exception class of the package, with the exit code the command line gives it.
EXIT_CODES = {"InputError": 2, "CflViolationError": 1, "SingularInnovationError": 1}


def exception_classes() -> dict[str, type]:
    """Every class the package defines that derives from an exception, by name.

    Each base is evaluated in its module's namespace, so builtin exceptions,
    the package's own and imported ones all count.
    """
    found = {}
    for path in Path(trafficstate.__file__).parent.glob("*.py"):
        module = importlib.import_module("trafficstate" if path.stem == "__init__" else f"trafficstate.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = [eval(ast.unparse(base), vars(module)) for base in node.bases]
                if any(isinstance(b, type) and issubclass(b, BaseException) for b in bases):
                    found[node.name] = getattr(module, node.name)
    return found


def main_handlers() -> list[tuple[tuple[type, ...], int]]:
    """Each ``except`` clause of ``cli.main`` in order: the classes it names and the exit code it returns."""
    handlers = []
    for node in ast.walk(ast.parse(inspect.getsource(cli.main))):
        if isinstance(node, ast.ExceptHandler):
            caught = eval(ast.unparse(node.type), vars(cli))
            code = next(ret.value.value for ret in ast.walk(node) if isinstance(ret, ast.Return))
            handlers.append((caught if isinstance(caught, tuple) else (caught,), code))
    return handlers


def test_every_error_class_has_its_exit_code():
    # A new error class fails here until cli.main names it with an exit code.
    classes = exception_classes()
    assert set(classes) == set(EXIT_CODES)
    handlers = main_handlers()
    for name, cls in classes.items():
        # The first clause that catches the class is the one that handles it.
        caught, code = next((caught, code) for caught, code in handlers if issubclass(cls, caught))
        assert (cls in caught, code) == (True, EXIT_CODES[name]), name
