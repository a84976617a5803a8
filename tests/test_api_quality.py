"""Meta-tests on the public API: docstrings, exports, importability.

These enforce the documentation discipline the repository promises:
every module, public class and public function carries a docstring, and
every name in an ``__all__`` actually resolves.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

#: Every module under ``repro``, found by walking the package tree.
ALL_MODULES = [repro] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
]

#: Every package under ``repro``, the package itself included.
PACKAGES = [module.__name__ for module in ALL_MODULES if hasattr(module, "__path__")]

#: Packages whose public classes and functions must carry docstrings.
DOCSTRING_PACKAGES = [
    "repro",
    "repro.vm",
    "repro.storage",
    "repro.core",
    "repro.baselines",
    "repro.workloads",
    "repro.bench",
    "repro.sql",
    "repro.native",
]


def modules_of(package_names):
    modules = []
    for package_name in package_names:
        package = importlib.import_module(package_name)
        modules.append(package)
        for info in pkgutil.iter_modules(package.__path__):
            modules.append(
                importlib.import_module(f"{package_name}.{info.name}")
            )
    return modules


#: The modules of ``DOCSTRING_PACKAGES``, then every other walked module.
DOCSTRING_MODULES = modules_of(DOCSTRING_PACKAGES)
MODULES = DOCSTRING_MODULES + [
    module for module in ALL_MODULES if module not in DOCSTRING_MODULES
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", DOCSTRING_MODULES, ids=lambda m: m.__name__)
def test_public_callables_have_docstrings(module):
    missing = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; checked at its home module
        if not (obj.__doc__ and obj.__doc__.strip()):
            missing.append(name)
        if inspect.isclass(obj):
            for method_name, method in vars(obj).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if not (method.__doc__ and method.__doc__.strip()):
                    missing.append(f"{name}.{method_name}")
    assert not missing, f"{module.__name__}: missing docstrings on {missing}"


@pytest.mark.parametrize(
    "package_name", PACKAGES, ids=lambda n: n
)
def test_dunder_all_resolves(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert hasattr(package, name), f"{package_name}.__all__ lists {name}"


def test_top_level_surface_is_stable():
    """The names the README relies on exist at the top level."""
    for name in (
        "AdaptiveDatabase",
        "AdaptiveConfig",
        "AdaptiveStorageLayer",
        "QueryEngine",
        "RoutingMode",
        "SnapshotManager",
        "VirtualView",
        "CostModel",
        "PhysicalColumn",
    ):
        assert hasattr(repro, name), name


def test_version_string():
    assert repro.__version__.count(".") == 2
