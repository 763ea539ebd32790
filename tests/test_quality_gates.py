"""Repository quality gates: docstrings and export hygiene.

Deliverable-level checks: every public module, class and function in the
library carries a docstring, and every name a package ``__all__``
advertises is actually importable.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.timing",
    "repro.cpu",
    "repro.faults",
    "repro.kernel",
    "repro.sgx",
    "repro.attacks",
    "repro.defenses",
    "repro.bench",
    "repro.analysis",
    "repro.telemetry",
]


def iter_modules():
    seen = set()
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                name = f"{package_name}.{info.name}"
                if name not in seen:
                    seen.add(name)
                    yield importlib.import_module(name)


ALL_MODULES = list(iter_modules())


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_classes_and_functions_documented(self, module):
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
                continue
            if inspect.isclass(obj):
                for member_name, member in vars(obj).items():
                    if member_name.startswith("_"):
                        continue
                    if inspect.isfunction(member) and not (
                        member.__doc__ and member.__doc__.strip()
                    ):
                        undocumented.append(f"{name}.{member_name}")
        assert not undocumented, f"{module.__name__}: {undocumented}"


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", [])
        for name in exported:
            assert hasattr(package, name), f"{package_name}.__all__ lists {name}"

    def test_top_level_version(self):
        assert repro.__version__ == "1.0.0"


#: Packages whose ``__all__`` names resolve on first access (PEP 562).
LAZY_PACKAGES = ["repro", "repro.cpu", "repro.analysis"]


class TestLazyExports:
    @pytest.mark.parametrize("package_name", LAZY_PACKAGES)
    def test_table_covers_all(self, package_name):
        package = importlib.import_module(package_name)
        assert set(package._EXPORTS) == set(package.__all__) - {"__version__"}

    @pytest.mark.parametrize("package_name", LAZY_PACKAGES)
    def test_names_are_the_defining_objects(self, package_name):
        package = importlib.import_module(package_name)
        for name, home in package._EXPORTS.items():
            assert getattr(package, name) is getattr(importlib.import_module(home), name)
        assert set(package.__all__) <= set(dir(package))

    @pytest.mark.parametrize("package_name", LAZY_PACKAGES)
    def test_star_import_binds_all(self, package_name):
        namespace: dict = {}
        exec(f"from {package_name} import *", namespace)
        package = importlib.import_module(package_name)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name)

    @pytest.mark.parametrize("package_name", LAZY_PACKAGES)
    def test_unknown_attribute(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match=f"'{package_name}'.*'no_such_name'"):
            package.no_such_name
        assert not hasattr(package, "no_such_name")
        sentinel = object()
        assert getattr(package, "no_such_name", sentinel) is sentinel

    def test_version_without_numpy(self, fresh_python):
        fresh_python(
            "import sys, repro\n"
            "assert repro.__version__ == '1.0.0', repro.__version__\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
