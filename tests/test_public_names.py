"""Every exported name resolves: the package `__all__`, each module's, and `import *`."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import xcflow

_MODULES = sorted(info.name for info in pkgutil.iter_modules(xcflow.__path__))


def test_the_package_binds_every_name_it_exports():
    assert [name for name in xcflow.__all__ if not hasattr(xcflow, name)] == []
    assert len(set(xcflow.__all__)) == len(xcflow.__all__)


@pytest.mark.parametrize("module_name", _MODULES)
def test_each_module_binds_every_name_it_exports(module_name):
    module = importlib.import_module(f"xcflow.{module_name}")
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"xcflow.{module_name} has no __all__"
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)


def test_star_import_gives_the_package_exports():
    namespace: dict = {}
    exec("from xcflow import *", namespace)
    assert set(xcflow.__all__) <= set(namespace)
