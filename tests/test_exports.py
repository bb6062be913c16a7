"""Every name a `stad` module lists in `__all__` exists in that module."""

import importlib
import pkgutil

import pytest

import stad

MODULES = ["stad", *sorted(f"stad.{m.name}" for m in pkgutil.iter_modules(stad.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
