"""Every name a module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import tsirnorm

MODULES = ["tsirnorm"] + [f"tsirnorm.{m.name}" for m in pkgutil.iter_modules(tsirnorm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
