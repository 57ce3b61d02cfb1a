"""Every exported name resolves: a name deleted from a module but left in
its ``__all__`` (or in the package's) fails here, not at a user's import."""

import importlib
import pkgutil

import pytest

import qrotor

MODULES = ["qrotor"] + [
    f"qrotor.{info.name}" for info in pkgutil.iter_modules(qrotor.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
