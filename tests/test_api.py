"""Each module states its public surface in __all__, and states all of it.

A public function or class that a module defines but leaves out of
__all__ is either an export to list or a helper to make private; either
way it shows up here, in review, instead of growing unnoticed.
"""

import importlib
import inspect
import pkgutil

import pytest

import deltafactor

MODULES = sorted(
    f"deltafactor.{info.name}" for info in pkgutil.iter_modules(deltafactor.__path__)
    if info.name != "__main__"
) + ["deltafactor"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_listed(name):
    module = importlib.import_module(name)
    defined = {attr for attr, value in vars(module).items()
               if not attr.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == name}
    unlisted = sorted(defined - set(module.__all__))
    assert not unlisted, f"{name} defines public {unlisted} outside __all__"
