"""The public surface: every ``__all__`` entry resolves, and the package
re-exports only names that their home modules list."""

import importlib
import pkgutil

import pytest

import coopetition

MODULES = sorted(m.name for m in pkgutil.iter_modules(coopetition.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"coopetition.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_reexports_only_listed_names():
    unlisted = [
        attr
        for attr, obj in vars(coopetition).items()
        if not attr.startswith("_")
        and getattr(obj, "__module__", "").startswith("coopetition.")
        and attr not in importlib.import_module(obj.__module__).__all__
    ]
    assert unlisted == []
