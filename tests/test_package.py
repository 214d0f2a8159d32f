import importlib
import pkgutil
import types

import pytest

import spintune

MODULES = sorted(info.name for info in pkgutil.iter_modules(spintune.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_each_module_offers_what_its_all_lists(name):
    module = importlib.import_module(f"spintune.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for public in module.__all__:
        assert hasattr(module, public), public


def test_the_package_offers_only_its_version():
    for name in MODULES:
        importlib.import_module(f"spintune.{name}")  # binds each module on the package
    offered = {name for name, value in vars(spintune).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert offered == set()
    assert not hasattr(spintune, "__all__")
    assert spintune.__version__ == "0.1.0"
