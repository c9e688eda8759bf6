import importlib
import pkgutil

import pytest

import sturmosc

MODULES = sorted(info.name for info in pkgutil.iter_modules(sturmosc.__path__, "sturmosc."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # `import sturmosc` never reads a module's __all__, so a stale entry
    # would only fail a star import
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
