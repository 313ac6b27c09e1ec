import importlib
import pkgutil

import jnlab


def test_every_exported_name_resolves():
    # perfbench's layer tracer wraps functions by __all__ and skips a name
    # that no longer exists, so a stale entry would go unnoticed there
    modules = [jnlab] + [importlib.import_module(f"jnlab.{m.name}")
                         for m in pkgutil.iter_modules(jnlab.__path__)]
    assert len(modules) > 10
    for mod in modules:
        names = getattr(mod, "__all__", [])
        assert len(names) == len(set(names)), mod.__name__
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, (mod.__name__, missing)
