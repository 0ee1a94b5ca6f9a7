import importlib
import inspect
import pkgutil

import ramseychoice


def _lru_caches():
    """Every lru_cache of the library: module-level functions and class attributes."""
    for info in pkgutil.iter_modules(ramseychoice.__path__):
        module = importlib.import_module(f"ramseychoice.{info.name}")
        for name, value in vars(module).items():
            scopes = [(name, value)]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                scopes += [(f"{name}.{attr}", v) for attr, v in vars(value).items()]
            for qualified, obj in scopes:
                obj = getattr(obj, "__func__", obj)  # staticmethod and classmethod wrappers
                if callable(getattr(obj, "cache_parameters", None)):  # an lru_cache wrapper
                    yield f"{module.__name__}.{qualified}", obj


def test_every_library_cache_is_bounded():
    # keys reach 2^63, so an unbounded cache would grow for as long as a scan runs
    caches = dict(_lru_caches())
    assert "ramseychoice.certificates._walk" in caches  # the walk reaches the per-n caches
    unbounded = [name for name, cached in caches.items() if cached.cache_parameters()["maxsize"] is None]
    assert unbounded == []
