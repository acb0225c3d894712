"""Every test starts and ends with cold orbmorse caches.

The memoized operators, tables and basis sums would otherwise carry one
test's values into the next: a test that monkeypatches
``spectral._level_multiplicity`` would read operators assembled before its
fault, or leave faulty ones behind for later tests.
"""

import importlib
import pkgutil

import pytest

import orbmorse

# every functools cache defined at module level in the package
CACHES = tuple(
    value
    for info in pkgutil.iter_modules(orbmorse.__path__)
    for module in [importlib.import_module(f"orbmorse.{info.name}")]
    for value in vars(module).values()
    if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == module.__name__)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    clear_caches()
    yield
    clear_caches()
