"""Every test starts and ends with cold orbmorse caches, and every report a
test builds records its skips with codes.

The memoized operators, tables and basis sums would otherwise carry one
test's values into the next: a test that monkeypatches
``spectral._level_multiplicity`` would read operators assembled before its
fault, or leave faulty ones behind for later tests.
"""

import importlib
import pkgutil

import pytest

import orbmorse
from orbmorse import report

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


# the words an info line once used for a check, or a part of one, that did not
# run; the report's skipped list and a record's left_out now hold it, coded
SKIP_PROSE = ("skipped", "left out", "not judged")


@pytest.fixture(autouse=True)
def coded_skips(monkeypatch):
    build = report.build_report

    def build_coded(*args, **kwargs):
        built = build(*args, **kwargs)
        prose = [d["message"] for d in built["diagnostics"] if d["level"] == "info"
                 and any(word in d["message"] for word in SKIP_PROSE)]
        assert not prose, prose
        return built

    monkeypatch.setattr(report, "build_report", build_coded)
