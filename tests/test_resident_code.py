"""No module of ``src`` calls numpy's sort family or LAPACK.

A run's ``peak_rss_mb`` counts every code page it touches, so the first call
into a large compiled numpy module costs memory in every session that makes
it.  Two such modules were taken out of every run, and this guard on the
syntax tree keeps them out:

- ``numpy.linalg``, all but ``norm``: the closed-form least squares of
  ``verify.fit_rate`` left no run calling LAPACK, and ``peak_rss_mb`` fell
  about 1.1 MB on every workload (``BENCH_43.json``);
- ``np.sort``, ``np.argsort``, ``np.searchsorted``, ``np.unique`` and
  ``np.lexsort``: the torus window builds its columns and their mirrors by
  index arithmetic (``spectral._window_columns``), and numpy's sort code maps
  about 0.3 MB on its first call (``BENCH_45.json``).
"""

import ast
from pathlib import Path

import orbmorse

SRC = Path(orbmorse.__file__).parent
SORTING = {"sort", "argsort", "searchsorted", "unique", "lexsort"}
NUMPY = {"np", "numpy"}


def numpy_names(path):
    """(line, "np.<name>" or "np.<module>.<name>") of each numpy name one
    module reads, by attribute or by ``from numpy... import``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            chain = [node.attr]
            inner = node.value
            while isinstance(inner, ast.Attribute):
                chain.append(inner.attr)
                inner = inner.value
            if isinstance(inner, ast.Name) and inner.id in NUMPY:
                found.add((node.lineno, ".".join(["np", *reversed(chain)])))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found |= {(node.lineno, f"np{node.module[5:]}.{alias.name}") for alias in node.names}
    return found


def banned(name):
    """A sort-family function, or a numpy.linalg function other than norm."""
    parts = name.split(".")
    return (len(parts) == 2 and parts[1] in SORTING) or (
        len(parts) == 3 and parts[1] == "linalg" and parts[2] != "norm")


def test_the_walker_sees_each_banned_name(tmp_path):
    """A call, a chain and a from-import alike; norm and other names pass."""
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\nfrom numpy import unique\n"
                    "from numpy.linalg import eigh, norm\nnp.sort(x)\n"
                    "np.linalg.eigvalsh(a)\nnp.linalg.norm(v)\nnp.add.reduce(v)\n")
    assert sorted(name for _, name in numpy_names(path) if banned(name)) == [
        "np.linalg.eigh", "np.linalg.eigvalsh", "np.sort", "np.unique"]


def test_src_calls_no_sort_and_no_lapack():
    found = {path.name: sorted((line, name) for line, name in numpy_names(path)
                               if banned(name))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
