"""No module of ``src`` calls numpy's sort family, LAPACK or a BLAS product.

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

BLAS products stay out too: ``@``, ``np.dot``, ``np.matmul``, ``np.vdot``,
``np.inner`` and ``np.tensordot``.  As for the quadrature's tensor blocks,
a sum must not depend on the BLAS build or its thread count, and BLAS code
pages cost ``peak_rss_mb`` as well.
"""

import ast
from pathlib import Path

import orbmorse

SRC = Path(orbmorse.__file__).parent
SORTING = {"sort", "argsort", "searchsorted", "unique", "lexsort"}
PRODUCTS = {"dot", "matmul", "vdot", "inner", "tensordot"}
NUMPY = {"np", "numpy"}


def numpy_names(path):
    """(line, "np.<name>" or "np.<module>.<name>") of each numpy name one
    module reads, by attribute or by ``from numpy... import``, and (line, "@")
    of each matrix product, in an expression or an augmented assignment."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add((node.lineno, "@"))
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


def blas_product(name):
    """The matrix-product operator, or a numpy product function."""
    parts = name.split(".")
    return name == "@" or (len(parts) == 2 and parts[1] in PRODUCTS)


def test_the_walker_sees_each_banned_name(tmp_path):
    """A call, a chain, a from-import and an operator alike; norm and other
    names pass."""
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\nfrom numpy import unique, vdot\n"
                    "from numpy.linalg import eigh, norm\nnp.sort(x)\n"
                    "np.linalg.eigvalsh(a)\nnp.linalg.norm(v)\nnp.add.reduce(v)\n"
                    "np.dot(a, b)\nnp.tensordot(a, b)\nc = a @ b\nc @= a\nc = a * b\n")
    names = sorted(numpy_names(path))
    assert [name for _, name in names if banned(name)] == [
        "np.unique", "np.linalg.eigh", "np.sort", "np.linalg.eigvalsh"]
    assert [(line, name) for line, name in names if blas_product(name)] == [
        (2, "np.vdot"), (8, "np.dot"), (9, "np.tensordot"), (10, "@"), (11, "@")]


def hits(rule):
    """Per src module, the (line, name) pairs that ``rule`` bans."""
    found = {path.name: sorted((line, name) for line, name in numpy_names(path) if rule(name))
             for path in sorted(SRC.glob("*.py"))}
    return {name: found for name, found in found.items() if found}


def test_src_calls_no_sort_and_no_lapack():
    assert hits(banned) == {}


def test_src_calls_no_blas_product():
    assert hits(blas_product) == {}
