"""The README names only calls that exist: every backticked `name(` is a
function or class defined in src/orbmorse, or a listed outside name."""

import ast
import random
import re
from pathlib import Path

import numpy as np

import orbmorse
from orbmorse.geometry import RadialField

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(orbmorse.__file__).parent
# a backticked call, dotted or not; the name is its last component
CALL = re.compile(r"`(?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)\(")
# outside names the README calls, each with the object that holds it
OUTSIDE = {"Random": random, "random": random.Random, "errstate": np,
           "profile": RadialField(np.sqrt)}


def src_definitions():
    """Every function, method and class name defined in src/orbmorse."""
    return {node.name for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def unknown_calls(text):
    """The backticked call names in ``text`` that src and OUTSIDE do not define."""
    known = src_definitions() | set(OUTSIDE)
    return sorted(set(CALL.findall(text)) - known)


def test_outside_names_exist_where_they_are_listed():
    assert all(hasattr(home, name) for name, home in OUTSIDE.items())


def test_readme_calls_name_src_definitions():
    assert unknown_calls((ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_a_deleted_name_fails_the_guard():
    """A README that still named the deleted fold would fail."""
    text = "`folded_blocks(resolution, radius)` and `np.errstate(raise)`"
    assert unknown_calls(text) == ["folded_blocks"]
