"""The README names only calls and constants that exist: every backticked
`name(` is a function or class defined in src/orbmorse, or a listed outside
name, and every backticked ALL-CAPS name is a module-level assignment in
src/orbmorse, tests or bench, or a listed environment variable.  Its CLI
flags are the parser's, in both directions: every backticked `--flag` is one
that ``cli.main`` defines, or a listed outside flag, and every flag that
``cli.main`` defines is named."""

import ast
import inspect
import random
import re
from pathlib import Path

import numpy as np

import orbmorse
from orbmorse import cli
from orbmorse.geometry import RadialField

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(orbmorse.__file__).parent
# a backticked call, dotted or not; the name is its last component
CALL = re.compile(r"`(?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)\(")
# outside names the README calls, each with the object that holds it
OUTSIDE = {"Random": random, "random": random.Random, "errstate": np,
           "profile": RadialField(np.sqrt)}
# a backticked constant, dotted or not: the whole span, its last component ALL-CAPS
CONSTANT = re.compile(r"`(?:[A-Za-z_]\w*\.)*([A-Z][A-Z0-9_]+)`")
# environment variables the README names
ENVIRONMENT = {"PYTHONPATH", "PYTHONDONTWRITEBYTECODE"}
# a backticked long option, alone or with its argument
FLAG = re.compile(r"`(--[a-z][\w-]*)")
# outside flags the README names: pytest's, which pyproject.toml passes
OUTSIDE_FLAGS = {"--strict-markers"}


def src_definitions():
    """Every function, method and class name defined in src/orbmorse."""
    return {node.name for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def module_constants():
    """Every name assigned at module level in src/orbmorse, tests and bench."""
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    return {target.id for path in paths
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)}


def unknown_constants(text):
    """The backticked ALL-CAPS names in ``text`` that no module assigns and
    ENVIRONMENT does not list."""
    return sorted(set(CONSTANT.findall(text)) - module_constants() - ENVIRONMENT)


def unknown_calls(text):
    """The backticked call names in ``text`` that src and OUTSIDE do not define."""
    known = src_definitions() | set(OUTSIDE)
    return sorted(set(CALL.findall(text)) - known)


def parser_flags():
    """The long options of ``cli.main``'s parser, from its add_argument calls."""
    main = ast.parse(inspect.getsource(cli.main))
    return {arg.value for node in ast.walk(main)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
            for arg in node.args
            if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")}


def unknown_flags(text):
    """The backticked flags in ``text`` that the parser does not define and
    OUTSIDE_FLAGS does not list."""
    return sorted(set(FLAG.findall(text)) - parser_flags() - OUTSIDE_FLAGS)


def unnamed_flags(text):
    """The parser's flags that ``text`` does not name in backticks."""
    return sorted(parser_flags() - set(FLAG.findall(text)))


def test_outside_names_exist_where_they_are_listed():
    assert all(hasattr(home, name) for name, home in OUTSIDE.items())


def test_readme_calls_name_src_definitions():
    assert unknown_calls((ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_readme_constants_are_assigned():
    assert unknown_constants((ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_a_deleted_name_fails_the_guard():
    """A README that still named the deleted fold or the deleted stencil step
    would fail."""
    text = "`folded_blocks(resolution, radius)` and `np.errstate(raise)`"
    assert unknown_calls(text) == ["folded_blocks"]
    text = ("`KODAIRA_STEP`, `moishezon.KODAIRA_SAMPLES`, `spectral.CACHE_SIZE`, "
            "`ALLOWED`, `WORKLOADS`, `PYTHONPATH` and `CHANGES.md`")
    assert unknown_constants(text) == ["KODAIRA_STEP"]


def test_readme_flags_are_the_parsers():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert parser_flags() == {"--config", "--out", "--seed", "--threads"}
    assert unknown_flags(text) == []
    assert unnamed_flags(text) == []


def test_a_removed_or_missing_flag_fails_the_guard():
    """A README that still named the removed --strict, or that left out a
    flag the parser defines, would fail."""
    text = "Flags: `--config PATH`, `--out DIR`, `--seed N`, `--threads N`, `--strict`."
    assert unknown_flags(text) == ["--strict"]
    assert unnamed_flags(text) == []
    assert unnamed_flags("`--config PATH`, `--out DIR`, `--seed N`") == ["--threads"]
