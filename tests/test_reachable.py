"""Every module-level src function and method has a caller.

A ``sys.setprofile`` trace runs the programs that use orbmorse:
``orbmorse all`` on the shipped configs and on the two CLI benchmark
configs, the benchmark's image-oracles library session, and the six demos.
A function or method of ``src/orbmorse`` that none of them calls fails the
test, unless it is public API (``orbmorse.__all__``), the benchmark names it
(``bench/tracer.py``'s ``TARGETS`` and the calls of ``bench/child.py``), or
``ALLOWED`` lists it with its reason.

The trace runs in a fresh interpreter, this file run as a script, so a
module cache that earlier tests filled (the Gauss-Legendre rules) cannot
hide a call.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import yaml

import orbmorse
from test_bench_contract import child_library_calls, load_bench, load_tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(orbmorse.__file__).parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.yaml"))
ENV = dict(os.environ, PYTHONPATH=str(SRC.parent))

# The public API.  Its functions need no caller in the trace, so a name
# added here, or dropped, is a decision this list records.
PUBLIC_API = [
    "BignessEstimate", "ChartedOrbifold", "CohomologyTable", "ConfigurationError",
    "CriterionVerdict", "CurvatureSpectrum", "CyclicGroup", "DegenerateSpectrumError",
    "EquivariantLineBundle", "GeometryError", "IntegrandError",
    "LimitDensity", "ModelPoint", "OrbifoldChart", "OrbmorseError",
    "UnsupportedModelError", "assemble_kodaira_laplacian", "bigness_check",
    "build_catalog_orbifold", "catalog", "classify_point", "cohomology",
    "cohomology_table", "curvature", "curvature_spectrum", "cyclic_group", "errors",
    "fit_rate", "geometry", "heat_diagonal_limit", "heat_trace", "kernels",
    "kodaira_rank", "model_heat_kernel", "moishezon", "moishezon_check",
    "morse_integral", "orbifold_integrate", "siegel_bound", "signature_integrals",
    "signature_limit_density", "singular_diagonal_factor", "spectral",
    "twisted_gaussian", "verify", "verify_kernel_asymptotics_regular",
    "verify_kernel_asymptotics_singular", "verify_strong_morse", "volume_density",
    "weighted_proj_h0",
]

# (module, qualified name): why the function stays without a caller
ALLOWED = {}


def _key(fn):
    """(module, qualified name) of a function under src/orbmorse."""
    return Path(fn.__code__.co_filename).stem, fn.__qualname__


def _where(code):
    """(module, first line) of a code object under src/orbmorse, which tells
    its functions apart; code objects carry no qualified name before 3.11."""
    return Path(code.co_filename).stem, code.co_firstlineno


def _function(obj):
    """The plain function behind a function, method descriptor or property."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    obj = inspect.unwrap(obj)
    return obj if inspect.isfunction(obj) else None


def src_functions():
    """The keys of the module-level functions and class methods written in
    src, each under its ``_where``; the methods a NamedTuple generates have no
    source file there."""
    keys = {}
    for info in pkgutil.iter_modules(orbmorse.__path__):
        module = importlib.import_module(f"orbmorse.{info.name}")
        for obj in vars(module).values():
            members = ([obj] if not inspect.isclass(obj)
                       else list(vars(obj).values()))
            for member in members:
                fn = _function(member)
                if fn is not None and fn.__code__.co_filename == module.__file__:
                    keys[_where(fn.__code__)] = _key(fn)
    return keys


def _resolve(module_name, attr):
    owner = importlib.import_module(f"orbmorse.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return _key(_function(owner))


def exempt():
    """Public API, the benchmark's names, and ALLOWED."""
    keys = set(ALLOWED)
    keys |= {_key(fn) for fn in map(_function, (
        getattr(orbmorse, name) for name in orbmorse.__all__)) if fn is not None}
    keys |= {_resolve(module, attr) for _, module, attr, _ in load_tracer().TARGETS}
    keys |= {_resolve(module, name) for module, name, _, _ in child_library_calls()}
    return keys


def trace(out_dir):
    """``_where`` of the src code the entry points call, traced in this process."""
    from orbmorse import cli, verify
    run, child = load_bench("run"), load_bench("child")
    out_dir = Path(out_dir)
    configs = list(CONFIGS)
    sessions = []
    for name, make in sorted(run.WORKLOADS.items()):
        kind, cfg = make(7)
        if kind == "cli":
            path = out_dir / f"{name}.yaml"
            path.write_text(yaml.safe_dump(cfg, sort_keys=True))
            configs.append(path)
        else:
            sessions.append((name, cfg))
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sink = io.StringIO()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for path in configs:
                code = cli.main(["all", "--config", str(path),
                                 "--out", str(out_dir / path.stem)])
                assert code == 0, f"orbmorse all on {path.name} exited {code}"
            for name, cfg in sessions:
                models = {key: cli.build_catalog_orbifold(m["id"], **child._kwargs(m["params"]))
                          for key, m in cfg["models"].items()}
                (out_dir / name).mkdir()
                child._session(verify, cfg, models, out_dir / name)
            for demo in DEMOS:
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    return {_where(code) for code in reached
            if Path(code.co_filename).parent == SRC}


def test_every_src_function_has_a_caller(tmp_path):
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    traced = {tuple(where) for where in json.loads((tmp_path / "reached.json").read_text())}
    located = src_functions()
    reached = {key for where, key in located.items() if where in traced}
    functions = set(located.values())
    unreached = sorted(functions - reached - exempt())
    assert not unreached, (
        "no CLI run, demo or benchmark session calls these src functions; "
        f"delete them, or list them in ALLOWED with a reason: {unreached}")
    # an entry whose function is gone, or now has a caller, no longer belongs
    assert not set(ALLOWED) - (functions - reached)


def test_public_api_is_pinned():
    assert sorted(orbmorse.__all__) == PUBLIC_API


if __name__ == "__main__":
    reached = trace(sys.argv[1])
    Path(sys.argv[1], "reached.json").write_text(json.dumps(sorted(reached)))
