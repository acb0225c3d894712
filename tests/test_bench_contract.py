"""The names and inputs the benchmark takes from orbmorse.

``bench/tracer.py`` wraps the functions it lists in ``TARGETS`` and binds
``morse_integral``'s arguments by name; ``bench/child.py`` drives the CLI
through ``load_config``, ``build_catalog_orbifold`` and ``RUNNERS``, on the
configs that ``bench/run.py`` writes, and calls the ``verify`` checks of its
library session.  A missing name, a changed signature or a refused config
breaks only the benchmark run, so all three are pinned here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest
import yaml

from orbmorse import cli, verify
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.curvature import morse_integral

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench("tracer")


def test_every_tracer_target_resolves():
    for span, module_name, attr, _ in load_tracer().TARGETS:
        owner = importlib.import_module(f"orbmorse.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), span


def test_node_counter_binds_morse_integral_arguments():
    tracer = load_tracer()
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 2))
    counts = tracer._count_nodes(morse_integral, (orb, bundle, {0}),
                                 {"resolution": 8}, None, {})
    assert counts == {"nodes": 8 ** 2 * 2}


def child_library_calls():
    """(module, function, positional count, keyword names) of each orbmorse call
    that ``bench/child.py`` makes, read from its source."""
    calls = [("cli", "main", 1, ())]     # made as fn(*args) with args = ([...],)
    for node in ast.walk(ast.parse((BENCH / "child.py").read_text())):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in ("cli", "verify")):
            # a **mapping argument has no name; the catalog builders take any keys
            keywords = tuple(kw.arg for kw in node.keywords if kw.arg is not None)
            calls.append((func.value.id, func.attr, len(node.args), keywords))
    return calls


@pytest.mark.parametrize("module,name,positional,keywords", child_library_calls(),
                         ids=[f"{m}.{n}" for m, n, _, _ in child_library_calls()])
def test_child_calls_bind_to_the_library_signatures(module, name, positional, keywords):
    """A signature change that would break the benchmark fails here first."""
    fn = getattr({"cli": cli, "verify": verify}[module], name)
    inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_child_calls_cover_the_session_checks():
    names = {name for _, name, _, _ in child_library_calls()}
    assert names >= {"trace_equals_diagonal_integral", "oracle_consistency",
                     "verify_kernel_asymptotics_regular", "singular_diagonal_factor",
                     "verify_kernel_asymptotics_singular", "load_config",
                     "build_catalog_orbifold"}


def test_cli_names_the_child_process_uses():
    assert callable(cli.load_config)
    assert callable(cli.build_catalog_orbifold)
    assert set(cli.RUNNERS) == set(cli.SUBCOMMANDS) - {"all"}


@pytest.mark.parametrize("workload", sorted(load_bench("run").WORKLOADS))
def test_benchmark_inputs_load_and_build(tmp_path, workload):
    """Each workload's generated config loads and builds its models, as the child does."""
    run, child = load_bench("run"), load_bench("child")
    kind, cfg = run.WORKLOADS[workload](7)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    if kind == "cli":
        config = cli.load_config(path)
        models = [(config.catalog_id, config.catalog_params)]
    else:
        config = yaml.safe_load(path.read_text())
        models = [(m["id"], m["params"]) for m in config["models"].values()]
    for catalog_id, params in models:
        orb, bundle = build_catalog_orbifold(catalog_id, **child._kwargs(params))
        assert orb.catalog_id == catalog_id
