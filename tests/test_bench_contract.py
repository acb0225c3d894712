"""The names and inputs the benchmark takes from orbmorse.

``bench/tracer.py`` wraps the functions it lists in ``TARGETS`` and binds
``morse_integral``'s arguments by name; ``bench/child.py`` drives the CLI
through ``load_config``, ``build_catalog_orbifold`` and ``RUNNERS``, on the
configs that ``bench/run.py`` writes.  A missing name or a refused config
breaks only the benchmark run, so both are pinned here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest
import yaml

from orbmorse import cli
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
