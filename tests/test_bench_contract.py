"""The names the benchmark's tracer and child process import from orbmorse.

``bench/tracer.py`` wraps the functions it lists in ``TARGETS`` and binds
``morse_integral``'s arguments by name; ``bench/child.py`` drives the CLI
through ``load_config``, ``build_catalog_orbifold`` and ``RUNNERS``.  A name
missing here breaks only the traced benchmark run, so it is pinned here.
"""

import importlib
import importlib.util
from pathlib import Path

from orbmorse import cli
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.curvature import morse_integral

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
