"""Smoke test: every demo script and every shipped config runs to exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbmorse

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.yaml"))
ENV = dict(os.environ, PYTHONPATH=str(Path(orbmorse.__file__).parents[1]))


def run(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("config", CONFIGS, ids=[c.name for c in CONFIGS])
def test_orbmorse_all_on_shipped_config(config, tmp_path):
    proc = run(["-m", "orbmorse.cli", "all", "--config", str(config),
                "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").is_file()
