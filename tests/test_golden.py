"""Golden reports: ``orbmorse all`` writes the committed bytes.

Each directory under ``tests/golden`` holds the ``report.json`` of one run,
with ``meta.timestamp`` removed, and every CSV it writes.  The runs are the
four shipped configs, ``demos/configs/*.yaml``, and the two CLI benchmark
configs, built from ``bench/run.py``'s ``WORKLOADS`` at seed 7, so a bench
change to them shows here too.  A change that moves one bit of a written
number fails the test, which prints each JSON path that differs.

To regenerate the files after a change that moves them on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from orbmorse import cli
from test_bench_contract import load_bench

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
BENCH_SEED = 7


def configs():
    """Each golden run's name and RunConfig."""
    runs = {path.stem: cli.load_config(path)
            for path in sorted((ROOT / "demos" / "configs").glob("*.yaml"))}
    for name, make in sorted(load_bench("run").WORKLOADS.items()):
        kind, raw = make(BENCH_SEED)
        if kind == "cli":
            runs[name] = cli.RunConfig.from_mapping(raw)
    return runs


CONFIGS = configs()


def outputs(config, out_dir):
    """{file name: bytes} of ``orbmorse all``: the report without its
    timestamp, re-serialized, and each CSV as written."""
    assert cli.run("all", config, out_dir) == 0
    files = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.name == config.report_name:
            report = json.loads(path.read_text())
            del report["meta"]["timestamp"]
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
            files["report.json"] = text.encode()
        else:
            assert path.suffix == ".csv", path.name
            files[path.name] = path.read_bytes()
    return files


def differing_paths(old, new, path="report"):
    """Each JSON path at which ``old`` and ``new`` differ, with both values."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [line for key in sorted(old.keys() | new.keys())
                for line in differing_paths(old.get(key, "<absent>"),
                                            new.get(key, "<absent>"), f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (a, b) in enumerate(zip(old, new))
                for line in differing_paths(a, b, f"{path}[{i}]")]
    if type(old) is not type(new) or old != new:
        return [f"{path}: {old!r} -> {new!r}"]
    return []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_orbmorse_all_writes_the_golden_bytes(name, tmp_path):
    got = outputs(CONFIGS[name], tmp_path)
    expected = {path.name: path.read_bytes()
                for path in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(expected)
    if got["report.json"] != expected["report.json"]:
        paths = differing_paths(json.loads(expected["report.json"]),
                                json.loads(got["report.json"]))
        pytest.fail("report.json moved at:\n" + "\n".join(paths or ["(layout only)"]))
    moved = [fname for fname in sorted(got) if got[fname] != expected[fname]]
    assert not moved, f"CSV artifacts moved: {moved}"


def write_goldens():
    for name, config in CONFIGS.items():
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
        with tempfile.TemporaryDirectory() as out:
            for fname, data in outputs(config, out).items():
                (target / fname).write_bytes(data)
        print(f"wrote {target.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    write_goldens()
