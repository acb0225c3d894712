"""Golden reports: ``orbmorse all`` writes the committed bytes.

Each directory under ``tests/golden`` holds the ``report.json`` of one run,
with ``meta.timestamp`` removed, and every CSV it writes.  The runs are the
four shipped configs, ``demos/configs/*.yaml``, and the two CLI benchmark
configs, built from ``bench/run.py``'s ``WORKLOADS`` at seed 7, so a bench
change to them shows here too.  The benchmark's library session at seed 7
(``bench/child.py``'s ``_session``, on the config read back from the YAML
the benchmark writes) pins its ``session.json`` the same way.  A change that
moves one bit of a written number fails the test, which prints each JSON
path that differs.  Each golden verdict is also judged again from its record
alone, with the gates of ``report.KINDS``.

To regenerate the files after a change that moves them on purpose, which
first prints each JSON path that moved, with its old and new value, and the
name of each other file that moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
import yaml

from orbmorse import cli, verify
from orbmorse.report import KINDS, kind_of
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


def sessions():
    """Each library-session workload's name and config, as ``bench/child.py``
    reads it back from the YAML that ``bench/run.py`` writes."""
    return {name: yaml.safe_load(yaml.safe_dump(raw, sort_keys=True))
            for name, make in sorted(load_bench("run").WORKLOADS.items())
            for kind, raw in [make(BENCH_SEED)] if kind == "session"}


CONFIGS = configs()
SESSIONS = sessions()


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


def session_outputs(config, out_dir):
    """{"session.json": bytes} of the benchmark's library session."""
    child = load_bench("child")
    models = {name: cli.build_catalog_orbifold(m["id"], **child._kwargs(m["params"]))
              for name, m in config["models"].items()}
    assert child._session(verify, config, models, out_dir) == 0
    return {"session.json": (Path(out_dir) / "session.json").read_bytes()}


def run_outputs(name, out_dir):
    if name in SESSIONS:
        return session_outputs(SESSIONS[name], out_dir)
    return outputs(CONFIGS[name], out_dir)


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
    check_golden(name, tmp_path)


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_library_session_writes_the_golden_bytes(name, tmp_path):
    check_golden(name, tmp_path)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_each_golden_verdict_is_judged_again_from_its_record(name):
    """Each result name of a golden report matches exactly one declared kind,
    whose gate, given the record's data as written and the value of the
    kind's tolerance key in the run's config, gives back the recorded verdict."""
    report = json.loads((GOLDEN / name / "report.json").read_text())
    for result in report["results"]:
        kinds = [kind for kind in KINDS.values() if re.fullmatch(kind.pattern, result["name"])]
        assert kinds == [kind_of(result["name"])], result["name"]
        kind = kinds[0]
        tol = CONFIGS[name].tolerances[kind.tolerance] if kind.tolerance else None
        assert kind.gate(result["data"], tol) is result["passed"], result["name"]


def test_the_golden_reports_hold_every_declared_kind():
    names = [result["name"] for name in CONFIGS
             for result in json.loads((GOLDEN / name / "report.json").read_text())["results"]]
    assert all(any(re.fullmatch(kind.pattern, n) for n in names) for kind in KINDS.values())
    assert all(kind.pattern.startswith(key) and kind.stage in cli.RUNNERS
               for key, kind in KINDS.items())


def test_regenerating_prints_each_planted_move(tmp_path, monkeypatch, capsys):
    """Over a golden copy with one planted JSON value and one planted CSV
    byte, ``write_goldens`` prints those two moves, the value with its old
    and new reading, and writes the true bytes back."""
    name = "p12"
    true = golden_files(name)
    report = json.loads(true["report.json"])
    degree = report["results"][0]["data"]["degree"]
    report["results"][0]["data"]["degree"] = 0.25
    (tmp_path / name).mkdir()
    planted = {**true, "report.json": (json.dumps(report, sort_keys=True, indent=2)
                                       + "\n").encode(),
               "cohomology.csv": true["cohomology.csv"] + b"\n"}
    for fname, data in planted.items():
        (tmp_path / name / fname).write_bytes(data)
    for key, value in (("GOLDEN", tmp_path), ("CONFIGS", {name: CONFIGS[name]}),
                       ("SESSIONS", {})):
        monkeypatch.setitem(globals(), key, value)
    write_goldens()
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: cohomology.csv: moved",
        f"{name}: report.results[0].data.degree: 0.25 -> {degree!r}"]
    assert golden_files(name) == true


def golden_files(name):
    """{file name: bytes} of the committed golden run ``name``, empty if it has none."""
    target = GOLDEN / name
    return {path.name: path.read_bytes()
            for path in sorted(target.iterdir())} if target.is_dir() else {}


def moved_lines(expected, got):
    """What moved from the ``expected`` to the ``got`` files, each {file name:
    bytes}: each differing JSON path with both values, and the name of each
    other file that differs, is added or is gone."""
    lines = []
    for fname in sorted(expected.keys() | got.keys()):
        old, new = expected.get(fname), got.get(fname)
        if old == new:
            continue
        if fname.endswith(".json") and old is not None and new is not None:
            lines += differing_paths(json.loads(old), json.loads(new), Path(fname).stem) or [
                f"{fname}: layout only"]
        else:
            lines.append(f"{fname}: " + ("added" if old is None else
                                         "gone" if new is None else "moved"))
    return lines


def check_golden(name, out_dir):
    moved = moved_lines(golden_files(name), run_outputs(name, out_dir))
    assert not moved, f"{name} moved at:\n" + "\n".join(moved)


def write_goldens():
    """Rewrite every golden run, printing first what moved in each."""
    for name in sorted(CONFIGS.keys() | SESSIONS.keys()):
        target = GOLDEN / name
        with tempfile.TemporaryDirectory() as out:
            got = run_outputs(name, out)
        for line in moved_lines(golden_files(name), got):
            print(f"{name}: {line}")
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
        for fname, data in got.items():
            (target / fname).write_bytes(data)
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    write_goldens()
