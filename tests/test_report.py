"""The report schema walker against jsonschema, the reference validator."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbmorse
from orbmorse import cli
from orbmorse import report as report_module
from orbmorse.report import REPORT_SCHEMA, validate_report

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def demo_reports(tmp_path_factory):
    """The report of `orbmorse all` on every shipped demo config."""
    reports = []
    for path in sorted(DEMO_CONFIGS.glob("*.yaml")):
        out = tmp_path_factory.mktemp(path.stem)
        assert cli.run("all", cli.load_config(path), out) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    assert len(reports) == 4
    return reports


def entries(report, key):
    value = report.get(key)
    return [e for e in value if isinstance(e, dict)] if isinstance(value, list) else []


def objects(report):
    """Every object of the report the schema constrains."""
    sections = [report[key] for key in ("meta", "catalog")
                if isinstance(report.get(key), dict)]
    return [report, *sections, *entries(report, "results"), *entries(report, "diagnostics")]


def mutate(report, kind, data):
    """Apply one named fault to ``report`` in place."""
    if kind == "drop-key":
        target = data.draw(st.sampled_from(objects(report)))
        if target:
            del target[data.draw(st.sampled_from(sorted(target)))]
    elif kind == "wrong-type":
        target = data.draw(st.sampled_from(objects(report)))
        key = data.draw(st.sampled_from(sorted(target) or ["meta"]))
        target[key] = data.draw(JSON_VALUES)
    elif kind == "seed" and isinstance(report.get("meta"), dict):
        report["meta"]["seed"] = data.draw(st.sampled_from([True, False, 2.0, 2.5, "7"]))
    elif kind == "extra-key":
        report[data.draw(st.text(max_size=8))] = data.draw(JSON_VALUES)
    elif kind == "extra-meta-key" and isinstance(report.get("meta"), dict):
        report["meta"][data.draw(st.text(max_size=8))] = data.draw(JSON_VALUES)
    elif kind == "any-data" and entries(report, "results"):
        entry = data.draw(st.sampled_from(entries(report, "results")))
        entry["data"] = data.draw(JSON_VALUES)
    elif kind == "level" and entries(report, "diagnostics"):
        entry = data.draw(st.sampled_from(entries(report, "diagnostics")))
        entry["level"] = data.draw(st.sampled_from(["debug", "Info", "", 1, None]))
    elif kind == "passed" and entries(report, "results"):
        entry = data.draw(st.sampled_from(entries(report, "results")))
        entry["passed"] = data.draw(st.sampled_from([0, 1, 1.0, "true", None]))


# the last two leave a valid report valid, unless they overwrite a typed key
MUTATIONS = ["drop-key", "wrong-type", "seed", "extra-key", "level", "passed",
             "extra-meta-key", "any-data"]


def accepts(validate, report):
    try:
        validate(report)
    except ValueError:
        return False
    return True


REFERENCE = jsonschema.Draft7Validator(REPORT_SCHEMA)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_walker_accepts_exactly_what_jsonschema_accepts(demo_reports, data):
    report = copy.deepcopy(data.draw(st.sampled_from(demo_reports)))
    for kind in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutate(report, kind, data)
    assert accepts(validate_report, report) == REFERENCE.is_valid(report)


@pytest.mark.parametrize("seed,ok", [(7, True), (2.0, True), (True, False),
                                     (2.5, False), ("7", False)])
def test_seed_is_a_draft7_integer(demo_reports, seed, ok):
    report = copy.deepcopy(demo_reports[0])
    report["meta"]["seed"] = seed
    assert accepts(validate_report, report) == ok


@pytest.mark.parametrize("where,keyword", [
    (("meta", "seed"), "minimum"),
    (("diagnostics", "message"), "maxLength"),
])
def test_unsupported_schema_keyword_raises(monkeypatch, demo_reports, where, keyword):
    """A keyword the walker does not know fails every report, even one that never
    reaches the subschema holding it (an empty diagnostics list)."""
    schema = copy.deepcopy(REPORT_SCHEMA)
    section, name = where
    sub = schema["properties"][section]
    sub = sub.get("items", sub)
    sub["properties"][name][keyword] = 0
    monkeypatch.setattr(report_module, "REPORT_SCHEMA", schema)
    report = copy.deepcopy(demo_reports[0])
    report["diagnostics"] = []
    with pytest.raises(ValueError, match=keyword):
        validate_report(report)


def test_cli_run_loads_no_jsonschema(tmp_path):
    """jsonschema is a test dependency only: a full run never imports it."""
    code = ("import sys; from orbmorse.cli import main; "
            f"code = main(['all', '--config', {str(DEMO_CONFIGS / 'p12.yaml')!r}, "
            f"'--out', {str(tmp_path)!r}]); "
            "print(code, sorted(m for m in sys.modules if m.startswith('jsonschema')))")
    env = dict(os.environ, PYTHONPATH=str(Path(orbmorse.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "0 []"
    assert (tmp_path / "report.json").exists()
