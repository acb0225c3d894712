"""The report schema walker against jsonschema, the reference validator."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbmorse
from orbmorse import cli, errors
from orbmorse import report as report_module
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.curvature import signature_integrals
from orbmorse.moishezon import moishezon_check
from orbmorse.report import REPORT_SCHEMA, sanitize, validate_report
from orbmorse.verify import fit_rate

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
    return [report, *sections, *entries(report, "results"), *entries(report, "skipped"),
            *entries(report, "diagnostics")]


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
    elif kind == "reason" and entries(report, "skipped"):
        entry = data.draw(st.sampled_from(entries(report, "skipped")))
        entry["reason"] = data.draw(st.sampled_from([*errors.REASONS, "skipped", "", None]))


# the last two leave a valid report valid, unless they overwrite a typed key
MUTATIONS = ["drop-key", "wrong-type", "seed", "extra-key", "level", "passed", "reason",
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


def skipping_report(demo_reports):
    """A copy of a demo report with skipped checks: local_z2's."""
    report = copy.deepcopy(next(r for r in demo_reports if r["catalog"]["id"] == "local-model"))
    validate_report(report)
    return report


@pytest.mark.parametrize("fault", ["unknown-reason", "no-message", "no-reason", "extra-key",
                                   "ran-and-skipped", "left-out-reason", "left-out-message"])
def test_validate_report_refuses_malformed_skips(demo_reports, fault):
    """A reason outside the vocabulary, an entry without its message or reason,
    and a check both judged and skipped are refused, in the skipped list and
    in a record's left_out alike."""
    report = skipping_report(demo_reports)
    entry, record = report["skipped"][0], report["results"][0]["data"]
    if fault == "unknown-reason":
        entry["reason"] = "not-run"
    elif fault in ("no-message", "no-reason"):
        del entry[fault[3:]]
    elif fault == "extra-key":
        entry["cause"] = "none"
    elif fault == "ran-and-skipped":
        entry["name"] = report["results"][0]["name"]
    elif fault == "left-out-reason":
        record["left_out"] = {"64": {"reason": "skipped", "message": "not run"}}
    else:
        record["left_out"] = {"64": {"reason": "too-few-powers"}}
    with pytest.raises(ValueError):
        validate_report(report)


def test_a_left_out_entry_with_its_code_is_valid(demo_reports):
    report = skipping_report(demo_reports)
    report["results"][0]["data"]["left_out"] = {"64": {"reason": "too-few-powers",
                                                       "message": "one power"}}
    validate_report(report)
    assert REFERENCE.is_valid(report)


def test_the_schema_reads_its_reason_codes_from_the_vocabulary():
    """errors.REASONS is the one list: both enums of the schema are that list,
    and every error class's reason is one of its codes."""
    properties = REPORT_SCHEMA["properties"]
    skipped = properties["skipped"]["items"]["properties"]["reason"]["enum"]
    left_out = properties["results"]["items"]["properties"]["data"]["properties"][
        "left_out"]["additionalProperties"]["properties"]["reason"]["enum"]
    assert skipped == left_out == list(errors.REASONS)
    coded = {cls.reason for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, Exception) and hasattr(cls, "reason")}
    assert coded and coded <= set(errors.REASONS)


@pytest.mark.parametrize("level,ok", [("warning", True), ("failure", True), ("info", False)])
def test_a_diagnostic_is_a_warning_or_a_failure(demo_reports, level, ok):
    """No run writes an info line: a check that did not run is a skipped entry."""
    report = copy.deepcopy(demo_reports[0])
    report["diagnostics"] = [{"level": level, "message": "m"}]
    assert accepts(validate_report, report) == ok == REFERENCE.is_valid(report)


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


def test_cli_run_imports_no_dataclasses(tmp_path):
    """Every record is a NamedTuple: a full run never compiles the methods a
    dataclass generates, which cost 5 to 7 ms of each process's set-up."""
    code = ("import sys; from orbmorse.cli import main; "
            f"code = main(['all', '--config', {str(DEMO_CONFIGS / 'p12.yaml')!r}, "
            f"'--out', {str(tmp_path)!r}]); "
            "print(code, 'dataclasses' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(orbmorse.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "0 False"


def test_sanitize_writes_a_record_as_its_fields():
    """A NamedTuple record is written as the mapping of its fields, not as a
    bare list; a plain tuple stays a list."""
    fit = fit_rate([4, 8, 16, 32], np.log([0.5, 0.25, 0.125, 0.07]))
    split = signature_integrals(*build_catalog_orbifold("wps", weights=(1, 2)),
                                resolution=32)
    verdict = moishezon_check(split)
    for record in (fit, verdict):
        assert json.dumps(sanitize(record), sort_keys=True) == json.dumps(
            sanitize(record._asdict()), sort_keys=True)
        assert sorted(sanitize(record)) == sorted(type(record)._fields)
    assert sanitize({"fit": fit})["fit"]["p_window"] == [4, 8, 16, 32]
    assert sanitize((1, 2.0)) == [1, 2.0]


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


# (q, residuals at p = 1024, 2048, 4096, 8192, passed) on a curve
STRONG_MORSE_SERIES = {
    # P(3,5)'s exact counts: the positive part rises, within 2/p at each power
    "orbifold-period": (0, [-2.6e-4, 2.3e-4, -1.6e-5, -1.6e-5], True),
    # above 2/p at the first power only, then falling to within 2/p
    "early-excess": (0, [3e-3, 1e-4, 1e-5, 1e-6], False),
    "stalled": (0, [0.25, 0.25, 0.25, 0.25], False),
    "nan": (0, [1e-4, "nan", 1e-5, 1e-6], False),
    # below -2/p at q = n: the residual itself must be O(1/p) there
    "top-degree-negative": (1, [-1e-4, -1e-4, -1e-4, -1e-3], False),
    "top-degree-negative-below-n": (0, [-1e-4, -1e-4, -1e-4, -1e-3], True),
}


@pytest.mark.parametrize("series", sorted(STRONG_MORSE_SERIES))
def test_strong_morse_gate_bounds_the_positive_part_at_every_power(series):
    q, residuals, passed = STRONG_MORSE_SERIES[series]
    data = {"q": q, "dimension": 1, "p_list": [1024, 2048, 4096, 8192], "residuals": residuals}
    assert report_module.KINDS["strong-morse"].gate(data, None) is passed
