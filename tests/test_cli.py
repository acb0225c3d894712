"""Configuration ingestion, dispatch, exit codes, report determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import orbmorse
from orbmorse import cli
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.cli import RunConfig, load_config, main
from orbmorse.errors import REASONS, ConfigurationError
from orbmorse.geometry import GROUP_ORDER_MAX, cyclic_group
from orbmorse.report import REPORT_SCHEMA, validate_report

TORUS_YAML = """\
catalog:
  id: torus
  params:
    d: 1
    k: 2
run:
  p_list: [4, 8]
  u_list: [0.5, 1.0]
  q_list: [0, 1]
  resolution_quadrature: 96
  resolution_spectral: 16
tolerances:
  tol_chain: 1.0e-9
seed: 7
"""

WPS_YAML = """\
catalog:
  id: wps
  params:
    weights: [1, 2]
run:
  p_list: [16, 32, 64]
  u_list: [1.0]
  q_list: [0, 1]
  resolution_quadrature: 128
seed: 7
"""


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


# ---------------------------------------------------------------------------
# configuration


def test_config_roundtrip(tmp_path):
    cfg = load_config(write(tmp_path, "c.yaml", TORUS_YAML))
    assert cfg.catalog_id == "torus"
    assert cfg.p_list == [4, 8]
    assert cfg.tolerances["tol_chain"] == 1e-9


def test_config_rejects_nonincreasing_p_list():
    with pytest.raises(ConfigurationError):
        RunConfig.from_mapping({"catalog": {"id": "torus"},
                                "run": {"p_list": [8, 4]}})


def test_config_rejects_nonpositive_tolerance():
    with pytest.raises(ConfigurationError):
        RunConfig.from_mapping({"catalog": {"id": "torus"},
                                "tolerances": {"tol_chain": 0.0}})


def test_config_with_retired_tolerance_key_exits_2(tmp_path, capsys):
    """tol_spectral_gap is no longer a setting; a config that names it is refused."""
    text = TORUS_YAML.replace("  tol_chain: 1.0e-9\n",
                              "  tol_chain: 1.0e-9\n  tol_spectral_gap: 1.0e-8\n")
    path = write(tmp_path, "c.yaml", text)
    with pytest.raises(ConfigurationError, match="tol_spectral_gap"):
        load_config(path)
    assert main(["heat-trace", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "tol_spectral_gap" in err


def test_cli_exit_2_on_bad_config(tmp_path):
    bad = write(tmp_path, "bad.yaml", TORUS_YAML.replace("[4, 8]", "[8, 4]"))
    assert main(["verify-morse", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    missing = str(tmp_path / "nope.yaml")
    assert main(["verify-morse", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    unknown = write(tmp_path, "u.yaml", TORUS_YAML.replace("id: torus", "id: mystery"))
    assert main(["verify-morse", "--config", unknown, "--out", str(tmp_path / "o")]) == 2


def test_config_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys):
    """A byte 0xFF in a comment is a YAML reader error, not a decode traceback."""
    path = tmp_path / "c.yaml"
    path.write_bytes(b"# caf\xff\n" + TORUS_YAML.encode())
    with pytest.raises(ConfigurationError, match="not valid YAML"):
        load_config(path)
    assert main(["cohomology", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(p.name for p in DEMO_CONFIGS.glob("*.yaml")))
def test_config_loads_the_same_without_the_c_parser(tmp_path, monkeypatch, name):
    """The pure-Python parser, used where pyyaml lacks libyaml, builds the
    same RunConfig and refuses the same malformed YAML."""
    path = DEMO_CONFIGS / name
    bad = write(tmp_path, "bad.yaml", path.read_text() + "extra: [1, 2\n")
    with_c = load_config(path)
    with pytest.raises(ConfigurationError, match="not valid YAML"):
        load_config(bad)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_config(path) == with_c
    with pytest.raises(ConfigurationError, match="not valid YAML"):
        load_config(bad)


@pytest.mark.parametrize("subcommand,blocked", [("all", "out"), ("cohomology", "report")],
                         ids=["out-is-a-file", "report-is-a-directory"])
def test_an_output_that_cannot_be_written_exits_2_with_one_line(tmp_path, capsys,
                                                                 subcommand, blocked):
    """Exit 1 is a failed check: an output directory that is a file, or a
    report path that is a directory, is a configuration error naming the path."""
    out = tmp_path / "o"
    if blocked == "out":
        out.write_text("")
        path = out
    else:
        path = out / "report.json"
        path.mkdir(parents=True)
    code = main([subcommand, "--config", str(DEMO_CONFIGS / "p12.yaml"), "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("configuration error:") and str(path) in err[0]


def test_cli_exit_2_on_unknown_subcommand(tmp_path):
    cfg = write(tmp_path, "c.yaml", TORUS_YAML)
    with pytest.raises(SystemExit) as err:
        main(["frobnicate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# runs and exit codes


def test_verify_morse_passes_on_torus(tmp_path):
    cfg = write(tmp_path, "c.yaml", TORUS_YAML)
    out = tmp_path / "out"
    assert main(["verify-morse", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    validate_report(report)
    names = {r["name"] for r in report["results"]}
    assert "trace-chain-p4-u0.5" in names
    assert any(n.startswith("strong-morse-q1") for n in names)


def test_exit_1_when_tolerance_is_violated(tmp_path):
    tightened = TORUS_YAML.replace("tol_chain: 1.0e-9", "tol_chain: 1.0e-30")
    cfg = write(tmp_path, "c.yaml", tightened)
    out = tmp_path / "out1"
    assert main(["verify-morse", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert any(d["level"] == "failure" for d in report["diagnostics"])


def test_kernel_asymptotics_subcommand(tmp_path):
    text = """\
catalog:
  id: local-model
  params:
    k: 2
    a: [1.0]
run:
  p_list: [64, 256, 1024]
  u_list: [1.0]
  q_list: [0]
seed: 3
"""
    cfg = write(tmp_path, "c.yaml", text)
    out = tmp_path / "ka"
    assert main(["kernel-asymptotics", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    rec = report["results"][0]["data"]
    assert rec["regular_fit"]["slope"] <= -0.4
    assert abs(rec["singular_ratio"] - 2.0) <= 0.05


def test_kernel_asymptotics_on_the_trivial_group_exits_0(tmp_path):
    """C/Z_1 has no twist: both singular residuals are rounding, nothing shrinks."""
    cfg = write(tmp_path, "c.yaml", "catalog: {id: local-model, params: {k: 1, a: [1.0]}}\n")
    assert main(["kernel-asymptotics", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_kernel_asymptotics_on_a_group_that_turns_the_fibre(tmp_path, monkeypatch):
    """C/Z_5 with character 1: at the fixed point the ratio is sum_m
    e^{2 pi i m p / 5} at the top power, exactly 0 where 5 does not divide it
    and 5 where it does, and each record carries that reference.  Beyond 2^53
    the image route still reads it within 1e-12, where fibre angles formed
    from a float p theta read 0.196 and 4.806.  A ratio planted 0.1 off fails
    every record."""
    text = "catalog: {id: local-model, params: {k: 5, a: [1.0], character: 1}}\n"
    for i, (p_list, expected) in enumerate([
            ([4, 8, 16], 0.0), ([5, 10, 15], 5.0),
            ([4, 8, 16, 2 ** 50], 0.0), ([4, 8, 16, 4503599627370480], 5.0)]):
        cfg = write(tmp_path, "c.yaml", text + f"run: {{p_list: {p_list}}}\n")
        out = tmp_path / str(i)
        assert main(["all", "--config", cfg, "--out", str(out)]) == 0
        records = [r["data"] for r in json.loads((out / "report.json").read_text())["results"]
                   if r["name"].startswith("kernel-asymptotics")]
        assert len(records) == 4
        assert all(r["expected_ratio"] == expected for r in records)
        assert all(abs(r["singular_ratio"] - expected) <= 1e-12 for r in records)
    from orbmorse import verify
    factor = verify.singular_diagonal_factor
    monkeypatch.setattr(verify, "singular_diagonal_factor", lambda *args: factor(*args) + 0.1)
    out = tmp_path / "planted"
    assert main(["kernel-asymptotics", "--config", cfg, "--out", str(out)]) == 1
    results = json.loads((out / "report.json").read_text())["results"]
    assert len(results) == 4 and not any(r["passed"] for r in results)


@pytest.mark.parametrize("k,unjudged", [(2, True), (1, False)])
def test_kernel_asymptotics_judges_no_rate_from_one_power(tmp_path, k, unjudged):
    """One power leaves a fit of one point, whose -inf slope is no rate: each
    record leaves its regular fit out with the code too-few-powers.  On C/Z_1
    every error is exactly zero, and its -inf is judged."""
    text = (DEMO_CONFIGS / "local_z2.yaml").read_text()
    text = text.replace("k: 2", f"k: {k}").replace(
        "[64, 128, 256, 512, 1024, 2048, 4096]", "[64]")
    out = tmp_path / "o"
    assert main(["kernel-asymptotics", "--config", write(tmp_path, "c.yaml", text),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["data"]["regular_fit"]["p_window"] for r in report["results"]] == (
        [[64]] * 3 if unjudged else [[]] * 3)
    assert all(r["passed"] for r in report["results"])
    assert report["diagnostics"] == []
    left_out = {"regular_fit": {"reason": "too-few-powers", "message": "one power has a "
                                "non-zero error, and a fit needs two"}}
    assert [r["data"].get("left_out") for r in report["results"]] == (
        [left_out] * 3 if unjudged else [None] * 3)


@pytest.mark.parametrize("a,left_out", [(1, False), (10, False), (40, True), (50, True),
                                        (100, True), (800, True), (10 ** 4, True)])
def test_a_twist_below_the_limits_rounding_is_left_out(tmp_path, monkeypatch, a, left_out):
    """On C/Z_2 at u = 0.5 and p_mid = 8 the twist falls below the limit's
    rounding past a ~ 35, and both singular residuals are rounding (their
    ratio read 1.01, 1.0 or 0/0, and each exited 1): such a record leaves the
    twist clause out with its code and exits 0.  At a = 1 and 10 the clause
    is judged, and a dropped twist correction fails it."""
    cfg = write(tmp_path, "c.yaml", f"catalog: {{id: local-model, params: {{k: 2, a: [{a}]}}}}\n"
                                    "run: {p_list: [4, 8], u_list: [0.5]}\n")
    out = tmp_path / "o"
    assert main(["kernel-asymptotics", "--config", cfg, "--out", str(out)]) == 0
    (record,) = json.loads((out / "report.json").read_text())["results"]
    entry = record["data"].get("left_out", {}).get("twist_shrink_factor")
    if left_out:
        assert entry["reason"] == "twist-below-rounding" and "p=8" in entry["message"]
        return
    assert entry is None and record["data"]["twist_shrink_factor"] >= 10.0
    from orbmorse import verify
    # every twist exp(-inf) = 0: the correction is dropped
    monkeypatch.setattr(verify, "twisted_exponents",
                        lambda eigenvalues, u, phases, Z: np.full(len(phases), -np.inf))
    assert main(["kernel-asymptotics", "--config", cfg, "--out", str(out)]) == 1


def test_the_bigness_powers_are_made_once_per_run(tmp_path, monkeypatch):
    """The cohomology table and the bigness check read one list of powers."""
    calls, geomspace = [], np.geomspace
    monkeypatch.setattr(np, "geomspace", lambda *args: calls.append(args) or geomspace(*args))
    out = tmp_path / "o"
    assert main(["all", "--config", write(tmp_path, "c.yaml", WPS_YAML), "--out", str(out)]) == 0
    assert calls == [(2, 4096.0, 40)]
    bigness = next(r for r in json.loads((out / "report.json").read_text())["results"]
                   if r["name"] == "bigness")
    assert bigness["passed"]


@pytest.mark.parametrize("k", [1, 2])
def test_trace_chain_at_small_time_exits_0(tmp_path, k):
    """The top retained degree-1 level has no degree-0 partner; at u = 0.01 an
    unpaired level would leave r_1 near 0.07, far above tol_chain."""
    cfg = write(tmp_path, "c.yaml", f"""\
catalog: {{id: torus, params: {{d: 1, k: {k}}}}}
run: {{p_list: [4, 8], u_list: [0.01], resolution_spectral: 64}}
""")
    out = tmp_path / "o"
    assert main(["verify-morse", "--config", cfg, "--out", str(out)]) == 0
    chains = [r for r in json.loads((out / "report.json").read_text())["results"]
              if r["name"].startswith("trace-chain")]
    assert len(chains) == 2 and all(r["passed"] for r in chains)


def test_moishezon_subcommand_guard(tmp_path):
    cfg = write(tmp_path, "c.yaml", WPS_YAML)
    out = tmp_path / "mz"
    assert main(["moishezon-check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    verdicts = {r["name"]: r for r in report["results"]}
    assert verdicts["moishezon-verdict"]["data"]["verdict"] == "Moishezon-by-(i)"
    assert verdicts["bigness"]["passed"]


def test_the_removed_strict_flag_exits_2(tmp_path, capsys):
    """--strict made a strong-Morse fit's warning exit 1; with the fit and the
    warning gone the gates are the only judge, and the flag is an unknown
    option."""
    cfg = write(tmp_path, "c.yaml", WPS_YAML)
    with pytest.raises(SystemExit) as refusal:
        main(["all", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
    assert refusal.value.code == 2
    assert "unrecognized arguments: --strict" in capsys.readouterr().err


def test_one_power_strong_morse_series_has_no_fit(tmp_path):
    """A one-power series is judged by its gate alone: it passes with no
    diagnostic and nothing left out, and its record carries no rate fit."""
    text = (DEMO_CONFIGS / "p12.yaml").read_text().replace("[64, 256, 1024, 4096]", "[4096]")
    out = tmp_path / "o"
    assert main(["verify-morse", "--config", write(tmp_path, "c.yaml", text),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(r["passed"] for r in report["results"])
    # P(1,2) has no torus, so only the two trace checks are skipped
    assert report["diagnostics"] == []
    assert [s["name"] for s in report["skipped"]] == ["trace-chain", "trace-identity"]
    morse = [r["data"] for r in report["results"] if r["name"].startswith("strong-morse")]
    assert [d["p_list"] for d in morse] == [[4096], [4096]]
    assert not any("left_out" in d or "fit" in d for d in morse)


# ---------------------------------------------------------------------------
# determinism and artifacts


def test_reports_are_byte_identical_up_to_timestamp(tmp_path):
    cfg = write(tmp_path, "c.yaml", TORUS_YAML)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["verify-morse", "--config", cfg, "--out", str(out1),
                 "--seed", "42"]) == 0
    assert main(["verify-morse", "--config", cfg, "--out", str(out2),
                 "--seed", "42"]) == 0
    a = strip_timestamp((out1 / "report.json").read_text())
    b = strip_timestamp((out2 / "report.json").read_text())
    assert a == b
    assert (out1 / "strong_morse_q1.csv").read_text() == \
        (out2 / "strong_morse_q1.csv").read_text()


def test_residual_csv_columns(tmp_path):
    cfg = write(tmp_path, "c.yaml", WPS_YAML)
    out = tmp_path / "csv"
    assert main(["verify-morse", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "strong_morse_q1.csv").read_text().strip().splitlines()
    assert lines[0] == "p,residual"
    assert all(len(line.split(",")) == 2 for line in lines[1:])


def test_heat_trace_artifacts(tmp_path):
    cfg = write(tmp_path, "c.yaml", TORUS_YAML)
    out = tmp_path / "ht"
    assert main(["heat-trace", "--config", cfg, "--out", str(out),
                 "--threads", "2"]) == 0
    lines = (out / "spectrum_p4_q0.csv").read_text().strip().splitlines()
    assert lines[0] == "p,q,lambda,multiplicity"


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only: the CLI imports without it."""
    code = ("import sys, orbmorse.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(orbmorse.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_schema_is_draft7():
    assert REPORT_SCHEMA["$schema"].endswith("draft-07/schema#")


def test_run_all_on_torus(tmp_path):
    cfg = write(tmp_path, "c.yaml", TORUS_YAML)
    out = tmp_path / "all"
    assert main(["all", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    validate_report(report)
    names = {r["name"] for r in report["results"]}
    assert "cohomology-table" in names
    assert "moishezon-verdict" in names
    assert any(n.startswith("trace-chain") for n in names)
    # the torus model cannot run the local-model kernel asymptotics; the stage
    # is skipped with its code rather than failing the run
    assert report["skipped"] == [{
        "name": "kernel-asymptotics", "reason": "model-not-applicable",
        "message": "kernel asymptotics run on the local quotient models"}]


def test_thread_count_does_not_change_report_bytes(tmp_path):
    cfg = write(tmp_path, "c.yaml", TORUS_YAML)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["heat-trace", "--config", cfg, "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["heat-trace", "--config", cfg, "--out", str(out2),
                 "--threads", "4"]) == 0
    a = strip_timestamp((out1 / "report.json").read_text())
    b = strip_timestamp((out2 / "report.json").read_text())
    assert a == b


def test_default_u_list_probes_large_times():
    cfg = RunConfig.from_mapping({"catalog": {"id": "torus"}})
    assert cfg.u_list == [0.5, 1.0, 5.0, 50.0]


# ---------------------------------------------------------------------------
# invalid configurations exit 2 with one stderr line that names the culprit

TORUS_CATALOG = "  id: torus\n  params:\n    d: 1\n    k: 2\n"
LOCAL_CATALOG = "  id: local-model\n  params:\n    k: 2\n    a: [1.0]\n"
WPS_CATALOG = "  id: wps\n  params:\n    weights: [1, 1]\n"


@pytest.mark.parametrize("old,new,named", [
    ("    d: 1\n    k: 2\n", "    dd: 1\n", "dd"),
    ("resolution_quadrature: 96", "resolution_quadrature: 0", "resolution_quadrature"),
    ("resolution_spectral: 16", "resolution_spectral: 0", "resolution_spectral"),
    ("p_list: [4, 8]", "p_list: [0, 4]", "p_list"),
    ("p_list: [4, 8]", "p_list: [-4, 4]", "p_list"),
    ("q_list: [0, 1]", "q_list: [-1, 0]", "q_list"),
    ("u_list: [0.5, 1.0]", "u_list: []", "u_list"),
    ("q_list: [0, 1]", "q_list: []", "q_list"),
    ("q_list: [0, 1]", "q_list: [0, 1, 2]", "q_list"),
    ("    d: 1\n    k: 2\n", "    d: 1\n    k: 2\n    aux_rank: 2\n", "aux_rank"),
    ("resolution_quadrature: 96", "resolution_quadature: 8", "resolution_quadature"),
    ("q_list: [0, 1]\n", "q_list: [0, 1]\n  q_lst: [7]\n", "q_lst"),
    ("tol_chain: 1.0e-9", "tol_chian: 1.0e-30", "tol_chian"),
    ("seed: 7", "sede: 5", "sede"),
    (TORUS_YAML[TORUS_YAML.index("run:"):TORUS_YAML.index("tolerances:")], "run: 5\n",
     "run must be a mapping"),
    ("seed: 7\n", "seed: 7\noutput: x\n", "output must be a mapping"),
    (TORUS_YAML, "- torus\n", "root must be a mapping"),
    (TORUS_CATALOG, TORUS_CATALOG + "    3: 4\n", "parameter name 3"),
    (TORUS_CATALOG, WPS_CATALOG + "    dent: 5\n", "parameter dent"),
    (TORUS_CATALOG, LOCAL_CATALOG + "    character: 1.5\n", "parameter character"),
    (TORUS_CATALOG, LOCAL_CATALOG + "    character: true\n", "parameter character"),
    (TORUS_CATALOG, LOCAL_CATALOG + "    character: '1'\n", "parameter character"),
    (TORUS_CATALOG, LOCAL_CATALOG + "    theta: 1.0\n", "unknown parameter(s) theta"),
    (TORUS_CATALOG, LOCAL_CATALOG.replace("[1.0]", "abc"), "parameter a "),
    (TORUS_CATALOG, WPS_CATALOG + "    dent: {amplitude: abc}\n", "dent.amplitude"),
    (TORUS_CATALOG, LOCAL_CATALOG.replace("k: 2", "k: true"), "parameter k "),
    (TORUS_CATALOG, WPS_CATALOG.replace("[1, 1]", "[1.5, 1]"), "parameter weights"),
    (TORUS_CATALOG, LOCAL_CATALOG + "    weights: [1.5]\n", "parameter weights"),
    (TORUS_CATALOG, TORUS_CATALOG.replace("d: 1", "d: true"), "parameter d "),
    (TORUS_CATALOG, WPS_CATALOG + "    dent: {amplitud: 0.5}\n", "amplitud"),
    (TORUS_CATALOG, WPS_CATALOG + "    dent: {width: 0}\n", "dent.width"),
    (TORUS_CATALOG, WPS_CATALOG + "    dent: {width: -0.12}\n", "dent.width"),
    ("p_list: [4, 8]", 'p_list: "16"', "p_list"),
    ("p_list: [4, 8]", "p_list: [4.5]", "p_list"),
    ("p_list: [4, 8]", "p_list: [true]", "p_list"),
    ("u_list: [0.5, 1.0]", "u_list: [.nan]", "u_list"),
    ("q_list: [0, 1]", "q_list: [0.0, 1]", "q_list"),
    ("tol_chain: 1.0e-9", "tol_chain: abc", "tol_chain"),
    ("resolution_quadrature: 96", "resolution_quadrature: 32.7", "resolution_quadrature"),
    ("resolution_spectral: 16", "resolution_spectral: true", "resolution_spectral"),
    ("seed: 7", "seed: 1.5", "seed"),
    ("u_list: [0.5, 1.0]", "u_list: [1.0, 1.0]", "u_list"),
    ("q_list: [0, 1]", "q_list: [0, 0]", "q_list"),
    ("seed: 7\n", "seed: 7\noutput:\n  report_name: sub/report.json\n", "output.report_name"),
    ("seed: 7\n", "seed: 7\noutput:\n  report_name: ''\n", "output.report_name"),
    ("seed: 7\n", "seed: 7\noutput:\n  report_name: cohomology.csv\n", "output.report_name"),
    ("seed: 7\n", "seed: 7\noutput:\n  report_name: 123\n", "output.report_name"),
    # d / k beyond the float range was an OverflowError traceback, and np.arange
    # of k = 10^20 a ValueError one; the order is refused before any element is built
    (TORUS_CATALOG, TORUS_CATALOG.replace("d: 1", f"d: {10 ** 309}"), "parameter d "),
    (TORUS_CATALOG, TORUS_CATALOG.replace("d: 1", f"d: {-10 ** 309}"), "parameter d "),
    (TORUS_CATALOG, LOCAL_CATALOG.replace("k: 2", f"k: {GROUP_ORDER_MAX + 1}"), "order k "),
    (TORUS_CATALOG, LOCAL_CATALOG.replace("k: 2", f"k: {10 ** 20}"), "order k "),
    # 2^40 nodes asked numpy for 4 TiB, an exit-1 traceback, and 2^40 Landau
    # levels a tuple of 2^40 multiplicities; both are refused before either
    ("resolution_quadrature: 96", f"resolution_quadrature: {2 ** 40}", "quadrature resolution"),
    ("resolution_spectral: 16", f"resolution_spectral: {2 ** 40}", "spectral resolution"),
], ids=["unknown-parameter", "quadrature-resolution-0", "spectral-resolution-0",
        "p-zero", "p-negative", "q-negative", "u-list-empty", "q-list-empty",
        "q-above-dimension", "aux-rank", "run-key-typo", "run-extra-key",
        "tolerance-key-typo", "root-key-typo", "run-not-mapping",
        "output-not-mapping", "root-not-mapping", "parameter-name-not-string",
        "dent-not-mapping", "character-real", "character-bool", "character-string",
        "theta-unknown", "a-string", "dent-amplitude-string",
        "k-bool", "wps-weight-real", "local-weight-real", "d-bool", "dent-key-typo",
        "dent-width-zero", "dent-width-negative", "p-list-string", "p-real", "p-bool",
        "u-nan", "q-real", "tolerance-string", "quadrature-resolution-real",
        "spectral-resolution-bool", "seed-real", "u-list-repeated", "q-list-repeated",
        "report-name-in-subdirectory", "report-name-empty", "report-name-csv",
        "report-name-integer", "d-1e309", "d-minus-1e309", "k-above-the-bound", "k-1e20",
        "quadrature-resolution-2-40", "spectral-resolution-2-40"])
def test_invalid_config_exits_2(tmp_path, capsys, old, new, named):
    bad = write(tmp_path, "bad.yaml", TORUS_YAML.replace(old, new))
    assert main(["all", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "configuration error" in err
    assert named in err



@pytest.mark.parametrize("d", [0, -1])
def test_all_on_nonpositive_degree_torus_skips_spectra(tmp_path, d):
    """d <= 0 tori have no Landau levels: heat-trace and the two trace checks
    are skipped with the Laplacian's refusal, the rest runs."""
    text = TORUS_YAML.replace("    d: 1\n    k: 2\n", f"    d: {d}\n    k: 1\n")
    cfg = write(tmp_path, "c.yaml", text)
    out = tmp_path / "all"
    assert main(["all", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    validate_report(report)
    assert all(r["passed"] for r in report["results"])
    names = {r["name"] for r in report["results"]}
    assert {"cohomology-table", "moishezon-verdict", "bigness"} <= names
    assert not any(n.startswith(("heat-trace", "trace-chain")) for n in names)
    assert [(s["name"], s["reason"]) for s in report["skipped"]] == [
        (name, "model-not-applicable")
        for name in ("heat-trace", "trace-chain", "trace-identity", "kernel-asymptotics")]
    assert {s["message"] for s in report["skipped"][:3]} == {
        f"bundle degree d={d} has no magnetic Fourier basis; spectra require d >= 1"}


@pytest.mark.parametrize("catalog,params,orders", [
    (LOCAL_CATALOG.replace("k: 2", "k: 4"), {"k": 4, "a": [1.0]}, [4]),
    (WPS_CATALOG.replace("[1, 1]", "[2, 5]"), {"weights": [2, 5]}, [2, 5]),
    (TORUS_CATALOG, {"d": 1, "k": 2}, [2])], ids=["local-model", "wps", "torus"])
def test_all_builds_each_chart_group_once(tmp_path, monkeypatch, catalog, params, orders):
    """``orbmorse all`` builds each chart's group once, in the catalog, and
    every stage reads that record: one build on a local model and on the
    torus, two on P(a, b).  Each chart counts the record's elements, at
    orders other than 3, the len of the three-field record."""
    spy = mock.Mock(wraps=cyclic_group)
    for name, module in list(sys.modules.items()):
        if name.startswith("orbmorse") and hasattr(module, "cyclic_group"):
            monkeypatch.setattr(module, "cyclic_group", spy)
    cfg = write(tmp_path, "c.yaml", TORUS_YAML.replace(TORUS_CATALOG, catalog))
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert spy.call_count == len(orders)
    orb, _ = build_catalog_orbifold(yaml.safe_load(catalog)["id"], **params)
    assert [chart.order for chart in orb.charts] == orders


def test_unknown_catalog_parameter_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="dd"):
        build_catalog_orbifold("torus", dd=1)


def test_all_exits_2_when_an_applicable_stage_cannot_run(tmp_path, capsys):
    """A stage that applies to the model but rejects the config is not skipped."""
    text = TORUS_YAML.replace("resolution_spectral: 16", "resolution_spectral: 24")
    cfg = write(tmp_path, "c.yaml", text)
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "power of two" in err


def child_env():
    return dict(os.environ, PYTHONPATH=str(Path(orbmorse.__file__).parents[1]),
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def run_capped(tmp_path, subcommand, cfg):
    """orbmorse in a child process whose address space is capped at 1.5 GB."""
    import resource
    limit = int(1.5e9)

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, "-m", "orbmorse.cli", subcommand, "--config", cfg,
                           "--out", str(tmp_path / "o")], env=child_env(), capture_output=True,
                          text=True, timeout=120, preexec_fn=cap_address_space)


def test_torus_kodaira_rank_at_a_million_sections_exits_0(tmp_path):
    """d*p up to 6.4e7 sections under a 1.5 GB address space: the rank reads a
    few columns, so the run passes where a dense basis would not fit."""
    cfg = write(tmp_path, "c.yaml",
                "catalog: {id: torus, params: {d: 1000000, k: 1}}\nrun: {p_list: [1, 64]}\n")
    proc = run_capped(tmp_path, "all", cfg)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    bigness = next(r for r in report["results"] if r["name"] == "bigness")
    assert bigness["passed"] and bigness["data"]["kodaira_ranks"] == {"1": 1, "64": 1}


@pytest.mark.parametrize("subcommand", ["cohomology", "all", "verify-morse",
                                        "moishezon-check"])
def test_lattice_dp_beyond_its_bound_exits_2_with_one_line(tmp_path, subcommand):
    """At p = 2^28 on P(2, 3) the coin DP would ask for 2 GiB: it is refused
    before it allocates, not ended by a MemoryError under a 1.5 GB cap.  Every
    stage that reads the table exits 2 with that cause; the strong Morse series
    and the bigness estimate are not skipped with a diagnostic."""
    cfg = write(tmp_path, "c.yaml", "catalog: {id: wps, params: {weights: [2, 3]}}\n"
                                    "run: {p_list: [268435456]}\n")
    proc = run_capped(tmp_path, subcommand, cfg)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1 and "coin DP" in proc.stderr


@pytest.mark.parametrize("catalog,code", [("{id: torus, params: {d: 1, k: 2}}", 0),
                                          ("{id: wps, params: {weights: [2, 3]}}", 2)],
                         ids=["torus", "wps"])
def test_power_beyond_int64_exits_2_with_one_line(tmp_path, capsys, catalog, code):
    """At p = 10^20 the torus counts every state exactly and runs every check,
    a Landau level of 5e19 states included; P(2, 3) refuses the power in one line."""
    cfg = write(tmp_path, "c.yaml",
                f"catalog: {catalog}\nrun: {{p_list: [4, 100000000000000000000]}}\n")
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert len(err.strip().splitlines()) == 1 and "configuration error" in err


def test_torus_rank_at_2_40_is_read(tmp_path, capsys):
    """At p = 2^40 the exact phases of the translates give the rank, and
    bigness reads it with the ranks below it.  Every check passes: the trace
    chain pairs integer multiplicities, so r_1 is exactly 0 where heat traces
    of 4.2e6 and 5.5e11 states rounded it to 1.25e-9 (p = 2^23) and 1.1e-5
    (p = 2^40)."""
    cfg = write(tmp_path, "c.yaml", "catalog: {id: torus, params: {d: 1, k: 2}}\n"
                                    "run: {p_list: [64, 8388608, 1099511627776]}\n")
    code = main(["all", "--config", cfg, "--out", str(tmp_path / "o")])
    assert "floating-point range" not in capsys.readouterr().err
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    bigness = next(r for r in report["results"] if r["name"] == "bigness")
    assert "left_out" not in bigness["data"]
    assert bigness["data"]["kodaira_ranks"] == {"64": 1, "8388608": 1, "1099511627776": 1}
    assert code == 0 and all(r["passed"] for r in report["results"])
    chains = [r for r in report["results"] if r["name"].startswith("trace-chain")]
    assert len(chains) == 12 and all(r["data"]["residuals"][1] == 0.0 for r in chains)


@pytest.mark.parametrize("subcommand,d,top", [("all", 1, 2 ** 40), ("all", 1, 2 ** 50),
                                               ("moishezon-check", 8, 2 ** 60)])
def test_torus_ranks_at_four_powers_up_to_the_top(tmp_path, subcommand, d, top):
    """A rank at each of the four powers bigness reads, none left out, also
    at D = 8 * 2^60 = 2^63, past int64."""
    cfg = write(tmp_path, "c.yaml", f"catalog: {{id: torus, params: {{d: {d}, k: 2}}}}\n"
                                    f"run: {{p_list: [4, 8, 16, {top}]}}\n")
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    bigness = next(r for r in report["results"] if r["name"] == "bigness")["data"]
    assert bigness["kodaira_ranks"] == {"4": 1, "8": 1, "16": 1, str(top): 1}
    assert "left_out" not in bigness


def test_trace_chain_fails_on_a_wrong_degree_one_multiplicity(tmp_path, monkeypatch):
    """One state too many in degree-1 level 0 leaves r_1 = e^{-2 pi u}, above
    tol_chain at every configured u: each trace chain fails."""
    from orbmorse import spectral
    multiplicity = spectral._level_multiplicity
    monkeypatch.setattr(spectral, "_level_multiplicity", lambda D, k, level, q:
                        multiplicity(D, k, level, q) + (q == 1 and level == 0))
    code, results = run_all(tmp_path, load_config(write(tmp_path, "c.yaml", TORUS_YAML)))
    assert code == 1
    chains = {name: r for name, r in results.items() if name.startswith("trace-chain")}
    assert sorted(chains) == [f"trace-chain-p{p}-u{u}" for p in (4, 8) for u in ("0.5", "1.0")]
    for name, r in chains.items():
        u = float(name.rsplit("-u", 1)[1])
        assert not r["passed"]
        assert r["data"]["residuals"][1] == pytest.approx(math.exp(-2 * math.pi * u), rel=1e-12)


def test_a_warm_cache_does_not_mask_a_wrong_multiplicity(tmp_path, monkeypatch):
    """The two faults of the multiplicity tests, applied after a run at their
    inputs has filled every cache: once the caches are cleared, as the
    autouse fixture does before each test, both checks fail again."""
    from orbmorse import spectral, verify
    from orbmorse.catalog import build_catalog_orbifold
    from conftest import clear_caches
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    chain_cfg = load_config(write(tmp_path, "c.yaml", TORUS_YAML))
    assert run_all(tmp_path / "warm", chain_cfg)[0] == 0
    assert verify.trace_equals_diagonal_integral(orb, bundle, 1.0, 8) <= 1e-9
    multiplicity = spectral._level_multiplicity
    faults = {"chain": lambda D, k, level, q: multiplicity(D, k, level, q) + (q == 1 and level == 0),
              "identity": lambda D, k, level, q: multiplicity(D, k, level, q) + (level == 1)}
    monkeypatch.setattr(spectral, "_level_multiplicity", faults["chain"])
    clear_caches()
    code, results = run_all(tmp_path / "chain", chain_cfg)
    chains = [r for name, r in results.items() if name.startswith("trace-chain")]
    assert code == 1 and len(chains) == 4 and not any(r["passed"] for r in chains)
    monkeypatch.setattr(spectral, "_level_multiplicity", faults["identity"])
    clear_caches()
    assert verify.trace_equals_diagonal_integral(orb, bundle, 1.0, 8) > 1e-9


@pytest.mark.parametrize("d,kernel", [(1, 576460752303423489), (8, 4611686018427387905)])
def test_heat_trace_at_2_60_counts_the_kernel_exactly(tmp_path, d, kernel):
    """At p = 2^60 a Landau level holds more states than a float counts
    exactly.  The heat trace keeps the kernel as an int, apart from the float
    tail of the levels above it, so the record holds the exact count and
    every check passes.  Kept as one float, the trace at u = 50 reads
    5.764607523034235e17, below the kernel dimension 2^59 + 1."""
    cfg = write(tmp_path, "c.yaml", f"catalog: {{id: torus, params: {{d: {d}, k: 2}}}}\n"
                                    f"run: {{p_list: [4, 8, 16, {2 ** 60}]}}\n")
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "report.json").read_text()
    assert f'"zero_dim": {kernel}' in text and f'"kernel_dimension": {kernel}' in text
    report = json.loads(text)
    data = next(r for r in report["results"]
                if r["name"] == f"heat-trace-p{2 ** 60}-q0")["data"]
    assert data["zero_dim"] == data["kernel_dimension"] == kernel
    tails = [data["tails"][u] for u in sorted(data["tails"], key=float)]
    assert all(math.isfinite(t) for t in tails) and tails == sorted(tails, reverse=True)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: the strong-Morse gate judges 2/p = 1.7e-18 at p = 2^60 against "
    "a curvature integral whose few-ulp quadrature error it does not resolve"))
def test_torus_at_2_60_and_a_coarse_quadrature_exits_0(tmp_path):
    """At resolution_quadrature 16 the integral reads 0.4999999999999999, so
    both strong-Morse residuals at 2^60 read 1.1e-16, above 2/p."""
    cfg = write(tmp_path, "c.yaml", "catalog: {id: torus, params: {d: 1, k: 2}}\n"
                                    f"run: {{p_list: [4, 8, 16, {2 ** 60}], "
                                    "resolution_quadrature: 16}\n")
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def load_bench_config(tmp_path, workload):
    """The YAML config that bench/run.py writes for a CLI workload, at seed 7."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    kind, raw = module.WORKLOADS[workload](7)
    assert kind == "cli"
    return write(tmp_path, "bench.yaml", yaml.safe_dump(raw, sort_keys=True))


@pytest.mark.parametrize("config", ["p12", "wps-quadrature"])
def test_all_runs_one_lattice_dp(tmp_path, monkeypatch, config):
    """The cohomology, verify-morse and moishezon-check stages read one table,
    over p_list and the bigness powers, and no stage runs the coin DP: the
    table counts each power's monomials.  (Until the per-power count, the
    table ran one DP up to its largest degree.)"""
    from orbmorse import cohomology
    path = (str(DEMO_CONFIGS / "p12.yaml") if config == "p12"
            else load_bench_config(tmp_path, config))
    table = cli.cohomology_table
    tops = []

    def counting(orb, p_values):
        tops.append(max(p_values))
        return table(orb, p_values)

    monkeypatch.setattr(cli, "cohomology_table", counting)
    # the coin DP is the module's only numpy code: without numpy it cannot run
    monkeypatch.setattr(cohomology, "np", None)
    assert main(["all", "--config", path, "--out", str(tmp_path / "o")]) == 0
    p_list = load_config(path).p_list
    assert tops == [max(4096, p_list[-1])]


# Reports the max RSS of one orbmorse run.  A child's max RSS starts at its
# parent's RSS when it is forked, so the run is started from this small
# interpreter rather than from the test process, and its own rusage is read
# with wait4 (RUSAGE_CHILDREN would be the largest of every child reaped).
RSS_PROBE = """\
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "orbmorse.cli", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0)
"""


def test_all_on_p23_at_the_dp_bound_stays_small(tmp_path):
    """`orbmorse all` on P(2, 3) up to p = 2^24: its max RSS stays below 64 MB,
    where the coin DP's table read 159 MB."""
    cfg = write(tmp_path, "c.yaml", "catalog: {id: wps, params: {weights: [2, 3]}}\n"
                                    "run: {p_list: [64, 16777216]}\n")
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE, "all", "--config", cfg,
                           "--out", str(tmp_path / "o")], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, peak_mb = proc.stdout.split()
    assert code == "0", proc.stderr
    assert float(peak_mb) < 64.0


@pytest.mark.parametrize("model", ["torus_halfturn", "wps23"])
def test_all_run_leaves_numpy_random_unimported(tmp_path, model):
    """The Kodaira ranks draw from the stdlib generator: a run costs no numpy.random import."""
    config = (str(DEMO_CONFIGS / "torus_halfturn.yaml") if model == "torus_halfturn"
              else write(tmp_path, "c.yaml", WPS_YAML.replace("[1, 2]", "[2, 3]")))
    argv = ["all", "--config", config, "--out", str(tmp_path / "o")]
    script = ("import sys\nfrom orbmorse import cli\n"
              f"code = cli.main({argv!r})\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def nan_density_model():
    """A one-chart custom model whose curvature density is NaN everywhere."""
    from orbmorse.geometry import (ChartedOrbifold, EquivariantLineBundle, OrbifoldChart,
                                   cyclic_group)

    chart = OrbifoldChart(dimension=1, group=cyclic_group(1, (1,)),
                          metric_scalar=lambda z: np.ones(np.shape(z)))
    orb = ChartedOrbifold(charts=(chart,), singular_locus_fn=lambda ci, Z: 10.0,
                          catalog_id="custom")
    bundle = EquivariantLineBundle(
        curvature_scalars=(lambda z: np.full(np.shape(z), np.nan),))
    return orb, bundle


def test_curvature_integral_fails_on_a_nan_density(tmp_path, monkeypatch):
    """A curvature density that returns NaN makes the integrals fail, not pass."""
    model = nan_density_model()
    monkeypatch.setattr(cli, "build_catalog_orbifold", lambda *args, **kwargs: model)
    cfg = RunConfig(catalog_id="custom", catalog_params={}, q_list=[0, 1],
                    resolution_quadrature=16)
    assert cli.run("curvature-integral", cfg, tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    validate_report(report)
    assert [(r["name"], r["passed"], r["data"]["value"]) for r in report["results"]] == [
        ("curvature-integral-q0", False, "nan"), ("curvature-integral-q1", False, "nan")]


def test_moishezon_verdict_fails_on_a_nan_density(tmp_path, monkeypatch):
    """A NaN witness makes moishezon-verdict fail instead of reading as a verdict."""
    model = nan_density_model()
    monkeypatch.setattr(cli, "build_catalog_orbifold", lambda *args, **kwargs: model)
    cfg = RunConfig(catalog_id="custom", catalog_params={}, resolution_quadrature=16)
    assert cli.run("moishezon-check", cfg, tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    validate_report(report)
    verdict = {r["name"]: r for r in report["results"]}["moishezon-verdict"]
    assert not verdict["passed"]
    assert verdict["data"]["integral_leq1"] == "nan"


def run_all(tmp_path, cfg):
    """``orbmorse all`` on a RunConfig: the exit code and the results by name."""
    code = cli.run("all", cfg, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    validate_report(report)
    return code, {r["name"]: r for r in report["results"]}


def test_every_stage_reads_the_configured_tolerance(tmp_path):
    """The strong-Morse, Moishezon and curvature-integral numbers come from one split."""
    cfg = RunConfig(catalog_id="wps", catalog_params={"weights": [1, 1]},
                    resolution_quadrature=128,
                    tolerances={**cli.DEFAULT_TOLERANCES, "tol_degeneracy": 1.5})
    code, results = run_all(tmp_path, cfg)
    q0 = results["curvature-integral-q0"]["data"]["value"]
    q1 = results["curvature-integral-q1"]["data"]["value"]
    assert results["strong-morse-q0"]["data"]["integral"] == q0
    assert results["moishezon-verdict"]["data"]["integral_leq1"] == q0 + q1
    # about 6% of the weight is degenerate at this tolerance, which the degree sees
    assert results["curvature-integral-q0"]["data"]["degenerate_fraction"] > 0.05
    assert code == 1
    assert [name for name, r in results.items() if not r["passed"]] == ["curvature-degree"]


def test_curvature_degree_fails_on_a_scaled_curvature(tmp_path, monkeypatch):
    """Curvature densities off by 1% miss the catalog degree, and only that check sees it."""
    from orbmorse.catalog import build_catalog_orbifold
    from orbmorse.geometry import EquivariantLineBundle

    def scaled(*args, **kwargs):
        orb, bundle = build_catalog_orbifold(*args, **kwargs)
        return orb, EquivariantLineBundle(curvature_scalars=tuple(
            (lambda z, f=f: 1.01 * f(z)) for f in bundle.curvature_scalars))

    monkeypatch.setattr(cli, "build_catalog_orbifold", scaled)
    code, results = run_all(tmp_path, load_config(write(tmp_path, "c.yaml", WPS_YAML)))
    assert code == 1
    assert [name for name, r in results.items() if not r["passed"]] == ["curvature-degree"]
    degree = results["curvature-degree"]["data"]
    assert degree["degree"] == 0.5
    assert degree["integral"] == pytest.approx(0.505, abs=1e-4)


def test_verify_morse_on_a_two_dimensional_model_is_one_skip(tmp_path):
    """The split refuses n = 2, so verify-morse is skipped whole, with its code."""
    text = TORUS_YAML.replace(TORUS_CATALOG, "  id: local-model\n  params:\n    k: 2\n"
                              "    a: [1.0, 2.0]\n").replace("q_list: [0, 1]", "q_list: [0]")
    cfg = write(tmp_path, "c.yaml", text)
    out = tmp_path / "out"
    assert main(["all", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    morse = [s for s in report["skipped"] if "morse" in s["name"]]
    assert [(s["name"], s["reason"]) for s in morse] == [("verify-morse",
                                                          "model-not-applicable")]
    assert "one-dimensional charts only" in morse[0]["message"]
    assert report["diagnostics"] == []


def test_strong_morse_fails_on_a_stalled_residual(tmp_path, monkeypatch):
    """Half the curvature integral, degree halved to match: rho_p stalls at 1/4, q = 0 fails."""
    build, split_of = cli.build_catalog_orbifold, cli.signature_integrals

    def halved_model(*args, **kwargs):
        orb, bundle = build(*args, **kwargs)
        return orb._replace(exact=orb.exact._replace(degree=orb.exact.degree / 2)), bundle

    def halved_split(*args, **kwargs):
        split = split_of(*args, **kwargs)
        return split._replace(by_signature=tuple(v / 2 for v in split.by_signature))

    monkeypatch.setattr(cli, "build_catalog_orbifold", halved_model)
    monkeypatch.setattr(cli, "signature_integrals", halved_split)
    cfg = load_config(str(DEMO_CONFIGS / "p12.yaml"))._replace(q_list=[0])
    assert cli.run("verify-morse", cfg, tmp_path) == 1
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert [r["name"] for r in results if not r["passed"]] == ["strong-morse-q0"]
    assert results[0]["data"]["residuals"][-1] == pytest.approx(0.25, abs=1e-3)


def test_all_on_the_dent_demo_runs_every_stage(tmp_path):
    """The dent changes only the metric: the table is the round P(1,1)'s, the
    strong inequality at q = 0 is strict, and O(1) is big by its degree."""
    code, results = run_all(tmp_path, load_config(str(DEMO_CONFIGS / "p11_dent.yaml")))
    assert code == 0
    assert sorted(results) == sorted([
        "cohomology-table", "curvature-integral-q0", "curvature-integral-q1",
        "strong-morse-q0", "strong-morse-q1", "curvature-degree", "moishezon-verdict",
        "bigness"])
    assert all(r["passed"] for r in results.values())
    assert results["moishezon-verdict"]["data"]["verdict"] == "Moishezon-by-(ii)"
    assert results["bigness"]["data"]["expected_big"] is True
    # rho_p at q = 0 tends to the negative integral over M(1), not to 0
    assert results["strong-morse-q0"]["data"]["residuals"][-1] < -0.2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["diagnostics"] == []


def test_strong_morse_fails_on_the_dent_with_half_its_positive_integral(tmp_path,
                                                                        monkeypatch):
    """The integral over M(0) halved: rho_p at q = 0 stalls near +0.393."""
    split_of = cli.signature_integrals

    def halved_positive(*args, **kwargs):
        split = split_of(*args, **kwargs)
        i0, *rest = split.by_signature
        return split._replace(by_signature=(0.5 * i0, *rest))

    monkeypatch.setattr(cli, "signature_integrals", halved_positive)
    code, results = run_all(tmp_path, load_config(str(DEMO_CONFIGS / "p11_dent.yaml")))
    assert code == 1
    assert not results["strong-morse-q0"]["passed"]
    assert results["strong-morse-q0"]["data"]["residuals"][-1] == pytest.approx(0.393,
                                                                                abs=1e-3)


@pytest.mark.parametrize("config", ["torus_halfturn.yaml", "p12.yaml", "p11_dent.yaml"])
def test_bigness_fails_when_the_derivative_row_repeats_the_values(tmp_path, monkeypatch,
                                                                   config):
    """Sections whose derivative row repeats their values: every Kodaira rank
    reads 0, and bigness alone fails."""
    from orbmorse import moishezon
    for name in ("_section_values_torus", "_section_values_wps"):
        monkeypatch.setattr(moishezon, name,
                            lambda *args, values=getattr(moishezon, name): values(*args)[[0, 0]])
    code, results = run_all(tmp_path, load_config(str(DEMO_CONFIGS / config)))
    assert code == 1
    assert [name for name, r in results.items() if not r["passed"]] == ["bigness"]
    ranks = results["bigness"]["data"]["kodaira_ranks"]
    assert ranks and set(ranks.values()) == {0}


def test_bigness_with_every_rank_left_out_judges_the_degree(tmp_path, monkeypatch):
    """P(2,3) has no section at p = 1: with p_list [1] no rank is read, and
    bigness judges big against its degree alone.  With a rank read at 64 and
    the derivative row repeating the values, the rank 0 still fails it."""
    text = "catalog: {id: wps, params: {weights: [2, 3]}}\nrun: {p_list: [1]}\n"
    for subcommand in ("moishezon-check", "all"):
        out = tmp_path / subcommand
        assert main([subcommand, "--config", write(tmp_path, "c.yaml", text), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        bigness = next(r for r in report["results"] if r["name"] == "bigness")["data"]
        assert bigness["kodaira_ranks"] == {} and list(bigness["left_out"]) == ["1"]
    from orbmorse import moishezon
    values = moishezon._section_values_wps
    monkeypatch.setattr(moishezon, "_section_values_wps", lambda *args: values(*args)[[0, 0]])
    code, results = run_all(tmp_path, load_config(write(tmp_path, "c.yaml", text.replace(
        "[1]", "[1, 64]"))))
    assert code == 1 and not results["bigness"]["passed"]
    assert results["bigness"]["data"]["kodaira_ranks"] == {"64": 0}


def test_bigness_takes_no_rank_from_fewer_sections_than_it_needs(tmp_path):
    """On P(3,5) h^0 reads 0, 1 and 1 at p = 4, 8, 16.  One section has rank 0
    whatever the model, so each power is left out with the code no-sections
    and its count, and bigness judges the degree alone: the run exits 0."""
    code, results = run_all(tmp_path, RunConfig(catalog_id="wps",
                                                catalog_params={"weights": [3, 5]}))
    assert code == 0
    bigness = results["bigness"]["data"]
    assert bigness["kodaira_ranks"] == {}
    left_out = {p: (s["reason"], s["message"].split(";")[0])
                for p, s in bigness["left_out"].items()}
    assert left_out == {
        "4": ("no-sections", "0 section(s) at power p=4"),
        "8": ("no-sections", "1 section(s) at power p=8"),
        "16": ("no-sections", "1 section(s) at power p=16")}


WPS_PAIRS = [(a, b) for a in range(1, 8) for b in range(a, 8) if math.gcd(a, b) == 1]


def test_all_passes_on_every_small_weighted_projective_line(tmp_path):
    """Every coprime P(a, b), a <= b <= 7, under the default p_list and under
    each four-power doubling list from 2^2 to 2^10: 180 runs, each exits 0
    with no diagnostic.  h^0 - p/(ab) is periodic in p with its sign
    wandering, so the strong Morse residual need not fall, and at small p one
    section has no rank."""
    lists = [RunConfig._field_defaults["p_list"]] + [
        [2 ** (s + i) for i in range(4)] for s in range(2, 11)]
    runs = {(a, b, tuple(p_list)): tmp_path / f"{a}-{b}-{p_list[0]}"
            for a, b in WPS_PAIRS for p_list in lists}
    codes = {key: cli.run("all", RunConfig(catalog_id="wps", catalog_params={"weights": [a, b]},
                                           p_list=list(p_list)), out)
             for key, out in runs.items() for a, b, p_list in [key]}
    assert len(codes) == 180
    assert [key for key, code in codes.items() if code] == []
    assert [key for key, out in runs.items()
            if json.loads((out / "report.json").read_text())["diagnostics"]] == []


def test_strong_morse_fails_above_2_over_p_at_an_early_power(tmp_path, monkeypatch):
    """A residual raised by 3/p at the first power alone: the positive part
    still falls and the last power keeps its value, but the bound at the first
    power fails both records."""
    series_of = cli.vf.verify_strong_morse

    def raised(*args):
        series = series_of(*args)
        first = series.residuals[0] + 3.0 / series.p_list[0]
        return series._replace(residuals=(first, *series.residuals[1:]))

    monkeypatch.setattr(cli.vf, "verify_strong_morse", raised)
    assert cli.run("verify-morse", load_config(str(DEMO_CONFIGS / "p12.yaml")), tmp_path) == 1
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    failed = [r for r in results if not r["passed"]]
    assert [r["name"] for r in failed] == ["strong-morse-q0", "strong-morse-q1"]
    for r in failed:
        positive = [max(float(x), 0.0) for x in r["data"]["residuals"]]
        assert positive == sorted(positive, reverse=True)
        assert positive[-1] <= 2.0 / r["data"]["p_list"][-1]


def run_torus_heat_trace(tmp_path):
    cfg = load_config(write(tmp_path, "c.yaml", TORUS_YAML))
    code = cli.run("heat-trace", cfg, tmp_path)
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    return code, [r["name"] for r in results if not r["passed"]]


def test_heat_trace_fails_on_a_wrong_kernel_dimension(tmp_path, monkeypatch):
    """An operator whose kernel count is off by one fails every heat-trace result."""
    assemble = cli.assemble_kodaira_laplacian

    class OffByOne:
        def __init__(self, op):
            self.op = op

        def __getattr__(self, name):
            return getattr(self.op, name)

        @property
        def zero_dim(self):
            return self.op.zero_dim + 1

    monkeypatch.setattr(cli, "assemble_kodaira_laplacian",
                        lambda *args, **kwargs: OffByOne(assemble(*args, **kwargs)))
    code, failed = run_torus_heat_trace(tmp_path)
    assert code == 1
    assert failed == [f"heat-trace-p{p}-q{q}" for p in (4, 8) for q in (0, 1)]


@pytest.mark.parametrize("fault", [
    lambda tail, u: tail + u,                       # grows with u
    lambda tail, u: -1e-3 if u == 1.0 else tail,    # negative at one u
    lambda tail, u: math.nan,
    lambda tail, u: math.inf,
], ids=["increasing-in-u", "negative-at-one-u", "nan", "inf"])
def test_heat_trace_fails_on_a_bad_tail(tmp_path, monkeypatch, fault):
    heat_trace = cli.heat_trace

    def faulty(op, u):
        kernel, tail = heat_trace(op, u)
        return kernel, fault(tail, u)

    monkeypatch.setattr(cli, "heat_trace", faulty)
    code, failed = run_torus_heat_trace(tmp_path)
    assert code == 1
    assert failed == [f"heat-trace-p{p}-q{q}" for p in (4, 8) for q in (0, 1)]


@pytest.mark.parametrize("bad", [-1, 2.0, True], ids=["negative", "float", "bool"])
def test_cohomology_table_fails_on_a_bad_entry(tmp_path, monkeypatch, bad):
    """Each entry must be a non-negative int; one bad entry fails the table."""
    from orbmorse.cohomology import CohomologyTable
    table = cli.cohomology_table

    def one_bad_entry(orb, p_list):
        entries = dict(table(orb, p_list).entries)
        entries[min(entries)] = bad
        return CohomologyTable(entries)

    monkeypatch.setattr(cli, "cohomology_table", one_bad_entry)
    cfg = load_config(write(tmp_path, "c.yaml", WPS_YAML))
    assert cli.run("cohomology", cfg, tmp_path) == 1
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert [(r["name"], r["passed"]) for r in results] == [("cohomology-table", False)]


def test_all_on_the_torus_demo_runs_the_trace_identity(tmp_path):
    cfg = load_config(str(DEMO_CONFIGS / "torus_halfturn.yaml"))
    code, results = run_all(tmp_path, cfg)
    assert code == 0
    identity = {name: r for name, r in results.items() if name.startswith("trace-identity")}
    assert sorted(identity) == [f"trace-identity-p{p}-q{q}" for p in (16, 4, 8) for q in (0, 1)]
    assert all(r["passed"] and sorted(r["data"]["gaps"]) == ["0.5", "1.0", "5.0"]
               for r in identity.values())


def test_trace_identity_fails_on_a_wrong_multiplicity(tmp_path, monkeypatch):
    """One Landau level with one invariant state too many: the spectral trace
    no longer matches the image integral, in the library and in the CLI."""
    from orbmorse import spectral, verify
    from orbmorse.catalog import build_catalog_orbifold
    multiplicity = spectral._level_multiplicity
    monkeypatch.setattr(spectral, "_level_multiplicity",
                        lambda D, k, level, q: multiplicity(D, k, level, q) + (level == 1))
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    assert verify.trace_equals_diagonal_integral(orb, bundle, 1.0, 8) > 1e-9
    code, results = run_all(tmp_path, load_config(str(DEMO_CONFIGS / "torus_halfturn.yaml")))
    assert code == 1
    identity = [r for name, r in results.items() if name.startswith("trace-identity")]
    assert len(identity) == 6 and not any(r["passed"] for r in identity)


def test_heat_trace_fails_on_a_wrong_kernel_multiplicity(tmp_path, monkeypatch):
    """One state too many in degree-0 level 0, the kernel.  The heat-trace
    gate reads the kernel dimension from the bundle degree, not from the
    Landau multiplicities, so heat-trace-p*-q0 fails; when it read them, every
    heat-trace result passed and only the trace identity at q = 0 failed."""
    from orbmorse import spectral
    multiplicity = spectral._level_multiplicity
    monkeypatch.setattr(spectral, "_level_multiplicity", lambda D, k, level, q:
                        multiplicity(D, k, level, q) + (q == 0 and level == 0))
    code, results = run_all(tmp_path, load_config(str(DEMO_CONFIGS / "torus_halfturn.yaml")))
    assert code == 1
    failed = sorted(name for name, r in results.items() if not r["passed"])
    assert failed == sorted(f"{check}-p{p}-q0" for check in ("heat-trace", "trace-identity")
                            for p in (4, 8, 16))


@pytest.mark.parametrize("catalog,u_list,left_out,reason", [
    ("{d: 1, k: 2}", "[0.1, 1.0]", "0.1", "too small for 32 Landau levels"),
    ("{d: 3, k: 2}", "[1.0, 64.0]", "64.0", "degree-1 heat trace at u=64.0 falls below"),
], ids=["levels", "float-range"])
def test_trace_identity_leaves_out_an_unresolved_time(tmp_path, catalog, u_list,
                                                      left_out, reason):
    """A time the kept levels (or the float range) cannot resolve is left out
    of each record it would join, with its code; the run still exits 0."""
    cfg = write(tmp_path, "c.yaml", f"""\
catalog: {{id: torus, params: {catalog}}}
run: {{p_list: [4, 8], u_list: {u_list}, resolution_spectral: 32}}
""")
    out = tmp_path / "o"
    assert main(["all", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["diagnostics"] == []
    assert [s["name"] for s in report["skipped"]] == ["kernel-asymptotics"]
    identity = [r for r in report["results"] if r["name"].startswith("trace-identity")]
    assert len(identity) == 4 and all(r["passed"] for r in identity)
    assert all(list(r["data"]["gaps"]) == ["1.0"] for r in identity[1::2])
    for r in identity[1::2]:
        assert list(r["data"]["left_out"]) == [left_out]
        entry = r["data"]["left_out"][left_out]
        assert entry["reason"] == "time-unresolved" and reason in entry["message"]


# a run that emits each skip code: (subcommand, config)
REASON_RUNS = {
    "model-not-applicable": ("all", "catalog: {id: local-model, params: {k: 2, a: [1.0]}}\n"),
    "no-sections": ("moishezon-check",
                    "catalog: {id: wps, params: {weights: [2, 3]}}\nrun: {p_list: [1, 64]}\n"),
    "time-unresolved": ("verify-morse", "catalog: {id: torus, params: {d: 1, k: 2}}\n"
                                        "run: {p_list: [4], u_list: [0.1, 1.0]}\n"),
    "too-few-powers": ("kernel-asymptotics",
                       "catalog: {id: local-model, params: {k: 2, a: [1.0]}}\n"
                       "run: {p_list: [64], u_list: [1.0]}\n"),
    "twist-below-rounding": ("kernel-asymptotics",
                             "catalog: {id: local-model, params: {k: 2, a: [40.0]}}\n"
                             "run: {p_list: [4, 8], u_list: [0.5]}\n"),
}


def skip_codes(report):
    """Each reason code of a report: its skipped checks' and its records' left-out parts'."""
    return ({s["reason"] for s in report["skipped"]}
            | {entry["reason"] for r in report["results"]
               for entry in r["data"].get("left_out", {}).values()})


def test_every_reason_code_has_a_run_that_emits_it():
    assert sorted(REASON_RUNS) == sorted(REASONS)


@pytest.mark.parametrize("code", sorted(REASON_RUNS))
def test_a_skip_carries_its_code_and_never_reads_as_a_pass(tmp_path, code):
    subcommand, text = REASON_RUNS[code]
    out = tmp_path / "o"
    assert main([subcommand, "--config", write(tmp_path, "c.yaml", text), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert skip_codes(report) == {code}
    assert not {r["name"] for r in report["results"]} & {s["name"] for s in report["skipped"]}
    assert not any(d["level"] == "info" for d in report["diagnostics"])


def test_a_trace_identity_with_every_time_left_out_is_skipped(tmp_path):
    """At u_list [0.1] no time is resolved: each trace identity is a skipped
    check with the cause of its one time, not a record whose empty gaps pass."""
    cfg = write(tmp_path, "c.yaml", "catalog: {id: torus, params: {d: 1, k: 2}}\n"
                                    "run: {p_list: [4], u_list: [0.1]}\n")
    out = tmp_path / "o"
    assert main(["verify-morse", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert not any(r["name"].startswith("trace-identity") for r in report["results"])
    assert [(s["name"], s["reason"]) for s in report["skipped"]] == [
        ("trace-identity-p4-q0", "time-unresolved"), ("trace-identity-p4-q1", "time-unresolved")]
    assert all(s["message"].startswith("kernel time u=0.1 is too small")
               for s in report["skipped"])


NO_TRACE = ("catalog id 'local-model' has no spectral discretization or deck "
            "transformations; weighted projective models use the exact cohomology "
            "tables and local models the closed-form kernels instead")


@pytest.mark.parametrize("subcommand,catalog,message", [
    ("verify-morse", "{id: local-model, params: {k: 2, a: [1.0]}}", "; ".join([
        NO_TRACE, "no exact cohomology is available for catalog id 'local-model'",
        "the curvature degree needs a compact catalog entry with an exact degree"])),
    ("heat-trace", "{id: wps, params: {weights: [2, 3]}}",
     "heat traces require the flat torus catalog entry")], ids=["verify-morse", "heat-trace"])
def test_a_run_that_judges_no_check_exits_2_with_one_line(tmp_path, capsys, subcommand,
                                                         catalog, message):
    """Exit 0 says every applicable check ran and passed, so a run with no
    result is refused: one line, each skip's message once, and no output."""
    out = tmp_path / "o"
    assert main([subcommand, "--config", write(tmp_path, "c.yaml", f"catalog: {catalog}\n"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("config", [*sorted(p.stem for p in DEMO_CONFIGS.glob("*.yaml")),
                                    "torus-d0"])
def test_all_judges_a_check_on_every_demo_and_on_a_degree_zero_torus(tmp_path, config):
    if config == "torus-d0":
        path = write(tmp_path, "c.yaml", "catalog: {id: torus, params: {d: 0, k: 2}}\n")
    else:
        path = str(DEMO_CONFIGS / f"{config}.yaml")
    out = tmp_path / "o"
    assert main(["all", "--config", path, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["results"]


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """`orbmorse all` on the P(1,2) demo at 1 and 2 OpenBLAS threads: the same report."""
    config = str(DEMO_CONFIGS / "p12.yaml")
    src = str(Path(orbmorse.__file__).parents[1])
    children = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"blas{threads}"
        children.append((out, subprocess.Popen(
            [sys.executable, "-m", "orbmorse.cli", "all", "--config", config,
             "--out", str(out)], env=env)))
    for out, child in children:
        assert child.wait(timeout=120) == 0
    a, b = (strip_timestamp((out / "report.json").read_text()) for out, _ in children)
    assert a == b


@pytest.mark.parametrize("config", [WPS_YAML, TORUS_YAML], ids=["wps", "torus"])
def test_cohomology_table_fails_off_the_degree(tmp_path, monkeypatch, config):
    """h0(p)/p must lie within 2/p of the degree at the largest p."""
    from orbmorse.cohomology import CohomologyTable
    table = cli.cohomology_table

    def shifted(orb, p_list):
        entries = dict(table(orb, p_list).entries)
        entries[(p_list[-1], 0)] += p_list[-1] // 4
        return CohomologyTable(entries)

    cfg = load_config(write(tmp_path, "c.yaml", config))
    assert cli.run("cohomology", cfg, tmp_path / "exact") == 0
    monkeypatch.setattr(cli, "cohomology_table", shifted)
    assert cli.run("cohomology", cfg, tmp_path / "shifted") == 1
    results = json.loads((tmp_path / "shifted" / "report.json").read_text())["results"]
    assert [(r["name"], r["passed"]) for r in results] == [("cohomology-table", False)]


@pytest.mark.parametrize("a,u", [("1.0e+4", "1.0e+305"), ("-1.0e+4", "1.0e+305"),
                                 ("1.0", "5.0e-324")],
                         ids=["product-overflow", "negative-product-overflow", "time-underflow"])
def test_kernel_out_of_float_range_exits_2(tmp_path, capsys, a, u):
    """A kernel time whose arithmetic overflows is refused in one line, not a
    traceback: a curvature times time beyond the float range, and a time u/p
    that underflows to 0.  The Mehler prefactor is in log form, so a = 10^4 at
    u = 0.5, whose sinh overflowed, now runs."""
    text = (TORUS_YAML.replace(TORUS_CATALOG, LOCAL_CATALOG.replace("[1.0]", f"[{a}]"))
            .replace("u_list: [0.5, 1.0]", f"u_list: [{u}]").replace("[0, 1]", "[0]"))
    cfg = write(tmp_path, "c.yaml", text)
    assert main(["kernel-asymptotics", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "floating-point range" in err


def test_negative_seed_exits_2(tmp_path, capsys):
    """numpy refuses a negative seed; the config and the --seed flag are both checked."""
    bad = write(tmp_path, "bad.yaml", TORUS_YAML.replace("seed: 7", "seed: -1"))
    assert main(["moishezon-check", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    good = write(tmp_path, "good.yaml", TORUS_YAML)
    assert main(["moishezon-check", "--config", good, "--out", str(tmp_path / "o"),
                 "--seed", "-3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2 and all("seed must be >= 0, got -" in line for line in err)


# ---------------------------------------------------------------------------
# config fuzz: any mapping ends in exit 0, 1 or 2, never in a traceback

FUZZ_BASES = {
    "torus": {"id": "torus", "params": {"d": 1, "k": 2}},
    "wps": {"id": "wps", "params": {"weights": [1, 2]}},
    "local-model": {"id": "local-model", "params": {"k": 2, "a": [1.0]}},
}
# each path with values near the valid range, so that many examples run
FUZZ_PATHS = {
    ("catalog",): st.sampled_from(sorted(FUZZ_BASES)).map(
        lambda name: json.loads(json.dumps(FUZZ_BASES[name]))),
    ("catalog", "id"): st.sampled_from(sorted(FUZZ_BASES)),
    ("catalog", "params"): st.builds(dict),
    ("run",): st.builds(dict),
    ("run", "p_list"): st.lists(st.integers(1, 64), min_size=1, max_size=3,
                                unique=True).map(sorted),
    ("run", "u_list"): st.lists(st.floats(0.0, 64.0), min_size=1, max_size=3,
                                unique=True),
    ("run", "q_list"): st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True),
    ("run", "resolution_quadrature"): st.integers(1, 64),
    ("run", "resolution_spectral"): st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    ("tolerances",): st.builds(dict),
    ("tolerances", "tol_chain"): st.floats(0.0, 10.0),
    ("tolerances", "tol_degeneracy"): st.floats(0.0, 10.0),
    ("tolerances", "tol_quadrature"): st.floats(0.0, 10.0),
    ("seed",): st.integers(-4, 2 ** 64),
    ("output", "report_name"): st.sampled_from(["r.json", "report.json", "a b.json"]),
}
# the parameters of each catalog model, likewise
FUZZ_PARAMS = {
    "torus": {"d": st.integers(-2, 3), "k": st.integers(1, 3)},
    "wps": {"weights": st.lists(st.integers(1, 6), min_size=1, max_size=3),
            "dent": st.fixed_dictionaries({}, optional={
                "amplitude": st.floats(-2.0, 2.0), "width": st.floats(0.0, 1.0),
                "center": st.floats(-2.0, 2.0)})},
    "local-model": {"k": st.integers(1, 4),
                    "a": st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=3),
                    "weights": st.lists(st.integers(0, 6), min_size=1, max_size=3),
                    "character": st.integers(-2 ** 64, 2 ** 64)},
}
# small values only: no p or resolution above 64, so no example needs more
# than a few MB, and nothing here asks for threads or processes
FUZZ_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 64), st.floats(-4.0, 64.0),
    st.sampled_from([math.nan, math.inf, -math.inf, "", "abc", "report.json"]))
FUZZ_VALUES = st.one_of(
    FUZZ_SCALARS, st.builds(list), st.builds(dict), st.lists(FUZZ_SCALARS, max_size=4),
    st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True).map(sorted),
    st.lists(st.floats(0.01, 64.0), min_size=1, max_size=3, unique=True),
    st.dictionaries(st.sampled_from(["amplitude", "width", "center", "x"]),
                    FUZZ_SCALARS, max_size=2))


def fuzz_config(data):
    catalog = data.draw(st.sampled_from(sorted(FUZZ_BASES)))
    raw = {"catalog": json.loads(json.dumps(FUZZ_BASES[catalog])),
           "run": {"p_list": [4, 8], "u_list": [0.5, 1.0], "q_list": [0, 1],
                   "resolution_quadrature": 32, "resolution_spectral": 16},
           "tolerances": {}, "seed": 3, "output": {}}
    paths = {**FUZZ_PATHS, **{("catalog", "params", key): values
                              for key, values in FUZZ_PARAMS[catalog].items()}}
    for path in data.draw(st.lists(st.sampled_from(sorted(paths)), min_size=1,
                                   max_size=3)):
        target = raw
        for key in path[:-1]:
            target = target.get(key) if isinstance(target, dict) else None
        if isinstance(target, dict):
            # one value in four from the general pool, the rest near the valid range
            pool = FUZZ_VALUES if data.draw(st.integers(0, 3)) == 0 else paths[path]
            target[path[-1]] = data.draw(pool)
    return raw


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_config_exits_0_1_or_2(data):
    raw = fuzz_config(data)
    subcommand = data.draw(st.sampled_from(cli.SUBCOMMANDS))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.yaml"
        path.write_text(yaml.safe_dump(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1
