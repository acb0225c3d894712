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

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import orbmorse
from orbmorse import cli
from orbmorse.cli import RunConfig, load_config, main
from orbmorse.errors import ConfigurationError
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


def test_moishezon_subcommand_guard(tmp_path):
    cfg = write(tmp_path, "c.yaml", WPS_YAML)
    out = tmp_path / "mz"
    assert main(["moishezon-check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    verdicts = {r["name"]: r for r in report["results"]}
    assert verdicts["moishezon-verdict"]["data"]["verdict"] == "Moishezon-by-(i)"
    assert verdicts["bigness"]["passed"]


def test_strict_escalates_warnings(tmp_path):
    dent_yaml = WPS_YAML.replace("weights: [1, 2]",
                                 "weights: [1, 1]\n    dent:\n      amplitude: 1.2")
    cfg = write(tmp_path, "c.yaml", dent_yaml)
    out = tmp_path / "strict"
    assert main(["verify-morse", "--config", cfg, "--out", str(out)]) == 0
    assert main(["verify-morse", "--config", cfg, "--out", str(out), "--strict"]) == 1


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
    # the torus model cannot run the local-model kernel asymptotics; it is
    # skipped with an informational diagnostic rather than failing the run
    assert any("kernel-asymptotics skipped" in d["message"]
               for d in report["diagnostics"])


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
    (TORUS_CATALOG, LOCAL_CATALOG + "    theta: abc\n", "parameter theta"),
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
], ids=["unknown-parameter", "quadrature-resolution-0", "spectral-resolution-0",
        "p-zero", "p-negative", "q-negative", "u-list-empty", "q-list-empty",
        "q-above-dimension", "aux-rank", "run-key-typo", "run-extra-key",
        "tolerance-key-typo", "root-key-typo", "run-not-mapping",
        "output-not-mapping", "root-not-mapping", "parameter-name-not-string",
        "dent-not-mapping", "theta-string", "a-string", "dent-amplitude-string",
        "k-bool", "wps-weight-real", "local-weight-real", "d-bool", "dent-key-typo",
        "dent-width-zero", "dent-width-negative", "p-list-string", "p-real", "p-bool",
        "u-nan", "q-real", "tolerance-string", "quadrature-resolution-real",
        "spectral-resolution-bool", "seed-real", "u-list-repeated", "q-list-repeated",
        "report-name-in-subdirectory", "report-name-empty", "report-name-csv",
        "report-name-integer"])
def test_invalid_config_exits_2(tmp_path, capsys, old, new, named):
    bad = write(tmp_path, "bad.yaml", TORUS_YAML.replace(old, new))
    assert main(["all", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "configuration error" in err
    assert named in err


@pytest.mark.parametrize("d", [0, -1])
def test_all_on_nonpositive_degree_torus_skips_spectra(tmp_path, d):
    """d <= 0 tori have no Landau levels: heat-trace is skipped, the rest runs."""
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
    assert any(d["level"] == "info" and "heat-trace skipped" in d["message"]
               for d in report["diagnostics"])


def test_unknown_catalog_parameter_is_a_configuration_error():
    from orbmorse.catalog import build_catalog_orbifold
    with pytest.raises(ConfigurationError, match="dd"):
        build_catalog_orbifold("torus", dd=1)


def test_all_exits_2_when_an_applicable_stage_cannot_run(tmp_path, capsys):
    """A stage that applies to the model but rejects the config is not skipped."""
    text = TORUS_YAML.replace("resolution_spectral: 16", "resolution_spectral: 24")
    cfg = write(tmp_path, "c.yaml", text)
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "power of two" in err


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
    """The split refuses n = 2, so verify-morse is skipped whole with one info line."""
    text = TORUS_YAML.replace(TORUS_CATALOG, "  id: local-model\n  params:\n    k: 2\n"
                              "    a: [1.0, 2.0]\n").replace("q_list: [0, 1]", "q_list: [0]")
    cfg = write(tmp_path, "c.yaml", text)
    out = tmp_path / "out"
    assert main(["all", "--config", cfg, "--out", str(out), "--strict"]) == 0
    report = json.loads((out / "report.json").read_text())
    messages = [(d["level"], d["message"]) for d in report["diagnostics"]]
    morse = [(level, m) for level, m in messages if "Morse" in m or "verify-morse" in m]
    assert len(morse) == 1 and morse[0][0] == "info"
    assert morse[0][1].startswith("verify-morse skipped for this model")
    assert not any(level == "warning" for level, _ in messages)


def test_strong_morse_fails_on_a_stalled_residual(tmp_path, monkeypatch):
    """Half the curvature integral, degree halved to match: rho_p stalls at 1/4, q = 0 fails."""
    build, split_of = cli.build_catalog_orbifold, cli.signature_integrals

    def halved_model(*args, **kwargs):
        orb, bundle = build(*args, **kwargs)
        orb.params["degree"] /= 2
        return orb, bundle

    def halved_split(*args, **kwargs):
        split = split_of(*args, **kwargs)
        return split._replace(by_signature=tuple(v / 2 for v in split.by_signature))

    monkeypatch.setattr(cli, "build_catalog_orbifold", halved_model)
    monkeypatch.setattr(cli, "signature_integrals", halved_split)
    cfg = load_config(str(DEMO_CONFIGS / "p12.yaml"))
    cfg.q_list = [0]
    assert cli.run("verify-morse", cfg, tmp_path) == 1
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert [r["name"] for r in results if not r["passed"]] == ["strong-morse-q0"]
    assert results[0]["data"]["residuals"][-1] == pytest.approx(0.25, abs=1e-3)


def run_torus_heat_trace(tmp_path):
    cfg = load_config(write(tmp_path, "c.yaml", TORUS_YAML))
    code = cli.run("heat-trace", cfg, tmp_path)
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    return code, [r["name"] for r in results if not r["passed"]]


def test_heat_trace_fails_on_a_wrong_kernel_dimension(tmp_path, monkeypatch):
    """A table whose kernel count is off by one fails every heat-trace result."""
    from dataclasses import replace
    assemble = cli.assemble_kodaira_laplacian

    class OffByOne:
        def __init__(self, op):
            self.op = op

        def spectral_table(self):
            table = self.op.spectral_table()
            return replace(table, zero_dim=table.zero_dim + 1)

    monkeypatch.setattr(cli, "assemble_kodaira_laplacian",
                        lambda *args, **kwargs: OffByOne(assemble(*args, **kwargs)))
    code, failed = run_torus_heat_trace(tmp_path)
    assert code == 1
    assert failed == [f"heat-trace-p{p}-q{q}" for p in (4, 8) for q in (0, 1)]


@pytest.mark.parametrize("fault", [
    lambda trace, u: trace + u,            # grows with u
    lambda trace, u: trace - 1e3,          # below the kernel dimension
    lambda trace, u: math.nan,
    lambda trace, u: math.inf,
], ids=["increasing-in-u", "below-kernel", "nan", "inf"])
def test_heat_trace_fails_on_a_bad_trace(tmp_path, monkeypatch, fault):
    heat_trace = cli.heat_trace
    monkeypatch.setattr(cli, "heat_trace", lambda table, u: fault(heat_trace(table, u), u))
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


@pytest.mark.parametrize("a,u", [("1.0e+4", "0.5"), ("1.0", "5.0e-324")],
                         ids=["sinh-overflow", "time-underflow"])
def test_kernel_out_of_float_range_exits_2(tmp_path, capsys, a, u):
    """A kernel time whose arithmetic overflows is refused in one line, not a traceback."""
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
    assert len(err) == 2 and all("seed must be non-negative" in line for line in err)


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
                    "theta": st.floats(-7.0, 7.0)},
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
