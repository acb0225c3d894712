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


@pytest.mark.parametrize("k,unjudged", [(2, True), (1, False)])
def test_kernel_asymptotics_judges_no_rate_from_one_power(tmp_path, k, unjudged):
    """One power leaves a fit of one point, whose -inf slope is no rate: the
    slope is left out with one info line.  On C/Z_1 every error is exactly
    zero, and its -inf is judged."""
    text = (DEMO_CONFIGS / "local_z2.yaml").read_text()
    text = text.replace("k: 2", f"k: {k}").replace(
        "[64, 128, 256, 512, 1024, 2048, 4096]", "[64]")
    out = tmp_path / "o"
    assert main(["kernel-asymptotics", "--config", write(tmp_path, "c.yaml", text),
                 "--out", str(out), "--strict"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["data"]["regular_fit"]["p_window"] for r in report["results"]] == (
        [[64]] * 3 if unjudged else [[]] * 3)
    assert all(r["passed"] for r in report["results"])
    assert report["diagnostics"] == ([{
        "level": "info", "message": "regular-point rate at u=0.5, 1.0, 5.0 not judged: "
                                    "one power has a non-zero error, and a fit needs two"}]
        if unjudged else [])


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


def test_strict_escalates_warnings(tmp_path):
    """Three powers of P(1,2) fit the residual badly (R^2 = 0.611): a warning,
    which only --strict turns into exit 1."""
    cfg = write(tmp_path, "c.yaml", WPS_YAML.replace("[16, 32, 64]", "[1, 2, 3]"))
    out = tmp_path / "strict"
    assert main(["verify-morse", "--config", cfg, "--out", str(out)]) == 0
    warnings = [d["message"] for d in json.loads((out / "report.json").read_text())[
        "diagnostics"] if d["level"] == "warning"]
    assert warnings == [f"convergence fit at q={q} marked unreliable (R^2=0.611)"
                        for q in (0, 1)]
    assert main(["verify-morse", "--config", cfg, "--out", str(out), "--strict"]) == 1


def test_one_power_strong_morse_series_has_no_fit(tmp_path):
    """A fit over one power is no fit: an info line, not an unreliable warning."""
    text = (DEMO_CONFIGS / "p12.yaml").read_text().replace("[64, 256, 1024, 4096]", "[4096]")
    out = tmp_path / "o"
    assert main(["verify-morse", "--config", write(tmp_path, "c.yaml", text),
                 "--out", str(out), "--strict"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(r["passed"] for r in report["results"])
    assert report["diagnostics"] == [
        {"level": "info", "message": f"no convergence fit at q={q}: "
                                     "a fit needs at least two powers"} for q in (0, 1)]


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


@pytest.mark.parametrize("subcommand", ["cohomology", "all"])
def test_lattice_dp_beyond_its_bound_exits_2_with_one_line(tmp_path, subcommand):
    """At p = 2^28 on P(2, 3) the coin DP would ask for 2 GiB: it is refused
    before it allocates, not ended by a MemoryError under a 1.5 GB cap."""
    cfg = write(tmp_path, "c.yaml", "catalog: {id: wps, params: {weights: [2, 3]}}\n"
                                    "run: {p_list: [268435456]}\n")
    proc = run_capped(tmp_path, subcommand, cfg)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1 and "coin DP" in proc.stderr


@pytest.mark.parametrize("catalog", ["{id: torus, params: {d: 1, k: 2}}",
                                     "{id: wps, params: {weights: [2, 3]}}"],
                         ids=["torus", "wps"])
def test_power_beyond_int64_exits_2_with_one_line(tmp_path, capsys, catalog):
    cfg = write(tmp_path, "c.yaml",
                f"catalog: {catalog}\nrun: {{p_list: [4, 100000000000000000000]}}\n")
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "configuration error" in err


def test_torus_rank_beyond_the_stencil_is_skipped_with_its_cause(tmp_path, capsys):
    """At p = 2^40 the sections are narrower than the Kodaira stencil: the rank
    is skipped with that cause and bigness reads the ranks below it.  Every
    check passes: the trace chain pairs integer multiplicities, so r_1 is
    exactly 0 where heat traces of 4.2e6 and 5.5e11 states rounded it to
    1.25e-9 (p = 2^23) and 1.1e-5 (p = 2^40)."""
    cfg = write(tmp_path, "c.yaml", "catalog: {id: torus, params: {d: 1, k: 2}}\n"
                                    "run: {p_list: [64, 8388608, 1099511627776]}\n")
    code = main(["all", "--config", cfg, "--out", str(tmp_path / "o")])
    assert "floating-point range" not in capsys.readouterr().err
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    notes = [d["message"] for d in report["diagnostics"] if d["level"] == "info"]
    assert any(n.startswith("rank at p=1099511627776 skipped") and "stencil step" in n
               for n in notes)
    bigness = next(r for r in report["results"] if r["name"] == "bigness")
    assert bigness["data"]["kodaira_ranks"] == {"64": 1, "8388608": 1}
    assert code == 0 and all(r["passed"] for r in report["results"])
    chains = [r for r in report["results"] if r["name"].startswith("trace-chain")]
    assert len(chains) == 12 and all(r["data"]["residuals"][1] == 0.0 for r in chains)


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


def test_torus_power_beyond_float_counts_exits_2_with_its_cause(tmp_path, capsys):
    """At p = 10^20 a Landau level holds 5e19 states, more than a float counts
    exactly: the heat trace refuses it in one line that names p and the cause."""
    cfg = write(tmp_path, "c.yaml", "catalog: {id: torus, params: {d: 1, k: 2}}\n"
                                    "run: {p_list: [64, 100000000000000000000]}\n")
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "floating-point range" not in err[0]
    assert "p=100000000000000000000" in err[0] and "2^53" in err[0]


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
    built by one coin DP over p_list and the bigness powers."""
    from orbmorse import cohomology
    path = (str(DEMO_CONFIGS / "p12.yaml") if config == "p12"
            else load_bench_config(tmp_path, config))
    lattice_counts = cohomology._lattice_counts
    tops = []

    def counting(ws, top):
        tops.append(top)
        return lattice_counts(ws, top)

    monkeypatch.setattr(cohomology, "_lattice_counts", counting)
    assert main(["all", "--config", path, "--out", str(tmp_path / "o")]) == 0
    p_list = load_config(path).p_list
    assert tops == [max(4096, p_list[-1])]


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
    assert not any(d["level"] == "warning" for d in report["diagnostics"])


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


@pytest.mark.parametrize("catalog,u_list,left_out,reason", [
    ("{d: 1, k: 2}", "[0.1, 1.0]", "0.1", "too small for 32 Landau levels"),
    ("{d: 3, k: 2}", "[1.0, 64.0]", "64.0", "degree-1 heat trace at u=64.0 falls below"),
], ids=["levels", "float-range"])
def test_trace_identity_leaves_out_an_unresolved_time(tmp_path, catalog, u_list,
                                                      left_out, reason):
    """A time the kept levels (or the float range) cannot resolve is left out
    with one info line; the run still exits 0."""
    cfg = write(tmp_path, "c.yaml", f"""\
catalog: {{id: torus, params: {catalog}}}
run: {{p_list: [4, 8], u_list: {u_list}, resolution_spectral: 32}}
""")
    out = tmp_path / "o"
    assert main(["all", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    notes = [d for d in report["diagnostics"] if "trace identity" in d["message"]]
    assert len(notes) == 1 and notes[0]["level"] == "info"
    assert f"u={left_out} left out" in notes[0]["message"] and reason in notes[0]["message"]
    identity = [r for r in report["results"] if r["name"].startswith("trace-identity")]
    assert len(identity) == 4 and all(r["passed"] for r in identity)
    assert all(list(r["data"]["gaps"]) == ["1.0"] for r in identity[1::2])


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
