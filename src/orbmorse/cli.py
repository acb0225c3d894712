"""Command-line front end: config ingestion, dispatch, report emission.

Subcommands: cohomology, curvature-integral, heat-trace, verify-morse,
kernel-asymptotics, moishezon-check, all.  Exit codes: 0 when every check
passes, 1 when an inequality or regression guard fails beyond tolerance,
2 on configuration errors (one-line diagnostic per failure on stderr).
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
import yaml

from . import moishezon as mz
from . import report as rpt
from . import verify as vf
from .catalog import _integer, _list_of, _real, build_catalog_orbifold
from .cohomology import cohomology_table
from .curvature import signature_integrals
from .errors import (ConfigurationError, OrbmorseError, UnresolvedTimeError,
                     UnsupportedModelError)
from .spectral import assemble_kodaira_laplacian, heat_trace, torus_kernel_dimension

SUBCOMMANDS = ("cohomology", "curvature-integral", "heat-trace", "verify-morse",
               "kernel-asymptotics", "moishezon-check", "all")

DEFAULT_TOLERANCES = {
    "tol_degeneracy": 1e-8,
    "tol_quadrature": 1e-3,
    "tol_chain": 1e-9,
}


def _integers(name, value):
    return list(_list_of(name, value, _integer))


def _reals(name, value):
    return list(_list_of(name, value, _real))


# how each run value is typed; a key left out keeps the RunConfig default
RUN_VALUES = {"p_list": _integers, "u_list": _reals, "q_list": _integers,
              "resolution_quadrature": _integer, "resolution_spectral": _integer}

# the keys each config section accepts; any other key is an error, so a typo
# never runs silently at the default
CONFIG_KEYS = {
    None: ("catalog", "run", "tolerances", "seed", "output"),
    "catalog": ("id", "params"),
    "run": tuple(RUN_VALUES),
    "tolerances": tuple(DEFAULT_TOLERANCES),
    "output": ("report_name",),
}


def _check_keys(raw):
    """Every present section is a mapping holding only its accepted keys."""
    for name, accepted in CONFIG_KEYS.items():
        section = raw if name is None else raw.get(name, {})
        where = "config root" if name is None else f"config section {name}"
        if not isinstance(section, dict):
            raise ConfigurationError(f"{where} must be a mapping")
        unknown = sorted(str(key) for key in section if key not in accepted)
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) {', '.join(unknown)} in {where}; "
                f"accepted: {', '.join(accepted)}")


class RunConfig(NamedTuple):
    """Validated run configuration."""

    catalog_id: str
    catalog_params: dict
    p_list: list = (4, 8, 16)
    # the default probes both the kernel regime and the large-u Morse regime
    u_list: list = (0.5, 1.0, 5.0, 50.0)
    q_list: list = (0, 1)
    resolution_quadrature: int = 256
    resolution_spectral: int = 32
    tolerances: dict = MappingProxyType(DEFAULT_TOLERANCES)
    seed: int = 0
    report_name: str = "report.json"

    @classmethod
    def from_mapping(cls, raw):
        _check_keys(raw)
        try:
            catalog = raw["catalog"]
            catalog_id = str(catalog["id"])
            catalog_params = dict(catalog.get("params", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed configuration: {exc}")
        # values are typed, not coerced; an absent key takes its field default, typed
        run = raw.get("run", {})
        values = {key: typed(f"run.{key}", run.get(key, cls._field_defaults[key]))
                  for key, typed in RUN_VALUES.items()}
        if "seed" in raw:
            values["seed"] = _integer("seed", raw["seed"])
        output = raw.get("output", {})
        if "report_name" in output:
            values["report_name"] = output["report_name"]
        tolerances = {name: _real(f"tolerances.{name}", value)
                      for name, value in raw.get("tolerances", {}).items()}
        cfg = cls(catalog_id=catalog_id, catalog_params=catalog_params,
                  tolerances={**DEFAULT_TOLERANCES, **tolerances}, **values)
        # the builders take the parameters as keyword arguments
        for key in cfg.catalog_params:
            if not isinstance(key, str):
                raise ConfigurationError(f"catalog parameter name {key!r} is not a string")
        cfg.validate()
        return cfg

    def validate(self):
        if any(b <= a for a, b in zip(self.p_list, self.p_list[1:])) or not self.p_list:
            raise ConfigurationError("p_list must be non-empty and strictly increasing")
        if self.p_list[0] < 1:
            raise ConfigurationError("p_list entries must be at least 1")
        # an empty u_list would drop the exact trace chain without a word, and
        # a repeated entry would run a check twice under one result name
        if (not self.u_list or any(u <= 0 for u in self.u_list)
                or len(set(self.u_list)) < len(self.u_list)):
            raise ConfigurationError(
                "u_list must be non-empty with distinct positive entries")
        # an empty q_list would drop the Morse series without a word
        if (not self.q_list or any(q < 0 for q in self.q_list)
                or len(set(self.q_list)) < len(self.q_list)):
            raise ConfigurationError(
                "q_list must be non-empty with distinct non-negative entries")
        for name, value in self.tolerances.items():
            if value <= 0:
                raise ConfigurationError(f"tolerance {name} must be positive")
        # the stdlib seeds from |seed|, so a negative seed would repeat a positive one
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        for name in ("resolution_quadrature", "resolution_spectral"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        # a plain file name in the output directory; the .json suffix keeps a
        # CSV artifact from overwriting the report
        name = self.report_name
        if (not isinstance(name, str) or not name.endswith(".json")
                or any(c in name for c in "/\\\0")):
            raise ConfigurationError(f"output.report_name must be a plain file name "
                                     f"ending in .json, got {name!r}")


def load_config(path):
    """The validated RunConfig of a YAML file.

    YAML decodes the bytes itself, so a file that is not UTF-8 (or UTF-16)
    is a ReaderError like any malformed YAML.  The libyaml parser is used
    where pyyaml was built with it, the pure-Python one elsewhere; both
    build the same mapping with the safe constructor.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    try:
        raw = yaml.load(data, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        # pyyaml spreads its message over lines; the CLI prints one per error
        raise ConfigurationError("config is not valid YAML: " + " ".join(str(exc).split()))
    return RunConfig.from_mapping(raw)


# ---------------------------------------------------------------------------
# subcommand implementations: each takes (cfg, orb, bundle, split, table), where
# split() gives the run's signature split and table() its cohomology table over
# p_list and the bigness powers, and returns (results, diagnostics, artifacts):
# results entries are (name, passed, data); artifacts maps file names to text.


def _run_cohomology(cfg, orb, bundle, split, table):
    # the check covers every entry the run reads; the record shows p_list's
    table = table()
    shown = table.over(cfg.p_list)
    rows = [(p, q, shown.h(p, q)) for (p, q) in sorted(shown.entries)]
    data = {"entries": {f"{p},{q}": h for p, q, h in rows}}
    ok = all(type(h) is int and h >= 0 for h in table.entries.values())
    # on a curve h0(p)/p tends to the degree, or to 0 when the degree is not
    # positive; every catalog count is within 1/p of it at the table's largest p
    degree = orb.params.get("degree")
    if ok and degree is not None:
        p = max(p for p, _ in table.entries)
        ok = abs(table.h(p, 0) / p - max(degree, 0.0)) <= 2.0 / p
    return ([("cohomology-table", ok, data)], [],
            {"cohomology.csv": rpt.csv_text(["p", "q", "h"], rows)})


def _run_curvature_integral(cfg, orb, bundle, split, table):
    split = split()
    # a NaN or infinite value is a failed quadrature, not a result
    finite = math.isfinite(split.degenerate_fraction)
    results = [(f"curvature-integral-q{q}", finite and math.isfinite(split.by_signature[q]),
                {"value": split.by_signature[q],
                 "degenerate_fraction": split.degenerate_fraction,
                 "resolution": cfg.resolution_quadrature})
               for q in cfg.q_list]
    return results, [], {}


def _run_heat_trace(cfg, orb, bundle, split, table):
    if orb.catalog_id != "torus":
        raise UnsupportedModelError("heat traces require the flat torus catalog entry")
    results = []
    artifacts = {}
    for p in cfg.p_list:
        for q in (0, 1):
            op = assemble_kodaira_laplacian(orb, bundle, p, q, cfg.resolution_spectral)
            artifacts[f"spectrum_p{p}_q{q}.csv"] = rpt.csv_text(
                ["p", "q", "lambda", "multiplicity"],
                ([p, q, lam, mult] for lam, mult in op.spectral_table()))
            traces = {repr(u): heat_trace(op, u) for u in cfg.u_list}
            # the kernel is exact, and each trace counts it plus decaying levels
            by_u = [traces[repr(u)] for u in sorted(cfg.u_list)]
            kernel = torus_kernel_dimension(orb.params["d"], orb.params["k"], p, q)
            ok = (op.zero_dim == kernel
                  and all(math.isfinite(t) and t >= op.zero_dim for t in by_u)
                  and all(b <= a for a, b in zip(by_u, by_u[1:])))
            results.append((f"heat-trace-p{p}-q{q}", ok,
                            {"zero_dim": op.zero_dim, "traces": traces}))
    return results, [], artifacts


def _run_verify_morse(cfg, orb, bundle, split, table):
    results = []
    diagnostics = []
    artifacts = {}
    if orb.catalog_id == "torus" and orb.params.get("d", 0) >= 1:
        tol = cfg.tolerances["tol_chain"]
        for p in cfg.p_list:
            for u in cfg.u_list:
                residuals = vf.exact_chain_residuals(orb, bundle, p, u,
                                                     cfg.resolution_spectral)
                ok = all(r >= -tol for r in residuals) and abs(residuals[-1]) <= tol
                results.append((f"trace-chain-p{p}-u{repr(u)}", ok,
                                {"residuals": residuals}))
        # a time the kept levels or the float range cannot resolve is left out, once
        left_out = {}
        for p in cfg.p_list:
            for q in cfg.q_list:
                gaps = {}
                for u in cfg.u_list:
                    try:
                        gaps[repr(u)] = vf.trace_equals_diagonal_integral(
                            orb, bundle, u, p, degree=q,
                            resolution=cfg.resolution_spectral)
                    except UnresolvedTimeError as exc:
                        left_out.setdefault(repr(u), exc)
                if gaps:
                    results.append((f"trace-identity-p{p}-q{q}",
                                    all(g <= tol for g in gaps.values()), {"gaps": gaps}))
        diagnostics.extend(("info", f"trace identity at u={u} left out: {exc}")
                           for u, exc in left_out.items())
    n = orb.dimension
    split = split()
    for q in cfg.q_list:
        try:
            series = vf.verify_strong_morse(orb, q, cfg.p_list, split, table())
        except UnsupportedModelError as exc:
            # a model without exact cohomology is an info, as in every other stage
            diagnostics.append(("info", f"strong Morse at q={q} skipped: {exc}"))
            continue
        pos = [max(r, 0.0) for r in series.residuals]
        bound = 2.0 / cfg.p_list[-1]
        # the positive part falls along the tail and is O(1/p) at its end
        ok = all(b <= a + 1e-12 for a, b in zip(pos, pos[1:])) and pos[-1] <= bound
        if q == n:
            ok = ok and abs(series.residuals[-1]) <= bound
        results.append((f"strong-morse-q{q}", ok, series.as_record()))
        artifacts[f"strong_morse_q{q}.csv"] = rpt.residual_series_csv(
            series.p_list, series.residuals)
        # below -2/p the inequality is strict by the mass of the negative
        # region: rho_p tends to a non-zero limit and there is no rate to fit
        if len(series.fit.p_window) < 2:
            diagnostics.append(("info", f"no convergence fit at q={q}: "
                                        "a fit needs at least two powers"))
        elif not series.fit.reliable and series.residuals[-1] >= -bound:
            diagnostics.append(("warning",
                                f"convergence fit at q={q} marked unreliable "
                                f"(R^2={series.fit.r_squared:.3f})"))
    # the integral over every signature set against the catalog's exact degree
    degree = orb.params.get("degree")
    if degree is not None:
        integral = sum(split.by_signature)
        ok = abs(integral - degree) <= cfg.tolerances["tol_quadrature"]
        results.append(("curvature-degree", ok, {"integral": integral, "degree": degree}))
    return results, diagnostics, artifacts


def _run_kernel_asymptotics(cfg, orb, bundle, split, table):
    if orb.catalog_id != "local-model":
        raise UnsupportedModelError(
            "kernel asymptotics run on the local quotient models")
    results = []
    unfitted = []
    k = orb.params["k"]
    x_reg = np.array([1.0 + 0.0j] * orb.dimension)
    p_mid = cfg.p_list[len(cfg.p_list) // 2]
    Z = np.array([1.0 / math.sqrt(p_mid) + 0.0j] * orb.dimension)
    for u in cfg.u_list:
        fit = vf.verify_kernel_asymptotics_regular(orb, bundle, x_reg, u, cfg.p_list)
        ratio = vf.singular_diagonal_factor(
            orb, bundle, np.zeros(orb.dimension, dtype=complex), u, cfg.p_list[-1])
        rec = vf.verify_kernel_asymptotics_singular(orb, bundle, Z, u, [p_mid])[0]
        # a slope needs two powers with a non-zero error; an empty window is
        # an error exactly zero at every power (C/Z_1), whose -inf is a result
        fitted = len(fit.p_window) != 1
        if not fitted:
            unfitted.append(repr(u))
        slope_ok = not fitted or fit.slope <= -0.4
        ratio_ok = abs(ratio - k) <= 0.05
        shrink = rec.residual_without_twist / max(rec.residual_with_twist, 1e-300)
        # C/Z_1 has no twist: both expansions are the same, and their common
        # residual is rounding (0 or ~1e-16), with nothing to shrink
        shrink_ok = k == 1 or shrink >= 10.0
        ok = slope_ok and ratio_ok and shrink_ok
        results.append((f"kernel-asymptotics-u{repr(u)}", ok,
                        {"regular_fit": fit,
                         "singular_ratio": ratio,
                         "twist_shrink_factor": shrink}))
    diagnostics = []
    if unfitted:
        diagnostics.append(("info", f"regular-point rate at u={', '.join(unfitted)} not "
                                    "judged: one power has a non-zero error, and a fit "
                                    "needs two"))
    return results, diagnostics, {}


def _run_moishezon(cfg, orb, bundle, split, table):
    rng = random.Random(cfg.seed)
    verdict = mz.moishezon_check(split(), cfg.tolerances["tol_quadrature"])
    # a NaN or infinite witness is a failed quadrature, not a verdict
    finite = all(map(math.isfinite, (verdict.integral_leq1, verdict.min_eigenvalue_seen)))
    results = [("moishezon-verdict", finite, verdict)]
    diagnostics = []
    # a line bundle on a compact curve is big exactly when its degree is positive
    expected_big = orb.params.get("degree", 0.0) > 0
    try:
        table = table().over(_bigness_powers(cfg))
        est = mz.bigness_check(table, orb.dimension)
        ranks = {}
        rank_max = -1
        for p in cfg.p_list[: min(len(cfg.p_list), 4)]:
            try:
                ranks[p] = mz.kodaira_rank(orb, bundle, p, rng=rng)
                rank_max = max(rank_max, ranks[p])
            except OrbmorseError as exc:
                diagnostics.append(("info", f"rank at p={p} skipped: {exc}"))
        agree = est.big == (rank_max == orb.dimension)
        results.append(("bigness", est.big == expected_big and agree,
                        {"estimate": est.limsup_estimate, "noise": est.noise_floor,
                         "big": est.big, "expected_big": expected_big,
                         "kodaira_ranks": {str(p): r for p, r in ranks.items()},
                         "growth_exponent": mz.section_growth_exponent(table)}))
    except UnsupportedModelError as exc:
        # a model without exact cohomology; a table that cannot be built exits 2
        diagnostics.append(("info", f"bigness estimate skipped: {exc}"))
    return results, diagnostics, {}


def _bigness_powers(cfg):
    top = max(4096, cfg.p_list[-1])
    # as a float: numpy takes a Python int beyond int64 as an object
    ps = sorted({int(round(x)) for x in np.geomspace(2, float(top), 40)})
    return ps


RUNNERS = {
    "cohomology": _run_cohomology,
    "curvature-integral": _run_curvature_integral,
    "heat-trace": _run_heat_trace,
    "verify-morse": _run_verify_morse,
    "kernel-asymptotics": _run_kernel_asymptotics,
    "moishezon-check": _run_moishezon,
}


def run(subcommand, config: RunConfig, out_dir, strict=False):
    """Execute one subcommand and write report + CSV artifacts.

    Returns the process exit code.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigurationError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    orb, bundle = build_catalog_orbifold(config.catalog_id, **config.catalog_params)
    if any(q > orb.dimension for q in config.q_list):
        raise ConfigurationError(
            f"q_list entries must be at most the model dimension {orb.dimension}")
    names = [s for s in SUBCOMMANDS[:-1]] if subcommand == "all" else [subcommand]
    # one curvature pass and one cohomology table per run, each made by the
    # first stage that asks for it
    split = functools.cache(lambda: signature_integrals(
        orb, bundle, config.resolution_quadrature, config.tolerances["tol_degeneracy"]))
    table = functools.cache(lambda: cohomology_table(
        orb, sorted({*config.p_list, *_bigness_powers(config)})))
    results, diagnostics, artifacts = [], [], {}
    for name in names:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                r, d, a = RUNNERS[name](config, orb, bundle, split, table)
        except ArithmeticError as exc:
            # an overflow or a 0/0 would otherwise end as a traceback or a NaN
            raise ConfigurationError(f"{name}: the configured values leave the "
                                     f"floating-point range ({exc})")
        except OrbmorseError as exc:
            # only a stage that does not apply to the model may be skipped
            if subcommand == "all" and isinstance(exc, UnsupportedModelError):
                diagnostics.append(("info", f"{name} skipped for this model: {exc}"))
                continue
            raise ConfigurationError(str(exc))
        results.extend(r)
        diagnostics.extend(d)
        artifacts.update(a)
    failures = [name for (name, passed, _) in results if not passed]
    for name in failures:
        diagnostics.append(("failure", f"check {name} failed beyond tolerance"))
    if strict:
        failures += [m for (lvl, m) in diagnostics if lvl == "warning"]
    report = rpt.build_report(subcommand, config.catalog_id, config.catalog_params,
                              results, diagnostics, config.seed)
    rpt.validate_report(report)
    (out / config.report_name).write_text(rpt.dumps_report(report))
    for fname, payload in artifacts.items():
        (out / fname).write_text(payload)
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="orbmorse",
        description="verification workflows for orbifold Morse inequalities")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as failures")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = config._replace(seed=args.seed)
            config.validate()
        return run(args.subcommand, config, args.out, strict=args.strict)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OrbmorseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
