"""Command-line front end: config ingestion, dispatch, report emission.

Subcommands: cohomology, curvature-integral, heat-trace, verify-morse,
kernel-asymptotics, moishezon-check, all.  Each stage's runner computes
records and judges none; ``run`` judges every record with its kind's gate in
``report.KINDS``, the only judge of a record, and writes the report, one
``failure`` diagnostic per failed check, and the CSV artifacts.  A check that
did not run goes to the report's ``skipped`` list, and a part of a record
left out to its ``data.left_out``, each with a reason code and the message of
its cause; under ``all`` a stage that does not apply to the model is skipped
whole.  Exit codes: 0 when every check that ran passes, 1 when one fails
beyond tolerance, 2 on configuration errors, an output that cannot be
written and a run that judges no check among them (one-line diagnostic per
failure on stderr).
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
from .catalog import build_catalog_orbifold
from .cohomology import cohomology_table
from .curvature import signature_integrals
from .errors import (ConfigurationError, NoSectionsError, OrbmorseError, Skip,
                     UnresolvedTimeError, UnsupportedModelError, _at_least, _list_of, _positive)
from .spectral import assemble_kodaira_laplacian, heat_trace, torus_kernel_dimension

DEFAULT_TOLERANCES = {
    "tol_degeneracy": 1e-8,
    "tol_quadrature": 1e-3,
    "tol_chain": 1e-9,
}


# within this many ulps of the limit the uncorrected singular residual is rounding: the
# corrected one reads up to ~21 ulps on C/Z_2..6, and the twist clause's factor 10 needs 10x
TWIST_FLOOR_ULPS = 320

_AT_LEAST_0 = functools.partial(_at_least, low=0)
_AT_LEAST_1 = functools.partial(_at_least, low=1)

# how each run value is typed, a *_list entry by entry; a key left out keeps
# the RunConfig default
RUN_VALUES = {"p_list": _AT_LEAST_1, "u_list": _positive, "q_list": _AT_LEAST_0,
              "resolution_quadrature": _AT_LEAST_1, "resolution_spectral": _AT_LEAST_1}

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
        values = {}
        for key, typed in RUN_VALUES.items():
            name, value = f"run.{key}", run.get(key, cls._field_defaults[key])
            values[key] = (list(_list_of(name, value, typed)) if key.endswith("_list")
                           else typed(name, value))
        # the stdlib seeds from |seed|, so a negative seed would repeat a positive one
        if "seed" in raw:
            values["seed"] = _AT_LEAST_0("seed", raw["seed"])
        output = raw.get("output", {})
        if "report_name" in output:
            values["report_name"] = output["report_name"]
        tolerances = {name: _positive(f"tolerances.{name}", value)
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
        """The rules that span entries; each entry is typed by RUN_VALUES."""
        if any(b <= a for a, b in zip(self.p_list, self.p_list[1:])) or not self.p_list:
            raise ConfigurationError("p_list must be non-empty and strictly increasing")
        # an empty u_list would drop the exact trace chain without a word, and
        # a repeated entry would run a check twice under one result name
        if not self.u_list or len(set(self.u_list)) < len(self.u_list):
            raise ConfigurationError("u_list must be non-empty with distinct entries")
        # an empty q_list would drop the Morse series without a word
        if not self.q_list or len(set(self.q_list)) < len(self.q_list):
            raise ConfigurationError("q_list must be non-empty with distinct entries")
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
# p_list and the bigness powers, and returns (records, artifacts): records are
# (name, data), data a Skip where the check did not run, and artifacts maps
# file names to text.  The runners judge nothing: report.KINDS does.


def _run_cohomology(cfg, orb, bundle, split, table):
    # the gate judges every entry the run reads; the CSV shows p_list's
    table = table()
    shown = table.over(cfg.p_list)
    rows = [(p, q, shown.h(p, q)) for (p, q) in sorted(shown.entries)]
    data = {"entries": {f"{p},{q}": h for p, q, h in rows}, "degree": orb.exact.degree,
            "bigness_entries": {f"{p},{q}": h for (p, q), h in sorted(table.entries.items())
                                if (p, q) not in shown.entries}}
    return [("cohomology-table", data)], {"cohomology.csv": rpt.csv_text(["p", "q", "h"], rows)}


def _run_curvature_integral(cfg, orb, bundle, split, table):
    split = split()
    return [(f"curvature-integral-q{q}",
             {"value": split.by_signature[q], "degenerate_fraction": split.degenerate_fraction,
              "resolution": cfg.resolution_quadrature}) for q in cfg.q_list], {}


def _run_heat_trace(cfg, orb, bundle, split, table):
    d, k = orb.oracle("torus", "heat traces require the flat torus catalog entry")
    records, artifacts = [], {}
    for p in cfg.p_list:
        for q in (0, 1):
            op = assemble_kodaira_laplacian(orb, bundle, p, q, cfg.resolution_spectral)
            artifacts[f"spectrum_p{p}_q{q}.csv"] = rpt.csv_text(
                ["p", "q", "lambda", "multiplicity"],
                ([p, q, lam, mult] for lam, mult in op.spectral_table()))
            records.append((f"heat-trace-p{p}-q{q}", {
                "zero_dim": op.zero_dim, "kernel_dimension": torus_kernel_dimension(d, k, p, q),
                "tails": {repr(u): heat_trace(op, u)[1] for u in cfg.u_list}}))
    return records, artifacts


def _trace_records(cfg, orb, bundle):
    """The exact trace chain and the trace identity of a torus of degree d >= 1;
    the UnsupportedModelError of ``_torus`` or of the d <= 0 Laplacian elsewhere."""
    records = [(f"trace-chain-p{p}-u{u!r}", {"residuals": vf.exact_chain_residuals(
        orb, bundle, p, u, cfg.resolution_spectral)}) for p in cfg.p_list for u in cfg.u_list]
    for p in cfg.p_list:
        for q in cfg.q_list:
            # a time the kept levels or the float range cannot resolve is left out
            gaps, left_out = {}, {}
            for u in cfg.u_list:
                try:
                    gaps[repr(u)] = vf.trace_equals_diagonal_integral(
                        orb, bundle, u, p, degree=q, resolution=cfg.resolution_spectral)
                except UnresolvedTimeError as exc:
                    left_out[repr(u)] = Skip(exc.reason, str(exc))
            data = {"gaps": gaps, "left_out": left_out} if left_out else {"gaps": gaps}
            records.append((f"trace-identity-p{p}-q{q}", data if gaps else Skip(
                UnresolvedTimeError.reason, "; ".join(s.message for s in left_out.values()))))
    return records


def _run_verify_morse(cfg, orb, bundle, split, table):
    artifacts = {}
    try:
        records = _trace_records(cfg, orb, bundle)
    except UnsupportedModelError as exc:
        records = [(name, Skip(exc.reason, str(exc))) for name in ("trace-chain", "trace-identity")]
    split = split()
    for q in cfg.q_list:
        try:
            series = vf.verify_strong_morse(orb, q, cfg.p_list, split, table())
        except UnsupportedModelError as exc:
            # a model without exact cohomology skips the check, as it skips a stage
            records.append((f"strong-morse-q{q}", Skip(exc.reason, str(exc))))
            continue
        records.append((f"strong-morse-q{q}", {**series.as_record(), "dimension": orb.dimension}))
        artifacts[f"strong_morse_q{q}.csv"] = rpt.residual_series_csv(
            series.p_list, series.residuals)
    # the integral over every signature set against the catalog's exact degree
    try:
        degree = orb.oracle("degree", "the curvature degree needs a compact catalog entry "
                                      "with an exact degree")
    except UnsupportedModelError as exc:
        return records + [("curvature-degree", Skip(exc.reason, str(exc)))], artifacts
    return records + [("curvature-degree", {"integral": sum(split.by_signature),
                                            "degree": degree})], artifacts


def _run_kernel_asymptotics(cfg, orb, bundle, split, table):
    k, a, _, character = orb.oracle(
        "group", "kernel asymptotics run on the local quotient models")
    records = []
    x_reg = np.array([1.0 + 0.0j] * orb.dimension)
    p_mid = cfg.p_list[len(cfg.p_list) // 2]
    Z = np.array([1.0 / math.sqrt(p_mid) + 0.0j] * orb.dimension)
    # at the fixed point the k images add the k-th roots e^{2 pi i c m p / k}: k
    # where the fibre of L^p is fixed, k | c p, and 0 elsewhere
    expected = 0.0 if character * cfg.p_list[-1] % k else float(k)
    for u in cfg.u_list:
        fit = vf.verify_kernel_asymptotics_regular(orb, bundle, x_reg, u, cfg.p_list)
        ratio = vf.singular_diagonal_factor(
            orb, bundle, np.zeros(orb.dimension, dtype=complex), u, cfg.p_list[-1])
        rec = vf.verify_kernel_asymptotics_singular(orb, bundle, Z, u, [p_mid])[0]
        data = {"regular_fit": fit, "singular_ratio": ratio, "expected_ratio": expected,
                "k": k, "twist_shrink_factor":
                rec.residual_without_twist / max(rec.residual_with_twist, 1e-300)}
        # a slope needs two powers with a non-zero error; an empty window is
        # an error exactly zero at every power (C/Z_1), whose -inf is a result
        if len(fit.p_window) == 1:
            data["left_out"] = {"regular_fit": Skip(
                "too-few-powers", "one power has a non-zero error, and a fit needs two")}
        # a twist below the limit's rounding leaves nothing to shrink (C/Z_1 has none)
        if k > 1 and rec.residual_without_twist <= TWIST_FLOOR_ULPS * math.ulp(vf._limit(a, u)):
            data.setdefault("left_out", {})["twist_shrink_factor"] = Skip(
                "twist-below-rounding", f"the uncorrected residual at p={p_mid} is within "
                f"{TWIST_FLOOR_ULPS} ulps of the limit, so both residuals are rounding")
        records.append((f"kernel-asymptotics-u{u!r}", data))
    return records, {}


def _run_moishezon(cfg, orb, bundle, split, table):
    rng = random.Random(cfg.seed)
    records = [("moishezon-verdict",
                mz.moishezon_check(split(), cfg.tolerances["tol_quadrature"]))]
    try:
        table = table()
    except UnsupportedModelError as exc:
        # a model without exact cohomology; a table that cannot be built exits 2
        return records + [("bigness", Skip(exc.reason, str(exc)))], {}
    n, tail = orb.dimension, table.over(_bigness_powers(cfg.p_list[-1]))
    est = mz.bigness_check(tail, n)
    # a rank reaches n only from n + 1 sections: a power with fewer has no rank to judge
    ranks, left_out = {}, {}
    for p in cfg.p_list[:4]:
        if (h0 := table.h(p, 0)) >= n + 1:
            ranks[str(p)] = mz.kodaira_rank(orb, bundle, p, rng=rng)
        else:
            left_out[str(p)] = Skip(NoSectionsError.reason,
                                    f"{h0} section(s) at power p={p}; a rank needs {n + 1}")
    # a line bundle on a compact curve is big exactly when its degree is positive
    data = {"estimate": est.limsup_estimate, "noise": est.noise_floor, "big": est.big,
            "expected_big": (orb.exact.degree or 0.0) > 0, "dimension": n,
            "kodaira_ranks": ranks, "growth_exponent": mz.section_growth_exponent(tail)}
    return records + [("bigness", {**data, "left_out": left_out} if left_out else data)], {}


@functools.lru_cache(maxsize=1)     # once per run, for its cohomology table and bigness
def _bigness_powers(top):
    # as a float: numpy takes a Python int beyond int64 as an object
    return tuple(sorted({int(round(x)) for x in np.geomspace(2, float(max(4096, top)), 40)}))


RUNNERS = {
    "cohomology": _run_cohomology,
    "curvature-integral": _run_curvature_integral,
    "heat-trace": _run_heat_trace,
    "verify-morse": _run_verify_morse,
    "kernel-asymptotics": _run_kernel_asymptotics,
    "moishezon-check": _run_moishezon,
}
SUBCOMMANDS = (*RUNNERS, "all")


def run(subcommand, config: RunConfig, out_dir):
    """Execute one subcommand and write report + CSV artifacts.

    Returns the process exit code.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigurationError(f"unknown subcommand {subcommand!r}")
    orb, bundle = build_catalog_orbifold(config.catalog_id, **config.catalog_params)
    if any(q > orb.dimension for q in config.q_list):
        raise ConfigurationError(
            f"q_list entries must be at most the model dimension {orb.dimension}")
    names = RUNNERS if subcommand == "all" else [subcommand]
    # one curvature pass and one cohomology table per run, each made by the
    # first stage that asks for it
    split = functools.cache(lambda: signature_integrals(
        orb, bundle, config.resolution_quadrature, config.tolerances["tol_degeneracy"]))
    table = functools.cache(lambda: cohomology_table(
        orb, sorted({*config.p_list, *_bigness_powers(config.p_list[-1])})))
    records, artifacts = [], {}
    for name in names:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                r, a = RUNNERS[name](config, orb, bundle, split, table)
        except ArithmeticError as exc:
            # an overflow or a 0/0 would otherwise end as a traceback or a NaN
            raise ConfigurationError(f"{name}: the configured values leave the "
                                     f"floating-point range ({exc})")
        except OrbmorseError as exc:
            # only a stage that does not apply to the model may be skipped
            if subcommand != "all" or not isinstance(exc, UnsupportedModelError):
                raise ConfigurationError(str(exc))
            r, a = [(name, Skip(exc.reason, str(exc)))], {}
        records += r
        artifacts.update(a)
    # the one place a check is judged; a skipped check is never a pass
    results, skipped = [], []
    for name, data in records:
        if isinstance(data, Skip):
            skipped.append((name, data))
            continue
        kind, data = rpt.kind_of(name), rpt.sanitize(data)
        results.append((name, bool(kind.gate(data, config.tolerances.get(kind.tolerance))), data))
    if not results:
        # a run that judged nothing passed nothing
        raise ConfigurationError("; ".join(dict.fromkeys(skip.message for _, skip in skipped)))
    failures = [name for (name, passed, _) in results if not passed]
    diagnostics = [("failure", f"check {name} failed beyond tolerance") for name in failures]
    report = rpt.build_report(subcommand, config.catalog_id, config.catalog_params,
                              results, skipped, diagnostics, config.seed)
    rpt.validate_report(report)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for fname, text in {config.report_name: rpt.dumps_report(report), **artifacts}.items():
            (out / fname).write_text(text)
    except OSError as exc:
        # an output that cannot be written is a configuration error; exit 1 is a failed check
        raise ConfigurationError(f"cannot write the output {exc.filename}: {exc.strerror}")
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
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = config._replace(seed=_AT_LEAST_0("seed", args.seed))
        return run(args.subcommand, config, args.out)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OrbmorseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
