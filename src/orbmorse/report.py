"""Deterministic JSON/CSV report emission with a versioned schema, and the
result kinds, KINDS, whose gates judge the report's records from the records
alone, so a report can be judged again from its own bytes and the run's
tolerances.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import re
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "orbmorse-report/2"

# the schema file is the one copy; it ships as package data
REPORT_SCHEMA = json.loads(
    (Path(__file__).with_name("schemas") / "report_v1.json").read_text())


_PLAIN = (int, str, bool, type(None))


def sanitize(obj):
    """Convert numpy scalars/arrays, complex values and NamedTuple records (as
    the mapping of their fields) into plain JSON types."""
    if type(obj) in _PLAIN:          # the common case, already plain JSON
        return obj
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return sanitize(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": sanitize(obj.real), "im": sanitize(obj.imag)}
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def build_report(subcommand, catalog_id, catalog_params, results, skipped, diagnostics, seed):
    """The report of ``results``, (name, passed, data) with data as ``sanitize``
    writes it, ``skipped``, (name, Skip), and ``diagnostics``, (level, message)."""
    report = {
        "meta": {
            "schema_version": SCHEMA_VERSION,
            "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "seed": int(seed),
            "subcommand": subcommand,
        },
        "catalog": {"id": catalog_id, "params": sanitize(catalog_params)},
        "results": [
            {"name": name, "passed": bool(passed), "data": data}
            for (name, passed, data) in results
        ],
        "skipped": [{"name": name, **skip._asdict()} for (name, skip) in skipped],
        "diagnostics": [
            {"level": level, "message": message} for (level, message) in diagnostics
        ],
    }
    return report


# the keywords the walker knows; $schema and title are annotations
SCHEMA_KEYWORDS = {"$schema", "title", "type", "properties", "required",
                   "additionalProperties", "items", "enum", "const"}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": numbers.Number, "integer": int, "null": type(None)}


def _is_type(value, name):
    """Draft-07 types: a bool is no number, and an integral float is an integer."""
    if isinstance(value, bool):
        return name == "boolean"
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _TYPES[name])


def _equal(a, b):
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _subschemas(schema):
    yield schema
    for sub in (*schema.get("properties", {}).values(), schema.get("items"),
                schema.get("additionalProperties")):
        if isinstance(sub, dict):
            yield from _subschemas(sub)


def _walk(value, schema, path):
    def fail(message):
        raise ValueError(f"{path}: {message}")

    if "type" in schema and not _is_type(value, schema["type"]):
        fail(f"expected {schema['type']}, got {value!r}")
    if "enum" in schema and not any(_equal(value, v) for v in schema["enum"]):
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if "const" in schema and not _equal(value, schema["const"]):
        fail(f"{value!r} is not {schema['const']!r}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _walk(item, schema["items"], f"{path}[{i}]")
    if isinstance(value, dict):
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            fail(f"missing {', '.join(missing)}")
        properties = schema.get("properties", {})
        for key, item in value.items():
            sub = properties.get(key, schema.get("additionalProperties", True))
            if sub is False:
                fail(f"unexpected key {key!r}")
            if sub is not True:
                _walk(item, sub, f"{path}.{key}")


def validate_report(report):
    """Raise ValueError unless ``report`` matches REPORT_SCHEMA and no name is
    both in its results and in its skipped checks.

    The walker knows only SCHEMA_KEYWORDS, the ones the report schema uses;
    any other keyword anywhere in the schema raises before the report is
    read, so the schema cannot grow past the walker unnoticed.
    """
    for sub in _subschemas(REPORT_SCHEMA):
        unknown = sorted(sub.keys() - SCHEMA_KEYWORDS)
        if unknown:
            raise ValueError(f"schema keyword(s) {', '.join(unknown)} not supported")
    _walk(report, REPORT_SCHEMA, "report")
    # a check either ran or was skipped
    both = {r["name"] for r in report["results"]} & {s["name"] for s in report["skipped"]}
    if both:
        raise ValueError(f"report: {', '.join(sorted(both))} both ran and was skipped")


def dumps_report(report):
    """Byte-stable serialization: sorted keys, fixed indentation, newline end."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def csv_text(header, rows):
    """A CSV artifact: the header row, then ``rows``, as one string."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def residual_series_csv(p_values, residuals):
    return csv_text(["p", "residual"],
                    ([int(p), repr(float(r))] for p, r in zip(p_values, residuals)))


# ---------------------------------------------------------------------------
# result kinds: a gate(data, tol) reads the record as the report writes it, a
# non-finite float as the string "nan", "inf" or "-inf" that float() reads
# back, and tol, the value of the kind's tolerance key or None, so a report
# can be judged again from its own records and the run's tolerances


def _finite(*values):
    # a NaN or infinite value is a failed quadrature, not a result
    return all(math.isfinite(float(v)) for v in values)


def _cohomology_gate(data, tol):
    entries = {**data["entries"], **data["bigness_entries"]}     # "p,q": h
    # on a curve h0(p)/p tends to the degree, or to 0 when the degree is not
    # positive; every catalog count is within 1/p of it at the table's largest p
    p = max(int(key.partition(",")[0]) for key in entries)
    return all(type(h) is int and h >= 0 for h in entries.values()) and (
        data["degree"] is None or abs(entries[f"{p},0"] / p - max(data["degree"], 0.0)) <= 2.0 / p)


def _heat_trace_gate(data, tol):
    # the kernel is an exact count; the tail sums the levels above it, which decay in u
    by_u = [float(t) for _, t in sorted(data["tails"].items(), key=lambda ut: float(ut[0]))]
    return (data["zero_dim"] == data["kernel_dimension"]
            and all(math.isfinite(t) and t >= 0.0 for t in by_u)
            and all(b <= a for a, b in zip(by_u, by_u[1:])))


def _strong_morse_gate(data, tol):
    # the positive part max(rho_p, 0) is at most 2/p at every power: an orbifold
    # point makes h^0 - p deg periodic in p, so its sign wanders and need not
    # fall; at q = n the residual itself is O(1/p) at the last power
    residuals, p_list = [float(r) for r in data["residuals"]], data["p_list"]
    return (all(r <= 2.0 / p for r, p in zip(residuals, p_list))
            and (data["q"] != data["dimension"] or abs(residuals[-1]) <= 2.0 / p_list[-1]))


def _kernel_gate(data, tol):
    # C/Z_1 has no twist: both expansions are the same, and their common
    # residual is rounding (0 or ~1e-16), with nothing to shrink; a left-out
    # twist is one below the limit's rounding
    left_out = data.get("left_out", {})
    return (("regular_fit" in left_out or float(data["regular_fit"]["slope"]) <= -0.4)
            and abs(float(data["singular_ratio"]) - float(data["expected_ratio"])) <= 0.05
            and (data["k"] == 1 or "twist_shrink_factor" in left_out
                 or float(data["twist_shrink_factor"]) >= 10.0))


def _bigness_gate(data, tol):
    # big as its degree says, and as its Kodaira ranks say unless every power was left out
    big, rank = data["big"], max(data["kodaira_ranks"].values(), default=None)
    return big == data["expected_big"] and (rank is None or big == (rank == data["dimension"]))


# pattern: a regular expression the result name matches in full; stage: the
# subcommand that computes the record; tolerance: the key of the gate's tol
Kind = namedtuple("Kind", "pattern stage gate tolerance", defaults=(None,))
# keyed by the name up to its first parameter, "-p", "-q" or "-u" and a digit
KINDS = {
    "cohomology-table": Kind(r"cohomology-table", "cohomology", _cohomology_gate),
    "curvature-integral": Kind(
        r"curvature-integral-q\d+", "curvature-integral",
        lambda data, tol: _finite(data["value"], data["degenerate_fraction"])),
    "heat-trace": Kind(r"heat-trace-p\d+-q\d+", "heat-trace", _heat_trace_gate),
    "trace-chain": Kind(
        r"trace-chain-p\d+-u.+", "verify-morse",
        lambda data, tol: (all(float(r) >= -tol for r in data["residuals"])
                           and abs(float(data["residuals"][-1])) <= tol), "tol_chain"),
    "trace-identity": Kind(
        r"trace-identity-p\d+-q\d+", "verify-morse",
        lambda data, tol: all(float(g) <= tol for g in data["gaps"].values()), "tol_chain"),
    "strong-morse": Kind(r"strong-morse-q\d+", "verify-morse", _strong_morse_gate),
    "curvature-degree": Kind(
        r"curvature-degree", "verify-morse",
        lambda data, tol: abs(float(data["integral"]) - data["degree"]) <= tol, "tol_quadrature"),
    "kernel-asymptotics": Kind(r"kernel-asymptotics-u.+", "kernel-asymptotics", _kernel_gate),
    "moishezon-verdict": Kind(
        r"moishezon-verdict", "moishezon-check",
        lambda data, tol: _finite(data["integral_leq1"], data["min_eigenvalue_seen"])),
    "bigness": Kind(r"bigness", "moishezon-check", _bigness_gate),
}
_PARAMETERS = re.compile(r"-[pqu]\d")


def kind_of(name):
    """The kind of the result ``name``, by the name up to its first parameter."""
    return KINDS[_PARAMETERS.split(name, 1)[0]]
