"""Deterministic JSON/CSV report emission with a versioned schema."""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "orbmorse-report/1"

# the schema file is the one copy; it ships as package data
REPORT_SCHEMA = json.loads(
    (Path(__file__).with_name("schemas") / "report_v1.json").read_text())


def sanitize(obj):
    """Convert numpy scalars/arrays, complex values and NamedTuple records (as
    the mapping of their fields) into plain JSON types."""
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


def build_report(subcommand, catalog_id, catalog_params, results, diagnostics, seed):
    report = {
        "meta": {
            "schema_version": SCHEMA_VERSION,
            "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "seed": int(seed),
            "subcommand": subcommand,
        },
        "catalog": {"id": catalog_id, "params": sanitize(catalog_params)},
        "results": [
            {"name": name, "passed": bool(passed), "data": sanitize(data)}
            for (name, passed, data) in results
        ],
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
    """Raise ValueError unless ``report`` matches REPORT_SCHEMA.

    The walker knows only SCHEMA_KEYWORDS, the ones the report schema uses;
    any other keyword anywhere in the schema raises before the report is
    read, so the schema cannot grow past the walker unnoticed.
    """
    for sub in _subschemas(REPORT_SCHEMA):
        unknown = sorted(sub.keys() - SCHEMA_KEYWORDS)
        if unknown:
            raise ValueError(f"schema keyword(s) {', '.join(unknown)} not supported")
    _walk(report, REPORT_SCHEMA, "report")


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
