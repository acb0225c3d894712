"""Deterministic JSON/CSV report emission with a versioned schema."""

from __future__ import annotations

import csv
import io
import json
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "orbmorse-report/1"

# the schema file is the one copy; it ships as package data
REPORT_SCHEMA = json.loads(
    (Path(__file__).with_name("schemas") / "report_v1.json").read_text())


def sanitize(obj):
    """Convert numpy scalars/arrays and complex values into plain JSON types."""
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


def build_report(subcommand, catalog_id, catalog_params, results, diagnostics, seed,
                 timestamp=None):
    ts = timestamp if timestamp is not None else \
        datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    report = {
        "meta": {
            "schema_version": SCHEMA_VERSION,
            "timestamp": ts,
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


def validate_report(report):
    import jsonschema
    jsonschema.validate(report, REPORT_SCHEMA)


def dumps_report(report):
    """Byte-stable serialization: sorted keys, fixed indentation, newline end."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def residual_series_csv(p_values, residuals):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["p", "residual"])
    for p, r in zip(p_values, residuals):
        writer.writerow([int(p), repr(float(r))])
    return buf.getvalue()
