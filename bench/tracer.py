"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each ``orbmorse`` module from the
outside.  Every name bound to a wrapped function is patched: the defining
module, each module that imported the name (``cli.morse_integral``,
``verify.morse_integral``, ...), and the ``cli.RUNNERS`` stage table.  Spans
stay in memory as (name, start, end, parent, allocation peak) and are written
out when the run ends.  Work counters are recorded at the same call
boundaries.

Spans nest through one shared stack, which assumes a single thread does work
at any moment; the benchmark runs orbmorse with ``--threads 1``, where the
stage pool's only worker runs while the calling thread waits.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import tracemalloc
from collections import defaultdict


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_nodes(fn, args, kwargs, result, memo):
    # computed from the inputs: resolution^2 Gauss-Legendre nodes per chart
    a = _bound(fn, args, kwargs)
    return {"nodes": int(a["resolution"]) ** 2 * len(a["orb"].charts)}


def _count_lattice(fn, args, kwargs, result, memo):
    # computed from the inputs: the coin DP allocates d + 1 entries
    d = int(_bound(fn, args, kwargs)["d"])
    return {"lattice_len": d + 1 if d >= 0 else 0}


def _count_states(fn, args, kwargs, result, memo):
    labels = getattr(result, "labels", None)
    blocks = getattr(result, "inv_blocks", None)
    if labels is None or blocks is None:
        return {}
    return {"states": len(labels),
            "invariant_states": sum(b.shape[0] for b in blocks)}


def _count_cache(fn, args, kwargs, result, memo):
    # a hit hands back the very object an earlier call with the same key got
    key = repr((args, sorted(kwargs.items())))
    hit = memo.get(key) is result
    memo.setdefault(key, result)
    return {"hits": int(hit), "misses": int(not hit)}


def _count_terms(fn, args, kwargs, result, memo):
    return {"terms": len(result)}


def _count_bytes(fn, args, kwargs, result, memo):
    return {"bytes": len(result.encode())}


# counters computed from a call's inputs rather than measured from its result
COMPUTED_COUNTERS = ("curvature.morse_integral.nodes",
                     "cohomology.weighted_proj_h0.lattice_len")

# Spans whose allocation peak is traced.  Tracing every allocation of the run
# slowed the image-sum session tenfold and skewed self times toward
# allocation-heavy Python code, so only the dense spectral assembly, a leaf
# span whose memory is O(resolution D^2), is traced.
MEMORY_SPANS = ("spectral.assemble",)

# (span name, module, attribute, counter).  Attributes with a dot are methods.
TARGETS = [
    ("catalog.build", "catalog", "build_catalog_orbifold", None),
    ("geometry.gauss_legendre_nodes", "geometry", "gauss_legendre_nodes", _count_cache),
    ("cohomology.table", "cohomology", "cohomology_table", None),
    ("cohomology.weighted_proj_h0", "cohomology", "weighted_proj_h0", _count_lattice),
    ("curvature.morse_integral", "curvature", "morse_integral", _count_nodes),
    ("curvature.curvature_spectrum", "curvature", "curvature_spectrum", None),
    ("spectral.assemble", "spectral", "assemble_kodaira_laplacian", _count_states),
    ("spectral.spectral_table", "spectral", "TorusKodairaOperator.spectral_table", None),
    ("spectral.heat_trace", "spectral", "heat_trace", None),
    ("spectral.eigenfunction_values", "spectral", "torus_eigenfunction_values", None),
    ("spectral.diagonal_kernel", "spectral", "torus_diagonal_kernel_spectral", None),
    ("verify.exact_chain", "verify", "exact_chain_residuals", None),
    ("verify.strong_morse", "verify", "verify_strong_morse", None),
    ("verify.telescoping", "verify", "telescoping_identity_gap", None),
    ("verify.image_terms", "verify", "torus_image_terms", _count_terms),
    ("verify.image_terms", "verify", "local_model_image_terms", _count_terms),
    ("verify.image_sum", "verify", "torus_diagonal_kernel_image", None),
    ("verify.image_sum", "verify", "local_model_diagonal_kernel", None),
    ("verify.trace_integral", "verify", "trace_equals_diagonal_integral", None),
    ("verify.oracle_consistency", "verify", "oracle_consistency", None),
    ("verify.kernel_asymptotics", "verify", "verify_kernel_asymptotics_regular", None),
    ("verify.kernel_asymptotics", "verify", "singular_diagonal_factor", None),
    ("verify.kernel_asymptotics", "verify", "verify_kernel_asymptotics_singular", None),
    ("kernels.heat_diagonal_limit", "kernels", "heat_diagonal_limit", None),
    ("kernels.twisted_gaussian", "kernels", "twisted_gaussian", None),
    ("kernels.model_heat_kernel", "kernels", "model_heat_kernel", None),
    ("moishezon.check", "moishezon", "moishezon_check", None),
    ("moishezon.kodaira_rank", "moishezon", "kodaira_rank", None),
    ("moishezon.bigness", "moishezon", "bigness_check", None),
    ("report.build", "report", "build_report", None),
    ("report.validate", "report", "validate_report", None),
    ("report.dumps", "report", "dumps_report", _count_bytes),
    ("report.csv", "report", "residual_series_csv", None),
    ("cli.main", "cli", "main", None),
    ("cli.run", "cli", "run", None),
]


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent, peak_bytes or None]
        self.counters = defaultdict(int)
        self._stack = []         # indices of the open spans
        self._memo = {}          # counter state, e.g. first results per key

    def span(self, name, fn, counter=None):
        """Return ``fn`` wrapped in a span named ``name``."""
        tracer = self
        traces_memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, None, None, parent, None]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            if traces_memory:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if traces_memory:
                    span[4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._stack.pop()
            tracer.counters[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(fn, args, kwargs, result,
                                          tracer._memo).items():
                    tracer.counters[f"{name}.{key}"] += value
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch every orbmorse name bound to a target function."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "orbmorse" or name.startswith("orbmorse.")}
        for span_name, mod_name, attr, counter in TARGETS:
            owner = modules[f"orbmorse.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.span(span_name, getattr(cls, meth), counter))
                continue
            original = getattr(owner, attr)
            wrapped = self.span(span_name, original, counter)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        cli = modules["orbmorse.cli"]
        for stage, fn in list(cli.RUNNERS.items()):
            cli.RUNNERS[stage] = self.span(f"cli.stage.{stage}", fn)

    def root(self, fn, *args):
        """Run ``fn`` under the root span "run"."""
        return self.span("run", fn)(*args)

    # -- output --------------------------------------------------------------

    def dump(self):
        spans = [{"run_id": self.run_id, "name": n, "start": s, "end": e,
                  "parent": p, "peak_bytes": b} for n, s, e, p, b in self.spans]
        return {"run_id": self.run_id, "spans": spans,
                "counters": dict(sorted(self.counters.items())),
                "computed_counters": list(COMPUTED_COUNTERS)}


def self_times(spans):
    """Self time of every span: its duration minus what its children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(dump):
    """Per-layer calls, self times, counters and peaks from one trace dump."""
    spans = dump["spans"]
    own = self_times(spans)
    out = defaultdict(float)
    peaks = defaultdict(int)
    for s, t in zip(spans, own):
        name = s["name"]
        layer = name.split(".")[0]
        out[name + ".self_s"] += t
        out[layer + ".self_s"] += t
        out[layer + ".calls"] += 1
        if s["peak_bytes"] is not None:
            peaks[name] = max(peaks[name], s["peak_bytes"])
    for key, value in dump["counters"].items():
        out[key] = value
    for name, peak in peaks.items():
        out[name + ".peak_mb"] = peak / 2 ** 20
    out["trace.spans"] = len(spans)
    out["trace.self_sum_s"] = math.fsum(own)
    return dict(out)
