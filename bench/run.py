"""Benchmark of orbmorse: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``orbmorse`` from
``./src`` and refuses to run (exit 2, no result) when that is missing.
Every iteration of a workload is a fresh child process (``bench/child.py``),
one at a time, with orbmorse's ``--threads`` at 1 and BLAS pinned to one
thread; the benchmark and its children share one CPU.  A run first makes one
untimed set-up-only child, which compiles bytecode and fills the file cache,
then repeats the workload for ``--seconds``, each iteration followed by
set-up-only children that add samples of ``setup_s``.  The output digests
of the first iteration are the reference for the determinism check of the
others.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
medians over the timed iterations.  Times are the child's CPU time in
reference seconds: while a child runs, a probe on the same CPU times a fixed
interpreter loop and a fixed run of page faults, and the child's user and
system time are scaled by how much slower than the reference the two probes
ran (see ``SpeedProbe``).  On a shared host the speed of the CPU swings by up
to 60% within minutes and moves the probe and the child alike, and wall time
also counts the time the child waited for the CPU; the raw wall and CPU times
stay in ``results.json``.  With ``--trace 1`` the run alternates
untraced and traced iterations and reports the per-layer metrics from the
traced ones; the tracing overhead is the traced minus the untraced ``run_s``.
Every iteration's outputs are checked against values computed here, and all
raw samples, the environment and the input digests go to
``.bench_out/<workload>-seed<N>-trace<T>/results.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import mmap
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import jsonschema
import yaml

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

MIN_TIMED = 3           # timed iterations per run, at least
MIN_TRACED = 2          # traced iterations per run, so counters can be compared
SETUPS_PER_ITERATION = 2  # extra set-up-only children per timed iteration
DEADLINE_S = 170.0      # no iteration starts or runs past this point of a run
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
PROBE_LOOP = 6000           # iterations of the interpreter probe
PROBE_PAGES = 128           # pages the fault probe maps and touches
PROBE_PAUSE_S = 0.02        # between probe samples: the probes take ~4% of the CPU
# probe times on an unloaded 2-vCPU Xeon host (interpreter, page faults)
REFERENCE_PROBE_S = (4.0e-4, 3.5e-4)


# ---------------------------------------------------------------------------
# workloads: inputs are made from the seed; the program sees only the files


def torus_spectral(seed):
    return "cli", {
        "catalog": {"id": "torus", "params": {"d": 1, "k": 2}},
        "run": {"p_list": [64, 256, 1024, 2048], "u_list": [0.5, 1.0, 5.0],
                "q_list": [0, 1], "resolution_spectral": 32,
                "resolution_quadrature": 128},
        "seed": seed}


def wps_quadrature(seed):
    return "cli", {
        "catalog": {"id": "wps", "params": {"weights": [2, 3]}},
        "run": {"p_list": [64 * 4 ** i for i in range(7)], "u_list": [1.0],
                "q_list": [0, 1], "resolution_quadrature": 1024},
        "seed": seed}


def image_oracles(seed):
    rng = random.Random(seed)
    models = {"torus": {"id": "torus", "params": {"d": 1, "k": 2}}}
    for k in (2, 3, 4):
        models[f"local-k{k}"] = {"id": "local-model", "params": {"k": k, "a": [1.0]}}
    theta = rng.uniform(0.0, 2.0 * math.pi)
    radius = rng.uniform(0.8, 1.5)
    return "session", {
        "seed": seed,
        "models": models,
        "trace_integral": {"p_list": [4, 8, 16], "degrees": [0, 1], "u": 1.0,
                           "grid": 24},
        "oracle_consistency": {
            "points": [[rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)]
                       for _ in range(8)],
            "p_list": [8, 32, 128], "degrees": [0, 1], "u": 1.0},
        "local_models": {
            "k_list": [2, 3, 4], "u_list": [0.5, 1.0, 5.0],
            "regular_point": [radius * math.cos(theta), radius * math.sin(theta)],
            "rate_p_list": [64 * 2 ** i for i in range(7)],
            "factor_p": 4096,
            "twist_point": [rng.uniform(0.5, 1.5), rng.uniform(0.0, 2.0 * math.pi)],
            "twist_p_list": [256, 1024, 4096]}}


WORKLOADS = {"torus-spectral": torus_spectral, "wps-quadrature": wps_quadrature,
             "image-oracles": image_oracles}


# ---------------------------------------------------------------------------
# output checks, against values computed here


def spectrum_multiplicities(d, k, p, q, resolution):
    """Landau level -> multiplicity on the quotient: D, or (D +- f)/2 by parity."""
    D = d * p
    f = 1 if D % 2 else 2
    out = {}
    for level in range(resolution):
        if k == 1:
            out[level] = D
        else:
            sign = (-1) ** level * (-1 if q == 1 else 1)
            out[level] = (D + f) // 2 if sign > 0 else (D - f) // 2
    return {level: m for level, m in out.items() if m}


def check_spectrum(path, cfg, p, q):
    d, k = cfg["catalog"]["params"]["d"], cfg["catalog"]["params"]["k"]
    expected = spectrum_multiplicities(d, k, p, q, cfg["run"]["resolution_spectral"])
    B = 2.0 * math.pi * d * p
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["p", "q", "lambda", "multiplicity"] or len(rows) - 1 != len(expected):
        return False
    for row in rows[1:]:
        lam, mult = float(row[2]), int(row[3])
        level = round(lam / B) - q
        if (int(row[0]), int(row[1])) != (p, q) or expected.get(level) != mult:
            return False
        if abs(lam - B * (level + q)) > 1e-9 * max(lam, 1.0):
            return False
    return True


def wps_h0(a, b, p):
    """Direct count of (i, j) >= 0 with a i + b j = p."""
    return sum(1 for j in range(p // b + 1) if (p - b * j) % a == 0)


def cli_checks(cfg, out, schema):
    checks = []
    report = json.loads((out / "report.json").read_text())
    try:
        jsonschema.validate(report, schema)
        checks.append(("report-schema", True))
    except jsonschema.ValidationError:
        checks.append(("report-schema", False))
    for result in report["results"]:
        checks.append((f"program:{result['name']}", result["passed"] is True))
    catalog = cfg["catalog"]
    if catalog["id"] == "torus":
        for p in cfg["run"]["p_list"]:
            for q in (0, 1):
                path = out / f"spectrum_p{p}_q{q}.csv"
                checks.append((f"spectrum-p{p}-q{q}",
                               path.exists() and check_spectrum(path, cfg, p, q)))
    if catalog["id"] == "wps":
        a, b = catalog["params"]["weights"]
        value = next((r["data"]["value"] for r in report["results"]
                      if r["name"] == "curvature-integral-q0"), math.nan)
        checks.append(("chern-number", abs(value - 1.0 / (a * b)) <= 1e-3))
        with open(out / "cohomology.csv", newline="") as fh:
            h0 = {int(r["p"]): int(r["h"]) for r in csv.DictReader(fh) if r["q"] == "0"}
        for p in cfg["run"]["p_list"]:
            checks.append((f"h0-p{p}", h0.get(p) == wps_h0(a, b, p)))
    return checks


SESSION_THRESHOLDS = [          # (name prefix, passes)
    ("trace-gap-", lambda v, k: v <= 1e-9),
    ("oracle-gap-", lambda v, k: v <= 1e-4),
    ("singular-factor-", lambda v, k: abs(v - k) <= 0.05),
    ("rate-slope-", lambda v, k: v <= -0.4),
    ("twist-shrink-", lambda v, k: v >= 10.0),
]


def session_checks(cfg, out):
    values = json.loads((out / "session.json").read_text())
    tr, oc, lm = cfg["trace_integral"], cfg["oracle_consistency"], cfg["local_models"]
    expected = (len(tr["p_list"]) * len(tr["degrees"])
                + len(oc["points"]) * len(oc["p_list"]) * len(oc["degrees"])
                + len(lm["k_list"]) * len(lm["u_list"]) * (2 + len(lm["twist_p_list"])))
    checks = [("session-complete", len(values) == expected)]
    for name, value in sorted(values.items()):
        prefix, passes = next(t for t in SESSION_THRESHOLDS if name.startswith(t[0]))
        k = int(name.split("-k")[1].split("-")[0]) if "-k" in name else None
        checks.append((name, bool(passes(value, k))))
    return checks


def digests(out):
    """sha256 of every output file; report.json without its timestamp."""
    out_digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report["meta"].pop("timestamp", None)
            data = json.dumps(report, sort_keys=True).encode()
        out_digests[path.name] = hashlib.sha256(data).hexdigest()
    return out_digests


# ---------------------------------------------------------------------------
# iterations


def interpreter_probe():
    s = 0
    for i in range(PROBE_LOOP):
        s += (i * i) % 7
    return s


def fault_probe():
    size = PROBE_PAGES * mmap.PAGESIZE
    with mmap.mmap(-1, size) as m:
        for offset in range(0, size, mmap.PAGESIZE):
            m[offset] = 1


def faster_half_mean(samples):
    """A sample that an interrupt or the child's time slice hit only reads
    slower, so the faster half measures the CPU."""
    fast = sorted(samples)[:(len(samples) + 1) // 2]
    return statistics.fmean(fast)


class SpeedProbe:
    """Times both probes every PROBE_PAUSE_S while a child runs.

    The probe thread shares the benchmark's one CPU with the child, so the
    probe times track how fast that CPU ran the child: other tenants of the
    host slow both alike.  The interpreter probe follows the child's user
    time, the fault probe (the kernel zeroing and mapping fresh pages) its
    system time; ``scales()`` gives the factor for each that turns the child's
    time into seconds on a host where the probes take REFERENCE_PROBE_S.  The
    probes' own share of the CPU shows in the child's wall time only.
    """

    def __enter__(self):
        self.samples = ([], [])
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while True:     # at least one sample, however short the child
            for probe, samples in zip((interpreter_probe, fault_probe), self.samples):
                t0 = time.perf_counter()
                probe()
                samples.append(time.perf_counter() - t0)
            if self._stop.wait(PROBE_PAUSE_S):
                return

    def times(self):
        return tuple(faster_half_mean(samples) for samples in self.samples)

    def scales(self):
        return tuple(ref / t for ref, t in zip(REFERENCE_PROBE_S, self.times()))


class Run:
    """One benchmark run: the workload's inputs, iterations and checks."""

    def __init__(self, workload, seed, trace):
        self.kind, self.cfg = WORKLOADS[workload](seed)
        self.dir = WORK / f"{workload}-seed{seed}-trace{trace}"
        self.run_tag = f"{workload}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.yaml"
        self.config.write_text(yaml.safe_dump(self.cfg, sort_keys=True))
        self.config_sha256 = hashlib.sha256(self.config.read_bytes()).hexdigest()
        self.schema = json.loads(
            (SRC / "orbmorse" / "schemas" / "report_v1.json").read_text())
        self.start = time.perf_counter()
        self.iterations = []
        self.reference = None       # output digests of the first workload iteration
        self.expected_checks = 1    # checks of the last workload iteration that ran

    def elapsed(self):
        return time.perf_counter() - self.start

    def iterate(self, role, trace=False):
        """Run one child process and check its outputs.

        Role "setup" children stop after set-up and are checked only for a
        clean exit; the others run the workload.
        """
        n = len(self.iterations)
        out = self.dir / f"out{n}"
        spec = {"src": str(SRC), "bench": str(BENCH), "kind": self.kind,
                "config": str(self.config), "out": str(out), "trace": trace,
                "setup_only": role == "setup", "run_id": f"{self.run_tag}-{n}",
                "result": str(self.dir / f"result{n}.json"),
                "trace_file": str(self.dir / f"trace{n}.json")}
        out.mkdir()
        spec_path = self.dir / f"spec{n}.json"
        spec_path.write_text(json.dumps(spec))
        budget = max(1.0, DEADLINE_S - self.elapsed())
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"),
                                     str(spec_path)],
                                    env={**os.environ, **CHILD_ENV}, cwd=ROOT,
                                    stdout=subprocess.DEVNULL)
            timer = threading.Timer(budget, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        it = {"role": role, "trace": trace, "exit_code": proc.returncode,
              "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "process_user_s": usage.ru_utime, "process_sys_s": usage.ru_stime,
              "probe_s": probe.times(), "probe_samples": len(probe.samples[0])}
        result_path = Path(spec["result"])
        checks = [("exit-code", proc.returncode == 0)]
        if proc.returncode == 0 and result_path.exists():
            it.update(json.loads(result_path.read_text()))
            if role != "setup":
                checks += self.check_outputs(out)
        user_scale, sys_scale = probe.scales()
        for phase in PHASES:
            if f"{phase}_user_s" in it:
                it[f"ref_{phase}_s"] = (it[f"{phase}_user_s"] * user_scale
                                        + it[f"{phase}_sys_s"] * sys_scale)
        crashed = not checks[0][1] or "setup_s" not in it
        if role != "setup" and not crashed:
            self.expected_checks = len(checks)
        if crashed and role != "setup":
            checks = [(name, False) for name, _ in checks]
            checks += [("missing", False)] * (self.expected_checks - len(checks))
        it["checks_run"] = len(checks)
        it["failed_checks"] = [name for name, ok in checks if not ok]
        it["failed"] = len(it["failed_checks"])
        self.iterations.append(it)
        return it

    def check_outputs(self, out):
        try:
            checks = (cli_checks(self.cfg, out, self.schema) if self.kind == "cli"
                      else session_checks(self.cfg, out))
            out_digests = digests(out)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            return [(f"outputs-readable: {exc!r}", False)]
        if self.reference is None:
            self.reference = out_digests
        return checks + [("deterministic-outputs", out_digests == self.reference)]

    def done(self, count, minimum, seconds):
        """Stop once ``seconds`` have passed and ``minimum`` iterations ran,
        or when another iteration as slow as the slowest would cross the
        deadline."""
        if count >= minimum and self.elapsed() >= seconds:
            return True
        slowest = max(it["wall_s"] for it in self.iterations)
        return self.elapsed() + slowest > DEADLINE_S


# ---------------------------------------------------------------------------
# metrics

PHASES = ("setup", "run", "process")   # CPU times reported in reference seconds

END_TO_END = [   # name, unit, per-iteration field
    ("setup_s", "s", "ref_setup_s"),
    ("run_s", "s", "ref_run_s"),
    ("process_s", "s", "ref_process_s"),
    ("peak_rss_mb", "MB", "peak_rss_mb"),
    ("checks_run", "count", "checks_run"),
]

STAGES = ("cohomology", "curvature-integral", "heat-trace", "verify-morse",
          "kernel-asymptotics", "moishezon-check")

PER_LAYER = [   # name, unit, key in the merged per-iteration layer record
    ("import.s", "s", "import_s"),
    ("import.modules", "count", "import_modules"),
    ("catalog.build_s", "s", "catalog_build_s"),
    ("catalog.calls", "count", "catalog.calls"),
    ("catalog.self_s", "s", "catalog.self_s"),
    ("geometry.gauss_legendre_nodes.calls", "count", "geometry.gauss_legendre_nodes.calls"),
    ("geometry.gauss_legendre_nodes.self_s", "s", "geometry.gauss_legendre_nodes.self_s"),
    ("geometry.gauss_legendre_nodes.cache_hit_ratio", "ratio", "cache_hit_ratio"),
    ("cohomology.calls", "count", "cohomology.calls"),
    ("cohomology.self_s", "s", "cohomology.self_s"),
    ("cohomology.lattice_len", "count", "cohomology.weighted_proj_h0.lattice_len"),
    ("curvature.calls", "count", "curvature.calls"),
    ("curvature.self_s", "s", "curvature.self_s"),
    ("curvature.morse_integral.calls", "count", "curvature.morse_integral.calls"),
    ("curvature.morse_integral.self_s", "s", "curvature.morse_integral.self_s"),
    ("curvature.morse_integral.nodes", "count", "curvature.morse_integral.nodes"),
    ("curvature.curvature_spectrum.calls", "count", "curvature.curvature_spectrum.calls"),
    ("curvature.curvature_spectrum.self_s", "s", "curvature.curvature_spectrum.self_s"),
    ("spectral.calls", "count", "spectral.calls"),
    ("spectral.self_s", "s", "spectral.self_s"),
    ("spectral.assemble.calls", "count", "spectral.assemble.calls"),
    ("spectral.assemble.self_s", "s", "spectral.assemble.self_s"),
    ("spectral.assemble.states", "count", "spectral.assemble.states"),
    ("spectral.assemble.invariant_states", "count", "spectral.assemble.invariant_states"),
    ("spectral.assemble.peak_mb", "MB", "spectral.assemble.peak_mb"),
    ("spectral.useful_ratio", "ratio", "useful_ratio"),
    ("spectral.spectral_table.self_s", "s", "spectral.spectral_table.self_s"),
    ("spectral.heat_trace.calls", "count", "spectral.heat_trace.calls"),
    ("spectral.heat_trace.self_s", "s", "spectral.heat_trace.self_s"),
    ("spectral.eigenfunction_values.calls", "count", "spectral.eigenfunction_values.calls"),
    ("spectral.eigenfunction_values.self_s", "s", "spectral.eigenfunction_values.self_s"),
    ("verify.calls", "count", "verify.calls"),
    ("verify.self_s", "s", "verify.self_s"),
    ("verify.exact_chain.calls", "count", "verify.exact_chain.calls"),
    ("verify.exact_chain.self_s", "s", "verify.exact_chain.self_s"),
    ("verify.strong_morse.self_s", "s", "verify.strong_morse.self_s"),
    ("verify.telescoping.self_s", "s", "verify.telescoping.self_s"),
    ("verify.image_terms.calls", "count", "verify.image_terms.calls"),
    ("verify.image_terms.terms", "count", "verify.image_terms.terms"),
    ("verify.image_terms.self_s", "s", "verify.image_terms.self_s"),
    ("verify.image_sum.self_s", "s", "verify.image_sum.self_s"),
    ("verify.trace_integral.self_s", "s", "verify.trace_integral.self_s"),
    ("verify.oracle_consistency.self_s", "s", "verify.oracle_consistency.self_s"),
    ("verify.kernel_asymptotics.self_s", "s", "verify.kernel_asymptotics.self_s"),
    ("kernels.calls", "count", "kernels.calls"),
    ("kernels.self_s", "s", "kernels.self_s"),
    ("moishezon.calls", "count", "moishezon.calls"),
    ("moishezon.self_s", "s", "moishezon.self_s"),
    ("moishezon.check.self_s", "s", "moishezon.check.self_s"),
    ("moishezon.kodaira_rank.calls", "count", "moishezon.kodaira_rank.calls"),
    ("moishezon.kodaira_rank.self_s", "s", "moishezon.kodaira_rank.self_s"),
    ("moishezon.bigness.self_s", "s", "moishezon.bigness.self_s"),
    ("report.calls", "count", "report.calls"),
    ("report.self_s", "s", "report.self_s"),
    ("report.validate_s", "s", "report.validate.self_s"),
    ("report.bytes", "count", "report.dumps.bytes"),
    ("cli.calls", "count", "cli.calls"),
    ("cli.self_s", "s", "cli.self_s"),
    *[(f"cli.stage.{s}.self_s", "s", f"cli.stage.{s}.self_s") for s in STAGES],
    ("cli.stages_skipped", "count", "stages_skipped"),
    ("run.self_s", "s", "run.self_s"),
    ("trace.spans", "count", "trace.spans"),
    ("trace.self_sum_s", "s", "trace.self_sum_s"),
    ("trace.run_s", "s", "run_s"),
    ("trace.untraced_run_s", "s", "untraced_run_s"),
    ("trace.overhead_s", "s", "overhead_s"),
    ("trace.unattributed_s", "s", "unattributed_s"),
]

# counters that must repeat exactly between traced iterations of one seed
WORK_COUNTERS = (".calls", ".nodes", ".states", ".invariant_states", ".terms",
                 ".lattice_len", ".bytes", ".hits", ".misses", "trace.spans")


def work_counters(rec):
    return {k: v for k, v in rec.items() if k.endswith(WORK_COUNTERS)}


def layer_record(it, untraced_run_s, out):
    """Flatten one traced iteration into the keys PER_LAYER reads."""
    layers = it["layers"]
    rec = dict(layers)
    for key in ("import_s", "import_modules", "catalog_build_s", "run_s"):
        rec[key] = it[key]
    hits = layers.get("geometry.gauss_legendre_nodes.hits", 0)
    calls = layers.get("geometry.gauss_legendre_nodes.calls", 0)
    rec["cache_hit_ratio"] = hits / calls if calls else 0.0
    states = layers.get("spectral.assemble.states", 0)
    rec["useful_ratio"] = (layers.get("spectral.assemble.invariant_states", 0) / states
                           if states else 0.0)
    report = out / "report.json"
    rec["stages_skipped"] = (sum("skipped" in d["message"] for d in
                                 json.loads(report.read_text())["diagnostics"])
                             if report.exists() else 0)
    rec["untraced_run_s"] = untraced_run_s
    rec["overhead_s"] = it["run_s"] - untraced_run_s
    rec["unattributed_s"] = it["run_s"] - layers["trace.self_sum_s"]
    return rec


def median_of(records, key):
    """Median of ``key`` over records; a layer that never ran counts as 0."""
    return statistics.median(r.get(key, 0) for r in records)


def environment(run, cpus):
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.exists() else ref
    versions = {name: metadata.version(name) for name in ("numpy", "scipy", "pyyaml",
                                                          "jsonschema")}
    versions["python"] = sys.version.split()[0]
    versions["orbmorse"] = next((it.get("orbmorse_version") for it in run.iterations
                                 if it.get("orbmorse_version")), None)
    return {"versions": versions, "nproc": os.cpu_count(),
            "cpus_usable": len(cpus), "cpu_pinned": min(cpus), "git_commit": commit,
            "child_env": CHILD_ENV, "platform": sys.platform}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbmorse" / "__init__.py").is_file():
        print(f"no orbmorse sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    # one CPU for the benchmark, its probe thread and its children, which
    # inherit the affinity; set before any thread starts (see SpeedProbe)
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(cpus)})
    run = Run(args.workload, args.seed, args.trace)
    run.iterate("setup")        # warm-up: compiles bytecode, fills the file cache
    if args.trace:
        untraced, traced = [], []
        while not run.done(len(traced), MIN_TRACED, args.seconds):
            untraced.append(run.iterate("untraced"))
            traced.append(run.iterate("traced", trace=True))
        ok_traced = [it for it in traced if "layers" in it]
        untraced_run_s = median_of([it for it in untraced if "run_s" in it] or [{}],
                                   "run_s")
        records = [layer_record(it, untraced_run_s,
                                run.dir / f"out{run.iterations.index(it)}")
                   for it in ok_traced]
        for it, rec in zip(ok_traced[1:], records[1:]):
            it["checks_run"] += 1
            if work_counters(rec) != work_counters(records[0]):
                it["failed"] += 1
                it["failed_checks"].append("work-counters-repeat")
        metrics = {name: {"value": median_of(records, key) if records else 0.0,
                          "unit": unit} for name, unit, key in PER_LAYER}
        samples = {"traced": len(records), "untraced": len(untraced)}
    else:
        timed, setups = [], []
        while not run.done(len(timed), MIN_TIMED, args.seconds):
            timed.append(run.iterate("timed"))
            setups += [run.iterate("setup") for _ in range(SETUPS_PER_ITERATION)]
        ok = [it for it in timed if "run_s" in it] or [{}]
        ok_setups = [it for it in setups if "setup_s" in it]
        metrics = {name: {"value": median_of(ok, key), "unit": unit}
                   for name, unit, key in END_TO_END}
        metrics["setup_s"]["value"] = median_of(ok + ok_setups, "ref_setup_s")
        samples = {"timed": len(ok), "setup": len(ok) + len(ok_setups)}
        samples["raw_medians"] = {key: median_of(ok, key) for key in
                                  ("run_s", "wall_s", "run_user_s", "run_sys_s",
                                   "process_user_s", "process_sys_s")}
        samples["raw_medians"]["setup_s"] = median_of(ok + ok_setups, "setup_s")

    attempted = sum(it["checks_run"] for it in run.iterations)
    failed = sum(it["failed"] for it in run.iterations)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config_sha256": run.config_sha256,
              "environment": environment(run, cpus), "samples": samples,
              "iterations": run.iterations, "summary": summary}
    (run.dir / "results.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
