"""One benchmark iteration, run as a fresh process.

    python3 bench/child.py SPEC.json

SPEC names the checkout's ``src`` directory, the workload kind ("cli" or
"session"), the generated config, the output directory, whether to trace or
to stop after set-up, and where to write the result.  Set-up (importing
``orbmorse.cli``, loading the config, building the catalog models) and the
run are timed separately, in wall time and in the process's user and system
CPU time.  The process exits with the CLI's exit code, or 0 when a session
finishes.
"""

import json
import os
import resource
import sys
import time


def _session(verify, cfg, models, out_dir):
    """The dual-route library checks: trace identity, oracle gaps, kernels."""
    import math
    import numpy as np

    values = {}
    orb, bundle = models["torus"]
    tr = cfg["trace_integral"]
    for p in tr["p_list"]:
        for q in tr["degrees"]:
            values[f"trace-gap-p{p}-q{q}"] = verify.trace_equals_diagonal_integral(
                orb, bundle, tr["u"], p, degree=q, grid=tr["grid"])
    oc = cfg["oracle_consistency"]
    for i, (x, y) in enumerate(oc["points"]):
        for p in oc["p_list"]:
            for q in oc["degrees"]:
                values[f"oracle-gap-z{i}-p{p}-q{q}"] = verify.oracle_consistency(
                    orb, bundle, complex(x, y), oc["u"], p, degree=q)
    lm = cfg["local_models"]
    x_reg = np.array([complex(*lm["regular_point"])])
    for k in lm["k_list"]:
        orb, bundle = models[f"local-k{k}"]
        for u in lm["u_list"]:
            fit = verify.verify_kernel_asymptotics_regular(orb, bundle, x_reg, u,
                                                           lm["rate_p_list"])
            values[f"rate-slope-k{k}-u{u!r}"] = fit.slope
            values[f"singular-factor-k{k}-u{u!r}"] = verify.singular_diagonal_factor(
                orb, bundle, np.zeros(1, dtype=complex), u, lm["factor_p"])
            r, theta = lm["twist_point"]
            for p in lm["twist_p_list"]:
                Z = np.array([r * complex(math.cos(theta), math.sin(theta))
                              / math.sqrt(p)])
                rec = verify.verify_kernel_asymptotics_singular(orb, bundle, Z, u, [p])[0]
                values[f"twist-shrink-k{k}-u{u!r}-p{p}"] = (
                    rec.residual_without_twist / max(rec.residual_with_twist, 1e-300))
    values = {name: float(v) for name, v in values.items()}
    with open(f"{out_dir}/session.json", "w") as fh:
        json.dump(values, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    cpu0 = _cpu()
    sys.path.insert(0, spec["src"])
    modules_before = len(sys.modules)
    import orbmorse.cli as cli
    t_import = time.perf_counter()
    import_modules = len(sys.modules) - modules_before
    if not orbmorse_in(spec["src"]):
        raise SystemExit(f"orbmorse was not imported from {spec['src']}")
    from orbmorse import verify
    if spec["kind"] == "cli":
        config = cli.load_config(spec["config"])
        t_config = time.perf_counter()
        cli.build_catalog_orbifold(config.catalog_id, **_kwargs(config.catalog_params))
    else:
        import yaml
        with open(spec["config"]) as fh:
            config = yaml.safe_load(fh)
        t_config = time.perf_counter()
        models = {name: cli.build_catalog_orbifold(m["id"], **_kwargs(m["params"]))
                  for name, m in config["models"].items()}
    t_setup = time.perf_counter()
    cpu_setup = _cpu()
    result = {
        "setup_s": t_setup - t0,
        "setup_user_s": cpu_setup[0] - cpu0[0],
        "setup_sys_s": cpu_setup[1] - cpu0[1],
        "import_s": t_import - t0,
        "import_modules": import_modules,
        "config_s": t_config - t_import,
        "catalog_build_s": t_setup - t_config,
        "orbmorse_version": sys.modules["orbmorse"].__version__,
    }
    if spec["setup_only"]:
        _write(spec["result"], result)
        return 0

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, spec["bench"])
        from tracer import Tracer, layer_metrics
        tracer = Tracer(spec["run_id"])
        tracer.install()
    if spec["kind"] == "cli":
        fn, args = cli.main, (["all", "--config", spec["config"], "--out", spec["out"],
                               "--threads", "1"],)
    else:
        fn, args = _session, (verify, config, models, spec["out"])
    cpu_run0 = _cpu()
    t_run0 = time.perf_counter()
    code = tracer.root(fn, *args) if tracer is not None else fn(*args)
    t_run1 = time.perf_counter()
    cpu_run1 = _cpu()

    result["exit_code"] = code
    result["run_s"] = t_run1 - t_run0
    result["run_user_s"] = cpu_run1[0] - cpu_run0[0]
    result["run_sys_s"] = cpu_run1[1] - cpu_run0[1]
    if tracer is not None:
        dump = tracer.dump()
        with open(spec["trace_file"], "w") as fh:
            json.dump(dump, fh)
        result["layers"] = layer_metrics(dump)
    _write(spec["result"], result)
    return code


def _cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)    # all threads
    return usage.ru_utime, usage.ru_stime


def _write(path, result):
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)


def _kwargs(params):
    # the CLI passes list-valued catalog parameters as tuples
    return {k: tuple(v) if isinstance(v, list) else v for k, v in params.items()}


def orbmorse_in(src):
    path = os.path.realpath(sys.modules["orbmorse"].__file__)
    return path.startswith(os.path.realpath(src) + os.sep)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
