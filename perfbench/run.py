"""Benchmark of the multicentric package: end to end, or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload wide-samples --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` as checked out.  Each workload is
a closed loop: one caller runs passes back to back until ``--seconds``
would be exceeded.  With ``--trace 0`` the last line of standard output
is a JSON object holding the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run, whose passes alternate
untraced and traced so the tracing overhead is measured in the same run.
Human-readable lines, including the machine record, come before it, and
a copy of the result (plus the spans of a traced run) is written under
``.perfbench-out/``.  See ``perfbench/README.md`` for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# One BLAS thread: at most nproc, and steady on a shared machine.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = 7

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy_digits", "digits", "higher"),
    ("ok_frac", "1", "higher"),
]

SUITE_NAMES = ["homomorphism", "d2-forms", "nilpotent", "eigenvalue-identity",
               "characters", "spectral-radius", "inversion-bound",
               "jordan-calculus", "spectral-mapping", "norm-blowup",
               "nondifferentiable"]

PER_LAYER = [
    ("polynomials.fiber_batch.self_s", "s", "lower"),
    ("polynomials.fiber_batch.calls", "count", "lower"),
    ("polynomials.fiber_batch.rows", "count", "lower"),
    ("polynomials.fiber_backward_err", "rel", "lower"),
    ("polynomials.fiber_center_resid", "rel", "lower"),
    ("algebra.basis_values.self_s", "s", "lower"),
    ("algebra.basis_values.points", "count", "lower"),
    ("algebra.SampleSet.self_s", "s", "lower"),
    ("algebra.gelfand_values.self_s", "s", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("algebra.invert.self_s", "s", "lower"),
    ("polynomials.cluster_points.self_s", "s", "lower"),
    ("polynomials.cluster_points.calls", "count", "lower"),
    ("polynomials.cluster_points.points", "count", "lower"),
    ("algebra.spectrum.self_s", "s", "lower"),
    ("algebra.characteristic.self_s", "s", "lower"),
    ("transform.reconstruct.self_s", "s", "lower"),
    ("transform.inverse_transform.calls", "count", "lower"),
    ("algebra.polyprod.self_s", "s", "lower"),
    ("algebra.polyprod.calls", "count", "lower"),
    ("algebra.polyprod.peak_alloc_mb", "MB", "lower"),
    ("algebra.polyprod.computed_bytes", "B", "lower"),
    ("algebra.mult_matrices.self_s", "s", "lower"),
    ("algebra.mult_matrices.calls", "count", "lower"),
    ("algebra.mult_matrices.peak_alloc_mb", "MB", "lower"),
    ("algebra.spectral_radius_iter.self_s", "s", "lower"),
    ("polynomials.roots.self_s", "s", "lower"),
    ("polynomials.roots.calls", "count", "lower"),
    ("linalg.eigenvalues.self_s", "s", "lower"),
    ("linalg.char_poly.self_s", "s", "lower"),
    ("calculus.chi_A.self_s", "s", "lower"),
    ("calculus.spectral_mapping_check.self_s", "s", "lower"),
    ("calculus.ensure_simple_roots.self_s", "s", "lower"),
] + [(f"verify.suite_s.{s}", "s", "lower") for s in SUITE_NAMES] + [
    ("cli.import_s", "s", "lower"),
    ("cli.numpy_import_s", "s", "lower"),
    ("serialize.loads.self_s", "s", "lower"),
    ("serialize.dumps.self_s", "s", "lower"),
    ("algebra.homomorphism_err", "rel", "lower"),
    ("algebra.invert_resid", "rel", "lower"),
    ("transform.reconstruct_err", "rel", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.traced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.top_coverage", "1", "higher"),
]

SETUP_CODE = (
    "import json, sys, time\n"
    "lams = json.load(sys.stdin)\n"
    "t0 = time.perf_counter()\n"
    "import multicentric as mc\n"
    "mc.AlgebraContext(mc.Centers([complex(a, b) for a, b in lams]))\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def machine_record():
    rec = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0],
           "blas_threads": int(BLAS_THREADS)}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            rec[f"L{level}"] = size
    import numpy
    rec["numpy"] = numpy.__version__
    return rec


def median_setup(lams, env):
    """Median cold-process time of importing the package and building the context."""
    payload = json.dumps([[complex(z).real, complex(z).imag] for z in lams])
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], input=payload,
                              capture_output=True, text=True, env=env,
                              timeout=120, check=True)
        if i:   # the first child only warms the bytecode and file caches
            times.append(float(proc.stdout))
    return statistics.median(times), len(times)


def import_times(env, repeats=3):
    """Cumulative import seconds of numpy and multicentric.cli, cold."""
    got = {"numpy": [], "multicentric.cli": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import multicentric.cli"],
                              capture_output=True, text=True, env=env,
                              timeout=120, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in got:
                got[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {k: statistics.median(v) for k, v in got.items()}


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    if n < 11:
        return None, None
    return vals[n - 11], 100.0 * (n - 10) / n


def timed_loop(seconds, run_one, min_runs):
    """Run passes back to back while the next one is expected to fit.

    ``run_one(i)`` returns (seconds of pass i, completed).
    """
    times = []
    start = time.perf_counter()
    while True:
        dt, ok = run_one(len(times))
        times.append(dt)
        if not ok:
            break
        spent = time.perf_counter() - start
        if len(times) >= min_runs and spent + statistics.median(times) > seconds:
            break
    return times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "multicentric" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as wl_mod
    if args.workload not in wl_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl_mod.WORKLOADS)}", file=sys.stderr)
        return 2

    env = child_env()
    machine = machine_record()
    wl = wl_mod.WORKLOADS[args.workload](args.seed)
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload: {wl.name} seed={args.seed} d={wl.d} m={wl.m} "
          f"trace={args.trace} seconds={args.seconds}")

    setup = None
    if not args.trace:
        setup = median_setup(wl.lams, env)

    import multicentric as mc
    import tracer as tr_mod
    rec = wl_mod.Recorder()
    chk = wl_mod.Checks()
    tracer = tr_mod.Tracer()
    ctx = wl.context(mc) if wl.kind == "library" else None
    sessions = []         # cli: every session's call list
    last = {}             # library: outputs of the latest pass only
    prints = []           # library: digest of each pass's outputs
    traced_ids = set()

    def run_one(i):
        traced = bool(args.trace) and i % 2 == 1
        last.clear()      # the previous outputs do not count towards memory
        if traced:
            tracer.pass_id = i
            traced_ids.add(i)
            tracer.install(mc.verify.SUITES)
        t0 = time.perf_counter()
        try:
            if wl.kind == "cli" and not args.trace:
                sessions.append(wl.run_cold(env, rec))
            elif wl.kind == "cli":
                sessions.append(wl.run_inproc(mc, rec))
            else:
                last["out"] = wl.run_pass(mc, rec, ctx)
        except Exception as exc:   # counted by the recorder; stop measuring
            print(f"pass {i} failed: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, False
        finally:
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if "out" in last:
            prints.append(wl.fingerprint(last["out"]))
        return dt, True

    times = timed_loop(args.seconds, run_one, 2 if args.trace else 1)
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    complete = len(sessions) == len(times) or len(prints) == len(times)
    if not complete:
        chk.flag("all_passes_completed", False)

    summary = {}          # figures printed beside the metrics
    probe_log = {}
    if sessions:
        refs = wl.references(mc)
        for session in sessions:
            wl.classify(session, refs, chk, rec, mc, probe_log)
        verify_out = [c[2] for s in sessions for c in s if c[0] == "verify-all"]
        chk.flag("verify_identical", len(set(verify_out)) == 1)
        calls = [c for s in sessions for c in s]
        verify_t = [c[4] for c in calls if c[0] == "verify-all"]
        one_shot = [c[4] for c in calls if c[0] != "verify-all"]
        summary["verify_s"] = (statistics.median(verify_t), "s", len(verify_t))
        summary["cli_call_s"] = (statistics.median(one_shot), "s", len(one_shot))
        val, pct = tail(one_shot)
        if val is not None:
            summary[f"cli_call_tail_s (p{pct:.0f})"] = (val, "s", len(one_shot))
    elif "out" in last:
        wl.check(mc, last["out"], chk)
        chk.flag("passes_identical", len(set(prints)) == 1)

    failed = min(rec.attempted, rec.failed + (0 if wl.kind == "cli"
                                              else len(chk.failures)))
    attempted = max(rec.attempted, 1)
    correct = complete and chk.ok
    for name in chk.failures:
        print(f"check failed: {name}")
    for line in rec.errors[:20]:
        print(f"operation failed: {line}")
    for label, (rc, nwarn, msg) in sorted(probe_log.items()):
        print(f"probe {label}: exit {rc}, {nwarn} warning lines on stderr, "
              f"{msg or 'no error line'}")

    record = {"machine": machine, "workload": wl.name, "seed": args.seed,
              "d": wl.d, "m": wl.m, "pass_times": times,
              "checks": chk.items, "probes": probe_log}
    if not args.trace:
        metrics = {
            "setup_s": (setup[0], "s", setup[1]),
            "pass_s": (statistics.median(times), "s", len(times)),
            "peak_rss_mb": (rss_children if wl.kind == "cli" else rss_self,
                            "MB", 1),
            "accuracy_digits": (chk.digits(), "digits", len(chk.items)),
            "ok_frac": ((attempted - failed) / attempted, "1", attempted),
        }
        summary["failed_frac"] = (failed / attempted, "1", attempted)
        resid = chk.worst("fiber_center_resid")
        if resid is not None:
            summary["fiber_center_resid"] = (resid, "rel", 1)
        for name, (val, unit, n) in {**metrics, **summary}.items():
            print(f"metric {name} = {val:.6g} {unit} (n={n})")
    else:
        metrics = per_layer_metrics(wl, tracer, tr_mod, wl_mod, chk, times,
                                    traced_ids, env)
        for name, (val, unit, _) in metrics.items():
            print(f"layer {name} = {val:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record["metrics"] = {k: v[0] for k, v in metrics.items()}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1,
                                                     default=str))
    if args.trace:
        tracer.dump(stem.with_suffix(".spans.jsonl"),
                    {"machine": machine, "workload": wl.name, "seed": args.seed,
                     "d": wl.d, "m": wl.m, "patched": tracer.patched_names()})

    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v[0]), "unit": v[1]}
                    for k, v in metrics.items()},
    }))
    return 0


def per_layer_metrics(wl, tracer, tr_mod, wl_mod, chk, times, traced_ids, env):
    import numpy as np

    passes = tr_mod.per_pass(tracer)
    traced = sorted(traced_ids & set(passes))

    def med(fn):
        vals = [fn(passes[p]) for p in traced]
        return statistics.median(vals) if vals else 0.0

    out = {}
    for name, unit, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("self_s", "calls", "rows", "points", "peak_alloc_mb",
                     "computed_bytes"):
            val = med(lambda agg: agg.get(span, {}).get(field, 0))
        elif name.startswith("verify.suite_s."):
            val = med(lambda agg: agg.get(name, {}).get("total_s", 0.0))
        else:
            continue
        out[name] = (val, unit, len(traced))

    fiber_err = center_err = 0.0
    for centers, ws, res in tracer.fiber_calls:
        ws = np.asarray(ws, dtype=complex).ravel()
        if ws.size:
            fiber_err = max(fiber_err, wl_mod.backward_err(centers.lambdas, ws, res))
            center_err = max(center_err,
                             wl_mod.center_resid(centers.lambdas, ws, res))
    out["polynomials.fiber_backward_err"] = (fiber_err, "rel", len(traced))
    out["polynomials.fiber_center_resid"] = (center_err, "rel", len(traced))
    for name, key in (("algebra.homomorphism_err", "homomorphism_err"),
                      ("algebra.invert_resid", "invert_resid"),
                      ("transform.reconstruct_err", "reconstruct_err")):
        out[name] = (chk.worst(key) or 0.0, "rel", 1)
    if wl.kind == "cli":
        imp = import_times(env)
        out["cli.import_s"] = (imp["multicentric.cli"], "s", 3)
        out["cli.numpy_import_s"] = (imp["numpy"], "s", 3)
    else:
        out["cli.import_s"] = (0.0, "s", 0)
        out["cli.numpy_import_s"] = (0.0, "s", 0)
    untraced = [t for i, t in enumerate(times) if i not in traced_ids]
    traced_t = [times[i] for i in traced]
    u = statistics.median(untraced) if untraced else 0.0
    t = statistics.median(traced_t) if traced_t else 0.0
    out["trace.untraced_pass_s"] = (u, "s", len(untraced))
    out["trace.traced_pass_s"] = (t, "s", len(traced_t))
    out["trace.overhead_s"] = (t - u, "s", len(traced_t))
    cover = [tr_mod.top_level_time(tracer, i) / times[i] for i in traced]
    out["trace.top_coverage"] = (statistics.median(cover) if cover else 0.0,
                                 "1", len(cover))
    return {name: out[name] for name, _, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
