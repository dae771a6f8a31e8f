"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
The last test runs every workload once, traced; the file takes under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import multicentric as mc  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as W  # noqa: E402


# ----------------------------------------------------------- inputs


def _inputs(wl):
    if wl.kind == "cli":
        return [json.dumps(argv) for _, argv, _ in wl.calls]
    return [wl.lams, wl.points, wl.fvals, wl.gvals]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_seed_fixes_inputs(name):
    cls = W.WORKLOADS[name]
    a, b, c = _inputs(cls(3)), _inputs(cls(3)), _inputs(cls(4))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


# ----------------------------------------------------------- checks


def _small_outputs(wl, m=40):
    ctx = mc.AlgebraContext(mc.Centers(wl.lams))
    ss = mc.SampleSet(ctx, wl.points[:m])
    f = mc.VectorFunction(ss, wl.fvals[:, :m])
    g = mc.VectorFunction(ss, wl.gvals[:, :m])
    return {"ss": ss, "f": f, "g": g, "fg": mc.polyprod(f, g),
            "mult": mc.mult_matrices(f), "finv": mc.invert(f),
            "char": mc.characteristic(f)}


def _failures(wl, outs):
    chk = W.Checks()
    W.LibraryWorkload.check(wl, mc, outs, chk)
    return chk.failures


def test_library_checks_pass_and_catch_a_wrong_inverse():
    wl = W.WideSamples(0)
    outs = _small_outputs(wl)
    assert _failures(wl, outs) == []
    outs["finv"] = outs["finv"].with_values(outs["finv"].values * 1.001)
    assert _failures(wl, outs) == ["invert_resid"]


def test_fiber_check_catches_a_wrong_fiber():
    wl = W.WideSamples(0)
    ss = _small_outputs(wl)["ss"]
    good = W.backward_err(wl.lams, ss.points, ss.fiber_points)
    wrong = ss.fiber_points.copy()
    wrong[3, 1] += 1e-6
    bad = W.backward_err(wl.lams, ss.points, wrong)
    assert good <= W.FIBER_TOL < bad
    assert W.center_resid(wl.lams, ss.points, wrong) > W.FIBER_TOL


def test_cli_checks_catch_wrong_results():
    wl = W.CliVerify(0)
    refs = wl.references(mc)
    inv = refs["invert"]
    good = {"samples": [{"f": [[z.real, z.imag] for z in inv[:, i]]}
                        for i in range(inv.shape[1])]}
    bad = {"samples": [{"f": [[1.01 * z.real, z.imag] for z in inv[:, i]]}
                       for i in range(inv.shape[1])]}
    assert wl._check_call("invert", good, refs, W.Checks(), mc)
    assert not wl._check_call("invert", bad, refs, W.Checks(), mc)
    pts = refs["fiber-1"].copy()
    assert wl._check_call("fiber-1", {"points": [[z.real, z.imag] for z in pts]},
                          refs, W.Checks(), mc)
    pts[0] += 1e-3
    assert not wl._check_call("fiber-1", {"points": [[z.real, z.imag] for z in pts]},
                              refs, W.Checks(), mc)


# ----------------------------------------------------------- tracer


def test_self_time_on_a_synthetic_tree():
    # root 0..10 with children 1..3 and 2..6 (overlapping) and 8..9;
    # the child 2..6 has a grandchild 3..4.
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 3.0, 0), ("b", 2.0, 6.0, 0),
             ("c", 8.0, 9.0, 0), ("d", 3.0, 4.0, 2)]
    assert tr.self_times(spans) == pytest.approx([10 - 5 - 1, 2, 3, 1, 1])


def test_tracer_patches_every_alias_and_restores_them():
    import multicentric.cli  # noqa: F401  (imports serialize as well)

    names = ["multicentric", "multicentric.polynomials", "multicentric.algebra",
             "multicentric.linalg", "multicentric.calculus",
             "multicentric.verify", "multicentric.cli"]
    mods = [sys.modules[n] for n in names]
    original = mc.polynomials.roots
    holders = [m for m in mods if getattr(m, "roots", None) is original]
    assert len(holders) >= 5
    suites = dict(mc.verify.SUITES)
    t = tr.Tracer()
    t.install(mc.verify.SUITES)
    try:
        assert all(m.roots is not original for m in holders)
        assert mc.algebra.fiber_batch is mc.polynomials.fiber_batch
        assert mc.verify.SUITES["nilpotent"] is not suites["nilpotent"]
        mc.linalg.eigenvalues(np.diag([1.0, 2.0]))
    finally:
        t.uninstall()
    assert all(m.roots is original for m in holders)
    assert mc.verify.SUITES == suites
    # roots is reached through the alias in linalg's namespace
    assert [(sp[0], sp[3]) for sp in t.spans] == [
        ("linalg.eigenvalues", -1), ("linalg.char_poly", 0),
        ("polynomials.roots", 0)]


# ----------------------------------------------------------- interface


def test_benchmark_json_matches_the_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert set(run.SUITE_NAMES) == set(mc.verify.SUITES)


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "wide-samples", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# Where each layer is said to do work (README.md, layer map).
DOES_WORK = {
    "wide-samples": [
        "polynomials.fiber_batch.calls", "polynomials.fiber_batch.rows",
        "algebra.basis_values.points", "algebra.SampleSet.self_s",
        "linalg.solve.calls", "algebra.invert.self_s",
        "polynomials.cluster_points.calls", "polynomials.cluster_points.points",
        "algebra.spectrum.self_s", "algebra.characteristic.self_s",
        "transform.reconstruct.self_s", "transform.inverse_transform.calls",
        "algebra.polyprod.calls", "algebra.mult_matrices.calls",
        "algebra.homomorphism_err", "algebra.invert_resid",
        "transform.reconstruct_err"],
    "many-centers": [
        "polynomials.fiber_batch.calls", "polynomials.fiber_batch.rows",
        "polynomials.fiber_backward_err", "algebra.basis_values.points",
        "algebra.SampleSet.self_s", "linalg.solve.calls", "algebra.invert.self_s",
        "algebra.polyprod.calls", "algebra.polyprod.peak_alloc_mb",
        "algebra.polyprod.computed_bytes", "algebra.mult_matrices.calls",
        "algebra.mult_matrices.peak_alloc_mb",
        "algebra.spectral_radius_iter.self_s", "algebra.characteristic.self_s",
        "algebra.homomorphism_err", "algebra.invert_resid"],
    "cli-verify": [
        "polynomials.roots.calls", "polynomials.roots.self_s",
        "linalg.eigenvalues.self_s", "linalg.char_poly.self_s",
        "calculus.chi_A.self_s", "calculus.spectral_mapping_check.self_s",
        "calculus.ensure_simple_roots.self_s", "cli.import_s",
        "cli.numpy_import_s", "serialize.loads.self_s", "serialize.dumps.self_s",
    ] + [f"verify.suite_s.{s}" for s in run.SUITE_NAMES],
}
# A workload that bypasses a layer predicts no change from optimising it.
BYPASSED = {"many-centers": ["polynomials.cluster_points.calls",
                             "transform.inverse_transform.calls"]}


@pytest.mark.parametrize("name", sorted(DOES_WORK))
def test_traced_run_reports_work_where_layers_work(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", name, "--seed", "1", "--seconds", "1",
                       "--trace", "1"])
    assert rc == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert list(metrics) == [n for n, _, _ in run.PER_LAYER]
    for key in DOES_WORK[name]:
        assert metrics[key]["value"] > 0, key
    for key in BYPASSED.get(name, []):
        assert metrics[key]["value"] == 0, key
    assert metrics["trace.top_coverage"]["value"] > 0.9
