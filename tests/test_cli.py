"""Command line interface: worked flows, formats, exit codes.

Runs main() in process for speed; one subprocess test confirms the
installed console script wires up to the same entry point.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from multicentric.cli import main

F_JSON = json.dumps({
    "centers": [[1.0, 0.0], [-1.0, 0.0]],
    "samples": [{"w": [3.0, 0.0], "f": [[2.0, 0.0], [0.0, 0.0]]}],
})
G_JSON = json.dumps({
    "centers": [[1.0, 0.0], [-1.0, 0.0]],
    "samples": [{"w": [3.0, 0.0], "f": [[1.0, 0.0], [-1.0, 0.0]]}],
})
# centers {i, -i}, sample w = 1, f = (2, -i)
FC_JSON = json.dumps({
    "centers": [[0.0, 1.0], [0.0, -1.0]],
    "samples": [{"w": [1.0, 0.0], "f": [[2.0, 0.0], [0.0, -1.0]]}],
})
A_JSON = json.dumps({"rows": 2, "cols": 2,
                     "data": [[0, 0], [1, 0], [0, 0], [0, 0]]})
S_JSON = json.dumps({"entries": [{"alpha": [0.0, 0.0], "n": 1}]})
CENTERS = "[[1,0],[-1,0]]"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def as_complex(pair):
    return complex(pair[0], pair[1])


class TestCommands:
    def test_roots(self, capsys):
        got = run_json(capsys, "roots", "--poly",
                       '{"coeffs": [[-1,0],[0,0],[1,0]]}')
        rts = sorted(as_complex(r).real for r in got["roots"])
        assert np.abs(np.array(rts) - [-1.0, 1.0]).max() < 1e-12

    def test_basis(self, capsys):
        got = run_json(capsys, "basis", "--centers", CENTERS, "--z", "2")
        vals = [as_complex(v) for v in got["values"]]
        assert np.abs(np.array(vals) - [1.5, -0.5]).max() < 1e-14

    def test_fiber(self, capsys):
        got = run_json(capsys, "fiber", "--centers", CENTERS, "--w", "3")
        pts = sorted(as_complex(t).real for t in got["points"])
        assert np.abs(np.array(pts) - [-2.0, 2.0]).max() < 1e-10
        assert got["is_critical"] is False

    def test_fiber_critical(self, capsys):
        got = run_json(capsys, "fiber", "--centers", CENTERS, "--w", "-1")
        assert got["is_critical"] is True

    def test_gelfand(self, capsys):
        got = run_json(capsys, "gelfand", "--f", F_JSON, "--z", "2")
        assert abs(as_complex(got["value"]) - 3.0) < 1e-12

    def test_invtransform(self, capsys):
        phi = json.dumps([{
            "w": [3.0, 0.0],
            "values": [{"z": [2.0, 0.0], "phi": [3.0, 0.0]},
                       {"z": [-2.0, 0.0], "phi": [-1.0, 0.0]}],
        }])
        got = run_json(capsys, "invtransform", "--centers", CENTERS,
                       "--phi", phi)
        vec = [as_complex(t) for t in got["samples"][0]["f"]]
        assert np.abs(np.array(vec) - [2.0, 0.0]).max() < 1e-12

    def test_polyprod_worked(self, capsys):
        got = run_json(capsys, "polyprod", "--centers", CENTERS,
                       "--f", F_JSON, "--g", G_JSON)
        vec = [as_complex(t) for t in got["samples"][0]["f"]]
        assert np.abs(np.array(vec) - [5.0, 3.0]).max() < 1e-13

    def test_norm(self, capsys):
        got = run_json(capsys, "norm", "--f", F_JSON)
        assert got["sup_norm"] == 2.0
        assert got["op_norm"] == 5.0

    def test_spectrum(self, capsys):
        got = run_json(capsys, "spectrum", "--f", F_JSON)
        vals = sorted(as_complex(t).real for t in got["values"])
        assert np.abs(np.array(vals) - [-1.0, 3.0]).max() < 1e-10

    def test_charfunc(self, capsys):
        got = run_json(capsys, "charfunc", "--f", F_JSON, "--lam", "5")
        row = [as_complex(t) for t in got["coeffs"][0]]
        assert np.abs(np.array(row) - [2.0, -3.0]).max() < 1e-12
        assert abs(as_complex(got["pi_values"][0]) - 12.0) < 1e-10

    def test_invert(self, capsys):
        got = run_json(capsys, "invert", "--f", F_JSON)
        vec = [as_complex(t) for t in got["samples"][0]["f"]]
        assert np.abs(np.array(vec) - [0.0, -2.0 / 3.0]).max() < 1e-12

    def test_characters(self, capsys):
        got = run_json(capsys, "characters", "--centers", CENTERS,
                       "--w0", "3")
        rows = {tuple(round(as_complex(t).real, 9) for t in row)
                for row in got["characters"]}
        assert rows == {(1.5, -0.5), (-0.5, 1.5)}
        assert got["residual"] < 1e-10

    def test_radical_at_critical(self, capsys):
        got = run_json(capsys, "radical", "--centers", CENTERS,
                       "--w0", "-1")
        assert len(got["basis"]) == 1
        v = np.array([as_complex(t) for t in got["basis"][0]])
        v = v / np.abs(v).max()
        assert abs(v[0] + v[1]) < 1e-10  # direction (1, -1) up to phase

    def test_radical_at_regular(self, capsys):
        got = run_json(capsys, "radical", "--centers", CENTERS,
                       "--w0", "3")
        assert got["basis"] == []

    def test_chi_without_poly(self, capsys):
        got = run_json(capsys, "chi", "--matrix", A_JSON,
                       "--spectrum", S_JSON, "--f", FC_JSON)
        assert got["rows"] == 2 and got["cols"] == 2
        want = [[1.0, -0.5], [0.5, -1.0], [0.0, 0.0], [1.0, -0.5]]
        got_data = np.array(got["data"], dtype=float)
        assert np.abs(got_data - np.array(want)).max() < 1e-12

    def test_chi_with_explicit_poly(self, capsys):
        got = run_json(capsys, "chi", "--matrix", A_JSON,
                       "--spectrum", S_JSON, "--f", FC_JSON,
                       "--poly", '{"coeffs": [[1,0],[0,0],[1,0]]}')
        want = [[1.0, -0.5], [0.5, -1.0], [0.0, 0.0], [1.0, -0.5]]
        assert np.abs(np.array(got["data"], dtype=float)
                      - np.array(want)).max() < 1e-12

    def test_hermite(self, capsys):
        j3 = json.dumps({"rows": 3, "cols": 3,
                         "data": [[0, 0], [1, 0], [0, 0],
                                  [0, 0], [0, 0], [1, 0],
                                  [0, 0], [0, 0], [0, 0]]})
        spec = json.dumps({"entries": [{"alpha": [0.0, 0.0], "n": 2}]})
        vals = json.dumps([[[0, 0], [0, 0], [2, 0]]])
        got = run_json(capsys, "hermite", "--matrix", j3,
                       "--spectrum", spec, "--values", vals)
        # phi = z^2 of the nilpotent block: a single 1 two above the diagonal
        want = np.zeros((3, 3), dtype=complex)
        want[0, 2] = 1.0
        data = np.array([as_complex(t) for t in got["data"]]).reshape(3, 3)
        assert np.abs(data - want).max() < 1e-13

    def test_specmap(self, capsys):
        got = run_json(capsys, "specmap", "--matrix", A_JSON,
                       "--spectrum", S_JSON, "--f", FC_JSON)
        assert got["passed"] is True
        assert got["hausdorff"] < 1e-8
        assert abs(as_complex(got["computed"][0]) - (1.0 - 0.5j)) < 1e-8

    def test_verify_single_suite(self, capsys):
        got = run_json(capsys, "verify", "homomorphism", "--seed", "7",
                       "--d", "3", "--samples", "50", "--cases", "5")
        assert got["suite"] == "homomorphism"
        assert got["seed"] == 7
        assert got["passed"] is True
        assert len(got["cases"]) == 5
        assert all(c["measure"] < 1e-10 for c in got["cases"])


class TestFlagsAndFormats:
    def test_global_flags_before_subcommand(self, capsys):
        got = run_json(capsys, "--seed", "7", "verify", "characters",
                       "--cases", "2")
        assert got["seed"] == 7

    def test_global_flags_after_subcommand(self, capsys):
        got = run_json(capsys, "verify", "characters", "--cases", "2",
                       "--seed", "7")
        assert got["seed"] == 7

    def test_csv_plain_command(self, capsys):
        code, out, _ = run(capsys, "norm", "--f", F_JSON,
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "field,value"
        table = dict(line.split(",", 1) for line in lines[1:])
        assert float(table["op_norm"]) == 5.0
        assert float(table["sup_norm"]) == 2.0

    def test_csv_verify_single_header(self, capsys):
        code, out, _ = run(capsys, "verify", "characters", "--cases", "3",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        headers = [l for l in lines if l.startswith("suite,case_id")]
        assert len(headers) == 1 and lines[0] == headers[0]
        assert all(l.startswith("characters,") for l in lines[1:])

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "norm", "--f", F_JSON,
                           "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["op_norm"] == 5.0

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(capsys, "verify", "eigenvalue-identity",
                             "--seed", "11", "--cases", "4",
                             "--output", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_file_inputs(self, capsys, tmp_path):
        fpath = tmp_path / "f.json"
        fpath.write_text(F_JSON)
        got = run_json(capsys, "norm", "--f", str(fpath))
        assert got["op_norm"] == 5.0


class TestExitCodes:
    def test_malformed_input_is_2(self, capsys):
        code, _, err = run(capsys, "roots", "--poly", "{broken")
        assert code == 2
        assert "MalformedInput" in err

    def test_context_mismatch_is_2(self, capsys):
        code, _, err = run(capsys, "norm", "--f", F_JSON,
                           "--centers", "[[2,0],[-2,0]]")
        assert code == 2
        assert "ContextMismatch" in err

    def test_not_invertible_is_1(self, capsys):
        bad = json.dumps({
            "centers": [[1.0, 0.0], [-1.0, 0.0]],
            "samples": [{"w": [3.0, 0.0], "f": [[1.0, 0.0], [3.0, 0.0]]}],
        })
        code, _, err = run(capsys, "invert", "--f", bad)
        assert code == 1
        assert "NotInvertible" in err

    def test_critical_value_is_1(self, capsys):
        phi = json.dumps([{"w": [-1.0, 0.0],
                           "values": [{"z": [0.0, 0.0], "phi": [1.0, 0.0]}]}])
        code, _, err = run(capsys, "invtransform", "--centers", CENTERS,
                           "--phi", phi)
        assert code == 1
        assert "CriticalValue" in err

    def test_verify_failure_is_1(self, capsys, monkeypatch):
        # force a failing case through an impossible tolerance override
        import multicentric.verify as verify_mod

        def fake(seed=0, **kw):
            from multicentric.verify import CaseResult, SuiteReport
            case = CaseResult(case_id="x", passed=False, measure=1.0,
                              bound=0.5, detail="")
            return SuiteReport("homomorphism", seed, (case,))

        monkeypatch.setitem(verify_mod.SUITES, "homomorphism", fake)
        code, out, _ = run(capsys, "verify", "homomorphism")
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "multicentric.cli",
             "fiber", "--centers", CENTERS, "--w", "3"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_critical"] is False

    @pytest.mark.parametrize("coeffs", [
        [float(v) for v in np.polynomial.polynomial.polyfromroots(
            np.arange(1.0, 21.0))],
        [1e300, 0.0, 1e-300],
        [1e300, 1e-300],
    ], ids=["wilkinson20", "quadratic", "linear"])
    def test_wide_range_roots_exit_1_cleanly(self, coeffs):
        proc = subprocess.run(
            [sys.executable, "-m", "multicentric.cli",
             "roots", "--poly", json.dumps({"coeffs": coeffs})],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ConvergenceFailure")

    def test_installed_script(self):
        exe = shutil.which("multicentric")
        assert exe, "console script not installed"
        proc = subprocess.run(
            [exe, "basis", "--centers", CENTERS, "--z", "2"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        vals = [as_complex(v) for v in json.loads(proc.stdout)["values"]]
        assert np.abs(np.array(vals) - [1.5, -0.5]).max() < 1e-14
