"""Command line interface: worked flows, formats, exit codes.

Runs main() in process for speed; one subprocess test confirms the
installed console script wires up to the same entry point.
"""

import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from multicentric.calculus import TestMatrixSpec as MatrixSpec
from multicentric.calculus import ensure_simple_roots, simplifying_poly
from multicentric.cli import main
from multicentric.config import DEFAULT_TOL
from multicentric.polynomials import roots

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
# over w = 3 the fiber is {2, -2} and delta_1(2) = 1.5: f^(2) overflows
F_HUGE_JSON = json.dumps({
    "centers": [[1.0, 0.0], [-1.0, 0.0]],
    "samples": [{"w": [3.0, 0.0], "f": [[1.5e308, 0.0], [1.5e308, 0.0]]}],
})
# a component at -1e308: the row sums of B_f and the square overflow
F_EDGE_JSON = json.dumps({
    "centers": [[1.0, 0.0], [-1.0, 0.0]],
    "samples": [{"w": [3.0, 0.0], "f": [[-1e308, 0.0], [1.0, 0.0]]}],
})
CENTERS = "[[1,0],[-1,0]]"
CENTERS3 = "[[1,0],[-1,0],[0,1]]"
# 1e200 times the 3x3 nilpotent block, and f over the roots of z^3 + 1
# sampled at w = p(0) = 1: the square of the matrix overflows.
J3_LARGE_JSON = json.dumps({"rows": 3, "cols": 3, "data": [
    0, 1e200, 0, 0, 0, 1e200, 0, 0, 0]})
S3_JSON = json.dumps({"entries": [{"alpha": 0, "n": 2}]})
F3_JSON = json.dumps({
    "centers": [-1, [0.5, 0.75 ** 0.5], [0.5, -(0.75 ** 0.5)]],
    "samples": [{"w": 1, "f": [1, 2, 3]}],
})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def assert_one_error_line(err, *words):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for word in words:
        assert word in lines[0]


def as_complex(pair):
    return complex(pair[0], pair[1])


class TestCommands:
    def test_roots(self, capsys):
        got = run_json(capsys, "roots", "--poly",
                       '{"coeffs": [[-1,0],[0,0],[1,0]]}')
        rts = sorted(as_complex(r).real for r in got["roots"])
        assert np.abs(np.array(rts) - [-1.0, 1.0]).max() < 1e-12

    def test_roots_of_small_scale(self, capsys):
        # (z - 1e-6)(z - 2e-6)
        got = run_json(capsys, "roots", "--poly", '{"coeffs":[2e-12,-3e-6,1]}')
        rts = sorted((as_complex(r) for r in got["roots"]), key=abs)
        assert np.abs(np.array(rts) - [1e-6, 2e-6]).max() <= 1e-20

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

    def test_chi_refuses_nearly_coincident_betas(self, capsys):
        # six collinear 5x5 blocks whose p(alpha_k) nearly coincide
        def pairs(z):
            return [[v.real, v.imag] for v in np.ravel(z)]

        spec = MatrixSpec([(x + 0.2j, 5) for x in np.linspace(-1.25, 1.25, 6)])
        s = spec.spectrum_data()
        p = ensure_simple_roots(simplifying_poly(s, c=0.7))
        a, _, _ = spec.assemble()
        spectrum = {"entries": [{"alpha": pairs(al)[0], "n": n}
                                for al, n in s.entries]}
        f = {"centers": pairs(roots(p)),
             "samples": [{"w": pairs(b)[0], "f": [1.0] * p.degree}
                         for b in p(s.alphas)]}
        code, _, err = run(
            capsys, "chi",
            "--matrix", json.dumps({"rows": 30, "cols": 30, "data": pairs(a)}),
            "--spectrum", json.dumps(spectrum), "--f", json.dumps(f),
            "--poly", json.dumps({"coeffs": pairs(p.coeffs)}))
        assert code == 1
        assert err.startswith("error: AlgebraOverflow")
        assert "nearly coincide" in err

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

    def test_failed_specmap_is_1(self, capsys):
        # the spectrum data claims alpha = 1/2 for the Jordan block at 0:
        # p = (z - 1/2)^2 + 7/4 is simplifying for it, so chi_A runs, and
        # sigma(chi_A(f)) misses f^(1/2) by about 0.189
        c = [0.5, 1.3228756555322954]
        f = {"centers": [c, [c[0], -c[1]]],
             "samples": [{"w": 1.75, "f": [1, 2]}, {"w": 2, "f": [3, 4]}]}
        code, out, err = run(capsys, "specmap", "--matrix", A_JSON,
                             "--spectrum", '{"entries":[{"alpha":0.5,"n":1}]}',
                             "--f", json.dumps(f))
        assert code == 1
        got = json.loads(out)
        assert got["passed"] is False
        assert abs(got["hausdorff"] - 0.18898223650461357) < 1e-9
        assert_one_error_line(err, "Hausdorff", "1.890e-01")

    def test_verify_single_suite(self, capsys):
        got = run_json(capsys, "verify", "homomorphism", "--seed", "7",
                       "--d", "3", "--samples", "50", "--cases", "5")
        assert got["suite"] == "homomorphism"
        assert got["seed"] == 7
        assert got["passed"] is True
        assert len(got["cases"]) == 5
        assert all(c["measure"] < 1e-10 for c in got["cases"])


class TestFloatLimit:
    """Finite inputs at the float limit: an answer, or exit 1 or 2."""

    # p = (z - 1)(z + 1e308): p' and its magnitude overflow at -1e308
    EDGE = "[[1,0],-1e308]"

    def run_quietly(self, capsys, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_json(capsys, *argv)

    def test_fiber_over_zero_is_the_regular_centers(self, capsys):
        got = self.run_quietly(capsys, "fiber", "--centers", self.EDGE, "--w", "0")
        assert [as_complex(t) for t in got["points"]] == [1.0, -1e308]
        assert got["is_critical"] is False

    def test_invtransform_over_zero_returns_phi_at_the_centers(self, capsys):
        phi = json.dumps([{"w": 0, "values": [{"z": 1, "phi": [2, 1]},
                                              {"z": -1e308, "phi": -3}]}])
        got = self.run_quietly(capsys, "invtransform", "--centers", self.EDGE,
                               "--phi", phi)
        assert [as_complex(t) for t in got["samples"][0]["f"]] == [2 + 1j, -3]


class TestMessages:
    """Error messages print plain Python numbers, not numpy reprs."""

    def test_sample_miss_names_the_nearest_sample(self, capsys):
        # p(5) = 24 is not sampled; the only sample is w = 3
        code, _, err = run(capsys, "gelfand", "--f", F_JSON, "--z", "[5,0]")
        assert code == 2
        assert_one_error_line(err, "SampleMiss", "w=(24+0j); nearest is (3+0j) ")

    def test_missing_phi_names_the_fiber_point(self, capsys):
        # the fiber over 1e300 is {+-1e150}, far from the given points
        phi = json.dumps([{"w": 1e300, "values": [{"z": 1, "phi": 2},
                                                  {"z": -1, "phi": 3}]}])
        code, _, err = run(capsys, "invtransform", "--centers", CENTERS,
                           "--phi", phi)
        assert code == 2
        assert_one_error_line(err, "MalformedInput",
                              "fiber point (1e+150+0j) (nearest")


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

    @pytest.mark.parametrize("argv", [
        ("fiber", "--centers", CENTERS, "--w", "-1e5"),
        ("basis", "--centers", CENTERS, "--z", "-1e+308"),
        ("charfunc", "--f", F_JSON, "--lam", "-2.5e3"),
    ], ids=["w", "z", "lam"])
    def test_negative_number_after_a_flag(self, capsys, argv):
        # argparse alone takes -1e5 for an option and exits 2 with its
        # usage text; the value must read as in the --flag=value form
        *head, flag, value = argv
        got = run(capsys, *argv)
        assert got[0] == 0
        assert got == run(capsys, *head, f"{flag}={value}")

    def test_negative_infinity_after_a_flag(self, capsys):
        # -Infinity is not a decimal number, but a value all the same
        head = ("fiber", "--centers", CENTERS)
        code, out, err = run(capsys, *head, "--w", "-Infinity")
        assert code == 2 and out == ""
        assert_one_error_line(err, "w: expected finite numbers")
        assert (code, out, err) == run(capsys, *head, "--w=-Infinity")

    def test_negative_tolerance_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "--tol", "-1e-3", "roots",
                             "--poly", '{"coeffs": [1, 1]}')
        assert code == 2 and out == ""
        assert_one_error_line(err, "eq_tol must be positive")


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

    @pytest.mark.parametrize("command", ["chi", "specmap"])
    def test_scaled_change_of_variable_is_2(self, capsys, command):
        # p = 2 (z^2 + 1) over centers {i, -i}: p(0) = 2 is not the beta
        # that f's z^2 + 1 stands for, so p is refused
        f = json.dumps({"centers": [[0, 1], [0, -1]],
                        "samples": [{"w": w, "f": [2, [0, -1]]}
                                    for w in (1, 2, 3)]})
        code, out, err = run(capsys, command, "--matrix", A_JSON,
                             "--spectrum", S_JSON, "--f", f,
                             "--poly", '{"coeffs":[2,0,2]}')
        assert code == 2 and out == ""
        assert_one_error_line(err, "ContextMismatch")

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

    @pytest.mark.parametrize("argv, flag", [
        (["homomorphism", "--cases", "0", "--samples", "3"], "--cases"),
        (["homomorphism", "--cases", "-4"], "--cases"),
        (["eigenvalue-identity", "--d", "0", "--cases", "1"], "--d"),
        (["eigenvalue-identity", "--d", "-1", "--cases", "1"], "--d"),
        (["homomorphism", "--samples", "0"], "--samples"),
        (["all", "--cases", "0"], "--cases"),
    ], ids=["cases-0", "cases-negative", "d-0", "d-negative", "samples-0",
            "all-cases-0"])
    def test_verify_counts_below_one_are_2(self, capsys, argv, flag):
        # they used to fall back to the defaults, or hit a numpy error
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert flag in lines[0]

    def test_verify_unseparable_centers_is_2(self, capsys):
        # 14 centers 0.5 apart do not fit the draw box: this used to end in
        # a RuntimeError traceback
        code, out, err = run(capsys, "verify", "homomorphism", "--d", "14",
                             "--cases", "1")
        assert code == 2 and out == ""
        assert_one_error_line(err, "--d")

    def test_verify_samples_beyond_the_old_draw_cap(self, capsys):
        # the sample draw used to stop after 500 tries, so --samples above
        # about 500 raised RuntimeError
        got = run_json(capsys, "verify", "homomorphism", "--samples", "505",
                       "--d", "2", "--cases", "1")
        assert got["passed"] is True
        assert got["cases"][0]["detail"] == "d=2 m=505"

    def test_directory_input_is_2(self, capsys, tmp_path):
        # used to end in an IsADirectoryError traceback with exit 1
        code, out, err = run(capsys, "roots", "--poly", str(tmp_path))
        assert code == 2 and out == ""
        assert_one_error_line(err, "MalformedInput", "--poly")

    def test_unreadable_input_is_2(self, capsys, monkeypatch, tmp_path):
        import multicentric.cli as cli_mod

        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        target = tmp_path / "f.json"
        target.write_text(F_JSON)
        monkeypatch.setattr(cli_mod, "open", refuse, raising=False)
        code, out, err = run(capsys, "norm", "--f", str(target))
        assert code == 2 and out == ""
        assert_one_error_line(err, "MalformedInput", "--f", "Permission denied")

    def test_output_into_missing_directory_is_2(self, capsys, tmp_path):
        # used to end in a FileNotFoundError traceback with exit 1
        code, out, err = run(capsys, "norm", "--f", F_JSON, "--output",
                             str(tmp_path / "missing" / "out.json"))
        assert code == 2 and out == ""
        assert_one_error_line(err, "--output")

    def test_deeply_nested_file_is_2(self, capsys, tmp_path):
        # json gives up with a RecursionError, which used to escape
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "roots", "--poly", str(deep))
        assert code == 2 and out == ""
        assert_one_error_line(err, "MalformedInput", "poly")

    @pytest.mark.parametrize("matrix, spectrum, field", [
        (A_JSON, '{"entries": [{"alpha": 0, "n": 0.5}]}', "entries[0].n"),
        (A_JSON, '{"entries": [{"alpha": 0, "n": true}]}', "entries[0].n"),
        ('{"rows": "1", "cols": true, "data": [0]}', S_JSON, "matrix.rows"),
        ('{"rows": 2, "cols": true, "data": [0, 0]}', S_JSON, "matrix.cols"),
    ], ids=["n-half", "n-true", "rows-string", "cols-true"])
    def test_non_integer_fields_are_2(self, capsys, matrix, spectrum, field):
        # these used to be truncated or coerced to int and run
        code, out, err = run(capsys, "chi", "--matrix", matrix,
                             "--spectrum", spectrum, "--f", FC_JSON)
        assert code == 2 and out == ""
        assert_one_error_line(err, "MalformedInput", field)

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


    @pytest.mark.parametrize("suite", ["homomorphism", "all"])
    def test_verify_failure_prints_one_error_line(self, capsys, monkeypatch,
                                                  suite):
        # the report stays on stdout; stderr names the failed suite and
        # its failed-case count
        import multicentric.verify as verify_mod
        from multicentric.verify import CaseResult, SuiteReport

        def fake(seed=0, **kw):
            cases = (CaseResult("x", False, 1.0, 0.5),
                     CaseResult("y", True, 0.1, 0.5))
            return SuiteReport("homomorphism", seed, cases)

        monkeypatch.setitem(verify_mod.SUITES, "homomorphism", fake)
        code, out, err = run(capsys, "verify", suite, "--cases", "1")
        assert code == 1 and json.loads(out)["passed"] is False
        assert_one_error_line(err, "homomorphism (1 of 2 cases)")

    def test_passing_verify_prints_nothing_to_stderr(self, capsys):
        code, _, err = run(capsys, "verify", "characters", "--cases", "2")
        assert code == 0 and err == ""


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

    @pytest.mark.parametrize("argv,code", [
        (["gelfand", "--f", F_JSON, "--z", "[NaN,0]"], 2),
        (["gelfand", "--f", F_JSON, "--z", "[Infinity,0]"], 2),
        (["basis", "--centers", CENTERS3, "--z", "[NaN,0]"], 2),
        (["basis", "--centers", CENTERS3, "--z", "[1" + "0" * 400 + ",0]"], 2),
        (["fiber", "--centers", CENTERS, "--w", "[NaN,0]"], 2),
        (["radical", "--centers", CENTERS, "--w0", "[NaN,0]"], 2),
        (["chi", "--matrix", '{"rows": Infinity, "cols": 2, "data": []}',
          "--spectrum", S_JSON, "--f", FC_JSON], 2),
        (["charfunc", "--f", F_JSON, "--lam", "[1e200,0]"], 1),
        (["basis", "--centers", CENTERS3, "--z", "[1e200,0]"], 1),
        (["gelfand", "--f", F_JSON, "--z", "[1e200,0]"], 1),
        (["chi", "--matrix", J3_LARGE_JSON, "--spectrum", S3_JSON,
          "--f", F3_JSON, "--poly", '{"coeffs": [1, 0, 0, 1]}'], 1),
        (["hermite", "--matrix", J3_LARGE_JSON,
          "--spectrum", '{"entries":[{"alpha":0,"n":3}]}',
          "--values", "[[0,0,2,0]]"], 1),
        (["specmap", "--matrix", '{"rows":2,"cols":2,"data":[0,1e200,0,0]}',
          "--spectrum", '{"entries":[{"alpha":0,"n":1}]}',
          "--f", '{"centers":[[0,1],[0,-1]],"samples":[{"w":1,"f":[2,[0,-1]]}]}'],
         1),
        (["gelfand", "--f", F_HUGE_JSON, "--z", "[2,0]"], 1),
        (["charfunc", "--f", F_HUGE_JSON, "--lam", "[0,0]"], 1),
        (["chi", "--matrix", '{"rows":1,"cols":1,"data":[1e200]}',
          "--spectrum", '{"entries":[{"alpha":1e200,"n":0}]}',
          "--f", '{"centers":[[1,0],[-1,0]],"samples":[{"w":1,"f":[1,2]}]}',
          "--poly", '{"coeffs":[-1,0,1]}'], 1),
        (["norm", "--f", F_EDGE_JSON], 1),
        (["polyprod", "--f", F_EDGE_JSON, "--g", F_EDGE_JSON], 1),
        (["chi", "--matrix", '{"rows":2,"cols":2,"data":[0,1,0,0]}',
          "--spectrum", '{"entries":[{"alpha":1e308,"n":1}]}',
          "--poly", '{"coeffs":[-1e308,0,1]}',
          "--f", '{"centers":[1e154,-1e154],"samples":[{"w":1,"f":[1,2]}]}'],
         1),
        (["chi", "--matrix", A_JSON,
          "--spectrum", '{"entries":[{"alpha":[0,1e308],"n":1}]}',
          "--f", FC_JSON], 1),
        (["fiber", "--centers", "[[1,1e308],1e308]", "--w", "0"], 1),
        (["hermite", "--matrix", json.dumps({"rows": 3, "cols": 3, "data": [
            1e200, 1, 0, 0, 1e200, 1, 0, 0, 1e200]}),
          "--spectrum", '{"entries":[{"alpha":1e200,"n":2}]}',
          "--values", "[[1,1,1]]"], 1),
    ], ids=["gelfand-nan", "gelfand-inf", "basis-nan", "basis-huge-int",
            "fiber-nan", "radical-nan", "matrix-rows-inf", "charfunc-large-lam",
            "basis-large-z", "gelfand-large-z",
            "chi-large-matrix", "hermite-large-matrix", "specmap-large-matrix",
            "gelfand-overflowing-value", "charfunc-overflowing-values",
            "chi-overflowing-beta", "norm-overflowing-row-sums",
            "polyprod-overflowing-square", "chi-overflowing-derivative",
            "chi-alpha-at-the-float-limit", "fiber-overflowing-center-poly",
            "hermite-jordan-block-at-1e200"])
    def test_out_of_range_inputs_fail_cleanly(self, argv, code):
        proc = subprocess.run(
            [sys.executable, "-m", "multicentric.cli", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if code == 1:
            assert proc.stdout == ""

    def test_fiber_of_huge_w_is_accurate(self):
        # z^2 - 1 = 1e300: the fiber {+-1e150} solves cleanly
        proc = subprocess.run(
            [sys.executable, "-m", "multicentric.cli", "fiber",
             "--centers", CENTERS, "--w", "[1e300,0]"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr
        pts = np.array([as_complex(t) for t in json.loads(proc.stdout)["points"]])
        resid = np.abs(pts * pts - 1.0 - 1e300) / (np.abs(pts) ** 2 + 1.0 + 1e300)
        assert resid.max() <= DEFAULT_TOL.root_tol

    def test_huge_spectrum_values_cluster_cleanly(self):
        # f^ takes +-1.2e308 over w = 0.5: the cluster distances overflow
        f = json.dumps({"centers": [[1, 0], [-1, 0]], "samples": [
            {"w": [0.5, 0], "f": [[1e308, 0], [-1e308, 0]]},
            {"w": [0.7, 0], "f": [[1, 0], [2, 0]]}]})
        proc = subprocess.run(
            [sys.executable, "-m", "multicentric.cli", "spectrum", "--f", f],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(json.loads(proc.stdout)["values"]) == 3

    def test_polyprod_leaves_numpy_ma_unimported(self):
        # np.unique on complex input imports numpy.ma, 15-30 ms of every
        # cold call that decodes a function; SampleSet sorts instead
        code = ("import sys\nfrom multicentric.cli import main\n"
                f"code = main(['polyprod', '--f', {F_JSON!r}, '--g', {G_JSON!r}])\n"
                "print(code, 'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.splitlines()[-1] == "0 False"

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
