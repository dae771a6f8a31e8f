"""JSON encode/decode round trips and input validation messages."""

import numpy as np
import pytest

from multicentric.algebra import AlgebraContext, SampleSet, VectorFunction
from multicentric.calculus import SpectrumData
from multicentric.calculus import TestMatrixSpec as MatrixSpec
from multicentric.errors import MalformedInput
from multicentric.polynomials import Centers, Polynomial
from multicentric.serialize import (
    decode_centers,
    decode_complex,
    decode_complex_list,
    decode_function,
    decode_matrix,
    decode_matrix_spec,
    decode_phi_samples,
    decode_polynomial,
    decode_spectrum,
    dumps,
    encode_centers,
    encode_complex,
    encode_complex_list,
    encode_function,
    encode_matrix,
    encode_matrix_spec,
    encode_polynomial,
    encode_spectrum,
    loads,
)


class TestComplex:
    def test_round_trip(self):
        for z in (0.0, 1.5 - 2.5j, -1e-12j, 3):
            assert decode_complex(encode_complex(z)) == complex(z)

    def test_bare_number_accepted(self):
        assert decode_complex(2.5) == 2.5 + 0j
        assert decode_complex(-3) == -3 + 0j

    def test_rejects_garbage(self):
        for bad in ("1.0", [1.0], [1.0, 2.0, 3.0], [True, 0.0], None, {},
                    [float("nan"), 0.0], [0.0, float("inf")], float("-inf"),
                    [10 ** 400, 0]):
            with pytest.raises(MalformedInput):
                decode_complex(bad, "probe")

    def test_field_name_in_message(self):
        with pytest.raises(MalformedInput, match="probe"):
            decode_complex(None, "probe")

    def test_list_round_trip(self):
        zs = np.array([1.0, -2.0j, 0.5 + 0.5j])
        got = decode_complex_list(encode_complex_list(zs), "zs")
        assert np.array_equal(got, zs)

    def test_list_rejects_empty(self):
        with pytest.raises(MalformedInput, match="zs"):
            decode_complex_list([], "zs")


class TestMatrixCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert np.array_equal(decode_matrix(encode_matrix(a)), a)

    def test_shape_preserved(self):
        a = np.zeros((2, 5), dtype=np.complex128)
        enc = encode_matrix(a)
        assert enc["rows"] == 2 and enc["cols"] == 5
        assert decode_matrix(enc).shape == (2, 5)

    def test_validation(self):
        with pytest.raises(MalformedInput, match="rows"):
            decode_matrix({"cols": 2, "data": []})
        with pytest.raises(MalformedInput, match="data"):
            decode_matrix({"rows": 2, "cols": 2, "data": [[0, 0]]})
        with pytest.raises(MalformedInput):
            decode_matrix({"rows": 0, "cols": 2, "data": []})
        with pytest.raises(MalformedInput):
            decode_matrix([[1, 2], [3, 4]])
        with pytest.raises(MalformedInput, match="rows"):
            decode_matrix({"rows": float("inf"), "cols": 2, "data": []})
        # integer fields take JSON integers and integral floats only
        for rows, cols, bad in (("1", 1, "rows"), (1, True, "cols"),
                                (0.5, 1, "rows"), (1, "1", "cols")):
            with pytest.raises(MalformedInput, match=bad):
                decode_matrix({"rows": rows, "cols": cols, "data": [0]})
        got = decode_matrix({"rows": 2.0, "cols": 1, "data": [1, 2]})
        assert got.shape == (2, 1)


class TestPolynomialCodec:
    def test_round_trip(self):
        q = Polynomial([1.0, 0.0, -2.0 + 1.0j])
        got = decode_polynomial(encode_polynomial(q))
        assert np.array_equal(got.coeffs, q.coeffs)

    def test_missing_coeffs(self):
        with pytest.raises(MalformedInput, match="coeffs"):
            decode_polynomial({})


class TestCentersCodec:
    def test_round_trip(self):
        c = Centers([1.0, -1.0, 0.5j])
        got = decode_centers(encode_centers(c))
        assert np.array_equal(got.lambdas, c.lambdas)

    def test_bare_list_shorthand(self):
        got = decode_centers([[1.0, 0.0], [-1.0, 0.0]])
        assert np.array_equal(got.lambdas, [1.0, -1.0])

    def test_missing_lambdas(self):
        with pytest.raises(MalformedInput, match="lambdas"):
            decode_centers({"centers": [1, 2]})


class TestFunctionCodec:
    def _function(self):
        ctx = AlgebraContext(Centers([1.0, -1.0]))
        ss = SampleSet(ctx, [3.0, -1.0j])
        return VectorFunction(ss, [[2.0, 1.0j], [0.0, -1.0]])

    def test_round_trip(self):
        f = self._function()
        got = decode_function(encode_function(f))
        assert np.array_equal(got.values, f.values)
        assert np.array_equal(got.samples.points, f.samples.points)
        assert np.array_equal(got.ctx.lambdas, f.ctx.lambdas)

    def test_json_text_round_trip_is_stable(self):
        # dumps sorts keys, so encode -> dumps is deterministic and a
        # re-parse of its own output reproduces the byte string.
        f = self._function()
        text = dumps(encode_function(f))
        again = dumps(encode_function(decode_function(loads(text))))
        assert text == again

    def test_validation(self):
        good = encode_function(self._function())
        with pytest.raises(MalformedInput, match="centers"):
            decode_function({"samples": good["samples"]})
        with pytest.raises(MalformedInput, match="samples"):
            decode_function({"centers": good["centers"], "samples": []})
        bad = {"centers": good["centers"],
               "samples": [{"w": [0, 0], "f": [[1, 0]]}]}
        with pytest.raises(MalformedInput, match="components"):
            decode_function(bad)
        with pytest.raises(MalformedInput, match=r"samples\[0\]"):
            decode_function({"centers": good["centers"], "samples": [{}]})


class TestPhiSamples:
    def test_decode(self):
        obj = [{"w": [3.0, 0.0],
                "values": [{"z": [2.0, 0.0], "phi": [3.0, 0.0]},
                           {"z": [-2.0, 0.0], "phi": [-1.0, 0.0]}]}]
        got = decode_phi_samples(obj)
        assert len(got) == 1
        w, pairs = got[0]
        assert w == 3.0 + 0j
        assert pairs == [(2.0 + 0j, 3.0 + 0j), (-2.0 + 0j, -1.0 + 0j)]

    def test_validation(self):
        with pytest.raises(MalformedInput):
            decode_phi_samples([])
        with pytest.raises(MalformedInput, match="values"):
            decode_phi_samples([{"w": 0.0, "values": []}])
        with pytest.raises(MalformedInput, match="phi"):
            decode_phi_samples([{"w": 0.0, "values": [{"z": 0.0}]}])


class TestSpectrumCodec:
    def test_round_trip(self):
        s = SpectrumData([(2.0 - 1.0j, 1), (0.0, 0)])
        got = decode_spectrum(encode_spectrum(s))
        assert got.entries == s.entries

    def test_validation(self):
        with pytest.raises(MalformedInput, match="entries"):
            decode_spectrum({})
        with pytest.raises(MalformedInput, match="alpha"):
            decode_spectrum({"entries": [{"n": 1}]})
        with pytest.raises(MalformedInput, match="n"):
            decode_spectrum({"entries": [{"alpha": 0.0, "n": "x"}]})
        with pytest.raises(MalformedInput, match="n"):
            decode_spectrum({"entries": [{"alpha": 0.0, "n": float("inf")}]})
        for n in (0.5, True, False, "1", None, [1]):
            with pytest.raises(MalformedInput, match=r"entries\[0\]\.n"):
                decode_spectrum({"entries": [{"alpha": 0.0, "n": n}]})
        assert decode_spectrum(
            {"entries": [{"alpha": 0.0, "n": 2.0}]}).entries == ((0j, 2),)
        # duplicate eigenvalue rejected through the constructor
        with pytest.raises(MalformedInput):
            decode_spectrum({"entries": [{"alpha": 1.0, "n": 0},
                                         {"alpha": 1.0, "n": 1}]})


class TestMatrixSpecCodec:
    def test_round_trip(self):
        spec = MatrixSpec([(1.0, 2), (3.0 - 1.0j, 1)],
                          similarity_seed=4, target_cond=12.0)
        got = decode_matrix_spec(encode_matrix_spec(spec))
        assert got == spec

    def test_defaults(self):
        got = decode_matrix_spec({"blocks": [{"alpha": 0.0, "size": 2}]})
        assert got.similarity_seed is None
        assert got.target_cond == 1.0

    def test_validation(self):
        with pytest.raises(MalformedInput, match="blocks"):
            decode_matrix_spec({"blocks": []})
        with pytest.raises(MalformedInput, match="size"):
            decode_matrix_spec({"blocks": [{"alpha": 0.0, "size": "two"}]})
        with pytest.raises(MalformedInput, match="size"):
            decode_matrix_spec({"blocks": [{"alpha": 0.0, "size": float("inf")}]})
        with pytest.raises(MalformedInput, match="similarity_seed"):
            decode_matrix_spec({"blocks": [{"alpha": 0.0, "size": 1}],
                                "similarity_seed": "yes"})
        for size in (2.5, True, "1"):
            with pytest.raises(MalformedInput, match="size"):
                decode_matrix_spec({"blocks": [{"alpha": 0.0, "size": size}]})
        for seed in (3.9, True, "1"):
            with pytest.raises(MalformedInput, match="similarity_seed"):
                decode_matrix_spec({"blocks": [{"alpha": 0.0, "size": 1}],
                                    "similarity_seed": seed})
        got = decode_matrix_spec({"blocks": [{"alpha": 0.0, "size": 2.0}],
                                  "similarity_seed": 3.0})
        assert got.blocks == ((0j, 2),) and got.similarity_seed == 3


class TestLoads:
    def test_bad_json_reports_field(self):
        with pytest.raises(MalformedInput, match="config"):
            loads("{not json", "config")

    def test_round_trip(self):
        obj = {"a": [1, 2], "b": {"c": None}}
        assert loads(dumps(obj)) == obj

    def test_deep_nesting_is_malformed(self):
        # the json parser gives up with a RecursionError past the limit
        with pytest.raises(MalformedInput, match="nested too deeply"):
            loads("[" * 100000 + "]" * 100000, "deep")
