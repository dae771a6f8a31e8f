"""JSON wire formats.

Complex numbers travel as two-element arrays [re, im].  Matrices are
{"rows": r, "cols": c, "data": [...]} with data flat in row-major order.
Every decoder raises MalformedInput naming the offending field, so CLI
users get exit code 2 with a usable message instead of a traceback.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .algebra import AlgebraContext, SampleSet, VectorFunction
from .calculus import SpectrumData, TestMatrixSpec
from .config import DEFAULT_TOL, Tolerances
from .errors import MalformedInput
from .polynomials import Centers, Polynomial

__all__ = [
    "encode_complex", "decode_complex",
    "encode_complex_list", "decode_complex_list",
    "encode_matrix", "decode_matrix",
    "encode_polynomial", "decode_polynomial",
    "encode_centers", "decode_centers",
    "encode_function", "decode_function",
    "decode_phi_samples",
    "encode_spectrum", "decode_spectrum",
    "encode_matrix_spec", "decode_matrix_spec",
    "dumps", "loads",
]


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(obj, field: str = "value") -> complex:
    parts = obj if isinstance(obj, (list, tuple)) and len(obj) == 2 else [obj]
    if not all(isinstance(t, (int, float)) and not isinstance(t, bool)
               for t in parts):
        raise MalformedInput(f"{field}: expected a number or [re, im] pair")
    # abs(nan) <= max is false, and huge JSON integers compare exactly.
    if not all(abs(t) <= sys.float_info.max for t in parts):
        raise MalformedInput(f"{field}: expected finite numbers")
    return complex(*parts)


def encode_complex_list(zs) -> list:
    return [encode_complex(z) for z in zs]


def decode_complex_list(obj, field: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise MalformedInput(f"{field}: expected a nonempty array")
    return np.array(
        [decode_complex(t, f"{field}[{i}]") for i, t in enumerate(obj)],
        dtype=np.complex128,
    )


def _integer(value, field: str) -> int:
    """A JSON integer, or a float with an integral value (2.0)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise MalformedInput(f"{field}: expected an integer")


def _records(obj, field: str, *keys):
    """Yield (tag, record) over a nonempty array of objects with ``keys``."""
    if not isinstance(obj, list) or not obj:
        raise MalformedInput(f"{field}: expected a nonempty array")
    for i, rec in enumerate(obj):
        tag = f"{field}[{i}]"
        if not isinstance(rec, dict) or not all(k in rec for k in keys):
            raise MalformedInput(
                f"{tag}: expected an object with {' and '.join(keys)}")
        yield tag, rec


def encode_matrix(a) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("matrix encoding needs a 2-d array")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [encode_complex(z) for z in a.reshape(-1)],
    }


def decode_matrix(obj, field: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise MalformedInput(f"{field}: expected an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise MalformedInput(f"{field}.{key}: missing")
    r = _integer(obj["rows"], f"{field}.rows")
    c = _integer(obj["cols"], f"{field}.cols")
    if r < 1 or c < 1:
        raise MalformedInput(f"{field}.rows/cols: must be positive")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != r * c:
        raise MalformedInput(
            f"{field}.data: expected {r * c} entries, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    flat = [decode_complex(t, f"{field}.data[{i}]") for i, t in enumerate(data)]
    return np.array(flat, dtype=np.complex128).reshape(r, c)


def encode_polynomial(q: Polynomial) -> dict:
    return {"coeffs": encode_complex_list(q.coeffs)}


def decode_polynomial(obj, field: str = "polynomial") -> Polynomial:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise MalformedInput(f"{field}.coeffs: missing")
    return Polynomial(decode_complex_list(obj["coeffs"], f"{field}.coeffs"))


def encode_centers(c: Centers) -> dict:
    return {"lambdas": encode_complex_list(c.lambdas)}


def decode_centers(obj, field: str = "centers",
                   tol: Tolerances = DEFAULT_TOL) -> Centers:
    # Accepts {"lambdas": [...]} or the bare list-of-values shorthand.
    if isinstance(obj, list):
        return Centers(decode_complex_list(obj, field), tol)
    if not isinstance(obj, dict) or "lambdas" not in obj:
        raise MalformedInput(f"{field}.lambdas: missing")
    return Centers(decode_complex_list(obj["lambdas"], f"{field}.lambdas"), tol)


def encode_function(f: VectorFunction) -> dict:
    return {
        "centers": encode_complex_list(f.ctx.centers.lambdas),
        "samples": [
            {"w": encode_complex(w), "f": encode_complex_list(f.values[:, i])}
            for i, w in enumerate(f.samples.points)
        ],
    }


def decode_function(obj, field: str = "function",
                    tol: Tolerances = DEFAULT_TOL) -> VectorFunction:
    if not isinstance(obj, dict):
        raise MalformedInput(f"{field}: expected an object")
    if "centers" not in obj:
        raise MalformedInput(f"{field}.centers: missing")
    centers = Centers(decode_complex_list(obj["centers"], f"{field}.centers"),
                      tol)
    ctx = AlgebraContext(centers, tol)
    ws, cols = [], []
    for tag, s in _records(obj.get("samples"), f"{field}.samples", "w", "f"):
        ws.append(decode_complex(s["w"], f"{tag}.w"))
        col = decode_complex_list(s["f"], f"{tag}.f")
        if col.shape[0] != ctx.d:
            raise MalformedInput(
                f"{tag}.f: expected {ctx.d} components, got {col.shape[0]}"
            )
        cols.append(col)
    samples = SampleSet(ctx, np.array(ws, dtype=np.complex128))
    return VectorFunction(samples, np.column_stack(cols))


def decode_phi_samples(obj, field: str = "phi") -> list:
    """[{w, values: [{z, phi}]}] -> [(w, [(z, phi), ...]), ...]."""
    out = []
    for tag, group in _records(obj, field, "w", "values"):
        w = decode_complex(group["w"], f"{tag}.w")
        entries = _records(group["values"], f"{tag}.values", "z", "phi")
        out.append((w, [(decode_complex(e["z"], f"{etag}.z"),
                         decode_complex(e["phi"], f"{etag}.phi"))
                        for etag, e in entries]))
    return out


def encode_spectrum(s: SpectrumData) -> dict:
    return {
        "entries": [
            {"alpha": encode_complex(a), "n": int(n)} for a, n in s.entries
        ]
    }


def decode_spectrum(obj, field: str = "spectrum") -> SpectrumData:
    entries = obj.get("entries") if isinstance(obj, dict) else None
    pairs = [(decode_complex(e["alpha"], f"{tag}.alpha"),
              _integer(e["n"], f"{tag}.n"))
             for tag, e in _records(entries, f"{field}.entries", "alpha", "n")]
    try:
        return SpectrumData(pairs)
    except ValueError as exc:
        raise MalformedInput(f"{field}: {exc}") from None


def encode_matrix_spec(spec: TestMatrixSpec) -> dict:
    return {
        "blocks": [
            {"alpha": encode_complex(a), "size": int(s)}
            for a, s in spec.blocks
        ],
        "similarity_seed": spec.similarity_seed,
        "target_cond": spec.target_cond,
    }


def decode_matrix_spec(obj, field: str = "matrix_spec") -> TestMatrixSpec:
    raw = obj.get("blocks") if isinstance(obj, dict) else None
    blocks = [(decode_complex(b["alpha"], f"{tag}.alpha"),
               _integer(b["size"], f"{tag}.size"))
              for tag, b in _records(raw, f"{field}.blocks", "alpha", "size")]
    seed = obj.get("similarity_seed")
    if seed is not None:
        seed = _integer(seed, f"{field}.similarity_seed")
    try:
        cond = float(obj.get("target_cond", 1.0))
    except (TypeError, ValueError, OverflowError):
        raise MalformedInput(f"{field}.target_cond: expected a number") from None
    try:
        return TestMatrixSpec(blocks, seed, cond)
    except ValueError as exc:
        raise MalformedInput(f"{field}: {exc}") from None


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def loads(text: str, field: str = "input"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{field}: invalid JSON ({exc.msg} at "
                             f"line {exc.lineno})") from None
    except RecursionError:
        raise MalformedInput(f"{field}: JSON nested too deeply") from None
