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
    try:
        r, c = int(obj["rows"]), int(obj["cols"])
    except (TypeError, ValueError, OverflowError):
        raise MalformedInput(f"{field}.rows/cols: expected integers") from None
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
    if "samples" not in obj or not isinstance(obj["samples"], list) \
            or not obj["samples"]:
        raise MalformedInput(f"{field}.samples: expected a nonempty array")
    centers = Centers(decode_complex_list(obj["centers"], f"{field}.centers"),
                      tol)
    ctx = AlgebraContext(centers, tol)
    ws, cols = [], []
    for i, s in enumerate(obj["samples"]):
        tag = f"{field}.samples[{i}]"
        if not isinstance(s, dict) or "w" not in s or "f" not in s:
            raise MalformedInput(f"{tag}: expected an object with w and f")
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
    if not isinstance(obj, list) or not obj:
        raise MalformedInput(f"{field}: expected a nonempty array")
    out = []
    for i, group in enumerate(obj):
        tag = f"{field}[{i}]"
        if not isinstance(group, dict) or "w" not in group \
                or "values" not in group:
            raise MalformedInput(f"{tag}: expected an object with w and values")
        w = decode_complex(group["w"], f"{tag}.w")
        vals = group["values"]
        if not isinstance(vals, list) or not vals:
            raise MalformedInput(f"{tag}.values: expected a nonempty array")
        pairs = []
        for k, entry in enumerate(vals):
            etag = f"{tag}.values[{k}]"
            if not isinstance(entry, dict) or "z" not in entry \
                    or "phi" not in entry:
                raise MalformedInput(f"{etag}: expected an object with z and phi")
            pairs.append((decode_complex(entry["z"], f"{etag}.z"),
                          decode_complex(entry["phi"], f"{etag}.phi")))
        out.append((w, pairs))
    return out


def encode_spectrum(s: SpectrumData) -> dict:
    return {
        "entries": [
            {"alpha": encode_complex(a), "n": int(n)} for a, n in s.entries
        ]
    }


def decode_spectrum(obj, field: str = "spectrum") -> SpectrumData:
    if not isinstance(obj, dict) or "entries" not in obj \
            or not isinstance(obj["entries"], list) or not obj["entries"]:
        raise MalformedInput(f"{field}.entries: expected a nonempty array")
    entries = []
    for i, e in enumerate(obj["entries"]):
        tag = f"{field}.entries[{i}]"
        if not isinstance(e, dict) or "alpha" not in e or "n" not in e:
            raise MalformedInput(f"{tag}: expected an object with alpha and n")
        try:
            n = int(e["n"])
        except (TypeError, ValueError, OverflowError):
            raise MalformedInput(f"{tag}.n: expected an integer") from None
        entries.append((decode_complex(e["alpha"], f"{tag}.alpha"), n))
    try:
        return SpectrumData(entries)
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
    if not isinstance(obj, dict) or "blocks" not in obj \
            or not isinstance(obj["blocks"], list) or not obj["blocks"]:
        raise MalformedInput(f"{field}.blocks: expected a nonempty array")
    blocks = []
    for i, b in enumerate(obj["blocks"]):
        tag = f"{field}.blocks[{i}]"
        if not isinstance(b, dict) or "alpha" not in b or "size" not in b:
            raise MalformedInput(f"{tag}: expected an object with alpha and size")
        try:
            size = int(b["size"])
        except (TypeError, ValueError, OverflowError):
            raise MalformedInput(f"{tag}.size: expected an integer") from None
        blocks.append((decode_complex(b["alpha"], f"{tag}.alpha"), size))
    seed = obj.get("similarity_seed")
    if seed is not None:
        try:
            seed = int(seed)
        except (TypeError, ValueError, OverflowError):
            raise MalformedInput(
                f"{field}.similarity_seed: expected an integer or null"
            ) from None
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
