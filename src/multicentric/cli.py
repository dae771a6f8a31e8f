"""Command line front end.

Every operation takes JSON in (inline or as a file path) and writes JSON
out, so results can be piped between invocations.  Exit codes: 0 on
success, 1 on numerical failure (no convergence, singular system, not
invertible, failed verification), 2 on usage or validation errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import serialize as ser
from . import verify as verify_mod
from .algebra import (
    AlgebraContext,
    SampleSet,
    characters_at,
    character_residual,
    characteristic,
    invert,
    op_norm,
    polyprod,
    radical_basis_at,
    spectrum,
    spectrum_multiset,
    sup_norm,
)
from .calculus import chi_A, hermite_matrix_function, spectral_mapping_check
from .config import Tolerances
from .errors import (
    ContextMismatch,
    MalformedInput,
    NumericalFailure,
    ValidationFailure,
)
from .polynomials import fiber, roots
from .transform import gelfand_eval, inverse_transform

__all__ = ["main", "entry"]


def _resolve_json(text: str, field: str):
    """Inline JSON or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith(("{", "[")) or stripped[:1].isdigit() \
            or stripped.startswith("-"):
        return ser.loads(stripped, field)
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return ser.loads(fh.read(), field)
    raise MalformedInput(
        f"{field}: {text!r} is neither inline JSON nor an existing file")


def _scalar(text: str, field: str) -> complex:
    return ser.decode_complex(_resolve_json(text, field), field)


def _tol(args) -> Tolerances:
    return Tolerances(eq_tol=args.tol, crit_tol=args.crit_tol,
                      root_tol=args.root_tol)


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_flatten(obj[k], f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, json.dumps(obj)))
    return rows


def _emit(result, args, rows=None) -> None:
    """Write the result dict as JSON, or as CSV when requested."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows is None:
            writer.writerow(["field", "value"])
            for path, value in _flatten(result):
                writer.writerow([path, value])
        else:
            for row in rows:
                writer.writerow(row)
        text = buf.getvalue()
    else:
        text = ser.dumps(result) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_function(args, tol):
    f = ser.decode_function(_resolve_json(args.f, "f"), "f", tol)
    if getattr(args, "centers", None):
        c = ser.decode_centers(_resolve_json(args.centers, "centers"),
                               "centers", tol)
        if not np.array_equal(np.sort_complex(c.lambdas),
                              np.sort_complex(f.ctx.centers.lambdas)):
            raise ContextMismatch(
                "--centers disagrees with the centers embedded in --f")
    return f


def _load_pair(args, tol):
    f = _load_function(args, tol)
    g = ser.decode_function(_resolve_json(args.g, "g"), "g", tol)
    if not f.samples.same_as(g.samples):
        raise ContextMismatch(
            "f and g carry different centers or sample points")
    return f, f.__class__(f.samples, g.values)


# ------------------------------------------------------------- commands


def cmd_roots(args) -> int:
    tol = _tol(args)
    q = ser.decode_polynomial(_resolve_json(args.poly, "poly"), "poly")
    rts = roots(q, tol)
    _emit({"roots": ser.encode_complex_list(rts)}, args)
    return 0


def cmd_basis(args) -> int:
    tol = _tol(args)
    c = ser.decode_centers(_resolve_json(args.centers, "centers"),
                           "centers", tol)
    ctx = AlgebraContext(c, tol)
    z = _scalar(args.z, "z")
    vals = ctx.basis_values(np.asarray(z))
    _emit({"z": ser.encode_complex(z),
           "values": ser.encode_complex_list(vals)}, args)
    return 0


def cmd_fiber(args) -> int:
    tol = _tol(args)
    c = ser.decode_centers(_resolve_json(args.centers, "centers"),
                           "centers", tol)
    w = _scalar(args.w, "w")
    fib = fiber(c, w, tol)
    _emit({"w": ser.encode_complex(w),
           "points": ser.encode_complex_list(fib.points),
           "is_critical": fib.is_critical}, args)
    return 0


def cmd_gelfand(args) -> int:
    tol = _tol(args)
    f = _load_function(args, tol)
    z = _scalar(args.z, "z")
    val = gelfand_eval(f, z)
    _emit({"z": ser.encode_complex(z),
           "value": ser.encode_complex(val)}, args)
    return 0


def cmd_invtransform(args) -> int:
    tol = _tol(args)
    c = ser.decode_centers(_resolve_json(args.centers, "centers"),
                           "centers", tol)
    ctx = AlgebraContext(c, tol)
    groups = ser.decode_phi_samples(_resolve_json(args.phi, "phi"), "phi")
    samples = []
    for w, pairs in groups:
        vec = inverse_transform(ctx, pairs, w)
        samples.append({"w": ser.encode_complex(w),
                        "f": ser.encode_complex_list(vec)})
    _emit({"centers": ser.encode_complex_list(c.lambdas),
           "samples": samples}, args)
    return 0


def cmd_polyprod(args) -> int:
    tol = _tol(args)
    f, g = _load_pair(args, tol)
    _emit(ser.encode_function(polyprod(f, g)), args)
    return 0


def cmd_norm(args) -> int:
    tol = _tol(args)
    f = _load_function(args, tol)
    _emit({"sup_norm": sup_norm(f), "op_norm": op_norm(f)}, args)
    return 0


def cmd_spectrum(args) -> int:
    tol = _tol(args)
    f = _load_function(args, tol)
    _emit({"values": ser.encode_complex_list(spectrum(f)),
           "multiset": ser.encode_complex_list(spectrum_multiset(f))}, args)
    return 0


def cmd_charfunc(args) -> int:
    tol = _tol(args)
    f = _load_function(args, tol)
    cc = characteristic(f)
    out = {
        "points": ser.encode_complex_list(cc.points),
        "coeffs": [ser.encode_complex_list(row) for row in cc.coeffs],
    }
    if args.lam is not None:
        lam = _scalar(args.lam, "lam")
        out["lam"] = ser.encode_complex(lam)
        out["pi_values"] = ser.encode_complex_list(cc.pi_values(lam))
    _emit(out, args)
    return 0


def cmd_invert(args) -> int:
    tol = _tol(args)
    f = _load_function(args, tol)
    _emit(ser.encode_function(invert(f)), args)
    return 0


def cmd_characters(args) -> int:
    tol = _tol(args)
    c = ser.decode_centers(_resolve_json(args.centers, "centers"),
                           "centers", tol)
    ctx = AlgebraContext(c, tol)
    w0 = _scalar(args.w0, "w0")
    ss = SampleSet(ctx, [w0])
    etas = characters_at(ctx, ss, w0)
    _emit({
        "w0": ser.encode_complex(w0),
        "characters": [ser.encode_complex_list(row) for row in etas],
        "residual": character_residual(ctx, w0, etas),
    }, args)
    return 0


def cmd_radical(args) -> int:
    tol = _tol(args)
    c = ser.decode_centers(_resolve_json(args.centers, "centers"),
                           "centers", tol)
    ctx = AlgebraContext(c, tol)
    w0 = _scalar(args.w0, "w0")
    basis = radical_basis_at(ctx, w0)
    _emit({
        "w0": ser.encode_complex(w0),
        "basis": [ser.encode_complex_list(row) for row in basis],
    }, args)
    return 0


def _chi_ingredients(args, tol):
    a = ser.decode_matrix(_resolve_json(args.matrix, "matrix"), "matrix")
    s = ser.decode_spectrum(_resolve_json(args.spectrum, "spectrum"),
                            "spectrum")
    f = _load_function(args, tol)
    if args.poly:
        p = ser.decode_polynomial(_resolve_json(args.poly, "poly"), "poly")
    else:
        p = f.ctx.p
    return a, s, p, f


def cmd_chi(args) -> int:
    tol = _tol(args)
    a, s, p, f = _chi_ingredients(args, tol)
    _emit(ser.encode_matrix(chi_A(a, s, p, f, tol)), args)
    return 0


def cmd_hermite(args) -> int:
    tol = _tol(args)
    a = ser.decode_matrix(_resolve_json(args.matrix, "matrix"), "matrix")
    s = ser.decode_spectrum(_resolve_json(args.spectrum, "spectrum"),
                            "spectrum")
    raw = _resolve_json(args.values, "values")
    if not isinstance(raw, list) or not raw:
        raise MalformedInput("values: expected a nonempty array of arrays")
    data = [ser.decode_complex_list(row, f"values[{i}]")
            for i, row in enumerate(raw)]
    _emit(ser.encode_matrix(hermite_matrix_function(a, s, data, tol)), args)
    return 0


def cmd_specmap(args) -> int:
    tol = _tol(args)
    a, s, p, f = _chi_ingredients(args, tol)
    rep = spectral_mapping_check(a, s, p, f, tol)
    _emit({
        "computed": ser.encode_complex_list(rep.computed),
        "predicted": ser.encode_complex_list(rep.predicted),
        "hausdorff": rep.hausdorff,
        "passed": rep.passed,
    }, args)
    return 0


def cmd_verify(args) -> int:
    overrides = {"cases": args.cases, "d": args.d, "samples": args.samples}
    for name, value in overrides.items():
        if value is not None and value < 1:
            raise ValueError(f"--{name} must be at least 1, got {value}")
    if args.suite == "all":
        reports = verify_mod.run_all(args.seed, **overrides)
    else:
        reports = [verify_mod.run_suite(args.suite, args.seed, **overrides)]
    passed = all(r.passed for r in reports)
    if len(reports) == 1:
        result = reports[0].to_dict()
    else:
        result = {"seed": args.seed, "passed": passed,
                  "suites": [r.to_dict() for r in reports]}
    rows = []
    for i, r in enumerate(reports):
        rr = r.to_rows()
        rows.extend(rr if i == 0 else rr[1:])
    _emit(result, args, rows=rows)
    return 0 if passed else 1


# ------------------------------------------------------------- plumbing


def _add_global_flags(target, defaults: bool) -> None:
    # The same flags are registered on the root parser (with real defaults)
    # and on every subparser (defaulting to SUPPRESS), so they are accepted
    # both before and after the subcommand; a post-subcommand value wins.
    kw = (lambda v: {"default": v}) if defaults else (
        lambda v: {"default": argparse.SUPPRESS})
    target.add_argument("--tol", type=float, **kw(1e-10),
                        help="equality tolerance (default 1e-10)")
    target.add_argument("--crit-tol", type=float, **kw(1e-8),
                        help="critical-point tolerance (default 1e-8)")
    target.add_argument("--root-tol", type=float, **kw(1e-10),
                        help="root residual tolerance (default 1e-10)")
    target.add_argument("--seed", type=int, **kw(0),
                        help="seed for randomized verification")
    target.add_argument("--format", choices=("json", "csv"), **kw("json"))
    target.add_argument("--output", **kw(None),
                        help="write the result to this file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multicentric",
        description=("Vector-function algebra over polynomial fibers: "
                     "transforms, spectra and the matrix calculus."),
    )
    _add_global_flags(parser, defaults=True)
    flags = argparse.ArgumentParser(add_help=False)
    _add_global_flags(flags, defaults=False)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[flags], **kw))

    sp = sub.add_parser("roots", help="roots of a polynomial")
    sp.add_argument("--poly", required=True)
    sp.set_defaults(fn=cmd_roots)

    sp = sub.add_parser("basis", help="interpolation basis values at z")
    sp.add_argument("--centers", required=True)
    sp.add_argument("--z", required=True)
    sp.set_defaults(fn=cmd_basis)

    sp = sub.add_parser("fiber", help="preimages of w under the centers' polynomial")
    sp.add_argument("--centers", required=True)
    sp.add_argument("--w", required=True)
    sp.set_defaults(fn=cmd_fiber)

    sp = sub.add_parser("gelfand", help="scalar representation value at z")
    sp.add_argument("--f", required=True)
    sp.add_argument("--centers")
    sp.add_argument("--z", required=True)
    sp.set_defaults(fn=cmd_gelfand)

    sp = sub.add_parser("invtransform",
                        help="vector function from scalar samples on fibers")
    sp.add_argument("--centers", required=True)
    sp.add_argument("--phi", required=True,
                    help='[{"w": .., "values": [{"z": .., "phi": ..}, ..]}, ..]')
    sp.set_defaults(fn=cmd_invtransform)

    sp = sub.add_parser("polyprod", help="product in the algebra")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--centers")
    sp.set_defaults(fn=cmd_polyprod)

    sp = sub.add_parser("norm", help="sup and operator norms")
    sp.add_argument("--f", required=True)
    sp.add_argument("--centers")
    sp.set_defaults(fn=cmd_norm)

    sp = sub.add_parser("spectrum", help="representation values on all fibers")
    sp.add_argument("--f", required=True)
    sp.add_argument("--centers")
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("charfunc",
                        help="elementary symmetric coefficients per sample")
    sp.add_argument("--f", required=True)
    sp.add_argument("--centers")
    sp.add_argument("--lam", help="also evaluate the characteristic at lam")
    sp.set_defaults(fn=cmd_charfunc)

    sp = sub.add_parser("invert", help="inverse in the algebra")
    sp.add_argument("--f", required=True)
    sp.add_argument("--centers")
    sp.set_defaults(fn=cmd_invert)

    sp = sub.add_parser("characters",
                        help="multiplicative functionals over w0")
    sp.add_argument("--centers", required=True)
    sp.add_argument("--w0", required=True)
    sp.set_defaults(fn=cmd_characters)

    sp = sub.add_parser("radical", help="radical directions over w0")
    sp.add_argument("--centers", required=True)
    sp.add_argument("--w0", required=True)
    sp.set_defaults(fn=cmd_radical)

    sp = sub.add_parser("chi", help="matrix functional calculus chi_A(f)")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--spectrum", required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--poly", help="override the change of variable")
    sp.add_argument("--centers")
    sp.set_defaults(fn=cmd_chi)

    sp = sub.add_parser("hermite",
                        help="matrix function from derivative data")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--spectrum", required=True)
    sp.add_argument("--values", required=True,
                    help="per eigenvalue: [phi, phi', ...] as [re,im] pairs")
    sp.set_defaults(fn=cmd_hermite)

    sp = sub.add_parser("specmap",
                        help="spectral mapping check for chi_A(f)")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--spectrum", required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--poly")
    sp.add_argument("--centers")
    sp.set_defaults(fn=cmd_specmap)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite",
                    choices=sorted(verify_mod.SUITES) + ["all"])
    sp.add_argument("--cases", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationFailure, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
