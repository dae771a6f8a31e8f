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
    if stripped.startswith(("{", "[", "-")) or stripped[:1].isdigit():
        return ser.loads(stripped, field)
    try:
        with open(text, encoding="utf-8") as fh:
            return ser.loads(fh.read(), field)
    except FileNotFoundError:
        raise MalformedInput(f"--{field}: {text!r} is neither inline JSON "
                             "nor an existing file") from None
    except OSError as exc:
        raise MalformedInput(
            f"--{field}: cannot read {text!r} ({exc.strerror})") from None


def _read(args, name: str, decode, *extra):
    """Decode the argument --name, inline JSON or a file, with decode."""
    return decode(_resolve_json(getattr(args, name), name), name, *extra)


def _centers(args, tol):
    return _read(args, "centers", ser.decode_centers, tol)


def _context(args, tol) -> AlgebraContext:
    return AlgebraContext(_centers(args, tol), tol)


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
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationFailure(f"--output: cannot write {args.output!r} "
                                    f"({exc.strerror})") from None
    else:
        sys.stdout.write(text)


def _load_function(args, tol):
    f = _read(args, "f", ser.decode_function, tol)
    if args.centers:
        c = _centers(args, tol)
        if not np.array_equal(np.sort_complex(c.lambdas),
                              np.sort_complex(f.ctx.centers.lambdas)):
            raise ContextMismatch(
                "--centers disagrees with the centers embedded in --f")
    return f


def _load_pair(args, tol):
    f = _load_function(args, tol)
    g = _read(args, "g", ser.decode_function, tol)
    if not f.samples.same_as(g.samples):
        raise ContextMismatch(
            "f and g carry different centers or sample points")
    return f, f.__class__(f.samples, g.values)


def _matrix_and_spectrum(args):
    return (_read(args, "matrix", ser.decode_matrix),
            _read(args, "spectrum", ser.decode_spectrum))


def _decode_rows(obj, field: str) -> list:
    if not isinstance(obj, list) or not obj:
        raise MalformedInput(f"{field}: expected a nonempty array of arrays")
    return [ser.decode_complex_list(row, f"{field}[{i}]")
            for i, row in enumerate(obj)]


# ------------------------------------------------------------- commands


def cmd_roots(args, tol) -> int:
    rts = roots(_read(args, "poly", ser.decode_polynomial), tol)
    _emit({"roots": ser.encode_complex_list(rts)}, args)
    return 0


def cmd_basis(args, tol) -> int:
    ctx = _context(args, tol)
    z = _read(args, "z", ser.decode_complex)
    vals = ctx.basis_values(np.asarray(z))
    _emit({"z": ser.encode_complex(z),
           "values": ser.encode_complex_list(vals)}, args)
    return 0


def cmd_fiber(args, tol) -> int:
    c = _centers(args, tol)
    w = _read(args, "w", ser.decode_complex)
    fib = fiber(c, w, tol)
    _emit({"w": ser.encode_complex(w),
           "points": ser.encode_complex_list(fib.points),
           "is_critical": fib.is_critical}, args)
    return 0


def cmd_gelfand(args, tol) -> int:
    f = _load_function(args, tol)
    z = _read(args, "z", ser.decode_complex)
    val = gelfand_eval(f, z)
    _emit({"z": ser.encode_complex(z),
           "value": ser.encode_complex(val)}, args)
    return 0


def cmd_invtransform(args, tol) -> int:
    ctx = _context(args, tol)
    groups = _read(args, "phi", ser.decode_phi_samples)
    samples = []
    for w, pairs in groups:
        vec = inverse_transform(ctx, pairs, w)
        samples.append({"w": ser.encode_complex(w),
                        "f": ser.encode_complex_list(vec)})
    _emit({"centers": ser.encode_complex_list(ctx.centers.lambdas),
           "samples": samples}, args)
    return 0


def cmd_polyprod(args, tol) -> int:
    f, g = _load_pair(args, tol)
    _emit(ser.encode_function(polyprod(f, g)), args)
    return 0


def cmd_norm(args, tol) -> int:
    f = _load_function(args, tol)
    _emit({"sup_norm": sup_norm(f), "op_norm": op_norm(f)}, args)
    return 0


def cmd_spectrum(args, tol) -> int:
    f = _load_function(args, tol)
    _emit({"values": ser.encode_complex_list(spectrum(f)),
           "multiset": ser.encode_complex_list(spectrum_multiset(f))}, args)
    return 0


def cmd_charfunc(args, tol) -> int:
    f = _load_function(args, tol)
    cc = characteristic(f)
    out = {
        "points": ser.encode_complex_list(cc.points),
        "coeffs": [ser.encode_complex_list(row) for row in cc.coeffs],
    }
    if args.lam is not None:
        lam = _read(args, "lam", ser.decode_complex)
        out["lam"] = ser.encode_complex(lam)
        out["pi_values"] = ser.encode_complex_list(cc.pi_values(lam))
    _emit(out, args)
    return 0


def cmd_invert(args, tol) -> int:
    f = _load_function(args, tol)
    _emit(ser.encode_function(invert(f)), args)
    return 0


def cmd_characters(args, tol) -> int:
    ctx = _context(args, tol)
    w0 = _read(args, "w0", ser.decode_complex)
    ss = SampleSet(ctx, [w0])
    etas = characters_at(ctx, ss, w0)
    _emit({
        "w0": ser.encode_complex(w0),
        "characters": [ser.encode_complex_list(row) for row in etas],
        "residual": character_residual(ctx, w0, etas),
    }, args)
    return 0


def cmd_radical(args, tol) -> int:
    ctx = _context(args, tol)
    w0 = _read(args, "w0", ser.decode_complex)
    basis = radical_basis_at(ctx, w0)
    _emit({
        "w0": ser.encode_complex(w0),
        "basis": [ser.encode_complex_list(row) for row in basis],
    }, args)
    return 0


def _chi_ingredients(args, tol):
    a, s = _matrix_and_spectrum(args)
    f = _load_function(args, tol)
    if args.poly:
        p = _read(args, "poly", ser.decode_polynomial)
    else:
        p = f.ctx.p
    return a, s, p, f


def cmd_chi(args, tol) -> int:
    a, s, p, f = _chi_ingredients(args, tol)
    _emit(ser.encode_matrix(chi_A(a, s, p, f, tol)), args)
    return 0


def cmd_hermite(args, tol) -> int:
    a, s = _matrix_and_spectrum(args)
    data = _read(args, "values", _decode_rows)
    _emit(ser.encode_matrix(hermite_matrix_function(a, s, data)), args)
    return 0


def cmd_specmap(args, tol) -> int:
    a, s, p, f = _chi_ingredients(args, tol)
    rep = spectral_mapping_check(a, s, p, f, tol)
    _emit({
        "computed": ser.encode_complex_list(rep.computed),
        "predicted": ser.encode_complex_list(rep.predicted),
        "hausdorff": rep.hausdorff,
        "passed": rep.passed,
    }, args)
    return 0


def cmd_verify(args, tol) -> int:
    # The suites run at the default tolerances; tol is not used.
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

    def command(name, fn, summary, *required, function=False):
        # A function command reads --f, and checks it against an optional
        # --centers.
        sp = sub.add_parser(name, help=summary)
        if function:
            sp.add_argument("--f", required=True)
            sp.add_argument("--centers")
        for flag in required:
            sp.add_argument(flag, required=True)
        sp.set_defaults(fn=fn)
        return sp

    command("roots", cmd_roots, "roots of a polynomial", "--poly")
    command("basis", cmd_basis, "interpolation basis values at z",
            "--centers", "--z")
    command("fiber", cmd_fiber, "preimages of w under the centers' polynomial",
            "--centers", "--w")
    command("gelfand", cmd_gelfand, "scalar representation value at z",
            "--z", function=True)
    sp = command("invtransform", cmd_invtransform,
                 "vector function from scalar samples on fibers", "--centers")
    sp.add_argument("--phi", required=True,
                    help='[{"w": .., "values": [{"z": .., "phi": ..}, ..]}, ..]')
    command("polyprod", cmd_polyprod, "product in the algebra", "--g",
            function=True)
    command("norm", cmd_norm, "sup and operator norms", function=True)
    command("spectrum", cmd_spectrum, "representation values on all fibers",
            function=True)
    sp = command("charfunc", cmd_charfunc,
                 "elementary symmetric coefficients per sample", function=True)
    sp.add_argument("--lam", help="also evaluate the characteristic at lam")
    command("invert", cmd_invert, "inverse in the algebra", function=True)
    command("characters", cmd_characters, "multiplicative functionals over w0",
            "--centers", "--w0")
    command("radical", cmd_radical, "radical directions over w0",
            "--centers", "--w0")
    sp = command("chi", cmd_chi, "matrix functional calculus chi_A(f)",
                 "--matrix", "--spectrum", function=True)
    sp.add_argument("--poly", help="override the change of variable")
    sp = command("hermite", cmd_hermite, "matrix function from derivative data",
                 "--matrix", "--spectrum")
    sp.add_argument("--values", required=True,
                    help="per eigenvalue: [phi, phi', ...] as [re,im] pairs")
    sp = command("specmap", cmd_specmap, "spectral mapping check for chi_A(f)",
                 "--matrix", "--spectrum", function=True)
    sp.add_argument("--poly")
    sp = command("verify", cmd_verify, "run a verification suite")
    sp.add_argument("suite", choices=sorted(verify_mod.SUITES) + ["all"])
    sp.add_argument("--cases", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        tol = Tolerances(eq_tol=args.tol, crit_tol=args.crit_tol,
                         root_tol=args.root_tol)
        return args.fn(args, tol)
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
