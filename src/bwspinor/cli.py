"""Command-line front end.

Exit codes: 0 success, 1 numeric check failure (or invalid data at a sample),
2 usage or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

import numpy as np

from . import core, verify
from .bw import (MAX_N, Amplitudes, FixedList, NullOmega, RandomTimelike,
                 StandardTime, extract, norm_integrand, standard_bw_integrand,
                 synth, valences)
from .errors import BWSpinorError, InvalidResolution, SchemaError
from .fileio import (read_amplitude_file, read_field_file, write_amplitude_file,
                     write_field_file)
from .frames import frame_for
from .pauli_lubanski import pl_eigenvalues
from .quadrature import GaussianPacket, _finite_sum, build_grid

USAGE_ERROR = 2
CHECK_ERROR = 1


def _parse_reals(text: str, count: int, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != count:
        raise argparse.ArgumentTypeError(f"{what} needs {count} comma-separated values")
    try:
        values = np.array([float(x) for x in parts])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {what}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise argparse.ArgumentTypeError(f"{what} values must be finite")
    return values


def _parse_complex_pair(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("--nu needs two comma-separated complex values")
    try:
        nu = np.array([complex(x) for x in parts])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad spinor component: {exc}") from exc
    if not (np.all(np.isfinite(nu)) and np.any(nu != 0)):
        raise argparse.ArgumentTypeError("--nu must be finite and nonzero")
    return nu


def _parse_tspec(text: str):
    if text == "standard":
        return StandardTime()
    if text == "null-omega":
        return NullOmega()
    if text.startswith("random:"):
        seed = text.split(":", 1)[1]
        if not (seed.isascii() and seed.isdigit()):
            raise argparse.ArgumentTypeError(
                f"random seed must be a non-negative integer in {text!r}")
        return RandomTimelike(int(seed))
    if text.startswith("fixed:"):
        body = text.split(":", 1)[1]
        try:
            vecs = [np.array([float(x) for x in chunk.split(",")])
                    for chunk in body.split(";")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad direction in {text!r}: {exc}") from exc
        if any(v.shape != (4,) or not np.all(np.isfinite(v)) for v in vecs):
            raise argparse.ArgumentTypeError(
                f"fixed spec needs 4 finite components per vector in {text!r}")
        return FixedList(tuple(vecs))
    raise argparse.ArgumentTypeError(f"unknown direction spec {text!r}")


def _usage(ok: bool, message: str) -> None:
    """Every usage error is an ArgumentTypeError: main reports it with exit 2."""
    if not ok:
        raise argparse.ArgumentTypeError(message)


def cmd_verify(args) -> int:
    _usage(args.trials >= 1, "--trials must be at least 1")
    _usage(args.seed >= 0, "--seed must be a non-negative integer")
    _usage(0 < args.tol < np.inf, "--tol must be a finite number > 0")
    names = verify.SUITES.keys() if args.suite == "all" else [args.suite]
    reports = verify.run_suites(list(names), args.trials, args.seed)
    residuals = [r for rep in reports.values() for r in rep.values()]
    passed = True
    for suite, rep in reports.items():
        for name, residual in rep.items():
            ok = bool(np.isfinite(residual) and residual < args.tol)
            passed = passed and ok
            print(f"{suite:8s} {name:34s} {residual:12.3e}  {'ok' if ok else 'FAIL'}")
    # np.max keeps a NaN, where max(worst, nan) would drop it
    print(f"worst residual: {np.max(residuals):.3e} (tolerance {args.tol:g})")
    return 0 if passed else CHECK_ERROR


def cmd_frame(args) -> int:
    _usage(0 <= args.mass < np.inf, "--mass must be a finite number >= 0")
    _usage(args.mass == 0 or args.nu is not None, "--nu is required for massive frames")
    p = np.concatenate([[core.shell_energy(args.p, args.mass)], args.p])
    fr = frame_for(p, args.mass, args.nu)
    half_plus, half_minus = pl_eigenvalues(fr.omega_vec, p)
    data = {
        "p": p.tolist(),
        "mass": args.mass,
        "pi": [[z.real, z.imag] for z in fr.pi],
        "omega": [[z.real, z.imag] for z in fr.omega],
        "pi_vec": fr.pi_vec.tolist(),
        "omega_vec": fr.omega_vec.tolist(),
        "omega_dot_p": float(core.minkowski(fr.omega_vec, p)),
        "lambda_plus": float(2 * half_plus),
        "lambda_minus": float(2 * half_minus),
    }
    if args.json:
        json.dump(data, sys.stdout)
        print()
    else:
        print(f"p          = {data['p']}")
        print(f"pi         = {fr.pi}")
        print(f"omega      = {fr.omega}")
        print(f"pi_vec     = {data['pi_vec']}")
        print(f"omega_vec  = {data['omega_vec']}")
        print(f"omega.p    = {data['omega_dot_p']:.7f}")
        print(f"lambda(+-) = +-{data['lambda_plus']:.7f}")
    return 0


def cmd_synth(args) -> int:
    data = read_amplitude_file(args.infile)
    amps, p = data.amplitudes, data.p
    norm = None if data.normalization == "paper-default" else data.normalization
    psi = synth(frame_for(p, amps.mass, args.nu), amps, norm)
    write_field_file(args.outfile, psi, data.weights)
    print(f"wrote {args.outfile}: n={amps.n}, mass={amps.mass}, "
          f"samples={p.shape[0]}")
    return 0


def cmd_extract(args) -> int:
    data = read_field_file(args.infile)
    psi = data.component
    amps = extract(psi, frame_for(psi.p, psi.mass, args.nu))
    write_amplitude_file(args.outfile, amps, psi.p, data.weights)
    print(f"wrote {args.outfile}: n={amps.n}, mass={amps.mass}, "
          f"samples={psi.p.shape[0]}")
    return 0


def cmd_norm(args) -> int:
    texts = args.t or ["standard"]
    specs = [_parse_tspec(text) for text in texts]
    data = read_field_file(args.infile)
    psi = data.component
    _usage(data.weights is not None, "norm needs per-sample weights in the field file")
    for text, spec in zip(texts, specs):
        count = len(spec.vectors) if isinstance(spec, FixedList) else 1
        _usage(count in (1, psi.n), f"{text!r} gives {count} direction vectors; "
               f"the field has n={psi.n}, so give 1 or {psi.n}")
    fr = frame_for(psi.p, psi.mass, args.nu)
    names = [f"norm[{text}]" for text in texts] + ["standard-bw norm"] * args.standard_bw
    integrands = ([partial(norm_integrand, psi, spec, fr) for spec in specs]
                  + [partial(standard_bw_integrand, psi)] * args.standard_bw)
    values = [_finite_sum(name, integrand, data.weights)
              for name, integrand in zip(names, integrands)]
    for text, value in zip(texts, values):
        print(f"norm[{text}] = {value!r}")
    if len(texts) > 1:
        spread = max(abs(v - values[0]) for v in values[1:len(texts)]) / max(1.0, abs(values[0]))
        print(f"max relative spread = {spread:.3e}")
    if args.standard_bw:
        print(f"standard-bw norm = {values[-1]!r}")
        if values[-1] != 0.0:
            print(f"ratio generalized/standard = {values[0] / values[-1]!r}")
    return 0


def cmd_packet(args) -> int:
    # a packet the reader would reject is a usage error here, not a file
    _usage(1 <= args.n <= MAX_N, f"--n must be in 1..{MAX_N}")
    _usage(0 < args.sigma < np.inf, "--sigma must be a finite number > 0")
    grid = build_grid(args.mass, args.half_width, args.points)
    want = len(valences(args.n, args.mass))
    try:
        coeffs = tuple(complex(c) for c in args.coeffs.split(",")) if args.coeffs \
            else (1.0,) * want
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --coeffs: {exc}") from exc
    _usage(len(coeffs) == want and np.all(np.isfinite(coeffs)),
           f"need {want} finite coefficients")
    packet = GaussianPacket(n=args.n, mass=args.mass, sign=+1, coeffs=coeffs,
                            center=tuple(args.center), sigma=args.sigma)
    amps = Amplitudes(n=args.n, mass=args.mass, sign=+1,
                      f=packet.amplitudes(grid.p))
    write_amplitude_file(args.outfile, amps, grid.p, grid.weights)
    print(f"wrote {args.outfile}: {grid.p.shape[0]} samples on a "
          f"{args.points}^3 grid, L={args.half_width}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwspinor",
        description="Spin-frame, Pauli-Lubanski, and Bargmann-Wigner norm tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument("--suite", default="all",
                          choices=["all", *verify.SUITES.keys()])
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=1e-10)
    p_verify.set_defaults(func=cmd_verify)

    p_frame = sub.add_parser("frame", help="inspect the spin-frame of a momentum")
    p_frame.add_argument("--p", type=lambda s: _parse_reals(s, 3, "--p"),
                         required=True, help="spatial momentum px,py,pz")
    p_frame.add_argument("--mass", type=float, required=True)
    p_frame.add_argument("--nu", type=_parse_complex_pair, default=None,
                         help="reference spinor a,b (massive only)")
    p_frame.add_argument("--json", action="store_true")
    p_frame.set_defaults(func=cmd_frame)

    p_synth = sub.add_parser("synth", help="amplitude file -> field file")
    p_synth.add_argument("--in", dest="infile", required=True)
    p_synth.add_argument("--out", dest="outfile", required=True)
    p_synth.add_argument("--nu", type=_parse_complex_pair, default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_extract = sub.add_parser("extract", help="field file -> amplitude file")
    p_extract.add_argument("--in", dest="infile", required=True)
    p_extract.add_argument("--out", dest="outfile", required=True)
    p_extract.add_argument("--nu", type=_parse_complex_pair, default=None)
    p_extract.set_defaults(func=cmd_extract)

    p_norm = sub.add_parser("norm", help="evaluate the generalized norm")
    p_norm.add_argument("--in", dest="infile", required=True)
    p_norm.add_argument("--t", action="append", default=None,
                        help="standard | null-omega | random:<seed> | "
                             "fixed:<t0,t1,t2,t3>[;...] (repeatable)")
    p_norm.add_argument("--nu", type=_parse_complex_pair, default=None)
    p_norm.add_argument("--standard-bw", action="store_true",
                        help="also print the standard component-sum norm")
    p_norm.set_defaults(func=cmd_norm)

    p_packet = sub.add_parser("packet",
                              help="generate a Gaussian wavepacket amplitude file")
    p_packet.add_argument("--n", type=int, required=True)
    p_packet.add_argument("--mass", type=float, required=True)
    p_packet.add_argument("--out", dest="outfile", required=True)
    p_packet.add_argument("--half-width", type=float, default=3.0)
    p_packet.add_argument("--points", type=int, default=12)
    p_packet.add_argument("--sigma", type=float, default=0.8)
    p_packet.add_argument("--center", type=lambda s: _parse_reals(s, 3, "--center"),
                          default=np.zeros(3))
    p_packet.add_argument("--coeffs", default=None,
                          help="comma-separated complex amplitude coefficients")
    p_packet.set_defaults(func=cmd_packet)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # OSError: unreadable --in or unwritable --out; InvalidResolution: bad packet grid
    except (argparse.ArgumentTypeError, OSError, InvalidResolution) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SchemaError as exc:
        print(f"schema error at {exc.pointer or '/'}: {exc.message}", file=sys.stderr)
        return USAGE_ERROR
    except BWSpinorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
