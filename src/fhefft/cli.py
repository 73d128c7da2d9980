"""Command-line interface.

The crypto pipeline mirrors the client/server split: `keygen` and
`encrypt` run client side, `fft` runs server side on ciphertexts and
public circuit constants only (no key material), `decrypt` and `verify`
close the loop client side.  `bound` and `bench` expose the analytical
error/cost model and the experiment harness.

Exit codes: 0 success, 2 parse or usage error, 3 noise overflow
(wrong key or exhausted depth budget), 4 bound violation in `verify`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import fileio
from .arith import FixedFormat
from .engine import FheEngine, GateStats
from .error_model import ErrorParams, GateCostModel, fft_error_bound, nand_cost, space_cost
from .errors import (FhefftError, NoiseOverflowError, ParameterError, ParseError, RangeError,
                     UsageError, _is_pow2)
from .fft import _sides, fft_1d, fft_2d, input_signal, read_signal, transform_plan
from .fhe import DEFAULT_PARAMS, EXACT_PARAMS, GswScheme, seeded_rng
from .harness import error_stats, format_report_table, reference, run_1d_experiment, run_2d_experiment

_PRESETS = {"default": DEFAULT_PARAMS, "exact": EXACT_PARAMS}


def cmd_keygen(args) -> int:
    params = fileio.read_params(args.params) if args.params else _PRESETS[args.preset]
    keys = GswScheme(params).keygen(seed=args.seed)
    fileio.write_keys(args.out, params, keys)
    print(f"wrote key pair for n={params.n}, q={params.q} to {args.out}")
    if params.noise_bound == 0:
        print("note: noise-free toy parameters, no security margin at all")
    return 0


def cmd_encrypt(args) -> int:
    params, keys = fileio.read_keys(args.keys)
    fmt = FixedFormat(args.bits, args.frac)
    values, dims = fileio.plain_input(args.signal)
    engine = FheEngine(GswScheme(params), public_key=keys.public_key, rng=seeded_rng(args.seed))
    signal = input_signal(engine, values, fmt, dims=dims)
    fileio.write_ciphertext_signal(args.out, signal)
    print(f"encrypted {len(signal.wires)} points ({dims}) at {fmt.total_bits}.{fmt.frac_bits} "
          f"fixed point into {args.out}")
    return 0


def cmd_fft(args) -> int:
    # evaluation needs no key material: ciphertexts in, ciphertexts out
    header = fileio.read_ciphertext_header(args.ciphertext)
    # a short payload is refused before the plan compiles, and a plan past
    # the depth budget before the payload is read
    header.check_payload(args.ciphertext)
    engine = FheEngine(GswScheme(header.params))
    transform_plan(engine, header.fmt, header.dims, header.meta())
    signal = fileio.read_ciphertext_signal(args.ciphertext, engine)
    out = fft_2d(signal) if isinstance(signal.dims, tuple) else fft_1d(signal)
    fileio.write_ciphertext_signal(args.out, out)
    stats: GateStats = engine.stats
    print(f"transformed {signal.dims} -> {args.out}; "
          f"NANDs={stats.nand_count} depth={stats.max_depth}")
    if args.stats:
        print(json.dumps({"nand_count": stats.nand_count,
                          "max_depth": stats.max_depth}))
    return 0


def cmd_decrypt(args) -> int:
    params, keys = fileio.read_keys(args.keys)
    scheme = GswScheme(params)
    engine = FheEngine(scheme, keys=keys)
    signal = fileio.read_ciphertext_signal(args.ciphertext, engine)
    try:
        values = read_signal(engine, signal)[0]
    except NoiseOverflowError as exc:
        raise NoiseOverflowError(
            f"{exc} (wrong key file, or the circuit exceeded the depth "
            f"budget of the chosen parameters)") from exc
    fileio.write_signal_text(args.out, values, dims=signal.dims, fmt=signal.fmt)
    print(f"decrypted {len(values)} points to {args.out}")
    return 0


def cmd_verify(args) -> int:
    plain, plain_dims = fileio.plain_input(args.plain_file)
    spectrum, meta = fileio.read_signal_text(args.spectrum)
    frac = meta.frac_bits if meta.frac_bits is not None else args.frac
    if frac < 1:
        raise UsageError(f"--frac must be positive, got {frac}")
    dims = meta.dims if meta.dims is not None else plain_dims
    rows, cols = _sides(dims)
    if not len(plain) == len(spectrum) == rows * cols:
        raise UsageError(f"{len(plain)} plain points, {len(spectrum)} spectrum "
                         f"points and dims {dims} do not agree")
    oracle, _, bound = reference(plain, dims, frac, args.xb)
    if not (np.isfinite(oracle).all() and math.isfinite(bound)):
        raise UsageError(f"{args.plain_file}: the reference transform or its error bound "
                         f"overflows double precision; the plain signal is too large "
                         f"to verify")
    report = {
        "size": dims,
        **error_stats(spectrum, oracle),
        "error_bound": bound,
    }
    print(json.dumps(report, indent=2))
    if not report["max_error"] <= bound:  # a NaN error fails too
        print("bound violated", file=sys.stderr)
        return 4
    return 0


def cmd_bound(args) -> int:
    fmt = FixedFormat(args.bits, args.frac)
    delta = 2.0 ** -fmt.frac_bits
    params = ErrorParams(delta, args.xb, args.points)
    model = GateCostModel(fixed_width=fmt.total_bits, ct_side=args.ct_side,
                          signal_len=args.points,
                          signal_total=args.points if args.total is None else args.total)
    out = {
        "points": args.points,
        "delta": delta,
        "x_bound": args.xb,
        "error_bound": fft_error_bound(params),
        "nand_cost": {op: nand_cost(model, op) for op in ("add", "mul", "fft")},
        "space_cost_entries": space_cost(model),
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError as exc:
        raise UsageError(f"--sizes must be comma-separated integers: {exc}") from exc
    fmt = FixedFormat(args.bits, args.frac)
    if args.dims == 2 and args.backend != "clear":
        raise UsageError("2D experiments run on the cleartext backend only")
    if args.images:
        if args.dims != 2:
            raise UsageError("PGM images are transformed with --dims 2 only")
        stack = [fileio.read_pgm(path) for path in args.images]
        reports = [run_2d_experiment(stack, stack[0].shape, fmt, args.seed)]
    elif args.dims == 2:
        sides = [math.isqrt(max(m, 0)) for m in sizes]
        for m, side in zip(sizes, sides):
            if side * side != m or not _is_pow2(side):
                raise UsageError(f"2D size {m} is not the square of a power of two")
        reports = [run_2d_experiment(args.trials, (side, side), fmt, args.seed)
                   for side in sides]
    else:
        reports = [run_1d_experiment(m, fmt=fmt, trials=args.trials, seed=args.seed,
                                     backend=args.backend) for m in sizes]
    print(format_report_table(reports))
    if args.json:
        for r in reports:
            print(json.dumps(r.as_dict()))
    return 0


@functools.cache  # built once per process: each parse makes its own namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhefft",
        description="FFT over encrypted fixed-point signals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--params", help="JSON parameter file")
    p.add_argument("--preset", choices=sorted(_PRESETS), default="default",
                   help="named parameter preset when no --params file is given")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a signal or PGM image")
    p.add_argument("signal", help="text signal (re,im per line) or .pgm image")
    p.add_argument("--keys", required=True)
    p.add_argument("--bits", type=int, default=32, help="word width F")
    p.add_argument("--frac", type=int, default=16, help="fractional bits f")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("fft", help="transform an encrypted signal (server side)")
    p.add_argument("ciphertext")
    p.add_argument("--out", required=True)
    p.add_argument("--stats", action="store_true", help="print gate stats as JSON")
    p.set_defaults(func=cmd_fft)

    p = sub.add_parser("decrypt", help="decrypt an encrypted signal")
    p.add_argument("ciphertext")
    p.add_argument("--keys", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("verify", help="compare a decrypted spectrum to the oracle")
    p.add_argument("plain_file", metavar="plain",
                   help="original plaintext signal file or .pgm image")
    p.add_argument("spectrum", help="decrypted spectrum file")
    p.add_argument("--frac", type=int, default=16,
                   help="fractional bits when the spectrum file lacks metadata")
    p.add_argument("--xb", type=float, default=None, help="signal component bound")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="print error bound and cost table")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--frac", type=int, default=16)
    p.add_argument("--xb", type=float, default=1.0)
    p.add_argument("--bits", type=int, default=32)
    p.add_argument("--ct-side", type=int, default=DEFAULT_PARAMS.n_ct)
    p.add_argument("--total", type=int, default=None,
                   help="total stored points L (defaults to --points)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("bench", help="run the random-signal or image experiments")
    p.add_argument("images", nargs="*",
                   help="PGM images of one shape to transform instead of random "
                        "ones (with --dims 2)")
    p.add_argument("--sizes", default="8,16,32,64,128")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--backend", choices=("clear", "fhe"), default="clear")
    p.add_argument("--dims", type=int, choices=(1, 2), default=1)
    p.add_argument("--bits", type=int, default=32)
    p.add_argument("--frac", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoiseOverflowError as exc:
        print(f"noise overflow: {exc}", file=sys.stderr)
        return 3
    except (ParseError, UsageError, ParameterError, RangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FhefftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
