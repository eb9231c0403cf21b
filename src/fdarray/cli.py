"""Command-line front end: every pipeline as a reproducible file-to-file command.

Exit codes: 0 success, 2 invalid parameters or unparseable input, 3 singular
layout (colocated Tx/Rx pair), 4 numerical failure. All outputs are
deterministic functions of the flags, with no locale dependence. The bytes
of LAPACK results (the `svd` spectrum, `sweep` and the `fig2` spectra) can
also depend on the BLAS build and its thread count: they are reproducible
at a fixed `OPENBLAS_NUM_THREADS`, and the golden-bytes tests use 1.
"""

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import coarray as coarray_mod
from . import experiments, files, si_model, spectral
from .beampattern import beampattern
from .geometry import FAMILIES, ColocatedAntennaError, FullDuplexLayout, ascii_sketch

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_NUMERICAL = 4


def _build_layout_from_args(args) -> FullDuplexLayout:
    spec = FAMILIES[args.family]
    missing = [f"--{p}" for p in spec.params if getattr(args, p) is None]
    if missing:
        raise ValueError(f"family {args.family!r} requires {', '.join(missing)}")
    others = dict.fromkeys(p for s in FAMILIES.values() for p in s.params if p not in spec.params)
    extra = [f"--{p}" for p in others if getattr(args, p) is not None]
    if extra:
        raise ValueError(f"family {args.family!r} does not take {', '.join(extra)}")
    return spec.generate(**{p: getattr(args, p) for p in spec.params})


def cmd_geometry(args) -> int:
    layout = _build_layout_from_args(args)
    if args.label:
        layout = dataclasses.replace(layout, label=args.label)
    files.save_layout(layout, args.output)
    print(ascii_sketch(layout))
    return EXIT_OK


def cmd_si(args) -> int:
    layout = files.load_layout(args.geometry)
    channel = si_model.si_matrix(layout, args.rho)
    write = files.write_matrix_json if args.format == "json" else files.write_matrix_csv
    write(channel, args.output)
    return EXIT_OK


def cmd_svd(args) -> int:
    if (args.geometry is None) == (args.matrix is None):
        raise ValueError("exactly one of --geometry or --matrix is required")
    if args.geometry is not None:
        layout = files.load_layout(args.geometry)
        matrix = si_model.si_matrix(layout, args.rho).h
    elif args.matrix.endswith(".json"):
        matrix = files.load_matrix_json(args.matrix)
    else:
        matrix = files.load_matrix_csv(args.matrix)
    spec = spectral.svd_spectrum(matrix)
    files.write_spectrum_csv(spec, args.output)
    return EXIT_OK


def cmd_beampattern(args) -> int:
    layout = files.load_layout(args.geometry)
    geometry = layout.rx if args.side == "rx" else layout.tx
    curve = beampattern(geometry, theta_s=args.theta_s, grid_size=args.grid_size, normalized=args.normalized)
    files.write_curve_csv(curve, args.output)
    return EXIT_OK


def cmd_coarray(args) -> int:
    layout = files.load_layout(args.geometry)
    result = coarray_mod.sum_coarray(layout)
    files.write_coarray_csv(result, args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    rule = experiments.ApertureRule(kind=args.rule, coeff=args.coeff, l_max=args.l_max)
    if args.n_max < args.n_min:
        raise ValueError("--n-max must be >= --n-min")
    if args.n_step < 1:
        raise ValueError(f"--n-step must be >= 1, got {args.n_step}")
    ns = range(args.n_min, args.n_max + 1, args.n_step)
    result = experiments.scaling_sweep(args.family, ns, rule, rho=args.rho)
    files.write_sweep_csv(result, args.output)
    return EXIT_OK


def cmd_fig2(args) -> int:
    study = experiments.fig2_study(rho=args.rho, grid_size=args.grid_size)
    written = files.write_fig2_bundle(study, args.output_dir)
    print("\n".join(written))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built once per process.

    The parser is shared by every call, so callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="fdarray",
        description=(
            "Construct full-duplex Tx/Rx array layouts, synthesize their "
            "self-interference channels, and analyze spectra, beampatterns "
            "and sum co-arrays."
        ),
        epilog=(
            "Exit codes: 0 ok, 2 bad parameters/input, 3 singular layout "
            "(colocated Tx/Rx pair), 4 numerical failure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_geo = sub.add_parser("geometry", help="generate a layout JSON file")
    p_geo.add_argument("--family", required=True, choices=FAMILIES)
    # one flag per distinct parameter name, in order of first appearance
    for param in dict.fromkeys(p for spec in FAMILIES.values() for p in spec.params):
        families = "/".join(f for f, spec in FAMILIES.items() if param in spec.params)
        p_geo.add_argument(f"--{param}", type=int, help=f"{families} parameter")
    p_geo.add_argument("--label", default="", help="free-form tag stored in the file")
    p_geo.add_argument("-o", "--output", required=True, help="layout JSON path")
    p_geo.set_defaults(func=cmd_geometry)

    p_si = sub.add_parser("si", help="synthesize the SI channel matrix of a layout")
    p_si.add_argument("--geometry", required=True, help="layout JSON path")
    p_si.add_argument("--rho", type=float, default=1.0, help="channel scale factor")
    p_si.add_argument("--format", choices=("csv", "json"), default="csv")
    p_si.add_argument("-o", "--output", required=True, help="matrix file path")
    p_si.set_defaults(func=cmd_si)

    p_svd = sub.add_parser("svd", help="singular spectrum of a matrix or layout")
    p_svd.add_argument("--geometry", help="layout JSON path (synthesizes SI first)")
    p_svd.add_argument("--matrix", help="matrix file path (.csv or .json)")
    p_svd.add_argument("--rho", type=float, default=1.0, help="scale used with --geometry")
    p_svd.add_argument("-o", "--output", required=True, help="spectrum CSV path")
    p_svd.set_defaults(func=cmd_svd)

    p_bp = sub.add_parser("beampattern", help="sampled beampattern of one side of a layout")
    p_bp.add_argument("--geometry", required=True, help="layout JSON path")
    p_bp.add_argument("--side", choices=("rx", "tx"), default="rx")
    p_bp.add_argument("--theta-s", type=float, default=0.0, help="steering angle, radians")
    p_bp.add_argument("--grid-size", type=int, default=4096)
    p_bp.add_argument("--normalized", action="store_true", help="shift the peak to 0 dB")
    p_bp.add_argument("-o", "--output", required=True, help="curve CSV path")
    p_bp.set_defaults(func=cmd_beampattern)

    p_co = sub.add_parser("coarray", help="sum co-array of a layout")
    p_co.add_argument("--geometry", required=True, help="layout JSON path")
    p_co.add_argument("-o", "--output", required=True, help="coarray CSV path")
    p_co.set_defaults(func=cmd_coarray)

    p_sw = sub.add_parser("sweep", help="spectral norm vs antenna count under an aperture rule")
    p_sw.add_argument("--family", required=True, choices=FAMILIES)
    p_sw.add_argument("--rule", required=True, choices=experiments.DEFAULT_COEFF)
    defaults = " / ".join(f"{c:g} {rule}" for rule, c in experiments.DEFAULT_COEFF.items())
    p_sw.add_argument("--coeff", type=float, default=None, help=f"aperture coefficient (default {defaults})")
    p_sw.add_argument("--l-max", type=float, default=None, help="cap on the target aperture")
    p_sw.add_argument("--n-min", type=int, default=10)
    p_sw.add_argument("--n-max", type=int, default=100)
    p_sw.add_argument("--n-step", type=int, default=10)
    p_sw.add_argument("--rho", type=float, default=1.0)
    p_sw.add_argument("-o", "--output", required=True, help="sweep CSV path")
    p_sw.set_defaults(func=cmd_sweep)

    p_f2 = sub.add_parser("fig2", help="three-family comparison bundle (geometry/beampattern/spectrum)")
    p_f2.add_argument("--rho", type=float, default=0.2)
    p_f2.add_argument("--grid-size", type=int, default=4096)
    p_f2.add_argument("-o", "--output-dir", required=True, help="bundle directory")
    p_f2.set_defaults(func=cmd_fig2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ColocatedAntennaError as exc:
        print(f"fdarray: singular layout: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"fdarray: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"fdarray: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
