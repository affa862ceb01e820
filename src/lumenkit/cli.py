"""Command-line front end: every computation as a subcommand emitting
plot-ready CSV on stdout (or ``--output``).

Exit codes: 0 success, 2 usage/config error, 3 numeric non-convergence,
4 input parse error, 5 infeasible chromaticity target.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass

import numpy as np

from .colorimetry import (
    Chromaticity,
    default_cmf_path,
    chromaticity,
    load_cmf,
    tristimulus,
)
from .errors import (
    DomainError,
    LumenError,
    NonConvergenceError,
    ParseError,
    ValidationError,
)
from .maxper import iso_per_scan, max_per
from .photometry import (
    KM_SI,
    PHOTOPIC,
    SCOTOPIC,
    Tabulated,
    compute_km,
    luminosity,
    per,
    per_sweep_planck,
)
from .spectral import Flat, Gaussian, Line, Planck, Sampled, SampledSpectrum, TruncatedPlanck

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_PARSE = 4
EXIT_INFEASIBLE = 5

CMF_PATH_ENV = "LUMEN_CMF_PATH"

# Default band for sources that need explicit bounds (Gaussian, Line):
# the conventional visible range.
DEFAULT_BAND = (380.0, 780.0)

# Sentinel for "--planck given without a temperature" (legal only
# together with --sweep).
_NO_TEMP = float("nan")


@dataclass
class RunConfig:
    km_mode: str          # "683" or "computed"
    v_mode: str           # photopic_analytic | scotopic_analytic | tabulated
    cmf_path: str
    output: str | None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = RunConfig(
        km_mode=args.km,
        v_mode=args.v_mode,
        cmf_path=args.cmf or os.environ.get(CMF_PATH_ENV) or default_cmf_path(),
        output=args.output,
    )
    try:
        lines = args.handler(cfg, args)
    except _Infeasible as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, LumenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(cfg, lines)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lumen",
        description="Photometric efficacy and CIE colorimetry calculations, CSV out.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--km", choices=("683", "computed"), default="683",
                        help="mechanical equivalent of the lumen: SI 683 or the "
                             "platinum-standard computed value (default: 683)")
    common.add_argument("--v-mode", choices=("photopic_analytic", "scotopic_analytic",
                                             "tabulated"),
                        default="photopic_analytic",
                        help="eye sensitivity model (default: photopic_analytic)")
    common.add_argument("--cmf", metavar="PATH",
                        help=f"CMF table CSV (fallback: ${CMF_PATH_ENV}, then the "
                             "packaged CIE 1931 2-degree table)")
    common.add_argument("--output", metavar="PATH", help="write CSV here instead of stdout")

    sub = parser.add_subparsers(required=True, metavar="COMMAND")

    p = sub.add_parser("km", parents=[common],
                       help="mechanical equivalent of the lumen from the old candela")
    p.set_defaults(handler=_cmd_km)

    p = sub.add_parser("per", parents=[common],
                       help="photometric efficacy ratio of a source")
    _add_source_flags(p)
    p.add_argument("--sweep", nargs=3, type=float, metavar=("TMIN", "TMAX", "STEP"),
                   help="with --planck: emit per(T) rows over a temperature ladder")
    p.set_defaults(handler=_cmd_per)

    p = sub.add_parser("vlambda", parents=[common],
                       help="eye sensitivity curve, 380-780 nm step 1 nm")
    p.set_defaults(handler=_cmd_vlambda)

    p = sub.add_parser("chroma", parents=[common],
                       help="chromaticity coordinates of a source")
    _add_source_flags(p)
    p.set_defaults(handler=_cmd_chroma)

    p = sub.add_parser("locus", parents=[common],
                       help="black-body color path over a temperature ladder")
    p.add_argument("tmin", type=float)
    p.add_argument("tmax", type=float)
    p.add_argument("step", type=float)
    p.set_defaults(handler=_cmd_locus)

    p = sub.add_parser("maxper", parents=[common],
                       help="maximum PER achievable at a fixed chromaticity")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--delta-lambda", type=float, default=None, metavar="NM",
                   help="spectral grid step (default: CMF table spacing)")
    p.set_defaults(handler=_cmd_maxper)

    p = sub.add_parser("isoper", parents=[common],
                       help="max PER over a chromaticity grid (iso-PER data)")
    p.add_argument("--grid-step", type=float, required=True, metavar="S")
    p.add_argument("--delta-lambda", type=float, default=None, metavar="NM")
    p.set_defaults(handler=_cmd_isoper)

    return parser


def _add_source_flags(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--planck", nargs="?", type=float, const=_NO_TEMP, metavar="T",
                       help="black body at T kelvin")
    group.add_argument("--truncated-planck", nargs=3, type=float,
                       metavar=("T", "MIN", "MAX"),
                       help="black body at T kelvin restricted to [MIN, MAX] nm")
    group.add_argument("--flat", nargs=2, type=float, metavar=("MIN", "MAX"),
                       help="equal-energy source on [MIN, MAX] nm")
    group.add_argument("--gaussian", nargs=2, type=float, metavar=("L0", "SIGMA"),
                       help="Gaussian source, peak L0 nm, width SIGMA nm")
    group.add_argument("--line", type=float, metavar="L0",
                       help="monochromatic source at L0 nm")
    group.add_argument("--file", metavar="PATH",
                       help="sampled spectrum CSV (header wavelength_nm,power)")
    p.add_argument("--lmin", type=float, default=None, metavar="NM",
                   help="lower integration bound override")
    p.add_argument("--lmax", type=float, default=None, metavar="NM",
                   help="upper integration bound override")


# --- subcommand handlers (each returns the CSV lines to emit) ---


def _cmd_km(cfg, args):
    if cfg.v_mode != "photopic_analytic":
        raise DomainError("the candela calibration is defined photopically; "
                          "use --v-mode photopic_analytic")
    return [f"km_lm_per_w,{_fmt(compute_km())}"]


def _cmd_per(cfg, args):
    v = _make_v(cfg)
    km = _km_value(cfg)
    if args.sweep is not None:
        if args.planck is None:
            raise DomainError("--sweep requires --planck")
        tmin, tmax, step = args.sweep
        sweep = per_sweep_planck(tmin, tmax, step, v, km)
        return ["T_K,per_lm_per_w"] + [f"{_fmt(t)},{_fmt(p)}" for t, p in sweep.rows]
    model, lmin, lmax = _make_model(args)
    result = per(model, v, km, lmin, lmax)
    return ["per_lm_per_w,efficiency", f"{_fmt(result.per)},{_fmt(result.efficiency)}"]


def _cmd_vlambda(cfg, args):
    v = _make_v(cfg)
    lines = ["lambda_nm,v"]
    for lam in range(380, 781):
        lines.append(f"{_fmt(float(lam))},{_fmt(luminosity(v, float(lam)))}")
    return lines


def _cmd_chroma(cfg, args):
    model, lmin, lmax = _make_model(args)
    cmf = _load_cmf(cfg)
    point = chromaticity(tristimulus(model, cmf, _km_value(cfg), lmin, lmax))
    return ["x,y", f"{_fmt(point.x)},{_fmt(point.y)}"]


def _cmd_locus(cfg, args):
    from .colorimetry import planckian_locus

    cmf = _load_cmf(cfg)
    rows = planckian_locus(args.tmin, args.tmax, args.step, cmf)
    return ["T_K,x,y"] + [f"{_fmt(t)},{_fmt(c.x)},{_fmt(c.y)}" for t, c in rows]


def _cmd_maxper(cfg, args):
    cmf = _load_cmf(cfg)
    solution = max_per(Chromaticity(args.x, args.y), cmf, _km_value(cfg),
                       args.delta_lambda)
    if solution.status == "infeasible":
        raise _Infeasible("infeasible: chromaticity outside spectral gamut")
    if solution.status != "optimal":
        raise NonConvergenceError(f"simplex returned status {solution.status}")
    lines = [f"max_per_lm_per_w,{_fmt(solution.objective_value)}", "lambda_nm,weight"]
    lines += [f"{_fmt(lam)},{_fmt(weight)}" for lam, weight in solution.support]
    return lines


def _cmd_isoper(cfg, args):
    cmf = _load_cmf(cfg)
    grid = iso_per_scan(args.grid_step, cmf, _km_value(cfg), args.delta_lambda)
    lines = ["x,y,max_per"]
    lines += [f"{_fmt(x)},{_fmt(y)},{_fmt(v)}" for x, y, v in grid.rows if v is not None]
    return lines


# --- shared plumbing ---


class _Infeasible(LumenError):
    pass


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _emit(cfg, lines):
    text = "\n".join(lines) + "\n"
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _km_value(cfg) -> float:
    return compute_km() if cfg.km_mode == "computed" else KM_SI


def _make_v(cfg):
    if cfg.v_mode == "photopic_analytic":
        return PHOTOPIC
    if cfg.v_mode == "scotopic_analytic":
        return SCOTOPIC
    return Tabulated.from_cmf(_load_cmf(cfg))


def _load_cmf(cfg):
    return load_cmf(cfg.cmf_path)


def _make_model(args):
    """Model plus integration bounds from the source flags."""
    lmin, lmax = args.lmin, args.lmax
    if args.planck is not None:
        t = args.planck
        if t != t:  # bare --planck is only meaningful with --sweep
            raise DomainError("--planck needs a temperature (or use --sweep)")
        return Planck(t), lmin, lmax
    if args.truncated_planck is not None:
        t, lo, hi = args.truncated_planck
        return TruncatedPlanck(t, lo, hi), lmin, lmax
    if args.flat is not None:
        lo, hi = args.flat
        return Flat(lo, hi), lmin, lmax
    if args.gaussian is not None:
        peak, width = args.gaussian
        return (Gaussian(peak, width),
                DEFAULT_BAND[0] if lmin is None else lmin,
                DEFAULT_BAND[1] if lmax is None else lmax)
    if args.line is not None:
        return (Line(args.line),
                DEFAULT_BAND[0] if lmin is None else lmin,
                DEFAULT_BAND[1] if lmax is None else lmax)
    return Sampled(_load_spectrum(args.file)), lmin, lmax


def _load_spectrum(path) -> SampledSpectrum:
    """Read a sampled spectrum CSV (header ``wavelength_nm,power``)."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = None
        wavelengths = []
        powers = []
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if header is None:
                header = tuple(name.strip() for name in row)
                if header != ("wavelength_nm", "power"):
                    raise ParseError(
                        f"expected header wavelength_nm,power, got {','.join(header)}",
                        line=line_no,
                    )
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 fields, got {len(row)}", line=line_no)
            try:
                wavelengths.append(float(row[0]))
                powers.append(float(row[1]))
            except ValueError as exc:
                raise ParseError(str(exc), line=line_no) from None
    if header is None:
        raise ParseError("empty spectrum file", line=1)
    try:
        return SampledSpectrum(np.array(wavelengths), np.array(powers))
    except DomainError as exc:
        raise ParseError(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
