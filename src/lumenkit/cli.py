"""Command-line front end: every computation as a subcommand emitting
plot-ready CSV on stdout (or ``--output``).

Exit codes: 0 success, 2 usage/config error, 4 input parse error,
5 infeasible chromaticity target.

Each ``lumen`` run is a new process, so its start-up is most of what a
subcommand costs.  Each handler therefore imports the layers it uses when
it runs: ``lumen km`` loads neither :mod:`~lumenkit.colorimetry` nor
:mod:`~lumenkit.maxper`, and ``lumen chroma`` does not load
:mod:`~lumenkit.photometry`.  Only a handler that reads a CMF table
resolves its path and loads it, and only ``--km computed`` imports
:func:`~lumenkit.photometry.compute_km`.
"""

from __future__ import annotations

import argparse
import os
import sys

from .constants import KM_SI
from .errors import DomainError, LumenError, ParseError, ValidationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 4
EXIT_INFEASIBLE = 5

CMF_PATH_ENV = "LUMEN_CMF_PATH"

# Default band for sources that need explicit bounds (Gaussian, Line):
# the conventional visible range.
DEFAULT_BAND = (380.0, 780.0)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        lines = args.handler(args)
    except _Infeasible as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, LumenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(args.output, lines)
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
    # A bare --planck (True) is legal only together with --sweep.
    group.add_argument("--planck", nargs="?", type=float, const=True, metavar="T",
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


def _cmd_km(args):
    from .photometry import compute_km

    if args.v_mode != "photopic_analytic":
        raise DomainError("the candela calibration is defined photopically; "
                          "use --v-mode photopic_analytic")
    return [f"km_lm_per_w,{_fmt(compute_km())}"]


def _cmd_per(args):
    from .photometry import per, per_sweep_planck

    v = _make_v(args)
    km = _km_value(args)
    if args.sweep is not None:
        if args.planck is None:
            raise DomainError("--sweep requires --planck")
        if args.planck is not True:
            raise DomainError("--sweep takes its temperatures from TMIN TMAX STEP; "
                              "give --planck without T")
        tmin, tmax, step = args.sweep
        sweep = per_sweep_planck(tmin, tmax, step, v, km)
        return ["T_K,per_lm_per_w"] + [f"{_fmt(t)},{_fmt(p)}" for t, p in sweep.rows]
    model, lmin, lmax = _make_model(args)
    result = per(model, v, km, lmin, lmax)
    return ["per_lm_per_w,efficiency", f"{_fmt(result.per)},{_fmt(result.efficiency)}"]


def _cmd_vlambda(args):
    from .photometry import luminosity

    v = _make_v(args)
    lines = ["lambda_nm,v"]
    for lam in range(380, 781):
        lines.append(f"{_fmt(float(lam))},{_fmt(luminosity(v, float(lam)))}")
    return lines


def _cmd_chroma(args):
    from .colorimetry import chromaticity, tristimulus

    model, lmin, lmax = _make_model(args)
    cmf = _load_cmf(args)
    point = chromaticity(tristimulus(model, cmf, _km_value(args), lmin, lmax))
    return ["x,y", f"{_fmt(point.x)},{_fmt(point.y)}"]


def _cmd_locus(args):
    from .colorimetry import planckian_locus

    cmf = _load_cmf(args)
    rows = planckian_locus(args.tmin, args.tmax, args.step, cmf)
    return ["T_K,x,y"] + [f"{_fmt(t)},{_fmt(c.x)},{_fmt(c.y)}" for t, c in rows]


def _cmd_maxper(args):
    from .colorimetry import Chromaticity
    from .maxper import max_per

    cmf = _load_cmf(args)
    solution = max_per(Chromaticity(args.x, args.y), cmf, _km_value(args),
                       args.delta_lambda)
    if solution.status == "infeasible":
        raise _Infeasible("infeasible: chromaticity outside spectral gamut")
    lines = [f"max_per_lm_per_w,{_fmt(solution.objective_value)}", "lambda_nm,weight"]
    lines += [f"{_fmt(lam)},{_fmt(weight)}" for lam, weight in solution.support]
    return lines


def _cmd_isoper(args):
    from .maxper import iso_per_scan

    cmf = _load_cmf(args)
    grid = iso_per_scan(args.grid_step, cmf, _km_value(args), args.delta_lambda)
    lines = ["x,y,max_per"]
    lines += [f"{_fmt(x)},{_fmt(y)},{_fmt(v)}" for x, y, v in grid.rows if v is not None]
    return lines


# --- shared plumbing ---


class _Infeasible(LumenError):
    pass


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _emit(output, lines):
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _km_value(args) -> float:
    if args.km != "computed":
        return KM_SI
    from .photometry import compute_km

    return compute_km()


def _load_cmf(args):
    """The table of ``--cmf``, else of ``$LUMEN_CMF_PATH``, else the packaged one."""
    from .colorimetry import default_cmf_path, load_cmf

    return load_cmf(args.cmf or os.environ.get(CMF_PATH_ENV) or default_cmf_path())


def _make_v(args):
    from .photometry import PHOTOPIC, SCOTOPIC, Tabulated

    if args.v_mode == "photopic_analytic":
        return PHOTOPIC
    if args.v_mode == "scotopic_analytic":
        return SCOTOPIC
    return Tabulated.from_cmf(_load_cmf(args))


def _make_model(args):
    """Model plus integration bounds from the source flags."""
    from .spectral import Flat, Gaussian, Line, Planck, Sampled, TruncatedPlanck

    lmin, lmax = args.lmin, args.lmax
    if args.planck is not None:
        if args.planck is True:
            raise DomainError("--planck needs a temperature (or use --sweep)")
        return Planck(args.planck), lmin, lmax
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


def _load_spectrum(path):
    """Read a sampled spectrum CSV (header ``wavelength_nm,power``)."""
    from .colorimetry import read_csv
    from .spectral import SampledSpectrum

    data = read_csv(path, ("wavelength_nm", "power"))
    try:
        return SampledSpectrum(data[:, 0], data[:, 1])
    except DomainError as exc:
        raise ParseError(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
