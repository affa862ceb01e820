"""lumenkit: photometric efficacy and CIE 1931 colorimetry toolkit.

Computes the mechanical equivalent of the lumen, the photometric
efficacy ratio (PER) of arbitrary radiation sources, chromaticity
coordinates, and the maximum PER achievable at a fixed chromaticity
(from the lower convex envelope of the lifted spectral locus), with a
CSV-emitting CLI.

The names below load on first use (PEP 562): ``import lumenkit`` imports
no submodule, and ``lumenkit.max_per`` imports :mod:`lumenkit.maxper`
and what it needs, so a process pays only for the layers it touches.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "colorimetry": (
        "Chromaticity", "CmfTable", "Tristimulus", "chromaticity", "default_cmf",
        "default_cmf_path", "gamut_boundary", "in_gamut", "load_cmf", "planckian_locus",
        "spectral_locus", "tristimulus",
    ),
    "constants": ("KM_SI",),
    "errors": (
        "DomainError", "LumenError", "ParseError", "UnsupportedModelError",
        "ValidationError", "ZeroSpectrumError",
    ),
    "maxper": ("IsoPerGrid", "LpSolution", "iso_per_scan", "max_per"),
    "photometry": (
        "PHOTOPIC", "PLATINUM_LUMINANCE", "PLATINUM_POINT_K", "SCOTOPIC", "EfficacyResult",
        "LuminosityFunction", "PhotopicAnalytic", "PlanckSweep", "ScotopicAnalytic",
        "Tabulated", "compute_km", "km_denominator", "luminosity", "per", "per_sweep_planck",
    ),
    "quadrature": ("spline_fit", "total_planck_radiance"),
    "spectral": (
        "Flat", "Gaussian", "Line", "Planck", "Sampled", "SampledSpectrum", "SpectrumModel",
        "TruncatedPlanck", "energy_density_omega", "evaluate_spectrum",
        "photon_number_density", "planck_radiance",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
