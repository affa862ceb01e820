"""Luminosity functions, the mechanical equivalent of the lumen, and
photometric efficacy ratios (PER) for every spectrum model.

PER is the K_m-weighted mean of the eye response under a source's
power spectrum: K_m * integral(P V) / integral(P), in lm/W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import NM_TO_M
from .errors import DomainError, ZeroSpectrumError, check_positive
from .quadrature import panel_rule, total_planck_radiance
from .spectral import (GAUSS_REACH_WIDTHS, Gaussian, Line, Planck, SpectrumModel,
                       temperature_ladder)

# SI-adopted maximum luminous efficacy; also the efficiency normalizer.
KM_SI = 683.0

# Old candela standard: a platinum black body at its fusion temperature
# emits 60 cd/cm^2 = 6e5 lm m^-2 sr^-1.
PLATINUM_POINT_K = 2042.0
PLATINUM_LUMINANCE = 6.0e5

# Eye-weighted Planck numerators are truncated to this band; both
# analytic sensitivity curves are negligible outside it.
V_BAND_NM = (300.0, 900.0)


class _AnalyticResponse:
    """scale * exp(-curvature ((lam/1000) - center)^2): smooth and nowhere
    zero, so it adds no breakpoints and has no support edges."""

    def weight(self, lam):
        """Vectorised eye-sensitivity weight at ``lam`` (nm)."""
        z = (lam / 1000.0) - self._CENTER
        return self._SCALE * np.exp(-self._CURVATURE * z * z)

    def support(self):
        return None

    def breakpoints(self):
        return ()


@dataclass(frozen=True)
class PhotopicAnalytic(_AnalyticResponse):
    """Daylight sensitivity: 1.019 exp(-285 ((lam/1000) - 0.559)^2)."""

    _SCALE, _CURVATURE, _CENTER = 1.019, 285.0, 0.559


@dataclass(frozen=True)
class ScotopicAnalytic(_AnalyticResponse):
    """Dark-adapted sensitivity: 0.992 exp(-321.9 ((lam/1000) - 0.503)^2)."""

    _SCALE, _CURVATURE, _CENTER = 0.992, 321.9, 0.503


@dataclass(frozen=True)
class Tabulated:
    """Eye response from a table, linearly interpolated, zero outside.

    Its knots are breakpoints: the weight is linear between them.
    """

    wavelengths_nm: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        wl = np.asarray(self.wavelengths_nm, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if wl.ndim != 1 or wl.shape != vals.shape or len(wl) < 2:
            raise DomainError("tabulated sensitivity needs two equal-length arrays")
        if not np.all(np.diff(wl) > 0):
            raise DomainError("tabulated wavelengths must be strictly ascending")
        if np.any(vals < 0) or np.any(vals > 1):
            raise DomainError("tabulated sensitivity values must lie in [0, 1]")
        wl = wl.copy()
        vals = vals.copy()
        wl.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "wavelengths_nm", wl)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_cmf(cls, cmf) -> "Tabulated":
        return cls(cmf.wavelengths_nm, cmf.ybar)

    def weight(self, lam):
        """Vectorised eye-sensitivity weight at ``lam`` (nm)."""
        return np.interp(lam, self.wavelengths_nm, self.values, left=0.0, right=0.0)

    def support(self) -> tuple[float, float]:
        return float(self.wavelengths_nm[0]), float(self.wavelengths_nm[-1])

    def breakpoints(self):
        return self.wavelengths_nm


LuminosityFunction = Union[PhotopicAnalytic, ScotopicAnalytic, Tabulated]

PHOTOPIC = PhotopicAnalytic()
SCOTOPIC = ScotopicAnalytic()


def luminosity(v: LuminosityFunction, lam_nm: float) -> float:
    """Dimensionless eye-sensitivity weight at ``lam_nm``."""
    check_positive("wavelength", lam_nm, "nm")
    return float(v.weight(np.float64(lam_nm)))


@dataclass(frozen=True)
class EfficacyResult:
    """PER in lm/W plus the efficiency fraction relative to 683 lm/W."""

    per: float
    efficiency: float


@dataclass(frozen=True)
class PlanckSweep:
    """PER of black bodies over a temperature ladder, with its peak."""

    rows: tuple  # (t_k, per) pairs in ascending t_k
    peak_t_k: float
    peak_per: float


def compute_km(v: LuminosityFunction = PHOTOPIC) -> float:
    """Mechanical equivalent of the lumen from the old candela standard.

    6e5 lm m^-2 sr^-1 divided by the eye-weighted radiance of a
    platinum-point black body.  Defined photopically; other sensitivity
    models are rejected.
    """
    if not isinstance(v, PhotopicAnalytic):
        raise DomainError("the candela calibration is defined for photopic sensitivity")
    denom = km_denominator(v)
    return PLATINUM_LUMINANCE / denom


def km_denominator(v: LuminosityFunction = PHOTOPIC) -> float:
    """Eye-weighted platinum-point radiance, W m^-2 sr^-1, by the rule of
    :func:`per` over ``V_BAND_NM``."""
    return _weighted_integral(Planck(PLATINUM_POINT_K), v, *V_BAND_NM) * NM_TO_M


def per(model: SpectrumModel, v: LuminosityFunction, km: float,
        lam_min_nm: float | None = None, lam_max_nm: float | None = None) -> EfficacyResult:
    """Photometric efficacy ratio of ``model`` under sensitivity ``v``.

    Bounds are optional for models that carry their own domain
    (truncated/flat/sampled use their support, Planck integrates the
    full range, Line is evaluated analytically); a Gaussian without
    explicit bounds also gets none by default here, so callers supply
    the band of interest.  Raises :class:`ZeroSpectrumError` when the
    spectrum carries no power on the requested interval.

    Rule: the integrals of P and P V take one evaluation of the density
    at the nodes of :func:`~lumenkit.quadrature.panel_rule` (5-point
    Gauss-Legendre on panels of at most 5 nm, split at the model's
    breakpoints and V's knots, so each panel sees a smooth integrand).
    A Planck source divides by the closed-form total radiance instead.
    The tests hold the result to 1e-9 relative of adaptive Simpson run
    at rel_tol 1e-12 between the same breakpoints.
    """
    check_positive("km", km, "lm/W")
    if isinstance(model, Line):
        if lam_min_nm is not None and lam_max_nm is not None:
            if not lam_min_nm <= model.lam_nm <= lam_max_nm:
                raise DomainError(
                    f"line at {model.lam_nm} nm lies outside [{lam_min_nm}, {lam_max_nm}] nm"
                )
        return _result(km * luminosity(v, model.lam_nm))

    if isinstance(model, Planck):
        lo, hi = _intersect(V_BAND_NM, v.support())
        num = _weighted_integral(model, v, lo, hi) * NM_TO_M
        return _result(km * num / total_planck_radiance(model.t_k))

    lo, hi = _model_bounds(model, lam_min_nm, lam_max_nm)
    lam, w = panel_rule(lo, hi, model.breakpoints(), v.breakpoints())
    power = w * model.density(lam)
    den = float(power.sum())
    if den <= 0.0:
        raise ZeroSpectrumError(f"spectrum is identically zero on [{lo}, {hi}] nm")
    # V is zero outside its support, whose edges are breakpoints.
    return _result(km * float(power @ v.weight(lam)) / den)


def per_sweep_planck(t_min: float, t_max: float, step: float,
                     v: LuminosityFunction, km: float) -> PlanckSweep:
    """PER of Planck(T) for T = t_min, t_min + step, ... up to t_max."""
    temps = temperature_ladder(t_min, t_max, step)
    check_positive("km", km, "lm/W")
    rows = tuple((t, per(Planck(t), v, km).per) for t in temps)
    peak_t, peak_per = max(rows, key=lambda row: row[1])
    return PlanckSweep(rows=rows, peak_t_k=peak_t, peak_per=peak_per)


def _result(value: float) -> EfficacyResult:
    return EfficacyResult(per=value, efficiency=value / KM_SI)


def _model_bounds(model, lam_min_nm, lam_max_nm) -> tuple[float, float]:
    support = model.support()
    gaussian = isinstance(model, Gaussian)
    if gaussian:
        support = (model.peak_nm - GAUSS_REACH_WIDTHS * model.width_nm,
                   model.peak_nm + GAUSS_REACH_WIDTHS * model.width_nm)
    if lam_min_nm is None and lam_max_nm is None:
        if support is None or gaussian:
            raise DomainError(f"{type(model).__name__} needs explicit wavelength bounds")
        return support
    if lam_min_nm is None or lam_max_nm is None or not lam_min_nm < lam_max_nm:
        raise DomainError(f"need lam_min < lam_max, got [{lam_min_nm}, {lam_max_nm}]")
    if support is None:
        return lam_min_nm, lam_max_nm
    lo, hi = max(lam_min_nm, support[0]), min(lam_max_nm, support[1])
    if lo >= hi:
        raise ZeroSpectrumError(
            f"spectrum support {support} does not meet [{lam_min_nm}, {lam_max_nm}] nm"
        )
    return lo, hi


def _intersect(band, extra):
    if extra is None:
        return band
    return max(band[0], extra[0]), min(band[1], extra[1])


def _weighted_integral(model, v, lo, hi) -> float:
    """Integral of P V over [lo, hi] (nm) by the rule of :func:`per`."""
    lam, w = panel_rule(lo, hi, model.breakpoints(), v.breakpoints())
    return float(w @ (model.density(lam) * v.weight(lam)))
