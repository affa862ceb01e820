"""Luminosity functions, the mechanical equivalent of the lumen, and
photometric efficacy ratios (PER) for every spectrum model.

PER is the K_m-weighted mean of the eye response under a source's
power spectrum: K_m * integral(P V) / integral(P), in lm/W.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .constants import KM_SI, NM_TO_M
from .errors import DomainError, ZeroSpectrumError, check_positive
from .record import Record
from .spectral import Planck, SpectrumModel, band, integrals, temperature_ladder

# Old candela standard: a platinum black body at its fusion temperature
# emits 60 cd/cm^2 = 6e5 lm m^-2 sr^-1.
PLATINUM_POINT_K = 2042.0
PLATINUM_LUMINANCE = 6.0e5

# Eye-weighted Planck numerators are truncated to this band; both
# analytic sensitivity curves are negligible outside it.
V_BAND_NM = (300.0, 900.0)


class _AnalyticResponse(Record):
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


class PhotopicAnalytic(_AnalyticResponse):
    """Daylight sensitivity: 1.019 exp(-285 ((lam/1000) - 0.559)^2)."""

    _SCALE, _CURVATURE, _CENTER = 1.019, 285.0, 0.559


class ScotopicAnalytic(_AnalyticResponse):
    """Dark-adapted sensitivity: 0.992 exp(-321.9 ((lam/1000) - 0.503)^2)."""

    _SCALE, _CURVATURE, _CENTER = 0.992, 321.9, 0.503


class Tabulated(Record):
    """Eye response from a table, linearly interpolated, zero outside.

    Its knots are breakpoints: the weight is linear between them.
    """

    wavelengths_nm: np.ndarray
    values: np.ndarray

    def __init__(self, wavelengths_nm, values):
        wl = np.asarray(wavelengths_nm, dtype=float)
        vals = np.asarray(values, dtype=float)
        if wl.ndim != 1 or wl.shape != vals.shape or len(wl) < 2:
            raise DomainError("tabulated sensitivity needs two equal-length arrays")
        # NaN fails every comparison, so the two range checks reject it; in
        # an ascending grid only an end can be infinite.
        if not np.all(np.diff(wl) > 0):
            raise DomainError("tabulated wavelengths must be strictly ascending")
        if not (math.isfinite(wl[0]) and math.isfinite(wl[-1])):
            raise DomainError("tabulated wavelengths must be finite")
        if not np.all((vals >= 0) & (vals <= 1)):
            raise DomainError("tabulated sensitivity values must lie in [0, 1]")
        wl = wl.copy()
        vals = vals.copy()
        wl.flags.writeable = False
        vals.flags.writeable = False
        fields = self.__dict__
        fields["wavelengths_nm"] = wl
        fields["values"] = vals

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


class EfficacyResult(Record):
    """PER in lm/W plus the efficiency fraction relative to 683 lm/W."""

    per: float
    efficiency: float

    def __init__(self, per: float, efficiency: float):
        fields = self.__dict__
        fields["per"] = per
        fields["efficiency"] = efficiency


class PlanckSweep(Record):
    """PER of black bodies over a temperature ladder, with its peak."""

    rows: tuple  # (t_k, per) pairs in ascending t_k
    peak_t_k: float
    peak_per: float

    def __init__(self, rows: tuple, peak_t_k: float, peak_per: float):
        fields = self.__dict__
        fields["rows"] = rows
        fields["peak_t_k"] = peak_t_k
        fields["peak_per"] = peak_per


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
    :func:`per`."""
    return _seen_radiance(Planck(PLATINUM_POINT_K), v)


def per(model: SpectrumModel, v: LuminosityFunction, km: float,
        lam_min_nm: float | None = None, lam_max_nm: float | None = None) -> EfficacyResult:
    """Photometric efficacy ratio of ``model`` under sensitivity ``v``.

    Band rule, shared with ``tristimulus`` (:func:`~lumenkit.spectral.band`):
    the given bounds cut the model's support, and a missing bound is the
    support's edge.  ``Planck`` takes both bounds or none; with none, P V
    is integrated over ``V_BAND_NM`` and P in closed form.  Raises
    :class:`ZeroSpectrumError` when no power is left in the band.

    Rule: the integrals of P and P V take one evaluation of the density
    at the nodes of :func:`~lumenkit.quadrature.panel_rule` (5-point
    Gauss-Legendre on panels of at most 5 nm, split at the model's
    breakpoints and V's knots, so each panel sees a smooth integrand).
    The tests hold the result to 1e-9 relative of adaptive Simpson run
    at rel_tol 1e-12 between the same breakpoints.
    """
    check_positive("km", km, "lm/W")
    edges = band(model, lam_min_nm, lam_max_nm)
    if edges is None:
        return _result(km * _seen_radiance(model, v) / model.closed_form_total())
    den, num = integrals(model, edges, lambda lam: (None, v.weight(lam)), v.breakpoints())
    if den <= 0.0:
        raise ZeroSpectrumError(f"spectrum is identically zero on [{edges[0]}, {edges[1]}] nm")
    # V is zero outside its support, whose edges are breakpoints.
    return _result(km * num / den)


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


def _seen_radiance(model, v) -> float:
    """Integral of P V over ``V_BAND_NM``, wavelength in meters."""
    edges = band(model, *V_BAND_NM, v.support())
    (num,) = integrals(model, edges, lambda lam: (v.weight(lam),), v.breakpoints())
    return num * NM_TO_M
