"""Spectral power distribution models and Planck-law evaluation.

All public interfaces take wavelengths in nanometers and temperatures
in kelvin; conversion to SI meters happens only inside the Planck
evaluators.

Each model defines in one place its vectorised ``density(lam)`` (zero
outside its support), its ``support()`` and its ``breakpoints()``, the
wavelengths where the density is not smooth, at which integrals split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .constants import C, H, HBAR, K_B, NM_TO_M
from .errors import DomainError, UnsupportedModelError, check_positive
from .quadrature import spline_fit

# Beyond this argument exp() would overflow a double; the occupancy is
# below the smallest normal double long before that, so return 0.
_EXP_ARG_MAX = 700.0

_HC = H * C
_TWO_HC2 = 2.0 * H * C ** 2

# A Gaussian emitter is numerically zero beyond this many widths of its
# peak (exp(-112.5) < 1e-48).
GAUSS_REACH_WIDTHS = 15.0
_GAUSS_GRID = np.arange(-GAUSS_REACH_WIDTHS, GAUSS_REACH_WIDTHS + 1.0)


def _planck(lam_nm, t_k: float):
    """Vectorised f_B(lambda); the one place the Planck law is written."""
    lam = lam_nm * NM_TO_M
    x = _HC / (lam * K_B * t_k)
    return np.where(x > _EXP_ARG_MAX, 0.0,
                    (_TWO_HC2 / lam ** 5) / np.expm1(np.minimum(x, _EXP_ARG_MAX)))


def planck_radiance(lam_nm: float, t_k: float) -> float:
    """Black-body spectral radiance f_B(lambda), W m^-2 sr^-1 m^-1.

    f_B = (2 h c^2 / lambda^5) / (exp(h c / lambda k_B T) - 1)
    """
    check_positive("wavelength", lam_nm, "nm")
    check_positive("temperature", t_k, "K")
    return float(_planck(np.float64(lam_nm), t_k))


def photon_number_density(omega: float, t_k: float) -> float:
    """Bose-Einstein occupancy 1 / (exp(hbar omega / k_B T) - 1)."""
    if omega <= 0:
        raise DomainError(f"angular frequency must be positive, got {omega}")
    if t_k <= 0:
        raise DomainError(f"temperature must be positive, got {t_k} K")
    x = HBAR * omega / (K_B * t_k)
    if x > _EXP_ARG_MAX:
        return 0.0
    return 1.0 / math.expm1(x)


def energy_density_omega(omega: float, t_k: float) -> float:
    """Spectral energy density (omega^2 / pi^2 c^3) hbar omega n(omega)."""
    occupancy = photon_number_density(omega, t_k)
    return (omega ** 2 / (math.pi ** 2 * C ** 3)) * HBAR * omega * occupancy


@dataclass(frozen=True)
class SampledSpectrum:
    """Relative power samples on a strictly ascending wavelength grid."""

    wavelengths_nm: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        wl = np.asarray(self.wavelengths_nm, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if wl.ndim != 1 or wl.shape != vals.shape:
            raise DomainError("sampled spectrum needs equal-length 1-d arrays")
        if len(wl) < 4:
            raise DomainError(f"sampled spectrum needs >= 4 points, got {len(wl)}")
        if not (np.all(np.isfinite(wl)) and np.all(np.isfinite(vals))):
            raise DomainError("sampled wavelengths and values must be finite")
        if wl[0] <= 0:
            raise DomainError("wavelengths must be positive")
        if not np.all(np.diff(wl) > 0):
            raise DomainError("wavelengths must be strictly ascending")
        if np.any(vals < 0):
            raise DomainError("sampled power values must be nonnegative")
        wl = wl.copy()
        vals = vals.copy()
        wl.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "wavelengths_nm", wl)
        object.__setattr__(self, "values", vals)

    @cached_property
    def spline(self):
        return spline_fit(self.wavelengths_nm, self.values)


class _Model:
    """Defaults for the model methods: no compact support, and a density
    that is smooth except at the support's edges."""

    def support(self) -> tuple[float, float] | None:
        return None

    def breakpoints(self):
        support = self.support()
        return () if support is None else support


@dataclass(frozen=True)
class Planck(_Model):
    """Full-range black-body emitter at temperature t_k."""

    t_k: float

    def __post_init__(self):
        check_positive("temperature", self.t_k, "K")

    def density(self, lam):
        return _planck(lam, self.t_k)


@dataclass(frozen=True)
class TruncatedPlanck(_Model):
    """Black-body emitter restricted to [lam_min_nm, lam_max_nm]."""

    t_k: float
    lam_min_nm: float
    lam_max_nm: float

    def __post_init__(self):
        check_positive("temperature", self.t_k, "K")
        _check_band(self.lam_min_nm, self.lam_max_nm)

    def density(self, lam):
        inside = (lam >= self.lam_min_nm) & (lam <= self.lam_max_nm)
        return np.where(inside, _planck(lam, self.t_k), 0.0)

    def support(self):
        return self.lam_min_nm, self.lam_max_nm


@dataclass(frozen=True)
class Flat(_Model):
    """Equal-energy emitter: unit power density on [lam_min_nm, lam_max_nm]."""

    lam_min_nm: float
    lam_max_nm: float

    def __post_init__(self):
        _check_band(self.lam_min_nm, self.lam_max_nm)

    def density(self, lam):
        return np.where((lam >= self.lam_min_nm) & (lam <= self.lam_max_nm), 1.0, 0.0)

    def support(self):
        return self.lam_min_nm, self.lam_max_nm


@dataclass(frozen=True)
class Gaussian(_Model):
    """Single-Gaussian emitter, exp(-(lam - peak)^2 / (2 width^2))."""

    peak_nm: float
    width_nm: float

    def __post_init__(self):
        check_positive("peak wavelength", self.peak_nm, "nm")
        check_positive("width", self.width_nm, "nm")

    def density(self, lam):
        z = (lam - self.peak_nm) / self.width_nm
        return np.exp(-0.5 * z * z)

    def breakpoints(self):
        """One per width within GAUSS_REACH_WIDTHS of the peak, so that no
        integration panel there is wider than the Gaussian itself."""
        return self.peak_nm + self.width_nm * _GAUSS_GRID


@dataclass(frozen=True)
class Line(_Model):
    """Monochromatic (Dirac delta) emitter.

    Purely symbolic: never sampled numerically, always handled
    analytically by photometry and colorimetry.
    """

    lam_nm: float

    def __post_init__(self):
        check_positive("line wavelength", self.lam_nm, "nm")

    def density(self, lam):
        raise UnsupportedModelError(
            "Line spectra are delta functions; evaluate them analytically"
        )


@dataclass(frozen=True)
class Sampled(_Model):
    """Spectrum defined by samples, evaluated via a natural cubic spline
    whose undershoot below zero is clamped."""

    grid: SampledSpectrum = field()

    def density(self, lam):
        wl = self.grid.wavelengths_nm
        inside = (lam >= wl[0]) & (lam <= wl[-1])
        return np.where(inside, np.maximum(self.grid.spline(lam), 0.0), 0.0)

    def support(self):
        wl = self.grid.wavelengths_nm
        return float(wl[0]), float(wl[-1])

    def breakpoints(self):
        return self.grid.wavelengths_nm


SpectrumModel = Union[Planck, TruncatedPlanck, Flat, Gaussian, Line, Sampled]


def evaluate_spectrum(model: SpectrumModel, lam_nm: float) -> float:
    """Relative power density of ``model`` at ``lam_nm``.

    Truncated, flat and sampled models are zero-extended outside their
    support; spline undershoot is clamped to zero.  ``Line`` has no
    pointwise density and raises :class:`UnsupportedModelError`.
    """
    check_positive("wavelength", lam_nm, "nm")
    return float(model.density(np.float64(lam_nm)))


def temperature_ladder(t_min: float, t_max: float, step: float) -> list[float]:
    """Temperatures t_min + k * step, k = 0, 1, ..., up to t_max (K), with
    1e-12 relative slack at t_max.

    The count is fixed before any temperature is formed, so the last rung
    carries one rounding, not the sum of k of them.
    """
    if not 0 < t_min <= t_max < math.inf:
        raise DomainError(f"need 0 < t_min <= t_max < inf, got [{t_min}, {t_max}]")
    check_positive("step", step, "K")
    count = int((t_max - t_min + 1e-12 * t_max) // step) + 1
    return [t_min + k * step for k in range(count)]


def _check_band(lam_min, lam_max):
    check_positive("wavelengths", lam_min, "nm")
    check_positive("wavelengths", lam_max, "nm")
    if not lam_min < lam_max:
        raise DomainError(f"need lam_min < lam_max, got [{lam_min}, {lam_max}]")
