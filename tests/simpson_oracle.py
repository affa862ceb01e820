"""Adaptive-Simpson oracle for the spectral integrals.

Independent of the Gauss-Legendre panel rule of ``lumenkit.quadrature``:
``integrate`` is adaptive Simpson, and the oracle integrates the scalar
public functions (``evaluate_spectrum``, ``luminosity``,
``CmfTable.interp``) by ``integrate`` at ``rel_tol`` 1e-12, run between
consecutive cut points so that every piece has a smooth integrand.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from lumenkit import (
    DomainError,
    Flat,
    Gaussian,
    LumenError,
    Planck,
    Sampled,
    SampledSpectrum,
    evaluate_spectrum,
    luminosity,
    total_planck_radiance,
)
from lumenkit.constants import NM_TO_M
from lumenkit.photometry import V_BAND_NM
from lumenkit.spectral import GAUSS_REACH_WIDTHS

ORACLE_REL_TOL = 1e-12

DEFAULT_REL_TOL = 1e-8
DEFAULT_MAX_DEPTH = 40

# Levels of unconditional pre-subdivision.  Guards against a narrow
# feature (e.g. a 0.1 nm line approximant) slipping between the five
# samples of a single Simpson panel.
_PRESPLIT_LEVELS = 6

_GRID_5NM = np.arange(380.0, 781.0, 5.0)

# (id, model, lam_min, lam_max): the sources the rule is checked on.
# Adaptive Simpson at its default rel_tol 1e-8 missed the first by 6.3e-7
# in chromaticity.
ACCURACY_SOURCES = [
    ("gaussian-583-12", Gaussian(583.0, 12.0), 380.0, 780.0),
    ("gaussian-450-0.5", Gaussian(450.0, 0.5), 380.0, 780.0),
    ("planck-1000", Planck(1000.0), None, None),
    ("planck-20000", Planck(20000.0), None, None),
    ("flat-off-knots", Flat(401.3, 652.7), None, None),
    ("sampled-5nm", Sampled(SampledSpectrum(
        _GRID_5NM, 1.0 + 0.6 * np.sin(_GRID_5NM / 23.0) + 0.3 * np.cos(_GRID_5NM / 7.0))),
     None, None),
]


class NonConvergenceError(LumenError, RuntimeError):
    """An iterative numeric procedure hit its depth or iteration limit."""


@dataclass(frozen=True)
class IntegrationSpec:
    """Finite integration interval plus accuracy controls.

    Attributes:
        a, b: interval endpoints (nm for spectral work, but unit-agnostic).
        rel_tol: target relative error, 0 < rel_tol < 1.
        max_depth: bisection levels before giving up.
    """

    a: float
    b: float
    rel_tol: float = DEFAULT_REL_TOL
    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self):
        if not self.a < self.b:
            raise DomainError(f"integration interval requires a < b, got [{self.a}, {self.b}]")
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_depth < 1:
            raise DomainError(f"max_depth must be >= 1, got {self.max_depth}")


def _simpson(h6, fa, fm, fb):
    return h6 * (fa + 4.0 * fm + fb)


def _adapt(f, a, b, fa, fm, fb, whole, tol, depth_left):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    h6 = (b - a) / 12.0
    left = _simpson(h6, fa, flm, fm)
    right = _simpson(h6, fm, frm, fb)
    err = (left + right - whole) / 15.0
    if abs(err) <= tol:
        return left + right + err
    if depth_left <= 0:
        raise NonConvergenceError(
            f"adaptive Simpson did not converge on [{a}, {b}] (depth exhausted)"
        )
    half = tol / 2.0
    return (_adapt(f, a, m, fa, flm, fm, left, half, depth_left - 1)
            + _adapt(f, m, b, fm, frm, fb, right, half, depth_left - 1))


def integrate(f, spec: IntegrationSpec) -> float:
    """Integrate ``f`` over ``[spec.a, spec.b]`` by adaptive Simpson.

    No spectral computation calls this; it is the oracle that tests check
    :func:`panel_rule` against.

    The estimated error is kept below ``rel_tol`` relative to the
    integral of |f| (so cancelling integrands do not force impossible
    relative accuracy).  Raises :class:`NonConvergenceError` when
    ``max_depth`` bisection levels are exhausted; integrands with jump
    discontinuities should be split at the jump by the caller.
    """
    a, b = spec.a, spec.b
    presplit = min(_PRESPLIT_LEVELS, spec.max_depth - 1)
    n = 1 << presplit
    xs = np.linspace(a, b, 2 * n + 1)
    fs = [f(x) for x in xs]
    h6 = (b - a) / (6.0 * n)
    panels = []
    scale = 0.0
    for i in range(n):
        fa, fm, fb = fs[2 * i], fs[2 * i + 1], fs[2 * i + 2]
        panels.append((xs[2 * i], xs[2 * i + 2], fa, fm, fb,
                       _simpson(h6, fa, fm, fb)))
        scale += _simpson(h6, abs(fa), abs(fm), abs(fb))
    if scale == 0.0:
        return 0.0
    tol = spec.rel_tol * scale / n
    depth_left = spec.max_depth - presplit
    return sum(_adapt(f, pa, pb, fa, fm, fb, s, tol, depth_left)
               for pa, pb, fa, fm, fb, s in panels)


def simpson(f, lo, hi, *cut_sets):
    """Integral of ``f`` over [lo, hi], split at every cut inside it."""
    cuts = sorted({lo, hi, *(float(c) for cuts in cut_sets for c in cuts if lo < c < hi)})
    return sum(integrate(f, IntegrationSpec(a, b, rel_tol=ORACLE_REL_TOL))
               for a, b in zip(cuts, cuts[1:]))


def _density(model):
    # The same nodes recur across the integrals of one source.
    return lru_cache(maxsize=None)(lambda lam: evaluate_spectrum(model, lam))


def oracle_per(model, v, km, lo=None, hi=None):
    """PER of ``model``: the quadrature of :func:`lumenkit.per`, by Simpson."""
    density = _density(model)
    cuts = (model.breakpoints(), v.breakpoints())
    if isinstance(model, Planck):
        lo, hi = V_BAND_NM
        if v.support() is not None:
            lo, hi = max(lo, v.support()[0]), min(hi, v.support()[1])
        num = simpson(lambda lam: density(lam) * luminosity(v, lam), lo, hi, *cuts)
        return km * num * NM_TO_M / total_planck_radiance(model.t_k)
    support = model.support()
    if isinstance(model, Gaussian):
        reach = GAUSS_REACH_WIDTHS * model.width_nm
        support = (model.peak_nm - reach, model.peak_nm + reach)
    lo, hi = support if lo is None else (max(lo, support[0]), min(hi, support[1]))
    den = simpson(density, lo, hi, *cuts)
    num = simpson(lambda lam: density(lam) * luminosity(v, lam), lo, hi, *cuts)
    return km * num / den


def oracle_chromaticity(model, cmf):
    """(x, y) of ``model`` over the CMF range, by Simpson."""
    density = _density(model)
    lo, hi = float(cmf.wavelengths_nm[0]), float(cmf.wavelengths_nm[-1])
    if model.support() is not None:
        lo, hi = max(lo, model.support()[0]), min(hi, model.support()[1])
    xyz = [simpson(lambda lam, c=column: density(lam) * cmf.interp(c, lam), lo, hi,
                   cmf.wavelengths_nm, model.breakpoints())
           for column in ("xbar", "ybar", "zbar")]
    total = sum(xyz)
    return xyz[0] / total, xyz[1] / total
