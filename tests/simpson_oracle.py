"""Adaptive-Simpson oracle for the spectral integrals.

Independent of the Gauss-Legendre panel rule: integrates the scalar
public functions (``evaluate_spectrum``, ``luminosity``,
``CmfTable.interp``) by ``integrate`` at ``rel_tol`` 1e-12, run between
consecutive cut points so that every piece has a smooth integrand.
"""

from functools import lru_cache

import numpy as np

from lumenkit import (
    Flat,
    Gaussian,
    IntegrationSpec,
    Planck,
    Sampled,
    SampledSpectrum,
    evaluate_spectrum,
    integrate,
    luminosity,
    total_planck_radiance,
)
from lumenkit.constants import NM_TO_M
from lumenkit.photometry import V_BAND_NM
from lumenkit.spectral import GAUSS_REACH_WIDTHS

ORACLE_REL_TOL = 1e-12

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
