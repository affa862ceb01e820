"""Invariants that span the spectral, photometry, colorimetry and maxper
layers, checked on random sources."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from simplex_oracle import build_problem, simplex_solve

from lumenkit import (
    PHOTOPIC,
    SCOTOPIC,
    Chromaticity,
    Flat,
    Gaussian,
    Line,
    Planck,
    Sampled,
    SampledSpectrum,
    Tabulated,
    TruncatedPlanck,
    chromaticity,
    default_cmf,
    luminosity,
    max_per,
    per,
    spectral_locus,
    tristimulus,
)
from lumenkit.spectral import GAUSS_REACH_WIDTHS

KM = 683.0
# Quadrature and Simplex rounding only.
PER_BOUND_RTOL = 1e-9


def _gaussians():
    return st.builds(lambda peak, width: (Gaussian(peak, width), 380.0, 780.0),
                     st.floats(400.0, 760.0), st.floats(1.0, 60.0))


def _flats():
    return st.builds(lambda lo, span: (Flat(lo, min(lo + span, 780.0)), None, None),
                     st.floats(380.0, 770.0), st.floats(1.0, 400.0))


@st.composite
def _sampled(draw):
    knots = sorted(draw(st.lists(st.floats(380.0, 780.0), min_size=4, max_size=12, unique=True)))
    assume(min(np.diff(knots)) > 0.1)
    values = draw(st.lists(st.floats(0.0, 3.0), min_size=len(knots), max_size=len(knots)))
    assume(max(values) > 0.01)
    return Sampled(SampledSpectrum(np.array(knots), np.array(values))), None, None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_gaussians(), _flats(), _sampled()))
def test_per_never_beats_max_per_at_its_chromaticity(source):
    # With V linearly interpolated from ybar on the CMF knots, the hat
    # functions of those knots split any spectrum inside the table's range
    # into a mixture of lines at the knots with the same X, Y, Z and power,
    # which max_per's program ranges over.
    model, lo, hi = source
    cmf = default_cmf()
    value = per(model, Tabulated.from_cmf(cmf), KM, lo, hi).per
    solution = max_per(chromaticity(tristimulus(model, cmf, KM)), cmf, KM)
    assert solution.status == "optimal"
    assert value <= solution.objective_value * (1.0 + PER_BOUND_RTOL)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([5.0, 10.0, 15.0, 20.0]), st.sampled_from([0.05, 0.3, 1.0]),
       st.integers(0, 2**32 - 1))
def test_envelope_matches_simplex_inside_the_gamut(delta_lambda, alpha, seed):
    # A Dirichlet mixture of the locus points at this spacing lies in its
    # gamut; small alpha puts the mass on few points, near the boundary.
    cmf = default_cmf()
    stride = int(delta_lambda / cmf.spacing_nm)
    weights = np.random.default_rng(seed).dirichlet(np.full(len(cmf.wavelengths_nm[::stride]), alpha))
    x, y = weights @ spectral_locus(cmf)[::stride]
    target = Chromaticity(x, y)
    solution = max_per(target, cmf, KM, delta_lambda)
    oracle = simplex_solve(build_problem(target, cmf, KM, delta_lambda))
    assert solution.status == oracle.status == "optimal"
    assert solution.objective_value == pytest.approx(oracle.objective_value, rel=1e-9)
    assert 1 <= len(solution.support) <= 3
    lam, power = np.array(solution.support).T
    rows = np.searchsorted(cmf.wavelengths_nm, lam)
    xyz = np.stack([cmf.xbar[rows], cmf.ybar[rows], cmf.zbar[rows]]) @ power
    assert xyz[0] / xyz.sum() == pytest.approx(x, abs=1e-9)
    assert xyz[1] / xyz.sum() == pytest.approx(y, abs=1e-9)
    assert delta_lambda * power.sum() == pytest.approx(1.0, abs=1e-9)


_EYES = {"photopic": lambda: PHOTOPIC, "scotopic": lambda: SCOTOPIC,
         "tabulated": lambda: Tabulated.from_cmf(default_cmf())}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(1000.0, 20000.0), st.floats(380.0, 770.0), st.floats(1.0, 400.0),
       st.floats(380.0, 700.0), st.floats(0.5, 20.0), st.floats(300.0, 900.0),
       st.sampled_from(sorted(_EYES)))
def test_per_and_tristimulus_share_one_band_rule(t_k, lo, span, peak, width, lam, eye):
    # One band rule: bounds on a source cut it as a truncated source would;
    # a Gaussian's own band is its reach; a line carries unit power.
    v, cmf, hi = _EYES[eye](), default_cmf(), lo + span
    assert per(Planck(t_k), v, KM, lo, hi) == per(TruncatedPlanck(t_k, lo, hi), v, KM)
    assert (tristimulus(Planck(t_k), cmf, KM, lo, hi)
            == tristimulus(TruncatedPlanck(t_k, lo, hi), cmf, KM))
    reach = GAUSS_REACH_WIDTHS * width
    assert (per(Gaussian(peak, width), v, KM)
            == per(Gaussian(peak, width), v, KM, peak - reach, peak + reach))
    assert per(Line(lam), v, KM).per == KM * luminosity(v, lam)
