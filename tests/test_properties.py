"""Invariants that span the spectral, photometry, colorimetry and maxper
layers, checked on random sources."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lumenkit import (
    Flat,
    Gaussian,
    Sampled,
    SampledSpectrum,
    Tabulated,
    chromaticity,
    default_cmf,
    max_per,
    per,
    tristimulus,
)

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
