import math

import numpy as np
import pytest
from simpson_oracle import ACCURACY_SOURCES, oracle_per, simpson

from lumenkit import (
    DomainError,
    Flat,
    Gaussian,
    IntegrationSpec,
    Line,
    PHOTOPIC,
    Planck,
    SCOTOPIC,
    Sampled,
    SampledSpectrum,
    Tabulated,
    TruncatedPlanck,
    ZeroSpectrumError,
    compute_km,
    integrate,
    km_denominator,
    luminosity,
    luminous_flux,
    per,
    per_sweep_planck,
    planck_radiance,
)
from lumenkit.constants import NM_TO_M
from lumenkit.photometry import KM_SI, PLATINUM_LUMINANCE, PLATINUM_POINT_K, V_BAND_NM

# The printed formulas give these values (frozen from independent
# scipy.integrate.quad / mpmath evaluations); published round numbers
# for the same quantities differ in places, see the acceptance suite.
KM_COMPUTED = 694.20337765495503     # 6e5 / weighted platinum radiance at 2042 K
PER_PLANCK_6000 = 93.9070047042
PER_PLANCK_3000 = 20.5446057931
PER_PLANCK_1800 = 0.609274555419
PER_TRUNC_5800 = 251.398746133
PER_FLAT_EEW = 182.676716477
PER_GAUSS_450_20 = 39.8633501734
SWEEP_PEAK_PER = 95.74181809242192   # step-50 grid over [1000, 10000] K
SWEEP_PEAK_T = 6650.0


def test_photopic_peak_exact():
    assert luminosity(PHOTOPIC, 559.0) == 1.019


def test_scotopic_peak_exact():
    assert luminosity(SCOTOPIC, 503.0) == 0.992


def test_photopic_at_450():
    expected = 1.019 * math.exp(-285.0 * 0.109 ** 2)
    assert luminosity(PHOTOPIC, 450.0) == pytest.approx(expected, rel=1e-12)
    assert luminosity(PHOTOPIC, 450.0) == pytest.approx(0.0344, abs=2e-4)


def test_tabulated_interpolates_and_zero_extends(cmf):
    v = Tabulated.from_cmf(cmf)
    assert luminosity(v, 555.0) == 1.0
    mid = luminosity(v, 557.5)
    assert mid == pytest.approx(0.5 * (1.0 + 0.995), rel=1e-12)
    assert luminosity(v, 200.0) == 0.0
    assert luminosity(v, 900.0) == 0.0


def test_compute_km_frozen_value():
    assert compute_km() == pytest.approx(KM_COMPUTED, rel=1e-6)


def test_compute_km_denominator_cross_check():
    direct = integrate(
        lambda lam: planck_radiance(lam, PLATINUM_POINT_K) * luminosity(PHOTOPIC, lam),
        IntegrationSpec(300.0, 900.0),
    ) * NM_TO_M
    assert km_denominator() == pytest.approx(direct, rel=1e-6)


def test_compute_km_numerator_linearity():
    assert compute_km() * km_denominator() == pytest.approx(PLATINUM_LUMINANCE, rel=1e-12)


def test_compute_km_is_photopic_only():
    with pytest.raises(DomainError):
        compute_km(SCOTOPIC)


@pytest.mark.parametrize("t_k,expected", [
    (6000.0, PER_PLANCK_6000),
    (3000.0, PER_PLANCK_3000),
    (1800.0, PER_PLANCK_1800),
])
def test_per_planck(t_k, expected):
    result = per(Planck(t_k), PHOTOPIC, KM_SI)
    assert result.per == pytest.approx(expected, rel=1e-5)
    assert result.efficiency == pytest.approx(expected / 683.0, rel=1e-5)


def test_per_truncated_planck():
    result = per(TruncatedPlanck(5800.0, 400.0, 700.0), PHOTOPIC, KM_SI)
    assert result.per == pytest.approx(PER_TRUNC_5800, rel=1e-5)
    assert 240.0 <= result.per <= 260.0


def test_per_equal_energy_white():
    result = per(Flat(380.0, 780.0), PHOTOPIC, KM_SI)
    assert result.per == pytest.approx(PER_FLAT_EEW, rel=1e-5)
    assert 174.0 <= result.per <= 184.0


def test_per_blue_gaussian():
    result = per(Gaussian(450.0, 20.0), PHOTOPIC, KM_SI, 380.0, 780.0)
    assert result.per == pytest.approx(PER_GAUSS_450_20, rel=1e-5)
    assert 38.7 <= result.per <= 40.7


def test_per_gaussian_product_closed_form():
    # full-line Gaussian-times-Gaussian ratio; band truncation keeps the
    # numeric value within 0.5% of it
    sigma_v_sq = 1e6 / 570.0
    width_sq = 20.0 ** 2
    oracle = KM_SI * 1.019 * math.sqrt(sigma_v_sq / (sigma_v_sq + width_sq)) \
        * math.exp(-((450.0 - 559.0) ** 2) / (2.0 * (sigma_v_sq + width_sq)))
    got = per(Gaussian(450.0, 20.0), PHOTOPIC, KM_SI, 380.0, 780.0).per
    assert got == pytest.approx(oracle, rel=5e-3)


def test_per_line_tabulated_is_exact(cmf):
    v = Tabulated.from_cmf(cmf)
    assert per(Line(555.0), v, 683.0).per == 683.0


def test_per_line_outside_bounds(cmf):
    with pytest.raises(DomainError):
        per(Line(555.0), PHOTOPIC, KM_SI, 600.0, 780.0)


def test_per_gaussian_requires_bounds():
    with pytest.raises(DomainError):
        per(Gaussian(450.0, 20.0), PHOTOPIC, KM_SI)


def test_per_zero_spectrum():
    grid = SampledSpectrum(np.array([400.0, 450.0, 500.0, 550.0]), np.zeros(4))
    with pytest.raises(ZeroSpectrumError):
        per(Sampled(grid), PHOTOPIC, KM_SI)


def test_per_disjoint_bounds():
    with pytest.raises(ZeroSpectrumError):
        per(Flat(380.0, 500.0), PHOTOPIC, KM_SI, 600.0, 700.0)


def test_sweep_peak():
    sweep = per_sweep_planck(1000.0, 10000.0, 50.0, PHOTOPIC, KM_SI)
    assert len(sweep.rows) == 181
    assert sweep.peak_per == pytest.approx(SWEEP_PEAK_PER, rel=1e-5)
    assert sweep.peak_t_k == SWEEP_PEAK_T


def test_sweep_degenerate_single_point():
    sweep = per_sweep_planck(6000.0, 6000.0, 50.0, PHOTOPIC, KM_SI)
    assert len(sweep.rows) == 1
    assert sweep.rows[0][1] == per(Planck(6000.0), PHOTOPIC, KM_SI).per


def test_sweep_monotone_below_5000():
    sweep = per_sweep_planck(1000.0, 5000.0, 250.0, PHOTOPIC, KM_SI)
    values = [row[1] for row in sweep.rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_luminous_flux_laser_example():
    flux = luminous_flux(Line(570.0), 0.050, PHOTOPIC, KM_SI, 380.0, 780.0)
    assert flux == pytest.approx(33.6192675047, rel=1e-9)
    assert 28.0 <= flux <= 35.0


def test_luminous_flux_zero_power():
    assert luminous_flux(Planck(6000.0), 0.0, PHOTOPIC, KM_SI) == 0.0


def test_luminous_flux_si_definition(cmf):
    v = Tabulated.from_cmf(cmf)
    assert luminous_flux(Line(555.0), 1.0, v, 683.0) == 683.0


# --- invariants ---


def test_per_scale_invariance():
    rng = np.random.default_rng(31)
    knots = np.linspace(420.0, 690.0, 10)
    values = rng.uniform(0.2, 3.0, 10)
    base = per(Sampled(SampledSpectrum(knots, values)), PHOTOPIC, KM_SI).per
    for alpha in (1e-6, 0.5, 7.0, 1e6):
        scaled = per(Sampled(SampledSpectrum(knots, alpha * values)), PHOTOPIC, KM_SI).per
        assert scaled == pytest.approx(base, rel=1e-10)


def test_per_bounded_by_km_times_peak_sensitivity():
    models_bounds = [
        (Planck(5500.0), None, None),
        (TruncatedPlanck(6500.0, 400.0, 700.0), None, None),
        (Flat(380.0, 780.0), None, None),
        (Gaussian(555.0, 30.0), 380.0, 780.0),
        (Line(555.0), None, None),
    ]
    cap = KM_SI * 1.019
    for model, lo, hi in models_bounds:
        value = per(model, PHOTOPIC, KM_SI, lo, hi).per
        assert 0.0 <= value <= cap


def test_per_line_equals_km_times_v():
    rng = np.random.default_rng(37)
    for lam in rng.uniform(380.0, 780.0, 20):
        assert per(Line(lam), PHOTOPIC, KM_SI).per == KM_SI * luminosity(PHOTOPIC, lam)


def test_purkinje_shifts_peak_temperature_up():
    # scotopic sensitivity sits 56 nm bluer, so it matches a *hotter*
    # black body: its PER peak temperature is higher, not lower
    photopic = per_sweep_planck(4000.0, 9000.0, 200.0, PHOTOPIC, KM_SI)
    scotopic = per_sweep_planck(4000.0, 9000.0, 200.0, SCOTOPIC, KM_SI)
    assert scotopic.peak_t_k > photopic.peak_t_k


def test_narrow_gaussian_approaches_line():
    for lam0 in (450.0, 555.0, 650.0):
        narrow = per(Gaussian(lam0, 0.1), PHOTOPIC, KM_SI, 380.0, 780.0).per
        assert narrow == pytest.approx(KM_SI * luminosity(PHOTOPIC, lam0), rel=1e-3)


# --- accuracy of the panel rule against the Simpson oracle ---


@pytest.mark.parametrize("v_name", ["photopic", "tabulated"])
@pytest.mark.parametrize("model,lo,hi", [s[1:] for s in ACCURACY_SOURCES],
                         ids=[s[0] for s in ACCURACY_SOURCES])
def test_per_matches_simpson_oracle(cmf, model, lo, hi, v_name):
    v = PHOTOPIC if v_name == "photopic" else Tabulated.from_cmf(cmf)
    got = per(model, v, KM_SI, lo, hi).per
    assert got == pytest.approx(oracle_per(model, v, KM_SI, lo, hi), rel=1e-9, abs=0.0)


def test_km_denominator_matches_simpson_oracle():
    oracle = simpson(lambda lam: planck_radiance(lam, PLATINUM_POINT_K) * luminosity(PHOTOPIC, lam),
                     *V_BAND_NM) * NM_TO_M
    assert km_denominator() == pytest.approx(oracle, rel=1e-12)
