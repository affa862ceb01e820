import math

import numpy as np
import pytest

from lumenkit import (
    DomainError,
    Flat,
    Gaussian,
    Line,
    Planck,
    Sampled,
    SampledSpectrum,
    TruncatedPlanck,
    UnsupportedModelError,
    energy_density_omega,
    evaluate_spectrum,
    photon_number_density,
    planck_radiance,
)
from lumenkit.constants import C, H, HBAR, K_B

# Frozen from 50-digit mpmath evaluations of the same closed forms.
FB_555_6000 = 30467618840209.674            # W m^-2 sr^-1 m^-1
N_34E15_5800 = 0.011491372192561398
E_OMEGA_555_6000 = 2.0883970441084337e-16   # J m^-3 s rad^-1
OMEGA_555 = 2.0 * math.pi * C / 555e-9


def test_planck_radiance_underflows_to_zero():
    # exp argument ~ 2.6e4 at 1 K; guarded, not overflowed
    assert planck_radiance(555.0, 1.0) == 0.0


def test_planck_radiance_against_high_precision():
    assert planck_radiance(555.0, 6000.0) == pytest.approx(FB_555_6000, rel=1e-12)


def test_planck_radiance_peak_location():
    # brute scan; Wien displacement puts the 6000 K peak near 483 nm
    grid = np.arange(100.0, 3000.0, 0.1)
    values = [planck_radiance(lam, 6000.0) for lam in grid]
    peak = grid[int(np.argmax(values))]
    assert peak == pytest.approx(483.0, abs=0.5)


def test_planck_radiance_domain_errors():
    with pytest.raises(DomainError):
        planck_radiance(0.0, 6000.0)
    with pytest.raises(DomainError):
        planck_radiance(555.0, 0.0)
    with pytest.raises(DomainError):
        planck_radiance(-555.0, 6000.0)


def test_photon_number_density_exact_occupancy():
    # hbar omega = k_B T ln 2 forces exp = 2, occupancy exactly 1
    t_k = 5000.0
    omega = K_B * t_k * math.log(2.0) / HBAR
    assert photon_number_density(omega, t_k) == pytest.approx(1.0, rel=1e-12)


def test_photon_number_density_against_high_precision():
    assert photon_number_density(3.4e15, 5800.0) == pytest.approx(N_34E15_5800, rel=1e-12)


def test_photon_number_density_wien_limit():
    t_k = 3000.0
    omega = 50.0 * K_B * t_k / HBAR
    assert photon_number_density(omega, t_k) == pytest.approx(math.exp(-50.0), rel=1e-15)


def test_photon_number_density_domain_errors():
    with pytest.raises(DomainError):
        photon_number_density(0.0, 5800.0)
    with pytest.raises(DomainError):
        photon_number_density(3.4e15, -1.0)


def test_energy_density_against_high_precision():
    assert energy_density_omega(OMEGA_555, 6000.0) == pytest.approx(E_OMEGA_555_6000, rel=1e-12)


def test_energy_density_vanishes_at_low_temperature():
    assert energy_density_omega(OMEGA_555, 1e-6) == 0.0


def _energy_density_lambda(lam_nm, t_k):
    # wavelength form 8 pi h c / lambda^5 / (exp(h c / lambda k T) - 1),
    # written independently as the change-of-variables reference
    lam = lam_nm * 1e-9
    x = H * C / (lam * K_B * t_k)
    return 8.0 * math.pi * H * C / lam ** 5 / math.expm1(x)


def test_change_of_variables_identity():
    rng = np.random.default_rng(19)
    for _ in range(10):
        lam_nm = rng.uniform(350.0, 900.0)
        t_k = rng.uniform(1500.0, 9000.0)
        omega = 2.0 * math.pi * C / (lam_nm * 1e-9)
        jacobian = 2.0 * math.pi * C / (lam_nm * 1e-9) ** 2  # |d omega / d lambda|
        lhs = energy_density_omega(omega, t_k) * jacobian
        assert lhs == pytest.approx(_energy_density_lambda(lam_nm, t_k), rel=1e-10)


# --- spectrum models ---


def test_gaussian_peak_value():
    assert evaluate_spectrum(Gaussian(450.0, 20.0), 450.0) == 1.0


def test_flat_outside_support():
    assert evaluate_spectrum(Flat(380.0, 780.0), 379.0) == 0.0
    assert evaluate_spectrum(Flat(380.0, 780.0), 380.0) == 1.0
    assert evaluate_spectrum(Flat(380.0, 780.0), 781.0) == 0.0


def test_planck_delegation():
    assert evaluate_spectrum(Planck(5800.0), 500.0) == planck_radiance(500.0, 5800.0)


def test_truncated_planck_support():
    model = TruncatedPlanck(5800.0, 400.0, 700.0)
    assert evaluate_spectrum(model, 399.0) == 0.0
    assert evaluate_spectrum(model, 500.0) == planck_radiance(500.0, 5800.0)
    assert model.support() == (400.0, 700.0)


def test_line_is_not_evaluable():
    with pytest.raises(UnsupportedModelError):
        evaluate_spectrum(Line(555.0), 555.0)


def test_sampled_spectrum_clamps_and_zero_extends():
    grid = SampledSpectrum(np.array([400.0, 450.0, 500.0, 550.0, 600.0]),
                           np.array([0.0, 1.0, 0.0, 1.0, 0.0]))
    model = Sampled(grid)
    assert evaluate_spectrum(model, 450.0) == pytest.approx(1.0, rel=1e-12)
    assert evaluate_spectrum(model, 399.0) == 0.0
    assert evaluate_spectrum(model, 601.0) == 0.0
    # the spline undershoots between alternating 0/1 knots; clamped
    assert min(evaluate_spectrum(model, lam) for lam in np.linspace(400, 600, 801)) == 0.0


def test_model_validation():
    with pytest.raises(DomainError):
        Planck(0.0)
    with pytest.raises(DomainError):
        TruncatedPlanck(5800.0, 700.0, 400.0)
    with pytest.raises(DomainError):
        Flat(-10.0, 780.0)
    with pytest.raises(DomainError):
        Gaussian(450.0, 0.0)
    with pytest.raises(DomainError):
        Line(0.0)
    with pytest.raises(DomainError):
        SampledSpectrum(np.array([400.0, 450.0, 500.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(DomainError):
        SampledSpectrum(np.array([400.0, 450.0, 440.0, 500.0]), np.ones(4))
    with pytest.raises(DomainError):
        SampledSpectrum(np.array([400.0, 450.0, 500.0, 550.0]),
                        np.array([1.0, -0.1, 1.0, 1.0]))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: Planck(NAN),
    lambda: Planck(INF),
    lambda: TruncatedPlanck(5800.0, 400.0, INF),
    lambda: TruncatedPlanck(NAN, 400.0, 700.0),
    lambda: Flat(NAN, 780.0),
    lambda: Flat(380.0, INF),
    lambda: Gaussian(NAN, 20.0),
    lambda: Gaussian(450.0, INF),
    lambda: Line(NAN),
    lambda: Line(INF),
    lambda: SampledSpectrum(np.array([400.0, 450.0, 500.0, 550.0]),
                            np.array([1.0, NAN, 1.0, 1.0])),
    lambda: SampledSpectrum(np.array([400.0, 450.0, 500.0, INF]), np.ones(4)),
    lambda: evaluate_spectrum(Flat(380.0, 780.0), NAN),
    lambda: planck_radiance(555.0, INF),
])
def test_non_finite_inputs_are_domain_errors(make):
    with pytest.raises(DomainError):
        make()


def test_evaluate_spectrum_nonnegative_everywhere():
    rng = np.random.default_rng(23)
    models = [Planck(4000.0), TruncatedPlanck(5000.0, 420.0, 680.0),
              Flat(380.0, 780.0), Gaussian(520.0, 35.0)]
    for _ in range(10):
        knots = np.sort(rng.uniform(380.0, 780.0, 8))
        knots += np.arange(8) * 1e-3
        models.append(Sampled(SampledSpectrum(knots, rng.uniform(0.0, 3.0, 8))))
    for model in models:
        for lam in rng.uniform(200.0, 1000.0, 50):
            assert evaluate_spectrum(model, lam) >= 0.0


def test_wien_displacement_consistency():
    grid = np.arange(200.0, 4000.0, 0.5)
    products = []
    for t_k in (2000.0, 4000.0, 6000.0, 8000.0):
        values = [planck_radiance(lam, t_k) for lam in grid]
        products.append(grid[int(np.argmax(values))] * t_k)
    spread = (max(products) - min(products)) / min(products)
    assert spread < 0.005
