import math

import numpy as np
import pytest
from simpson_oracle import IntegrationSpec, NonConvergenceError, integrate

from lumenkit import (
    DomainError,
    planck_radiance,
    spline_fit,
    total_planck_radiance,
)
from lumenkit.constants import NM_TO_M
from lumenkit.quadrature import MAX_PANEL_NM, panel_rule

# Closed form (2 pi^4 / 15) (k_B T)^4 / (h^3 c^2), frozen from a
# 50-digit mpmath evaluation.
TOTAL_RADIANCE_2042 = 313823.03266838399
TOTAL_RADIANCE_6000 = 23391973.618431357


def test_polynomial_exact():
    assert integrate(lambda x: x * x, IntegrationSpec(0.0, 1.0)) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_gaussian_closed_form():
    # integral of exp(-(x-555)^2 / (2 * 10^2)) over all reals = 10 sqrt(2 pi);
    # the [300, 900] tails are < 1e-100 of it
    got = integrate(lambda x: math.exp(-((x - 555.0) ** 2) / 200.0),
                    IntegrationSpec(300.0, 900.0))
    assert got == pytest.approx(10.0 * math.sqrt(2.0 * math.pi), rel=1e-8)


def test_planck_integral_matches_closed_form():
    got = integrate(lambda lam: planck_radiance(lam, 2042.0),
                    IntegrationSpec(10.0, 1e6)) * NM_TO_M
    assert got == pytest.approx(total_planck_radiance(2042.0), rel=1e-4)


def test_total_planck_radiance_frozen_values():
    assert total_planck_radiance(2042.0) == pytest.approx(TOTAL_RADIANCE_2042, rel=1e-12)
    assert total_planck_radiance(6000.0) == pytest.approx(TOTAL_RADIANCE_6000, rel=1e-12)


def test_total_planck_radiance_t4_scaling():
    assert total_planck_radiance(4084.0) == pytest.approx(16.0 * total_planck_radiance(2042.0), rel=1e-14)


def test_total_planck_radiance_rejects_nonpositive():
    with pytest.raises(DomainError):
        total_planck_radiance(0.0)
    with pytest.raises(DomainError):
        total_planck_radiance(-100.0)


def test_integration_spec_validation():
    with pytest.raises(DomainError):
        IntegrationSpec(1.0, 1.0)
    with pytest.raises(DomainError):
        IntegrationSpec(0.0, 1.0, rel_tol=0.0)
    with pytest.raises(DomainError):
        IntegrationSpec(0.0, 1.0, rel_tol=2.0)
    with pytest.raises(DomainError):
        IntegrationSpec(0.0, 1.0, max_depth=0)


def test_jump_discontinuity_exhausts_depth():
    # a jump inside the interval never converges; callers must split
    step = lambda x: 1.0 if x < 0.37 else 0.0
    with pytest.raises(NonConvergenceError):
        integrate(step, IntegrationSpec(0.0, 1.0, rel_tol=1e-10, max_depth=12))


def test_identically_zero_integrand():
    assert integrate(lambda x: 0.0, IntegrationSpec(0.0, 1.0)) == 0.0


def test_linearity():
    rng = np.random.default_rng(7)
    knots = np.linspace(0.0, 10.0, 12)
    f = spline_fit(knots, rng.uniform(-1.0, 1.0, 12))
    g = spline_fit(knots, rng.uniform(-1.0, 1.0, 12))
    spec = IntegrationSpec(0.0, 10.0)
    for alpha, beta in [(2.0, -3.0), (0.5, 0.25), (-1.0, 1.0)]:
        combined = integrate(lambda x: alpha * f(x) + beta * g(x), spec)
        separate = alpha * integrate(f, spec) + beta * integrate(g, spec)
        scale = abs(alpha * integrate(lambda x: abs(f(x)), spec)) \
            + abs(beta * integrate(lambda x: abs(g(x)), spec))
        assert abs(combined - separate) <= 2.0 * spec.rel_tol * max(scale, 1.0)


def test_interval_additivity():
    rng = np.random.default_rng(11)
    f = spline_fit(np.linspace(0.0, 10.0, 15), rng.uniform(0.0, 2.0, 15))
    whole = integrate(f, IntegrationSpec(0.0, 10.0))
    parts = integrate(f, IntegrationSpec(0.0, 3.7)) + integrate(f, IntegrationSpec(3.7, 10.0))
    assert parts == pytest.approx(whole, rel=2e-8)


@pytest.mark.parametrize("t_k", [1800.0, 3000.0, 6000.0, 9300.0])
def test_stefan_boltzmann_consistency(t_k):
    numeric = integrate(lambda lam: planck_radiance(lam, t_k),
                        IntegrationSpec(10.0, 1e6)) * NM_TO_M
    ratio = numeric / total_planck_radiance(t_k)
    assert 1.0 - 1e-4 <= ratio <= 1.0 + 1e-4


# --- Gauss-Legendre panel rule ---


def test_panel_rule_is_exact_to_degree_nine():
    # 5-point Gauss-Legendre integrates degree 2n - 1 = 9 exactly on
    # every panel, so on the whole interval too
    lam, w = panel_rule(0.0, 13.0, [2.5, 7.1])
    assert w.sum() == pytest.approx(13.0, rel=1e-15)
    for k in range(10):
        got = np.sum(w * (lam / 13.0) ** k)
        assert got == pytest.approx(13.0 / (k + 1), rel=1e-13)


def test_panel_rule_splits_at_breakpoints_and_caps_width():
    cuts = [381.7, 380.0, 412.0, 412.0, 300.0, 900.0]  # unsorted, repeated, outside
    lam, w = panel_rule(380.0, 420.0, cuts, np.array([405.25]))
    panels, widths = lam.reshape(-1, 5), w.reshape(-1, 5).sum(axis=1)
    assert np.all(widths <= MAX_PANEL_NM * (1.0 + 1e-12))
    assert widths.sum() == pytest.approx(40.0, rel=1e-14)
    assert np.all(np.diff(lam) > 0)
    for b in (381.7, 405.25, 412.0):
        assert not np.any((panels.min(axis=1) < b) & (panels.max(axis=1) > b))
    # a jump at a breakpoint is integrated exactly
    assert np.sum(w * (lam >= 405.25)) == pytest.approx(420.0 - 405.25, rel=1e-14)


# --- natural cubic spline ---


def test_spline_reproduces_affine_data():
    x = np.arange(380.0, 781.0, 20.0)
    s = spline_fit(x, 2.0 * x + 1.0)
    dense = np.linspace(380.0, 780.0, 2001)
    assert np.max(np.abs(s(dense) - (2.0 * dense + 1.0))) < 1e-9


def test_spline_interpolates_knots():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(380.0, 780.0, 25))
    x += np.arange(25) * 1e-6  # ensure strict ascent
    y = rng.uniform(0.1, 5.0, 25)
    s = spline_fit(x, y)
    assert np.max(np.abs(s(x) - y) / np.abs(y)) < 1e-12


def test_spline_accuracy_on_sine():
    # natural boundary conditions cost accuracy in the outermost panels
    # (sin'' does not vanish at 380 or 780); the interior meets 1e-5
    x = np.arange(380.0, 781.0, 5.0)
    s = spline_fit(x, np.sin(x / 50.0))
    interior = np.linspace(400.0, 760.0, 20001)
    assert np.max(np.abs(s(interior) - np.sin(interior / 50.0))) < 1e-5
    full = np.linspace(380.0, 780.0, 20001)
    assert np.max(np.abs(s(full) - np.sin(full / 50.0))) < 1e-3


def test_spline_second_derivatives_solve_the_tridiagonal_system():
    rng = np.random.default_rng(13)
    x = np.cumsum(rng.uniform(0.5, 3.0, 40)) + 380.0
    y = rng.uniform(0.0, 2.0, 40)
    h = np.diff(x)
    # natural spline: h[i-1] m[i-1] + 2 (h[i-1] + h[i]) m[i] + h[i] m[i+1]
    # = 6 (slope[i] - slope[i-1]) at each interior knot, m[0] = m[-1] = 0
    a = np.diag(2.0 * (h[:-1] + h[1:])) + np.diag(h[1:-1], 1) + np.diag(h[1:-1], -1)
    interior = np.linalg.solve(a, 6.0 * np.diff(np.diff(y) / h))
    d2 = spline_fit(x, y)._d2
    assert d2[0] == 0.0 and d2[-1] == 0.0
    assert np.max(np.abs(d2[1:-1] - interior)) <= 1e-12 * np.max(np.abs(interior))


def test_spline_rejects_bad_input():
    with pytest.raises(DomainError):
        spline_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])  # too few knots
    with pytest.raises(DomainError):
        spline_fit([1.0, 3.0, 2.0, 4.0], [0.0, 0.0, 0.0, 0.0])  # unsorted
    with pytest.raises(DomainError):
        spline_fit([1.0, 2.0, 2.0, 4.0], [0.0, 0.0, 0.0, 0.0])  # duplicate
