import numpy as np
import pytest
from hull_oracle import lower_faces
from lp_oracle import enumerate_basic_max
from simplex_oracle import _PivotBudget, build_problem
from simpson_oracle import NonConvergenceError

from lumenkit import (
    Chromaticity,
    DomainError,
    gamut_boundary,
    in_gamut,
    iso_per_scan,
    max_per,
    spectral_locus,
)
from lumenkit.maxper import _envelope

KM = 683.0

# Frozen scipy.optimize.linprog (HiGHS) value for the (1/3, 1/3) target
# on the packaged table at 5 nm.
WHITE_MAX_PER = 427.14610440694287

# Points of the 0.0025 grid 1.8e-6 to 8.8e-6 outside the 380-775 nm purple
# edge of the packaged table's gamut.
JUST_OUTSIDE_PURPLE_EDGE = [(0.3, 0.0625), (0.3875, 0.1025), (0.475, 0.1425),
                            (0.5625, 0.1825), (0.65, 0.2225)]


def _locus_target(cmf, lam_nm):
    i = int(np.where(cmf.wavelengths_nm == lam_nm)[0][0])
    x, y = spectral_locus(cmf)[i]
    return Chromaticity(x, y), cmf.ybar[i]


def _convex_target(cmf, rng):
    """Random point strictly inside the discrete gamut."""
    locus = spectral_locus(cmf)
    w = rng.dirichlet(np.ones(len(locus)))
    x, y = w @ locus
    return Chromaticity(x, y)


def test_build_problem_shape(cmf):
    p = build_problem(Chromaticity(1.0 / 3.0, 1.0 / 3.0), cmf, KM)
    assert p.a.shape == (3, 81)
    assert np.array_equal(p.b, [1.0, 0.0, 0.0])
    assert p.delta_lambda_nm == 5.0
    assert np.all(p.a[0] == 5.0)


def test_build_problem_cost_at_555(cmf):
    p = build_problem(Chromaticity(0.3, 0.3), cmf, KM)
    i = int(np.where(p.wavelengths_nm == 555.0)[0][0])
    assert p.c[i] == 683.0


def test_build_problem_monochromatic_self_consistency(cmf):
    target, _ = _locus_target(cmf, 555.0)
    p = build_problem(target, cmf, KM)
    i = int(np.where(p.wavelengths_nm == 555.0)[0][0])
    unit = np.zeros(81)
    unit[i] = 1.0 / p.delta_lambda_nm
    residual = p.a @ unit - p.b
    assert np.max(np.abs(residual)) < 1e-12


def test_build_problem_stride(cmf):
    p = build_problem(Chromaticity(0.3, 0.3), cmf, KM, delta_lambda_nm=10.0)
    assert p.a.shape == (3, 41)
    assert p.wavelengths_nm[1] - p.wavelengths_nm[0] == 10.0


def test_build_problem_rejects_off_grid_spacing(cmf):
    with pytest.raises(DomainError):
        max_per(Chromaticity(0.3, 0.3), cmf, KM, delta_lambda_nm=7.0)
    with pytest.raises(DomainError):
        max_per(Chromaticity(0.3, 0.3), cmf, KM, delta_lambda_nm=800.0)


def test_white_point_objective(cmf):
    solution = max_per(Chromaticity(1.0 / 3.0, 1.0 / 3.0), cmf, KM)
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(WHITE_MAX_PER, rel=1e-9)
    assert len(solution.support) <= 3


def test_555_locus_target_is_single_line(cmf):
    target, ybar = _locus_target(cmf, 555.0)
    solution = max_per(target, cmf, KM)
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(KM * ybar, rel=1e-9)
    assert len(solution.support) == 1
    lam, weight = solution.support[0]
    assert lam == 555.0
    assert weight == pytest.approx(0.2, rel=1e-12)


def test_out_of_gamut_target_is_infeasible(cmf):
    solution = max_per(Chromaticity(0.8, 0.8), cmf, KM)
    assert solution.status == "infeasible"
    assert solution.objective_value is None
    assert solution.support == ()


def test_reduced_instance_matches_enumeration(cmf, reduced_cmfs):
    small = reduced_cmfs[0]  # N = 6: 440..640 step 40
    assert len(small.wavelengths_nm) == 6
    rng = np.random.default_rng(47)
    for _ in range(10):
        target = _convex_target(small, rng)
        oracle = enumerate_basic_max(build_problem(target, small, KM))
        solution = max_per(target, small, KM)
        assert solution.status == "optimal"
        assert oracle is not None
        assert solution.objective_value == pytest.approx(oracle, rel=1e-9)


def test_random_targets_against_enumeration(cmf, reduced_cmfs):
    rng = np.random.default_rng(53)
    checked = 0
    for table in reduced_cmfs:
        assert len(table.wavelengths_nm) <= 8
        for _ in range(17):
            target = _convex_target(table, rng)
            oracle = enumerate_basic_max(build_problem(target, table, KM))
            solution = max_per(target, table, KM)
            assert solution.status == "optimal"
            assert solution.objective_value == pytest.approx(oracle, rel=1e-9)
            assert len(solution.support) <= 3
            checked += 1
    assert checked >= 50


def test_infeasibility_agrees_with_enumeration(reduced_cmfs):
    table = reduced_cmfs[0]
    for target in (Chromaticity(0.05, 0.05), Chromaticity(0.75, 0.25),
                   Chromaticity(0.9, 0.05)):
        assert enumerate_basic_max(build_problem(target, table, KM)) is None
        assert max_per(target, table, KM).status == "infeasible"


def test_feasibility_matches_gamut(cmf):
    # strictly interior targets must be feasible; targets pushed well
    # outside the locus must not be
    rng = np.random.default_rng(59)
    locus = spectral_locus(cmf)
    centroid = locus.mean(axis=0)
    for _ in range(100):
        target = _convex_target(cmf, rng)
        assert in_gamut(target, cmf)
        assert max_per(target, cmf, KM).status == "optimal"
    for _ in range(100):
        vertex = locus[rng.integers(0, len(locus))]
        out = centroid + 1.05 * (vertex - centroid)
        if out[0] < 0 or out[1] < 0:
            continue
        point = Chromaticity(out[0], out[1])
        assert not in_gamut(point, cmf)
        assert max_per(point, cmf, KM).status == "infeasible"


def test_support_reconstructs_target_chromaticity(cmf):
    rng = np.random.default_rng(61)
    wl = list(cmf.wavelengths_nm)
    for _ in range(10):
        target = _convex_target(cmf, rng)
        solution = max_per(target, cmf, KM)
        assert solution.status == "optimal"
        x_sum = y_sum = total = 0.0
        for lam, weight in solution.support:
            i = wl.index(lam)
            x_sum += weight * cmf.xbar[i]
            y_sum += weight * cmf.ybar[i]
            total += weight * (cmf.xbar[i] + cmf.ybar[i] + cmf.zbar[i])
        assert x_sum / total == pytest.approx(target.x, abs=1e-6)
        assert y_sum / total == pytest.approx(target.y, abs=1e-6)


def test_km_scales_objective_not_spectrum(cmf):
    target = Chromaticity(0.35, 0.40)
    base = max_per(target, cmf, KM)
    doubled = max_per(target, cmf, 2.0 * KM)
    assert doubled.objective_value == pytest.approx(2.0 * base.objective_value, rel=1e-12)
    assert [lam for lam, _ in doubled.support] == [lam for lam, _ in base.support]
    for (_, w1), (_, w2) in zip(base.support, doubled.support):
        assert w2 == pytest.approx(w1, rel=1e-12)


def test_monochromatic_targets_mid_spectrum(cmf):
    # Holds where the locus vertex is a strict extreme point of the
    # discrete gamut.  The published table is collinear to rounding
    # level at its violet and red tails (385/395 nm, >= 705 nm), where
    # the optimum legitimately mixes neighbours at higher ybar.
    wl = cmf.wavelengths_nm
    for lam in wl[(wl >= 400.0) & (wl <= 700.0)]:
        target, ybar = _locus_target(cmf, lam)
        solution = max_per(target, cmf, KM)
        assert solution.status == "optimal"
        assert solution.objective_value == pytest.approx(KM * ybar, rel=1e-9)
        assert len(solution.support) == 1


def test_red_tail_targets_beat_single_line(cmf):
    for lam in (710.0, 720.0, 750.0):
        target, ybar = _locus_target(cmf, lam)
        solution = max_per(target, cmf, KM)
        assert solution.status == "optimal"
        assert solution.objective_value >= KM * ybar * (1.0 - 1e-9)
        assert len(solution.support) <= 3


def test_iso_scan_bound_and_order(cmf):
    grid = iso_per_scan(0.05, cmf, KM)
    assert grid.grid_step == 0.05
    assert len(grid.rows) == 21 * 21
    cap = KM * cmf.ybar.max() + 1e-6
    seen_values = 0
    for k, (x, y, value) in enumerate(grid.rows):
        assert x == pytest.approx((k % 21) * 0.05, abs=1e-12)
        assert y == pytest.approx((k // 21) * 0.05, abs=1e-12)
        if value is not None:
            seen_values += 1
            assert 0.0 <= value <= cap
    assert seen_values > 50


def test_iso_scan_rejects_coarse_step(cmf):
    with pytest.raises(DomainError):
        iso_per_scan(0.06, cmf, KM)
    with pytest.raises(DomainError):
        iso_per_scan(0.0, cmf, KM)


def test_iso_scan_deterministic(cmf):
    a = iso_per_scan(0.05, cmf, KM)
    b = iso_per_scan(0.05, cmf, KM)
    assert a == b


def test_iso_scan_peak_near_555(cmf):
    grid = iso_per_scan(0.02, cmf, KM)
    best = max((row for row in grid.rows if row[2] is not None), key=lambda r: r[2])
    target, _ = _locus_target(cmf, 555.0)
    assert np.hypot(best[0] - target.x, best[1] - target.y) <= 0.03


def test_pivot_budget_raises():
    budget = _PivotBudget(2)
    budget.spend()
    budget.spend()
    with pytest.raises(NonConvergenceError):
        budget.spend()


@pytest.mark.parametrize("x, y", JUST_OUTSIDE_PURPLE_EDGE)
def test_points_just_outside_the_purple_edge_are_infeasible(cmf, x, y):
    target = Chromaticity(x, y)
    assert not in_gamut(target, cmf)
    solution = max_per(target, cmf, KM)
    assert solution.status == "infeasible"
    assert solution.objective_value is None


def test_feasibility_is_in_gamut_on_the_grid(cmf):
    # max_per, in_gamut and iso_per_scan share one definition of gamut.
    grid = iso_per_scan(0.01, cmf, KM)
    for x, y, value in grid.rows:
        target = Chromaticity(x, y)
        inside = in_gamut(target, cmf)
        solution = max_per(target, cmf, KM)
        assert (solution.status == "optimal") == inside, (x, y)
        assert (value is not None) == (inside and x + y <= 1.0), (x, y)
        if value is not None:
            assert value == pytest.approx(solution.objective_value, rel=1e-12)


def test_targets_within_the_boundary_tolerance_are_optimal(cmf):
    # in_gamut takes in points up to 1e-12 outside an edge; no face
    # contains them, so the face they are least outside of answers.
    hull = gamut_boundary(cmf)
    for a, b in zip(hull, np.roll(hull, -1, axis=0)):
        normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
        on_edge = Chromaticity(*(0.5 * (a + b)))
        outside = Chromaticity(*(0.5 * (a + b) + 0.9e-12 * normal))
        assert in_gamut(outside, cmf)
        solution, reference = max_per(outside, cmf, KM), max_per(on_edge, cmf, KM)
        assert solution.status == reference.status == "optimal"
        assert solution.objective_value == pytest.approx(reference.objective_value, rel=1e-6)
        assert [lam for lam, _ in solution.support] == [lam for lam, _ in reference.support]


@pytest.mark.parametrize("delta_lambda", [5.0, 10.0, 15.0, 20.0])
def test_envelope_faces_match_brute_force(cmf, delta_lambda):
    stride = int(delta_lambda / cmf.spacing_nm)
    faces = {frozenset(corners) for corners in
             _envelope(cmf, delta_lambda).wavelengths_nm.tolist()}
    assert faces == lower_faces(cmf, stride)
    if delta_lambda == 5.0:
        assert len(faces) == 78


def test_envelope_faces_match_brute_force_on_reduced_tables(reduced_cmfs):
    for table in reduced_cmfs:
        faces = {frozenset(corners) for corners in
                 _envelope(table, None).wavelengths_nm.tolist()}
        assert faces == lower_faces(table, 1)


def test_envelope_is_built_once_per_stride(cmf):
    assert _envelope(cmf, 15.0) is _envelope(cmf, 15.0)
    assert _envelope(cmf, None) is _envelope(cmf, 5.0)
    assert _envelope(cmf, 15.0) is not _envelope(cmf, 5.0)
