import io

import numpy as np
import pytest
from simpson_oracle import ACCURACY_SOURCES, oracle_chromaticity

from lumenkit import (
    Chromaticity,
    CmfTable,
    DomainError,
    Flat,
    Gaussian,
    Line,
    ParseError,
    Planck,
    Sampled,
    SampledSpectrum,
    Tabulated,
    Tristimulus,
    ValidationError,
    ZeroSpectrumError,
    chromaticity,
    default_cmf_path,
    gamut_boundary,
    in_gamut,
    integrate,
    IntegrationSpec,
    iso_per_scan,
    load_cmf,
    max_per,
    per,
    planckian_locus,
    spectral_locus,
    tristimulus,
)
from lumenkit.spectral import evaluate_spectrum

# Dense-grid (0.1 nm trapezoid) brute-force chromaticity of Planck(6500)
# under the packaged table, frozen as the locus oracle.
LOCUS_6500 = (0.31355663819154045, 0.3236942961200107)

# Orientations this small relative to the edge lengths count as collinear:
# the packaged table's red tail lies on x + y = 1 to rounding.
COLLINEAR_RTOL = 1e-9


def _table_text(rows, header="wavelength_nm,xbar,ybar,zbar"):
    return header + "\n" + "\n".join(rows) + "\n"


def test_load_packaged_table(cmf):
    assert len(cmf.wavelengths_nm) == 81
    assert cmf.wavelengths_nm[0] == 380.0
    assert cmf.wavelengths_nm[-1] == 780.0
    assert cmf.spacing_nm == 5.0


def test_ybar_peaks_at_555(cmf):
    peak = cmf.wavelengths_nm[int(np.argmax(cmf.ybar))]
    assert peak in (555.0, 560.0)
    assert cmf.ybar.max() == 1.0


def test_load_cmf_accepts_streams_and_crlf():
    with open(default_cmf_path(), "rb") as f:
        text = f.read().decode("utf-8")
    from_text = load_cmf(io.StringIO(text))
    from_bytes = load_cmf(io.BytesIO(text.replace("\n", "\r\n").encode("utf-8")))
    assert np.array_equal(from_text.ybar, from_bytes.ybar)
    assert len(from_text.wavelengths_nm) == 81


def test_load_cmf_rejects_negative_value_naming_row():
    rows = [f"{380 + 5 * i},0.01,{'-0.5' if i == 2 else '0.9' if 550 <= 380 + 5*i <= 560 else '0.5'},0.01"
            for i in range(81)]
    # keep the ybar-peak invariant satisfiable: put 1.0 at 555
    rows[35] = "555,0.01,1.0,0.01"
    rows[2] = "390,0.01,-0.5,0.01"
    with pytest.raises(ValidationError, match="row 3"):
        load_cmf(io.StringIO(_table_text(rows)))


def test_load_cmf_rejects_bad_header():
    with pytest.raises(ParseError, match="header"):
        load_cmf(io.StringIO(_table_text(["380,0.1,0.1,0.1"], header="wl,x,y,z")))


def test_load_cmf_rejects_nonuniform_grid():
    rows = ["380,0.1,0.1,0.1", "385,0.1,0.2,0.1", "395,0.1,0.3,0.1",
            "555,0.1,1.0,0.1", "560,0.1,0.9,0.1"]
    with pytest.raises(ValidationError, match="uniform"):
        load_cmf(io.StringIO(_table_text(rows)))


def test_load_cmf_reports_parse_line():
    rows = ["380,0.1,0.1,0.1", "385,zap,0.2,0.1"]
    with pytest.raises(ParseError, match="line 3"):
        load_cmf(io.StringIO(_table_text(rows)))


def test_load_cmf_rejects_missing_columns():
    with pytest.raises(ParseError):
        load_cmf(io.StringIO("wavelength_nm,xbar,ybar\n380,0.1,0.1\n"))


# --- tristimulus / chromaticity ---


def test_y_channel_matches_per_numerator(cmf):
    v = Tabulated.from_cmf(cmf)
    km = 683.0
    for model, lo, hi in [(Flat(380.0, 780.0), None, None),
                          (Gaussian(520.0, 30.0), 380.0, 780.0)]:
        t = tristimulus(model, cmf, km, lo, hi)
        e = per(model, v, km, lo, hi)
        lo_eff = 380.0 if lo is None else lo
        hi_eff = 780.0 if hi is None else hi
        den = integrate(lambda lam: evaluate_spectrum(model, lam),
                        IntegrationSpec(lo_eff, hi_eff))
        assert t.Y == pytest.approx(e.per * den, rel=1e-6)


def test_line_tristimulus_is_table_lookup(cmf):
    t = tristimulus(Line(700.0), cmf, 683.0)
    assert t.Z == 0.0
    assert t.X == 683.0 * 0.011359
    assert t.Y == 683.0 * 0.004102


def test_tristimulus_scales_linearly(cmf):
    knots = np.linspace(430.0, 680.0, 8)
    values = np.array([0.3, 1.2, 2.0, 1.1, 0.7, 1.6, 0.9, 0.2])
    t1 = tristimulus(Sampled(SampledSpectrum(knots, values)), cmf, 683.0)
    t3 = tristimulus(Sampled(SampledSpectrum(knots, 3.0 * values)), cmf, 683.0)
    assert t3.X == pytest.approx(3.0 * t1.X, rel=1e-9)
    assert t3.Y == pytest.approx(3.0 * t1.Y, rel=1e-9)
    assert t3.Z == pytest.approx(3.0 * t1.Z, rel=1e-9)


def test_tristimulus_no_overlap(cmf):
    with pytest.raises(ZeroSpectrumError):
        tristimulus(Flat(900.0, 1000.0), cmf, 683.0)


def test_chromaticity_symmetric_input():
    assert chromaticity(Tristimulus(1.0, 1.0, 1.0)) == Chromaticity(1.0 / 3.0, 1.0 / 3.0)


def test_chromaticity_white_point(cmf):
    point = chromaticity(tristimulus(Flat(380.0, 780.0), cmf, 683.0))
    assert point.x == pytest.approx(1.0 / 3.0, abs=0.01)
    assert point.y == pytest.approx(1.0 / 3.0, abs=0.01)


def test_chromaticity_scale_invariance():
    t = Tristimulus(2.0, 3.0, 4.0)
    scaled = Tristimulus(2.0e5, 3.0e5, 4.0e5)
    assert chromaticity(t) == chromaticity(scaled)


@pytest.mark.parametrize("model", [s[1] for s in ACCURACY_SOURCES],
                         ids=[s[0] for s in ACCURACY_SOURCES])
def test_chromaticity_matches_simpson_oracle(cmf, model):
    point = chromaticity(tristimulus(model, cmf, 683.0))
    assert (point.x, point.y) == pytest.approx(oracle_chromaticity(model, cmf), rel=0.0, abs=1e-10)


@pytest.mark.parametrize("x,y", [(float("nan"), 0.3), (0.3, float("inf")), (float("-inf"), 0.3)])
def test_chromaticity_rejects_non_finite(x, y):
    with pytest.raises(DomainError):
        Chromaticity(x, y)


def test_chromaticity_black_spectrum():
    with pytest.raises(ZeroSpectrumError):
        chromaticity(Tristimulus(0.0, 0.0, 0.0))


# --- planckian locus ---


def test_locus_6500(cmf):
    rows = planckian_locus(6500.0, 6500.0, 100.0, cmf)
    assert len(rows) == 1
    point = rows[0][1]
    assert point.x == pytest.approx(LOCUS_6500[0], abs=1e-4)
    assert point.y == pytest.approx(LOCUS_6500[1], abs=1e-4)
    assert point.x == pytest.approx(0.313, abs=0.01)
    assert point.y == pytest.approx(0.324, abs=0.01)


def test_locus_x_decreases_with_temperature(cmf):
    rows = planckian_locus(2000.0, 10000.0, 500.0, cmf)
    xs = [point.x for _, point in rows]
    assert all(b < a for a, b in zip(xs, xs[1:]))


def test_locus_red_to_blue_ordering(cmf):
    hot = planckian_locus(9300.0, 9300.0, 1.0, cmf)[0][1]
    cold = planckian_locus(1800.0, 1800.0, 1.0, cmf)[0][1]
    assert cold.x > hot.x


# --- gamut ---


def test_white_point_in_gamut(cmf):
    assert in_gamut(Chromaticity(1.0 / 3.0, 1.0 / 3.0), cmf)


def test_far_corner_out_of_gamut(cmf):
    assert not in_gamut(Chromaticity(0.9, 0.9), cmf)


def test_locus_vertices_are_boundary_inside(cmf):
    for x, y in spectral_locus(cmf):
        assert in_gamut(Chromaticity(x, y), cmf)


def test_perturbed_vertices_fall_outside(cmf):
    verts = spectral_locus(cmf)
    centroid = verts.mean(axis=0)
    for x, y in verts:
        d = np.array([x, y]) - centroid
        out = np.array([x, y]) + 1e-3 * d / np.linalg.norm(d)
        assert not in_gamut(Chromaticity(out[0], out[1]), cmf)


def _orient(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _edges_cross(e1, e2):
    """True if the edges cross, or are collinear and overlap."""
    (p1, p2), (q1, q2) = e1, e2
    d1, d2 = _orient(p1, p2, q1), _orient(p1, p2, q2)
    d3, d4 = _orient(q1, q2, p1), _orient(q1, q2, p2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    u = p2 - p1
    scale = COLLINEAR_RTOL * np.hypot(*u) * max(np.hypot(*(q1 - p1)), np.hypot(*(q2 - p1)))
    if abs(d1) > scale or abs(d2) > scale:
        return False
    t1, t2 = (q1 - p1) @ u / (u @ u), (q2 - p1) @ u / (u @ u)
    return max(min(t1, t2), 0.0) < min(max(t1, t2), 1.0)


def _crossing_edges(verts):
    """Index pairs of non-adjacent edges of the closed polygon that cross."""
    n = len(verts)
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return [(i, j) for i in range(n) for j in range(i + 2, n)
            if not (i == 0 and j == n - 1) and _edges_cross(edges[i], edges[j])]


def test_locus_polygon_is_simple_and_below_diagonal(cmf):
    # The polygon that in_gamut tests points against.
    verts = gamut_boundary(cmf)
    assert np.all(verts.sum(axis=1) <= 1.0 + 1e-12)
    assert _crossing_edges(verts) == []


def test_table_order_locus_polygon_overlaps_itself(cmf):
    # Beyond 695 nm the rounded locus steps back and forth along
    # x + y = 1, so in table order its edges overlap: this polygon is not
    # the gamut boundary.
    assert (63, 65) in _crossing_edges(spectral_locus(cmf))
    assert _edges_cross((np.array([0.0, 0.0]), np.array([2.0, 0.0])),
                        (np.array([1.0, 0.0]), np.array([3.0, 0.0])))
    assert not _edges_cross((np.array([0.0, 0.0]), np.array([1.0, 0.0])),
                            (np.array([2.0, 0.0]), np.array([3.0, 0.0])))


def test_point_between_table_polygon_and_hull_is_in_gamut(cmf):
    # (0.6, 0.2) lies inside the locus hull, so some three-line spectrum
    # has this colour, but outside the table-order locus polygon.
    target = Chromaticity(0.6, 0.2)
    assert in_gamut(target, cmf)
    assert max_per(target, cmf, 683.0).status == "optimal"
    x, y, value = iso_per_scan(0.05, cmf, 683.0).rows[4 * 21 + 12]
    assert (x, y) == pytest.approx((0.6, 0.2), abs=1e-12)
    assert value is not None


def test_collinear_locus_has_no_gamut():
    table = CmfTable(np.array([550.0, 555.0]), np.array([0.4, 0.5]),
                     np.array([1.0, 0.99]), np.array([0.01, 0.01]))
    with pytest.raises(ValidationError, match="collinear"):
        in_gamut(Chromaticity(0.3, 0.3), table)


def test_tristimulus_additivity(cmf):
    knots = np.linspace(420.0, 700.0, 9)
    v1 = np.array([0.1, 0.9, 0.4, 1.5, 0.2, 0.8, 1.1, 0.3, 0.6])
    v2 = np.array([1.0, 0.2, 0.7, 0.1, 1.3, 0.5, 0.2, 0.9, 0.4])
    t1 = tristimulus(Sampled(SampledSpectrum(knots, v1)), cmf, 683.0)
    t2 = tristimulus(Sampled(SampledSpectrum(knots, v2)), cmf, 683.0)
    t12 = tristimulus(Sampled(SampledSpectrum(knots, v1 + v2)), cmf, 683.0)
    assert t12.X == pytest.approx(t1.X + t2.X, rel=1e-6)
    assert t12.Y == pytest.approx(t1.Y + t2.Y, rel=1e-6)
    assert t12.Z == pytest.approx(t1.Z + t2.Z, rel=1e-6)


def test_physical_spectra_stay_in_gamut(cmf):
    rng = np.random.default_rng(41)
    for _ in range(15):
        knots = np.sort(rng.uniform(390.0, 770.0, 9))
        knots += np.arange(9) * 1e-3
        model = Sampled(SampledSpectrum(knots, rng.uniform(0.0, 2.0, 9)))
        try:
            point = chromaticity(tristimulus(model, cmf, 683.0))
        except ZeroSpectrumError:
            continue
        assert in_gamut(point, cmf)


def test_planck_chromaticities_in_gamut(cmf):
    for _, point in planckian_locus(1500.0, 9500.0, 1000.0, cmf):
        assert in_gamut(point, cmf)
