"""Reference answers that do not use lumenkit, and the output checks.

Everything here is written from the definitions, reading only the CIE table
CSV, so that a defect in lumenkit cannot hide in its own check.  Nothing here
runs inside a timed region.

* Spectral integrals: Gauss-Legendre on fine panels split at the CMF knots,
  at the edges of each source's support and at spline knots.  Planck's total
  radiance uses its closed form; Sampled sources use scipy's natural cubic
  spline, zero-extended and clamped at zero.
* Max PER: the program is the LP ``min sum(mu) s.t. [xbar; ybar; zbar] mu =
  (x, y, 1-x-y), mu >= 0``; max PER is ``K y / min sum(mu)``.  Its optimum is
  the lower convex envelope of the lifted locus points (x_i, y_i, 1/S_i) with
  S = xbar + ybar + zbar, and it is feasible exactly on the convex hull of
  the locus.  Both come from scipy's qhull once per run, which is fast enough
  to check every op; ``linprog(method="highs")`` on the same LP cross-checks
  the envelope on a sample of targets (``cross_check_lp``).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

H = 6.62607015e-34   # J s, exact SI
C = 2.99792458e8     # m/s, exact SI
K_B = 1.380649e-23   # J/K, exact SI
KM_SI = 683.0
PLATINUM_POINT_K = 2042.0
PLATINUM_LUMINANCE = 6.0e5
V_BAND_NM = (300.0, 900.0)  # band of lumenkit's eye-weighted Planck numerators
GAUSS_SUPPORT_WIDTHS = 15.0
DEFAULT_BAND = (380.0, 780.0)  # the CLI's band for Gaussian and Line sources

# Tolerances, fixed before measuring: lumenkit integrates to rel_tol 1e-8
# and its CSV carries 9 significant digits.
PER_RTOL = 1e-6
CHROMA_ATOL = 1e-7
MAXPER_RTOL = 1e-7
# Targets this close to the gamut boundary may be called either way.
BOUNDARY_ATOL = 1e-9

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_SUBPANELS = 2


class Reference:
    def __init__(self, cmf_rows):
        cmf = np.array(cmf_rows)
        self.wl = cmf[:, 0]
        self.bars = cmf[:, 1:4].T
        s = self.bars.sum(axis=0)
        locus = (self.bars[:2] / s).T
        self._hull2 = ConvexHull(locus)
        lifted = np.column_stack([locus, 1.0 / s])
        eq = ConvexHull(lifted).equations
        self._lower = eq[eq[:, 2] < 0]  # faces whose outward normal points down
        self._iso_cache = {}
        self._spectra_cache = {}

    # --- eye response and spectra ---

    def v_curve(self, v, lam):
        lam = np.asarray(lam, dtype=float)
        if v == "photopic":
            return 1.019 * np.exp(-285.0 * (lam / 1000.0 - 0.559) ** 2)
        if v == "scotopic":
            return 0.992 * np.exp(-321.9 * (lam / 1000.0 - 0.503) ** 2)
        return np.interp(lam, self.wl, self.bars[1], left=0.0, right=0.0)

    def v_support(self, v):
        return (self.wl[0], self.wl[-1]) if v == "tabulated" else None

    def integrate(self, f, lo, hi, knots=()):
        """Gauss-Legendre over [lo, hi] split at the CMF knots and ``knots``."""
        cuts = np.concatenate([[lo, hi], self.wl, np.asarray(knots, dtype=float)])
        cuts = np.unique(cuts[(cuts >= lo) & (cuts <= hi)])
        edges = np.concatenate([np.linspace(a, b, _SUBPANELS + 1)[:-1]
                                for a, b in zip(cuts[:-1], cuts[1:])] + [[hi]])
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        lam = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
        w = (half[:, None] * _GL_WEIGHTS).ravel()
        return float(np.sum(w * f(lam)))

    def per(self, source, v, km):
        kind = source["kind"]
        if kind == "line":
            return km * float(self.v_curve(v, source["lam"]))
        if kind == "planck":
            lo, hi = _intersect(V_BAND_NM, self.v_support(v))
            num = self.integrate(lambda lam: planck(lam, source["t"]) * self.v_curve(v, lam),
                                 lo, hi) * 1e-9
            return km * num / total_planck(source["t"])
        lo, hi = _model_bounds(source)
        density, knots = _density(source)
        den = self.integrate(density, lo, hi, knots)
        nlo, nhi = _intersect((lo, hi), self.v_support(v))
        if nlo >= nhi:
            return 0.0
        num = self.integrate(lambda lam: density(lam) * self.v_curve(v, lam), nlo, nhi, knots)
        return km * num / den

    def chromaticity(self, source):
        if source["kind"] == "line":
            xyz = [float(np.interp(source["lam"], self.wl, bar, left=0.0, right=0.0))
                   for bar in self.bars]
        else:
            lo, hi = self.wl[0], self.wl[-1]
            support = _support(source)
            if support is not None:
                lo, hi = max(lo, support[0]), min(hi, support[1])
            density, knots = _density(source)
            xyz = [self.integrate(lambda lam, bar=bar: density(lam) * np.interp(lam, self.wl, bar),
                                  lo, hi, knots)
                   for bar in self.bars]
        total = sum(xyz)
        return xyz[0] / total, xyz[1] / total

    @functools.cached_property
    def _km_computed(self):
        num = self.integrate(lambda lam: planck(lam, PLATINUM_POINT_K) * self.v_curve("photopic", lam),
                             *V_BAND_NM)
        return PLATINUM_LUMINANCE / (num * 1e-9)

    def km(self, flag):
        return KM_SI if flag == "683" else self._km_computed

    # --- gamut and max PER ---

    def gamut(self, targets):
        """Per target: +1 inside the convex gamut, -1 outside, 0 within
        BOUNDARY_ATOL of its edge; and max PER at K = 1 (nan outside)."""
        q = np.asarray(targets, dtype=float).reshape(-1, 2)
        dist = q @ self._hull2.equations[:, :2].T + self._hull2.equations[:, 2]
        outside = dist.max(axis=1)
        state = np.where(outside < -BOUNDARY_ATOL, 1, np.where(outside > BOUNDARY_ATOL, -1, 0))
        a, b, c, d = self._lower.T
        envelope = np.max(-(np.outer(q[:, 0], a) + np.outer(q[:, 1], b) + d) / c, axis=1)
        value = np.where(state >= 0, q[:, 1] / envelope, np.nan)
        return state, value

    def lp_max_per(self, x, y):
        """max PER at K = 1 by linprog on the LP built from the CMF columns,
        or None when the LP is infeasible."""
        res = linprog(np.ones(self.bars.shape[1]), A_eq=self.bars, b_eq=[x, y, 1.0 - x - y],
                      bounds=(0, None), method="highs")
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"linprog failed at ({x}, {y}): {res.message}")
        return y / res.fun

    def cross_check_lp(self, targets):
        """Targets where the envelope and linprog disagree (a reference bug)."""
        state, value = self.gamut(targets)
        bad = []
        for (x, y), s, v in zip(targets, state, value):
            lp = self.lp_max_per(x, y)
            if s == 1 and (lp is None or abs(lp - v) > MAXPER_RTOL * v):
                bad.append((x, y, v, lp))
            elif s == -1 and lp is not None:
                bad.append((x, y, v, lp))
        return bad

    def isoper_rows(self, km, step):
        """Every point k * step of the grid with x + y <= 1, its gamut state
        and its max PER."""
        if (km, step) not in self._iso_cache:
            n = round(1.0 / step)
            pts = [(ix * step, iy * step) for iy in range(n + 1) for ix in range(n + 1)
                   if ix * step + iy * step <= 1.0]
            state, value = self.gamut(pts)
            self._iso_cache[km, step] = [(x, y, s, km * v)
                                         for (x, y), s, v in zip(pts, state, value)]
        return self._iso_cache[km, step]

    # --- checks, one per workload; each returns True when the op passed ---

    def check_spectra(self, op, out):
        if out.get("error"):
            return False
        # Streams repeat a catalogue source only after using all of its kind,
        # but a fast enough program gets there within a run.
        key = json.dumps(op, sort_keys=True)
        if key not in self._spectra_cache:
            self._spectra_cache[key] = (self.per(op, op["v"], KM_SI), *self.chromaticity(op))
        per_ref, x_ref, y_ref = self._spectra_cache[key]
        return (_close(out["per"], per_ref, PER_RTOL)
                and abs(out["x"] - x_ref) <= CHROMA_ATOL and abs(out["y"] - y_ref) <= CHROMA_ATOL)

    def check_gamut(self, ops, outs):
        """Pass flags for a batch of gamut ops."""
        state, value = self.gamut(ops)
        return [bool(self._gamut_ok(out, s, v)) for out, s, v in zip(outs, state, value)]

    def _gamut_ok(self, out, state, value):
        if out.get("error"):
            return False
        inside = out["inside"]
        if state == 1 and not inside or state == -1 and inside:
            return False
        if not inside:
            return True
        status = out.get("status")
        if status == "optimal":
            return state >= 0 and _close(out["value"], KM_SI * value, MAXPER_RTOL)
        return state == 0 and status == "infeasible"

    def expected_exits(self, expect):
        """Exit codes a cli op may end with; a maxper op's depends on its target."""
        if expect["exit"] != "lp":
            return (expect["exit"],)
        state = int(self.gamut([(expect["x"], expect["y"])])[0][0])
        return {1: (0,), -1: (5,), 0: (0, 5)}[state]

    def check_cli(self, op, code, stdout):
        expect = op["expect"]
        if code not in self.expected_exits(expect):
            return False
        if code != 0 or expect["check"] is None:
            return True
        try:
            rows = list(csv.reader(io.StringIO(stdout)))
            return bool(getattr(self, f"_{expect['check']}_csv")(rows, expect))
        except (ValueError, IndexError, KeyError):
            return False

    def _km_csv(self, rows, expect):
        return rows[0][0] == "km_lm_per_w" and _close(float(rows[0][1]), self._km_computed, PER_RTOL) \
            and len(rows) == 1

    def _vlambda_csv(self, rows, expect):
        if rows[0] != ["lambda_nm", "v"] or len(rows) != 402:
            return False
        lam = np.array([float(r[0]) for r in rows[1:]])
        got = np.array([float(r[1]) for r in rows[1:]])
        want = self.v_curve(expect["v"], lam)
        return bool(np.array_equal(lam, np.arange(380.0, 781.0))
                    and np.all(np.abs(got - want) <= 1e-8 * np.maximum(np.abs(want), 1e-300)))

    def _per_csv(self, rows, expect):
        want = self.per(expect["source"], expect["v"], self.km(expect["km"]))
        got_per, got_eff = float(rows[1][0]), float(rows[1][1])
        return rows[0] == ["per_lm_per_w", "efficiency"] and len(rows) == 2 \
            and _close(got_per, want, PER_RTOL) and _close(got_eff, want / KM_SI, PER_RTOL)

    def _chroma_csv(self, rows, expect):
        x, y = self.chromaticity(expect["source"])
        return rows[0] == ["x", "y"] and len(rows) == 2 \
            and abs(float(rows[1][0]) - x) <= CHROMA_ATOL and abs(float(rows[1][1]) - y) <= CHROMA_ATOL

    def _locus_csv(self, rows, expect):
        if rows[0] != ["T_K", "x", "y"] or len(rows) != len(expect["temps"]) + 1:
            return False
        for row, t in zip(rows[1:], expect["temps"]):
            x, y = self.chromaticity({"kind": "planck", "t": t})
            if not (_close(float(row[0]), t, 1e-9) and abs(float(row[1]) - x) <= CHROMA_ATOL
                    and abs(float(row[2]) - y) <= CHROMA_ATOL):
                return False
        return True

    def _maxper_csv(self, rows, expect):
        want = self.km(expect["km"]) * self.gamut([(expect["x"], expect["y"])])[1][0]
        if rows[0][0] != "max_per_lm_per_w" or rows[1] != ["lambda_nm", "weight"]:
            return False
        lines = np.array([[float(c) for c in r] for r in rows[2:]])
        if not _close(float(rows[0][1]), want, MAXPER_RTOL) or not 1 <= len(lines) <= 3:
            return False
        # The support must be a spectrum of the target colour and of unit power.
        spacing = self.wl[1] - self.wl[0]
        idx = np.searchsorted(self.wl, lines[:, 0])
        xyz = self.bars[:, idx] @ lines[:, 1]
        return bool(abs(spacing * lines[:, 1].sum() - 1.0) <= 1e-6
                    and abs(xyz[0] / xyz.sum() - expect["x"]) <= 1e-6
                    and abs(xyz[1] / xyz.sum() - expect["y"]) <= 1e-6)

    def _isoper_csv(self, rows, expect):
        if rows[0] != ["x", "y", "max_per"]:
            return False
        got = {(round(float(r[0]), 9), round(float(r[1]), 9)): float(r[2]) for r in rows[1:]}
        for x, y, state, value in self.isoper_rows(self.km(expect["km"]), expect["step"]):
            key = (round(x, 9), round(y, 9))
            if state == 1 and (key not in got or not _close(got[key], value, MAXPER_RTOL)):
                return False
            if state == -1 and key in got:
                return False
        return len(got) == len(rows) - 1


def planck(lam_nm, t_k):
    lam = np.asarray(lam_nm, dtype=float) * 1e-9
    with np.errstate(over="ignore"):
        return (2.0 * H * C ** 2 / lam ** 5) / np.expm1(H * C / (lam * K_B * t_k))


def total_planck(t_k):
    """Closed form of the full-range Planck radiance, sigma T^4 / pi."""
    return (2.0 * math.pi ** 4 / 15.0) * (K_B * t_k) ** 4 / (H ** 3 * C ** 2)


def _density(source):
    """Vectorised power density of a (non-line) source and its kinks."""
    kind = source["kind"]
    if kind == "planck":
        return (lambda lam: planck(lam, source["t"])), ()
    if kind in ("truncated_planck", "flat"):
        lo, hi = source["lo"], source["hi"]
        inside = (lambda lam: (lam >= lo) & (lam <= hi))
        if kind == "flat":
            return (lambda lam: inside(lam).astype(float)), (lo, hi)
        return (lambda lam: np.where(inside(lam), planck(lam, source["t"]), 0.0)), (lo, hi)
    if kind == "gaussian":
        return (lambda lam: np.exp(-0.5 * ((lam - source["peak"]) / source["width"]) ** 2)), ()
    if kind == "sampled":
        wl = np.asarray(source["wl"], dtype=float)
        spline = CubicSpline(wl, np.asarray(source["p"], dtype=float), bc_type="natural")

        def density(lam):
            inside = (lam >= wl[0]) & (lam <= wl[-1])
            return np.where(inside, np.clip(spline(lam), 0.0, None), 0.0)
        return density, wl
    raise ValueError(f"no density for {kind}")


def _support(source):
    kind = source["kind"]
    if kind in ("truncated_planck", "flat"):
        return source["lo"], source["hi"]
    if kind == "sampled":
        return source["wl"][0], source["wl"][-1]
    return None


def _model_bounds(source):
    if source["kind"] == "gaussian":
        reach = GAUSS_SUPPORT_WIDTHS * source["width"]
        return _intersect(DEFAULT_BAND, (source["peak"] - reach, source["peak"] + reach))
    return _support(source)


def _intersect(band, extra):
    if extra is None:
        return band
    return max(band[0], extra[0]), min(band[1], extra[1])


def _close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want) or got == want
