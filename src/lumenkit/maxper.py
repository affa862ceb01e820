"""Maximum PER at fixed chromaticity, from the lower convex envelope of the
lifted spectral locus (MacAdam, J. Opt. Soc. Am. 40, 120, 1950).

Discretizing the spectrum over the CMF wavelengths, at spacing dlam,
turns "what is the largest PER any source of this color can have?" into
the linear program

    maximize   K_m dlam sum_i P_i ybar_i
    subject to dlam sum_i P_i = 1,  P_i >= 0,  chromaticity (x_c, y_c).

With S = xbar + ybar + zbar, line i sits at the locus point
p_i = (xbar_i, ybar_i) / S_i and carries the share w_i = P_i S_i / T of
the sum T = sum_j P_j S_j of X + Y + Z.  The color constraint says that
the w_i are convex weights with sum_i w_i p_i = (x_c, y_c), and unit power
says dlam T sum_i w_i h_i = 1 with h_i = 1 / S_i.  The objective,
K_m dlam Y = K_m dlam T y_c, is then

    K_m y_c / sum_i w_i h_i,

so the maximum is K_m y_c / E(x_c, y_c), where E is the lower convex
envelope of the lifted points (x_i, y_i, h_i).  E is piecewise linear: each
face of the lower hull is a triangle of three lifted points, so every
optimum mixes at most three lines, the corners of the face under the
target, and its weights are the barycentric coordinates b of the target in
that face: E = b . h, and line i carries P_i = b_i h_i / (E dlam).  The
projection of the hull is the gamut.

The hull is built once per table and stride, on first use, by gift
wrapping in numpy, and cached on the :class:`CmfTable`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colorimetry import Chromaticity, CmfTable, gamut_mask, in_gamut
from .errors import DomainError, ValidationError, check_positive

# A line this far below the strongest one (relative) is rounding noise,
# not a spectral line.
SUPPORT_RTOL = 1e-9

# A target counts as inside a face when none of its barycentric
# coordinates there is below -_FACE_TOL.
_FACE_TOL = 1e-12

# Gift wrapping: a point closer than _COLLINEAR_TOL (chromaticity units) to
# an edge's line is on it, not beside it; candidate planes this close
# (relative) to the lowest one tie with it, and all of them become faces.
_COLLINEAR_TOL = 1e-12
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible
    objective_value: float | None
    support: tuple  # (wavelength_nm, power_density) pairs, power > 0


@dataclass(frozen=True)
class IsoPerGrid:
    """Max PER sampled on a chromaticity grid; None marks out-of-gamut."""

    grid_step: float
    rows: tuple  # (x, y, max_per | None), row-major: y outer, x inner


@dataclass(frozen=True)
class _Envelope:
    """Lower-hull faces of the lifted locus at one stride."""

    delta_lambda_nm: float
    at_table_spacing: bool
    wavelengths_nm: np.ndarray  # (F, 3) corner wavelengths
    heights: np.ndarray         # (F, 3) corner heights 1 / S
    # In face f, at offset (dx, dy) from its first corner, the barycentric
    # coordinates (k = 0, 1, 2) and the height of its plane (k = 3) are
    # at0[k, f] + slope_x[k, f] dx + slope_y[k, f] dy.  Offsets from a
    # corner keep thin faces accurate.
    origin: tuple               # x and y of the first corners, each (F, 1)
    at0: np.ndarray             # (4, F, 1)
    slope: tuple                # slope_x and slope_y, each (4, F, 1)

    def lookup(self, x, y, known):
        """E, the face and the barycentric coordinates (n, 3) at targets
        (x, y), 1-d arrays of length n; E is inf where infeasible.

        Of the faces that contain a target, the lowest there wins: every
        triangle of lifted points lies on or above the envelope, so a
        spare near-coplanar face never wins wrongly.  ``known`` marks the
        targets that are feasible (None: those that some face contains);
        where no face contains a feasible target, which then lies just
        outside a hull edge, within the 1e-12 that :func:`in_gamut`
        allows, the face it is least outside of stands in.
        """
        n = len(x)
        (ox, oy), (sx, sy) = self.origin, self.slope
        out = self.at0 + sx * (x - ox) + sy * (y - oy)
        bary, height = out[:3], out[3]
        worst = bary.min(axis=0)  # (F, n)
        floor = np.minimum(-_FACE_TOL, worst.max(axis=0))
        height[worst < floor] = np.inf
        face = height.argmin(axis=0)
        cols = np.arange(n)
        envelope = height[face, cols]
        if known is None:
            known = worst[face, cols] >= -_FACE_TOL
        envelope[~known] = np.inf
        return envelope, face, bary[:, face, cols].T


def max_per(target: Chromaticity, cmf: CmfTable, km: float,
            delta_lambda_nm: float | None = None) -> LpSolution:
    """Largest PER of any spectrum of lines on the CMF grid (every
    ``delta_lambda_nm``, by default the table's spacing) with chromaticity
    ``target``: K_m y / E(x, y), with E the lower convex envelope of the
    lifted locus (see the module docstring).

    The support holds at most three lines, in ascending wavelength, as
    (wavelength_nm, power density per nm) pairs of unit total power.  At
    the table's spacing a target is feasible exactly when :func:`in_gamut`
    holds; at a coarser spacing, when it lies in the hull of the strided
    locus.  Otherwise the status is ``infeasible``.
    """
    check_positive("km", km, "lm/W")
    env = _envelope(cmf, delta_lambda_nm)
    inside = np.array([in_gamut(target, cmf)]) if env.at_table_spacing else None
    envelope, face, bary = env.lookup(np.array([target.x]), np.array([target.y]), inside)
    e = float(envelope[0])
    if e == np.inf:
        return LpSolution(status="infeasible", objective_value=None, support=())
    f = int(face[0])
    power = bary[0] * env.heights[f] / (e * env.delta_lambda_nm)
    keep = power > SUPPORT_RTOL * power.max()
    support = tuple(sorted(zip(env.wavelengths_nm[f][keep].tolist(), power[keep].tolist())))
    return LpSolution(status="optimal", objective_value=km * target.y / e, support=support)


def iso_per_scan(grid_step: float, cmf: CmfTable, km: float,
                 delta_lambda_nm: float | None = None) -> IsoPerGrid:
    """Max PER over the chromaticity grid k*grid_step in [0, 1]^2.

    Rows come out row-major (y outer, x inner), every grid point present.
    A point carries None where :func:`max_per` would be infeasible: at the
    table's spacing, outside the convex hull of the spectral locus (see
    :func:`~lumenkit.colorimetry.in_gamut`); at a coarser spacing, outside
    the hull of the strided locus.  Points with x + y > 1 carry None too.
    Each grid row is one vectorised envelope lookup.
    """
    check_positive("km", km, "lm/W")
    if not 0.0 < grid_step <= 0.05:
        raise DomainError(f"grid step must lie in (0, 0.05], got {grid_step}")
    env = _envelope(cmf, delta_lambda_nm)
    steps = int(round(1.0 / grid_step))
    xs = np.arange(steps + 1) * grid_step
    rows = []
    for iy in range(steps + 1):
        y = iy * grid_step
        inside = gamut_mask(cmf, xs, y) if env.at_table_spacing else None
        envelope, _, _ = env.lookup(xs, np.full(len(xs), y), inside)
        for x, e in zip(xs.tolist(), envelope.tolist()):
            value = km * y / e if x + y <= 1.0 and e != np.inf else None
            rows.append((x, y, value))
    return IsoPerGrid(grid_step=grid_step, rows=tuple(rows))


def _envelope(cmf: CmfTable, delta_lambda_nm: float | None) -> _Envelope:
    """The lower hull of ``cmf`` at ``delta_lambda_nm`` (default: the
    table's spacing, which must divide it), built on first use and kept in
    the table's ``_envelopes`` cache by stride."""
    spacing = cmf.spacing_nm
    if delta_lambda_nm is None:
        delta_lambda_nm = spacing
    check_positive("delta lambda", delta_lambda_nm, "nm")
    stride_f = delta_lambda_nm / spacing
    stride = int(round(stride_f))
    if stride < 1 or abs(stride_f - stride) > 1e-9:
        raise DomainError(
            f"delta lambda {delta_lambda_nm} nm does not match the {spacing} nm table grid"
        )
    if len(cmf.wavelengths_nm[::stride]) < 3:
        raise DomainError(f"delta lambda {delta_lambda_nm} nm leaves fewer than 3 wavelengths")
    env = cmf._envelopes.get(stride)
    if env is None:
        env = cmf._envelopes.setdefault(stride, _build_envelope(cmf, stride))
    return env


def _build_envelope(cmf: CmfTable, stride: int) -> _Envelope:
    """Lower hull of the lifted locus of every ``stride``-th table row."""
    wl = cmf.wavelengths_nm[::stride]
    bars = np.stack([cmf.xbar[::stride], cmf.ybar[::stride], cmf.zbar[::stride]])
    s = bars.sum(axis=0)
    if np.any(s <= 0):
        raise ValidationError("CMF table has an all-zero row; locus undefined")
    x, y, h = bars[0] / s, bars[1] / s, 1.0 / s
    # Lines of one chromaticity (750, 760 and 770 nm on the CIE table)
    # compete only on height: keep the lowest.
    order = np.lexsort((h, y, x))
    first = np.ones(len(order), dtype=bool)
    first[1:] = (np.diff(x[order]) != 0.0) | (np.diff(y[order]) != 0.0)
    keep = np.sort(order[first])
    wl, x, y, h = wl[keep], x[keep], y[keep], h[keep]

    faces = _gift_wrap(x, y, h)
    if not faces:
        raise ValidationError("CMF spectral locus is collinear; gamut has no interior")
    idx = np.array(faces)
    wl, h = wl[idx], h[idx]  # (F, 3)
    x, y = x[idx].T.copy(), y[idx].T.copy()  # (3, F)
    # Coordinate k in a face is the area of (q, corner k+1, corner k+2) over
    # the face's, so its slope is the edge opposite corner k, rotated, over
    # twice the face's area.
    ex = np.roll(x, -2, axis=0) - np.roll(x, -1, axis=0)
    ey = np.roll(y, -2, axis=0) - np.roll(y, -1, axis=0)
    twice_area = ex[0] * ey[1] - ey[0] * ex[1]
    slope = tuple(np.vstack([d, np.sum(d * h.T, axis=0)])[..., None]
                  for d in (-ey / twice_area, ex / twice_area))
    at0 = np.zeros((4, len(idx), 1))
    at0[0] = 1.0
    at0[3, :, 0] = h[:, 0]
    origin = (x[0][:, None], y[0][:, None])
    for a in (wl, h, at0, *origin, *slope):
        a.flags.writeable = False
    return _Envelope(stride * cmf.spacing_nm, stride == 1, wl, h, origin, at0, slope)


def _gift_wrap(x, y, h) -> list[tuple[int, int, int]]:
    """Lower-hull faces of the points (x, y, h), as index triples
    counter-clockwise in (x, y), each sorted to start at its lowest index.

    Starts from a lower edge at the lowest point (its least steep edge),
    then wraps across every edge found: the faces beyond edge (u, v) have
    their third corner among the points strictly left of u -> v, at the
    least steep plane through the edge.  Points on the edge's line, as
    the table's red tail is on x + y = 1, never form a face with it.
    """
    start = int(np.argmin(h))
    dist = np.hypot(x - x[start], y - y[start])
    dist[start] = 1.0
    slope = (h - h[start]) / dist
    slope[start] = np.inf
    nxt = int(np.argmin(slope))
    faces = set()
    todo = [(start, nxt), (nxt, start)]
    seen = set()
    while todo:
        edge = todo.pop()
        if edge in seen:
            continue
        seen.add(edge)
        u, v = edge
        ex, ey = x[v] - x[u], y[v] - y[u]
        length = np.hypot(ex, ey)
        dx, dy = x - x[u], y - y[u]
        offset = (ex * dy - ey * dx) / length  # distance left of the edge
        cand = np.flatnonzero(offset > _COLLINEAR_TOL)
        if len(cand) == 0:
            continue
        along = (ex * dx[cand] + ey * dy[cand]) / length ** 2
        rise = (h[cand] - h[u] - along * (h[v] - h[u])) / offset[cand]
        low = rise.min()
        for w in cand[rise <= low + _TIE_RTOL * abs(low)].tolist():
            tri = (u, v, w)
            k = tri.index(min(tri))
            faces.add(tri[k:] + tri[:k])
            todo += [(w, v), (u, w)]
    return sorted(faces)
