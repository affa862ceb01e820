"""Spectral quadrature: the fixed Gauss-Legendre panel rule, the
closed-form Planck integral, and natural cubic splines.

Every spectral integral in the package (PER, tristimulus values, K_m)
takes its nodes and weights from :func:`panel_rule`: 5-point
Gauss-Legendre on panels at most ``MAX_PANEL_NM`` wide, split at every
point where an integrand factor is not smooth (CMF and tabulated-V
knots, support edges, spline knots).  Semi-infinite Planck integrals
never go through it: the total radiance has a closed form
(``total_planck_radiance``) and eye-weighted numerators have compact
effective support, so callers integrate those on finite intervals.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import C, H, K_B
from .errors import DomainError

# Widest panel of the fixed rule.  The packaged CMF table steps by 5 nm;
# on 5 nm panels, 5-point Gauss-Legendre (exact to degree 9) keeps every
# source of the accuracy tests within about 1e-12 relative of adaptive
# Simpson run at rel_tol 1e-12.
MAX_PANEL_NM = 5.0

# 5-point Gauss-Legendre nodes and weights on [-1, 1], in closed form.
_GL_A = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL_B = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL_WA = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_GL_WB = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
_GL_NODES = np.array([-_GL_B, -_GL_A, 0.0, _GL_A, _GL_B])
_GL_WEIGHTS = np.array([_GL_WB, _GL_WA, 128.0 / 225.0, _GL_WA, _GL_WB])


def panel_rule(lo: float, hi: float, *breakpoints) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the package's one spectral quadrature rule.

    ``[lo, hi]`` is split at every point of the ``breakpoints`` sequences
    that lies inside it; each piece is cut into equal panels at most
    ``MAX_PANEL_NM`` wide, and each panel gets 5-point Gauss-Legendre.
    ``sum(weights * f(nodes))`` then integrates ``f`` over ``[lo, hi]``,
    exactly when ``f`` is a polynomial of degree <= 9 on each panel.
    No node lies on a breakpoint, so a jump there is integrated exactly.
    """
    cuts = np.sort(np.concatenate([[lo, hi], *breakpoints]))
    cuts = cuts[(cuts >= lo) & (cuts <= hi)]
    distinct = np.empty(len(cuts), dtype=bool)
    distinct[:1] = True
    np.greater(cuts[1:], cuts[:-1], out=distinct[1:])
    cuts = cuts[distinct]
    widths = np.diff(cuts)
    pieces = np.ceil(widths / MAX_PANEL_NM)
    counts = pieces.astype(np.intp)
    piece = np.repeat(np.arange(len(widths)), counts)
    step = (widths / pieces)[piece]
    k = np.arange(len(piece)) - np.repeat(np.cumsum(counts) - counts, counts)
    half = 0.5 * step[:, None]
    mid = (cuts[piece] + (k + 0.5) * step)[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def total_planck_radiance(t_k: float) -> float:
    """Exact value of the full-range Planck radiance integral, W m^-2 sr^-1.

    Closed form (2 pi^4 / 15) (k_B T)^4 / (h^3 c^2), equal to sigma T^4 / pi.
    """
    if t_k <= 0:
        raise DomainError(f"temperature must be positive, got {t_k}")
    kt = K_B * t_k
    return (2.0 * math.pi ** 4 / 15.0) * kt ** 4 / (H ** 3 * C ** 2)


class CubicSpline:
    """Natural cubic spline through strictly ascending knots.

    Second derivatives vanish at both endpoints.  Evaluation outside
    the knot range extrapolates with the boundary cubic; callers that
    need zero-extension clamp themselves.
    """

    def __init__(self, knots, second_derivs, values):
        self.knots = knots
        self.values = values
        self._d2 = second_derivs

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        idx = np.clip(np.searchsorted(self.knots, xv) - 1, 0, len(self.knots) - 2)
        x0 = self.knots[idx]
        x1 = self.knots[idx + 1]
        h = x1 - x0
        t = (xv - x0) / h
        u = 1.0 - t
        y = (u * self.values[idx] + t * self.values[idx + 1]
             + (h * h / 6.0) * ((u ** 3 - u) * self._d2[idx]
                                + (t ** 3 - t) * self._d2[idx + 1]))
        return float(y[0]) if scalar else y


def spline_fit(wavelengths_nm, values) -> CubicSpline:
    """Fit a natural cubic spline to sampled data.

    Requires at least 4 strictly ascending knots; rejects unsorted or
    duplicate abscissae.
    """
    x = np.asarray(wavelengths_nm, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise DomainError("spline data must be two equal-length 1-d arrays")
    if len(x) < 4:
        raise DomainError(f"cubic spline needs >= 4 knots, got {len(x)}")
    if not np.all(np.diff(x) > 0):
        raise DomainError("spline knots must be strictly ascending")

    # Tridiagonal system for the interior second derivatives (natural
    # boundary: d2[0] = d2[-1] = 0), solved by the Thomas algorithm.  The
    # sweeps run on Python floats: indexing numpy elements one at a time
    # costs several times more, for the same IEEE arithmetic.
    n = len(x)
    h = np.diff(x)
    rhs = (6.0 * np.diff(np.diff(y) / h)).tolist()
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    off = h[1:-1].tolist()  # sub- and super-diagonal alike

    m = n - 2
    cp = [0.0] * m
    dp = [0.0] * m
    cp[0] = off[0] / diag[0] if m > 1 else 0.0
    dp[0] = rhs[0] / diag[0]
    for i in range(1, m):
        denom = diag[i] - off[i - 1] * cp[i - 1]
        if i < m - 1:
            cp[i] = off[i] / denom
        dp[i] = (rhs[i] - off[i - 1] * dp[i - 1]) / denom
    d2 = [0.0] * n
    d2[m] = dp[-1]
    for i in range(m - 2, -1, -1):
        d2[i + 1] = dp[i] - cp[i] * d2[i + 2]

    d2 = np.array(d2)
    x = x.copy()
    y = y.copy()
    x.flags.writeable = False
    y.flags.writeable = False
    d2.flags.writeable = False
    return CubicSpline(x, d2, y)
