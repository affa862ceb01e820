"""Brute-force lower hull of the lifted spectral locus.

Independent of the gift wrapping in ``lumenkit.maxper``: it tries every
triple of lifted points (x_i, y_i, 1/S_i), S = xbar + ybar + zbar, and
keeps the triples whose plane no point lies below.
"""

from itertools import combinations

import numpy as np

# A triple whose projected altitude is below this (chromaticity units) is
# collinear and spans no face.
COLLINEAR_TOL = 1e-12
# A point lies on a plane when it is below it by at most this much of the
# magnitudes that enter the comparison.
HEIGHT_RTOL = 1e-9


def lower_faces(cmf, stride):
    """Lower-hull faces of the table's locus at ``stride``, as frozensets
    of corner wavelengths."""
    s = cmf.xbar[::stride] + cmf.ybar[::stride] + cmf.zbar[::stride]
    x, y, h = cmf.xbar[::stride] / s, cmf.ybar[::stride] / s, 1.0 / s
    wl = cmf.wavelengths_nm[::stride]
    faces = set()
    for i in range(len(x) - 2):
        jk = np.array(list(combinations(range(i + 1, len(x)), 2)))
        j, k = jk[:, 0], jk[:, 1]
        twice_area = (x[j] - x[i]) * (y[k] - y[i]) - (y[j] - y[i]) * (x[k] - x[i])
        longest = np.max([np.hypot(x[a] - x[b], y[a] - y[b])
                          for a, b in ((i, j), (j, k), (k, i))], axis=0)
        solid = np.abs(twice_area) > COLLINEAR_TOL * longest
        j, k, twice_area = j[solid], k[solid], twice_area[solid]
        # Barycentric coordinates of every point (columns) in every triple.
        xj, yj, xk, yk = (v[:, None] for v in (x[j], y[j], x[k], y[k]))
        area = twice_area[:, None]
        bi = ((xk - xj) * (y - yj) - (yk - yj) * (x - xj)) / area
        bj = ((x[i] - xk) * (y - yk) - (y[i] - yk) * (x - xk)) / area
        bk = 1.0 - bi - bj
        hj, hk = h[j][:, None], h[k][:, None]
        plane = bi * h[i] + bj * hj + bk * hk
        scale = h + np.abs(bi) * h[i] + np.abs(bj) * hj + np.abs(bk) * hk
        lower = np.all(h - plane >= -HEIGHT_RTOL * scale, axis=1)
        faces.update(frozenset((wl[i], wl[a], wl[b])) for a, b in zip(j[lower], k[lower]))
    return faces

