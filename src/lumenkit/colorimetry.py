"""CIE 1931 colorimetry: color matching functions, tristimulus values,
chromaticity coordinates, the black-body color path, and gamut tests.

The standard 2-degree observer table at 5 nm resolution ships with the
package (``data/cie_1931_2deg_5nm.csv``); arbitrary tables in the same
CSV format load through :func:`load_cmf`.
"""

from __future__ import annotations

import csv
import io
import math
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np

from .errors import DomainError, ParseError, ValidationError, ZeroSpectrumError, check_positive
from .record import Record
from .spectral import Planck, SpectrumModel, band, integrals, temperature_ladder

CMF_COLUMNS = ("wavelength_nm", "xbar", "ybar", "zbar")
_DATA_FILE = "cie_1931_2deg_5nm.csv"

# On-boundary points count as inside the gamut; a point this far outside
# the line of a gamut edge, or less, is treated as on it (chromaticity units).
_BOUNDARY_TOL = 1e-12


class CmfTable(Record):
    """Color matching functions on a uniform ascending wavelength grid.

    Tables compare and hash by identity, as the per-table caches below
    assume.
    """

    wavelengths_nm: np.ndarray
    xbar: np.ndarray
    ybar: np.ndarray
    zbar: np.ndarray

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, wavelengths_nm, xbar, ybar, zbar):
        wl = np.asarray(wavelengths_nm, dtype=float)
        cols = [np.asarray(c, dtype=float) for c in (xbar, ybar, zbar)]
        if wl.ndim != 1 or any(c.shape != wl.shape for c in cols):
            raise ValidationError("CMF columns must be equal-length 1-d arrays")
        if len(wl) < 2:
            raise ValidationError("CMF table needs at least 2 rows")
        steps = np.diff(wl)
        if not np.all(steps > 0):
            raise ValidationError("CMF wavelengths must be strictly ascending")
        if not np.allclose(steps, steps[0], rtol=0, atol=1e-9):
            raise ValidationError("CMF wavelength grid must be uniform")
        for name, col in zip(CMF_COLUMNS[1:], cols):
            bad = ~((col >= 0) & (col < math.inf))
            if np.any(bad):
                row = int(np.argmax(bad))
                raise ValidationError(f"{name} must be finite and nonnegative, got "
                                      f"{col[row]} at row {row + 1} (wavelength {wl[row]} nm)")
        peak_idx = int(np.argmax(cols[1]))
        peak_wl = wl[peak_idx]
        peak_val = cols[1][peak_idx]
        if not 550.0 <= peak_wl <= 560.0:
            raise ValidationError(f"ybar must peak in [550, 560] nm, peaks at {peak_wl} nm")
        if not 0.98 <= peak_val <= 1.02:
            raise ValidationError(f"ybar peak must be 1.0 +- 0.02, got {peak_val}")
        arrays = [wl] + cols
        for a in arrays:
            a.flags.writeable = False
        fields = self.__dict__
        fields["wavelengths_nm"] = wl
        fields["xbar"], fields["ybar"], fields["zbar"] = cols

    @property
    def spacing_nm(self) -> float:
        return float(self.wavelengths_nm[1] - self.wavelengths_nm[0])

    @cached_property
    def _gamut(self) -> tuple[np.ndarray, np.ndarray]:
        """Gamut hull vertices and, per edge, its outward unit normal and
        offset (rows ``nx, ny, c``; ``nx x + ny y - c`` is the signed
        distance outside the edge's line), computed once per table."""
        verts = _convex_hull(spectral_locus(self))
        if len(verts) < 3:
            raise ValidationError("CMF spectral locus is collinear; gamut has no interior")
        d = np.roll(verts, -1, axis=0) - verts
        normals = np.stack([d[:, 1], -d[:, 0]], axis=1) / np.hypot(d[:, 0], d[:, 1])[:, None]
        edges = np.column_stack([normals, np.sum(normals * verts, axis=1)])
        for a in (verts, edges):
            a.flags.writeable = False
        return verts, edges

    @cached_property
    def _envelopes(self) -> dict:
        """Lower hulls of the lifted locus, by stride, which
        :mod:`lumenkit.maxper` builds and keeps here on first use."""
        return {}


class Tristimulus(Record):
    X: float
    Y: float
    Z: float

    def __init__(self, X: float, Y: float, Z: float):
        fields = self.__dict__
        fields["X"] = X
        fields["Y"] = Y
        fields["Z"] = Z
        if X < 0 or Y < 0 or Z < 0:
            raise DomainError(f"tristimulus values must be nonnegative, got {self}")


class Chromaticity(Record):
    x: float
    y: float

    def __init__(self, x: float, y: float):
        fields = self.__dict__
        fields["x"] = x
        fields["y"] = y
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"chromaticity coordinates must be finite, got {self}")
        if x < 0 or y < 0:
            raise DomainError(f"chromaticity coordinates must be nonnegative, got {self}")


def read_csv(source, columns) -> np.ndarray:
    """Numeric rows of a CSV from a path, byte stream, or text stream, as
    an ``(n, len(columns))`` array in file order.

    Expected CSV: UTF-8, the header ``columns``, then one row of
    ``len(columns)`` numbers per line; blank lines are skipped, LF or CRLF
    line endings.  Raises :class:`ParseError` with the 1-based line number.
    """
    if hasattr(source, "read"):
        raw = source.read()
    else:
        with open(source, "rb") as f:
            raw = f.read()
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}", line=line) from None
    reader = csv.reader(io.StringIO(text))
    rows = []
    header = None
    for line_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if header is None:
            header = tuple(name.strip() for name in row)
            if header != tuple(columns):
                raise ParseError(
                    f"expected header {','.join(columns)}, got {','.join(header)}",
                    line=line_no,
                )
            continue
        if len(row) != len(columns):
            raise ParseError(f"expected {len(columns)} fields, got {len(row)}", line=line_no)
        try:
            rows.append([float(field) for field in row])
        except ValueError as exc:
            raise ParseError(str(exc), line=line_no) from None
    if header is None:
        raise ParseError("empty CSV stream", line=1)
    return np.array(rows, dtype=float).reshape(len(rows), len(columns))


def load_cmf(source) -> CmfTable:
    """Load a CMF table, CSV with header ``wavelength_nm,xbar,ybar,zbar``,
    from a path, byte stream, or text stream (see :func:`read_csv`)."""
    data = read_csv(source, CMF_COLUMNS)
    if not len(data):
        raise ParseError("CMF stream has a header but no data rows", line=2)
    data = data[np.argsort(data[:, 0], kind="stable")]
    return CmfTable(data[:, 0], data[:, 1], data[:, 2], data[:, 3])


@lru_cache(maxsize=1)
def default_cmf() -> CmfTable:
    """The packaged CIE 1931 2-degree observer table (380-780 nm, 5 nm)."""
    with resources.files(__package__).joinpath("data", _DATA_FILE).open("rb") as f:
        return load_cmf(f)


def default_cmf_path() -> str:
    return str(resources.files(__package__).joinpath("data", _DATA_FILE))


def tristimulus(model: SpectrumModel, cmf: CmfTable, km: float,
                lam_min_nm: float | None = None,
                lam_max_nm: float | None = None) -> Tristimulus:
    """Tristimulus coordinates X, Y, Z = K_m integral(P * cmf) d lambda.

    Band rule, shared with ``per`` (:func:`~lumenkit.spectral.band`): the
    given bounds cut the model's support and the table's range, and a
    missing bound is the edge of either.

    Rule: one evaluation of the density at the nodes of
    :func:`~lumenkit.quadrature.panel_rule` (5-point Gauss-Legendre on
    panels of at most 5 nm, split at the CMF knots and the model's
    breakpoints, so each panel sees a smooth integrand) gives X, Y and Z.
    The tests hold the chromaticity to 1e-10 absolute of adaptive Simpson
    run at rel_tol 1e-12 between the same breakpoints.
    """
    check_positive("km", km, "lm/W")
    wl = cmf.wavelengths_nm
    edges = band(model, lam_min_nm, lam_max_nm, (float(wl[0]), float(wl[-1])))
    t = Tristimulus(*integrals(model, edges, lambda lam: (
        np.interp(lam, wl, column) for column in (cmf.xbar, cmf.ybar, cmf.zbar)), wl, scale=km))
    if t.X == 0.0 and t.Y == 0.0 and t.Z == 0.0:
        raise ZeroSpectrumError("spectrum carries no power under the CMF table")
    return t


def chromaticity(t: Tristimulus) -> Chromaticity:
    """x = X / (X+Y+Z), y = Y / (X+Y+Z)."""
    total = t.X + t.Y + t.Z
    if total <= 0.0:
        raise ZeroSpectrumError("cannot normalize a black spectrum (X+Y+Z = 0)")
    return Chromaticity(t.X / total, t.Y / total)


def planckian_locus(t_min: float, t_max: float, step: float,
                    cmf: CmfTable) -> list[tuple[float, Chromaticity]]:
    """Chromaticity of Planck(T) for T = t_min, t_min + step, ... <= t_max."""
    return [(t, chromaticity(tristimulus(Planck(t), cmf, km=1.0)))
            for t in temperature_ladder(t_min, t_max, step)]


def spectral_locus(cmf: CmfTable) -> np.ndarray:
    """Monochromatic chromaticities (x_i, y_i), one per table wavelength,
    in table order.

    This is not the gamut boundary: taken in table order and closed by
    the purple line, the points do not form a simple polygon (beyond
    695 nm they lie on x + y = 1 and, rounded, step back and forth along
    it).  :func:`gamut_boundary` gives the polygon that :func:`in_gamut`
    uses.
    """
    s = cmf.xbar + cmf.ybar + cmf.zbar
    if np.any(s <= 0):
        raise ValidationError("CMF table has an all-zero row; locus undefined")
    return np.stack([cmf.xbar / s, cmf.ybar / s], axis=1)


def gamut_boundary(cmf: CmfTable) -> np.ndarray:
    """The gamut polygon: counter-clockwise vertices of the convex hull of
    :func:`spectral_locus`, with points on the hull's edges dropped.

    Every spectrum is a mixture of monochromatic lines, so the hull holds
    exactly the chromaticities some spectrum can have (MacAdam, J. Opt.
    Soc. Am. 40, 120, 1950).  The array is computed once per table and is
    read-only.
    """
    return cmf._gamut[0]


def in_gamut(p: Chromaticity, cmf: CmfTable) -> bool:
    """True iff ``p`` lies inside or on :func:`gamut_boundary`, the convex
    hull of the spectral locus.

    A point counts as inside when it lies no more than ``_BOUNDARY_TOL``
    (1e-12) outside the line of every hull edge.  This takes in every
    point within ``_BOUNDARY_TOL`` of an edge, the locus points among
    them.  A table whose locus points are all collinear has no gamut:
    this raises :class:`ValidationError`.
    """
    return bool(gamut_mask(cmf, p.x, p.y))


def gamut_mask(cmf: CmfTable, x, y) -> np.ndarray:
    """:func:`in_gamut` over arrays: true where (x, y) lies no more than
    ``_BOUNDARY_TOL`` outside the line of every hull edge.  ``x`` and
    ``y`` broadcast against each other."""
    nx, ny, c = cmf._gamut[1].T
    outside = nx * np.asarray(x)[..., None] + ny * np.asarray(y)[..., None] - c
    return outside.max(axis=-1) <= _BOUNDARY_TOL


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise hull vertices by Andrew's monotone chain.

    Points on a hull edge, and repeated points, are not vertices.
    """
    pts = sorted(set(map(tuple, points.tolist())))

    def chain(seq):
        out = []
        for x, y in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (y - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (x - out[-2][0])) <= 0.0:
                out.pop()
            out.append((x, y))
        return out[:-1]

    return np.array(chain(pts) + chain(pts[::-1]))
