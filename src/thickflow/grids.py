"""Periodic uniform grids and discrete differential operators.

Cell-centered (collocated) layout on the unit torus in 1D and 2D.
Fields are plain numpy arrays; a Field1D on Grid1D has shape (n,),
a scalar Field2D has shape (nx, ny), a vector field shape (2, nx, ny)
and a symmetric tensor field shape (3, nx, ny) storing (d11, d22, d12).

All operators are periodic by construction (wrap-around differences),
so discrete integration by parts holds exactly for the central scheme:
sum(f * ddx(g)) + sum(ddx(f) * g) == 0 up to roundoff.

FourierSeries is the one scalar Fourier-series type, of the initial data
(config) and of every scalar test function (banks); PlaneWaves.series is
the one evaluator it sums with.

dense_extrema is the one dense sample, of config validation and of the
velocity banks' scales. It evaluates its function on blocks of a fixed
number of points, so its memory does not grow with the sample.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on the unit torus, n >= 8 cells."""

    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid needs n >= 8 cells, got {self.n}")

    @property
    def dx(self):
        return 1.0 / self.n

    @property
    def x(self):
        """Cell-center coordinates."""
        return (np.arange(self.n) + 0.5) * self.dx


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic grid on the unit 2-torus."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError("grid needs nx, ny >= 8 cells")

    @property
    def dx(self):
        return 1.0 / self.nx

    @property
    def dy(self):
        return 1.0 / self.ny

    @property
    def x(self):
        return (np.arange(self.nx) + 0.5) * self.dx

    @property
    def y(self):
        return (np.arange(self.ny) + 0.5) * self.dy

    def meshgrid(self):
        return np.meshgrid(self.x, self.y, indexing="ij")


def ddx_periodic(f, g, scheme="central"):
    """Periodic difference of a 1D field: central (2nd order) or one-sided."""
    f = np.asarray(f)
    out = np.empty(f.shape, dtype=np.result_type(f, 1.0))
    return _wrap_diff(f, out, scheme, g.dx)


def integrate(f, g):
    """Midpoint quadrature of a field over the torus."""
    f = np.asarray(f)
    if isinstance(g, Grid1D):
        return float(np.sum(f) * g.dx)
    return float(np.sum(f) * g.dx * g.dy)


def ddx_2d(f, g, axis, out=None):
    """Periodic central difference of a 2D scalar field along axis, into
    out when given (a float array of f's shape, not f itself)."""
    h = g.dx if axis == 0 else g.dy
    f = np.asarray(f)
    if out is None:
        out = np.empty(f.shape, dtype=np.result_type(f, 1.0))
    # difference along the first axis of a (transposed) view
    a, d = (f, out) if axis == 0 else (f.T, out.T)
    _wrap_diff(a, d, "central", h)
    return out


def _wrap_diff(a, d, scheme, h):
    """Periodic difference of a along its first axis, written into d.

    Slice differences with the wrap-around entries assigned separately;
    each entry is the same floating-point expression as the np.roll form.
    """
    if scheme == "central":
        np.subtract(a[2:], a[:-2], out=d[1:-1])
        d[0] = a[1] - a[-1]
        d[-1] = a[0] - a[-2]
        d /= 2.0 * h
    elif scheme == "forward":
        np.subtract(a[1:], a[:-1], out=d[:-1])
        d[-1] = a[0] - a[-1]
        d /= h
    elif scheme == "backward":
        np.subtract(a[1:], a[:-1], out=d[1:])
        d[0] = a[0] - a[-1]
        d /= h
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return d


def sym_grad_2d(u, g):
    """Symmetric velocity gradient (d11, d22, d12) by central differences.

    The trace d11 + d22 equals the central-difference divergence exactly.
    """
    u1, u2 = u[0], u[1]
    D = np.empty((3,) + u1.shape, dtype=np.result_type(u1, 1.0))
    ddx_2d(u1, g, axis=0, out=D[0])
    ddx_2d(u2, g, axis=1, out=D[1])
    ddx_2d(u1, g, axis=1, out=D[2])
    D[2] += ddx_2d(u2, g, axis=0)
    D[2] *= 0.5
    return D


def sym_grad_norm(D):
    """Pointwise Frobenius norm of a (3, nx, ny) symmetric tensor field."""
    return np.sqrt(D[0] ** 2 + D[1] ** 2 + 2.0 * D[2] ** 2)


def median(a):
    """np.median(a) of a float array, as a float, bit for bit, without
    the import of numpy.ma that np.median makes: nan when a holds a nan,
    else the mean of the one or two middle values, summed from +0.0 as
    np.mean sums."""
    a = np.ravel(a)
    h = a.size // 2
    part = np.partition(a, [max(h - 1, 0), h, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    if a.size % 2:
        return float(0.0 + part[h])
    return float((0.0 + part[h - 1] + part[h]) / 2)


# points of a dense sample evaluated at once: 2^15 float64 values are
# 256 KB, so the temporaries of a block stay in cache
_BLOCK = 1 << 15


def dense_extrema(fn, m, ndim):
    """(min, max) of fn over the m^ndim points k/m, k = 0..m-1 on each
    axis, as floats. fn maps one coordinate array per axis to its values
    elementwise; it is called on blocks of rows of the sample, of about
    _BLOCK points each, and the extrema of the blocks are those of the
    whole sample."""
    x = np.arange(m) / m
    coords = np.meshgrid(*[x] * ndim, indexing="ij", copy=False)
    rows = max(1, _BLOCK // m ** (ndim - 1))
    lows, highs = [], []
    for i in range(0, m, rows):
        vals = fn(*(c[i:i + rows] for c in coords))
        lows.append(np.min(vals))
        highs.append(np.max(vals))
    return float(np.min(lows)), float(np.max(highs))


def div_2d(u, g):
    """Central-difference divergence of a vector field."""
    return ddx_2d(u[0], g, axis=0) + ddx_2d(u[1], g, axis=1)


class PlaneWaves:
    """The cos and sin of plane waves, sampled once on a set of points.

    A wave is (k,) in 1D, with phase (2 pi k) x, or (kx, ky) in 2D, with
    phase 2 pi (kx X + ky Y). series() is the one Fourier-series
    evaluator, of FourierSeries and of the 2D velocity test fields.
    """

    def __init__(self, waves, *coords):
        self.shape = np.shape(coords[0])
        self.trig = {}
        for wave in waves:
            if not any(wave):
                # the zero wave, a series' mean: cos 0 = 1 and sin 0 = 0
                self.trig[wave] = np.ones(self.shape), np.zeros(self.shape)
                continue
            if len(wave) == 1:
                phase = (2.0 * np.pi * wave[0]) * coords[0]
            else:
                phase = 2.0 * np.pi * (wave[0] * coords[0] + wave[1] * coords[1])
            self.trig[wave] = np.cos(phase), np.sin(phase)

    def series(self, coeffs, d=None):
        """sum of c cos + s sin over tuples (*wave, c, s), in their order;
        with d given, its derivative along axis d."""
        out = np.zeros(self.shape)
        for *wave, c, s in coeffs:
            cos, sin = self.trig[tuple(wave)]
            if d is None:
                out += c * cos + s * sin
            else:
                w = 2.0 * np.pi * wave[d]
                out += w * (-c * sin + s * cos)
        return out


class FourierSeries:
    """scale * sum of c cos + s sin of plane waves, in the order of coeffs:
    (k, c, s) triples in 1D, (kx, ky, c, s) quadruples in 2D, one or more;
    a mean is a zero wave. The sum starts from +0.0 and adds the terms in
    the order of coeffs, so a sample does not depend on how many waves
    or points are evaluated at once."""

    def __init__(self, coeffs, scale=1.0):
        self.coeffs = coeffs
        self.scale = scale

    def waves(self):
        return {tuple(q[:-2]) for q in self.coeffs}

    def spatial(self, *coords, d=None):
        """The series at coords, or with d given its derivative along axis
        d: sampled on the PlaneWaves of its waves at coords. A dense
        sample passes its points in blocks (dense_extrema), which bounds
        the memory of every wave's cos and sin at once."""
        return FourierSeries.sampled(self, PlaneWaves(self.waves(), *coords),
                                     d)

    def sampled(self, waves, d=None):
        """spatial on the points of waves, a PlaneWaves of self.waves()."""
        return self.scale * waves.series(self.coeffs, d)
