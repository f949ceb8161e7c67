"""Periodic uniform grids and discrete differential operators.

Cell-centered (collocated) layout on the unit torus in 1D and 2D.
Fields are plain numpy arrays; a Field1D on Grid1D has shape (n,),
a scalar Field2D has shape (nx, ny), a vector field shape (2, nx, ny)
and a symmetric tensor field shape (3, nx, ny) storing (d11, d22, d12).

All operators are periodic by construction (wrap-around differences),
so discrete integration by parts holds exactly for the central scheme:
sum(f * ddx(g)) + sum(ddx(f) * g) == 0 up to roundoff.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on the unit torus, n >= 8 cells."""

    n: int
    length: float = 1.0

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid needs n >= 8 cells, got {self.n}")
        if self.length <= 0:
            raise ValueError("domain length must be positive")

    @property
    def dx(self):
        return self.length / self.n

    @property
    def x(self):
        """Cell-center coordinates."""
        return (np.arange(self.n) + 0.5) * self.dx


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic grid on the unit 2-torus."""

    nx: int
    ny: int
    length: float = 1.0

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError("grid needs nx, ny >= 8 cells")

    @property
    def dx(self):
        return self.length / self.nx

    @property
    def dy(self):
        return self.length / self.ny

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
    if scheme == "central":
        return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * g.dx)
    if scheme == "forward":
        return (np.roll(f, -1) - f) / g.dx
    if scheme == "backward":
        return (f - np.roll(f, 1)) / g.dx
    raise ValueError(f"unknown scheme {scheme!r}")


def integrate(f, g):
    """Midpoint quadrature of a field over the torus."""
    f = np.asarray(f)
    if isinstance(g, Grid1D):
        return float(np.sum(f) * g.dx)
    return float(np.sum(f) * g.dx * g.dy)


def ddx_2d(f, g, axis, scheme="central"):
    """Periodic difference of a 2D scalar field along one axis.

    Slice differences with the wrap-around rows written separately; each
    entry is the same floating-point expression as the np.roll form.
    """
    h = g.dx if axis == 0 else g.dy
    f = np.asarray(f)
    out = np.empty(f.shape, dtype=np.result_type(f, 1.0))
    # difference along the first axis of a (transposed) view
    a, d = (f, out) if axis == 0 else (f.T, out.T)
    sub = np.subtract
    if scheme == "central":
        sub(a[2:], a[:-2], out=d[1:-1])
        sub(a[1], a[-1], out=d[0])
        sub(a[0], a[-2], out=d[-1])
        out /= 2.0 * h
    elif scheme == "forward":
        sub(a[1:], a[:-1], out=d[:-1])
        sub(a[0], a[-1], out=d[-1])
        out /= h
    elif scheme == "backward":
        sub(a[1:], a[:-1], out=d[1:])
        sub(a[0], a[-1], out=d[0])
        out /= h
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return out


def sym_grad_2d(u, g):
    """Symmetric velocity gradient (d11, d22, d12) by central differences.

    The trace d11 + d22 equals the central-difference divergence exactly.
    """
    u1, u2 = u[0], u[1]
    d11 = ddx_2d(u1, g, axis=0)
    d22 = ddx_2d(u2, g, axis=1)
    d12 = 0.5 * (ddx_2d(u1, g, axis=1) + ddx_2d(u2, g, axis=0))
    return np.stack([d11, d22, d12])


def sym_grad_norm(D):
    """Pointwise Frobenius norm of a (3, nx, ny) symmetric tensor field."""
    return np.sqrt(D[0] ** 2 + D[1] ** 2 + 2.0 * D[2] ** 2)


def div_2d(u, g):
    """Central-difference divergence of a vector field."""
    return ddx_2d(u[0], g, axis=0) + ddx_2d(u[1], g, axis=1)
