"""Solution states, per-step diagnostics records and CSV persistence.

CSV schemas are part of the external contract:

  1D snapshot   t,x,rho,u,dudx,sigma            (one file per snapshot)
  2D snapshot   t,x1,x2,rho,u1,u2,Du_norm,divu
  1D diag.csv   t,dt,mass,momentum,energy,dissipation_cum,rho_min,rho_max,
                dudx_maxabs,sigma_max,hoff_cum
  2D diag.csv   same with Du_maxnorm replacing dudx_maxabs

Numbers are written with 17 significant digits (%.17g) so re-running an
identical config reproduces byte-identical files.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .grids import ddx_periodic, div_2d, sym_grad_2d, sym_grad_norm

FMT = "%.17g"


@dataclass
class State1D:
    rho: np.ndarray
    u: np.ndarray
    t: float

    def copy(self):
        return State1D(self.rho.copy(), self.u.copy(), self.t)


@dataclass
class State2D:
    rho: np.ndarray          # (nx, ny)
    u: np.ndarray            # (2, nx, ny)
    t: float

    def copy(self):
        return State2D(self.rho.copy(), self.u.copy(), self.t)


@dataclass
class DiagnosticsRecord:
    """One row per accepted step (plus an initial t = 0 row with dt = 0)."""

    t: float
    dt: float
    mass: float
    momentum: float
    energy: float
    dissipation_cum: float
    rho_min: float
    rho_max: float
    dudx_maxabs: float
    sigma_max: float
    hoff_cum: float
    lpnorm_term: float = 0.0   # (mu/p) int |du/dx|^p at time t; not in the CSV
    aux_cum: float = 0.0       # singular runs: eps int int 1/sqrt(1-s^2)

    CSV_FIELDS = (
        "t", "dt", "mass", "momentum", "energy", "dissipation_cum",
        "rho_min", "rho_max", "dudx_maxabs", "sigma_max", "hoff_cum",
    )


@dataclass
class Trajectory:
    """Time-ordered snapshots plus the full per-step diagnostics."""

    model: str
    grid: object
    params: object
    snapshots: list = field(default_factory=list)
    records: list = field(default_factory=list)


def snapshot_midpoints(traj):
    """(dt, t_mid, rho_mid, u_mid, udot) of each pair of consecutive
    snapshots dt > 0 apart: the mean time and fields of the pair and, in
    1D, the material derivative udot = (u1 - u0) / dt + u_mid du_mid/dx
    formed by snapshot differencing (None in 2D)."""
    snaps = traj.snapshots
    for s0, s1 in zip(snaps[:-1], snaps[1:]):
        dt = s1.t - s0.t
        if dt <= 0:
            continue
        u_mid = 0.5 * (s0.u + s1.u)
        udot = None
        if s0.rho.ndim == 1:
            udot = (s1.u - s0.u) / dt + u_mid * ddx_periodic(u_mid, traj.grid)
        yield dt, 0.5 * (s0.t + s1.t), 0.5 * (s0.rho + s1.rho), u_mid, udot


_CHUNK = 1024  # snapshot rows formatted by one % operation


def _row_format(n):
    return ",".join([FMT] * n)


def _write_csv(path, header, fmt, rows):
    """Write the header, then each row formatted by one % operation."""
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(map((fmt + "\n").__mod__, rows))


def _format_coords(coords):
    """One string per grid point: its coordinates, formatted once for all
    snapshots."""
    fmt = _row_format(len(coords))
    return list(map(fmt.__mod__, zip(*[c.ravel().tolist() for c in coords])))


def _write_snapshot(path, header, t, coords, columns):
    """Rows t, coordinates, columns, _CHUNK rows per % operation.

    t and the coordinates are formatted already, and their digits hold
    no %, so they go into each chunk's template as text; the template
    of C rows is prefix + (tail + prefix).join(coords) + tail, and its
    values are the chunk's rows of one column_stack of the columns.
    """
    prefix = FMT % t + ","
    tail = "," + _row_format(len(columns)) + "\n"
    values = np.column_stack([c.ravel() for c in columns])
    with open(path, "w") as f:
        f.write(header + "\n")
        for i in range(0, len(coords), _CHUNK):
            template = prefix + (tail + prefix).join(coords[i:i + _CHUNK]) \
                + tail
            f.write(template % tuple(values[i:i + _CHUNK].ravel().tolist()))


def write_diag_csv(traj, path, maxabs_name="dudx_maxabs"):
    fields = list(DiagnosticsRecord.CSV_FIELDS)
    fields[fields.index("dudx_maxabs")] = maxabs_name
    _write_csv(path, ",".join(fields), _row_format(len(fields)), (
        (r.t, r.dt, r.mass, r.momentum, r.energy, r.dissipation_cum,
         r.rho_min, r.rho_max, r.dudx_maxabs, r.sigma_max, r.hoff_cum)
        for r in traj.records))


def write_snapshots_1d(traj, outdir, sigma_func):
    """One snapshot CSV per stored state; sigma_func(state) gives the stress field."""
    paths = []
    coords = _format_coords([traj.grid.x])
    for idx, s in enumerate(traj.snapshots):
        dudx = ddx_periodic(s.u, traj.grid)
        path = os.path.join(outdir, f"snap_{idx:06d}.csv")
        _write_snapshot(path, "t,x,rho,u,dudx,sigma", s.t, coords,
                        [s.rho, s.u, dudx, sigma_func(s)])
        paths.append(path)
    return paths


def write_snapshots_2d(traj, outdir):
    paths = []
    g = traj.grid
    coords = _format_coords(g.meshgrid())
    for idx, s in enumerate(traj.snapshots):
        dn = sym_grad_norm(sym_grad_2d(s.u, g))
        path = os.path.join(outdir, f"snap_{idx:06d}.csv")
        _write_snapshot(path, "t,x1,x2,rho,u1,u2,Du_norm,divu", s.t, coords,
                        [s.rho, s.u[0], s.u[1], dn, div_2d(s.u, g)])
        paths.append(path)
    return paths
