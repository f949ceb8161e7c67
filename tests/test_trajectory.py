import numpy as np
import pytest

from thickflow.grids import (Grid1D, Grid2D, ddx_periodic, div_2d,
                             sym_grad_2d, sym_grad_norm)
from thickflow.semistationary2d import Stokes2DModel
from thickflow.stepper1d import Model1D
from thickflow.trajectory import (_CHUNK, DiagnosticsRecord, State1D,
                                  State2D, Trajectory, _format_coords,
                                  _write_snapshot, write_diag_csv,
                                  write_snapshots_1d, write_snapshots_2d)

# -0.0, the smallest subnormal, a huge value and whole numbers
SPECIAL = [-0.0, 5e-324, 1e300, 3.0, -2.0, 0.0, 1.0 / 3.0, -7e-310]


def _field(rng, shape):
    f = rng.normal(size=shape).ravel()
    f[:len(SPECIAL)] = SPECIAL
    f[-len(SPECIAL):] = SPECIAL[::-1]
    return f.reshape(shape)


def _per_value_csv(header, rows):
    """The per-value form: %.17g on each value, joined row by row; as a
    list of lines, the last one empty."""
    lines = [header] + [",".join("%.17g" % v for v in row) for row in rows]
    return ("\n".join(lines) + "\n").split("\n")


def _read(path):
    with open(path) as f:
        return f.read().split("\n")


def test_snapshots_1d_equal_per_value_form(tmp_path):
    # 2500 cells: the rows cross the writer's chunk boundaries
    g = Grid1D(2500)
    rng = np.random.default_rng(3)
    snaps = [State1D(_field(rng, g.n), _field(rng, g.n), t)
             for t in (0.0, 1.0 / 3.0, np.float64(0.1))]
    traj = Trajectory(Model1D(None, g), snapshots=snaps)
    sigma = {id(s): _field(rng, g.n) for s in snaps}
    paths = write_snapshots_1d(traj, str(tmp_path), lambda s: sigma[id(s)])
    assert len(paths) == 3
    for s, path in zip(snaps, paths):
        dudx = ddx_periodic(s.u, g)
        rows = [[s.t, g.x[i], s.rho[i], s.u[i], dudx[i], sigma[id(s)][i]]
                for i in range(g.n)]
        assert _read(path) == _per_value_csv("t,x,rho,u,dudx,sigma", rows)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_snapshots_2d_equal_per_value_form(tmp_path):
    g = Grid2D(40, 36)
    X, Y = g.meshgrid()
    rng = np.random.default_rng(4)
    snaps = [State2D(_field(rng, (40, 36)), _field(rng, (2, 40, 36)), t)
             for t in (0.1, 2.0)]
    traj = Trajectory(Stokes2DModel(None, g), snapshots=snaps)
    paths = write_snapshots_2d(traj, str(tmp_path))
    for s, path in zip(snaps, paths):
        dn = sym_grad_norm(sym_grad_2d(s.u, g))
        dv = div_2d(s.u, g)
        rows = [[s.t, X[i, j], Y[i, j], s.rho[i, j], s.u[0, i, j],
                 s.u[1, i, j], dn[i, j], dv[i, j]]
                for i in range(g.nx) for j in range(g.ny)]
        assert _read(path) == _per_value_csv(
            "t,x1,x2,rho,u1,u2,Du_norm,divu", rows)


def test_diag_csv_equal_per_value_form(tmp_path):
    values = list(_field(np.random.default_rng(5), 33))
    records = [DiagnosticsRecord(*values[k:k + 11]) for k in (0, 11, 22)]
    records[0].dt = 0          # the initial row's dt is an int
    records[1].mass = np.float64(values[3])
    traj = Trajectory(Stokes2DModel(None, Grid2D(8, 8)), records=records)
    path = write_diag_csv(traj, str(tmp_path))
    assert path == str(tmp_path / "diag.csv")
    fields = list(DiagnosticsRecord.CSV_FIELDS)
    fields[fields.index("dudx_maxabs")] = "Du_maxnorm"
    rows = [[getattr(r, name) for name in DiagnosticsRecord.CSV_FIELDS]
            for r in records]
    assert _read(path) == _per_value_csv(",".join(fields), rows)


# where %.17g is hardest to match: -0.0, the smallest subnormal, a tiny
# and a huge normal number, 1e16 and 1e17 (where %g turns to exponent
# form), whole numbers and 2^53 + 1, which rounds on its way to a float
EDGE = [-0.0, 5e-324, 1e-300, 1e16, 1e17, 1e300, 3.0, -2.0, 0.0]
EDGE_INTS = [0, -1, 7, 10**16, 10**17, 2**53 + 1]


def _former_snapshot(header, t, coords, columns):
    """The former writer's bytes: one % operation per row, the columns
    converted to Python numbers."""
    fmt = ",".join(["%.17g" % t, "%s", ",".join(["%.17g"] * len(columns))])
    rows = zip(coords, *[c.ravel().tolist() for c in columns])
    return header + "\n" + "".join(fmt % row + "\n" for row in rows)


def _edge_columns(rng, shape, k):
    """k columns: edge values and random floats, one of whole numbers
    stored as integers and one of integers beside floats' rows."""
    cols = [_field(rng, shape) for _ in range(k - 1)]
    for c in cols:
        c.flat[:len(EDGE)] = EDGE
        c.flat[-len(EDGE):] = [-e for e in EDGE]
    ints = rng.integers(-10**6, 10**6, size=shape)
    ints.flat[:len(EDGE_INTS)] = EDGE_INTS
    return cols + [ints]


@pytest.mark.parametrize("ndim", [1, 2])
def test_snapshot_bytes_equal_the_former_per_row_form(tmp_path, ndim):
    # more rows than two chunks, and not a multiple of one
    g = Grid1D(2 * _CHUNK + 37) if ndim == 1 else Grid2D(45, 50)
    coords = _format_coords([g.x] if ndim == 1 else g.meshgrid())
    shape = (g.n,) if ndim == 1 else (g.nx, g.ny)
    rng = np.random.default_rng(6 + ndim)
    for t, k in [(0.0, 4), (np.float64(1e16), 5), (1e-300, 1), (3, 2)]:
        columns = _edge_columns(rng, shape, k)
        header = ",".join(["t"] + [f"c{i}" for i in range(k)])
        path = tmp_path / f"snap_{k}.csv"
        # all-integer columns convert to Python ints, as the former did
        for cols in (columns, columns[-1:] * k):
            _write_snapshot(path, header, t, coords, cols)
            assert _read(path) \
                == _former_snapshot(header, t, coords, cols).split("\n")
