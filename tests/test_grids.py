import numpy as np
import pytest

from thickflow.grids import (Grid1D, Grid2D, ddx_2d, ddx_periodic, div_2d,
                             integrate, sym_grad_2d, sym_grad_norm)


def test_grid_invariants():
    g = Grid1D(64)
    assert abs(g.dx * g.n - g.length) < 1e-14
    with pytest.raises(ValueError):
        Grid1D(4)


def test_ddx_constant_is_zero():
    g = Grid1D(32)
    f = np.full(g.n, 7.3)
    for scheme in ("central", "forward", "backward"):
        assert np.max(np.abs(ddx_periodic(f, g, scheme))) == 0.0


def test_ddx_sine_against_closed_form():
    g = Grid1D(256)
    f = np.sin(2 * np.pi * g.x)
    df = ddx_periodic(f, g)
    exact = 2 * np.pi * np.cos(2 * np.pi * g.x)
    # Taylor remainder bound for the central stencil
    assert np.max(np.abs(df - exact)) < (2 * np.pi) ** 3 * g.dx**2


def test_ddx_indicator_stencil():
    g = Grid1D(16)
    e = np.zeros(g.n)
    e[5] = 1.0
    df = ddx_periodic(e, g)
    assert df[4] == pytest.approx(1.0 / (2 * g.dx))
    assert df[6] == pytest.approx(-1.0 / (2 * g.dx))
    assert df[5] == 0.0
    assert np.count_nonzero(df) == 2


def test_ddx_mean_zero_telescoping():
    g = Grid1D(64)
    rng = np.random.default_rng(7)
    f = rng.normal(size=g.n)
    for scheme in ("central", "forward", "backward"):
        assert abs(np.mean(ddx_periodic(f, g, scheme))) < 1e-12


def test_integrate_constant_and_sine():
    g = Grid1D(64)
    assert integrate(np.full(g.n, 3.0), g) == pytest.approx(3.0, abs=1e-14)
    assert abs(integrate(np.sin(2 * np.pi * g.x), g)) < 1e-12
    # midpoint rule is exact for this mode
    assert integrate(np.sin(2 * np.pi * g.x) ** 2, g) == pytest.approx(0.5, abs=1e-12)


def test_integration_by_parts_central():
    g = Grid1D(128)
    rng = np.random.default_rng(3)
    f = rng.normal(size=g.n)
    h = rng.normal(size=g.n)
    total = integrate(f * ddx_periodic(h, g), g) + integrate(ddx_periodic(f, g) * h, g)
    assert abs(total) < 1e-12


def test_refinement_orders():
    errs_c, errs_f = [], []
    for n in (64, 128, 256, 512):
        g = Grid1D(n)
        f = np.sin(2 * np.pi * g.x)
        exact = 2 * np.pi * np.cos(2 * np.pi * g.x)
        errs_c.append(np.max(np.abs(ddx_periodic(f, g) - exact)))
        errs_f.append(np.max(np.abs(ddx_periodic(f, g, "forward") - exact)))
    orders_c = [np.log2(a / b) for a, b in zip(errs_c[:-1], errs_c[1:])]
    orders_f = [np.log2(a / b) for a, b in zip(errs_f[:-1], errs_f[1:])]
    assert all(o > 1.9 for o in orders_c)
    assert all(0.9 < o < 1.2 for o in orders_f)


def test_sym_grad_constant_field():
    g = Grid2D(16, 16)
    u = np.stack([np.full((16, 16), 1.5), np.full((16, 16), -2.0)])
    D = sym_grad_2d(u, g)
    assert np.max(np.abs(D)) == 0.0


def test_sym_grad_shear_profile():
    g = Grid2D(64, 64)
    X, Y = g.meshgrid()
    u = np.stack([np.sin(2 * np.pi * Y), np.zeros_like(X)])
    D = sym_grad_2d(u, g)
    assert np.max(np.abs(D[0])) == 0.0
    assert np.max(np.abs(D[1])) == 0.0
    exact = np.pi * np.cos(2 * np.pi * Y)
    assert np.max(np.abs(D[2] - exact)) < (2 * np.pi) ** 3 * g.dy**2


def test_sym_grad_rigid_rotation_interior():
    # linear rotation field is not periodic; away from the wrap seam the
    # central stencil sees the linear profile and D must vanish
    g = Grid2D(32, 32)
    X, Y = g.meshgrid()
    u = np.stack([-(Y - 0.5), X - 0.5])
    D = sym_grad_2d(u, g)
    inner = (slice(2, -2), slice(2, -2))
    assert np.max(np.abs(D[0][inner])) < 1e-12
    assert np.max(np.abs(D[1][inner])) < 1e-12
    assert np.max(np.abs(D[2][inner])) < 1e-12


def test_sym_grad_trace_equals_divergence():
    g = Grid2D(32, 32)
    rng = np.random.default_rng(11)
    u = rng.normal(size=(2, 32, 32))
    D = sym_grad_2d(u, g)
    assert np.max(np.abs(D[0] + D[1] - div_2d(u, g))) < 1e-12


def test_sym_grad_symmetric_by_construction():
    # the (3,) storage holds one off-diagonal entry, so symmetry is exact
    g = Grid2D(16, 16)
    rng = np.random.default_rng(5)
    u = rng.normal(size=(2, 16, 16))
    D = sym_grad_2d(u, g)
    assert D.shape == (3, 16, 16)
    assert np.all(np.isfinite(sym_grad_norm(D)))


def test_ddx_2d_equals_roll_form():
    # the slice differences must reproduce the np.roll stencil bit for bit
    g = Grid2D(16, 12)
    f = np.random.default_rng(5).normal(size=(16, 12))
    for axis, h in ((0, g.dx), (1, g.dy)):
        ahead = np.roll(f, -1, axis=axis)
        behind = np.roll(f, 1, axis=axis)
        rolled = {"central": (ahead - behind) / (2.0 * h),
                  "forward": (ahead - f) / h,
                  "backward": (f - behind) / h}
        for scheme, expected in rolled.items():
            assert np.array_equal(ddx_2d(f, g, axis, scheme), expected)
    with pytest.raises(ValueError):
        ddx_2d(f, g, 0, "upwind")


def test_ddx_periodic_equals_roll_form():
    # the slice differences must reproduce the np.roll stencil bit for bit
    g = Grid1D(37)
    f = np.random.default_rng(7).normal(size=g.n)
    ahead, behind = np.roll(f, -1), np.roll(f, 1)
    rolled = {"central": (ahead - behind) / (2.0 * g.dx),
              "forward": (ahead - f) / g.dx,
              "backward": (f - behind) / g.dx}
    for scheme, expected in rolled.items():
        assert np.array_equal(ddx_periodic(f, g, scheme), expected)
    with pytest.raises(ValueError):
        ddx_periodic(f, g, "upwind")
