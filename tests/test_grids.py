import numpy as np
import pytest

from thickflow.grids import (_BLOCK, FourierSeries, Grid1D, Grid2D,
                             PlaneWaves, ddx_2d, ddx_periodic, dense_extrema,
                             div_2d, integrate, median, sym_grad_2d,
                             sym_grad_norm)


def test_grid_invariants():
    g = Grid1D(64)
    assert abs(g.dx * g.n - 1.0) < 1e-14
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
        expected = (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) \
            / (2.0 * h)
        assert np.array_equal(ddx_2d(f, g, axis), expected)


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


@pytest.mark.parametrize("ndim", [1, 2])
def test_fourier_series_one_wave_at_a_time_equals_all_at_once(ndim):
    # a mean (the zero wave) first and a wave repeated: both paths start
    # from +0.0 and add the terms in the order of coeffs
    rng = np.random.default_rng(3)
    if ndim == 1:
        coords = (Grid1D(40).x,)
        coeffs = [(0, 1.3, 0.0), (1, 0.0, 0.0), (3, 0.2, -0.7), (1, -0.4, 0.1)]
    else:
        coords = Grid2D(12, 10).meshgrid()
        coeffs = [(0, 0, 1.3, 0.0), (1, -1, 0.0, 0.0), (2, 1, 0.2, -0.7),
                  (0, 3, -0.4, 0.1)]
    coeffs += [(*q[:-2], *rng.uniform(-1, 1, 2)) for q in coeffs[1:]]
    f = FourierSeries(coeffs, scale=0.37)
    waves = PlaneWaves(f.waves(), *coords)
    for d in (None, *range(ndim)):
        one_at_a_time = f.scale * sum(
            PlaneWaves([tuple(q[:-2])], *coords).series([q], d)
            for q in coeffs)
        assert np.array_equal(one_at_a_time, f.sampled(waves, d))
        assert np.array_equal(f.spatial(*coords, d=d), f.sampled(waves, d))


def test_median_equals_np_median_bit_for_bit():
    # sizes 1..4097, odd and even, with ties, +-inf, signed zeros and nan
    rng = np.random.default_rng(17)
    arrays = [np.array(a) for a in ([-0.0], [-0.0, -0.0], [0.0, -0.0],
                                    [np.inf, -np.inf], [1.0, np.nan, 2.0],
                                    [1e308, 1e308])]
    for i in range(1400):
        n = i + 1 if i < 40 else int(rng.integers(1, 4098))
        a = rng.normal(size=n) * 10.0 ** rng.integers(-5, 5)
        if i % 3 == 0:
            at = rng.integers(0, n, size=max(1, n // 10))
            a[at] = rng.choice([np.inf, -np.inf, 0.0, -0.0], size=at.size)
        if i % 7 == 0:
            a = np.round(a)
        arrays.append(a)
    with np.errstate(invalid="ignore", over="ignore"):
        for a in arrays:
            expected = np.median(a)
            got = median(a)
            assert type(got) is float
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.signbit(got) == np.signbit(expected)


@pytest.mark.parametrize("m, ndim, sizes", [
    (40000, 1, [32768, 7232]), (2048, 1, [2048]),
    (200, 2, [163 * 200, 37 * 200]), (64, 2, [4096]), (1, 2, [1])])
def test_dense_extrema_equal_the_whole_sample_in_bounded_blocks(m, ndim,
                                                                 sizes):
    # blocks of whole rows of at most _BLOCK points; 40000 points, or 200
    # rows of 200, leave a shorter last block
    assert _BLOCK == 32768
    waves = [(1,), (3,)] if ndim == 1 else [(1, -2), (2, 1)]
    f = FourierSeries([(0,) * ndim + (1.0, 0.0)]
                      + [(*w, 0.3, -0.45) for w in waves], scale=0.9)
    blocks = []

    def fn(*coords):
        blocks.append(coords[0].size)
        return f.spatial(*coords, d=0)

    x = np.arange(m) / m
    whole = fn(*np.meshgrid(*[x] * ndim, indexing="ij"))
    blocks.clear()
    lo, hi = dense_extrema(fn, m, ndim)
    assert type(lo) is float and type(hi) is float
    assert (lo, hi) == (np.min(whole), np.max(whole))
    assert blocks == sizes
