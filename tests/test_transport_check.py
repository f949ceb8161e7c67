import numpy as np
import pytest

from thickflow.banks import scalar_bank_1d, scalar_bank_2d
from thickflow.grids import Grid1D
from thickflow.powerlaw1d import PowerLawModel, PowerLawParams
from thickflow.transport_check import (continuity_residual,
                                       renormalized_residual,
                                       time_mean_continuity,
                                       time_mean_values)


def reference_run(n=256, T=0.1, nsnap=64, a=2.0):
    g = Grid1D(n)
    rho0 = 1 + 0.25 * np.sin(2 * np.pi * g.x) + 0.15 * np.cos(2 * np.pi * g.x)
    u0 = 0.9 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
    snaps = [(k + 0.5) * T / nsnap for k in range(nsnap)]
    pr = PowerLawParams(p=8.0, a=a, gamma=2.0)
    return PowerLawModel.run(pr, g, rho0, u0, T, snapshot_times=snaps), pr


def steady_run(T=0.1, nsnap=32):
    g = Grid1D(64)
    snaps = [(k + 0.5) * T / nsnap for k in range(nsnap)]
    pr = PowerLawParams(p=4.0, a=1.0, gamma=2.0)
    return PowerLawModel.run(pr, g, np.ones(g.n), np.zeros(g.n), T,
                             snapshot_times=snaps)


class TestContinuityResidual:
    def test_steady_trajectory_vanishes(self):
        traj = steady_run()
        for phi in scalar_bank_1d(seed=11, T=0.1, size=3):
            assert continuity_residual(traj, phi) < 1e-10

    def test_reference_run_consistency_band(self):
        traj, pr = reference_run()
        dts = [r.dt for r in traj.records if r.dt > 0]
        scale = traj.grid.dx + max(dts) + (0.1 / 64) ** 2
        worst = max(continuity_residual(traj, phi)
                    for phi in scalar_bank_1d(seed=11, T=0.1, size=10))
        # consistency constant frozen from the first verified run
        assert worst <= 2.0 * scale

    def test_refinement_shrinks_residual(self):
        bank_kw = dict(seed=11, T=0.1)
        traj1, _ = reference_run(n=128, nsnap=32)
        traj2, _ = reference_run(n=256, nsnap=64)
        w1 = max(continuity_residual(traj1, phi)
                 for phi in scalar_bank_1d(size=6, **bank_kw))
        w2 = max(continuity_residual(traj2, phi)
                 for phi in scalar_bank_1d(size=6, **bank_kw))
        assert w1 / w2 >= 1.8

    def test_envelope_constant_shift_invariance(self):
        # adding a constant to the time envelope is not allowed by the
        # compact-support rule; instead check the residual is invariant
        # under scaling both phi and the tolerance consistently
        traj = steady_run()
        phi = scalar_bank_1d(seed=3, T=0.1, size=1)[0]
        r1 = continuity_residual(traj, phi)
        phi.coeffs = [(k, 2 * c, 2 * s) for k, c, s in phi.coeffs]
        r2 = continuity_residual(traj, phi)
        assert r2 == pytest.approx(2 * r1, abs=1e-12)


class TestRenormalizedResidual:
    def test_constant_trajectory(self):
        traj = steady_run()
        for phi in scalar_bank_1d(seed=5, T=0.1, size=3):
            assert renormalized_residual(traj, 2.0, phi) < 1e-10

    def test_gamma_one_reduces_to_continuity(self):
        traj, _ = reference_run(n=128, nsnap=32)
        for phi in scalar_bank_1d(seed=5, T=0.1, size=5):
            a = renormalized_residual(traj, 1.0, phi)
            b = continuity_residual(traj, phi)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_reference_band(self):
        traj, _ = reference_run()
        dts = [r.dt for r in traj.records if r.dt > 0]
        scale = traj.grid.dx + max(dts)
        worst = max(renormalized_residual(traj, 2.0, phi)
                    for phi in scalar_bank_1d(seed=5, T=0.1, size=10))
        assert worst <= 6.0 * scale


class TestTimeMean:
    def test_constant_trajectory_zero(self):
        traj = steady_run()
        m = time_mean_values(traj, 2.0, [0.05, 0.025])
        assert all(v == 0.0 for v in m)
        rep = time_mean_continuity(traj, 2.0, [0.05, 0.025])
        assert rep.passed

    def test_linear_decay_slope(self):
        # m(s) ~ (c_s/2) s with c_s the mean decay rate of int rho^gamma
        # over [0, s] (read off the snapshot nearest to each horizon)
        traj, pr = reference_run(T=0.1, nsnap=128)
        w = 0.1 / 128
        s_list = [64 * w, 32 * w, 16 * w]
        m = time_mean_values(traj, 2.0, s_list)
        from thickflow.grids import integrate

        g = traj.grid
        base = integrate(traj.snapshots[0].rho ** 2.0, g)
        for s_h, m_h in zip(s_list, m):
            near = min(traj.snapshots[1:], key=lambda s: abs(s.t - s_h))
            c_s = (base - integrate(near.rho**2.0, g)) / near.t
            assert m_h == pytest.approx(0.5 * c_s * s_h, rel=0.25)

    def test_halving_within_30_percent(self):
        traj, _ = reference_run(T=0.1, nsnap=128)
        w = 0.1 / 128
        s_list = [64 * w, 32 * w, 16 * w]
        m = time_mean_values(traj, 2.0, s_list)
        for big, small in zip(m[:-1], m[1:]):
            assert small == pytest.approx(0.5 * big, rel=0.3)
        rep = time_mean_continuity(traj, 2.0, s_list)
        assert rep.passed

    def test_horizon_validation(self):
        traj = steady_run(T=0.1, nsnap=32)
        with pytest.raises(ValueError):
            time_mean_values(traj, 2.0, [0.0301])


def test_2d_continuity_residual_small():
    from thickflow.grids import Grid2D
    from thickflow.semistationary2d import Stokes2DModel, Stokes2DParams

    g = Grid2D(32, 32)
    X, Y = g.meshgrid()
    rho0 = 1 + 0.4 * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    T = 0.1
    snaps = [(k + 0.5) * T / 32 for k in range(32)]
    traj = Stokes2DModel.run(Stokes2DParams(p=4.0, gamma=2.0, cfl=0.1), g,
                             rho0, None, T, snaps)
    dts = [r.dt for r in traj.records if r.dt > 0]
    scale = g.dx + max(dts)
    for phi in scalar_bank_2d(seed=17, T=T, size=4):
        assert continuity_residual(traj, phi) <= 2.0 * scale
        assert renormalized_residual(traj, 2.0, phi) <= 6.0 * scale


def _reference_residuals(traj, gamma, phi):
    """Continuity and renormalized residuals in the per-snapshot form:
    phi.eval / dt / grad evaluated at every snapshot on the full grid."""
    from thickflow.grids import ddx_periodic, div_2d, integrate
    from thickflow.transport_check import _midpoint_snapshots

    g = traj.grid
    snaps, w = _midpoint_snapshots(traj)
    cont = ren = 0.0
    if traj.snapshots[0].rho.ndim == 1:
        x = g.x
        for s in snaps:
            cont += w * integrate(s.rho * phi.dt(s.t, x)
                                  + s.rho * s.u * phi.dx(s.t, x), g)
            rg = s.rho**gamma
            ren += w * integrate(rg * phi.dt(s.t, x)
                                 + rg * s.u * phi.dx(s.t, x)
                                 - (gamma - 1.0) * rg * ddx_periodic(s.u, g)
                                 * phi.eval(s.t, x), g)
    else:
        X, Y = g.meshgrid()
        for s in snaps:
            gx, gy = phi.grad(s.t, X, Y)
            cont += w * integrate(s.rho * phi.dt(s.t, X, Y)
                                  + s.rho * (s.u[0] * gx + s.u[1] * gy), g)
            rg = s.rho**gamma
            ren += w * integrate(rg * phi.dt(s.t, X, Y)
                                 + rg * (s.u[0] * gx + s.u[1] * gy)
                                 - (gamma - 1.0) * rg * div_2d(s.u, g)
                                 * phi.eval(s.t, X, Y), g)
    return abs(cont), abs(ren)


def _random_trajectory(grid, shape, u_shape, T=1.0, nsnap=8):
    """Random O(1) fields on the midpoint snapshot grid: no term of the
    residuals dominates the others, so a changed rounding shows."""
    from thickflow.trajectory import State1D, State2D, Trajectory

    rng = np.random.default_rng(29)
    state = State1D if len(shape) == 1 else State2D
    snaps = [state(1.0 + 0.5 * rng.random(shape), rng.normal(size=u_shape),
                   (k + 0.5) * T / nsnap) for k in range(nsnap)]
    return Trajectory("random", grid, None, snapshots=snaps)


@pytest.mark.parametrize("dim", [1, 2])
def test_sampled_residuals_equal_per_snapshot_form(dim):
    # sampling each test function once must not change a single bit
    from thickflow.banks import sample_bank
    from thickflow.grids import Grid2D

    if dim == 1:
        traj = _random_trajectory(Grid1D(60), (60,), (60,))
        bank = scalar_bank_1d(seed=23, T=1.0, size=10)
    else:
        traj = _random_trajectory(Grid2D(18, 20), (18, 20), (2, 18, 20))
        bank = scalar_bank_2d(seed=23, T=1.0, size=10)
    for gamma in (1.0, 1.4, 2.0):
        for phi, sampled in zip(bank, sample_bank(bank, traj.grid)):
            cont, ren = _reference_residuals(traj, gamma, phi)
            assert cont > 0.0 and ren > 0.0
            assert continuity_residual(traj, phi) == cont
            assert continuity_residual(traj, sampled) == cont
            assert renormalized_residual(traj, gamma, phi) == ren
            assert renormalized_residual(traj, gamma, sampled) == ren
