import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thickflow.errors import FluxOverflow, NewtonDivergence
from thickflow.grids import Grid1D, integrate
from thickflow.powerlaw1d import (PowerLawModel, PowerLawParams,
                                  implicit_viscous_solve, run, viscous_flux,
                                  viscous_flux_derivative)
from thickflow.stepper1d import implicit_shear_solve
from thickflow.trajectory import State1D


def params(**kw):
    base = dict(p=4.0, mu=1.0, a=1.0, gamma=2.0)
    base.update(kw)
    return PowerLawParams(**base)


class TestViscousFlux:
    def test_zero_shear(self):
        assert viscous_flux(0.0, params(p=7.0, delta=0.0)) == 0.0

    def test_unit_shear(self):
        for p in (2.0, 4.0, 11.0, 64.0):
            assert viscous_flux(1.0, params(p=p, delta=0.0)) == pytest.approx(1.0)

    def test_half_shear_p4(self):
        assert viscous_flux(0.5, params(p=4.0, delta=0.0)) == pytest.approx(0.125)

    def test_odd_and_monotone(self):
        pr = params(p=8.0)
        s = np.linspace(-1.5, 1.5, 301)
        f = viscous_flux(s, pr)
        assert np.array_equal(viscous_flux(-s, pr), -f)
        assert np.all(np.diff(f) >= 0)

    def test_overflow_guard(self):
        with pytest.raises(FluxOverflow):
            viscous_flux(1e8, params(p=64.0))

    def test_derivative_matches_finite_difference(self):
        pr = params(p=6.0)
        s = np.linspace(-1.2, 1.2, 41)
        h = 1e-6
        fd = (viscous_flux(s + h, pr) - viscous_flux(s - h, pr)) / (2 * h)
        assert np.max(np.abs(viscous_flux_derivative(s, pr) - fd)) < 1e-4

    def test_delta_smoothing_scale(self):
        # delta perturbs the flux by O(delta^2) at O(1) shear
        pr0 = params(p=4.0, delta=0.0)
        pr1 = params(p=4.0, delta=1e-8)
        assert abs(viscous_flux(0.7, pr1) - viscous_flux(0.7, pr0)) < 1e-14


class TestImplicitSolve:
    def test_zero_rhs_zero_prev(self):
        g = Grid1D(32)
        pr = params(p=4.0)
        u = implicit_viscous_solve(np.zeros(g.n), np.ones(g.n), 1e-2, pr, g)
        assert np.max(np.abs(u)) == 0.0

    def test_p2_matches_cyclic_tridiagonal_oracle(self):
        # independent oracle: assemble the linear system and solve directly
        g = Grid1D(64)
        pr = params(p=2.0, delta=0.0, newton_tol=1e-14)
        rng = np.random.default_rng(42)
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * g.x)
        u_prev = np.cos(2 * np.pi * g.x) + 0.1 * rng.normal(size=g.n)
        dt = 5e-3
        u = implicit_viscous_solve(u_prev, rho, dt, pr, g)

        n, dx = g.n, g.dx
        main = rho / dt + 2.0 * pr.mu / dx**2
        off = -pr.mu / dx**2 * np.ones(n)
        A = sp.diags([main, off[:-1], off[:-1]], [0, 1, -1], format="lil")
        A[0, n - 1] = -pr.mu / dx**2
        A[n - 1, 0] = -pr.mu / dx**2
        oracle = spla.spsolve(A.tocsr(), rho / dt * u_prev)
        assert np.max(np.abs(u - oracle)) < 1e-10

    def test_newton_residual_decreases_monotonically(self):
        g = Grid1D(64)
        pr = params(p=8.0)
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=3)
        u_prev = sum(c * np.sin(2 * np.pi * (k + 1) * g.x)
                     for k, c in enumerate(coeffs)) * 0.2
        rho = np.ones(g.n)
        from thickflow.powerlaw1d import PowerLawModel

        model = PowerLawModel(pr, g)
        u, info = implicit_shear_solve(
            u_prev, u_prev, rho, 1e-2, g, model.flux, model.dflux,
            pr.newton_tol, pr.newton_max_iter, potential=model.potential)
        res = info["residuals"]
        assert all(b < a for a, b in zip(res[:-1], res[1:]))
        assert res[-1] < pr.newton_tol

    def test_momentum_telescopes(self):
        g = Grid1D(64)
        pr = params(p=8.0)
        rho = 1.0 + 0.4 * np.cos(2 * np.pi * g.x)
        u_prev = 0.1 * np.sin(2 * np.pi * g.x)
        u = implicit_viscous_solve(u_prev, rho, 2e-3, pr, g)
        assert abs(integrate(rho * u, g) - integrate(rho * u_prev, g)) < 1e-12


class TestStep:
    def test_uniform_rest_state_is_steady(self):
        g = Grid1D(32)
        pr = params(p=8.0)
        s0 = State1D(np.ones(g.n), np.zeros(g.n), 0.0)
        s1 = PowerLawModel(pr, g).step(s0, 1e-3)[0]
        assert np.array_equal(s1.rho, s0.rho)
        assert np.array_equal(s1.u, s0.u)

    def test_galilean_steady_state(self):
        g = Grid1D(32)
        pr = params(p=8.0)
        c = 0.37
        s0 = State1D(np.ones(g.n), np.full(g.n, c), 0.0)
        s1 = PowerLawModel(pr, g).step(s0, 1e-3)[0]
        assert np.max(np.abs(s1.rho - 1.0)) < 1e-14
        assert np.max(np.abs(s1.u - c)) < 1e-14

    def test_vacuum_guard(self):
        from thickflow.errors import VacuumError

        g = Grid1D(32)
        pr = params(p=4.0)
        with pytest.raises(VacuumError):
            run(pr, g, -np.ones(g.n), np.zeros(g.n), 0.1)


class TestRun:
    def test_T_zero_initial_snapshot_only(self):
        g = Grid1D(32)
        pr = params(p=4.0)
        traj = run(pr, g, np.ones(g.n), np.zeros(g.n), 0.0)
        assert len(traj.snapshots) == 1
        assert traj.snapshots[0].t == 0.0

    def test_steady_run_stays_exact(self):
        g = Grid1D(32)
        pr = params(p=8.0)
        traj = run(pr, g, np.ones(g.n), np.zeros(g.n), 0.5,
                   snapshot_times=[0.1, 0.3, 0.5])
        for s in traj.snapshots:
            assert np.max(np.abs(s.rho - 1.0)) < 1e-12
            assert np.max(np.abs(s.u)) < 1e-12

    def test_energy_record_nonincreasing(self):
        g = Grid1D(256)
        pr = params(p=8.0)
        rho0 = 1 + 0.3 * np.sin(2 * np.pi * g.x)
        u0 = 0.5 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        traj = run(pr, g, rho0, u0, 0.25, snapshot_times=[0.25])
        e0 = traj.records[0].energy
        eds = [r.energy + r.dissipation_cum for r in traj.records]
        for a, b in zip(eds[:-1], eds[1:]):
            assert b <= a + 1e-6 * e0

    def test_forced_newton_failure_raises_with_time(self):
        from thickflow.errors import StepFailure

        g = Grid1D(64)
        pr = params(p=64.0, a=8.0, newton_max_iter=1)
        rho0 = 1 + 0.3 * np.sin(2 * np.pi * g.x)
        u0 = 0.9 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        with pytest.raises(StepFailure) as exc:
            run(pr, g, rho0, u0, 0.1)
        assert exc.value.t is not None
        assert isinstance(exc.value.cause, NewtonDivergence)


class TestManufacturedSolution:
    """Convergence against a prescribed smooth solution with symbolically
    derived forcing (the oracle is the closed form itself)."""

    def test_first_order_convergence(self):
        import _reference as R

        errs = R.mms_convergence_errors(p=4.0, ns=(128, 256))
        order = np.log2(errs[0] / errs[1])
        assert order >= 0.9, (errs, order)
        assert errs[0] / errs[1] >= 1.8


def test_max_principle_flag():
    assert params(p=4.0, gamma=2.0).max_principle_precondition
    assert not params(p=2.5, gamma=2.0).max_principle_precondition
