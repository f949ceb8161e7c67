import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thickflow.errors import FluxOverflow, NewtonDivergence
from thickflow.grids import Grid1D, integrate
from thickflow.powerlaw1d import PowerLawModel, PowerLawParams
from thickflow.stepper1d import implicit_shear_solve
from thickflow.trajectory import State1D

G = Grid1D(16)

# delta = 1e-170 squares to 0, so t = s^2 + delta^2 vanishes with it as
# with delta = 0, which PowerLawParams refuses for p > 2
DELTA_0 = 1e-170


def params(**kw):
    base = dict(p=4.0, mu=1.0, a=1.0, gamma=2.0)
    base.update(kw)
    return PowerLawParams(**base)


def flux(s, pr):
    """The model's flux of the shear values s, as an array."""
    return PowerLawModel(pr, G).flux(np.atleast_1d(np.asarray(s, float)))


def implicit_solve(u_prev, rho, dt, pr, g):
    """The implicit viscous step rho (u - u_prev)/dt = d/dx flux(du/dx)."""
    model = PowerLawModel(pr, g)
    u, _ = implicit_shear_solve(u_prev, u_prev, rho, dt, g, model.flux,
                                model.dflux, pr.newton_tol,
                                pr.newton_max_iter, potential=model.potential)
    return u


class TestViscousFlux:
    def test_zero_shear(self):
        assert flux(0.0, params(p=7.0, delta=DELTA_0)) == 0.0

    def test_unit_shear(self):
        for p in (2.0, 4.0, 11.0, 64.0):
            f = flux(1.0, params(p=p, delta=DELTA_0))
            assert f == pytest.approx(1.0)

    def test_half_shear_p4(self):
        f = flux(0.5, params(p=4.0, delta=DELTA_0))
        assert f == pytest.approx(0.125)

    def test_odd_and_monotone(self):
        pr = params(p=8.0)
        s = np.linspace(-1.5, 1.5, 301)
        f = flux(s, pr)
        assert np.array_equal(flux(-s, pr), -f)
        assert np.all(np.diff(f) >= 0)

    def test_overflow_guard(self):
        with pytest.raises(FluxOverflow):
            flux(1e8, params(p=64.0))

    def test_derivative_matches_finite_difference(self):
        pr = params(p=6.0)
        s = np.linspace(-1.2, 1.2, 41)
        h = 1e-6
        fd = (flux(s + h, pr) - flux(s - h, pr)) / (2 * h)
        assert np.max(np.abs(PowerLawModel(pr, G).dflux(s) - fd)) < 1e-4

    def test_delta_smoothing_scale(self):
        # delta perturbs the flux by O(delta^2) at O(1) shear
        pr0 = params(p=4.0, delta=DELTA_0)
        pr1 = params(p=4.0, delta=1e-8)
        assert abs(flux(0.7, pr1) - flux(0.7, pr0)) < 1e-14


_LOG_CLAMP = np.log(1e300)


def former_flux(s, params):
    """The power-law flux as it was: both masks always applied, np.any for
    the overflow test, every input through np.atleast_1d."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    p, mu, delta = params.p, params.mu, params.delta
    t = s_arr * s_arr + delta * delta
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.log(mu) + 0.5 * (p - 2.0) * np.log(t) + np.log(np.abs(s_arr))
    logmag = np.where((t == 0.0) | (s_arr == 0.0), -np.inf, logmag)
    if np.any(logmag > _LOG_CLAMP):
        raise FluxOverflow("viscous flux exceeds 1e300")
    out = np.sign(s_arr) * np.exp(logmag)
    return float(out[0]) if np.ndim(s) == 0 else out


def former_flux_derivative(s, params):
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    p, mu, delta = params.p, params.mu, params.delta
    t = s_arr * s_arr + delta * delta
    num = (p - 1.0) * s_arr * s_arr + delta * delta
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.log(mu) + 0.5 * (p - 4.0) * np.log(t) + np.log(num)
    degenerate = t == 0.0
    logmag = np.where(degenerate, -np.inf, logmag)
    if np.any(logmag > _LOG_CLAMP):
        raise FluxOverflow("flux derivative exceeds 1e300")
    out = np.exp(logmag)
    if p == 2.0:
        out = np.where(degenerate, mu, out)
    return float(out[0]) if np.ndim(s) == 0 else out


@pytest.mark.parametrize("p, mu, delta", [
    (2.0, 1.0, 0.0), (2.0, 0.7, DELTA_0), (2.0, 1.0, 1e-8),
    (3.5, 1.3, DELTA_0), (4.0, 1.0, 1e-8), (8.0, 2.0, 1e-3),
    (64.0, 1.0, 1e-8), (64.0, 0.5, DELTA_0)])
def test_flux_kernels_equal_former_expressions(p, mu, delta):
    pr = PowerLawParams(p=p, mu=mu, delta=delta)
    model = PowerLawModel(pr, G)
    rng = np.random.default_rng(int(p * 10) + int(delta > 0))
    s = np.concatenate([rng.normal(scale=0.6, size=257),
                        [0.0, -0.0, 1e-300, -1e-300, 1e-160, 5e-324, 1.0]])
    for new, old in ((model.flux, former_flux),
                     (model.dflux, former_flux_derivative)):
        assert np.array_equal(new(s), old(s, pr))
        for x in (0.0, 1e-300, -0.3, 1.2):
            one = np.array([x])
            assert np.array_equal(new(one), old(one, pr))


@pytest.mark.parametrize("method", ["flux", "dflux"])
def test_flux_kernels_raise_overflow_where_former_did(method):
    pr = PowerLawParams(p=64.0)
    kernel = getattr(PowerLawModel(pr, G), method)
    former = former_flux if method == "flux" else former_flux_derivative
    s = np.linspace(-1.0, 1.0, 257)
    s[100] = 5e4    # 63 (5e4)^62 < 1e300 < (1e5)^62
    assert np.array_equal(kernel(s), former(s, pr))
    s = s.copy()   # the model's memo holds the array it saw last
    s[100] = 1e5
    for x in (s, np.array([1e5]), np.array([-1e5])):
        with pytest.raises(FluxOverflow):
            former(x, pr)
        with pytest.raises(FluxOverflow):
            kernel(x)


class TestImplicitSolve:
    def test_zero_rhs_zero_prev(self):
        g = Grid1D(32)
        pr = params(p=4.0)
        u = implicit_solve(np.zeros(g.n), np.ones(g.n), 1e-2, pr, g)
        assert np.max(np.abs(u)) == 0.0

    def test_p2_matches_cyclic_tridiagonal_oracle(self):
        # independent oracle: assemble the linear system and solve directly
        g = Grid1D(64)
        pr = params(p=2.0, delta=0.0, newton_tol=1e-14)
        rng = np.random.default_rng(42)
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * g.x)
        u_prev = np.cos(2 * np.pi * g.x) + 0.1 * rng.normal(size=g.n)
        dt = 5e-3
        u = implicit_solve(u_prev, rho, dt, pr, g)

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
        u = implicit_solve(u_prev, rho, 2e-3, pr, g)
        assert abs(integrate(rho * u, g) - integrate(rho * u_prev, g)) < 1e-12


class TestStep:
    def test_uniform_rest_state_is_steady(self):
        g = Grid1D(32)
        pr = params(p=8.0)
        s0 = State1D(np.ones(g.n), np.zeros(g.n), 0.0)
        s1 = PowerLawModel(pr, g).step(s0, 1e-3, None, None)[0]
        assert np.array_equal(s1.rho, s0.rho)
        assert np.array_equal(s1.u, s0.u)

    def test_galilean_steady_state(self):
        g = Grid1D(32)
        pr = params(p=8.0)
        c = 0.37
        s0 = State1D(np.ones(g.n), np.full(g.n, c), 0.0)
        s1 = PowerLawModel(pr, g).step(s0, 1e-3, None, None)[0]
        assert np.max(np.abs(s1.rho - 1.0)) < 1e-14
        assert np.max(np.abs(s1.u - c)) < 1e-14

    def test_vacuum_guard(self):
        from thickflow.errors import VacuumError

        g = Grid1D(32)
        pr = params(p=4.0)
        with pytest.raises(VacuumError):
            PowerLawModel.run(pr, g, -np.ones(g.n), np.zeros(g.n), 0.1)


class TestRun:
    def test_T_zero_initial_snapshot_only(self):
        g = Grid1D(32)
        pr = params(p=4.0)
        traj = PowerLawModel.run(pr, g, np.ones(g.n), np.zeros(g.n), 0.0)
        assert len(traj.snapshots) == 1
        assert traj.snapshots[0].t == 0.0

    def test_steady_run_stays_exact(self):
        g = Grid1D(32)
        pr = params(p=8.0)
        traj = PowerLawModel.run(pr, g, np.ones(g.n), np.zeros(g.n), 0.5,
                                 snapshot_times=[0.1, 0.3, 0.5])
        for s in traj.snapshots:
            assert np.max(np.abs(s.rho - 1.0)) < 1e-12
            assert np.max(np.abs(s.u)) < 1e-12

    def test_energy_record_nonincreasing(self):
        g = Grid1D(256)
        pr = params(p=8.0)
        rho0 = 1 + 0.3 * np.sin(2 * np.pi * g.x)
        u0 = 0.5 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        traj = PowerLawModel.run(pr, g, rho0, u0, 0.25,
                                 snapshot_times=[0.25])
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
            PowerLawModel.run(pr, g, rho0, u0, 0.1)
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
