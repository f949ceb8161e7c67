import numpy as np
import pytest

from thickflow import semistationary2d
from thickflow.grids import Grid2D, div_2d, integrate
from thickflow.semistationary2d import (Stokes2DParams, _FourierPreconditioner,
                                        _remove_flat_modes, check_gauge,
                                        check_linf_growth, check_stationarity,
                                        flat_mode_means, functional,
                                        functional_gradient, run_2d,
                                        solve_momentum, transport_density)


def cos_bump(g, amp=0.5):
    X, Y = g.meshgrid()
    return 1 + amp * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y)


def taylor_green(g, amp=0.5):
    """Discretely divergence-free velocity (central differences)."""
    X, Y = g.meshgrid()
    return amp * np.stack([np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y),
                           -np.cos(2 * np.pi * X) * np.sin(2 * np.pi * Y)])


class TestSolveMomentum:
    def test_constant_density_gives_zero_velocity(self):
        g = Grid2D(16, 16)
        pr = Stokes2DParams(p=4.0, gamma=2.0)
        u = solve_momentum(np.full((16, 16), 1.7), pr, g)
        assert np.max(np.abs(u)) < 1e-10

    def test_p2_matches_fourier_diagonal_oracle(self):
        # oracle: solve (|K|^2 I + K K^T)/2 u_hat = -i K rho^gamma_hat
        # mode by mode with the central-difference symbols
        g = Grid2D(32, 32)
        pr = Stokes2DParams(p=2.0, gamma=2.0, delta=0.0, newton_tol=1e-12)
        X, Y = g.meshgrid()
        rho = 1 + 0.5 * np.cos(2 * np.pi * X)
        u = solve_momentum(rho, pr, g)

        rg_hat = np.fft.fft2(rho**pr.gamma)
        kx = np.fft.fftfreq(g.nx, d=g.dx)
        ky = np.fft.fftfreq(g.ny, d=g.dy)
        Kx = (np.sin(2 * np.pi * kx * g.dx) / g.dx)[:, None] * np.ones(g.ny)
        Ky = np.ones((g.nx, 1)) * (np.sin(2 * np.pi * ky * g.dy) / g.dy)[None, :]
        u1_hat = np.zeros_like(rg_hat)
        u2_hat = np.zeros_like(rg_hat)
        for i in range(g.nx):
            for j in range(g.ny):
                K = np.array([Kx[i, j], Ky[i, j]])
                k2 = K @ K
                if k2 == 0:
                    continue
                A = 0.5 * (k2 * np.eye(2) + np.outer(K, K))
                b = -1j * K * rg_hat[i, j]
                sol = np.linalg.solve(A, b)
                u1_hat[i, j], u2_hat[i, j] = sol
        oracle = np.stack([np.real(np.fft.ifft2(u1_hat)),
                           np.real(np.fft.ifft2(u2_hat))])
        assert np.max(np.abs(u - oracle)) < 1e-8

    def test_gradient_matches_finite_differences(self):
        g = Grid2D(16, 16)
        pr = Stokes2DParams(p=6.0, gamma=2.0)
        rng = np.random.default_rng(21)
        rga = pr.a * cos_bump(g, 0.4) ** pr.gamma
        v = 0.1 * rng.normal(size=(2, 16, 16))
        grad = functional_gradient(v, rga, g, pr.p, pr.delta)
        h = 1e-6
        for _ in range(5):
            w = rng.normal(size=(2, 16, 16))
            fd = (functional(v + h * w, rga, g, pr.p, pr.delta)
                  - functional(v - h * w, rga, g, pr.p, pr.delta)) / (2 * h)
            an = float(np.sum(grad * w) * g.dx * g.dy)
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(fd))

    def test_minimizer_beats_test_fields(self):
        # variational optimality: J(u) <= J(v) for a seeded family
        from thickflow.banks import velocity_bank_2d

        g = Grid2D(32, 32)
        pr = Stokes2DParams(p=8.0, gamma=2.0)
        rho = cos_bump(g, 0.5)
        rga = pr.a * rho**pr.gamma
        u = solve_momentum(rho, pr, g)
        Ju = functional(u, rga, g, pr.p, pr.delta)
        assert Ju <= 0.0 + 1e-12  # J(0) = O(delta^p)
        X, Y = g.meshgrid()
        bank = velocity_bank_2d(123, 1.0, size=20)
        for v in bank:
            Jv = functional(v.spatial(X, Y), rga, g, pr.p, pr.delta)
            assert Ju <= Jv + 1e-8

    @staticmethod
    def cold_solve_counted(monkeypatch):
        """The cold 32 x 32 p = 8 solve, with its functional and
        functional_gradient calls counted as the benchmark's tracer
        counts them: by the module-level names."""
        g = Grid2D(32, 32)
        pr = Stokes2DParams(p=8.0, gamma=2.0)
        X, Y = g.meshgrid()
        rho = (1 + 0.25 * np.cos(2 * np.pi * (X + Y))
               + 0.25 * np.cos(2 * np.pi * (X - Y)))
        calls = {"functional": 0, "functional_gradient": 0}
        for name in calls:
            def counted(*args, _fn=getattr(semistationary2d, name), _n=name):
                calls[_n] += 1
                return _fn(*args)
            monkeypatch.setattr(semistationary2d, name, counted)
        u = solve_momentum(rho, pr, g)
        return g, pr, rho, u, calls

    def test_cold_solve_work_is_pinned(self, monkeypatch):
        # the scaled initial Hessian gamma_k P makes unit steps the right
        # length, so nearly every trial step passes Armijo at once
        g, pr, rho, u, calls = self.cold_solve_counted(monkeypatch)
        its = calls["functional_gradient"] - 1
        evals = calls["functional"] - 1
        assert 0 < its <= 100
        assert evals <= 1.5 * its
        grad = functional_gradient(u, pr.a * rho**pr.gamma, g, pr.p, pr.delta)
        assert np.sqrt(np.sum(grad**2) * g.dx * g.dy) < pr.newton_tol
        for k in (0, 1):
            assert abs(integrate(rho * u[k], g)) < 1e-12

    def test_cold_solve_call_counts_are_exact(self, monkeypatch):
        # measured when H0 took the iterate's viscosity field in place
        # of its median (48 iterations and 61 trial points before): 49
        # iterations, 66 trial points; a speed-up that keeps the bits
        # keeps these counts
        *_, calls = self.cold_solve_counted(monkeypatch)
        assert calls == {"functional": 67, "functional_gradient": 50}

    def test_gauge_mean_zero(self):
        g = Grid2D(16, 16)
        pr = Stokes2DParams(p=4.0, gamma=2.0)
        u = solve_momentum(cos_bump(g, 0.3), pr, g)
        assert abs(u[0].mean()) < 1e-13
        assert abs(u[1].mean()) < 1e-13
        # the full gauge, zero mean over each parity class, after a cold
        # and a warm solve on non-symmetric data, on even and odd axes
        pr = Stokes2DParams(p=8.0, gamma=2.0)
        for n in [(32, 32), (15, 16)]:
            g = Grid2D(*n)
            rho = nonsymmetric_density(g)
            u = solve_momentum(rho, pr, g)
            # a warm start far off the gauge, for slightly moved data
            u_init = u + parity_field(np.random.default_rng(5), g)
            u_warm = solve_momentum(rho * (1 + 0.01 * rho), pr, g,
                                    u_init=u_init)
            for w in (u, u_warm):
                assert np.max(np.abs(flat_mode_means(w))) \
                    <= 1e-14 * np.max(np.abs(w))

    def test_converges_where_J_cannot_show_the_decrease(self, monkeypatch):
        # at newton_tol 1e-10 a step's decrease here is below one ulp of
        # J; judged by J alone the steps shrank to nothing and the solve
        # stalled at |grad J| = 1.3e-9 with 26 trial points per iteration
        g = Grid2D(16, 16)
        pr = Stokes2DParams(p=8.0, gamma=2.0, newton_tol=1e-10,
                            newton_max_iter=600)
        rga = pr.a * nonsymmetric_density(g) ** pr.gamma
        calls = {"functional": 0, "functional_gradient": 0}
        for name in calls:
            def counted(*args, _fn=getattr(semistationary2d, name), _n=name):
                calls[_n] += 1
                return _fn(*args)
            monkeypatch.setattr(semistationary2d, name, counted)
        u = solve_momentum(nonsymmetric_density(g), pr, g)
        grad = functional_gradient(u, rga, g, pr.p, pr.delta)
        assert np.sqrt(np.sum(grad**2) * g.dx * g.dy) < pr.newton_tol
        assert calls["functional"] <= 1.5 * calls["functional_gradient"]


def nonsymmetric_density(g):
    """The density of rho_modes = 1, 1, 0.25, 0.1, 1, -1, 0.2, 0.05,
    2, 0, 0.1, 0.07: no reflection or translation maps it to itself."""
    X, Y = g.meshgrid()
    rho = np.ones_like(X)
    for kx, ky, ac, as_ in [(1, 1, 0.25, 0.1), (1, -1, 0.2, 0.05),
                            (2, 0, 0.1, 0.07)]:
        ph = 2 * np.pi * (kx * X + ky * Y)
        rho += ac * np.cos(ph) + as_ * np.sin(ph)
    return rho


def parity_field(rng, g):
    """A random field that is constant on each parity class of cells."""
    X = np.arange(g.nx)[:, None] % (2 - g.nx % 2)
    Y = np.arange(g.ny)[None, :] % (2 - g.ny % 2)
    return rng.normal(size=(2, 2, 2))[:, X, Y]


class TestFlatModes:
    @pytest.mark.parametrize("n", [(16, 16), (15, 16), (15, 17)])
    def test_J_and_grad_J_cannot_see_them(self, n):
        g = Grid2D(*n)
        rng = np.random.default_rng(3)
        rga = cos_bump(g, 0.4) ** 2
        v = 0.1 * rng.normal(size=(2, *n))
        c = parity_field(rng, g)
        assert np.max(np.abs(_remove_flat_modes(c))) \
            <= 1e-14 * np.max(np.abs(c))
        grad = functional_gradient(v, rga, g, 6.0, 1e-8)
        assert functional(v + c, rga, g, 6.0, 1e-8) == pytest.approx(
            functional(v, rga, g, 6.0, 1e-8), rel=1e-12)
        assert np.max(np.abs(functional_gradient(v + c, rga, g, 6.0, 1e-8)
                             - grad)) < 1e-12 * np.max(np.abs(grad))
        assert np.max(np.abs(flat_mode_means(grad))) \
            < 1e-14 * np.max(np.abs(grad))


class TestPreconditioner:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symmetric_positive_for_wide_weights(self, seed):
        g = Grid2D(32, 24)
        rng = np.random.default_rng(seed)
        W = 10.0 ** rng.uniform(-6.0, 6.0, size=(g.nx, g.ny))
        W.flat[:2] = 1e-6, 1e6
        pc = _FourierPreconditioner(g, W)
        a, b = (_remove_flat_modes(rng.normal(size=(2, g.nx, g.ny)))
                for _ in range(2))
        Pa, Pb = pc.apply(np.stack([a, b]))
        aPa, bPb = np.sum(a * Pa), np.sum(b * Pb)
        assert aPa > 0 and bPb > 0
        assert abs(np.sum(a * Pb) - np.sum(Pa * b)) \
            <= 1e-12 * np.sqrt(aPa * bPb)

    def test_weight_is_clipped_to_the_band_about_its_median(self):
        g = Grid2D(16, 16)
        W = np.full((16, 16), 2.0)
        W[:4], W[-4:] = 1e-9, 1e9
        s = _FourierPreconditioner(g, W).s
        assert np.array_equal(np.unique(s), [(3 * 2.0) ** -0.5,
                                             2.0 ** -0.5, (2.0 / 3) ** -0.5])
        # a cold start: W ~ delta^(p-2) everywhere, w0 clipped to 1e-3
        s0 = _FourierPreconditioner(g, np.full((16, 16), 1e-48)).s
        assert np.all(s0 == (1e-3 / 3) ** -0.5)


class TestTransport:
    def test_zero_velocity_keeps_density(self):
        g = Grid2D(16, 16)
        rho = cos_bump(g, 0.5)
        out = transport_density(rho, np.zeros((2, 16, 16)), 1e-2, g)
        assert np.array_equal(out, rho)

    def test_divergence_free_keeps_constant_density(self):
        g = Grid2D(32, 32)
        rho = np.ones((32, 32))
        u = taylor_green(g, 0.7)
        assert np.max(np.abs(div_2d(u, g))) < 1e-12
        out = rho.copy()
        for _ in range(20):
            out = transport_density(out, u, 5e-3, g)
        assert np.max(np.abs(out - 1.0)) < 1e-12

    def test_mass_exact_and_nonnegative(self):
        g = Grid2D(32, 32)
        rng = np.random.default_rng(4)
        rho = np.abs(rng.normal(size=(32, 32))) + 0.01
        u = rng.normal(size=(2, 32, 32))
        dt = 0.2 * min(g.dx / np.max(np.abs(u[0])), g.dy / np.max(np.abs(u[1])))
        out = transport_density(rho, u, dt, g)
        assert abs(integrate(out, g) - integrate(rho, g)) < 1e-14
        assert np.min(out) >= 0.0

    def test_rotating_patch_self_convergence(self):
        # first-order L1 self-convergence against a 4x-resolution run
        def advect(n, steps, T):
            g = Grid2D(n, n)
            X, Y = g.meshgrid()
            rho = 1 + np.exp(-80 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
            u = taylor_green(g, 1.0)
            dt = T / steps
            for _ in range(steps):
                rho = transport_density(rho, u, dt, g)
            return g, rho

        T = 0.05
        g32, r32 = advect(32, 80, T)
        g64, r64 = advect(64, 160, T)
        g128, r128 = advect(128, 320, T)
        ref32 = r128.reshape(32, 4, 32, 4).mean(axis=(1, 3))
        ref64 = r128.reshape(64, 2, 64, 2).mean(axis=(1, 3))
        e32 = integrate(np.abs(r32 - ref32), g32)
        e64 = integrate(np.abs(r64 - ref64), g64)
        assert e64 < e32 / 1.5


class TestRun2D:
    def test_T_zero(self):
        g = Grid2D(16, 16)
        pr = Stokes2DParams(p=4.0, gamma=2.0)
        traj = run_2d(pr, g, cos_bump(g, 0.4), 0.0)
        assert len(traj.snapshots) == 1

    def test_constant_density_constant_trajectory(self):
        g = Grid2D(16, 16)
        pr = Stokes2DParams(p=4.0, gamma=2.0)
        traj = run_2d(pr, g, np.full((16, 16), 2.0), 0.05,
                      snapshot_times=[0.025, 0.05])
        for s in traj.snapshots:
            assert np.max(np.abs(s.rho - 2.0)) < 1e-12
            assert np.max(np.abs(s.u)) < 1e-9

    def test_internal_energy_nonincreasing(self):
        g = Grid2D(32, 32)
        pr = Stokes2DParams(p=8.0, gamma=2.0, cfl=0.1)
        traj = run_2d(pr, g, cos_bump(g, 0.5), 0.1,
                      snapshot_times=[0.02 * k for k in range(1, 6)])
        e0 = traj.records[0].energy
        for ra, rb in zip(traj.records[:-1], traj.records[1:]):
            assert rb.energy <= ra.energy * (1 + 1e-6)
        worst = max(r.energy + r.dissipation_cum for r in traj.records)
        assert worst <= e0 * (1 + 1e-6)

    def test_linf_growth_check(self):
        g = Grid2D(32, 32)
        pr = Stokes2DParams(p=8.0, gamma=2.0, cfl=0.1)
        traj = run_2d(pr, g, cos_bump(g, 0.5), 0.1, snapshot_times=[0.1])
        rep = check_linf_growth(traj)
        assert rep.passed
        # constant trajectory: ratio e^-t <= 1
        traj_c = run_2d(pr, g, np.full((32, 32), 2.0), 0.05,
                        snapshot_times=[0.05])
        rep_c = check_linf_growth(traj_c)
        assert rep_c.passed
        assert rep_c.measured <= 1.0

    def test_stationarity_and_gauge_checks(self):
        g = Grid2D(16, 16)
        pr = Stokes2DParams(p=8.0, gamma=2.0)
        traj = run_2d(pr, g, nonsymmetric_density(g), 0.02,
                      snapshot_times=[0.01, 0.02])
        rep = check_stationarity(traj)
        assert rep.passed and 0 < rep.measured <= 1.0
        assert check_gauge(traj).passed
        # both fail on a velocity that is not the solve's: 1% too large,
        # and moved off the gauge by a checkerboard
        traj.snapshots[-1].u *= 1.01
        assert not check_stationarity(traj).passed
        traj.snapshots[-1].u += parity_field(np.random.default_rng(2), g)
        assert not check_gauge(traj).passed


def test_linf_bound_formula_value():
    # bound at t = 1 for max rho0 = 2 is 2e
    assert 2.0 * np.exp(1.0) == pytest.approx(5.43656365691809, rel=1e-12)
