import numpy as np
import pytest

from thickflow import semistationary2d
from thickflow.errors import SolverDivergence, StepFailure
from thickflow.grids import Grid2D, PlaneWaves, div_2d, integrate
from thickflow.lbfgs import CompactInverse
from thickflow.semistationary2d import (MEMORY, Stokes2DModel,
                                        Stokes2DParams,
                                        _FourierPreconditioner,
                                        _remove_flat_modes, check_gauge,
                                        check_linf_growth, check_stationarity,
                                        flat_mode_means, functional,
                                        functional_gradient, solve_momentum,
                                        transport_density)

# an overflow or invalid value in the solver, in its pair store too, is
# a fault here, not a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
            waves = PlaneWaves(v.waves(), X, Y)
            field = np.stack([v.scale * waves.series(v.coeffs1),
                              v.scale * waves.series(v.coeffs2)])
            Jv = functional(field, rga, g, pr.p, pr.delta)
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


def two_loop(pairs, q, precond):
    """H q by the two-loop recursion (Nocedal & Wright, Numerical
    Optimization, 2nd ed., Algorithm 7.4) from gamma H0, gamma = s'y /
    y'H0 y of the newest pair, with H0 y applied to y itself."""
    q = q.copy()
    alphas = []
    for s, y in reversed(pairs):
        alphas.append(np.sum(s * q) / np.sum(y * s))
        q -= alphas[-1] * y
    s, y = pairs[-1]
    z = np.sum(s * y) / np.sum(y * precond.apply(y)) * precond.apply(q)
    for (s, y), a in zip(pairs, reversed(alphas)):
        z += (a - np.sum(y * z) / np.sum(y * s)) * s
    return z


class TestCompactInverse:
    def test_equals_the_two_loop_recursion(self):
        # pairs of J on a 16 x 16 grid, each w = H0 y the difference of
        # two H0 g as in the solve; 20 pairs, so the ring of 12 wraps
        g = Grid2D(16, 16)
        p, delta = 6.0, 1e-8
        rng = np.random.default_rng(8)
        rga = cos_bump(g, 0.4) ** 2
        v = 0.05 * rng.normal(size=(2, 16, 16))
        grad = functional_gradient(v, rga, g, p, delta)
        pc = _FourierPreconditioner(g, np.exp(rng.normal(size=(16, 16))))
        h = pc.apply(grad)
        H = CompactInverse(MEMORY, v.size)
        pairs = []
        for k in range(20):
            s = _remove_flat_modes(0.01 * rng.normal(size=v.shape))
            grad_new = functional_gradient(v + s, rga, g, p, delta)
            h_new = pc.apply(grad_new)
            y, w = grad_new - grad, h_new - h
            H.add(s, y, w, np.sum(s * y), np.sum(y * w))
            pairs = (pairs + [(s, y)])[-MEMORY:]
            assert len(H.order) == len(pairs)
            for q in (grad_new, rng.normal(size=v.shape)):
                want = two_loop(pairs, q, pc)
                got = H.apply(q, pc.apply(q))
                assert np.max(np.abs(got - want)) \
                    <= 1e-10 * np.max(np.abs(want))
            v, grad, h = v + s, grad_new, h_new

    def test_forced_restart_empties_the_pairs_and_rebuilds_H0(
            self, monkeypatch):
        # the sixth direction is turned uphill, which forces a restart
        applied, added, built = [], [], []

        class Uphill(CompactInverse):
            def apply(self, q, h):
                applied.append(len(self.order))
                Hq = super().apply(q, h)
                return -Hq if len(applied) == 6 else Hq

            def add(self, s, y, w, sy, yw):
                added.append((len(applied), y, w))
                super().add(s, y, w, sy, yw)

        init = _FourierPreconditioner.__init__

        def build(pc, *args):
            built.append(pc)
            init(pc, *args)

        monkeypatch.setattr(semistationary2d, "CompactInverse", Uphill)
        monkeypatch.setattr(_FourierPreconditioner, "__init__", build)
        g = Grid2D(16, 16)
        pr = Stokes2DParams(p=8.0, gamma=2.0)
        rho = nonsymmetric_density(g)
        u = solve_momentum(rho, pr, g)
        # one H0 at the start and one at the restart; the pairs held
        # before it are gone, and the next direction has only the step
        # taken after it
        assert len(built) == 2
        assert applied[5] == 5 and applied[6] == 1
        # that pair's w is H0 y of the rebuilt H0, not of the first
        _, y, w = next(a for a in added if a[0] == 6)
        assert np.max(np.abs(w - built[1].apply(y))) \
            <= 1e-8 * np.max(np.abs(w))
        assert np.max(np.abs(w - built[0].apply(y))) \
            > 1e-3 * np.max(np.abs(w))
        grad = functional_gradient(u, pr.a * rho**pr.gamma, g, pr.p, pr.delta)
        assert np.sqrt(np.sum(grad**2) * g.dx * g.dy) < pr.newton_tol


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
        traj = Stokes2DModel.run(pr, g, cos_bump(g, 0.4), None, 0.0)
        assert len(traj.snapshots) == 1

    def test_constant_density_constant_trajectory(self):
        g = Grid2D(16, 16)
        pr = Stokes2DParams(p=4.0, gamma=2.0)
        traj = Stokes2DModel.run(pr, g, np.full((16, 16), 2.0), None, 0.05,
                                 snapshot_times=[0.025, 0.05])
        for s in traj.snapshots:
            assert np.max(np.abs(s.rho - 2.0)) < 1e-12
            assert np.max(np.abs(s.u)) < 1e-9

    def test_internal_energy_nonincreasing(self):
        g = Grid2D(32, 32)
        pr = Stokes2DParams(p=8.0, gamma=2.0, cfl=0.1)
        traj = Stokes2DModel.run(
            pr, g, cos_bump(g, 0.5), None, 0.1,
            snapshot_times=[0.02 * k for k in range(1, 6)])
        e0 = traj.records[0].energy
        for ra, rb in zip(traj.records[:-1], traj.records[1:]):
            assert rb.energy <= ra.energy * (1 + 1e-6)
        worst = max(r.energy + r.dissipation_cum for r in traj.records)
        assert worst <= e0 * (1 + 1e-6)

    def test_linf_growth_check(self):
        g = Grid2D(32, 32)
        pr = Stokes2DParams(p=8.0, gamma=2.0, cfl=0.1)
        traj = Stokes2DModel.run(pr, g, cos_bump(g, 0.5), None, 0.1,
                                 snapshot_times=[0.1])
        rep = check_linf_growth(traj, tol_c=5.0)
        assert rep.passed
        # constant trajectory: ratio e^-t, largest at the first step's
        # t1 > 0; the t = 0 record's ratio 1 does not count
        traj_c = Stokes2DModel.run(pr, g, np.full((32, 32), 2.0), None, 0.05,
                                   snapshot_times=[0.05])
        rep_c = check_linf_growth(traj_c, tol_c=5.0)
        assert rep_c.passed
        t1 = traj_c.records[1].t
        assert 0.0 < t1 and rep_c.measured == pytest.approx(np.exp(-t1))
        assert rep_c.measured < 1.0
        # a trajectory of the t = 0 record alone measures its ratio
        traj_0 = Stokes2DModel.run(pr, g, np.full((32, 32), 2.0), None, 0.0)
        assert check_linf_growth(traj_0, tol_c=5.0).measured == 1.0

    def test_stationarity_and_gauge_checks(self):
        g = Grid2D(16, 16)
        pr = Stokes2DParams(p=8.0, gamma=2.0)
        traj = Stokes2DModel.run(pr, g, nonsymmetric_density(g), None, 0.02,
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


class TestStepRetry:
    """A 2D step whose momentum solve fails is retried by advance at
    dt / 2, as a 1D step whose Newton solve fails is."""

    T = 0.02
    SNAPS = [0.005, 0.01, 0.015, 0.02]

    def setup_method(self):
        self.g = Grid2D(16, 16)
        self.pr = Stokes2DParams(p=4.0, gamma=2.0, cfl=0.1)
        self.rho0 = cos_bump(self.g, 0.4)

    def failing_solve(self, monkeypatch, fails):
        """Make solve_momentum raise SolverDivergence on the calls whose
        number (from 1, the t = 0 solve) fails(number) is true; returns
        the list of calls so far."""
        solve = semistationary2d.solve_momentum
        calls = []

        def flaky(rho, params, g, u_init=None):
            calls.append(u_init)
            if fails(len(calls)):
                raise SolverDivergence("injected")
            return solve(rho, params, g, u_init=u_init)

        monkeypatch.setattr(semistationary2d, "solve_momentum", flaky)
        return calls

    def test_one_failed_solve_is_retried_at_half_dt(self, monkeypatch):
        ref = Stokes2DModel.run(self.pr, self.g, self.rho0, None, self.T,
                                self.SNAPS)
        calls = self.failing_solve(monkeypatch, lambda k: k == 2)
        traj = Stokes2DModel.run(self.pr, self.g, self.rho0, None, self.T,
                                 self.SNAPS)
        # the retry starts from the same state, with the first step's dt
        # halved; the run then goes on to T
        assert calls[1] is calls[2]
        assert traj.records[1].dt == ref.records[1].dt / 2
        assert traj.records[-1].t == pytest.approx(self.T, abs=1e-14)
        assert [s.t for s in traj.snapshots] == [s.t for s in ref.snapshots]

    def test_a_persistent_failure_raises_step_failure(self, monkeypatch):
        calls = self.failing_solve(monkeypatch, lambda k: k >= 3)
        with pytest.raises(StepFailure) as err:
            Stokes2DModel.run(self.pr, self.g, self.rho0, None, self.T,
                              self.SNAPS)
        # the t = 0 solve and the first step passed; the second step
        # failed on all 11 tries
        assert len(calls) == 2 + 11
        assert err.value.t == self.SNAPS[0]
        assert isinstance(err.value.cause, SolverDivergence)

    def test_cli_exits_3(self, monkeypatch, tmp_path):
        from thickflow.cli import main

        self.failing_solve(monkeypatch, lambda k: k >= 2)
        cfg = tmp_path / "run2d.cfg"
        cfg.write_text("[model]\nkind = semistationary2d\n[grid]\nnx = 16\n"
                       "[params]\np = 4.0\ncfl = 0.1\n[initial]\n"
                       "rho_modes = 1, 1, 0.2, 0\n[time]\nT = 0.02\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out), "--quiet"]) == 3
        assert not out.exists()


def test_linf_bound_formula_value():
    # bound at t = 1 for max rho0 = 2 is 2e
    assert 2.0 * np.exp(1.0) == pytest.approx(5.43656365691809, rel=1e-12)
