import numpy as np
import pytest

from thickflow import singular1d
from thickflow.errors import ConstraintViolation, NewtonDivergence
from thickflow.grids import Grid1D
from thickflow.singular1d import SingularModel, SingularParams
from thickflow.stepper1d import face_shear
from thickflow.trajectory import State1D

G = Grid1D(16)


def params(**kw):
    base = dict(eps=1e-2, a=1.0, gamma=2.0)
    base.update(kw)
    return SingularParams(**base)


def flux(s, eps):
    """The model's flux of the shear values s, as an array."""
    return SingularModel(params(eps=eps), G).flux(
        np.atleast_1d(np.asarray(s, float)))


def dflux(s, eps):
    return SingularModel(params(eps=eps), G).dflux(
        np.atleast_1d(np.asarray(s, float)))


class TestSingularFlux:
    def test_zero(self):
        assert flux(0.0, 1.0) == 0.0

    def test_value_at_0p6(self):
        assert flux(0.6, 1.0) == pytest.approx(0.75)

    def test_algebraic_identity(self):
        # eps s^2/sqrt(1-s^2) = eps/sqrt(1-s^2) - eps sqrt(1-s^2)
        s, eps = 0.6, 1.0
        lhs = eps * s**2 / np.sqrt(1 - s**2)
        rhs = eps / np.sqrt(1 - s**2) - eps * np.sqrt(1 - s**2)
        assert lhs == pytest.approx(0.45)
        assert rhs == pytest.approx(0.45)
        assert flux(s, eps) * s == pytest.approx(lhs)

    def test_barrier_raises(self):
        with pytest.raises(ConstraintViolation):
            flux(1.0, 1.0)
        with pytest.raises(ConstraintViolation):
            flux(-1.2, 1.0)

    def test_odd_strictly_monotone(self):
        s = np.linspace(-0.99, 0.99, 199)
        f = flux(s, 0.5)
        assert np.array_equal(flux(-s, 0.5), -f)
        assert np.all(np.diff(f) > 0)

    def test_monotonicity_pairs(self):
        # (F(s1)-F(s2))(s1-s2) >= 0 on sampled pairs in (-1, 1)
        rng = np.random.default_rng(9)
        s1 = rng.uniform(-0.995, 0.995, size=500)
        s2 = rng.uniform(-0.995, 0.995, size=500)
        gap = (flux(s1, 2.0) - flux(s2, 2.0)) * (s1 - s2)
        assert np.all(gap >= 0)

    def test_derivative_blowup(self):
        assert dflux(0.0, 1.0) == pytest.approx(1.0)
        assert dflux(0.999, 1.0) > 1e4


class TestStepAndRun:
    def test_rest_state_fixed_point(self):
        g = Grid1D(32)
        s0 = State1D(np.ones(g.n), np.zeros(g.n), 0.0)
        s1 = SingularModel(params(), g).step(s0, 1e-3)[0]
        assert np.array_equal(s1.rho, s0.rho)
        assert np.array_equal(s1.u, s0.u)

    def test_T_zero(self):
        g = Grid1D(32)
        traj = SingularModel.run(params(), g, np.ones(g.n), np.zeros(g.n),
                                 0.0)
        assert len(traj.snapshots) == 1

    def test_initial_barrier_precondition(self):
        g = Grid1D(64)
        u0 = 1.2 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        with pytest.raises(ConstraintViolation):
            SingularModel.run(params(), g, np.ones(g.n), u0, 0.1)

    def test_strong_damping_decay(self):
        # eps = 1 (large viscosity): shear decays after the initial transient
        g = Grid1D(128)
        pr = params(eps=1.0)
        rho0 = 1 + 0.2 * np.sin(2 * np.pi * g.x)
        u0 = 0.5 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        snaps = [0.1 * k for k in range(1, 6)]
        traj = SingularModel.run(pr, g, rho0, u0, 0.5, snapshot_times=snaps)
        shear_max = [r.dudx_maxabs for r in traj.records]
        k0 = len(shear_max) // 5
        tail = shear_max[k0:]
        assert all(b <= a + 1e-12 for a, b in zip(tail[:-1], tail[1:]))

    def test_barrier_preserved_under_shear_loading(self):
        g = Grid1D(256)
        pr = params(eps=1e-1, a=2.0)
        rho0 = 1 + 0.3 * np.sin(2 * np.pi * g.x)
        u0 = 0.9 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        snaps = [0.05 * k for k in range(1, 6)]
        traj = SingularModel.run(pr, g, rho0, u0, 0.25, snapshot_times=snaps)
        assert max(r.dudx_maxabs for r in traj.records) < 1.0

    def test_energy_with_singular_dissipation(self):
        g = Grid1D(256)
        rho0 = 1 + 0.3 * np.sin(2 * np.pi * g.x)
        u0 = 0.9 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        for eps in (1e-1, 4e-2):
            pr = params(eps=eps, a=2.0)
            traj = SingularModel.run(pr, g, rho0, u0, 0.25,
                                     snapshot_times=[0.25])
            e0 = traj.records[0].energy
            worst = max(r.energy + r.dissipation_cum for r in traj.records)
            assert worst <= e0 * (1 + 1e-6)

    def test_uniform_quantity_recorded(self):
        g = Grid1D(128)
        pr = params(eps=0.1, a=2.0)
        rho0 = 1 + 0.2 * np.sin(2 * np.pi * g.x)
        u0 = 0.8 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        traj = SingularModel.run(pr, g, rho0, u0, 0.1, snapshot_times=[0.1])
        r = traj.records[-1]
        # eps int 1/sqrt(1-s^2) >= eps int s^2/sqrt(1-s^2) pointwise
        assert r.aux_cum >= r.dissipation_cum
        assert np.isfinite(r.aux_cum)

    def test_fraction_to_boundary_solution_independent_of_theta(self):
        g = Grid1D(128)
        rho0 = 1 + 0.2 * np.sin(2 * np.pi * g.x)
        u0 = 0.9 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        outs = []
        for theta in (0.95, 0.3):
            pr = params(eps=1e-1, a=2.0, theta=theta)
            traj = SingularModel.run(pr, g, rho0, u0, 0.05,
                                     snapshot_times=[0.05])
            outs.append(traj.snapshots[-1].u)
        assert np.max(np.abs(outs[0] - outs[1])) < 1e-6


def test_uniform_quantity_bounded_across_eps(singular_runs):
    # eps int int 1/sqrt(1-s^2) stays in a narrow band as eps -> 0
    vals = [t.records[-1].aux_cum for t in singular_runs.values()]
    assert max(vals) <= 2.0 * min(vals)
    assert all(np.isfinite(v) and v > 0 for v in vals)


def _traced_run(monkeypatch, fail_call=None):
    """A short singular run. Returns it and, per try of a step, the
    velocity u^n, dt, prev and the velocity Newton started at; the try
    numbered fail_call raises NewtonDivergence."""
    step, solve = SingularModel.step, singular1d.implicit_shear_solve
    tries = []

    def traced_step(self, state, dt, forcing=None, prev=None):
        tries.append({"u": state.u, "dt": dt, "prev": prev})
        return step(self, state, dt, forcing, prev)

    def traced_solve(u_init, *args, **kwargs):
        tries[-1]["u_init"] = u_init.copy()
        if len(tries) - 1 == fail_call:
            raise NewtonDivergence("injected")
        return solve(u_init, *args, **kwargs)

    monkeypatch.setattr(SingularModel, "step", traced_step)
    monkeypatch.setattr(singular1d, "implicit_shear_solve", traced_solve)
    g = Grid1D(64)
    rho0 = 1 + 0.15 * np.sin(2 * np.pi * g.x)
    u0 = 0.5 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
    return SingularModel.run(params(), g, rho0, u0, 0.02), u0, tries


def _extrapolation(u, dt, prev):
    u_prev, dt_prev = prev
    return u + (dt / dt_prev) * (u - u_prev)


class TestNewtonPredictor:
    def test_first_step_starts_at_u_n_then_steps_extrapolate(
            self, monkeypatch):
        traj, u0, tries = _traced_run(monkeypatch)
        assert len(tries) == len(traj.records) - 1 >= 3
        assert tries[0]["prev"] is None
        assert np.array_equal(tries[0]["u_init"], u0)
        u_prev, dt_prev = tries[1]["prev"]
        assert np.array_equal(u_prev, u0)
        assert dt_prev == traj.records[1].dt == tries[0]["dt"]
        for k in range(1, len(tries)):
            start = _extrapolation(tries[k]["u"], tries[k]["dt"],
                                   tries[k]["prev"])
            assert np.array_equal(tries[k]["u_init"], start)
            assert not np.array_equal(start, tries[k]["u"])

    def test_retry_extrapolates_with_the_halved_dt(self, monkeypatch):
        traj, _, tries = _traced_run(monkeypatch, fail_call=2)
        failed, retry = tries[2], tries[3]
        assert len(tries) == len(traj.records)   # one retry
        assert retry["u"] is failed["u"] and retry["prev"] is failed["prev"]
        assert retry["dt"] == failed["dt"] / 2 == traj.records[3].dt
        # prev is the last accepted step's, not the failed try's
        assert retry["prev"][1] == tries[1]["dt"] == traj.records[2].dt
        assert np.array_equal(retry["u_init"], _extrapolation(
            retry["u"], retry["dt"], retry["prev"]))
        assert not np.array_equal(retry["u_init"], failed["u_init"])

    @pytest.mark.parametrize("gain, outside", [(0.2, True), (0.05, False)])
    def test_extrapolation_across_the_barrier_starts_at_u_n(
            self, monkeypatch, gain, outside):
        g = Grid1D(64)
        model = SingularModel(params(), g)
        u = np.sin(2 * np.pi * g.x)
        u *= 0.9 / np.abs(face_shear(u, g)).max()
        state = State1D(1 + 0.1 * np.cos(2 * np.pi * g.x), u, 0.0)
        dt = 1e-3
        # max |s| of the extrapolation is 0.9 (1 + gain)
        prev = ((1.0 - gain) * u, dt)
        starts = []
        solve = singular1d.implicit_shear_solve

        def traced_solve(u_init, *args, **kwargs):
            starts.append(u_init)
            return solve(u_init, *args, **kwargs)

        monkeypatch.setattr(singular1d, "implicit_shear_solve", traced_solve)
        predicted = model.step(state, dt, prev=prev)
        from_u_n = model.step(state, dt)
        assert starts[1] is state.u
        if outside:
            assert starts[0] is state.u
            assert np.array_equal(predicted[0].u, from_u_n[0].u)
            assert predicted[1] == from_u_n[1]
            assert predicted[2]["residuals"] == from_u_n[2]["residuals"]
        else:
            assert np.array_equal(starts[0], _extrapolation(u, dt, prev))
            rn1, rn2 = (max(info["residuals"][-1], model.params.newton_tol)
                        for _, _, info in (predicted, from_u_n))
            assert np.abs(predicted[0].u - from_u_n[0].u).max() <= rn1 + rn2
