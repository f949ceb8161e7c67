import numpy as np
import pytest

from thickflow.errors import ConstraintViolation
from thickflow.grids import Grid1D
from thickflow.singular1d import (SingularModel, SingularParams, run_singular,
                                  singular_flux, singular_flux_derivative)
from thickflow.trajectory import State1D


def params(**kw):
    base = dict(eps=1e-2, a=1.0, gamma=2.0)
    base.update(kw)
    return SingularParams(**base)


class TestSingularFlux:
    def test_zero(self):
        assert singular_flux(0.0, 1.0) == 0.0

    def test_value_at_0p6(self):
        assert singular_flux(0.6, 1.0) == pytest.approx(0.75)

    def test_algebraic_identity(self):
        # eps s^2/sqrt(1-s^2) = eps/sqrt(1-s^2) - eps sqrt(1-s^2)
        s, eps = 0.6, 1.0
        lhs = eps * s**2 / np.sqrt(1 - s**2)
        rhs = eps / np.sqrt(1 - s**2) - eps * np.sqrt(1 - s**2)
        assert lhs == pytest.approx(0.45)
        assert rhs == pytest.approx(0.45)
        assert singular_flux(s, eps) * s == pytest.approx(lhs)

    def test_barrier_raises(self):
        with pytest.raises(ConstraintViolation):
            singular_flux(1.0, 1.0)
        with pytest.raises(ConstraintViolation):
            singular_flux(-1.2, 1.0)

    def test_odd_strictly_monotone(self):
        s = np.linspace(-0.99, 0.99, 199)
        f = singular_flux(s, 0.5)
        assert np.array_equal(singular_flux(-s, 0.5), -f)
        assert np.all(np.diff(f) > 0)

    def test_monotonicity_pairs(self):
        # (F(s1)-F(s2))(s1-s2) >= 0 on sampled pairs in (-1, 1)
        rng = np.random.default_rng(9)
        s1 = rng.uniform(-0.995, 0.995, size=500)
        s2 = rng.uniform(-0.995, 0.995, size=500)
        gap = (singular_flux(s1, 2.0) - singular_flux(s2, 2.0)) * (s1 - s2)
        assert np.all(gap >= 0)

    def test_derivative_blowup(self):
        assert singular_flux_derivative(0.0, 1.0) == pytest.approx(1.0)
        assert singular_flux_derivative(0.999, 1.0) > 1e4


class TestStepAndRun:
    def test_rest_state_fixed_point(self):
        g = Grid1D(32)
        s0 = State1D(np.ones(g.n), np.zeros(g.n), 0.0)
        s1 = SingularModel(params(), g).step(s0, 1e-3)[0]
        assert np.array_equal(s1.rho, s0.rho)
        assert np.array_equal(s1.u, s0.u)

    def test_T_zero(self):
        g = Grid1D(32)
        traj = run_singular(params(), g, np.ones(g.n), np.zeros(g.n), 0.0)
        assert len(traj.snapshots) == 1

    def test_initial_barrier_precondition(self):
        g = Grid1D(64)
        u0 = 1.2 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        with pytest.raises(ConstraintViolation):
            run_singular(params(), g, np.ones(g.n), u0, 0.1)

    def test_strong_damping_decay(self):
        # eps = 1 (large viscosity): shear decays after the initial transient
        g = Grid1D(128)
        pr = params(eps=1.0)
        rho0 = 1 + 0.2 * np.sin(2 * np.pi * g.x)
        u0 = 0.5 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        traj = run_singular(pr, g, rho0, u0, 0.5,
                            snapshot_times=[0.1 * k for k in range(1, 6)])
        shear_max = [r.dudx_maxabs for r in traj.records]
        k0 = len(shear_max) // 5
        tail = shear_max[k0:]
        assert all(b <= a + 1e-12 for a, b in zip(tail[:-1], tail[1:]))

    def test_barrier_preserved_under_shear_loading(self):
        g = Grid1D(256)
        pr = params(eps=1e-1, a=2.0)
        rho0 = 1 + 0.3 * np.sin(2 * np.pi * g.x)
        u0 = 0.9 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        traj = run_singular(pr, g, rho0, u0, 0.25,
                            snapshot_times=[0.05 * k for k in range(1, 6)])
        assert max(r.dudx_maxabs for r in traj.records) < 1.0

    def test_energy_with_singular_dissipation(self):
        g = Grid1D(256)
        rho0 = 1 + 0.3 * np.sin(2 * np.pi * g.x)
        u0 = 0.9 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        for eps in (1e-1, 4e-2):
            pr = params(eps=eps, a=2.0)
            traj = run_singular(pr, g, rho0, u0, 0.25,
                                snapshot_times=[0.25])
            e0 = traj.records[0].energy
            worst = max(r.energy + r.dissipation_cum for r in traj.records)
            assert worst <= e0 * (1 + 1e-6)

    def test_uniform_quantity_recorded(self):
        g = Grid1D(128)
        pr = params(eps=0.1, a=2.0)
        rho0 = 1 + 0.2 * np.sin(2 * np.pi * g.x)
        u0 = 0.8 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        traj = run_singular(pr, g, rho0, u0, 0.1, snapshot_times=[0.1])
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
            traj = run_singular(pr, g, rho0, u0, 0.05, snapshot_times=[0.05])
            outs.append(traj.snapshots[-1].u)
        assert np.max(np.abs(outs[0] - outs[1])) < 1e-6


def test_uniform_quantity_bounded_across_eps(singular_runs):
    # eps int int 1/sqrt(1-s^2) stays in a narrow band as eps -> 0
    vals = [t.records[-1].aux_cum for t in singular_runs.values()]
    assert max(vals) <= 2.0 * min(vals)
    assert all(np.isfinite(v) and v > 0 for v in vals)
