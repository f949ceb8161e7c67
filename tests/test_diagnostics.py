import math

import numpy as np
import pytest

from thickflow.diagnostics import (CheckReport, check_conservation,
                                   check_density_bounds,
                                   check_energy_inequality,
                                   check_hoff_uniformity,
                                   check_stress_max_principle,
                                   density_lower_bound, density_upper_bound,
                                   format_report_table, hoff_value,
                                   load_reports, write_reports)
from thickflow.grids import Grid1D, ddx_periodic, integrate
from thickflow.powerlaw1d import PowerLawModel, PowerLawParams
from thickflow.trajectory import State1D


def params(**kw):
    base = dict(p=4.0, mu=1.0, a=1.0, gamma=2.0)
    base.update(kw)
    return PowerLawParams(**base)


def steady_traj(n=32, T=0.05):
    g = Grid1D(n)
    return PowerLawModel.run(params(p=4.0), g, np.ones(n), np.zeros(n), T,
                             snapshot_times=[T]), g


class TestCheckReport:
    def test_pass_rule(self):
        r = CheckReport.build("x", bound=1.0, measured=1.0 + 0.5e-3,
                              tolerance=1e-3)
        assert r.passed
        r2 = CheckReport.build("x", bound=1.0, measured=1.0 + 3e-3,
                               tolerance=1e-3)
        assert not r2.passed
        # invariant: pass <=> measured <= bound (1 + tol) + tol
        for b, m, t in [(2.0, 2.1, 0.01), (0.0, 1e-4, 1e-3), (5.0, 7.0, 0.1)]:
            r3 = CheckReport.build("x", b, m, t)
            assert r3.passed == (m <= b * (1 + t) + t)
        # a measured value equal to its bound passes whatever the bound's
        # sign: below zero the rule is measured <= bound (1 - tol) + tol
        for b in (-0.5, -1.02771, -4.0):
            assert CheckReport.build("x", b, b, 1e-3).passed
            assert CheckReport.build("x", b, b * (1 - 1e-3) + 0.9e-3,
                                     1e-3).passed
            assert not CheckReport.build("x", b, b * (1 - 1e-3) + 1.1e-3,
                                         1e-3).passed
        # a measured value above a negative bound by more than the slack
        assert not CheckReport.build("x", -2.0, -1.9, 0.01).passed

    def test_roundtrip_json(self, tmp_path):
        reps = [CheckReport.build("a", 1.0, 0.5, 1e-2),
                CheckReport.skip("b", "precondition failed")]
        path = tmp_path / "checks.json"
        write_reports(reps, path)
        back = load_reports(path)
        assert back[0].check == "a" and back[0].passed
        assert back[1].skipped and math.isnan(back[1].measured)
        assert "FAIL" not in format_report_table(back)


class TestCauchyStress:
    def test_constant_state(self):
        g = Grid1D(32)
        pr = params(a=1.0)
        s = State1D(np.ones(g.n), np.full(g.n, 0.7), 0.0)
        sigma = PowerLawModel(pr, g).stress(s)
        assert np.max(np.abs(sigma + 1.0)) < 1e-14

    def test_half_shear_arithmetic(self):
        # du/dx = 0.5, p = 4, mu = a = 1, rho = 1: sigma = 0.125 - 1
        g = Grid1D(64)
        pr = params(p=4.0)
        s = State1D(np.ones(g.n), 0.5 * g.x, 0.0)  # du/dx = 0.5 away from seam
        sigma = PowerLawModel(pr, g).stress(s)
        interior = sigma[2:g.n - 2]
        assert np.max(np.abs(interior - (-0.875))) < 1e-12


class TestStressMaxPrinciple:
    def test_steady_state_passes(self):
        traj, g = steady_traj()
        rep = check_stress_max_principle(traj, params(p=4.0), 5.0, True)
        assert rep.passed and not rep.skipped

    def test_precondition_skip(self):
        traj, g = steady_traj()
        rep = check_stress_max_principle(traj, params(p=2.5, gamma=2.0),
                                         5.0, True)
        assert rep.skipped
        assert rep.passed  # skips are not failures

    def test_bound_is_mu_under_compliant_data(self):
        traj, g = steady_traj()
        rep = check_stress_max_principle(traj, params(p=4.0, mu=1.0),
                                         5.0, True)
        assert rep.bound == 1.0


class TestDensityBounds:
    def test_lower_bound_formula(self):
        # c1=0.5, c2=2, a=mu=1, gamma=2, t=0 -> 0.5/max(1, 1*2) = 0.25
        pr = params(gamma=2.0, a=1.0, mu=1.0)
        assert density_lower_bound(0.0, pr, 0.5, 2.0) == pytest.approx(0.25)

    def test_upper_bound_formula(self):
        # c2 exp[E0/mu + ((2+gamma) E0/mu + 1 + 1/p) t]
        pr = params(p=8.0, gamma=2.0, mu=1.0)
        e0 = 1.3
        t = 0.25
        expected = 2.0 * np.exp(e0 + (4 * e0 + 1.125) * t)
        assert density_upper_bound(t, pr, 2.0, e0) == pytest.approx(expected)

    def test_constant_state_passes(self):
        traj, g = steady_traj()
        rep = check_density_bounds(traj, params(p=4.0), 1.0, 1.0, 5.0)
        assert rep.passed


class TestEnergyAndConservation:
    def test_steady(self):
        traj, g = steady_traj()
        rep = check_energy_inequality(traj)
        assert rep.passed and rep.tolerance == 1e-6
        for r in check_conservation(traj):
            assert r.passed

    def test_decaying_run_energy_nonincreasing(self):
        g = Grid1D(128)
        pr = params(p=8.0, a=2.0)
        rho0 = 1 + 0.3 * np.sin(2 * np.pi * g.x)
        u0 = 0.5 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        traj = PowerLawModel.run(pr, g, rho0, u0, 0.2, snapshot_times=[0.2])
        energies = [r.energy for r in traj.records]
        assert all(b <= a + 1e-12 for a, b in zip(energies[:-1], energies[1:]))
        assert check_energy_inequality(traj).passed


class TestHoff:
    def test_steady_is_zero(self):
        traj, g = steady_traj()
        assert hoff_value(traj) == 0.0

    def test_uniformity_band(self):
        rep = check_hoff_uniformity([1.0, 1.2, 1.4, 1.5, 1.6],
                                    [4, 8, 16, 32, 64])
        assert rep.passed
        rep_bad = check_hoff_uniformity([1.0, 1.0, 1.0, 1.0, 9.0],
                                        [4, 8, 16, 32, 64])
        assert not rep_bad.passed


def _momentum_residual_l2(traj):
    """L2 norm of d/dx sigma - rho udot at snapshot midpoints, sigma the
    stress of the trajectory's 1D model and udot formed by snapshot
    differencing, so it carries O(dx + dt + dt_snap) consistency error."""
    g, stress = traj.model.g, traj.model.stress
    worst = 0.0
    snaps = traj.snapshots
    for k in range(len(snaps) - 1):
        s0, s1 = snaps[k], snaps[k + 1]
        dt = s1.t - s0.t
        if dt <= 0:
            continue
        u_mid = 0.5 * (s0.u + s1.u)
        rho_mid = 0.5 * (s0.rho + s1.rho)
        udot = (s1.u - s0.u) / dt + u_mid * ddx_periodic(u_mid, g)
        sigma = stress(State1D(rho_mid, u_mid, s0.t + 0.5 * dt))
        resid = ddx_periodic(sigma, g) - rho_mid * udot
        worst = max(worst, float(np.sqrt(integrate(resid**2, g))))
    return worst


def test_momentum_residual_consistency():
    # d/dx sigma = rho udot up to O(dx + dt + dt_snap) in L2
    g = Grid1D(256)
    pr = params(p=8.0, a=2.0)
    rho0 = 1 + 0.3 * np.sin(2 * np.pi * g.x)
    u0 = 0.5 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
    T = 0.1
    snaps = [(k + 0.5) * T / 64 for k in range(64)]
    traj = PowerLawModel.run(pr, g, rho0, u0, T, snapshot_times=snaps)
    resid = _momentum_residual_l2(traj)
    dts = [r.dt for r in traj.records if r.dt > 0]
    scale = g.dx + max(dts) + (T / 64)
    # frozen consistency constant from the first verified run
    assert resid <= 60.0 * scale


def test_momentum_residual_singular():
    # the residual takes the singular model's stress eps s / sqrt(1 - s^2)
    # from the trajectory; same data and consistency bound as above
    from thickflow.singular1d import SingularModel, SingularParams

    g = Grid1D(256)
    pr = SingularParams(eps=0.1, a=2.0, theta=0.3)
    rho0 = 1 + 0.3 * np.sin(2 * np.pi * g.x)
    u0 = 0.5 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
    T = 0.1
    snaps = [(k + 0.5) * T / 64 for k in range(64)]
    traj = SingularModel.run(pr, g, rho0, u0, T, snapshot_times=snaps)
    resid = _momentum_residual_l2(traj)
    dts = [r.dt for r in traj.records if r.dt > 0]
    assert resid <= 60.0 * (g.dx + max(dts) + (T / 64))
