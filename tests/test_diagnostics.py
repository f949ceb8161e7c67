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
                                   load_reports, momentum_residual_l2,
                                   write_reports)
from thickflow.grids import Grid1D
from thickflow.powerlaw1d import PowerLawModel, PowerLawParams, run
from thickflow.trajectory import State1D


def params(**kw):
    base = dict(p=4.0, mu=1.0, a=1.0, gamma=2.0)
    base.update(kw)
    return PowerLawParams(**base)


def steady_traj(n=32, T=0.05):
    g = Grid1D(n)
    return run(params(p=4.0), g, np.ones(n), np.zeros(n), T,
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
        rep = check_stress_max_principle(traj, params(p=4.0))
        assert rep.passed and not rep.skipped

    def test_precondition_skip(self):
        traj, g = steady_traj()
        rep = check_stress_max_principle(traj, params(p=2.5, gamma=2.0))
        assert rep.skipped
        assert rep.passed  # skips are not failures

    def test_bound_is_mu_under_compliant_data(self):
        traj, g = steady_traj()
        rep = check_stress_max_principle(traj, params(p=4.0, mu=1.0))
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
        rep = check_density_bounds(traj, params(p=4.0), 1.0, 1.0)
        assert rep.passed


class TestEnergyAndConservation:
    def test_steady(self):
        traj, g = steady_traj()
        rep = check_energy_inequality(traj)
        assert rep.passed
        for r in check_conservation(traj):
            assert r.passed

    def test_decaying_run_energy_nonincreasing(self):
        g = Grid1D(128)
        pr = params(p=8.0, a=2.0)
        rho0 = 1 + 0.3 * np.sin(2 * np.pi * g.x)
        u0 = 0.5 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        traj = run(pr, g, rho0, u0, 0.2, snapshot_times=[0.2])
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


def test_momentum_residual_consistency():
    # d/dx sigma = rho udot up to O(dx + dt + dt_snap) in L2
    g = Grid1D(256)
    pr = params(p=8.0, a=2.0)
    rho0 = 1 + 0.3 * np.sin(2 * np.pi * g.x)
    u0 = 0.5 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
    T = 0.1
    snaps = [(k + 0.5) * T / 64 for k in range(64)]
    traj = run(pr, g, rho0, u0, T, snapshot_times=snaps)
    resid = momentum_residual_l2(traj, pr)
    dts = [r.dt for r in traj.records if r.dt > 0]
    scale = g.dx + max(dts) + (T / 64)
    # frozen consistency constant from the first verified run
    assert resid <= 60.0 * scale
