import numpy as np
import pytest

from thickflow.banks import SplitMix64, velocity_bank_1d, velocity_bank_2d
from thickflow.grids import Grid1D, ddx_periodic
from thickflow.limits import (constraint_violation_measure, entropy_gap,
                              lagrange_multiplier, restrict_block_average,
                              trajectory_complementarity)
from thickflow.powerlaw1d import PowerLawModel, PowerLawParams
from thickflow.singular1d import SingularModel, SingularParams
from thickflow.trajectory import State1D, Trajectory


class TestViolationMeasure:
    def test_below_threshold(self):
        g = Grid1D(64)
        shear = 0.5 * np.cos(2 * np.pi * g.x)
        assert constraint_violation_measure(np.abs(shear), 0.05) == 0.0

    def test_sawtooth_full_measure(self):
        shear = np.full(128, 1.2)
        assert constraint_violation_measure(shear, 0.1) == 1.0

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(6)
        shear = np.abs(rng.normal(scale=0.8, size=1000))
        etas = [0.01, 0.05, 0.1, 0.3]
        vals = [constraint_violation_measure(shear, e) for e in etas]
        assert all(a >= b for a, b in zip(vals[:-1], vals[1:]))

    def test_eta_positive_required(self):
        with pytest.raises(ValueError):
            constraint_violation_measure(np.ones(4), 0.0)


class TestLagrangeMultiplier:
    def test_zero_stress(self):
        g = Grid1D(32)
        pi, resid = lagrange_multiplier(np.zeros(g.n), np.zeros(g.n), g)
        assert np.all(pi == 0.0)
        assert resid == 0.0

    def test_active_constraint_zero_residual(self):
        # |du/dx| = 1 pointwise: residual vanishes for any tau
        g = Grid1D(64)
        u = g.x.copy()  # du/dx = 1 except at the wrap seam
        tau = np.ones(g.n)
        pi, resid = lagrange_multiplier(u, tau, g)
        # only the two seam cells contribute; their du/dx is 1 - n/2-ish,
        # where max(0, 1 - |du/dx|) = 0 as well since |du/dx| > 1
        assert resid == 0.0
        assert np.all(pi >= 0.0)

    def test_pi_nonnegative(self):
        g = Grid1D(32)
        rng = np.random.default_rng(2)
        pi, _ = lagrange_multiplier(rng.normal(size=g.n),
                                    rng.normal(size=g.n), g)
        assert np.all(pi >= 0.0)


@pytest.mark.parametrize("name", ["powerlaw1d", "singular1d"])
def test_model_stress_and_defect_equal_closed_forms(name):
    g = Grid1D(96)
    rng = np.random.default_rng(12)
    rho = 1.0 + 0.5 * rng.random(g.n)
    u = rng.standard_normal(g.n)
    u *= 0.9 / np.max(np.abs(ddx_periodic(u, g)))  # |du/dx| <= 0.9
    dudx = ddx_periodic(u, g)
    if name == "powerlaw1d":
        pr = PowerLawParams(p=8.0, mu=1.3, a=2.0, gamma=1.4)
        model = PowerLawModel(pr, g)
    else:
        pr = SingularParams(eps=0.05, a=2.0, gamma=1.4)
        model = SingularModel(pr, g)
    tau = model.flux(dudx)
    state = State1D(rho, u, 0.1)
    assert np.array_equal(model.stress(state), tau - pr.a * rho**pr.gamma)
    traj = Trajectory(name, g, pr, [state], [])
    assert trajectory_complementarity(traj) == \
        lagrange_multiplier(u, tau, g)[1]


class TestEntropyGap:
    def test_identical_fields(self):
        g = Grid1D(32)
        rho = 1 + 0.3 * np.sin(2 * np.pi * g.x)
        assert entropy_gap(rho, rho, 2.0, g) == 0.0

    def test_scalar_arithmetic(self):
        # rho_p = 2, rho = 1, gamma = 2 on the unit domain: 4 - 1 - 2 = 1
        g = Grid1D(16)
        val = entropy_gap(np.full(g.n, 2.0), np.ones(g.n), 2.0, g)
        assert val == pytest.approx(1.0)

    def test_nonnegative_by_convexity(self):
        g = Grid1D(64)
        rng = np.random.default_rng(8)
        for gamma in (1.4, 2.0, 3.0):
            a = np.abs(rng.normal(size=g.n)) + 0.1
            b = np.abs(rng.normal(size=g.n)) + 0.1
            assert entropy_gap(a, b, gamma, g) >= 0.0


class TestRestriction:
    def test_block_average(self):
        fine = np.arange(12, dtype=float)
        out = restrict_block_average(fine, 4)
        assert np.allclose(out, [1.5, 5.5, 9.5])
        with pytest.raises(ValueError):
            restrict_block_average(fine, 5)


class TestBanks:
    def test_splitmix_deterministic(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        xs = [a.next_u64() for _ in range(5)]
        ys = [b.next_u64() for _ in range(5)]
        assert xs == ys
        assert SplitMix64(124).next_u64() != xs[0]
        # reference value pins the update constants
        assert SplitMix64(0).next_u64() == 16294208416658607535

    def test_velocity_bank_margin(self):
        bank = velocity_bank_1d(seed=7, T=1.0, size=20, modes=3)
        assert len(bank) == 20
        for v in bank:
            assert v.max_shear() == pytest.approx(0.99, rel=1e-6)

    def test_velocity_bank_2d_margin(self):
        bank = velocity_bank_2d(seed=7, T=1.0, size=5)
        for v in bank:
            assert v.max_sym_grad() == pytest.approx(0.99, rel=1e-2)

    def test_envelope_vanishes_at_endpoints(self):
        bank = velocity_bank_1d(seed=7, T=0.5, size=2)
        x = np.linspace(0, 1, 7)
        for v in bank:
            assert np.max(np.abs(v.eval(0.0, x))) == 0.0
            assert np.max(np.abs(v.eval(0.5, x))) == 0.0
            assert np.max(np.abs(v.eval(0.25, x))) > 0.0


class TestSweepDeterminism:
    def test_identical_configs_identical_reports(self):
        from thickflow.limits import assemble_sweep_report

        g = Grid1D(64)
        rho0 = 1 + 0.2 * np.sin(2 * np.pi * g.x)
        u0 = 0.5 * np.sin(2 * np.pi * g.x) / (2 * np.pi)
        snaps = [0.02, 0.04]

        def build():
            trajs = {p: PowerLawModel.run(
                         PowerLawParams(p=p, a=2.0, gamma=2.0), g, rho0, u0,
                         0.04, snapshot_times=snaps)
                     for p in (4.0, 8.0)}
            return assemble_sweep_report("p", list(trajs), trajs, 2.0)

        r1, r2 = build(), build()
        assert r1.to_dict() == r2.to_dict()

    def test_single_value_degenerate_sweep(self):
        from thickflow.limits import assemble_sweep_report

        g = Grid1D(64)
        traj = PowerLawModel.run(PowerLawParams(p=4.0, a=1.0), g,
                                 np.ones(g.n), np.zeros(g.n), 0.02,
                                 snapshot_times=[0.02])
        rep = assemble_sweep_report("p", [4.0], {4.0: traj}, 2.0)
        assert rep.pairwise_u == []
        assert rep.u_dist["4.0"] == 0.0
