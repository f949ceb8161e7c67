import numpy as np
import pytest

from thickflow.banks import SplitMix64, velocity_bank_1d, velocity_bank_2d
from thickflow.diagnostics import hoff_value, momentum_residual_l2
from thickflow.grids import (Grid1D, Grid2D, ddx_periodic, div_2d, integrate,
                             sym_grad_2d, sym_grad_norm)
from thickflow.limits import (assemble_sweep_report,
                              constraint_violation_measure,
                              cross_model_distance, entropy_gap,
                              lagrange_multiplier, restrict_block_average,
                              trajectory_complementarity,
                              trajectory_violation_measure,
                              variational_residual_1d, variational_residual_2d)
from thickflow.powerlaw1d import PowerLawModel, PowerLawParams
from thickflow.semistationary2d import (Stokes2DModel, Stokes2DParams, _strain,
                                        _weight)
from thickflow.singular1d import SingularModel, SingularParams
from thickflow.trajectory import (DiagnosticsRecord, State1D, State2D,
                                  Trajectory)

# the etas of a config's [checks] section, as Config defaults them
ETAS = [0.01, 0.05, 0.1]


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
    traj = Trajectory(model, [state], [])
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
        bank = velocity_bank_1d(seed=7, T=0.5, size=2, modes=3)
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
            return assemble_sweep_report("p", trajs, ETAS)

        r1, r2 = build(), build()
        assert r1.to_dict() == r2.to_dict()

    def test_single_value_degenerate_sweep(self):
        from thickflow.limits import assemble_sweep_report

        g = Grid1D(64)
        traj = PowerLawModel.run(PowerLawParams(p=4.0, a=1.0), g,
                                 np.ones(g.n), np.zeros(g.n), 0.02,
                                 snapshot_times=[0.02])
        rep = assemble_sweep_report("p", {4.0: traj}, ETAS)
        assert rep.pairwise_u == []
        assert rep.u_dist["4.0"] == 0.0


# The post-run measures as they were before each run's snapshots came to
# be paired once and each snapshot's shear and multiplier computed once;
# the measures must keep these bits.

def _ref_l2_time_mean(traj_a, traj_b):
    g = traj_a.model.g
    total = 0.0
    count = 0
    for sa, sb in zip(traj_a.snapshots, traj_b.snapshots):
        if sa.t == 0.0:
            continue
        da = sa.u - sb.u
        sq = da**2 if da.ndim <= 2 else np.sum(da**2, axis=0)
        total += integrate(sq, g)
        count += 1
    return float(np.sqrt(total / max(count, 1)))


def _ref_lgamma_time_mean(traj_a, traj_b, gamma):
    g = traj_a.model.g
    total = 0.0
    count = 0
    for sa, sb in zip(traj_a.snapshots, traj_b.snapshots):
        if sa.t == 0.0:
            continue
        total += integrate(np.abs(sa.rho - sb.rho) ** gamma, g)
        count += 1
    return float((total / max(count, 1)) ** (1.0 / gamma))


def _ref_entropy_gap_time_mean(traj_a, traj_ref, gamma):
    g = traj_a.model.g
    vals = [entropy_gap(sa.rho, sb.rho, gamma, g)
            for sa, sb in zip(traj_a.snapshots, traj_ref.snapshots)
            if sa.t > 0.0]
    return float(np.mean(vals)) if vals else 0.0


def _ref_violation(traj, eta):
    g = traj.model.g
    vals = []
    for s in traj.snapshots:
        if s.t == 0.0:
            continue
        if s.rho.ndim == 1:
            mag = np.abs(ddx_periodic(s.u, g))
        else:
            mag = sym_grad_norm(sym_grad_2d(s.u, g))
        vals.append(constraint_violation_measure(mag, eta))
    return float(np.mean(vals)) if vals else 0.0


def _ref_multiplier_defect(traj, snapshot):
    g = traj.model.g
    if snapshot.rho.ndim == 1:
        tau = traj.model.flux(ddx_periodic(snapshot.u, g))
        _, resid = lagrange_multiplier(snapshot.u, tau, g)
        return resid
    D, log_t = _strain(snapshot.u, g, traj.model.params.delta)
    dn = sym_grad_norm(D)
    pi = _weight(log_t, traj.model.params.p) * dn
    return integrate(pi * np.maximum(0.0, 1.0 - dn), g)


def _ref_complementarity(traj):
    vals = [_ref_multiplier_defect(traj, s) for s in traj.snapshots
            if s.t > 0.0]
    return float(np.mean(vals)) if vals else 0.0


def _ref_sweep_report(kind, trajectories, etas):
    values = sorted(trajectories, reverse=(kind == "eps"))
    ref = trajectories[values[-1]]
    gamma = ref.model.params.gamma
    out = {"kind": kind, "param_values": list(values), "u_dist": {},
           "rho_dist": {}, "violation": {}, "complementarity": {},
           "entropy_gap": {}, "hoff": {}, "aux_uniform": {},
           "pairwise_u": [], "pairwise_entropy": [], "cross_distance": None,
           "context": {}}
    for v in values:
        traj = trajectories[v]
        key = str(v)
        out["u_dist"][key] = _ref_l2_time_mean(traj, ref)
        out["rho_dist"][key] = _ref_lgamma_time_mean(traj, ref, gamma)
        out["violation"][key] = {str(eta): _ref_violation(traj, eta)
                                 for eta in etas}
        out["complementarity"][key] = _ref_complementarity(traj)
        out["entropy_gap"][key] = _ref_entropy_gap_time_mean(traj, ref,
                                                             gamma)
        out["hoff"][key] = hoff_value(traj)
        out["aux_uniform"][key] = traj.records[-1].aux_cum
    for va, vb in zip(values[:-1], values[1:]):
        out["pairwise_u"].append(
            _ref_l2_time_mean(trajectories[va], trajectories[vb]))
        out["pairwise_entropy"].append(_ref_entropy_gap_time_mean(
            trajectories[va], trajectories[vb], gamma))
    return out


def _ref_cross_model_distance(traj_p, traj_eps):
    factor = traj_eps.model.g.n // traj_p.model.g.n
    total = 0.0
    count = 0
    for sp, se in zip(traj_p.snapshots, traj_eps.snapshots):
        if sp.t == 0.0:
            continue
        ue = restrict_block_average(se.u, factor)
        total += integrate((sp.u - ue) ** 2, traj_p.model.g)
        count += 1
    return float(np.sqrt(total / max(count, 1)))


def _ref_variational_1d(traj, bank, params):
    """(measured, residuals_min) of the 1D inequality."""
    g = traj.model.g
    x = g.x
    snaps = traj.snapshots
    a, gamma = params.a, params.gamma
    mins = []
    for v in bank:
        total = 0.0
        for k in range(len(snaps) - 1):
            s0, s1 = snaps[k], snaps[k + 1]
            dt = s1.t - s0.t
            if dt <= 0:
                continue
            tm = 0.5 * (s0.t + s1.t)
            u_mid = 0.5 * (s0.u + s1.u)
            rho_mid = 0.5 * (s0.rho + s1.rho)
            udot = (s1.u - s0.u) / dt + u_mid * ddx_periodic(u_mid, g)
            vv = v.eval(tm, x)
            dvv = v.dx(tm, x)
            du = ddx_periodic(u_mid, g)
            integrand = rho_mid * udot * (vv - u_mid) \
                - a * rho_mid**gamma * (dvv - du)
            total += dt * integrate(integrand, g)
        mins.append(total)
    return -min(mins), min(mins)


def _ref_variational_2d(traj, bank, params):
    g = traj.model.g
    X, Y = g.meshgrid()
    snaps = traj.snapshots
    a, gamma = params.a, params.gamma
    mins = []
    for v in bank:
        total = 0.0
        for k in range(len(snaps) - 1):
            s0, s1 = snaps[k], snaps[k + 1]
            dt = s1.t - s0.t
            if dt <= 0:
                continue
            tm = 0.5 * (s0.t + s1.t)
            rho_mid = 0.5 * (s0.rho + s1.rho)
            u_mid = 0.5 * (s0.u + s1.u)
            divu = div_2d(u_mid, g)
            divv = v.div(tm, X, Y)
            total += dt * integrate(a * rho_mid**gamma * (divu - divv), g)
        mins.append(total)
    return -min(mins), min(mins)


def _ref_momentum_residual_l2(traj):
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


# 11 positive times, one repeated (a pair dt = 0 apart): the snapshot
# means run over 8 or more values, where np.mean's pairwise sum and a
# running sum differ
TIMES = [0.0, 0.01, 0.02, 0.03, 0.03, 0.045, 0.05, 0.06, 0.07, 0.08, 0.09,
         0.1]


def _random_trajectory(model, params, g, seed):
    """Random snapshots on TIMES of a run of the model class, their shear
    below 0.95 for the singular model and below 1.6 otherwise, and
    random records."""
    rng = np.random.default_rng(seed)
    cap = 0.95 if model is SingularModel else 1.6
    snaps = []
    for t in TIMES:
        if model.ndim == 2:
            u = rng.standard_normal((2, g.nx, g.ny))
            u *= cap * rng.random() / np.max(sym_grad_norm(sym_grad_2d(u, g)))
            snaps.append(State2D(0.5 + rng.random((g.nx, g.ny)), u, t))
        else:
            u = rng.standard_normal(g.n)
            u *= cap * rng.random() / np.max(np.abs(ddx_periodic(u, g)))
            snaps.append(State1D(0.5 + rng.random(g.n), u, t))
    records = [DiagnosticsRecord(t, 0.01, *rng.random(9),
                                 lpnorm_term=rng.random(),
                                 aux_cum=rng.random())
               for t in (0.0, TIMES[-1])]
    return Trajectory(model(params, g), snaps, records)


def _sweep_trajectories(kind):
    """{value: Trajectory} of a random sweep of kind p (1D), eps or 2d."""
    if kind == "p":
        return {p: _random_trajectory(PowerLawModel, PowerLawParams(
                    p=p, a=2.0, gamma=1.4), Grid1D(48), int(p))
                for p in (4.0, 8.0, 16.0, 64.0)}
    if kind == "eps":
        return {eps: _random_trajectory(SingularModel, SingularParams(
                    eps=eps, a=2.0, gamma=1.4), Grid1D(48), int(1 / eps))
                for eps in (0.4, 0.3, 0.25)}
    return {p: _random_trajectory(Stokes2DModel, Stokes2DParams(
                p=p, gamma=2.0), Grid2D(12, 10), int(p))
            for p in (4.0, 8.0)}


@pytest.mark.parametrize("kind", ["p", "eps", "2d"])
def test_sweep_measures_keep_the_former_bits(kind):
    trajs = _sweep_trajectories(kind)
    etas = [0.01, 0.05, 0.1, 0.3]
    sweep_kind = "eps" if kind == "eps" else "p"
    rep = assemble_sweep_report(sweep_kind, trajs, etas=etas).to_dict()
    ref = _ref_sweep_report(sweep_kind, trajs, etas)
    assert rep.keys() == ref.keys()
    assert rep == ref
    if kind != "eps":
        assert len({v for d in rep["violation"].values()
                    for v in d.values()}) > 3
    for traj in trajs.values():
        assert trajectory_complementarity(traj) == _ref_complementarity(traj)
        for eta in etas:
            assert trajectory_violation_measure(traj, eta) == \
                _ref_violation(traj, eta)


def test_sweep_report_dict_has_the_json_keys():
    trajs = _sweep_trajectories("p")
    rep = assemble_sweep_report("p", trajs, ETAS)
    assert list(rep.to_dict()) == [
        "kind", "param_values", "u_dist", "rho_dist", "violation",
        "complementarity", "entropy_gap", "hoff", "aux_uniform",
        "pairwise_u", "pairwise_entropy", "cross_distance", "context"]


def test_cross_distance_keeps_the_former_bits():
    traj_p = _random_trajectory(PowerLawModel, PowerLawParams(p=8.0),
                                Grid1D(24), 3)
    traj_eps = _random_trajectory(SingularModel, SingularParams(eps=0.3),
                                  Grid1D(72), 4)
    assert cross_model_distance(traj_p, traj_eps) == \
        _ref_cross_model_distance(traj_p, traj_eps)
    traj_eps.snapshots[3].t += 1e-6
    with pytest.raises(ValueError, match="not aligned"):
        cross_model_distance(traj_p, traj_eps)


@pytest.mark.parametrize("kind", ["p", "eps"])
def test_1d_midpoint_residuals_keep_the_former_bits(kind):
    bank = velocity_bank_1d(seed=5, T=TIMES[-1], size=6, modes=3)
    for traj in _sweep_trajectories(kind).values():
        rep = variational_residual_1d(traj, bank)
        measured, rmin = _ref_variational_1d(traj, bank, traj.model.params)
        assert (rep.measured, rep.context["residuals_min"]) == \
            (measured, rmin)
        assert rep.context == {"bank_size": 6, "residuals_min": rmin,
                               "E0": traj.records[0].energy}
        assert momentum_residual_l2(traj) == _ref_momentum_residual_l2(traj)


def test_2d_variational_residual_keeps_the_former_bits():
    bank = velocity_bank_2d(seed=5, T=TIMES[-1], size=4)
    for traj in _sweep_trajectories("2d").values():
        rep = variational_residual_2d(traj, bank)
        measured, rmin = _ref_variational_2d(traj, bank, traj.model.params)
        assert rep.check == "variational_inequality_2d"
        assert (rep.measured, rep.context) == (measured, {
            "bank_size": 4, "residuals_min": rmin,
            "E0": traj.records[0].energy})
