"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line. The reference experiments are
session fixtures (see conftest.py): the strong-forcing 1D p-sweep, its
n = 512 refinement companion, the moderate-forcing 1D sweep sharing
data with the singular-viscosity family, the three singular runs at
constraint-layer-resolving grids, and the 2D sweep.
"""

import numpy as np

import _reference as R
from thickflow.banks import check_bank
from thickflow.diagnostics import (check_density_bounds,
                                   check_stress_max_principle, hoff_value)
from thickflow.limits import (assemble_sweep_report, cross_model_distance,
                              variational_residual_1d, variational_residual_2d)
from thickflow.semistationary2d import check_linf_growth
from thickflow.transport_check import time_mean_values

MASS_TOL = 1e-12
MOMENTUM_TOL = 1e-8
ENERGY_TOL = 1e-6


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _drifts(traj):
    r0 = traj.records[0]
    md = max(abs(r.mass - r0.mass) for r in traj.records) / abs(r0.mass)
    scale = max(abs(r0.momentum), r0.mass)
    pd = max(abs(r.momentum - r0.momentum) for r in traj.records) / scale
    return md, pd


def _energy_excess(traj):
    e0 = traj.records[0].energy
    return max(r.energy + r.dissipation_cum for r in traj.records) / e0 - 1.0


def _all_reference_trajectories(strong_sweep, strong_p8_fine, shared_sweep,
                                singular_runs, sweep_2d):
    out = dict()
    out.update({f"p={p} (strong)": t for p, t in strong_sweep[1].items()})
    out["p=8 n=512"] = strong_p8_fine[1]
    out.update({f"p={p} (shared)": t for p, t in shared_sweep[1].items()})
    out.update({f"eps={e}": t for e, t in singular_runs.items()})
    out.update({f"2D p={p}": t for p, t in sweep_2d[1].items()})
    return out


def test_c01_conservation(strong_sweep, strong_p8_fine, shared_sweep,
                          singular_runs, sweep_2d):
    worst_mass, worst_mom, worst_name = 0.0, 0.0, ""
    for name, traj in _all_reference_trajectories(
            strong_sweep, strong_p8_fine, shared_sweep, singular_runs,
            sweep_2d).items():
        md, pd = _drifts(traj)
        if md > worst_mass:
            worst_mass, worst_name = md, name
        worst_mom = max(worst_mom, pd)
    ok = worst_mass < MASS_TOL and worst_mom < MOMENTUM_TOL
    _report(1, "conservation", ok,
            f"mass drift {worst_mass:.2e} (<{MASS_TOL}), "
            f"momentum drift {worst_mom:.2e} (<{MOMENTUM_TOL})")


def test_c02_energy_inequality(strong_sweep, shared_sweep, singular_runs,
                               sweep_2d):
    worst = -np.inf
    for group in (strong_sweep[1], shared_sweep[1], singular_runs,
                  sweep_2d[1]):
        for traj in group.values():
            worst = max(worst, _energy_excess(traj))
    _report(2, "energy inequality", worst <= ENERGY_TOL,
            f"max (E+D)/E0 - 1 = {worst:.2e} (tol {ENERGY_TOL})")


def test_c03_density_bounds(strong_sweep, strong_p8_fine):
    cfg, trajs = strong_sweep
    c1, c2 = cfg.initial_density_range()
    worst = -np.inf
    for p, traj in trajs.items():
        pr = cfg.build_params("powerlaw1d", p=p)
        rep = check_density_bounds(traj, pr, c1, c2, tol_c=cfg.tol_c)
        assert rep.passed, f"density bounds failed at p={p}"
        worst = max(worst, rep.measured)
    pr8 = cfg.build_params("powerlaw1d", p=8.0)
    coarse = check_density_bounds(trajs[8.0], pr8, c1, c2, tol_c=cfg.tol_c)
    fine = check_density_bounds(strong_p8_fine[1], pr8, c1, c2,
                                tol_c=cfg.tol_c)
    shrink_ok = max(0.0, fine.measured) <= max(0.0, coarse.measured) + 1e-12
    _report(3, "density bounds", shrink_ok,
            f"worst violation {worst:.2e}, refinement excess "
            f"{max(0.0, coarse.measured):.2e} -> {max(0.0, fine.measured):.2e}")


def test_c04_stress_max_principle(strong_sweep, strong_p8_fine):
    cfg, trajs = strong_sweep
    excesses = {}
    for p, traj in trajs.items():
        pr = cfg.build_params("powerlaw1d", p=p)
        rep = check_stress_max_principle(traj, pr, cfg.tol_c,
                                         cfg.paper_initial_conditions)
        assert not rep.skipped  # all sweep members have p >= 1 + gamma
        assert rep.passed, f"stress bound failed at p={p}"
        excesses[p] = max(0.0, rep.measured - rep.bound)
    pr8 = cfg.build_params("powerlaw1d", p=8.0)
    fine = check_stress_max_principle(strong_p8_fine[1], pr8, cfg.tol_c,
                                      cfg.paper_initial_conditions)
    shrink_ok = max(0.0, fine.measured - fine.bound) <= excesses[8.0] + 1e-12
    _report(4, "stress maximum principle", shrink_ok,
            f"max excess over mu: {max(excesses.values()):.2e}, "
            f"refinement ok: {shrink_ok}")


def test_c05_constraint_emergence(strong_sweep_report, sweep_2d):
    rep = strong_sweep_report
    v = [rep.violation[str(p)]["0.05"] for p in rep.param_values]
    strict = all(a > b for a, b in zip(v[:-1], v[1:]))
    small64 = v[-1] < 0.01
    cfg2, trajs2 = sweep_2d
    from thickflow.limits import trajectory_violation_measure

    v2d = trajectory_violation_measure(trajs2[16.0], 0.05)
    ok = strict and small64 and v2d < 0.05
    _report(5, "constraint emergence", ok,
            f"1D measures {['%.4f' % q for q in v]} (strict decrease, "
            f"last < 0.01), 2D p=16: {v2d:.4f} (< 0.05)")


def test_c06_complementarity(strong_sweep_report):
    rep = strong_sweep_report
    c = [rep.complementarity[str(p)] for p in rep.param_values]
    mono = all(a > b for a, b in zip(c[:-1], c[1:]))
    ratio = c[0] / c[-1]
    ok = mono and ratio >= 5.0
    _report(6, "complementarity residual", ok,
            f"residuals {['%.3e' % q for q in c]}, drop {ratio:.1f}x (>= 5)")


def test_c07_entropy_gap(strong_sweep_report):
    gaps = strong_sweep_report.pairwise_entropy
    ok = all(a > b for a, b in zip(gaps[:-1], gaps[1:]))
    _report(7, "density convergence (convexity gap)", ok,
            f"consecutive gaps {['%.2e' % g for g in gaps]}")


def test_c08_cross_model_agreement(shared_sweep, singular_runs):
    cfg, trajs = shared_sweep
    rep = assemble_sweep_report("p", trajs, cfg.eta)
    gap = rep.pairwise_u[-1]
    dist = cross_model_distance(trajs[64.0], singular_runs[1e-3])
    ok = dist <= 5.0 * gap
    _report(8, "cross-model limit agreement", ok,
            f"|u_p64 - u_eps1e-3| = {dist:.5f} <= 5 x {gap:.5f} "
            f"(ratio {dist / gap:.2f})")


def test_c09_hoff_uniformity(strong_sweep):
    cfg, trajs = strong_sweep
    ys = [hoff_value(trajs[p]) for p in R.P_VALUES]
    ok = max(ys) <= 2.0 * float(np.median(ys))
    _report(9, "Hoff functional uniformity", ok,
            f"Y values {['%.3f' % y for y in ys]}, max <= 2 median")


def test_c10_barrier_invariant(singular_runs):
    worst = max(max(r.dudx_maxabs for r in t.records)
                for t in singular_runs.values())
    _report(10, "shear barrier invariant", worst < 1.0,
            f"max |du/dx| over all singular steps = {worst:.10f} (< 1)")


def test_c11_variational_inequalities(strong_sweep, sweep_2d):
    cfg, trajs = strong_sweep
    rep1 = variational_residual_1d(trajs[64.0], check_bank(cfg, "velocity", 1))
    cfg2, trajs2 = sweep_2d
    rep2 = variational_residual_2d(
        trajs2[16.0], check_bank(cfg2, "velocity", 2))
    ok = rep1.passed and rep2.passed
    _report(11, "variational inequalities", ok,
            f"1D min residual {rep1.context['residuals_min']:.4f} "
            f"(tol -{rep1.tolerance:.4f}), 2D min "
            f"{rep2.context['residuals_min']:.4f} (tol -{rep2.tolerance:.4f})")


def test_c12_linf_growth(sweep_2d):
    cfg2, trajs2 = sweep_2d
    rep = check_linf_growth(trajs2[16.0], tol_c=cfg2.tol_c)
    _report(12, "L-infinity density growth", rep.passed,
            f"max ratio to e^t bound = {rep.measured:.5f} "
            f"(tol {rep.tolerance:.3f})")


def test_c13_time_mean_decay(strong_sweep, shared_sweep, sweep_2d):
    results = []
    for (cfg, trajs), nsnap, key in ((strong_sweep, R.SNAPS_1D, 8.0),
                                     (shared_sweep, R.SNAPS_SHARED, 8.0)):
        w = cfg.T / nsnap
        m = time_mean_values(trajs[key], cfg.params["gamma"],
                             [16 * w, 8 * w, 4 * w])
        results.extend(m[i + 1] / m[i] for i in range(2))
    cfg2, trajs2 = sweep_2d
    w2 = cfg2.T / R.SNAPS_2D
    m2 = time_mean_values(trajs2[8.0], cfg2.params["gamma"],
                          [16 * w2, 8 * w2, 4 * w2])
    results.extend(m2[i + 1] / m2[i] for i in range(2))
    ok = all(abs(r - 0.5) <= 0.5 * 0.3 for r in results)
    _report(13, "time-mean continuity decay", ok,
            f"halving ratios {['%.3f' % r for r in results]} "
            "(each within 30% of 1/2)")


def test_c14_oracle_equivalences():
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from thickflow.grids import Grid1D, Grid2D
    from thickflow.powerlaw1d import PowerLawModel, PowerLawParams
    from thickflow.semistationary2d import Stokes2DParams, solve_momentum
    from thickflow.stepper1d import implicit_shear_solve

    # (a) p = 2 implicit solve vs direct cyclic-tridiagonal solve
    g = Grid1D(64)
    pr = PowerLawParams(p=2.0, mu=1.0, a=1.0, gamma=2.0, delta=0.0,
                        newton_tol=1e-14)
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * g.x)
    u_prev = np.cos(2 * np.pi * g.x)
    dt = 5e-3
    model = PowerLawModel(pr, g)
    u, _ = implicit_shear_solve(u_prev, u_prev, rho, dt, g, model.flux,
                                model.dflux, pr.newton_tol,
                                pr.newton_max_iter, potential=model.potential)
    n, dx = g.n, g.dx
    main = rho / dt + 2.0 / dx**2
    A = sp.diags([main, np.full(n - 1, -1.0 / dx**2),
                  np.full(n - 1, -1.0 / dx**2)], [0, 1, -1], format="lil")
    A[0, n - 1] = -1.0 / dx**2
    A[n - 1, 0] = -1.0 / dx**2
    oracle = spla.spsolve(A.tocsr(), rho / dt * u_prev)
    err_1d = float(np.max(np.abs(u - oracle)))

    # (b) 2D p = 2 momentum solve vs the Fourier-diagonal oracle
    g2 = Grid2D(32, 32)
    pr2 = Stokes2DParams(p=2.0, gamma=2.0, delta=0.0, newton_tol=1e-12)
    X, Y = g2.meshgrid()
    rho2 = 1 + 0.5 * np.cos(2 * np.pi * X)
    u2 = solve_momentum(rho2, pr2, g2)
    rg_hat = np.fft.fft2(rho2**pr2.gamma)
    kx = np.fft.fftfreq(g2.nx, d=g2.dx)
    ky = np.fft.fftfreq(g2.ny, d=g2.dy)
    Kx = np.sin(2 * np.pi * kx * g2.dx) / g2.dx
    Ky = np.sin(2 * np.pi * ky * g2.dy) / g2.dy
    u1h = np.zeros_like(rg_hat)
    u2h = np.zeros_like(rg_hat)
    for i in range(g2.nx):
        for j in range(g2.ny):
            K = np.array([Kx[i], Ky[j]])
            k2 = K @ K
            if k2 == 0:
                continue
            Amat = 0.5 * (k2 * np.eye(2) + np.outer(K, K))
            sol = np.linalg.solve(Amat, -1j * K * rg_hat[i, j])
            u1h[i, j], u2h[i, j] = sol
    oracle2 = np.stack([np.real(np.fft.ifft2(u1h)),
                        np.real(np.fft.ifft2(u2h))])
    err_2d = float(np.max(np.abs(u2 - oracle2)))

    # (c) manufactured-solution convergence order over n in {128, 256, 512}
    errs = R.mms_convergence_errors(p=4.0, ns=(128, 256, 512))
    orders = [float(np.log2(a / b)) for a, b in zip(errs[:-1], errs[1:])]

    ok = err_1d < 1e-10 and err_2d < 1e-8 and all(o >= 0.9 for o in orders)
    _report(14, "oracle equivalences", ok,
            f"tridiag {err_1d:.1e} (<1e-10), Fourier {err_2d:.1e} (<1e-8), "
            f"orders {['%.2f' % o for o in orders]} (>= 0.9)")


def test_c15_determinism(tmp_path):
    import os

    from thickflow.cli import main

    cfgp = tmp_path / "det.cfg"
    cfgp.write_text((R.STRONG_1D.replace("n = 256", "n = 64")
                     .replace("T = 0.25", "T = 0.05")
                     .replace("snapshots = 50", "snapshots = 8")))
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(cfgp), "--output", str(o1), "--quiet"]) == 0
    assert main(["run", str(cfgp), "--output", str(o2), "--quiet"]) == 0
    same = all((o1 / f).read_bytes() == (o2 / f).read_bytes()
               for f in sorted(os.listdir(o1)) if f.endswith(".csv"))
    _report(15, "determinism", same,
            "re-run reproduces byte-identical numeric CSVs")
