"""Acceptance criteria C1–C13, each defined once.

A criterion is a function of the session fixtures its parameters name
(conftest.py). Its Result holds what it measured, bound, tolerance, pass
and the detail of its [criterion NN] line; test_acceptance.py asserts
it, and _measure_criteria.py prints it. C1, C2, C9 and C10 measure with
the checks of thickflow.diagnostics that every run applies, compared at
the gate's own bounds.
"""

from dataclasses import dataclass

import _reference as R
from thickflow.banks import check_bank
from thickflow.diagnostics import (check_barrier_invariant, check_conservation,
                                   check_density_bounds,
                                   check_energy_inequality,
                                   check_hoff_uniformity,
                                   check_stress_max_principle, hoff_value)
from thickflow.limits import (assemble_sweep_report, cross_model_distance,
                              trajectory_violation_measure,
                              variational_residual_1d, variational_residual_2d)
from thickflow.semistationary2d import check_linf_growth
from thickflow.transport_check import time_mean_values

MASS_TOL = 1e-12
MOMENTUM_TOL = 1e-8
ENERGY_TOL = 1e-6


@dataclass
class Result:
    """measured, bound and tolerance are numbers or tuples of them, as
    the detail compares them; an ordering (a strict decrease) has no
    bound."""

    num: int
    name: str
    ok: bool
    detail: str
    measured: object = None
    bound: object = None
    tolerance: object = 0.0


def _decreasing(xs):
    return all(a > b for a, b in zip(xs[:-1], xs[1:]))


def c01_conservation(strong_sweep, strong_p8_fine, shared_sweep,
                     singular_runs, sweep_2d):
    trajs = [*strong_sweep[1].values(), strong_p8_fine[1],
             *shared_sweep[1].values(), *singular_runs.values(),
             *sweep_2d[1].values()]
    drifts = [[rep.measured for rep in check_conservation(t)] for t in trajs]
    mass, mom = (max(d) for d in zip(*drifts))
    return Result(1, "conservation", mass < MASS_TOL and mom < MOMENTUM_TOL,
                  f"mass drift {mass:.2e} (<{MASS_TOL}), "
                  f"momentum drift {mom:.2e} (<{MOMENTUM_TOL})",
                  (mass, mom), (MASS_TOL, MOMENTUM_TOL))


def c02_energy_inequality(strong_sweep, shared_sweep, singular_runs,
                          sweep_2d):
    reps = [check_energy_inequality(t)
            for group in (strong_sweep[1], shared_sweep[1], singular_runs,
                          sweep_2d[1]) for t in group.values()]
    worst = max(rep.measured / rep.bound - 1.0 for rep in reps)
    return Result(2, "energy inequality", worst <= ENERGY_TOL,
                  f"max (E+D)/E0 - 1 = {worst:.2e} (tol {ENERGY_TOL})",
                  worst, 0.0, ENERGY_TOL)


def c03_density_bounds(strong_sweep, strong_p8_fine):
    cfg, trajs = strong_sweep
    c1, c2 = cfg.initial_density_range()

    def check(traj):
        return check_density_bounds(traj, traj.model.params, c1, c2,
                                    tol_c=cfg.tol_c)

    reps = {p: check(traj) for p, traj in trajs.items()}
    worst = max(rep.measured for rep in reps.values())
    # the signed violations of the p = 8 runs at n = 256 and 512; the
    # fine one may not exceed the coarse one clipped at 0
    coarse, fine = reps[8.0].measured, check(strong_p8_fine[1]).measured
    bound = max(0.0, coarse)
    ok = all(rep.passed for rep in reps.values()) and fine <= bound + 1e-12
    return Result(3, "density bounds", ok,
                  f"worst violation {worst:.2e}, refinement excess "
                  f"{bound:.2e} -> {max(0.0, fine):.2e} (signed "
                  f"{coarse:.4e} -> {fine:.4e})", fine, bound, 1e-12)


def c04_stress_max_principle(strong_sweep, strong_p8_fine):
    cfg, trajs = strong_sweep

    def excess(traj):
        """The run's report and its signed excess over the bound."""
        rep = check_stress_max_principle(traj, traj.model.params, cfg.tol_c,
                                         cfg.paper_initial_conditions)
        return rep, rep.measured - rep.bound

    reps = {p: excess(traj) for p, traj in trajs.items()}
    # every sweep member has p >= 1 + gamma: none may be skipped
    passed = all(rep.passed and not rep.skipped for rep, _ in reps.values())
    # the signed excesses of the p = 8 runs at n = 256 and 512; the
    # fine one may not exceed the coarse one clipped at 0
    coarse, fine = reps[8.0][1], excess(strong_p8_fine[1])[1]
    bound = max(0.0, coarse)
    shrink_ok = fine <= bound + 1e-12
    worst = max(max(0.0, e) for _, e in reps.values())
    return Result(4, "stress maximum principle", passed and shrink_ok,
                  f"max excess over mu: {worst:.2e}, refinement ok: "
                  f"{shrink_ok} (signed {coarse:.4e} -> {fine:.4e})",
                  fine, bound, 1e-12)


def violation_2d(sweep_2d):
    """C5's 2D measure: the p = 16 run's violation measure at eta = 0.05."""
    return trajectory_violation_measure(sweep_2d[1][16.0], 0.05)


def c05_constraint_emergence(strong_sweep_report, sweep_2d):
    rep = strong_sweep_report
    v = [rep.violation[str(p)]["0.05"] for p in rep.param_values]
    v2d = violation_2d(sweep_2d)
    ok = _decreasing(v) and v[-1] < 0.01 and v2d < 0.05
    return Result(5, "constraint emergence", ok,
                  f"1D measures {['%.4f' % q for q in v]} (strict decrease, "
                  f"last < 0.01), 2D p=16: {v2d:.4f} (< 0.05)",
                  (v[-1], v2d), (0.01, 0.05))


def c06_complementarity(strong_sweep_report):
    rep = strong_sweep_report
    c = [rep.complementarity[str(p)] for p in rep.param_values]
    ratio = c[0] / c[-1]
    return Result(6, "complementarity residual",
                  _decreasing(c) and ratio >= 5.0,
                  f"residuals {['%.3e' % q for q in c]}, drop {ratio:.1f}x "
                  "(>= 5)", ratio, 5.0)


def c07_entropy_gap(strong_sweep_report):
    gaps = strong_sweep_report.pairwise_entropy
    return Result(7, "density convergence (convexity gap)", _decreasing(gaps),
                  f"consecutive gaps {['%.2e' % g for g in gaps]}",
                  tuple(gaps))


def c08_cross_model_agreement(shared_sweep, singular_runs):
    cfg, trajs = shared_sweep
    gap = assemble_sweep_report("p", trajs, cfg.eta).pairwise_u[-1]
    dist = cross_model_distance(trajs[64.0], singular_runs[1e-3])
    return Result(8, "cross-model limit agreement", dist <= 5.0 * gap,
                  f"|u_p64 - u_eps1e-3| = {dist:.5f} <= 5 x {gap:.5f} "
                  f"(ratio {dist / gap:.2f})", dist, 5.0 * gap)


def c09_hoff_uniformity(strong_sweep):
    rep = check_hoff_uniformity(
        [hoff_value(strong_sweep[1][p]) for p in R.P_VALUES], R.P_VALUES)
    ys = rep.context["values"].values()
    return Result(9, "Hoff functional uniformity", rep.measured <= rep.bound,
                  f"Y values {['%.3f' % y for y in ys]}, max <= 2 median",
                  rep.measured, rep.bound)


def c10_barrier_invariant(singular_runs):
    worst = max(check_barrier_invariant(t).measured
                for t in singular_runs.values())
    return Result(10, "shear barrier invariant", worst < 1.0,
                  f"max |du/dx| over all singular steps = {worst:.10f} (< 1)",
                  worst, 1.0)


def residual_2d(sweep_2d):
    """C11's 2D report: the p = 16 run against its 2D velocity bank."""
    cfg, trajs = sweep_2d
    return variational_residual_2d(trajs[16.0], check_bank(cfg, "velocity", 2))


def c11_variational_inequalities(strong_sweep, sweep_2d):
    cfg, trajs = strong_sweep
    rep1 = variational_residual_1d(trajs[64.0], check_bank(cfg, "velocity", 1))
    rep2 = residual_2d(sweep_2d)
    mins = tuple(rep.context["residuals_min"] for rep in (rep1, rep2))
    return Result(11, "variational inequalities", rep1.passed and rep2.passed,
                  f"1D min residual {mins[0]:.4f} (tol -{rep1.tolerance:.4f})"
                  f", 2D min {mins[1]:.4f} (tol -{rep2.tolerance:.4f})",
                  mins, (0.0, 0.0), (-rep1.tolerance, -rep2.tolerance))


def c12_linf_growth(sweep_2d):
    cfg, trajs = sweep_2d
    rep = check_linf_growth(trajs[16.0], tol_c=cfg.tol_c)
    return Result(12, "L-infinity density growth", rep.passed,
                  f"max ratio to e^t bound = {rep.measured:.5f} "
                  f"(tol {rep.tolerance:.3f})",
                  rep.measured, rep.bound, rep.tolerance)


def c13_time_mean_decay(strong_sweep, shared_sweep, sweep_2d):
    ratios = []
    for (cfg, trajs), nsnap in ((strong_sweep, R.SNAPS_1D),
                                (shared_sweep, R.SNAPS_SHARED),
                                (sweep_2d, R.SNAPS_2D)):
        w = cfg.T / nsnap
        m = time_mean_values(trajs[8.0], cfg.params["gamma"],
                             [16 * w, 8 * w, 4 * w])
        ratios += [m[1] / m[0], m[2] / m[1]]
    ok = all(abs(r - 0.5) <= 0.5 * 0.3 for r in ratios)
    return Result(13, "time-mean continuity decay", ok,
                  f"halving ratios {['%.3f' % r for r in ratios]} "
                  "(each within 30% of 1/2)", tuple(ratios), 0.5, 0.5 * 0.3)


CRITERIA = (c01_conservation, c02_energy_inequality, c03_density_bounds,
            c04_stress_max_principle, c05_constraint_emergence,
            c06_complementarity, c07_entropy_gap, c08_cross_model_agreement,
            c09_hoff_uniformity, c10_barrier_invariant,
            c11_variational_inequalities, c12_linf_growth,
            c13_time_mean_decay)
