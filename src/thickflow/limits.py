"""Parameter sweeps toward the maximum-shear-rate limit.

Given the runs of the p -> infinity (power-law) or eps -> 0 (singular
viscosity) family on shared initial data, which `thickflow sweep`
makes, measures convergence toward the constrained limit system,
extracts the Lagrange multiplier proxy pi = |tau| and its
complementarity defect, and evaluates the variational inequalities on
seeded test banks.

The finest-parameter run stands in for the limit object (the limit has
no closed form), so all distances are Cauchy-style. Snapshots are
aligned on the shared output-time grid fixed in the config; nothing is
interpolated. Runs of a sweep share one grid; the cross-model
comparison restricts the finer grid by block averaging.
"""

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .banks import sample_bank
from .config import MODELS
from .grids import ddx_periodic, div_2d, integrate
from .trajectory import snapshot_midpoints


def constraint_violation_measure(shear_mag, eta):
    """Fraction of cells where the shear magnitude exceeds 1 + eta."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return float(np.mean(np.asarray(shear_mag) > 1.0 + eta))


def _mean(vals):
    """np.mean of vals as a float; 0.0 for none."""
    return float(np.mean(vals)) if vals else 0.0


def _complementarity_defect(pi, shear, g):
    """int pi max(0, 1 - |shear|); the positive part avoids rewarding the
    slight constraint violations of finite-p runs."""
    return integrate(pi * np.maximum(0.0, 1.0 - shear), g)


def _multiplier_measures(traj, etas):
    """Snapshot means of the violation measure at each eta (keyed by
    str(eta)) and of the complementarity defect, from one evaluation of
    the |shear| and pi = |tau| of each positive-time snapshot."""
    model = MODELS[traj.model](traj.params, traj.grid)
    rows = [[constraint_violation_measure(shear, eta) for eta in etas]
            + [_complementarity_defect(pi, shear, traj.grid)]
            for shear, pi in (model.shear_and_multiplier(s.u)
                              for s in traj.snapshots if s.t != 0.0)]
    means = [_mean([row[i] for row in rows]) for i in range(len(etas) + 1)]
    return dict(zip(map(str, etas), means)), means[-1]


def trajectory_violation_measure(traj, eta):
    """Space-time fraction over the snapshot set (t = 0 excluded)."""
    return _multiplier_measures(traj, [eta])[0][str(eta)]


def lagrange_multiplier(u, tau, g):
    """Multiplier proxy pi = |tau| and the complementarity defect
    int pi max(0, 1 - |du/dx|)."""
    pi = np.abs(tau)
    return pi, _complementarity_defect(pi, np.abs(ddx_periodic(u, g)), g)


def trajectory_complementarity(traj):
    """Snapshot-mean complementarity defect of pi = |tau|."""
    return _multiplier_measures(traj, [])[1]


def entropy_gap(rho_coarse, rho_ref, gamma, g):
    """Convexity gap int [r_p^g - r^g - g r^(g-1) (r_p - r)] dx >= 0."""
    rp = np.asarray(rho_coarse, dtype=float)
    r = np.asarray(rho_ref, dtype=float)
    return integrate(rp**gamma - r**gamma - gamma * r ** (gamma - 1.0) * (rp - r), g)


def _snapshot_pairs(traj_a, traj_b):
    """The two runs' positive-time snapshots, paired by index; raises
    ValueError where the paired times differ."""
    pairs = [(sa, sb) for sa, sb in zip(traj_a.snapshots, traj_b.snapshots)
             if sa.t > 0.0]
    if any(abs(sa.t - sb.t) > 1e-9 for sa, sb in pairs):
        raise ValueError("snapshot times are not aligned")
    return pairs


def _l2_time_mean(pairs, g, restrict=lambda u: u):
    """sqrt of the pair-mean squared L2 distance of the velocity, the
    second run's velocity restricted to the grid g first."""
    total = 0.0
    for sa, sb in pairs:
        da = sa.u - restrict(sb.u)
        sq = da**2 if da.ndim <= 2 else np.sum(da**2, axis=0)
        total += integrate(sq, g)
    return float(np.sqrt(total / max(len(pairs), 1)))


def _lgamma_time_mean(pairs, gamma, g):
    total = 0.0
    for sa, sb in pairs:
        total += integrate(np.abs(sa.rho - sb.rho) ** gamma, g)
    return float((total / max(len(pairs), 1)) ** (1.0 / gamma))


def _entropy_gap_time_mean(pairs, gamma, g):
    return _mean([entropy_gap(sa.rho, sb.rho, gamma, g) for sa, sb in pairs])


@dataclass
class SweepReport:
    kind: str                       # "p" | "eps" | "cross"
    param_values: list
    u_dist: dict = field(default_factory=dict)
    rho_dist: dict = field(default_factory=dict)
    violation: dict = field(default_factory=dict)   # value -> {eta: measure}
    complementarity: dict = field(default_factory=dict)
    entropy_gap: dict = field(default_factory=dict)
    hoff: dict = field(default_factory=dict)
    aux_uniform: dict = field(default_factory=dict)
    pairwise_u: list = field(default_factory=list)  # consecutive Cauchy gaps
    pairwise_entropy: list = field(default_factory=list)
    cross_distance: float | None = None
    context: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    def write_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)
            f.write("\n")

    def write_csv(self, path):
        """One row per parameter value; a violation column viol_<eta>
        (eta in %g without its dot) per eta the report was built with."""
        from .trajectory import FMT

        etas = self.violation[str(self.param_values[0])]
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["param", "u_dist", "rho_dist",
                        *("viol_" + f"{float(eta):g}".replace(".", "")
                          for eta in etas),
                        "compl_resid", "entropy_gap"])
            for v in self.param_values:
                key = str(v)
                w.writerow([FMT % x for x in (
                    v, self.u_dist[key], self.rho_dist[key],
                    *self.violation[key].values(), self.complementarity[key],
                    self.entropy_gap[key])])


def assemble_sweep_report(kind, trajectories, etas):
    """Deterministic sequential reduction over sorted parameter values.

    For kind == "p" the finest value is the largest p; for "eps" the
    smallest eps. trajectories maps value -> Trajectory; the pressure
    exponent gamma of the distances is the finest run's, and the
    violation measure is taken at each of etas.
    """
    from .diagnostics import hoff_value

    values = sorted(trajectories, reverse=(kind == "eps"))
    ref = trajectories[values[-1]]
    gamma = ref.params.gamma
    rep = SweepReport(kind=kind, param_values=list(values))
    for v in values:
        traj = trajectories[v]
        key = str(v)
        pairs = _snapshot_pairs(traj, ref)
        rep.u_dist[key] = _l2_time_mean(pairs, traj.grid)
        rep.rho_dist[key] = _lgamma_time_mean(pairs, gamma, traj.grid)
        rep.violation[key], rep.complementarity[key] = \
            _multiplier_measures(traj, etas)
        rep.entropy_gap[key] = _entropy_gap_time_mean(pairs, gamma, traj.grid)
        rep.hoff[key] = hoff_value(traj)
        rep.aux_uniform[key] = traj.records[-1].aux_cum
    for va, vb in zip(values[:-1], values[1:]):
        traj = trajectories[va]
        pairs = _snapshot_pairs(traj, trajectories[vb])
        rep.pairwise_u.append(_l2_time_mean(pairs, traj.grid))
        rep.pairwise_entropy.append(
            _entropy_gap_time_mean(pairs, gamma, traj.grid))
    return rep


def restrict_block_average(field, factor):
    """Restrict a fine 1D field to a coarse grid by block averaging."""
    f = np.asarray(field)
    if f.size % factor:
        raise ValueError("fine grid size must be a multiple of the factor")
    return f.reshape(-1, factor).mean(axis=1)


def cross_model_distance(traj_p, traj_eps):
    """Snapshot-mean L2 distance between the power-law and singular
    velocity fields; the finer run is block-averaged onto the coarser
    grid first."""
    g_p, g_e = traj_p.grid, traj_eps.grid
    if g_e.n % g_p.n:
        raise ValueError("grids are not nested")
    factor = g_e.n // g_p.n
    return _l2_time_mean(_snapshot_pairs(traj_p, traj_eps), g_p,
                         lambda u: restrict_block_average(u, factor))


def _variational_report(check, traj, mins):
    """The report of the minimum over the bank, violated when negative
    by more than 1e-3 of the initial energy."""
    from .diagnostics import CheckReport

    e0 = traj.records[0].energy
    return CheckReport.build(
        check, bound=0.0, measured=-min(mins), tolerance=1e-3 * e0,
        context={"bank_size": len(mins), "residuals_min": min(mins),
                 "E0": e0})


def variational_residual_1d(traj, bank):
    """Theorem-form variational inequality on a 1D trajectory.

    For each admissible test field v (|dv/dx| <= 0.99) evaluates

      int int [rho udot (v - u) - a rho^gamma d/dx(v - u)] dx dt

    by midpoint quadrature at snapshot half-levels, with udot formed by
    snapshot differencing; the bank is sampled on the grid once, and the
    time enters through its envelope. Reports the minimum over the bank;
    the exact solution makes every entry >= 0 up to consistency error.
    """
    g = traj.grid
    a, gamma = traj.params.a, traj.params.gamma
    mids = [(dt, tm, u_mid, ddx_periodic(u_mid, g), rho_mid * udot,
             a * rho_mid**gamma)
            for dt, tm, rho_mid, u_mid, udot in snapshot_midpoints(traj)]
    mins = []
    for v in sample_bank(bank, g):
        total = 0.0
        for dt, tm, u_mid, du, rho_udot, pressure in mids:
            integrand = rho_udot * (v.eval(tm) - u_mid) \
                - pressure * (v.grad(tm)[0] - du)
            total += dt * integrate(integrand, g)
        mins.append(total)
    return _variational_report("variational_inequality_1d", traj, mins)


def variational_residual_2d(traj, bank):
    """Limit-form inequality int int rho^gamma (div u - div v) >= 0
    for admissible v (|Dv| <= 0.99), on a 2D trajectory."""
    g, params = traj.grid, traj.params
    X, Y = g.meshgrid()
    mids = [(dt, tm, params.a * rho_mid**params.gamma, div_2d(u_mid, g))
            for dt, tm, rho_mid, u_mid, _ in snapshot_midpoints(traj)]
    mins = []
    for v in bank:
        total = 0.0
        for dt, tm, pressure, divu in mids:
            total += dt * integrate(pressure * (divu - v.div(tm, X, Y)), g)
        mins.append(total)
    return _variational_report("variational_inequality_2d", traj, mins)
