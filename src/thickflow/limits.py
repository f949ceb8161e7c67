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
from dataclasses import dataclass, field

import numpy as np

from .config import MODELS
from .grids import ddx_periodic, div_2d, integrate, sym_grad_2d, sym_grad_norm


def constraint_violation_measure(shear_mag, eta):
    """Fraction of cells where the shear magnitude exceeds 1 + eta."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return float(np.mean(np.asarray(shear_mag) > 1.0 + eta))


def trajectory_violation_measure(traj, eta):
    """Space-time fraction over the snapshot set (t = 0 excluded)."""
    g = traj.grid
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


def lagrange_multiplier(u, tau, g):
    """Multiplier proxy pi = |tau| and the complementarity defect.

    The defect integrates pi * max(0, 1 - |du/dx|); the positive part
    avoids rewarding the slight constraint violations of finite-p runs.
    """
    pi = np.abs(tau)
    dudx = ddx_periodic(u, g)
    residual = integrate(pi * np.maximum(0.0, 1.0 - np.abs(dudx)), g)
    return pi, float(residual)


def entropy_gap(rho_coarse, rho_ref, gamma, g):
    """Convexity gap int [r_p^g - r^g - g r^(g-1) (r_p - r)] dx >= 0."""
    rp = np.asarray(rho_coarse, dtype=float)
    r = np.asarray(rho_ref, dtype=float)
    return integrate(rp**gamma - r**gamma - gamma * r ** (gamma - 1.0) * (rp - r), g)


def _l2_time_mean(traj_a, traj_b):
    """sqrt of the snapshot-mean squared L2 distance of the velocity."""
    g = traj_a.grid
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


def _lgamma_time_mean(traj_a, traj_b, gamma):
    g = traj_a.grid
    total = 0.0
    count = 0
    for sa, sb in zip(traj_a.snapshots, traj_b.snapshots):
        if sa.t == 0.0:
            continue
        total += integrate(np.abs(sa.rho - sb.rho) ** gamma, g)
        count += 1
    return float((total / max(count, 1)) ** (1.0 / gamma))


def _entropy_gap_time_mean(traj_a, traj_ref, gamma):
    g = traj_a.grid
    vals = [entropy_gap(sa.rho, sb.rho, gamma, g)
            for sa, sb in zip(traj_a.snapshots, traj_ref.snapshots)
            if sa.t > 0.0]
    return float(np.mean(vals)) if vals else 0.0


def _multiplier_defect(traj, snapshot):
    """Complementarity defect int pi max(0, 1 - shear) of one snapshot,
    with pi = |tau| the multiplier proxy, for any of the three models."""
    g = traj.grid
    model_1d = MODELS[traj.model][1]
    if model_1d is not None:
        tau = model_1d(traj.params, g).flux(ddx_periodic(snapshot.u, g))
        _, resid = lagrange_multiplier(snapshot.u, tau, g)
        return resid
    from .semistationary2d import _strain, _weight

    D, log_t = _strain(snapshot.u, g, traj.params.delta)
    dn = sym_grad_norm(D)
    pi = _weight(log_t, traj.params.p) * dn
    return integrate(pi * np.maximum(0.0, 1.0 - dn), g)


def trajectory_complementarity(traj):
    """Snapshot-mean complementarity defect of pi = |tau|."""
    vals = [_multiplier_defect(traj, s) for s in traj.snapshots if s.t > 0.0]
    return float(np.mean(vals)) if vals else 0.0


@dataclass
class SweepReport:
    kind: str                       # "p" | "eps" | "cross"
    param_values: list
    u_dist: dict = field(default_factory=dict)
    rho_dist: dict = field(default_factory=dict)
    violation: dict = field(default_factory=dict)   # value -> {eta: measure}
    complementarity: dict = field(default_factory=dict)
    entropy: dict = field(default_factory=dict)
    hoff: dict = field(default_factory=dict)
    aux_uniform: dict = field(default_factory=dict)
    pairwise_u: list = field(default_factory=list)  # consecutive Cauchy gaps
    pairwise_entropy: list = field(default_factory=list)
    cross_distance: float | None = None
    context: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "kind": self.kind,
            "param_values": list(self.param_values),
            "u_dist": self.u_dist,
            "rho_dist": self.rho_dist,
            "violation": self.violation,
            "complementarity": self.complementarity,
            "entropy_gap": self.entropy,
            "hoff": self.hoff,
            "aux_uniform": self.aux_uniform,
            "pairwise_u": self.pairwise_u,
            "pairwise_entropy": self.pairwise_entropy,
            "cross_distance": self.cross_distance,
            "context": self.context,
        }

    def write_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)
            f.write("\n")

    def write_csv(self, path):
        from .trajectory import FMT

        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["param", "u_dist", "rho_dist", "viol_001", "viol_005",
                        "viol_01", "compl_resid", "entropy_gap"])
            for v in self.param_values:
                key = str(v)
                viol = self.violation[key]
                w.writerow([FMT % v,
                            FMT % self.u_dist[key],
                            FMT % self.rho_dist[key],
                            FMT % viol["0.01"],
                            FMT % viol["0.05"],
                            FMT % viol["0.1"],
                            FMT % self.complementarity[key],
                            FMT % self.entropy[key]])


def assemble_sweep_report(kind, values, trajectories, gamma,
                          etas=(0.01, 0.05, 0.1)):
    """Deterministic sequential reduction over sorted parameter values.

    For kind == "p" the finest value is the largest p; for "eps" the
    smallest eps. trajectories maps value -> Trajectory.
    """
    from .diagnostics import hoff_value

    values = sorted(values, reverse=(kind == "eps"))
    finest = values[-1]
    ref = trajectories[finest]
    rep = SweepReport(kind=kind, param_values=list(values))
    for v in values:
        traj = trajectories[v]
        key = str(v)
        rep.u_dist[key] = _l2_time_mean(traj, ref)
        rep.rho_dist[key] = _lgamma_time_mean(traj, ref, gamma)
        rep.violation[key] = {str(eta): trajectory_violation_measure(traj, eta)
                              for eta in etas}
        rep.complementarity[key] = trajectory_complementarity(traj)
        rep.entropy[key] = _entropy_gap_time_mean(traj, ref, gamma)
        rep.hoff[key] = hoff_value(traj)
        rep.aux_uniform[key] = traj.records[-1].aux_cum
    for va, vb in zip(values[:-1], values[1:]):
        rep.pairwise_u.append(_l2_time_mean(trajectories[va], trajectories[vb]))
        rep.pairwise_entropy.append(
            _entropy_gap_time_mean(trajectories[va], trajectories[vb], gamma))
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
    total = 0.0
    count = 0
    for sp, se in zip(traj_p.snapshots, traj_eps.snapshots):
        if sp.t == 0.0:
            continue
        if abs(sp.t - se.t) > 1e-9:
            raise ValueError("snapshot times are not aligned")
        ue = restrict_block_average(se.u, factor)
        total += integrate((sp.u - ue) ** 2, g_p)
        count += 1
    return float(np.sqrt(total / max(count, 1)))


def variational_residual_1d(traj, bank, params, tol_scale=1e-3):
    """Theorem-form variational inequality on a 1D trajectory.

    For each admissible test field v (|dv/dx| <= 0.99) evaluates

      int int [rho udot (v - u) - a rho^gamma d/dx(v - u)] dx dt

    by midpoint quadrature at snapshot half-levels, with udot formed by
    snapshot differencing. Reports the minimum over the bank; the exact
    solution makes every entry >= 0 up to consistency error.
    """
    from .diagnostics import CheckReport

    g = traj.grid
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
    e0 = traj.records[0].energy
    measured = -min(mins)       # positive when the inequality is violated
    return CheckReport.build(
        "variational_inequality_1d", bound=0.0, measured=measured,
        tolerance=tol_scale * e0,
        context={"bank_size": len(bank), "residuals_min": min(mins),
                 "E0": e0})


def variational_residual_2d(traj, bank, params, tol_scale=1e-3):
    """Limit-form inequality int int rho^gamma (div u - div v) >= 0
    for admissible v (|Dv| <= 0.99), on a 2D trajectory."""
    from .diagnostics import CheckReport

    g = traj.grid
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
    e0 = traj.records[0].energy
    measured = -min(mins)
    return CheckReport.build(
        "variational_inequality_2d", bound=0.0, measured=measured,
        tolerance=tol_scale * e0,
        context={"bank_size": len(bank), "residuals_min": min(mins),
                 "E0": e0})
