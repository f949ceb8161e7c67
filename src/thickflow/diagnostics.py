"""Checks of the explicit a-priori estimates against computed trajectories.

Every check produces a CheckReport with the canonical pass rule

    pass  <=>  measured <= bound * (1 + tolerance) + tolerance,  bound >= 0
    pass  <=>  measured <= bound * (1 - tolerance) + tolerance,  bound < 0

(the relative slack always loosens the bound, whatever its sign), so
reports are pure functions of (trajectory, parameters, tolerances)
and re-running them is bit-identical. Bound checks carry a slack
C (dx + dt) with C the config's [checks] tol_c: discrete solutions
violate continuum bounds by consistency error, and the slack must shrink
under refinement.

Checks whose mathematical precondition fails (for example the stress
maximum principle needs p >= 1 + gamma) are reported as skipped, which
is distinct from failed in both the JSON reports and the exit codes.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import is_number
from .grids import median


@dataclass
class CheckReport:
    check: str
    bound: float
    measured: float
    tolerance: float
    passed: bool
    skipped: bool = False
    context: dict = field(default_factory=dict)

    @staticmethod
    def build(check, bound, measured, tolerance, context=None):
        """The report of measured against bound by the pass rule: bound
        loosened by tolerance relative to |bound| and absolutely."""
        slack = 1.0 + tolerance if bound >= 0 else 1.0 - tolerance
        passed = measured <= bound * slack + tolerance
        return CheckReport(check, float(bound), float(measured),
                           float(tolerance), bool(passed),
                           context=context or {})

    @staticmethod
    def skip(check, reason):
        return CheckReport(check, math.nan, math.nan, 0.0, passed=True,
                           skipped=True, context={"reason": reason})

    def to_dict(self):
        return {
            "check": self.check,
            "bound": None if math.isnan(self.bound) else self.bound,
            "measured": None if math.isnan(self.measured) else self.measured,
            "tol": self.tolerance,
            "pass": self.passed,
            "skipped": self.skipped,
            "context": self.context,
        }


def write_reports(reports, path):
    with open(path, "w") as f:
        json.dump([r.to_dict() for r in reports], f, indent=1, sort_keys=True)
        f.write("\n")


# each key of a report in checks.json, in the order of CheckReport's
# fields: what its value must be, and the test
_REPORT_KEYS = {
    "check": ("a string", lambda v: isinstance(v, str)),
    "bound": ("a number or null", lambda v: v is None or is_number(v)),
    "measured": ("a number or null", lambda v: v is None or is_number(v)),
    "tol": ("a number", is_number),
    "pass": ("a bool", lambda v: isinstance(v, bool)),
    "skipped": ("a bool", lambda v: isinstance(v, bool)),
}


def load_reports(path):
    """The reports of the checks.json at path; raises ValueError unless it
    is a list of objects that each have every key of _REPORT_KEYS."""
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, list):
        raise ValueError("expected a list of reports, got "
                         + type(raw).__name__)
    out = []
    for i, d in enumerate(raw):
        if not isinstance(d, dict):
            raise ValueError(f"report {i}: expected an object, got "
                             + type(d).__name__)
        for key, (kind, holds) in _REPORT_KEYS.items():
            if key not in d:
                raise ValueError(f"report {i}: no {key}")
            if not holds(d[key]):
                raise ValueError(f"report {i}: {key}: expected {kind}, "
                                 f"got {d[key]!r}")
        out.append(CheckReport(*(math.nan if d[key] is None else d[key]
                                 for key in _REPORT_KEYS),
                               context=d.get("context", {})))
    return out


def format_report_table(reports):
    lines = [f"{'check':34s} {'bound':>12s} {'measured':>12s} {'tol':>9s} status"]
    for r in reports:
        status = "SKIP" if r.skipped else ("pass" if r.passed else "FAIL")
        bound = "-" if math.isnan(r.bound) else f"{r.bound:.5g}"
        meas = "-" if math.isnan(r.measured) else f"{r.measured:.5g}"
        lines.append(f"{r.check:34s} {bound:>12s} {meas:>12s} "
                     f"{r.tolerance:>9.3g} {status}")
    return "\n".join(lines)


def verify_reports(report_paths):
    """Aggregate check reports; returns (exit_status, summary_line,
    reports).

    Exit 0 iff every non-skipped check passes, 4 on failure; 2 on an
    unreadable report, with no reports and the reason as the summary.
    """
    all_reports = []
    for p in report_paths:
        try:
            all_reports.extend(load_reports(p))
        except (OSError, ValueError) as e:
            return 2, f"unreadable report {p}: {e}", []
    skips = sum(r.skipped for r in all_reports)
    failures = sum(not (r.passed or r.skipped) for r in all_reports)
    summary = (f"checks: {len(all_reports)} total, {failures} failed, "
               f"{skips} skipped")
    return (4 if failures else 0), summary, all_reports


def _consistency_tol(traj, tol_c):
    dts = [r.dt for r in traj.records if r.dt > 0]
    dt_typ = max(dts) if dts else 0.0
    return tol_c * (traj.model.g.dx + dt_typ)


def check_stress_max_principle(traj, params, tol_c, paper_initial):
    """Stress maximum principle: max_x sigma(t) <= max_x sigma(0) <= mu.

    Skipped when p < 1 + gamma (the hypothesis of the proof). Under
    paper_initial data (|du0/dx| <= 1, rho0 >= c1 > 0) the bound is mu
    itself; otherwise the initial stress maximum is used.
    """
    if not params.max_principle_precondition:
        return CheckReport.skip(
            "stress_max_principle",
            f"p = {params.p} < 1 + gamma = {1.0 + params.gamma}")

    tol = _consistency_tol(traj, tol_c)
    sigma0 = traj.records[0].sigma_max
    measured = max(r.sigma_max for r in traj.records)
    bound = params.mu if paper_initial else sigma0
    return CheckReport.build(
        "stress_max_principle", bound=bound, measured=measured,
        tolerance=tol,
        context={"sigma0_max": sigma0, "p": params.p, "mu": params.mu})


def density_lower_bound(t, params, c1, c2):
    denom = max(1.0, (params.a / params.mu) ** (1.0 / params.gamma) * c2)
    return c1 * np.exp(-2.0 * t) / denom


def density_upper_bound(t, params, c2, e0):
    mu, gamma, p = params.mu, params.gamma, params.p
    rate = (2.0 + gamma) * e0 / mu + 1.0 + 1.0 / p
    return c2 * np.exp(e0 / mu + rate * t)


def check_density_bounds(traj, params, c1, c2, tol_c):
    """Pointwise density bounds with the explicit closed-form estimates.

    Lower: c1 e^{-2t} / max(1, (a/mu)^(1/gamma) c2). Upper:
    c2 exp[E0/mu + ((2+gamma) E0/mu + 1 + 1/p) t] with E0 the initial
    energy. Violations are measured as positive excursions, so the
    canonical pass rule compares them against zero with the C(dx+dt)
    slack.
    """
    tol = _consistency_tol(traj, tol_c)
    e0 = traj.records[0].energy
    lower_viol = max(
        float(density_lower_bound(r.t, params, c1, c2) - r.rho_min)
        for r in traj.records)
    upper_viol = max(
        float(r.rho_max - density_upper_bound(r.t, params, c2, e0))
        for r in traj.records)
    measured = max(lower_viol, upper_viol)
    return CheckReport.build(
        "density_bounds", bound=0.0, measured=measured, tolerance=tol,
        context={"c1": c1, "c2": c2, "E0": e0,
                 "lower_violation": lower_viol, "upper_violation": upper_viol})


def check_energy_inequality(traj):
    """sup_t [E(t) + cumulative dissipation] <= E(0) (1 + 1e-6)."""
    e0 = traj.records[0].energy
    measured = max(r.energy + r.dissipation_cum for r in traj.records)
    return CheckReport.build(
        "energy_inequality", bound=e0, measured=measured, tolerance=1e-6,
        context={"E0": e0, "records": len(traj.records)})


def check_conservation(traj):
    """Relative drift of total mass and momentum over the whole run,
    against 1e-12 and 1e-8.

    Momentum drift is measured relative to max(|M0|, mass) so it stays
    well-defined for runs started at zero net momentum.
    """
    r0 = traj.records[0]
    mass_drift = max(abs(r.mass - r0.mass) for r in traj.records) / abs(r0.mass)
    scale = max(abs(r0.momentum), r0.mass)
    mom_drift = max(abs(r.momentum - r0.momentum) for r in traj.records) / scale
    rep_mass = CheckReport.build("mass_conservation", 0.0, mass_drift, 1e-12)
    rep_mom = CheckReport.build("momentum_conservation", 0.0, mom_drift, 1e-8)
    return [rep_mass, rep_mom]


def hoff_value(traj):
    """Y(T) = int_0^T int rho |udot|^2 + (mu/p) int |du/dx|^p (T)."""
    r = traj.records[-1]
    return r.hoff_cum + r.lpnorm_term


def check_hoff_uniformity(y_values, params_values):
    """Across a sweep: max_p Y(T) <= 2 median_p Y(T).

    The factor-2 band is an artifact-chosen proxy for an estimate whose
    uniform constant is not explicit; flagged as such in the context.
    """
    ys = np.asarray(y_values, dtype=float)
    med = median(ys)
    return CheckReport.build(
        "hoff_uniformity", bound=2.0 * med, measured=float(np.max(ys)),
        tolerance=0.0,
        context={"values": dict(zip(map(str, params_values), ys.tolist())),
                 "median": med,
                 "note": "factor-2 band is an artifact-chosen proxy; the "
                         "uniform constant C(t) is not explicit"})


def check_barrier_invariant(traj):
    """Singular runs: max |du/dx| < 1 at every accepted step."""
    measured = max(r.dudx_maxabs for r in traj.records)
    return CheckReport.build(
        "barrier_invariant", bound=1.0, measured=measured,
        tolerance=-1e-15,  # strict: measured < 1 required
        context={"records": len(traj.records)})
