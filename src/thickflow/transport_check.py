"""Weak-form verification of the transport structure of trajectories.

Residuals of the continuity equation and its renormalized form (with
beta(z) = z^gamma) are evaluated against seeded space-time test
functions by midpoint quadrature: snapshots are taken at the midpoints
of a uniform partition of (0, T), and the test functions vanish at
t = 0 and t = T, so no boundary terms appear.

The time-mean check evaluates m(s) = |(1/s) int_0^s int (rho^gamma -
rho_0^gamma)| on a decreasing list of horizons s; for a dissipative
run int rho^gamma(t) decays linearly at t = 0+, so m(s) ~ (c/2) s.

The spatial part of a test function does not depend on t: it is
evaluated once per test function (banks.sample_bank, once per bank
and grid), and the time enters the residuals only through the scalar
envelope env(t) and its derivative.
"""

import numpy as np

from .banks import SampledTestFunction, sample_bank
from .grids import ddx_periodic, div_2d, integrate


def _midpoint_snapshots(traj):
    """Snapshots on the uniform midpoint grid t_k = (k + 1/2) w.

    Returns (snapshots, w). Trailing extras (the final-time snapshot the
    runner always appends) are excluded by keeping the longest uniformly
    spaced prefix.
    """
    snaps = [s for s in traj.snapshots if s.t > 0.0]
    if len(snaps) < 2:
        raise ValueError("need at least 2 positive-time snapshots")
    w = snaps[1].t - snaps[0].t
    if abs(snaps[0].t - 0.5 * w) > 1e-9 * max(1.0, w):
        raise ValueError("snapshots are not on a midpoint grid")
    keep = [snaps[0], snaps[1]]
    for s in snaps[2:]:
        if abs((s.t - keep[-1].t) - w) <= 1e-9 * max(1.0, w):
            keep.append(s)
        else:
            break
    return keep, w


def _sampled(phi, grid):
    if isinstance(phi, SampledTestFunction):
        return phi
    return sample_bank([phi], grid)[0]


def continuity_residual(traj, phi):
    """|int int rho dphi/dt + rho u . grad phi| over the snapshot grid.

    phi is a scalar test function, or the same sampled on traj.grid by
    sample_bank.
    """
    g = traj.grid
    phi = _sampled(phi, g)
    snaps, w = _midpoint_snapshots(traj)
    total = 0.0
    for s in snaps:
        grad = phi.grad(s.t)
        if s.rho.ndim == 1:
            flux = s.rho * s.u * grad[0]
        else:
            flux = s.rho * (s.u[0] * grad[0] + s.u[1] * grad[1])
        total += w * integrate(s.rho * phi.dt(s.t) + flux, g)
    return abs(total)


def renormalized_residual(traj, gamma, phi):
    """Weak residual of d/dt rho^g + div(rho^g u) + (g-1) rho^g div u = 0.

    phi as in continuity_residual. For gamma = 1 this reduces exactly to
    continuity_residual.
    """
    g = traj.grid
    phi = _sampled(phi, g)
    snaps, w = _midpoint_snapshots(traj)
    total = 0.0
    for s in snaps:
        rg = s.rho**gamma
        grad = phi.grad(s.t)
        if s.rho.ndim == 1:
            divu = ddx_periodic(s.u, g)
            flux = rg * s.u * grad[0]
        else:
            divu = div_2d(s.u, g)
            flux = rg * (s.u[0] * grad[0] + s.u[1] * grad[1])
        total += w * integrate(rg * phi.dt(s.t) + flux
                               - (gamma - 1.0) * rg * divu * phi.eval(s.t), g)
    return abs(total)


def time_mean_values(traj, gamma, s_list):
    """m(s) for each horizon s (midpoint quadrature over [0, s])."""
    g = traj.grid
    snaps, w = _midpoint_snapshots(traj)
    base = integrate(traj.snapshots[0].rho**gamma, g)
    out = []
    for s_h in s_list:
        k = int(round(s_h / w))
        if abs(k * w - s_h) > 1e-9 * max(1.0, s_h) or k < 1:
            raise ValueError(
                f"horizon {s_h} is not a multiple of the snapshot cadence {w}")
        if k > len(snaps):
            raise ValueError(f"horizon {s_h} not covered by snapshots")
        vals = [integrate(sn.rho**gamma, g) - base for sn in snaps[:k]]
        out.append(abs(np.sum(vals) * w / s_h))
    return out


def time_mean_continuity(traj, gamma, s_list):
    """CheckReport for the vanishing time-mean property.

    Pass rule: m is nonincreasing toward the smallest s within 20%
    slack, and m(s_min) <= m(s_max).
    """
    from .diagnostics import CheckReport

    s_list = sorted(s_list, reverse=True)
    m = time_mean_values(traj, gamma, s_list)
    monotone_ok = all(m[i + 1] <= 1.2 * m[i] for i in range(len(m) - 1))
    endpoint_ok = m[-1] <= m[0]
    measured = 0.0 if (monotone_ok and endpoint_ok) else 1.0
    return CheckReport.build(
        "time_mean_continuity", bound=0.0, measured=measured,
        tolerance=0.0,
        context={"s_list": list(s_list), "m": [float(v) for v in m],
                 "monotone_within_slack": monotone_ok,
                 "endpoint_decrease": endpoint_ok})
