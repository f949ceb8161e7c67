"""Weak-form verification of the transport structure of trajectories.

Residuals of the continuity equation and its renormalized form (with
beta(z) = z^gamma) are evaluated against seeded space-time test
functions by midpoint quadrature: snapshots are taken at the midpoints
of a uniform partition of (0, T), and the test functions vanish at
t = 0 and t = T, so no boundary terms appear.

The time-mean check evaluates m(s) = |(1/s) int_0^s int (rho^gamma -
rho_0^gamma)| on a decreasing list of horizons s; for a dissipative
run int rho^gamma(t) decays linearly at t = 0+, so m(s) ~ (c/2) s.

The spatial part of a test function does not depend on t: the residuals
take test functions sampled once per bank and grid (banks.sample_bank),
and the time enters them only through the scalar envelope env(t) and
its derivative.
"""

import numpy as np

from .grids import ddx_periodic, div_2d, integrate


def midpoint_cadence(times):
    """(count, w) of the uniform midpoint grid t_k = (k + 1/2) w that the
    increasing positive times start with: w is the gap of the first two,
    and count the length of the longest uniformly spaced prefix. Raises
    ValueError for fewer than 2 times, or off a midpoint grid."""
    if len(times) < 2:
        raise ValueError("need at least 2 positive-time snapshots")
    w = times[1] - times[0]
    tol = 1e-9 * max(1.0, w)
    if abs(times[0] - 0.5 * w) > tol:
        raise ValueError("snapshots are not on a midpoint grid")
    count = 2
    while (count < len(times)
           and abs(times[count] - times[count - 1] - w) <= tol):
        count += 1
    return count, w


def horizon_cells(s_h, w, count):
    """The number k of midpoint cells of width w that the horizon s_h
    spans; raises ValueError unless s_h = k w with 1 <= k <= count."""
    k = int(round(s_h / w))
    if abs(k * w - s_h) > 1e-9 * max(1.0, s_h) or k < 1:
        raise ValueError(
            f"horizon {s_h} is not a multiple of the snapshot cadence {w}")
    if k > count:
        raise ValueError(f"horizon {s_h} not covered by snapshots")
    return k


def _midpoint_snapshots(traj):
    """Snapshots on the uniform midpoint grid t_k = (k + 1/2) w.

    Returns (snapshots, w). Trailing extras (the final-time snapshot the
    runner always appends) are excluded by midpoint_cadence.
    """
    snaps = [s for s in traj.snapshots if s.t > 0.0]
    count, w = midpoint_cadence([s.t for s in snaps])
    return snaps[:count], w


def continuity_residual(traj, phi):
    """|int int rho dphi/dt + rho u . grad phi| over the snapshot grid.

    phi is a scalar test function sampled on traj.model.g by
    banks.sample_bank.
    """
    return _weak_residual(traj, 1.0, phi)


def renormalized_residual(traj, gamma, phi):
    """Weak residual of d/dt rho^g + div(rho^g u) + (g-1) rho^g div u = 0.

    phi as in continuity_residual. For gamma = 1 this is exactly
    continuity_residual.
    """
    return _weak_residual(traj, gamma, phi)


def _weak_residual(traj, gamma, phi):
    """renormalized_residual; its (g-1) term is skipped at gamma = 1."""
    g = traj.model.g
    snaps, w = _midpoint_snapshots(traj)
    total = 0.0
    for s in snaps:
        rg = s.rho if gamma == 1.0 else s.rho**gamma
        grad = phi.grad(s.t)
        if s.rho.ndim == 1:
            flux = rg * s.u * grad[0]
        else:
            flux = rg * (s.u[0] * grad[0] + s.u[1] * grad[1])
        integrand = rg * phi.dt(s.t) + flux
        if gamma != 1.0:
            divu = ddx_periodic(s.u, g) if s.rho.ndim == 1 else div_2d(s.u, g)
            integrand -= (gamma - 1.0) * rg * divu * phi.eval(s.t)
        total += w * integrate(integrand, g)
    return abs(total)


def time_mean_values(traj, gamma, s_list):
    """m(s) for each horizon s (midpoint quadrature over [0, s]), as
    Python floats."""
    g = traj.model.g
    snaps, w = _midpoint_snapshots(traj)
    base = integrate(traj.snapshots[0].rho**gamma, g)
    out = []
    for s_h in s_list:
        k = horizon_cells(s_h, w, len(snaps))
        vals = [integrate(sn.rho**gamma, g) - base for sn in snaps[:k]]
        out.append(float(abs(np.sum(vals) * w / s_h)))
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
        context={"s_list": list(s_list), "m": m,
                 "monotone_within_slack": monotone_ok,
                 "endpoint_decrease": endpoint_ok})
