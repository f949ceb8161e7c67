"""Shared machinery for the 1D compressible solvers.

Splitting per step (first order in time):

  1. conservative update of (rho, rho u) with a local Lax-Friedrichs
     (Rusanov) flux for the barotropic part: face flux
         F = u_f avg(q) [+ avg(p) for momentum] - lambda_f/2 (q_R - q_L),
     lambda_f = |u_f| + max(c_L, c_R), c = sqrt(a gamma rho^(gamma-1)).
     The advective part is upwind with a central-average tie-break at
     u_f = 0; the lambda term supplies the acoustic dissipation that
     keeps the discrete energy nonincreasing. Mass and momentum use the
     same convective coefficients, so kinetic energy is nonincreasing
     under the CFL restriction (joint convexity of m^2/rho).

  2. implicit solve of rho (u - u*)/dt - d/dx flux(du/dx) = 0 by
     damped Newton with a cyclic-tridiagonal Jacobian. The face shear
     s_{i+1/2} = (u_{i+1} - u_i)/dx is the scheme's native shear; the
     divergence form telescopes, so momentum is conserved up to the
     Newton residual tolerance. Testing the update with u shows the
     kinetic energy drops by at least dt * sum flux(s) s dx, which is
     exactly the recorded dissipation.

Both the power-law and the singular-viscosity solver drive this module;
they differ only in the shear flux, its derivative, and the Newton
step-length safeguard (fraction-to-boundary for the barrier flux).
"""

import numpy as np
from scipy.linalg import solve_banded

from .errors import FluxOverflow, NewtonDivergence, StepFailure, VacuumError
from .grids import ddx_periodic, integrate
from .trajectory import DiagnosticsRecord, State1D, Trajectory


def face_shear(u, g):
    """Shear at face i+1/2 between cells i and i+1."""
    return (np.roll(u, -1) - u) / g.dx


def sound_speed(rho, a, gamma):
    return np.sqrt(a * gamma * rho ** (gamma - 1.0))


def max_signal_speed(rho, u, a, gamma):
    c = sound_speed(rho, a, gamma)
    u_r = np.roll(u, -1)
    uf = 0.5 * (u + u_r)
    lam = np.abs(uf) + np.maximum(c, np.roll(c, -1))
    return float(np.max(lam))


def cfl_dt(state, a, gamma, cfl, g):
    lam = max_signal_speed(state.rho, state.u, a, gamma)
    return cfl * g.dx / max(lam, 1e-300)


def barotropic_llf_update(rho, u, a, gamma, dt, g):
    """One conservative Rusanov update of (rho, rho u); returns new fields."""
    m = rho * u
    p = a * rho**gamma
    c = sound_speed(rho, a, gamma)

    rho_r = np.roll(rho, -1)
    m_r = np.roll(m, -1)
    uf = 0.5 * (u + np.roll(u, -1))
    lam = np.abs(uf) + np.maximum(c, np.roll(c, -1))

    f_rho = uf * 0.5 * (rho + rho_r) - 0.5 * lam * (rho_r - rho)
    f_m = uf * 0.5 * (m + m_r) + 0.5 * (p + np.roll(p, -1)) - 0.5 * lam * (m_r - m)

    d_rho = (f_rho - np.roll(f_rho, 1)) * (dt / g.dx)
    d_m = (f_m - np.roll(f_m, 1)) * (dt / g.dx)
    # flux differences telescope exactly; remove the O(eps) roundoff bias
    # so total mass and momentum are conserved to machine precision
    d_rho -= d_rho.mean()
    d_m -= d_m.mean()
    return rho - d_rho, m - d_m


def solve_cyclic_tridiag(lower, diag, upper, rhs):
    """Solve a periodic tridiagonal system by Sherman-Morrison.

    Row i couples (i-1, i, i+1) with wraparound; lower[i] multiplies
    x[i-1], upper[i] multiplies x[i+1].
    """
    n = diag.size
    beta = lower[0]       # A[0, n-1]
    alpha = upper[-1]     # A[n-1, 0]
    gamma = -diag[0]

    ab = np.empty((3, n))
    ab[0, 0] = 0.0
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[1, 0] -= gamma
    ab[1, -1] -= alpha * beta / gamma
    ab[2, :-1] = lower[1:]
    ab[2, -1] = 0.0

    b = np.zeros((n, 2))
    b[:, 0] = rhs
    b[0, 1] = gamma
    b[-1, 1] = alpha
    sol = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True,
                       check_finite=False)
    y, z = sol[:, 0], sol[:, 1]

    vy = y[0] + beta / gamma * y[-1]
    vz = z[0] + beta / gamma * z[-1]
    return y - z * (vy / (1.0 + vz))


def implicit_shear_solve(u_init, u_star, rho, dt, g, flux, dflux,
                         tol, max_iter, potential=None, ftb_theta=None):
    """Damped Newton for rho (u - u*)/dt - d/dx flux(s(u)) = 0.

    The residual is the gradient of the convex merit functional

        Phi(u) = sum rho (u - u*)^2 / (2 dt) dx + sum Psi(s(u)) dx,
                 Psi' = flux,

    so the Newton direction (SPD cyclic-tridiagonal Jacobian) is a
    descent direction for Phi and the Armijo backtracking on Phi makes
    the iteration globally convergent. Backtracking on the residual
    norm instead would deadlock near the shear barrier, where the
    residual is non-monotone along the Newton path.

    When ftb_theta is given, every update is additionally scaled so the
    face shear stays inside 1 - theta (1 - max|s_current|) pointwise
    (fraction-to-boundary rule for the barrier flux).

    Convergence is measured on the diagonally scaled residual
    max |R_i| dt / rho_i, i.e. in velocity-increment units: this makes
    the tolerance independent of dt (so halving dt on retry genuinely
    helps) and bounds the per-step momentum-conservation error by
    tol * total mass.

    Returns (u, info) with info carrying residual and damping history.
    """
    dx = g.dx
    w = rho / dt

    def evaluate(u):
        """Residual, its scaled norm, and the merit value in one pass."""
        s = (np.roll(u, -1) - u) / dx
        f = flux(s)
        r = w * (u - u_star) - (f - np.roll(f, 1)) / dx
        rn = float(np.max(np.abs(r) / w))
        phi = None
        if potential is not None:
            phi = float(np.sum(0.5 * w * (u - u_star) ** 2 + potential(s))
                        * dx)
        return r, rn, phi

    u = u_init.copy()
    r, rnorm, phi = evaluate(u)
    res_history = [rnorm]
    damping_history = []

    u_scale = max(1.0, float(np.max(np.abs(u))))
    for _ in range(max_iter):
        if rnorm < tol:
            return u, {"residuals": res_history, "damping": damping_history,
                       "iterations": len(res_history) - 1}
        s = face_shear(u, g)
        fp = dflux(s)
        diag = w + (fp + np.roll(fp, 1)) / dx**2
        upper = -fp / dx**2
        lower = -np.roll(fp, 1) / dx**2
        delta = solve_cyclic_tridiag(lower, diag, upper, -r)
        if float(np.max(np.abs(delta))) <= 1e-15 * u_scale:
            # update below floating-point representability: near the shear
            # barrier one ulp of u can move the scaled residual above tol,
            # so this is convergence to the attainable floor
            return u, {"residuals": res_history, "damping": damping_history,
                       "iterations": len(res_history) - 1, "at_floor": True}

        alpha = 1.0
        if ftb_theta is not None:
            mcur = float(np.max(np.abs(s)))
            bound = (1.0 - ftb_theta) + ftb_theta * mcur
            ds = face_shear(delta, g)
            up = ds > 0
            dn = ds < 0
            cap = np.inf
            if np.any(up):
                cap = min(cap, float(np.min((bound - s[up]) / ds[up])))
            if np.any(dn):
                cap = min(cap, float(np.min((-bound - s[dn]) / ds[dn])))
            alpha = min(1.0, cap)

        slope = float(np.sum(r * delta) * dx)  # < 0: descent for Phi
        accepted = False
        for _ in range(60):
            try:
                u_new = u + alpha * delta
                r_new, rn_new, phi_new = evaluate(u_new)
            except FluxOverflow:
                alpha *= 0.5
                continue
            if phi is not None:
                ok = np.isfinite(phi_new) and np.isfinite(rn_new) \
                    and phi_new <= phi + 1e-4 * alpha * slope
            else:
                ok = np.isfinite(rn_new) and rn_new <= (1.0 - 1e-4 * alpha) * rnorm
            if ok:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise NewtonDivergence(
                f"no merit decrease at residual {rnorm:.3e}",
                last_residual=rnorm, damping_history=damping_history)
        u, r, rnorm = u_new, r_new, rn_new
        phi = phi_new
        res_history.append(rnorm)
        damping_history.append(alpha)
        if alpha * float(np.max(np.abs(delta))) <= 1e-15 * u_scale:
            # accepted increment below representability (barrier-capped
            # steps can shrink to sub-ulp size): attainable floor reached
            return u, {"residuals": res_history, "damping": damping_history,
                       "iterations": len(res_history) - 1, "at_floor": True}

    raise NewtonDivergence(
        f"residual {rnorm:.3e} > tol {tol:.1e} after {max_iter} iterations",
        last_residual=rnorm, damping_history=damping_history)


class Model1D:
    """Part shared by the 1D models, which add flux, dflux, potential,
    dissipation_density, lp_term, step and run."""

    def __init__(self, params, g):
        self.params = params
        self.g = g
        self.a = params.a
        self.gamma = params.gamma
        self.cfl = params.cfl

    def stress(self, state):
        """Cell-centered Cauchy stress flux(du/dx) - a rho^gamma."""
        dudx = ddx_periodic(state.u, self.g)
        return self.flux(dudx) - self.a * state.rho**self.gamma


def snapshot_schedule_with_final(T, snapshot_times):
    times = sorted(t for t in set(snapshot_times or []) if 0.0 < t <= T)
    if T > 0 and (not times or abs(times[-1] - T) > 1e-12 * max(T, 1.0)):
        times.append(T)
    return times


def advance(model, g, rho0, u0, T, snapshot_times=None, forcing=None):
    """Integrate to time T; snapshots at the configured times plus t=0.

    The time step is the convective CFL one, clipped to land exactly on
    snapshot times. On NewtonDivergence the step retries with dt halved
    (up to 10 halvings) before giving up with the failing time attached.
    """
    rho = np.asarray(rho0, dtype=float).copy()
    u = np.asarray(u0, dtype=float).copy()
    if np.min(rho) <= 0:
        raise VacuumError("initial density must be strictly positive")

    state = State1D(rho, u, 0.0)
    traj = Trajectory(model.name, g, model.params, [state.copy()], [])
    acc = {"dissipation": 0.0, "hoff": 0.0, "aux": 0.0}
    traj.records.append(_make_record(model, g, state, 0.0, acc))

    targets = snapshot_schedule_with_final(T, snapshot_times)
    t = 0.0
    ti = 0
    while t < T - 1e-14:
        next_stop = targets[ti] if ti < len(targets) else T
        dt = min(cfl_dt(state, model.a, model.gamma, model.cfl, g), next_stop - t)
        last_err = None
        for _ in range(11):
            try:
                new_state, inc = model.step(state, dt, forcing=forcing)
                break
            except (NewtonDivergence, VacuumError, FluxOverflow) as err:
                last_err = err
                dt *= 0.5
        else:
            raise StepFailure(f"step failed at t = {t:.6g}: {last_err}",
                              t=t, cause=last_err)
        state = new_state
        t = state.t
        acc["dissipation"] += inc["dissipation"]
        acc["hoff"] += inc["hoff"]
        acc["aux"] += inc.get("aux", 0.0)
        traj.records.append(_make_record(model, g, state, dt, acc))
        if ti < len(targets) and abs(t - targets[ti]) <= 1e-12 * max(1.0, T):
            traj.snapshots.append(state.copy())
            ti += 1
    return traj


def _make_record(model, g, state, dt, acc):
    rho, u = state.rho, state.u
    s = face_shear(u, g)
    sigma_face = model.flux(s) - 0.5 * model.a * (rho**model.gamma
                                                  + np.roll(rho, -1)**model.gamma)
    energy = integrate(0.5 * rho * u**2, g) \
        + model.a / (model.gamma - 1.0) * integrate(rho**model.gamma, g)
    return DiagnosticsRecord(
        t=state.t,
        dt=dt,
        mass=integrate(rho, g),
        momentum=integrate(rho * u, g),
        energy=energy,
        dissipation_cum=acc["dissipation"],
        rho_min=float(np.min(rho)),
        rho_max=float(np.max(rho)),
        dudx_maxabs=float(np.max(np.abs(s))),
        sigma_max=float(np.max(sigma_face)),
        hoff_cum=acc["hoff"],
        lpnorm_term=model.lp_term(s, g),
        aux_cum=acc["aux"],
    )


def material_derivative(u_new, u_old, dt, g):
    """Discrete du/dt + u du/dx across one step."""
    return (u_new - u_old) / dt + u_new * ddx_periodic(u_new, g)
