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
     divergence form telescopes, so the step changes momentum by at
     most the final scaled Newton residual times the total mass. That
     residual is below tol, or at the attainable floor where the solve stops
     above tol (see implicit_shear_solve). Testing the update with u
     shows the kinetic energy drops by at least dt * sum flux(s) s dx,
     which is exactly the recorded dissipation.

Its time loop, advance, drives all three solvers, the 2D one
(semistationary2d.Stokes2DModel) included, by the protocol it describes.

Both 1D models step with this module. Model1D holds the one copy of
the stages their steps share: the forcing, the vacuum check and
u* = m / rho after the transport, and the accepted state and its record
increments after the solve. Each step keeps its calls of
barotropic_llf_update and implicit_shear_solve, and each run its call
of advance, because the benchmark's tracer (perfbench/tracer.py) wraps
these by name in the model's module. The models differ in the shear
flux, its derivative, the singular model's barrier checks, aux record
and fraction-to-boundary Newton safeguard, and where Newton starts.
advance hands each step u^(n-1) and dt_prev of the last accepted step.
The singular model starts Newton at their linear extrapolation in time,
u^n + (dt / dt_prev) (u^n - u^(n-1)), when its face shear lies inside
the barrier, and at u^n otherwise: u^n was accepted, so it is feasible,
which u* need not be. The power-law model starts at u^n: where its flux
is stiff (large p) Newton takes fewer iterations from there than from
u* or from the extrapolation.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os

import numpy as np

from . import diagnostics as dg
from .errors import (FluxOverflow, NewtonDivergence, SolverDivergence,
                     StepFailure, VacuumError)
from .grids import _wrap_diff, ddx_periodic, integrate
from .trajectory import DiagnosticsRecord, State1D, Trajectory


def _ahead(a):
    """a[i + 1] at entry i, periodic (np.roll(a, -1) by slices)."""
    out = np.empty_like(a)
    out[:-1] = a[1:]
    out[-1] = a[0]
    return out


def _behind(a):
    """a[i - 1] at entry i, periodic (np.roll(a, 1) by slices)."""
    out = np.empty_like(a)
    out[1:] = a[:-1]
    out[0] = a[-1]
    return out


def face_shear(u, g):
    """Shear at face i+1/2 between cells i and i+1."""
    return ddx_periodic(u, g, "forward")


def sound_speed(rho, a, gamma):
    return np.sqrt(a * gamma * rho ** (gamma - 1.0))


def max_signal_speed(rho, u, a, gamma):
    c = sound_speed(rho, a, gamma)
    uf = 0.5 * (u + _ahead(u))
    lam = np.abs(uf) + np.maximum(c, _ahead(c))
    return float(np.max(lam))


def barotropic_llf_update(rho, u, a, gamma, dt, g):
    """One conservative Rusanov update of (rho, rho u); returns new fields."""
    m = rho * u
    p = a * rho**gamma
    c = sound_speed(rho, a, gamma)

    rho_r = _ahead(rho)
    m_r = _ahead(m)
    uf = 0.5 * (u + _ahead(u))
    lam = np.abs(uf) + np.maximum(c, _ahead(c))

    f_rho = uf * 0.5 * (rho + rho_r) - 0.5 * lam * (rho_r - rho)
    f_m = uf * 0.5 * (m + m_r) + 0.5 * (p + _ahead(p)) - 0.5 * lam * (m_r - m)

    d_rho = (f_rho - _behind(f_rho)) * (dt / g.dx)
    d_m = (f_m - _behind(f_m)) * (dt / g.dx)
    # flux differences telescope exactly; remove the O(eps) roundoff bias
    # so total mass and momentum are conserved to machine precision
    d_rho -= d_rho.mean()
    d_m -= d_m.mean()
    return rho - d_rho, m - d_m


@functools.cache
def _dgtsv():
    """LAPACK dgtsv, which scipy.linalg.solve_banded((1, 1), ...) calls.

    It is loaded from scipy's f2py extension scipy/linalg/_flapack by
    file, so scipy/linalg/__init__.py, whose imports take about 0.3 s,
    never runs. CPython keeps one copy of such a single-phase extension
    module, so this is the very function scipy.linalg.lapack.dgtsv
    names, whichever of the two is loaded first.
    """
    linalg = os.path.join(
        importlib.util.find_spec("scipy").submodule_search_locations[0],
        "linalg")
    finder = importlib.machinery.FileFinder(
        linalg, (importlib.machinery.ExtensionFileLoader,
                 importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {linalg}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgtsv


def _gtsv(dl, d, du, b, overwrite=0):
    """Solution of the tridiagonal system (dl, d, du) x = b, and the
    diagonal of U of its elimination. With overwrite=1 these results
    may be written over d and b; with 0 no argument is modified."""
    _, u_diag, _, x, info = _dgtsv()(dl, d, du, b, overwrite_d=overwrite,
                                     overwrite_b=overwrite)
    if info != 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x, u_diag


# below this size both right-hand sides are solved in one dgtsv call: z
# takes hundreds of rows to decay, so its subnormal band, if any, is short
_END_BLOCKS_MIN_N = 2048
# z's ends must decay below this size relative to z[0] and z[-1]
_Z_TINY = 1e-290


def _decay_length(ratios):
    """Rows, in whole chunks of 64, until the running product of ratios
    drops below 1e-300, or None if it does not. (One log per chunk: the
    log of every ratio costs more than a dgtsv row.)"""
    k = ratios.size // 64
    with np.errstate(divide="ignore"):
        logs = np.cumsum(np.log(ratios[:k * 64].reshape(k, 64).prod(axis=1)))
    below = np.flatnonzero(logs < np.log(1e-300))
    return int(below[0] + 1) * 64 if below.size else None


def _z_end_blocks(dl, d, du, u_diag, gamma, alpha):
    """(z, skipped): the solution of (dl, d, du) z = gamma e_0 +
    alpha e_(n-1) computed at its two ends only, with zeros between, and
    the size of z where the blocks end; None if z does not decay below
    _Z_TINY of its ends there.

    Without row interchanges the elimination has |dl / u_diag| < 1, so z
    decays geometrically from both ends into a band of subnormal
    numbers, which are slow to compute with. The leading block solves
    the first rows alone; the trailing block restarts the elimination
    from the diagonal of U at its first row. The entries left out, and
    the changes the cut makes inside the blocks, are within a few orders
    of magnitude of skipped; z[0] and z[-1] come out to the bit.
    """
    n = d.size
    fact = np.abs(dl / u_diag[:-1])
    if not fact.max() < 1.0:   # rows may have been interchanged
        return None
    h = n // 2
    m1 = _decay_length(fact[:h])
    m2 = _decay_length(np.abs(du[h:] / u_diag[h:-1])[::-1])
    if m1 is None or m2 is None or m1 + m2 >= n:
        return None
    z = np.zeros(n)
    e = np.zeros(m1)
    e[0] = gamma
    z[:m1], _ = _gtsv(dl[:m1 - 1], d[:m1], du[:m1 - 1], e)
    d_tail = d[n - m2:].copy()
    d_tail[0] = u_diag[n - m2]
    e = np.zeros(m2)
    e[-1] = alpha
    z[n - m2:], _ = _gtsv(dl[n - m2:], d_tail, du[n - m2:], e)
    skipped = max(abs(z[m1 - 1]), abs(z[n - m2]))
    if skipped > _Z_TINY * min(abs(z[0]), abs(z[-1])):
        return None
    return z, skipped


def _correction(y, z, beta, gamma):
    """c of the Sherman-Morrison update x = y - c z."""
    vy = y[0] + beta / gamma * y[-1]
    vz = z[0] + beta / gamma * z[-1]
    return vy / (1.0 + vz)


def solve_cyclic_tridiag(lower, diag, upper, rhs):
    """Solve a periodic tridiagonal system by Sherman-Morrison.

    Row i couples (i-1, i, i+1) with wraparound; lower[i] multiplies
    x[i-1], upper[i] multiplies x[i+1]. LAPACK dgtsv solves the modified
    system for the right-hand side, y, and for the column z of the
    rank-one correction (Numerical Recipes, 2nd ed., section 2.7). On
    large grids z is computed at its two ends only, where y - c z then
    has the same bits as with all of z.
    """
    n = diag.size
    beta = lower[0]       # A[0, n-1]
    alpha = upper[-1]     # A[n-1, 0]
    gamma = -diag[0]

    d = diag.copy()
    d[0] -= gamma
    d[-1] -= alpha * beta / gamma
    dl, du = lower[1:], upper[:-1]

    if n < _END_BLOCKS_MIN_N:
        b = np.zeros((n, 2), order="F")
        b[:, 0] = rhs
        b[0, 1] = gamma
        b[-1, 1] = alpha
        sol, _ = _gtsv(dl, d, du, b, overwrite=1)
        y, z = sol[:, 0], sol[:, 1]
        return y - z * _correction(y, z, beta, gamma)

    y, u_diag = _gtsv(dl, d, du, rhs)
    ends = _z_end_blocks(dl, d, du, u_diag, gamma, alpha)
    if ends is not None:
        z, skipped = ends
        c = _correction(y, z, beta, gamma)
        # c times what was left out of z must lie far below half an ulp of
        # every entry of y, so that y - c z rounds as with all of z
        if skipped * abs(c) < 1e-60 * float(np.min(np.abs(y))):
            return y - z * c
    b = np.zeros(n)
    b[0] = gamma
    b[-1] = alpha
    z, _ = _gtsv(dl, d, du, b)
    return y - z * _correction(y, z, beta, gamma)


def implicit_shear_solve(u_init, u_star, rho, dt, g, flux, dflux,
                         tol, max_iter, potential, ftb_theta=None):
    """Damped Newton for rho (u - u*)/dt - d/dx flux(s(u)) = 0.

    The residual is the gradient of the convex merit functional

        Phi(u) = sum rho (u - u*)^2 / (2 dt) dx + sum Psi(s(u)) dx,
                 Psi' = flux, Psi = potential,

    so the Newton direction (SPD cyclic-tridiagonal Jacobian) is a
    descent direction for Phi and the Armijo backtracking on Phi makes
    the iteration globally convergent. Backtracking on the residual
    norm instead would deadlock near the shear barrier, where the
    residual is non-monotone along the Newton path.

    Newton starts at u_init: u^n for the power law, and for the barrier
    flux the linear extrapolation in time of the last accepted step, or
    u^n where that leaves the barrier. With ftb_theta, u_init must lie
    inside the shear barrier. The solution does not depend on the start:
    two velocities with scaled residuals rn1 and rn2 differ by at most
    rn1 + rn2 in max norm, because the Jacobian is an M-matrix whose row
    sums are rho / dt.

    Near the solution a step can lower Phi by less than its rounding
    unit; Armijo's test of Phi is then noise and halves the steps to
    nothing. So a trial step whose asked-for decrease -alpha * slope is
    at most ulp(Phi) is accepted instead when Phi and the residual are
    finite there and the slope at the trial point, (r_new . delta) dx,
    is at most -0.8 times the slope at alpha = 0: Hager & Zhang's
    approximate Armijo condition (SIAM J. Optim. 16, 2005) with c = 0.1,
    as in semistationary2d.solve_momentum. The residual r is grad Phi /
    dx, so this costs one dot product and no evaluation.

    When ftb_theta is given, every update is additionally scaled so the
    face shear stays inside 1 - theta (1 - max|s_current|) pointwise
    (fraction-to-boundary rule for the barrier flux).

    Convergence is measured on the diagonally scaled residual
    max |R_i| dt / rho_i, i.e. in velocity-increment units: this makes
    the tolerance independent of dt (so halving dt on retry genuinely
    helps), and the per-step momentum-conservation error is at most the
    final scaled residual times the total mass. That residual is below
    tol, or, on an exit with at_floor set, the attainable floor, which
    can lie far above tol (near the shear barrier, where one ulp of u
    moves the residual).

    Returns (u, info): info carries the residual and damping history,
    and the face shear and flux of u, for the caller's records.
    """
    dx = g.dx
    w = rho / dt
    half_w = 0.5 * w

    def diff(a, scheme):
        """ddx_periodic(a, g, scheme) of a float array."""
        return _wrap_diff(a, np.empty_like(a), scheme, dx)

    def evaluate(u):
        """Face shear, flux, residual, its scaled norm, and the merit
        value in one pass."""
        s = diff(u, "forward")
        f = flux(s)
        du = u - u_star
        r = w * du - diff(f, "backward")
        rn = float((np.abs(r) / w).max())
        phi = float((half_w * du**2 + potential(s)).sum() * dx)
        return s, f, r, rn, phi

    def result(**exit_kind):
        return u, {"residuals": res_history, "damping": damping_history,
                   "iterations": len(res_history) - 1, "shear": s,
                   "flux": f, **exit_kind}

    u = u_init.copy()
    s, f, r, rnorm, phi = evaluate(u)
    res_history = [rnorm]
    damping_history = []

    u_scale = max(1.0, float(np.abs(u).max()))
    for _ in range(max_iter):
        if rnorm < tol:
            return result()
        fp = dflux(s)
        fp_behind = _behind(fp)
        diag = w + (fp + fp_behind) / dx**2
        upper = -fp / dx**2
        lower = -fp_behind / dx**2
        # a Jacobian too ill-conditioned to solve can give a non-finite
        # direction (a Sherman-Morrison denominator that rounds to 0):
        # it is caught below, not warned about
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            delta = solve_cyclic_tridiag(lower, diag, upper, -r)
        delta_max = float(np.abs(delta).max())
        if not math.isfinite(delta_max):
            raise NewtonDivergence(
                f"non-finite Newton direction at residual {rnorm:.3e}")
        if delta_max <= 1e-15 * u_scale:
            # update below floating-point representability: near the shear
            # barrier one ulp of u can move the scaled residual above tol,
            # so this is convergence to the attainable floor
            return result(at_floor=True)

        alpha = 1.0
        if ftb_theta is not None:
            mcur = float(np.abs(s).max())
            bound = (1.0 - ftb_theta) + ftb_theta * mcur
            ds = diff(delta, "forward")
            up = ds > 0
            dn = ds < 0
            cap = np.inf
            if up.any():
                cap = min(cap, float(((bound - s[up]) / ds[up]).min()))
            if dn.any():
                cap = min(cap, float(((-bound - s[dn]) / ds[dn]).min()))
            alpha = min(1.0, cap)

        slope = float((r * delta).sum() * dx)  # < 0: descent for Phi
        for _ in range(60):
            try:
                u_new = u + alpha * delta
                s_new, f_new, r_new, rn_new, phi_new = evaluate(u_new)
            except FluxOverflow:
                alpha *= 0.5
                continue
            if math.isfinite(phi_new) and math.isfinite(rn_new):
                if phi_new <= phi + 1e-4 * alpha * slope:
                    break
                if -alpha * slope <= math.ulp(phi) \
                        and (r_new * delta).sum() * dx <= -0.8 * slope:
                    # Phi cannot show the decrease asked for: decide by
                    # the slope at the trial point (approximate Armijo)
                    break
            alpha *= 0.5
        else:
            raise NewtonDivergence(
                f"no merit decrease at residual {rnorm:.3e}")
        u, s, f, r, rnorm, phi = u_new, s_new, f_new, r_new, rn_new, phi_new
        res_history.append(rnorm)
        damping_history.append(alpha)
        if alpha * delta_max <= 1e-15 * u_scale:
            # accepted increment below representability (barrier-capped
            # steps can shrink to sub-ulp size): attainable floor reached
            return result(at_floor=True)

    raise NewtonDivergence(
        f"residual {rnorm:.3e} > tol {tol:.1e} after {max_iter} iterations")


class Model1D:
    """Part of the advance protocol shared by the 1D models. Each model
    adds flux(s), dflux(s) and potential(s) of the face shear s, the only
    definitions of its flux, the flux's derivative and its convex
    primitive; lp_term(s, f, g), the L^p norm term of the record;
    initial_shear_error(smax), why initial data of max |du0/dx| = smax
    break the model's hypothesis, or None; and step, run and its checks.

    flux, dflux and potential of one shear array share intermediates,
    which the model's _intermediates(s) computes (for the power law
    s^2 + delta^2 and its log). _shared(s) keeps them for one array
    only, the last one it saw, keyed by identity and holding a reference
    to it. It makes that array read-only, so that a change of s in place,
    which would leave the memo stale, raises instead. Each method still
    makes its own checks and raises on a memo hit.
    """

    ndim = 1

    def __init__(self, params, g):
        self.params = params
        self.g = g
        self._memo_s = self._memo = None

    def _shared(self, s):
        """The intermediates of shear s, computed once per array."""
        if s is not self._memo_s:
            self._memo = self._intermediates(s)
            s.flags.writeable = False
            self._memo_s = s
        return self._memo

    def stress(self, state):
        """Cell-centered Cauchy stress flux(du/dx) - a rho^gamma."""
        dudx = ddx_periodic(state.u, self.g)
        return self.flux(dudx) - self.params.a * state.rho**self.params.gamma

    def initial_state(self, rho0, u0):
        rho = np.asarray(rho0, dtype=float).copy()
        if np.min(rho) <= 0:
            raise VacuumError("initial density must be strictly positive")
        return State1D(rho, np.asarray(u0, dtype=float).copy(), 0.0)

    def cfl_dt(self, state):
        pr = self.params
        lam = max_signal_speed(state.rho, state.u, pr.a, pr.gamma)
        return pr.cfl * self.g.dx / max(lam, 1e-300)

    def _after_transport(self, state, dt, forcing, rho1, m1):
        """(rho*, u* = m / rho): forcing added, vacuum raises."""
        if forcing is not None:
            f_rho, f_mom = forcing
            rho1 = rho1 + dt * f_rho(state.t, self.g.x)
            m1 = m1 + dt * f_mom(state.t, self.g.x)
        if np.min(rho1) <= 0:
            raise VacuumError(f"density reached {float(np.min(rho1)):.3e} "
                              f"after transport at t = {state.t:.6g}")
        return rho1, m1 / rho1

    def _accept(self, state, dt, rho1, u_new, info):
        """The state at t + dt and its dissipation and Hoff increments."""
        g = self.g
        udot = material_derivative(u_new, state.u, dt, g)
        inc = {"dissipation": dt * integrate(info["flux"] * info["shear"], g),
               "hoff": dt * integrate(rho1 * udot**2, g)}
        return State1D(rho1, u_new, state.t + dt), inc

    def record(self, state, dt, acc, info):
        s = face_shear(state.u, self.g) if info is None else info["shear"]
        f = self.flux(s) if info is None else info["flux"]
        g, a, gamma = self.g, self.params.a, self.params.gamma
        rho, u = state.rho, state.u
        p = rho**gamma
        p_ahead = _ahead(rho)**gamma   # not _ahead(p): the same pow per entry
        sigma_face = f - 0.5 * a * (p + p_ahead)
        energy = integrate(0.5 * rho * u**2, g) \
            + a / (gamma - 1.0) * integrate(p, g)
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
            lpnorm_term=self.lp_term(s, f, g),
            aux_cum=acc["aux"],
        )

    def checks(self, cfg, traj):
        """Mass, momentum and energy; each model appends its own."""
        return [*dg.check_conservation(traj),
                dg.check_energy_inequality(traj, tol=cfg.energy_tol)]

    def write_csvs(self, traj, outdir):
        from .trajectory import write_diag_csv, write_snapshots_1d

        paths = write_snapshots_1d(traj, outdir, self.stress)
        paths.append(os.path.join(outdir, "diag.csv"))
        write_diag_csv(traj, paths[-1])
        return paths

    def shear_and_multiplier(self, u):
        """|du/dx| and pi = |flux(du/dx)|."""
        dudx = ddx_periodic(u, self.g)
        return np.abs(dudx), np.abs(self.flux(dudx))


def advance(model, rho0, u0, T, snapshot_times=None, forcing=None):
    """Integrate model to time T; snapshots at the configured times plus
    t = 0. This is the time loop of all three solvers. A model has
      - name, params_class (of its params), params and g (its grid);
      - initial_state(rho0, u0), the checked t = 0 state;
      - cfl_dt(state), the CFL time step at state;
      - step(state, dt, forcing, prev): the state at t + dt, the
        increments of the cumulative records acc, and an info for
        record; prev is (u^(n-1), dt) of the last accepted step, None
        before the first, and may set where the step's solve starts;
      - record(state, dt, acc, info), the DiagnosticsRecord of state
        (info is None at t = 0);
      - the classmethod run(params, g, rho0, u0, T, snapshot_times,
        forcing), which calls advance;
    and, for the CLI and limits, checks(cfg, traj), the reports of
    checks.json in order; write_csvs(traj, outdir), which writes the
    snapshot CSVs and diag.csv; and shear_and_multiplier(u).

    The time step is the CFL one, clipped to land exactly on snapshot
    times. When a step raises NewtonDivergence, SolverDivergence,
    VacuumError or FluxOverflow it retries with dt halved (up to 10
    halvings) before giving up with the failing time attached. Every try
    is handed the velocity and dt of the last accepted step.
    """
    state = model.initial_state(rho0, u0)
    traj = Trajectory(model.name, model.g, model.params, [state.copy()], [])
    acc = {"dissipation": 0.0, "hoff": 0.0, "aux": 0.0}
    traj.records.append(model.record(state, 0.0, acc, None))

    targets = sorted(t for t in set(snapshot_times or []) if 0.0 < t <= T)
    if T > 0 and (not targets or abs(targets[-1] - T) > 1e-12 * max(T, 1.0)):
        targets.append(T)
    t = 0.0
    ti = 0
    prev = None   # (u^(n-1), dt) of the last accepted step
    while t < T - 1e-14:
        next_stop = targets[ti] if ti < len(targets) else T
        dt = min(model.cfl_dt(state), next_stop - t)
        last_err = None
        for _ in range(11):
            try:
                new_state, inc, info = model.step(state, dt, forcing=forcing,
                                                  prev=prev)
                break
            except (NewtonDivergence, SolverDivergence, VacuumError,
                    FluxOverflow) as err:
                last_err = err
                dt *= 0.5
        else:
            raise StepFailure(f"step failed at t = {t:.6g}: {last_err}",
                              t=t, cause=last_err)
        prev = (state.u, dt)
        state = new_state
        t = state.t
        for key, value in inc.items():
            acc[key] += value
        traj.records.append(model.record(state, dt, acc, info))
        if ti < len(targets) and abs(t - targets[ti]) <= 1e-12 * max(1.0, T):
            traj.snapshots.append(state.copy())
            ti += 1
    return traj


def material_derivative(u_new, u_old, dt, g):
    """Discrete du/dt + u du/dx across one step."""
    return (u_new - u_old) / dt + u_new * ddx_periodic(u_new, g)
