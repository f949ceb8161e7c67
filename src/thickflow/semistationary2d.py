"""2D semi-stationary transport-Stokes solver for a power-law fluid.

The velocity has no time derivative: at each step u minimizes the
convex functional

    J(v) = (1/p) int (|Dv|^2 + delta^2)^(p/2) dx - a int rho^gamma div v dx

over periodic mean-zero fields (the Euler-Lagrange equation is the
momentum balance 0 = div(|Dv|^(p-2) Dv) - a grad rho^gamma), and the
density is then advected by a conservative dimension-by-dimension
upwind update. Velocity is determined only up to constants, so the
mean-zero gauge makes the minimizer unique.

Minimization uses limited-memory BFGS with Armijo backtracking on J.
Its initial inverse Hessian is the scaled inverse of the p = 2 operator
w (|K|^2 I + K K^T)/2, inverted mode-by-mode in Fourier space; Newton
is avoided because the Hessian degenerates wherever |Du| is small at
large p. Each iterate's strain Dv and log(|Dv|^2 + delta^2) are
computed once and shared by J, grad J and the preconditioner scale, and
P is applied to the two fields of an iteration with one batched pair
of FFTs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import Params, SolverDivergence, VacuumError, newton_rules
from .grids import ddx_2d, integrate, sym_grad_2d
from .trajectory import DiagnosticsRecord, State2D, Trajectory


@dataclass
class Stokes2DParams(Params):
    p: float = 8.0
    a: float = 1.0
    gamma: float = 2.0
    delta: float = 1e-8
    cfl: float = 0.4
    newton_tol: float = 1e-6      # L2 norm of grad J at convergence
    newton_max_iter: int = 8000

    def rules(self):
        return [
            ("p", self.p >= 2, "power-law exponent p must be >= 2"),
            ("gamma", self.gamma > 1, "adiabatic exponent gamma must exceed 1"),
            ("cfl", 0 < self.cfl <= 1, "cfl must lie in (0, 1]"),
        ] + newton_rules(self)


def _strain(v, g, delta):
    """Dv and log(|Dv|^2 + delta^2), the log floored at 1e-320."""
    D = sym_grad_2d(v, g)
    t = D[0] ** 2 + D[1] ** 2 + 2.0 * D[2] ** 2 + delta * delta
    return D, np.log(np.maximum(t, 1e-320))


def _weight(log_t, p):
    """(|D|^2 + delta^2)^((p-2)/2) from its log, safe for large p."""
    with np.errstate(over="ignore"):
        return np.exp(0.5 * (p - 2.0) * log_t)


def _grad(f, g):
    """Central-difference gradient of a scalar field, as two arrays."""
    return ddx_2d(f, g, axis=0), ddx_2d(f, g, axis=1)


def _shared(memo, compute, x, *args):
    """compute(x, *args); with a solve's memo dict, once per array x.

    An entry is reused while x is the same object, and holds x, so its
    id is not recycled. It is therefore stale if x is changed in place,
    which is why the solve owns the memo and no module state does.
    """
    if memo is None:
        return compute(x, *args)
    hit = memo.get(compute)
    if hit is None or hit[0] is not x:
        hit = memo[compute] = (x, compute(x, *args))
    return hit[1]


def functional(v, rho_gamma_a, g, p, delta, memo=None):
    """J(v); +inf is possible for wild iterates at large p."""
    D, log_t = _shared(memo, _strain, v, g, delta)
    with np.errstate(over="ignore"):
        dens = np.exp(0.5 * p * log_t) / p
    # D[0] + D[1] is the central divergence, bit for bit
    return float((dens - rho_gamma_a * (D[0] + D[1])).sum() * g.dx * g.dy)


def functional_gradient(v, rho_gamma_a, g, p, delta, memo=None):
    """Discrete adjoint gradient of J: -div(W Dv) + grad(a rho^gamma)."""
    D, log_t = _shared(memo, _strain, v, g, delta)
    W = _weight(log_t, p)
    s11, s22, s12 = W * D[0], W * D[1], W * D[2]
    r1, r2 = _shared(memo, _grad, rho_gamma_a, g)
    g1 = -(ddx_2d(s11, g, axis=0) + ddx_2d(s12, g, axis=1)) + r1
    g2 = -(ddx_2d(s12, g, axis=0) + ddx_2d(s22, g, axis=1)) + r2
    return np.stack([g1, g2])


class _FourierPreconditioner:
    """Invert w (|K|^2 I + K K^T)/2 mode-by-mode.

    K_j = sin(2 pi k_j h_j)/h_j is the central-difference symbol, so for
    p = 2 and w = 1 this is the exact discrete momentum operator. The
    symbol vanishes on the zero mode and the pure Nyquist (checkerboard)
    modes; those flat directions are projected out, which also stops
    roundoff from leaking into them during the iteration.
    """

    def __init__(self, g, w):
        kx = np.fft.fftfreq(g.nx, d=g.dx)
        ky = np.fft.rfftfreq(g.ny, d=g.dy)
        Kx = (np.sin(2.0 * np.pi * kx * g.dx) / g.dx)[:, None]
        Ky = (np.sin(2.0 * np.pi * ky * g.dy) / g.dy)[None, :]
        k2 = Kx**2 + Ky**2
        null = k2 <= 1e-12 * float(np.max(k2))
        a11 = 0.5 * w * (k2 + Kx**2)
        a22 = 0.5 * w * (k2 + Ky**2)
        a12 = 0.5 * w * (Kx * Ky)
        det = a11 * a22 - a12**2   # = (w/2)^2 2 k2^2, zero only on null
        det[null] = 1.0
        self.i11 = np.where(null, 0.0, a22 / det)
        self.i22 = np.where(null, 0.0, a11 / det)
        self.i12 = np.where(null, 0.0, -a12 / det)

    def apply(self, r):
        """P r for vector fields r stacked as (..., 2, nx, ny), with one
        forward and one inverse transform for the whole stack."""
        R = np.fft.rfft2(r)
        r1, r2 = R[..., 0, :, :], R[..., 1, :, :]
        Z = np.empty_like(R)
        Z[..., 0, :, :] = self.i11 * r1 + self.i12 * r2
        Z[..., 1, :, :] = self.i12 * r1 + self.i22 * r2
        return np.fft.irfft2(Z, s=r.shape[-2:])


def solve_momentum(rho, params, g, u_init=None):
    """Minimize J over mean-zero periodic velocity fields.

    First-order method (the Hessian degenerates wherever |Du| is small
    at large p, so Newton is avoided): limited-memory BFGS with Armijo
    backtracking on J. The two-loop recursion starts from H0 = gamma_k P,
    P the Fourier p = 2 preconditioner and gamma_k = s'y / y'Py from the
    newest pair (Nocedal & Wright, Numerical Optimization, 2nd ed., eq.
    7.20, preconditioned); the clipped viscosity of P alone makes unit
    steps far too long. P q and P y come from one batched call.

    Each iterate's strain Dv and log(|Dv|^2 + delta^2) are computed
    once: functional at a trial point leaves them in the solve's memo,
    and functional_gradient and the preconditioner scale of the
    accepted point read them there; grad(a rho^gamma) is computed once
    per solve. Returns the minimizer; raises SolverDivergence with the
    iteration trace if the gradient norm fails to reach newton_tol.
    """
    p, delta, a = params.p, params.delta, params.a
    rga = a * rho**params.gamma
    u = np.zeros((2, g.nx, g.ny)) if u_init is None else u_init.copy()
    u -= u.mean(axis=(1, 2), keepdims=True)

    area = g.dx * g.dy
    memo = {}  # shared by the calls on one iterate; see _shared

    def gnorm(grad):
        return math.sqrt((grad * grad).sum() * area)

    def make_precond(v):
        # weight = typical effective viscosity of the iterate, clipped:
        # a cold start has W ~ delta^(p-2), which is a useless scale
        _, log_t = _shared(memo, _strain, v, g, delta)
        w0 = float(np.median(_weight(log_t, p)))
        return _FourierPreconditioner(g, min(max(w0, 1e-3), 1e3))

    J = functional(u, rga, g, p, delta, memo)
    grad = functional_gradient(u, rga, g, p, delta, memo)
    gn = gnorm(grad)
    precond = make_precond(u)
    memory = []  # (s, y, 1/<y, s>) pairs, most recent last
    trace = [gn]

    for it in range(params.newton_max_iter):
        if gn < params.newton_tol:
            u -= u.mean(axis=(1, 2), keepdims=True)
            return u
        # two-loop recursion with H0 = gamma_k P
        q = grad.copy()
        alphas = []
        for s, y, irho in reversed(memory):
            a_k = irho * float((s * q).sum())
            alphas.append(a_k)
            q -= a_k * y
        if memory:
            _, y, irho = memory[-1]
            z, Py = precond.apply(np.stack([q, y]))
            z /= irho * float((y * Py).sum())
        else:
            z = precond.apply(q)
        for (s, y, irho), a_k in zip(memory, reversed(alphas)):
            b_k = irho * float((y * z).sum())
            z += (a_k - b_k) * s
        d = -z
        slope = float((grad * d).sum() * area)
        if slope >= 0:  # curvature info stale; restart
            memory.clear()
            precond = make_precond(u)
            d = -precond.apply(grad)
            slope = float((grad * d).sum() * area)
        alpha = 1.0
        for _ in range(80):
            u_new = u + alpha * d
            J_new = functional(u_new, rga, g, p, delta, memo)
            if math.isfinite(J_new) and J_new <= J + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            raise SolverDivergence(
                f"line search stalled at |grad J| = {gn:.3e}", trace=trace)
        step = alpha * d
        u = u_new
        J = J_new
        grad_new = functional_gradient(u, rga, g, p, delta, memo)
        yk = grad_new - grad
        ys = float((yk * step).sum())
        if ys > 1e-14 * math.sqrt((yk * yk).sum() * (step * step).sum()):
            memory.append((step, yk, 1.0 / ys))
            if len(memory) > 12:
                memory.pop(0)
        grad = grad_new
        gn = gnorm(grad)
        trace.append(gn)

    raise SolverDivergence(
        f"|grad J| = {gn:.3e} > tol {params.newton_tol:.1e} "
        f"after {params.newton_max_iter} iterations", trace=trace)


def _upwind_flux(rho, un, axis, g):
    """Face flux along one axis; face velocity is the central average
    with sign-upwinding (central average of rho at ties)."""
    u_face = 0.5 * (un + np.roll(un, -1, axis=axis))
    rho_up = np.where(u_face > 0, rho,
                      np.where(u_face < 0, np.roll(rho, -1, axis=axis),
                               0.5 * (rho + np.roll(rho, -1, axis=axis))))
    return u_face * rho_up


def transport_density(rho, u, dt, g):
    """Conservative upwind transport, dimension-by-dimension fluxes.

    The two flux differences are applied in one unsplit update, so a
    discretely solenoidal velocity advects a constant density exactly.
    """
    fx = _upwind_flux(rho, u[0], 0, g)
    fy = _upwind_flux(rho, u[1], 1, g)
    d = (fx - np.roll(fx, 1, axis=0)) * (dt / g.dx) \
        + (fy - np.roll(fy, 1, axis=1)) * (dt / g.dy)
    d -= d.mean()  # conservation to machine precision
    return rho - d


def _record_2d(state, g, params, dt, acc):
    """Diagnostics of one state; leaves its dissipation rate
    int W |Du|^2 in acc["rate"] for the next step's accumulation."""
    rho, u = state.rho, state.u
    D, log_t = _strain(u, g, params.delta)
    dsq = D[0] ** 2 + D[1] ** 2 + 2.0 * D[2] ** 2
    dn = np.sqrt(dsq)
    W = _weight(log_t, params.p)
    acc["rate"] = integrate(W * dsq, g)
    sigma = W * dn - params.a * rho**params.gamma
    energy = params.a / (params.gamma - 1.0) * integrate(rho**params.gamma, g)
    mom = np.array([integrate(rho * u[0], g), integrate(rho * u[1], g)])
    return DiagnosticsRecord(
        t=state.t, dt=dt,
        mass=integrate(rho, g),
        momentum=float(np.hypot(*mom)),
        energy=energy,
        dissipation_cum=acc["dissipation"],
        rho_min=float(np.min(rho)),
        rho_max=float(np.max(rho)),
        dudx_maxabs=float(np.max(dn)),
        sigma_max=float(np.max(sigma)),
        hoff_cum=acc["hoff"],
        lpnorm_term=acc["rate"] / params.p,
    )


def run_2d(params, g, rho0, T, snapshot_times=None):
    """Alternate momentum solves and density transport to time T."""
    from .stepper1d import snapshot_schedule_with_final

    rho = np.asarray(rho0, dtype=float).copy()
    if np.min(rho) < 0:
        raise VacuumError("initial density must be nonnegative")
    u = solve_momentum(rho, params, g)
    state = State2D(rho, u, 0.0)
    traj = Trajectory("semistationary2d", g, params, [state.copy()], [])
    acc = {"dissipation": 0.0, "hoff": 0.0}
    traj.records.append(_record_2d(state, g, params, 0.0, acc))

    targets = snapshot_schedule_with_final(T, snapshot_times)
    t = 0.0
    ti = 0
    while t < T - 1e-14:
        umax1 = float(np.max(np.abs(state.u[0])))
        umax2 = float(np.max(np.abs(state.u[1])))
        speed = umax1 / g.dx + umax2 / g.dy
        dt_cfl = params.cfl / max(speed, 1e-12)
        next_stop = targets[ti] if ti < len(targets) else T
        dt = min(dt_cfl, next_stop - t)

        rho_new = transport_density(state.rho, state.u, dt, g)
        u_new = solve_momentum(rho_new, params, g, u_init=state.u)
        adv1 = u_new[0] * ddx_2d(u_new[0], g, 0) + u_new[1] * ddx_2d(u_new[0], g, 1)
        adv2 = u_new[0] * ddx_2d(u_new[1], g, 0) + u_new[1] * ddx_2d(u_new[1], g, 1)
        udot = (u_new - state.u) / dt + np.stack([adv1, adv2])

        acc["dissipation"] += dt * acc["rate"]  # rate of state.u
        acc["hoff"] += dt * integrate(rho_new * (udot[0] ** 2 + udot[1] ** 2), g)
        state = State2D(rho_new, u_new, t + dt)
        t = state.t
        traj.records.append(_record_2d(state, g, params, dt, acc))
        if ti < len(targets) and abs(t - targets[ti]) <= 1e-12 * max(1.0, T):
            traj.snapshots.append(state.copy())
            ti += 1
    return traj


def check_linf_growth(traj, tol_c=5.0):
    """max rho(t) against max rho(0) e^t, with slack tol_c (dx + dt)."""
    from .diagnostics import CheckReport

    g = traj.grid
    dts = [r.dt for r in traj.records if r.dt > 0]
    dt_typ = max(dts) if dts else 0.0
    tol = tol_c * (g.dx + dt_typ)
    rho0_max = traj.records[0].rho_max
    ratio = max(r.rho_max / (rho0_max * np.exp(r.t)) for r in traj.records)
    return CheckReport.build(
        check="linf_growth_2d", bound=1.0, measured=ratio, tolerance=tol,
        context={"rho0_max": rho0_max, "T": traj.records[-1].t})
