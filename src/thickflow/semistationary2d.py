"""2D semi-stationary transport-Stokes solver for a power-law fluid.

The velocity has no time derivative: at each step u minimizes the
convex functional

    J(v) = (1/p) int (|Dv|^2 + delta^2)^(p/2) dx - a int rho^gamma div v dx

over periodic velocity fields (the Euler-Lagrange equation is the
momentum balance 0 = div(|Dv|^(p-2) Dv) - a grad rho^gamma), and the
density is then advected by a conservative dimension-by-dimension
upwind update. The central-difference strain cannot see the constant
or, on an axis of even length, the Nyquist mode, so velocity is
determined only up to these flat modes; the gauge that makes the
minimizer unique is a zero mean over each parity class of cells
(flat_mode_means). The system has no momentum invariant: int rho u
drifts with the density.

Minimization uses limited-memory BFGS with Armijo backtracking on J;
where a step's decrease falls below the rounding unit of J, the step
is judged by the slope of J at the trial point instead.
Its initial inverse Hessian is H0 = s P1 s: P1 inverts the unit-weight
p = 2 operator (|K|^2 I + K K^T)/2 mode-by-mode in Fourier space, and
s = W^(-1/2) pointwise, the iterate's viscosity W = (|Dv|^2 +
delta^2)^((p-2)/2) clipped to a factor BAND about its median; Newton
is avoided because the Hessian degenerates wherever |Du| is small at
large p. Each iterate's strain Dv and log(|Dv|^2 + delta^2) are
computed once and shared by J, grad J and the weight of H0. The
L-BFGS matrix is kept in the compact form of Byrd, Nocedal &
Schnabel (lbfgs.CompactInverse), so an iteration applies H0 once, to
its gradient, and takes H0 y of the newest pair as the difference of
two H0 g.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import diagnostics as dg
from .errors import Params, SolverDivergence, VacuumError, solver_rules
from .grids import ddx_2d, integrate, median, sym_grad_2d
from .lbfgs import CompactInverse
from .stepper1d import advance
from .trajectory import DiagnosticsRecord, State2D

BAND = 3.0  # the preconditioner weight is clipped to [w0/BAND, BAND w0]


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
        ] + solver_rules(self)


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
    s11, s22, s12 = _weight(log_t, p) * D
    r = _shared(memo, _grad, rho_gamma_a, g)
    # component k is -(d/dx sigma_k1 + d/dy sigma_k2) + r_k, in place
    out = np.empty((2,) + D.shape[1:])
    for k, (sx, sy) in enumerate(((s11, s12), (s12, s22))):
        ddx_2d(sx, g, axis=0, out=out[k])
        out[k] += ddx_2d(sy, g, axis=1)
        np.negative(out[k], out=out[k])
        out[k] += r[k]
    return out


# the checks' gradient: bound once, so that a profiler wrapping the
# module's functional_gradient counts only the solver's calls
_check_gradient = functional_gradient


class _FourierPreconditioner:
    """H0 q = s P1(s q), s = clip(W, w0/BAND, BAND w0)^(-1/2) pointwise.

    P1 inverts the unit-weight p = 2 operator (|K|^2 I + K K^T)/2
    mode-by-mode; K_j = sin(2 pi k_j h_j)/h_j is the central-difference
    symbol, so P1 is the exact discrete p = 2 momentum inverse. The
    symbol vanishes on the zero mode and the pure Nyquist (checkerboard)
    modes, which J cannot see; P1 maps them to zero. The pointwise
    scaling by the iterate's viscosity W is the cheapest form of the
    weighted p = 2 preconditioner of Huang, Li & Liu (J. Sci. Comput. 32,
    2007); w0 is the median of W clipped to [1e-3, 1e3], because a cold
    start has W ~ delta^(p-2), which is a useless scale.
    """

    def __init__(self, g, W):
        kx = np.fft.fftfreq(g.nx, d=g.dx)
        ky = np.fft.rfftfreq(g.ny, d=g.dy)
        Kx = (np.sin(2.0 * np.pi * kx * g.dx) / g.dx)[:, None]
        Ky = (np.sin(2.0 * np.pi * ky * g.dy) / g.dy)[None, :]
        k2 = Kx**2 + Ky**2
        null = k2 <= 1e-12 * float(np.max(k2))
        a11 = 0.5 * (k2 + Kx**2)
        a22 = 0.5 * (k2 + Ky**2)
        a12 = 0.5 * (Kx * Ky)
        det = a11 * a22 - a12**2   # = k2^2 / 2, zero only on null
        det[null] = 1.0
        self.i11 = np.where(null, 0.0, a22 / det)
        self.i22 = np.where(null, 0.0, a11 / det)
        self.i12 = np.where(null, 0.0, -a12 / det)
        w0 = min(max(median(W), 1e-3), 1e3)
        self.s = np.clip(W, w0 / BAND, BAND * w0) ** -0.5

    def apply(self, r):
        """H0 r for vector fields r stacked as (..., 2, nx, ny), with one
        forward and one inverse transform for the whole stack."""
        R = np.fft.rfft2(self.s * r)
        r1, r2 = R[..., 0, :, :], R[..., 1, :, :]
        Z = np.empty_like(R)
        Z[..., 0, :, :] = self.i11 * r1 + self.i12 * r2
        Z[..., 1, :, :] = self.i12 * r1 + self.i22 * r2
        return self.s * np.fft.irfft2(Z, s=r.shape[-2:])


def _parity_classes(u):
    """u (c, nx, ny) viewed as (c, nx/sx, sx, ny/sy, sy), sx = 2 on an
    even axis and 1 on an odd one: axes 2 and 4 index the class."""
    c, nx, ny = u.shape
    sx, sy = 2 - nx % 2, 2 - ny % 2
    return u.reshape(c, nx // sx, sx, ny // sy, sy)


def flat_mode_means(u):
    """Per component, the mean of u over each parity class of cells.

    On a periodic axis of even length the central difference cannot see
    the constant or the Nyquist mode (-1)^i, so J cannot see the fields
    that are constant on the classes (i mod 2, j mod 2): they are the
    span of the flat modes. On an odd axis only the constant is flat,
    and the class is the whole axis. The gauge of u is that these means
    vanish.
    """
    return _parity_classes(u).mean(axis=(1, 3))


def _remove_flat_modes(u):
    """u less its flat modes: the orthogonal projection onto the gauge."""
    v = _parity_classes(u)
    return (v - v.mean(axis=(1, 3), keepdims=True)).reshape(u.shape)


def _dot(a, b):
    """<a, b> summed over all entries, by BLAS on the flat views."""
    return float(np.dot(a.ravel(), b.ravel()))


MEMORY = 12  # L-BFGS pairs kept


def solve_momentum(rho, params, g, u_init=None):
    """Minimize J over periodic velocity fields in the flat-mode gauge.

    First-order method (the Hessian degenerates wherever |Du| is small
    at large p, so Newton is avoided): limited-memory BFGS with Armijo
    backtracking on J, of the newest MEMORY pairs. The direction is
    -H grad J, H the L-BFGS matrix from gamma_k H0 in the compact form
    of lbfgs.CompactInverse: H0 = s P1 s the viscosity-weighted Fourier
    p = 2 inverse (see _FourierPreconditioner: s = W^(-1/2), W clipped
    to a factor BAND about its median) and gamma_k = s'y / y'H0 y from the
    newest pair (Nocedal & Wright, Numerical Optimization, 2nd ed., eq.
    7.20, preconditioned). H0 is built from the iterate's W at the start
    and at each restart, which empties the pairs. Between restarts it
    does not change, so H0 y = H0 g_new - H0 g_old, and each iteration
    applies H0 once, to its gradient; after a restart H0 g is applied
    anew with the new H0. A pair is stored if it passes the curvature
    test and y'H0 y > 0.

    J and grad J cannot see the flat modes (the constant and, on even
    axes, the Nyquist modes), and s P1 s does not keep them out of the
    iterates, so they are removed once on entry and once on exit: the
    minimizer returned has zero mean over each parity class of cells
    (flat_mode_means), which makes it unique.

    Near the minimizer a step can lower J by less than its rounding
    unit; Armijo's test of J is then noise and shrinks the steps to
    nothing. So a trial step whose asked-for decrease -alpha * slope is
    below ulp(J) is accepted instead when the slope at the trial point,
    phi'(alpha) = <grad J(u + alpha d), d>, is at most (2c - 1) phi'(0),
    c = 0.1: Hager & Zhang's approximate Armijo condition (SIAM J.
    Optim. 16, 2005), Armijo's own on a quadratic. Near the minimizer
    |J| = (1 - 1/p) int |Dv|^p for small delta, the size of J's terms,
    so ulp(J) is the scale of its roundoff.

    Each iterate's strain Dv and log(|Dv|^2 + delta^2) are computed
    once: functional at a trial point leaves them in the solve's memo,
    and functional_gradient and the weight of H0 at the accepted point
    read them there; grad(a rho^gamma) is computed once per solve. Every
    inner product is one BLAS dot, and every product with all the stored
    pairs one BLAS matrix-vector product. Returns the minimizer; raises
    SolverDivergence, whose message gives the gradient norm, if that
    norm fails to reach newton_tol.
    """
    p, delta, a = params.p, params.delta, params.a
    rga = a * rho**params.gamma
    u = _remove_flat_modes(np.zeros((2, g.nx, g.ny)) if u_init is None
                           else u_init)

    area = g.dx * g.dy
    memo = {}  # shared by the calls on one iterate; see _shared

    def gnorm(grad):
        return math.sqrt(_dot(grad, grad) * area)

    def make_precond(v):
        _, log_t = _shared(memo, _strain, v, g, delta)
        return _FourierPreconditioner(g, _weight(log_t, p))

    J = functional(u, rga, g, p, delta, memo)
    grad = functional_gradient(u, rga, g, p, delta, memo)
    gn = gnorm(grad)
    precond = make_precond(u)
    pairs = CompactInverse(MEMORY, u.size)
    pending = None  # the last step's (s, y, s'y) and H0 g before it

    for it in range(params.newton_max_iter):
        if gn < params.newton_tol:
            return _remove_flat_modes(u)
        h = precond.apply(grad)
        if pending is not None:
            # H0 has not changed since the last step, so H0 y is the
            # difference of the two H0 g
            step, yk, ys, h_old = pending
            w = h - h_old
            yw = _dot(yk, w)
            if yw > 0:
                pairs.add(step, yk, w, ys, yw)
        d = -pairs.apply(grad, h)
        slope = _dot(grad, d) * area
        if slope >= 0:  # curvature info stale; restart
            pairs.clear()
            precond = make_precond(u)
            h = precond.apply(grad)
            d = -h
            slope = _dot(grad, d) * area
        alpha = 1.0
        grad_new = None
        for _ in range(80):
            u_new = u + alpha * d
            J_new = functional(u_new, rga, g, p, delta, memo)
            if math.isfinite(J_new) and J_new <= J + 1e-4 * alpha * slope:
                break
            if -alpha * slope <= math.ulp(J):
                # J cannot show the decrease asked for: decide by the
                # slope at the trial point (approximate Armijo, c = 0.1)
                grad_new = functional_gradient(u_new, rga, g, p, delta, memo)
                if _dot(grad_new, d) * area <= -0.8 * slope:
                    break
                grad_new = None
            alpha *= 0.5
        else:
            raise SolverDivergence(
                f"line search stalled at |grad J| = {gn:.3e}")
        step = alpha * d
        u = u_new
        J = J_new
        if grad_new is None:
            grad_new = functional_gradient(u, rga, g, p, delta, memo)
        yk = grad_new - grad
        ys = _dot(yk, step)
        pending = None
        if ys > 1e-14 * math.sqrt(_dot(yk, yk) * _dot(step, step)):
            pending = step, yk, ys, h
        grad = grad_new
        gn = gnorm(grad)

    raise SolverDivergence(
        f"|grad J| = {gn:.3e} > tol {params.newton_tol:.1e} "
        f"after {params.newton_max_iter} iterations")


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


class Stokes2DModel:
    """The semi-stationary solver in advance's protocol: a step moves the
    density, then solves for the velocity at the new density from the
    old one. u0, forcing and prev are not used."""

    name = "semistationary2d"
    params_class = Stokes2DParams
    ndim = 2

    def __init__(self, params, g):
        self.params = params
        self.g = g

    def _strain_rate(self, u):
        """|Du|^2, the viscosity W and the dissipation rate int W |Du|^2."""
        D, log_t = _strain(u, self.g, self.params.delta)
        dsq = D[0] ** 2 + D[1] ** 2 + 2.0 * D[2] ** 2
        W = _weight(log_t, self.params.p)
        return dsq, W, integrate(W * dsq, self.g)

    def initial_state(self, rho0, u0):
        rho = np.asarray(rho0, dtype=float).copy()
        if np.min(rho) < 0:
            raise VacuumError("initial density must be nonnegative")
        return State2D(rho, solve_momentum(rho, self.params, self.g), 0.0)

    def cfl_dt(self, state):
        g = self.g
        umax1 = float(np.max(np.abs(state.u[0])))
        umax2 = float(np.max(np.abs(state.u[1])))
        return self.params.cfl / max(umax1 / g.dx + umax2 / g.dy, 1e-12)

    def step(self, state, dt, forcing=None, prev=None):
        g, u = self.g, state.u
        rho_new = transport_density(state.rho, u, dt, g)
        u_new = solve_momentum(rho_new, self.params, g, u_init=u)
        udot = (u_new - u) / dt + np.stack(
            [u_new[0] * ddx_2d(c, g, 0) + u_new[1] * ddx_2d(c, g, 1)
             for c in u_new])
        inc = {"dissipation": dt * self._strain_rate(u)[2],  # rate of u^n
               "hoff": dt * integrate(rho_new * (udot[0]**2 + udot[1]**2), g)}
        return State2D(rho_new, u_new, state.t + dt), inc, None

    def record(self, state, dt, acc, info):
        pr, g = self.params, self.g
        rho, u = state.rho, state.u
        dsq, W, rate = self._strain_rate(u)
        dn = np.sqrt(dsq)
        sigma = W * dn - pr.a * rho**pr.gamma
        energy = pr.a / (pr.gamma - 1.0) * integrate(rho**pr.gamma, g)
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
            lpnorm_term=rate / pr.p,
        )

    def checks(self, cfg, traj):
        """int rho u is no invariant of the semi-stationary system; its
        solver fixes the flat-mode gauge of u and makes u stationary for
        J, which replace the momentum check."""
        return [dg.check_conservation(traj)[0], check_gauge(traj),
                check_stationarity(traj),
                dg.check_energy_inequality(traj, tol=cfg.energy_tol),
                check_linf_growth(traj, tol_c=cfg.tol_c)]

    def write_csvs(self, traj, outdir):
        from .trajectory import write_diag_csv, write_snapshots_2d

        paths = write_snapshots_2d(traj, outdir)
        paths.append(os.path.join(outdir, "diag.csv"))
        write_diag_csv(traj, paths[-1], maxabs_name="Du_maxnorm")
        return paths

    def shear_and_multiplier(self, u):
        """|Du| and pi = W |Du|, the norm of the viscous stress."""
        dsq, W, _ = self._strain_rate(u)
        shear = np.sqrt(dsq)   # sym_grad_norm, bit for bit
        return shear, W * shear

    @classmethod
    def run(cls, params, g, rho0, u0, T, snapshot_times=None, forcing=None):
        """Alternate density transport and momentum solves to time T."""
        return advance(cls(params, g), rho0, u0, T, snapshot_times,
                       forcing=forcing)


def check_linf_growth(traj, tol_c):
    """max rho(t) against max rho(0) e^t, with slack tol_c (dx + dt)."""
    tol = dg._consistency_tol(traj, tol_c)
    rho0_max = traj.records[0].rho_max
    ratio = max(r.rho_max / (rho0_max * np.exp(r.t)) for r in traj.records)
    return dg.CheckReport.build(
        check="linf_growth_2d", bound=1.0, measured=ratio, tolerance=tol,
        context={"rho0_max": rho0_max, "T": traj.records[-1].t})


def check_gauge(traj):
    """The flat-mode gauge of the snapshots: max |flat_mode_means(u)|
    relative to max |u|, against 0 with tolerance 1e-12.

    This, not |int rho u|, is what the 2D system fixes. Its momentum
    balance has no time derivative, so int rho u is not an invariant:
    on non-symmetric data it drifts on a correct run by the same amount
    at every newton_tol. solve_momentum returns every velocity through
    _remove_flat_modes, so the gauge holds by construction; the check
    guards the fields written against a change to that exit.
    check_stationarity tests what the solve computes.
    """
    worst = 0.0
    for snap in traj.snapshots:
        scale = float(np.max(np.abs(snap.u)))
        if scale > 0:
            means = float(np.max(np.abs(flat_mode_means(snap.u))))
            worst = max(worst, means / scale)
    return dg.CheckReport.build(
        check="flat_mode_gauge_2d", bound=0.0, measured=worst, tolerance=1e-12,
        context={"snapshots": len(traj.snapshots)})


def check_stationarity(traj):
    """Max over the snapshots of |grad J(u)| at their own density, in
    units of newton_tol, against 1: each velocity written is a minimizer
    of J to the solver's tolerance. The tolerance 1e-6 covers the
    roundoff of removing the flat modes after the solver's last test."""
    g, pr = traj.grid, traj.params
    worst = 0.0
    for snap in traj.snapshots:
        grad = _check_gradient(snap.u, pr.a * snap.rho**pr.gamma, g,
                               pr.p, pr.delta)
        worst = max(worst, math.sqrt(_dot(grad, grad) * g.dx * g.dy))
    return dg.CheckReport.build(
        check="stationarity_2d", bound=1.0, measured=worst / pr.newton_tol,
        tolerance=1e-6,
        context={"newton_tol": pr.newton_tol, "grad_norm_max": worst,
                 "snapshots": len(traj.snapshots)})
