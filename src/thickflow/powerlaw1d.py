"""Time-stepping solver for the 1D compressible power-law system.

Unknowns are the density rho > 0 and velocity u on the periodic unit
interval; the momentum equation carries the shear-thickening viscous
flux mu |du/dx|^(p-2) du/dx and the pressure a rho^gamma.

The degenerate flux is smoothed as mu (s^2 + delta^2)^((p-2)/2) s with
delta = 1e-8 by default: this perturbs the flux by O(delta^2) at O(1)
shear and gives the Newton solver a C^1 flux at s = 0. Powers are
evaluated as exponential-of-logarithm with a magnitude clamp at 1e300,
which keeps p = 64 usable for shear slightly above 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FluxOverflow, VacuumError
from .grids import integrate
from .stepper1d import (Model1D, advance, barotropic_llf_update, face_shear,
                        implicit_shear_solve, material_derivative)
from .trajectory import State1D

_LOG_CLAMP = np.log(1e300)


@dataclass
class PowerLawParams:
    p: float = 8.0
    mu: float = 1.0
    a: float = 1.0
    gamma: float = 2.0
    delta: float = 1e-8
    cfl: float = 0.4
    newton_tol: float = 1e-12
    newton_max_iter: int = 100

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("power-law exponent p must be >= 2")
        if self.gamma <= 1:
            raise ValueError("adiabatic exponent gamma must exceed 1")
        if self.mu <= 0 or self.a <= 0:
            raise ValueError("mu and a must be positive")
        if self.delta < 0:
            raise ValueError("flux regularization delta must be >= 0")
        if not 0 < self.cfl <= 1:
            raise ValueError("cfl must lie in (0, 1]")

    @property
    def max_principle_precondition(self):
        """True when p >= 1 + gamma, the stress-bound hypothesis."""
        return self.p >= 1.0 + self.gamma


def viscous_flux(s, params):
    """mu (s^2 + delta^2)^((p-2)/2) s; exactly mu |s|^(p-2) s for delta=0."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    p, mu, delta = params.p, params.mu, params.delta
    t = s_arr * s_arr + delta * delta
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.log(mu) + 0.5 * (p - 2.0) * np.log(t) + np.log(np.abs(s_arr))
    logmag = np.where((t == 0.0) | (s_arr == 0.0), -np.inf, logmag)
    if np.any(logmag > _LOG_CLAMP):
        raise FluxOverflow(f"viscous flux exceeds 1e300 at shear "
                           f"{float(np.max(np.abs(s_arr))):.6g} (p = {p})")
    out = np.sign(s_arr) * np.exp(logmag)
    return float(out[0]) if np.ndim(s) == 0 else out


def viscous_flux_derivative(s, params):
    """d/ds of the regularized flux: mu t^((p-4)/2) ((p-1) s^2 + delta^2)."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    p, mu, delta = params.p, params.mu, params.delta
    t = s_arr * s_arr + delta * delta
    num = (p - 1.0) * s_arr * s_arr + delta * delta
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.log(mu) + 0.5 * (p - 4.0) * np.log(t) + np.log(num)
    degenerate = t == 0.0
    logmag = np.where(degenerate, -np.inf, logmag)
    if np.any(logmag > _LOG_CLAMP):
        raise FluxOverflow("flux derivative exceeds 1e300")
    out = np.exp(logmag)
    if p == 2.0:
        out = np.where(degenerate, mu, out)
    return float(out[0]) if np.ndim(s) == 0 else out


class PowerLawModel(Model1D):
    """Adapter wiring PowerLawParams into the shared 1D stepper."""

    name = "powerlaw1d"

    def __init__(self, params, g):
        if params.delta == 0 and params.p > 2:
            raise ValueError("delta > 0 required for p > 2 (Newton needs a "
                             "nondegenerate Jacobian at zero shear)")
        super().__init__(params, g)

    def flux(self, s):
        return viscous_flux(s, self.params)

    def dflux(self, s):
        return viscous_flux_derivative(s, self.params)

    def potential(self, s):
        """Convex primitive of the flux: (mu/p) (s^2 + delta^2)^(p/2).

        Overflowing entries come back as +inf (the merit line search
        rejects them); no exception is raised here.
        """
        pr = self.params
        t = s * s + pr.delta * pr.delta
        with np.errstate(divide="ignore", over="ignore"):
            return pr.mu / pr.p * np.exp(0.5 * pr.p * np.log(np.maximum(t, 1e-320)))

    def dissipation_density(self, s):
        """Scheme-exact dissipation integrand mu (s^2+d^2)^((p-2)/2) s^2."""
        return viscous_flux(s, self.params) * s

    def lp_term(self, s, g):
        pr = self.params
        return pr.mu / pr.p * integrate(self.dissipation_density(s) / pr.mu, g)

    def step(self, state, dt, forcing=None):
        g, pr = self.g, self.params
        rho1, m1 = barotropic_llf_update(state.rho, state.u, pr.a, pr.gamma, dt, g)
        if forcing is not None:
            f_rho, f_mom = forcing
            rho1 = rho1 + dt * f_rho(state.t, g.x)
            m1 = m1 + dt * f_mom(state.t, g.x)
        if np.min(rho1) <= 0:
            raise VacuumError(f"density reached {float(np.min(rho1)):.3e} "
                              f"after transport at t = {state.t:.6g}")
        u_star = m1 / rho1
        u_new, _ = implicit_shear_solve(
            u_star, u_star, rho1, dt, g, self.flux, self.dflux,
            pr.newton_tol, pr.newton_max_iter, potential=self.potential)
        new_state = State1D(rho1, u_new, state.t + dt)
        s = face_shear(u_new, g)
        udot = material_derivative(u_new, state.u, dt, g)
        inc = {
            "dissipation": dt * integrate(self.dissipation_density(s), g),
            "hoff": dt * integrate(rho1 * udot**2, g),
        }
        return new_state, inc

    @classmethod
    def run(cls, params, g, rho0, u0, T, snapshot_times=None, forcing=None):
        """Integrate and return the Trajectory with full diagnostics."""
        return advance(cls(params, g), g, rho0, u0, T, snapshot_times,
                       forcing=forcing)


def implicit_viscous_solve(u_prev, rho, dt, params, g):
    """Implicit solve of rho (u - u_prev)/dt - d/dx flux(du/dx) = 0."""
    model = PowerLawModel(params, g)
    u, _ = implicit_shear_solve(u_prev, u_prev, rho, dt, g,
                                model.flux, model.dflux,
                                params.newton_tol, params.newton_max_iter,
                                potential=model.potential)
    return u


run = PowerLawModel.run
