"""Solver for the 1D system with singular shear-rate viscosity.

The viscous flux eps s / sqrt(1 - s^2) blows up as |s| -> 1, which
enforces |du/dx| < 1 pointwise at every accepted step. The implicit
Newton solve shares the splitting and transport of the power-law solver
but scales every update by a fraction-to-boundary rule so the iterates
never leave the feasible region: after each scaled update the face
shear satisfies |s| <= 1 - theta (1 - max|s_current|).

With the default theta = 0.95 the gap to the barrier shrinks by at most
5% per Newton iteration, so strongly loaded steps need a few hundred
iterations before the residual tolerance is reachable; the default
iteration budget is sized accordingly.

Useful algebraic identity of the flux (used in the energy records):
eps s^2 / sqrt(1 - s^2) = eps / sqrt(1 - s^2) - eps sqrt(1 - s^2).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, VacuumError
from .grids import integrate
from .stepper1d import (Model1D, advance, barotropic_llf_update, face_shear,
                        implicit_shear_solve, material_derivative)
from .trajectory import State1D


@dataclass
class SingularParams:
    eps: float = 1e-2
    a: float = 1.0
    gamma: float = 2.0
    cfl: float = 0.4
    newton_tol: float = 1e-12
    newton_max_iter: int = 800
    theta: float = 0.95

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("viscosity scale eps must be positive")
        if self.gamma <= 1:
            raise ValueError("adiabatic exponent gamma must exceed 1")
        if not 0 < self.theta < 1:
            raise ValueError("fraction-to-boundary factor theta must be in (0, 1)")
        if not 0 < self.cfl <= 1:
            raise ValueError("cfl must lie in (0, 1]")


def singular_flux(s, eps):
    """eps s / sqrt(1 - s^2); odd, strictly monotone, blows up at |s| -> 1."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(np.abs(s_arr) >= 1.0):
        raise ConstraintViolation(
            f"shear magnitude {float(np.max(np.abs(s_arr))):.6g} reached the "
            "|du/dx| = 1 barrier")
    out = eps * s_arr / np.sqrt(1.0 - s_arr * s_arr)
    return float(out[0]) if np.ndim(s) == 0 else out


def singular_flux_derivative(s, eps):
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(np.abs(s_arr) >= 1.0):
        raise ConstraintViolation("shear at the barrier in flux derivative")
    out = eps * (1.0 - s_arr * s_arr) ** -1.5
    return float(out[0]) if np.ndim(s) == 0 else out


class SingularModel(Model1D):
    """Adapter wiring SingularParams into the shared 1D stepper."""

    name = "singular1d"

    def flux(self, s):
        return singular_flux(s, self.params.eps)

    def dflux(self, s):
        return singular_flux_derivative(s, self.params.eps)

    def potential(self, s):
        """Convex primitive of the barrier flux: -eps sqrt(1 - s^2),
        +inf outside the feasible region (merit line search rejects)."""
        eps = self.params.eps
        t = 1.0 - s * s
        out = np.full_like(s, np.inf)
        inside = t > 0
        out[inside] = -eps * np.sqrt(t[inside])
        return out

    def dissipation_density(self, s):
        return singular_flux(s, self.params.eps) * s

    def lp_term(self, s, g):
        # no L^p norm term for the singular model
        return 0.0

    def step(self, state, dt, forcing=None):
        g, pr = self.g, self.params
        s0 = face_shear(state.u, g)
        if np.max(np.abs(s0)) >= 1.0:
            raise ConstraintViolation("entry state violates |du/dx| < 1")
        rho1, m1 = barotropic_llf_update(state.rho, state.u, pr.a, pr.gamma, dt, g)
        if forcing is not None:
            f_rho, f_mom = forcing
            rho1 = rho1 + dt * f_rho(state.t, g.x)
            m1 = m1 + dt * f_mom(state.t, g.x)
        if np.min(rho1) <= 0:
            raise VacuumError(f"density reached {float(np.min(rho1)):.3e} "
                              f"after transport at t = {state.t:.6g}")
        u_star = m1 / rho1
        # the post-transport velocity may be infeasible; fall back to the
        # previous velocity as the (always feasible) Newton starting point
        if np.max(np.abs(face_shear(u_star, g))) < 1.0 - 1e-9:
            u_init = u_star
        else:
            u_init = state.u
        u_new, _ = implicit_shear_solve(
            u_init, u_star, rho1, dt, g, self.flux, self.dflux,
            pr.newton_tol, pr.newton_max_iter, potential=self.potential,
            ftb_theta=pr.theta)
        s = face_shear(u_new, g)
        if np.max(np.abs(s)) >= 1.0:
            raise ConstraintViolation("scheme bug: accepted state at the barrier")
        new_state = State1D(rho1, u_new, state.t + dt)
        udot = material_derivative(u_new, state.u, dt, g)
        inc = {
            "dissipation": dt * integrate(self.dissipation_density(s), g),
            "hoff": dt * integrate(rho1 * udot**2, g),
            "aux": dt * pr.eps * integrate(1.0 / np.sqrt(1.0 - s * s), g),
        }
        return new_state, inc

    @classmethod
    def run(cls, params, g, rho0, u0, T, snapshot_times=None, forcing=None):
        """Integrate; records carry the singular dissipation and the uniform
        quantity eps int 1/sqrt(1 - s^2) in dissipation_cum / aux_cum."""
        model = cls(params, g)
        if np.max(np.abs(face_shear(np.asarray(u0, dtype=float), g))) >= 1.0:
            raise ConstraintViolation("initial data must satisfy |du/dx| < 1")
        return advance(model, g, rho0, u0, T, snapshot_times, forcing=forcing)


run_singular = SingularModel.run
