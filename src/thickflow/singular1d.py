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

from . import diagnostics as dg
from .errors import ConstraintViolation, Params, solver_rules
from .grids import integrate
from .stepper1d import (Model1D, advance, barotropic_llf_update, face_shear,
                        implicit_shear_solve)


@dataclass
class SingularParams(Params):
    eps: float = 1e-2
    a: float = 1.0
    gamma: float = 2.0
    cfl: float = 0.4
    newton_tol: float = 1e-12
    newton_max_iter: int = 800
    theta: float = 0.95

    def rules(self):
        return [
            ("eps", self.eps > 0, "viscosity scale eps must be positive"),
            ("theta", 0 < self.theta < 1,
             "fraction-to-boundary factor theta must be in (0, 1)"),
        ] + solver_rules(self)


def _outside(s, smax):
    """True when some |s| >= 1; smax = max |s| is nan when s holds a nan."""
    return not smax < 1.0 and bool(np.any(np.abs(s) >= 1.0))


class SingularModel(Model1D):
    """Adapter wiring SingularParams into the shared 1D stepper. Its
    shared intermediates are 1 - s^2, its square root and max |s|."""

    name = "singular1d"
    params_class = SingularParams

    @staticmethod
    def initial_shear_error(smax):
        if smax >= 1.0:
            return (f"|du0/dx| reaches {smax:.4g}; the singular model "
                    "requires |du0/dx| < 1")

    def initial_state(self, rho0, u0):
        state = super().initial_state(rho0, u0)
        if np.max(np.abs(face_shear(state.u, self.g))) >= 1.0:
            raise ConstraintViolation("initial data must satisfy |du/dx| < 1")
        return state

    @staticmethod
    @np.errstate(invalid="ignore")
    def _intermediates(s):
        # the root is nan where s lies outside the barrier
        q = 1.0 - s * s
        return q, np.sqrt(q), float(np.abs(s).max())

    def flux(self, s):
        """eps s / sqrt(1 - s^2); odd, strictly monotone, blows up at
        |s| -> 1."""
        _, root, smax = self._shared(s)
        if _outside(s, smax):
            raise ConstraintViolation(
                f"shear magnitude {smax:.6g} reached the |du/dx| = 1 barrier")
        return self.params.eps * s / root

    def dflux(self, s):
        q, _, smax = self._shared(s)
        if _outside(s, smax):
            raise ConstraintViolation("shear at the barrier in flux derivative")
        return self.params.eps * q ** -1.5

    def potential(self, s):
        """Convex primitive of the barrier flux: -eps sqrt(1 - s^2),
        +inf outside the feasible region (merit line search rejects)."""
        q, root, smax = self._shared(s)
        if smax < 1.0:
            return -self.params.eps * root
        return np.where(q > 0, -self.params.eps * root, np.inf)

    def lp_term(self, s, f, g):
        # no L^p norm term for the singular model
        return 0.0

    def step(self, state, dt, forcing=None, prev=None):
        g, pr = self.g, self.params
        s0 = face_shear(state.u, g)
        if np.max(np.abs(s0)) >= 1.0:
            raise ConstraintViolation("entry state violates |du/dx| < 1")
        rho1, m1 = barotropic_llf_update(state.rho, state.u, pr.a, pr.gamma, dt, g)
        rho1, u_star = self._after_transport(state, dt, forcing, rho1, m1)
        # Newton starts at the linear extrapolation in time of the last
        # accepted step when that lies inside the barrier, else at u^n,
        # which was accepted and so is feasible
        u_init = state.u
        if prev is not None:
            u_prev, dt_prev = prev
            u_pred = state.u + (dt / dt_prev) * (state.u - u_prev)
            if np.max(np.abs(face_shear(u_pred, g))) < 1.0:
                u_init = u_pred
        u_new, info = implicit_shear_solve(
            u_init, u_star, rho1, dt, g, self.flux, self.dflux,
            pr.newton_tol, pr.newton_max_iter, potential=self.potential,
            ftb_theta=pr.theta)
        s = info["shear"]
        if np.max(np.abs(s)) >= 1.0:
            raise ConstraintViolation("scheme bug: accepted state at the barrier")
        new_state, inc = self._accept(state, dt, rho1, u_new, info)
        inc["aux"] = dt * pr.eps * integrate(1.0 / np.sqrt(1.0 - s * s), g)
        return new_state, inc, info

    def checks(self, cfg, traj):
        return super().checks(cfg, traj) + [dg.check_barrier_invariant(traj)]

    @classmethod
    def run(cls, params, g, rho0, u0, T, snapshot_times=None, forcing=None,
            sink=None):
        """Integrate; records carry the singular dissipation and the uniform
        quantity eps int 1/sqrt(1 - s^2) in dissipation_cum / aux_cum."""
        return advance(cls(params, g), rho0, u0, T, snapshot_times,
                       forcing=forcing, sink=sink)

