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

from . import diagnostics as dg
from .errors import FluxOverflow, Params, solver_rules
from .grids import integrate
from .stepper1d import (Model1D, advance, barotropic_llf_update,
                        implicit_shear_solve)

_LOG_CLAMP = np.log(1e300)


@dataclass
class PowerLawParams(Params):
    p: float = 8.0
    mu: float = 1.0
    a: float = 1.0
    gamma: float = 2.0
    delta: float = 1e-8
    cfl: float = 0.4
    newton_tol: float = 1e-12
    newton_max_iter: int = 100

    def rules(self):
        return [
            ("p", self.p >= 2, "power-law exponent p must be >= 2"),
            ("mu", self.mu > 0, "viscosity mu must be positive"),
            ("delta", self.delta >= 0, "flux regularization delta must be >= 0"),
            ("delta", self.delta != 0 or self.p <= 2,
             "delta > 0 required for p > 2 (Newton needs a nondegenerate "
             "Jacobian at zero shear)"),
        ] + solver_rules(self)

    @property
    def max_principle_precondition(self):
        """True when p >= 1 + gamma, the stress-bound hypothesis."""
        return self.p >= 1.0 + self.gamma


# log t and log|s| are -inf where t = s^2 + delta^2 or s vanish: flux
# and dflux, and the intermediates they compute, ignore these
# floating-point errors. As a decorator, np.errstate costs half of
# what a with statement costs. The methods it decorates do not call one
# another, so it is never entered twice at once (numpy 1 keeps the
# state to restore on the instance).
_IGNORE_LOG_ERRORS = np.errstate(divide="ignore", invalid="ignore")


class PowerLawModel(Model1D):
    """Adapter wiring PowerLawParams into the shared 1D stepper. Its
    shared intermediates are t = s^2 + delta^2 and log t."""

    name = "powerlaw1d"
    params_class = PowerLawParams

    @staticmethod
    def initial_shear_error(smax):
        if smax > 1.0 + 1e-12:
            return (f"|du0/dx| reaches {smax:.4g} > 1, violating the "
                    "max-shear initial-data hypothesis")

    def __init__(self, params, g):
        super().__init__(params, g)
        self._log_mu = np.log(params.mu)

    def _intermediates(self, s):
        delta = self.params.delta
        t = s * s + delta * delta
        return t, np.log(t)

    @_IGNORE_LOG_ERRORS
    def flux(self, s):
        """mu (s^2 + delta^2)^((p-2)/2) s; exactly mu |s|^(p-2) s for
        delta = 0."""
        p, delta = self.params.p, self.params.delta
        t, log_t = self._shared(s)
        logmag = self._log_mu + 0.5 * (p - 2.0) * log_t + np.log(np.abs(s))
        if delta * delta == 0.0:
            # only here can t vanish; otherwise log|s| = -inf at s = 0
            # already gives the zero flux
            logmag = np.where((t == 0.0) | (s == 0.0), -np.inf, logmag)
        if logmag.max() > _LOG_CLAMP:
            raise FluxOverflow(f"viscous flux exceeds 1e300 at shear "
                               f"{float(np.max(np.abs(s))):.6g} (p = {p})")
        return np.sign(s) * np.exp(logmag)

    @_IGNORE_LOG_ERRORS
    def dflux(self, s):
        """d/ds of the flux: mu t^((p-4)/2) ((p-1) s^2 + delta^2)."""
        p, mu, delta = self.params.p, self.params.mu, self.params.delta
        t, log_t = self._shared(s)
        num = (p - 1.0) * s * s + delta * delta
        logmag = self._log_mu + 0.5 * (p - 4.0) * log_t + np.log(num)
        t_can_vanish = delta * delta == 0.0
        if t_can_vanish:
            logmag = np.where(t == 0.0, -np.inf, logmag)
        if logmag.max() > _LOG_CLAMP:
            raise FluxOverflow("flux derivative exceeds 1e300")
        out = np.exp(logmag)
        if p == 2.0 and t_can_vanish:
            out = np.where(t == 0.0, mu, out)
        return out

    @np.errstate(divide="ignore", over="ignore")
    def potential(self, s):
        """Convex primitive of the flux: (mu/p) (s^2 + delta^2)^(p/2).

        Overflowing entries come back as +inf (the merit line search
        rejects them); no exception is raised here.
        """
        pr = self.params
        t, log_t = self._shared(s)
        if pr.delta * pr.delta < 1e-320:
            # t may lie below the floor; otherwise t >= delta^2 >= it
            log_t = np.log(np.maximum(t, 1e-320))
        return pr.mu / pr.p * np.exp(0.5 * pr.p * log_t)

    def lp_term(self, s, f, g):
        """(1/p) int (s^2+d^2)^((p-2)/2) s^2 from the face shear s and its
        flux f."""
        pr = self.params
        return pr.mu / pr.p * integrate(f * s / pr.mu, g)

    def step(self, state, dt, forcing=None, prev=None):
        g, pr = self.g, self.params
        rho1, m1 = barotropic_llf_update(state.rho, state.u, pr.a, pr.gamma, dt, g)
        rho1, u_star = self._after_transport(state, dt, forcing, rho1, m1)
        # Newton starts at u^n; prev goes unused, because at large p
        # Newton takes more iterations from the extrapolation in time
        u_new, info = implicit_shear_solve(
            state.u, u_star, rho1, dt, g, self.flux, self.dflux,
            pr.newton_tol, pr.newton_max_iter, potential=self.potential)
        new_state, inc = self._accept(state, dt, rho1, u_new, info)
        return new_state, inc, info

    def checks(self, cfg, traj):
        c1, c2 = cfg.initial_density_range()
        return super().checks(cfg, traj) + [
            dg.check_stress_max_principle(traj, self.params, cfg.tol_c,
                                          cfg.paper_initial_conditions),
            dg.check_density_bounds(traj, self.params, c1, c2, cfg.tol_c)]

    @classmethod
    def run(cls, params, g, rho0, u0, T, snapshot_times=None, forcing=None):
        """Integrate and return the Trajectory with full diagnostics."""
        return advance(cls(params, g), rho0, u0, T, snapshot_times,
                       forcing=forcing)

