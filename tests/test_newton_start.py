"""The implicit step's Newton solve does not depend on where it starts.

The power-law model starts Newton at the previous velocity u^n. The
singular model starts at the linear extrapolation in time of the last
accepted step, u^n + (dt / dt_prev) (u^n - u^(n-1)), when that lies
inside the shear barrier, and at u^n otherwise. Before either, both
started at the post-transport velocity u*. The residual R(u) = W (u -
u*) - d/dx flux(s(u)), W = rho / dt, has a Jacobian, and so a mean
Jacobian between two points, that is a diagonally dominant M-matrix
with row sums W (dflux >= 0). So two velocities with scaled residuals
max |R / W| of rn1 and rn2 differ by at most rn1 + rn2 in max norm:
the solves from u* and from the extrapolation must each agree with the
solve from u^n to within twice newton_tol, or the floors of solves
that stop there.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thickflow.grids import Grid1D
from thickflow.powerlaw1d import PowerLawModel, PowerLawParams
from thickflow.singular1d import SingularModel, SingularParams
from thickflow.stepper1d import face_shear, implicit_shear_solve


@st.composite
def fourier_field(draw, g, max_shear):
    """One or two Fourier modes whose face shear peaks at max_shear."""
    u = np.zeros(g.n)
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, 3))
        phase = draw(st.floats(0.0, 2 * np.pi))
        u += draw(st.floats(0.2, 1.0)) * np.sin(2 * np.pi * k * g.x + phase)
    return u * (max_shear / np.abs(face_shear(u, g)).max())


@st.composite
def implicit_steps(draw):
    """A model and the data of one implicit step: u^n, u*, rho, dt, and
    an extrapolated start u^n + r (u^n - u^(n-1)) inside the barrier."""
    g = Grid1D(draw(st.sampled_from([16, 32, 64])))
    if draw(st.booleans()):
        model = PowerLawModel(
            PowerLawParams(p=draw(st.sampled_from([2.5, 4.0, 8.0, 16.0,
                                                   32.0]))), g)
        bound, theta = 1.2, None
    else:
        model = SingularModel(
            SingularParams(eps=draw(st.sampled_from([1e-1, 1e-2, 1e-3]))), g)
        bound, theta = 0.95, model.params.theta
    u_n = draw(fourier_field(g, draw(st.floats(0.05, bound))))
    u_star = draw(fourier_field(g, draw(st.floats(0.05, bound))))
    phase = draw(st.floats(0.0, 2 * np.pi))
    rho = 1.0 + draw(st.floats(0.0, 0.5)) * np.sin(2 * np.pi * g.x + phase)
    dt = draw(st.floats(1e-4, 1e-2))
    u_prev = u_n + draw(fourier_field(g, draw(st.floats(0.01, 0.5))))
    r = draw(st.floats(0.25, 2.0))
    u_pred = u_n + r * (u_n - u_prev)
    while theta is not None and np.abs(face_shear(u_pred, g)).max() >= 1.0:
        r *= 0.5   # until the start lies inside the barrier
        u_pred = u_n + r * (u_n - u_prev)
    return model, theta, u_n, u_star, rho, dt, u_pred


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(implicit_steps())
def test_newton_solution_does_not_depend_on_its_start(step):
    model, theta, u_n, u_star, rho, dt, u_pred = step
    pr = model.params
    solutions = []
    for u_init in (u_n, u_star, u_pred):
        u, info = implicit_shear_solve(
            u_init, u_star, rho, dt, model.g, model.flux, model.dflux,
            pr.newton_tol, pr.newton_max_iter, model.potential, theta)
        rn = info["residuals"][-1]
        assert rn < pr.newton_tol or info.get("at_floor")
        solutions.append((u, max(rn, pr.newton_tol)))
    (u1, rn1), *others = solutions
    for u2, rn2 in others:
        assert np.abs(u1 - u2).max() <= rn1 + rn2
