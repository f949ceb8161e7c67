"""The 1D stepper's kernels against the forms they replaced: the cyclic
tridiagonal solve against scipy.linalg.solve_banded, and the slice
shifts against np.roll. Each must reproduce its reference bit for bit.
Also the loading of LAPACK dgtsv, the failure paths of advance and of
the Newton solve, the fraction-to-boundary bound on its trial points,
and the rule by which its line search accepts a step."""

import importlib.util
import math
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import solve_banded
from test_tracer_names import RUN_1D, RUN_2D

from thickflow import cli, powerlaw1d, stepper1d
from thickflow.config import parse_config
from thickflow.diagnostics import check_conservation
from thickflow.errors import FluxOverflow, NewtonDivergence, StepFailure
from thickflow.grids import Grid1D, ddx_periodic
from thickflow.powerlaw1d import PowerLawModel, PowerLawParams
from thickflow.singular1d import SingularModel, SingularParams
from thickflow.stepper1d import (barotropic_llf_update, face_shear,
                                 implicit_shear_solve, max_signal_speed,
                                 solve_cyclic_tridiag)
from thickflow.trajectory import State1D

ROOT = Path(__file__).resolve().parent.parent


def solve_banded_reference(lower, diag, upper, rhs):
    """The former solve_cyclic_tridiag: Sherman-Morrison with both
    right-hand sides in one solve_banded call."""
    n = diag.size
    beta, alpha, gamma = lower[0], upper[-1], -diag[0]
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


def jacobian_like(n, seed, coupling=1.0):
    """A Newton Jacobian of the implicit step: diagonal w + (fp +
    fp_behind), off-diagonals -fp, with coupling scaling fp against w."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, n)
    fp = coupling * rng.uniform(0.5, 2.0, n)
    fp_behind = np.roll(fp, 1)
    return -fp_behind, w + fp + fp_behind, -fp, rng.normal(size=n)


def dense(lower, diag, upper):
    n = diag.size
    a = np.diag(diag)
    for i in range(n):
        a[i, (i - 1) % n] += lower[i]
        a[i, (i + 1) % n] += upper[i]
    return a


def gtsv_sizes(monkeypatch):
    """Record the size of every system handed to dgtsv."""
    sizes = []
    solve = stepper1d._gtsv

    def recorded(dl, d, du, b):
        sizes.append(d.size)
        return solve(dl, d, du, b)

    monkeypatch.setattr(stepper1d, "_gtsv", recorded)
    return sizes


@pytest.mark.parametrize("n", [3, 4, 17, 256])
def test_cyclic_tridiag_equals_solve_banded(n):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        lower, upper = rng.normal(size=n), rng.normal(size=n)
        diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, n)
        diag *= rng.choice([-1.0, 1.0], n)
        rhs = rng.normal(size=n)
        args = (lower, diag, upper, rhs)
        copies = [a.copy() for a in args]
        x = solve_cyclic_tridiag(*args)
        assert np.array_equal(x, solve_banded_reference(*copies))
        for a, c in zip(args, copies):
            assert np.array_equal(a, c)   # inputs left as they were


@pytest.mark.parametrize("n", [3, 4, 17])
def test_cyclic_tridiag_residual(n):
    lower, diag, upper, rhs = jacobian_like(n, seed=n)
    x = solve_cyclic_tridiag(lower, diag, upper, rhs)
    expected = np.linalg.solve(dense(lower, diag, upper), rhs)
    assert np.allclose(x, expected, rtol=1e-12, atol=1e-14)


def test_cyclic_tridiag_end_blocks(monkeypatch):
    # z decays by about 0.4 per row: from row ~800 on it is subnormal,
    # so z is solved at its ends only, and x keeps every bit
    n = 10240
    system = jacobian_like(n, seed=1)
    sizes = gtsv_sizes(monkeypatch)
    x = solve_cyclic_tridiag(*system)
    assert sizes[0] == n and len(sizes) == 3
    assert all(m < n // 2 for m in sizes[1:])
    assert np.array_equal(x, solve_banded_reference(*system))


def test_cyclic_tridiag_end_blocks_on_captured_jacobians(monkeypatch):
    # the Newton systems of the first steps of the singular eps = 1e-3
    # run on the 10240-cell constraint-layer grid (theta = 0.3): each
    # takes the end blocks and gives the bits of the one-call form
    cfg = parse_config(
        "[model]\nkind = singular1d\n[grid]\nn = 10240\n"
        "[params]\neps = 0.001\na = 2.0\ngamma = 2.0\ncfl = 0.45\n"
        "theta = 0.3\n[initial]\nrho_modes = 1, 0.15, 0.3\n"
        f"u_modes = 1, 0.0, {0.9 / (2 * np.pi)!r}\n"
        "paper_initial_conditions = true\n[time]\nT = 0.004\n")
    g = cfg.grid()
    model = SingularModel(cfg.run_params, g)
    systems = []
    solve = stepper1d.solve_cyclic_tridiag

    def recorded(*system):
        systems.append([a.copy() for a in system])
        x = solve(*system)
        systems[-1].append(x)
        return x

    monkeypatch.setattr(stepper1d, "solve_cyclic_tridiag", recorded)
    state = State1D(*cfg.initial_fields(g), 0.0)
    for _ in range(3):
        dt = model.cfl_dt(state)
        state = model.step(state, dt, None, None)[0]
    monkeypatch.undo()
    assert len(systems) >= 3   # one Newton solve or more per step
    for *system, x_run in systems:
        sizes = gtsv_sizes(monkeypatch)
        x = solve_cyclic_tridiag(*system)
        assert sizes[0] == g.n and len(sizes) == 3
        assert all(m < g.n // 2 for m in sizes[1:])
        assert np.array_equal(x, x_run)
        assert np.array_equal(x, solve_banded_reference(*system))
        monkeypatch.undo()


def pivoting(n, seed):
    """A Jacobian with one row that dgtsv must interchange."""
    lower, diag, upper, rhs = jacobian_like(n, seed)
    diag[n // 2] = 0.1
    return lower, diag, upper, rhs


@pytest.mark.parametrize("system", [
    jacobian_like(4096, seed=2, coupling=1e4),   # z decays too slowly
    pivoting(4096, seed=5),                      # rows interchanged
], ids=["strong_coupling", "row_interchange"])
def test_cyclic_tridiag_full_solve(monkeypatch, system):
    sizes = gtsv_sizes(monkeypatch)
    x = solve_cyclic_tridiag(*system)
    assert sizes == [4096, 4096]
    assert np.array_equal(x, solve_banded_reference(*system))


def test_cyclic_tridiag_full_solve_when_y_vanishes_mid_grid(monkeypatch):
    # a right-hand side at the ends only: y underflows mid-grid, where
    # the left-out entries of z could change its bits
    n = 10240
    lower, diag, upper, _ = jacobian_like(n, seed=3)
    rhs = np.zeros(n)
    rhs[:8] = rhs[-8:] = 1.0
    sizes = gtsv_sizes(monkeypatch)
    x = solve_cyclic_tridiag(lower, diag, upper, rhs)
    assert len(sizes) == 4 and sizes[0] == sizes[-1] == n   # tried, refused
    assert np.array_equal(x, solve_banded_reference(lower, diag, upper, rhs))


@pytest.mark.parametrize("n", [8, 4096])
def test_cyclic_tridiag_zero_pivot_raises(n):
    lower, diag, upper, rhs = jacobian_like(n, seed=4)
    k = n // 2   # an isolated zero row: the matrix is singular
    diag[k] = lower[k] = upper[k] = upper[k - 1] = lower[k + 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded_reference(lower, diag, upper, rhs)
    with pytest.raises(np.linalg.LinAlgError):
        solve_cyclic_tridiag(lower, diag, upper, rhs)


def newton_reference(u_init, u_star, rho, dt, g, flux, dflux, tol, max_iter,
                     potential, ftb_theta=None):
    """The former implicit_shear_solve's iteration: np.roll shifts, a
    second face shear for the Jacobian and the solve_banded solve (its
    attainable-floor exits and overflow handling, which the cases below
    do not reach, left out)."""
    dx, w = g.dx, rho / dt

    def evaluate(u):
        s = (np.roll(u, -1) - u) / dx
        f = flux(s)
        r = w * (u - u_star) - (f - np.roll(f, 1)) / dx
        phi = float(np.sum(0.5 * w * (u - u_star) ** 2 + potential(s)) * dx)
        return r, float(np.max(np.abs(r) / w)), phi

    u = u_init.copy()
    r, rnorm, phi = evaluate(u)
    residuals, damping = [rnorm], []
    while rnorm >= tol and len(damping) < max_iter:
        s = (np.roll(u, -1) - u) / dx
        fp = dflux(s)
        delta = solve_banded_reference(
            -np.roll(fp, 1) / dx**2, w + (fp + np.roll(fp, 1)) / dx**2,
            -fp / dx**2, -r)
        alpha = 1.0
        if ftb_theta is not None:
            bound = (1.0 - ftb_theta) + ftb_theta * float(np.max(np.abs(s)))
            ds = (np.roll(delta, -1) - delta) / dx
            caps = np.concatenate([(bound - s[ds > 0]) / ds[ds > 0],
                                   (-bound - s[ds < 0]) / ds[ds < 0]])
            alpha = min(1.0, float(np.min(caps, initial=np.inf)))
        slope = float(np.sum(r * delta) * dx)
        while True:
            r_new, rn_new, phi_new = evaluate(u + alpha * delta)
            if phi_new <= phi + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        u = u + alpha * delta
        r, rnorm, phi = r_new, rn_new, phi_new
        residuals.append(rnorm)
        damping.append(alpha)
    return u, residuals, damping


@pytest.mark.parametrize("model", ["powerlaw1d", "singular1d"])
def test_newton_solve_equals_reference(model):
    # the damped, and for the barrier flux capped, Newton iterates of
    # implicit_shear_solve must be those of the former solve, bit for bit
    g = Grid1D(64)
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * g.x)
    u = 0.1 * np.sin(2 * np.pi * g.x) + 0.02 * np.cos(6 * np.pi * g.x)
    if model == "powerlaw1d":
        m, theta = PowerLawModel(PowerLawParams(p=8.0), g), None
    else:
        m, theta = SingularModel(SingularParams(eps=1e-2), g), 0.95
    args = (u, 1.5 * u, rho, 1e-2, g, m.flux, m.dflux, 1e-12, 100,
            m.potential, theta)
    u_new, info = implicit_shear_solve(*args)
    u_ref, residuals, damping = newton_reference(*args)
    assert info["residuals"] == residuals and info["damping"] == damping
    assert any(a < 1.0 for a in damping)   # the damped path is taken
    assert np.array_equal(u_new, u_ref)
    # the accepted shear and flux, which the step's records reuse
    s_ref = (np.roll(u_ref, -1) - u_ref) / g.dx
    assert np.array_equal(info["shear"], s_ref)
    assert np.array_equal(info["flux"], m.flux(s_ref))


def _fields(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 2.0, n), rng.normal(size=n)


def test_face_shear_equals_roll_form():
    g = Grid1D(37)
    u = _fields(g.n, 1)[1]
    assert np.array_equal(face_shear(u, g), (np.roll(u, -1) - u) / g.dx)


def test_max_signal_speed_equals_roll_form():
    rho, u = _fields(41, 2)
    for a, gamma in ((1.0, 2.0), (2.0, 1.4)):
        c = np.sqrt(a * gamma * rho ** (gamma - 1.0))
        uf = 0.5 * (u + np.roll(u, -1))
        lam = np.abs(uf) + np.maximum(c, np.roll(c, -1))
        assert max_signal_speed(rho, u, a, gamma) == float(np.max(lam))


def test_barotropic_llf_update_equals_roll_form():
    g = Grid1D(43)
    rho, u = _fields(g.n, 3)
    for a, gamma, dt in ((1.0, 2.0, 1e-3), (8.0, 1.4, 3e-4)):
        m = rho * u
        p = a * rho**gamma
        c = np.sqrt(a * gamma * rho ** (gamma - 1.0))
        rho_r, m_r = np.roll(rho, -1), np.roll(m, -1)
        uf = 0.5 * (u + np.roll(u, -1))
        lam = np.abs(uf) + np.maximum(c, np.roll(c, -1))
        f_rho = uf * 0.5 * (rho + rho_r) - 0.5 * lam * (rho_r - rho)
        f_m = uf * 0.5 * (m + m_r) + 0.5 * (p + np.roll(p, -1)) \
            - 0.5 * lam * (m_r - m)
        d_rho = (f_rho - np.roll(f_rho, 1)) * (dt / g.dx)
        d_m = (f_m - np.roll(f_m, 1)) * (dt / g.dx)
        d_rho -= d_rho.mean()
        d_m -= d_m.mean()
        rho1, m1 = barotropic_llf_update(rho, u, a, gamma, dt, g)
        assert np.array_equal(rho1, rho - d_rho)
        assert np.array_equal(m1, m - d_m)


NO_SCIPY_LINALG = """
import sys

sys.path.insert(0, sys.argv[1])
import numpy as np

from thickflow import cli
from thickflow.stepper1d import solve_cyclic_tridiag

for cfg, out in zip(sys.argv[2:4], sys.argv[4:6]):
    assert cli.main(["run", cfg, "--output", out, "--quiet"]) == 0
    print("scipy.linalg" in sys.modules)
solve_cyclic_tridiag(-np.ones(8), np.full(8, 4.0), -np.ones(8), np.ones(8))
print("scipy.linalg" in sys.modules)
"""


def test_scipy_linalg_never_loaded(tmp_path):
    # a 2D run, a 1D run (whose Newton solves call dgtsv) and a direct
    # solve: dgtsv comes from scipy's LAPACK extension alone
    cfgs = []
    for name, text in (("run2d.cfg", RUN_2D), ("run1d.cfg", RUN_1D)):
        cfgs.append(tmp_path / name)
        cfgs[-1].write_text(text)
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_LINALG, str(ROOT / "src"),
         *map(str, cfgs), str(tmp_path / "o2"), str(tmp_path / "o1")],
        capture_output=True, text=True, check=True, timeout=300).stdout.split()
    assert out == ["False", "False", "False"]


SAME_DGTSV = """
import sys

sys.path.insert(0, sys.argv[1])
from thickflow import stepper1d

if sys.argv[2] == "scipy_first":
    from scipy.linalg.lapack import dgtsv
mine = stepper1d._dgtsv()
from scipy.linalg.lapack import dgtsv
print(mine is dgtsv)
"""


@pytest.mark.parametrize("order", ["scipy_first", "scipy_after"])
def test_dgtsv_is_scipy_linalg_lapack_dgtsv(order):
    out = subprocess.run(
        [sys.executable, "-c", SAME_DGTSV, str(ROOT / "src"), order],
        capture_output=True, text=True, check=True, timeout=120).stdout.split()
    assert out == ["True"]


def test_missing_lapack_extension_raises_import_error(monkeypatch, tmp_path):
    scipy_dir = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy_dir)
    with pytest.raises(ImportError, match=str(tmp_path / "linalg")):
        stepper1d._dgtsv.__wrapped__()


def _powerlaw_run(T=0.02):
    g = Grid1D(64)
    rho0 = 1.0 + 0.3 * np.sin(2 * np.pi * g.x)
    u0 = 0.1 * np.sin(2 * np.pi * g.x) + 0.02 * np.cos(6 * np.pi * g.x)
    return PowerLawModel.run(PowerLawParams(p=8.0, a=2.0), g, rho0, u0, T)


def test_dt_halving_retry_conserves_mass_and_momentum(monkeypatch):
    # the Newton solves of the second step's first two tries fail after
    # their transport half-steps; the third try, at dt / 4, is kept
    solve = powerlaw1d.implicit_shear_solve
    calls = []

    def failing_solve(u_init, u_star, rho, dt, *args, **kwargs):
        calls.append(dt)
        if len(calls) in (2, 3):
            raise NewtonDivergence("injected")
        return solve(u_init, u_star, rho, dt, *args, **kwargs)

    monkeypatch.setattr(powerlaw1d, "implicit_shear_solve", failing_solve)
    traj = _powerlaw_run()
    assert calls[2] == calls[1] / 2 == calls[3] * 2
    assert traj.records[2].dt == calls[1] / 4
    reports = check_conservation(traj)
    assert [r.check for r in reports] == ["mass_conservation",
                                          "momentum_conservation"]
    assert all(r.passed for r in reports)


def test_step_failure_carries_time_and_cause(monkeypatch):
    step = PowerLawModel.step
    tries = []

    def failing_step(self, state, dt, forcing=None, prev=None):
        if len(tries) == 0 and state.t < 0.005:
            return step(self, state, dt, forcing, prev)
        tries.append((state.t, dt, FluxOverflow(f"injected {len(tries)}")))
        raise tries[-1][2]

    monkeypatch.setattr(PowerLawModel, "step", failing_step)
    with pytest.raises(StepFailure) as exc:
        _powerlaw_run()
    assert len(tries) == 11   # the first try and ten halvings
    assert all(t == tries[0][0] > 0 for t, _, _ in tries)
    assert [dt for _, dt, _ in tries] == [tries[0][1] / 2**k for k in range(11)]
    assert exc.value.t == tries[0][0]
    assert exc.value.cause is tries[-1][2]


def test_flux_overflow_in_line_search_halves_the_step():
    g = Grid1D(64)
    m = PowerLawModel(PowerLawParams(p=8.0), g)
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * g.x)
    u = 0.1 * np.sin(2 * np.pi * g.x)
    calls = []

    def overflowing_flux(s):
        calls.append(1)
        if len(calls) == 2:   # the first line-search evaluation
            raise FluxOverflow("injected")
        return m.flux(s)

    args = (u, u, rho, 1e-2, g)
    rest = (m.dflux, 1e-12, 100, m.potential)
    _, ref = implicit_shear_solve(*args, m.flux, *rest)
    u_new, info = implicit_shear_solve(*args, overflowing_flux, *rest)
    assert ref["damping"][0] == 1.0
    # Phi is convex: Armijo's test at alpha = 1 implies it at 1/2
    assert info["damping"][0] == 0.5
    assert info["residuals"][-1] < 1e-12
    assert np.array_equal(info["shear"], face_shear(u_new, g))
    assert np.array_equal(info["flux"], m.flux(info["shear"]))


def test_fraction_to_boundary_keeps_every_trial_point_feasible():
    # a capped singular solve that starts at max|s| = 0.999 and is pushed
    # outward: each trial shear stays inside 1 - theta (1 - max|s_current|)
    g, theta = Grid1D(64), 0.95
    m = SingularModel(SingularParams(eps=1e-2, theta=theta), g)
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * g.x)
    u = np.sin(2 * np.pi * g.x)
    u *= 0.999 / np.abs(face_shear(u, g)).max()
    events = []

    def flux(s):
        events.append(("flux", s.copy()))
        return m.flux(s)

    def dflux(s):
        events.append(("dflux", s.copy()))
        return m.dflux(s)

    _, info = implicit_shear_solve(u, 1.5 * u, rho, 1e-2, g, flux, dflux,
                                   1e-12, 800, m.potential, theta)
    assert info["residuals"][-1] < 1e-12 or info.get("at_floor")
    bound = None
    on_bound = 0
    trials = 0
    for kind, s in events:
        smax = float(np.abs(s).max())
        if kind == "dflux":   # the current iterate of the next trials
            bound = (1.0 - theta) + theta * smax
        elif bound is not None:
            trials += 1
            assert smax < 1.0
            # one rounding of u + alpha delta away from the bound at most
            assert smax <= bound + 1e-14
            on_bound += smax > bound - 1e-14
    assert trials >= len(info["damping"]) > 0
    assert on_bound > 0
    # a capped step is damped by a factor that is no power of one half
    assert any(a < 1.0 and np.log2(a) % 1.0 != 0.0 for a in info["damping"])


def _replay_line_searches(u_init, u_star, rho, dt, g, m, potential, tol,
                          monkeypatch):
    """Solve with implicit_shear_solve, then replay every power-law line
    search (first trial alpha = 1) from the recorded residuals and Newton
    directions. Returns, per trial, (accepted, armijo, below, slope_ok):
    whether the solve took it, whether it passes Armijo's test of Phi,
    whether the decrease asked for, -alpha * slope, is at most ulp(Phi),
    and whether the slope at the trial point is at most -0.8 slope."""
    systems = []
    solve = stepper1d.solve_cyclic_tridiag

    def recorded(lower, diag, upper, rhs):
        delta = solve(lower, diag, upper, rhs)
        systems.append((-rhs, delta))
        return delta

    monkeypatch.setattr(stepper1d, "solve_cyclic_tridiag", recorded)
    _, info = implicit_shear_solve(u_init, u_star, rho, dt, g, m.flux,
                                   m.dflux, tol, 100, potential)
    w = rho / dt

    def evaluate(u):   # the solve's residual and merit, the same operations
        s = face_shear(u, g)
        du = u - u_star
        r = w * du - ddx_periodic(m.flux(s), g, "backward")
        return r, float((0.5 * w * du**2 + potential(s)).sum() * g.dx)

    trials = []
    u = u_init
    for (r, delta), alpha in zip(systems, info["damping"]):
        r_u, phi = evaluate(u)
        assert np.array_equal(r_u, r)
        slope = float((r * delta).sum() * g.dx)
        for k in range(round(-math.log2(alpha)), -1, -1):
            a = alpha * 2.0**k
            r_new, phi_new = evaluate(u + a * delta)
            trials.append((k == 0, phi_new <= phi + 1e-4 * a * slope,
                           -a * slope <= math.ulp(phi),
                           (r_new * delta).sum() * g.dx <= -0.8 * slope))
        u = u + alpha * delta
    return trials


def test_slope_acceptance_only_below_the_rounding_unit_of_phi(monkeypatch):
    # A constant added to the potential leaves the flux, the residual and
    # the Newton directions as they are, but raises Phi to about 100 and
    # ulp(Phi) to 1.4e-14: near the solution Armijo's test of Phi is then
    # rounding noise, which refuses about half of the steps there. The
    # start u takes damped steps; the starts about 1e-9 from the solution
    # ask for decreases far below ulp(Phi).
    g = Grid1D(32)
    m = PowerLawModel(PowerLawParams(p=8.0), g)
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * g.x)
    u = 0.1 * np.sin(2 * np.pi * g.x) + 0.02 * np.cos(6 * np.pi * g.x)
    u_star, dt = 1.5 * u, 1e-2
    u_sol, _ = implicit_shear_solve(u, u_star, rho, dt, g, m.flux, m.dflux,
                                    1e-12, 100, m.potential)

    def potential(s):
        return m.potential(s) + 100.0

    starts = [u] + [u_sol + 1e-9 * np.random.default_rng(seed).normal(size=g.n)
                    for seed in range(16)]
    trials = []
    for u_init in starts:
        trials += _replay_line_searches(u_init, u_star, rho, dt, g, m,
                                        potential, 1e-17, monkeypatch)
    for accepted, armijo, below, slope_ok in trials:
        assert accepted == (armijo or (below and slope_ok))
    # the slope test decides steps that Armijo's test of Phi refuses ...
    assert any(accepted and not armijo for accepted, armijo, _, _ in trials)
    # ... and only below ulp(Phi): above it, Armijo alone decides
    assert any(not armijo and not below for _, armijo, below, _ in trials)


def test_sweep_p64_member_neither_retries_nor_exhausts_newton(monkeypatch):
    # the p = 64 member of the sweep-p benchmark workload once stalled at
    # a scaled residual of 1.7e-11, after 100 Newton iterations of step
    # size 0.008-0.125 that Armijo's test of Phi refused at full length,
    # and its step was retried at dt / 2
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS, config_text
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    cfg = parse_config(config_text(WORKLOADS["sweep-p"], 1))
    params = cfg.build_params(p=64.0)
    assert (cfg.n, cfg.T) == (256, 0.03)
    failures, iterations = [], []
    step, solve = PowerLawModel.step, powerlaw1d.implicit_shear_solve

    def counted_step(self, state, dt, forcing=None, prev=None):
        try:
            return step(self, state, dt, forcing, prev)
        except Exception as err:
            failures.append(err)
            raise

    def counted_solve(*args, **kwargs):
        u, info = solve(*args, **kwargs)
        iterations.append(info["iterations"])
        return u, info

    monkeypatch.setattr(PowerLawModel, "step", counted_step)
    monkeypatch.setattr(powerlaw1d, "implicit_shear_solve", counted_solve)
    g = cfg.grid()
    rho0, u0 = cfg.initial_fields(g)
    traj = PowerLawModel.run(params, g, rho0, u0, cfg.T,
                             cfg.snapshot_schedule())
    assert failures == []
    assert len(iterations) == len(traj.records) - 1
    assert max(iterations) < params.newton_max_iter


NAN_DIRECTION = """
[model]
kind = powerlaw1d
[grid]
n = 32
[params]
p = 64
a = 2.0
gamma = 2.0
[initial]
rho_modes = 1, 0.15, 0.25
u_modes = 1, 0.0, 2.0
[time]
T = 0.05
snapshots = 8
"""


def test_non_finite_newton_direction_fails_fast(tmp_path, capsys,
                                                monkeypatch):
    # the Jacobian's diagonal spans 2e25..1e74 and the Sherman-Morrison
    # denominator rounds to 0: every try stops at its first non-finite
    # direction (the first or the second), without a line search on nan
    # trial points
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(NAN_DIRECTION)
    calls = []
    for name in ("step", "flux"):
        method = getattr(PowerLawModel, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(PowerLawModel, name, counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(cfg), "--output", str(tmp_path / "o"),
                         "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: StepFailure: step failed at t = 0:"
                          " non-finite Newton direction")
    tries = "".join("s" if c == "step" else "f" for c in calls).split("s")
    assert len(tries) == 12   # the initial record, then 11 tries
    assert all(len(t) <= 2 for t in tries)
