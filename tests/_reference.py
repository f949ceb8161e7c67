"""Shared builders for the reference configurations.

Two 1D datasets drive the acceptance experiments:

* strong forcing (a = 8, two-mode density and velocity): pushes the
  peak stress into the window where the shear constraint is violated at
  moderate p but not at p = 64, which the constraint-emergence metrics
  need;
* moderate forcing (a = 2, one-mode data): the singular-viscosity
  family and the cross-model comparison, where the eps = 1e-3 run must
  resolve the constraint layer (n = 10 eps^-1) and cost scales with the
  sound speed.

All initial data is expressed through the config-file Fourier triples
so the CLI and the tests share one code path.
"""

import numpy as np

from thickflow.config import parse_config

T_1D = 0.25
T_2D = 0.2
SNAPS_1D = 50
SNAPS_SHARED = 100
SNAPS_2D = 40

P_VALUES = (4.0, 8.0, 16.0, 32.0, 64.0)
P_VALUES_2D = (4.0, 8.0, 16.0)
EPS_VALUES = (1e-1, 1e-2, 1e-3)
EPS_GRIDS = {1e-1: 256, 1e-2: 1024, 1e-3: 10240}

# two-mode velocity scaled so max |du0/dx| = 0.95:
# raw shear 0.7 cos(2 pi x) + 0.5 cos(4 pi x) peaks at 1.2
_U1 = 0.95 / 1.2 * 0.7 / (2 * np.pi)
_U2 = 0.95 / 1.2 * 0.25 / (2 * np.pi)

STRONG_1D = f"""
[model]
kind = powerlaw1d
[grid]
n = 256
[params]
p = 8.0
mu = 1.0
a = 8.0
gamma = 2.0
[initial]
rho_mean = 1.0
rho_modes = 1, 0.0, 0.25, 2, 0.12, 0.0
u_mean = 0.0
u_modes = 1, 0.0, {_U1!r}, 2, 0.0, {_U2!r}
paper_initial_conditions = true
seed = 2026
[time]
T = {T_1D}
snapshots = {SNAPS_1D}
[sweep]
kind = p
values = 4, 8, 16, 32, 64
[checks]
tol_c = 5.0
eta = 0.01, 0.05, 0.1
"""

SHARED_1D = f"""
[model]
kind = powerlaw1d
[grid]
n = 256
[params]
p = 64.0
mu = 1.0
a = 2.0
gamma = 2.0
[initial]
rho_mean = 1.0
rho_modes = 1, 0.15, 0.3
u_mean = 0.0
u_modes = 1, 0.0, {0.9 / (2 * np.pi)!r}
paper_initial_conditions = true
seed = 2026
[time]
T = {T_1D}
snapshots = {SNAPS_SHARED}
"""

SINGULAR_1D = f"""
[model]
kind = singular1d
[grid]
n = 256
[params]
eps = 0.1
a = 2.0
gamma = 2.0
cfl = 0.45
theta = 0.3
[initial]
rho_mean = 1.0
rho_modes = 1, 0.15, 0.3
u_mean = 0.0
u_modes = 1, 0.0, {0.9 / (2 * np.pi)!r}
paper_initial_conditions = true
seed = 2026
[time]
T = {T_1D}
snapshots = {SNAPS_SHARED}
"""

REF_2D = f"""
[model]
kind = semistationary2d
[grid]
nx = 64
ny = 64
[params]
p = 8.0
a = 1.0
gamma = 2.0
cfl = 0.1
[initial]
rho_mean = 1.0
rho_modes = 1, 1, 0.25, 0.0, 1, -1, 0.25, 0.0
seed = 2026
[time]
T = {T_2D}
snapshots = {SNAPS_2D}
"""


def strong_config():
    return parse_config(STRONG_1D)


def shared_config():
    return parse_config(SHARED_1D)


def singular_config(eps):
    text = SINGULAR_1D.replace("eps = 0.1", f"eps = {eps!r}")
    text = text.replace("n = 256", f"n = {EPS_GRIDS[eps]}")
    return parse_config(text)


def config_2d():
    return parse_config(REF_2D)


def run(cfg, n=None, **overrides):
    """cfg's run with its params overridden, on Grid1D(n) if n is given
    and on cfg's grid otherwise, started through cli._launch as
    `thickflow run` starts one."""
    from thickflow.cli import _launch
    from thickflow.grids import Grid1D

    g = Grid1D(n) if n else cfg.grid()
    return _launch(cfg, cfg.model_class, cfg.build_params(**overrides), g)


# the session fixtures of the acceptance gate (conftest.py), which
# _measure_criteria.py builds too; a fixture's parameters name the
# fixtures it is built from


def strong_sweep():
    """Strong-forcing p-sweep: (config, {p: Trajectory})."""
    cfg = strong_config()
    return cfg, {p: run(cfg, p=p) for p in P_VALUES}


def strong_sweep_report(strong_sweep):
    from thickflow.limits import assemble_sweep_report

    cfg, trajs = strong_sweep
    return assemble_sweep_report("p", trajs, etas=cfg.eta)


def strong_p8_fine(strong_sweep):
    """The strong-forcing config at p = 8 and n = 512 (refinement pair)."""
    cfg, _ = strong_sweep
    return cfg, run(cfg, n=512, p=8.0)


def shared_sweep():
    """Moderate-forcing p-sweep on the dataset shared with the singular
    family (cross-model comparison)."""
    cfg = shared_config()
    return cfg, {p: run(cfg, p=p) for p in P_VALUES}


def singular_runs():
    """{eps: Trajectory} at the resolution the constraint layer needs."""
    return {eps: run(singular_config(eps)) for eps in EPS_VALUES}


def sweep_2d():
    cfg = config_2d()
    return cfg, {p: run(cfg, p=p) for p in P_VALUES_2D}


FIXTURES = (strong_sweep, strong_sweep_report, strong_p8_fine, shared_sweep,
            singular_runs, sweep_2d)


def mms_convergence_errors(p=4.0, a=1.0, gamma=2.0, T=0.1, ns=(128, 256, 512)):
    """L2 errors against a prescribed smooth solution with symbolically
    derived forcing; the oracle is the closed form itself."""
    import sympy as sy

    from thickflow.grids import Grid1D, integrate
    from thickflow.powerlaw1d import PowerLawModel, PowerLawParams

    pr = PowerLawParams(p=p, a=a, gamma=gamma)
    t, x = sy.symbols("t x")
    rho = 1 + sy.Rational(1, 5) * sy.sin(2 * sy.pi * (x - sy.Rational(3, 10) * t))
    u = sy.Rational(1, 10) + sy.Rational(3, 20) \
        * sy.sin(2 * sy.pi * (x - sy.Rational(1, 5) * t))
    s = sy.diff(u, x)
    flux = pr.mu * (s**2 + pr.delta**2) ** sy.Rational(int(pr.p) - 2, 2) * s
    g_rho = sy.diff(rho, t) + sy.diff(rho * u, x)
    g_m = sy.diff(rho * u, t) + sy.diff(rho * u**2, x) - sy.diff(flux, x) \
        + pr.a * sy.diff(rho**pr.gamma, x)
    fr = sy.lambdify((t, x), g_rho, "numpy")
    fm = sy.lambdify((t, x), g_m, "numpy")
    ref_r = sy.lambdify((t, x), rho, "numpy")
    ref_u = sy.lambdify((t, x), u, "numpy")

    errs = []
    for n in ns:
        g = Grid1D(n)
        traj = PowerLawModel.run(pr, g, ref_r(0.0, g.x), ref_u(0.0, g.x), T,
                                 snapshot_times=[T], forcing=(fr, fm))
        sn = traj.snapshots[-1]
        err = np.sqrt(integrate((sn.rho - ref_r(T, g.x)) ** 2, g)
                      + integrate((sn.u - ref_u(T, g.x)) ** 2, g))
        errs.append(float(err))
    return errs
