"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line. C1–C13 are defined in _criteria.py
on the session fixtures of the reference experiments (conftest.py,
_reference.py), and _measure_criteria.py prints them as a margin table;
C14 and C15 are defined here.
"""

import functools

import numpy as np

import _criteria as C
import _reference as R


def _report(res):
    print(f"[criterion {res.num:>2}] {res.name}: "
          f"{'PASS' if res.ok else 'FAIL'}  {res.detail}")
    assert res.ok, f"criterion {res.num} ({res.name}) failed: {res.detail}"


def _gate(criterion):
    """The test of criterion, on the fixtures its parameters name."""
    @functools.wraps(criterion)
    def test(**fixtures):
        _report(criterion(**fixtures))
    return test


test_c01_conservation = _gate(C.c01_conservation)
test_c02_energy_inequality = _gate(C.c02_energy_inequality)
test_c03_density_bounds = _gate(C.c03_density_bounds)
test_c04_stress_max_principle = _gate(C.c04_stress_max_principle)
test_c05_constraint_emergence = _gate(C.c05_constraint_emergence)
test_c06_complementarity = _gate(C.c06_complementarity)
test_c07_entropy_gap = _gate(C.c07_entropy_gap)
test_c08_cross_model_agreement = _gate(C.c08_cross_model_agreement)
test_c09_hoff_uniformity = _gate(C.c09_hoff_uniformity)
test_c10_barrier_invariant = _gate(C.c10_barrier_invariant)
test_c11_variational_inequalities = _gate(C.c11_variational_inequalities)
test_c12_linf_growth = _gate(C.c12_linf_growth)
test_c13_time_mean_decay = _gate(C.c13_time_mean_decay)


def test_c14_oracle_equivalences():
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from thickflow.grids import Grid1D, Grid2D
    from thickflow.powerlaw1d import PowerLawModel, PowerLawParams
    from thickflow.semistationary2d import Stokes2DParams, solve_momentum
    from thickflow.stepper1d import implicit_shear_solve

    # (a) p = 2 implicit solve vs direct cyclic-tridiagonal solve
    g = Grid1D(64)
    pr = PowerLawParams(p=2.0, mu=1.0, a=1.0, gamma=2.0, delta=0.0,
                        newton_tol=1e-14)
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * g.x)
    u_prev = np.cos(2 * np.pi * g.x)
    dt = 5e-3
    model = PowerLawModel(pr, g)
    u, _ = implicit_shear_solve(u_prev, u_prev, rho, dt, g, model.flux,
                                model.dflux, pr.newton_tol,
                                pr.newton_max_iter, potential=model.potential)
    n, dx = g.n, g.dx
    main = rho / dt + 2.0 / dx**2
    A = sp.diags([main, np.full(n - 1, -1.0 / dx**2),
                  np.full(n - 1, -1.0 / dx**2)], [0, 1, -1], format="lil")
    A[0, n - 1] = -1.0 / dx**2
    A[n - 1, 0] = -1.0 / dx**2
    oracle = spla.spsolve(A.tocsr(), rho / dt * u_prev)
    err_1d = float(np.max(np.abs(u - oracle)))

    # (b) 2D p = 2 momentum solve vs the Fourier-diagonal oracle
    g2 = Grid2D(32, 32)
    pr2 = Stokes2DParams(p=2.0, gamma=2.0, delta=0.0, newton_tol=1e-12)
    X, Y = g2.meshgrid()
    rho2 = 1 + 0.5 * np.cos(2 * np.pi * X)
    u2 = solve_momentum(rho2, pr2, g2)
    rg_hat = np.fft.fft2(rho2**pr2.gamma)
    kx = np.fft.fftfreq(g2.nx, d=g2.dx)
    ky = np.fft.fftfreq(g2.ny, d=g2.dy)
    Kx = np.sin(2 * np.pi * kx * g2.dx) / g2.dx
    Ky = np.sin(2 * np.pi * ky * g2.dy) / g2.dy
    u1h = np.zeros_like(rg_hat)
    u2h = np.zeros_like(rg_hat)
    for i in range(g2.nx):
        for j in range(g2.ny):
            K = np.array([Kx[i], Ky[j]])
            k2 = K @ K
            if k2 == 0:
                continue
            Amat = 0.5 * (k2 * np.eye(2) + np.outer(K, K))
            sol = np.linalg.solve(Amat, -1j * K * rg_hat[i, j])
            u1h[i, j], u2h[i, j] = sol
    oracle2 = np.stack([np.real(np.fft.ifft2(u1h)),
                        np.real(np.fft.ifft2(u2h))])
    err_2d = float(np.max(np.abs(u2 - oracle2)))

    # (c) manufactured-solution convergence order over n in {128, 256, 512}
    errs = R.mms_convergence_errors(p=4.0, ns=(128, 256, 512))
    orders = [float(np.log2(a / b)) for a, b in zip(errs[:-1], errs[1:])]

    ok = err_1d < 1e-10 and err_2d < 1e-8 and all(o >= 0.9 for o in orders)
    _report(C.Result(14, "oracle equivalences", ok,
                     f"tridiag {err_1d:.1e} (<1e-10), Fourier {err_2d:.1e} "
                     f"(<1e-8), orders {['%.2f' % o for o in orders]} "
                     "(>= 0.9)"))


def test_c15_determinism(tmp_path):
    import os

    from thickflow.cli import main

    cfgp = tmp_path / "det.cfg"
    cfgp.write_text((R.STRONG_1D.replace("n = 256", "n = 64")
                     .replace("T = 0.25", "T = 0.05")
                     .replace("snapshots = 50", "snapshots = 8")))
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(cfgp), "--output", str(o1), "--quiet"]) == 0
    assert main(["run", str(cfgp), "--output", str(o2), "--quiet"]) == 0
    same = all((o1 / f).read_bytes() == (o2 / f).read_bytes()
               for f in sorted(os.listdir(o1)) if f.endswith(".csv"))
    _report(C.Result(15, "determinism", same,
                     "re-run reproduces byte-identical numeric CSVs"))
