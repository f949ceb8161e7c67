import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import _reference as R


@pytest.fixture(scope="session")
def strong_sweep():
    """Strong-forcing p-sweep trajectories {p: Trajectory} plus config."""
    cfg = R.strong_config()
    trajs = {p: R.run_powerlaw(cfg, p=p) for p in R.P_VALUES}
    return cfg, trajs


@pytest.fixture(scope="session")
def strong_sweep_report(strong_sweep):
    from thickflow.limits import assemble_sweep_report

    cfg, trajs = strong_sweep
    return assemble_sweep_report("p", trajs, etas=cfg.eta)


@pytest.fixture(scope="session")
def strong_p8_fine(strong_sweep):
    """Same strong-forcing config at n = 512 (refinement pair)."""
    cfg, _ = strong_sweep
    return cfg, R.run_powerlaw(cfg, p=8.0, n=512)


@pytest.fixture(scope="session")
def shared_sweep():
    """Moderate-forcing p-sweep on the dataset shared with the singular
    family (cross-model comparison)."""
    cfg = R.shared_config()
    trajs = {p: R.run_powerlaw(cfg, p=p) for p in R.P_VALUES}
    return cfg, trajs


@pytest.fixture(scope="session")
def singular_runs():
    """{eps: Trajectory} at the resolution the constraint layer needs."""
    out = {}
    for eps in R.EPS_VALUES:
        out[eps] = R.run_singular_ref(R.singular_config(eps))
    return out


@pytest.fixture(scope="session")
def sweep_2d():
    cfg = R.config_2d()
    trajs = {p: R.run_2d_ref(cfg, p=p) for p in R.P_VALUES_2D}
    return cfg, trajs
