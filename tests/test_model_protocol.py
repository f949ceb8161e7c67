"""The model protocol that stepper1d.advance drives, on every model of
config.MODELS: each class builds from a config's params and grid, runs,
writes its CSVs and lists its checks in the order of checks.json."""

import pytest

from thickflow.config import MODELS, parse_config

CONFIGS = {
    "powerlaw1d": """
[model]
kind = powerlaw1d
[grid]
n = 32
[initial]
rho_modes = 1, 0.15, 0.25
u_modes = 1, 0.0, 0.1
""",
    "singular1d": """
[model]
kind = singular1d
[grid]
n = 32
[params]
eps = 0.5
[initial]
rho_modes = 1, 0.15, 0.25
u_modes = 1, 0.0, 0.1
""",
    "semistationary2d": """
[model]
kind = semistationary2d
[grid]
nx = 8
[params]
p = 4.0
[initial]
rho_modes = 1, 0, 0.3, 0
""",
}

CHECKS = {
    "powerlaw1d": ["mass_conservation", "momentum_conservation",
                   "energy_inequality", "stress_max_principle",
                   "density_bounds"],
    "singular1d": ["mass_conservation", "momentum_conservation",
                   "energy_inequality", "barrier_invariant"],
    "semistationary2d": ["mass_conservation", "flat_mode_gauge_2d",
                         "stationarity_2d", "energy_inequality",
                         "linf_growth_2d"],
}

SHEAR_COLUMN = {"powerlaw1d": "dudx_maxabs", "singular1d": "dudx_maxabs",
                "semistationary2d": "Du_maxnorm"}


def test_every_model_is_covered():
    assert set(MODELS) == set(CONFIGS) == set(CHECKS)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_protocol(name, tmp_path):
    cls = MODELS[name]
    assert cls.name == name
    cfg = parse_config(CONFIGS[name] + "[time]\nT = 0.0\n")
    params, g = cfg.build_params(), cfg.grid()
    assert type(params) is cls.params_class
    model = cls(params, g)
    assert model.params is params and model.g is g

    rho0, u0 = cfg.initial_fields(g)
    traj = cls.run(params, g, rho0, u0, cfg.T, cfg.snapshot_schedule())
    assert traj.model == name
    assert len(traj.snapshots) == 1 and len(traj.records) == 1
    assert traj.snapshots[0].t == traj.records[0].t == 0.0

    assert [r.check for r in model.checks(cfg, traj)] == CHECKS[name]
    paths = model.write_csvs(traj, str(tmp_path))
    assert [p.name for p in sorted(tmp_path.iterdir())] == \
        ["diag.csv", "snap_000000.csv"]
    assert sorted(paths) == sorted(str(p) for p in tmp_path.iterdir())
    header = (tmp_path / "diag.csv").read_text().splitlines()[0].split(",")
    assert header[8] == SHEAR_COLUMN[name]

    shear, pi = model.shear_and_multiplier(traj.snapshots[0].u)
    assert shear.shape == pi.shape == rho0.shape
    assert (shear >= 0).all() and (pi >= 0).all()
