import hashlib
import json
import os

import numpy as np
import pytest

from thickflow import banks
from thickflow.banks import (_waves, sample_bank, scalar_bank_1d,
                             scalar_bank_2d, velocity_bank_2d)
from thickflow.cli import main
from thickflow.grids import Grid1D, Grid2D

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

# sha256 of the `thickflow banks` output. The velocity banks feed the
# variational inequality (C11), so a change of these bytes changes what
# the checks test against; it must be deliberate, and re-pinned here.
# Re-pinned when the dump gained "scalar_2d", the bank of a 2D run's
# weak-form checks; every other key kept its bytes. Re-pinned when the
# dump came to draw every bank through banks.check_bank: "scalar_1d" now
# holds the first min(bank_size, 10) = 10 of its former 20 members, the
# bank a 1D run's weak-form checks draw; every other key kept its bytes.
BANK_DIGESTS = {
    "demo_1d.cfg":
        "bd66bbd9c7c7cb4a2bf57ea0b35bd0339f652654eba3e5ad1ca79ca840f0d1f5",
    "reference_2d.cfg":
        "186dfdb77766e092a32321486241e3a2b06761aa9722ef734d98f286e79e2ea5",
}


def _loop_1d(coeffs, x, dx=False):
    """The per-wave form: cos and sin evaluated inside the sum."""
    out = np.zeros_like(x)
    for k, c, s in coeffs:
        w = 2.0 * np.pi * k
        if dx:
            out += w * (-c * np.sin(w * x) + s * np.cos(w * x))
        else:
            out += c * np.cos(w * x) + s * np.sin(w * x)
    return out


def _loop_2d(coeffs, X, Y, d=None):
    out = np.zeros_like(X)
    for kx, ky, c, s in coeffs:
        phase = 2.0 * np.pi * (kx * X + ky * Y)
        if d is None:
            out += c * np.cos(phase) + s * np.sin(phase)
        else:
            w = 2.0 * np.pi * (kx if d == 0 else ky)
            out += w * (-c * np.sin(phase) + s * np.cos(phase))
    return out


def test_plane_waves_equal_per_wave_form_1d():
    g = Grid1D(60)
    bank = scalar_bank_1d(seed=31, T=1.0, size=4, modes=5)
    for phi, sampled in zip(bank, sample_bank(bank, g)):
        assert np.array_equal(sampled.S, _loop_1d(phi.coeffs, g.x))
        assert np.array_equal(sampled.grad_S[0],
                              _loop_1d(phi.coeffs, g.x, dx=True))
        assert np.array_equal(phi.spatial(g.x, d=0),
                              _loop_1d(phi.coeffs, g.x, dx=True))


def test_plane_waves_equal_per_wave_form_2d():
    g = Grid2D(18, 20)
    X, Y = g.meshgrid()
    bank = scalar_bank_2d(seed=31, T=1.0, size=4, modes=3)
    for phi, sampled in zip(bank, sample_bank(bank, g)):
        assert np.array_equal(sampled.S, _loop_2d(phi.coeffs, X, Y))
        for d in (0, 1):
            assert np.array_equal(sampled.grad_S[d],
                                  _loop_2d(phi.coeffs, X, Y, d))
    v = velocity_bank_2d(seed=31, T=1.0, size=1)[0]
    D = v.spatial_sym_grad(X, Y)
    assert np.array_equal(D[0], v.scale * _loop_2d(v.coeffs1, X, Y, 0))
    assert np.array_equal(D[2], 0.5 * v.scale * (
        _loop_2d(v.coeffs1, X, Y, 1) + _loop_2d(v.coeffs2, X, Y, 0)))


@pytest.mark.parametrize("name", sorted(BANK_DIGESTS))
def test_banks_bytes_pinned(capsys, name):
    assert main(["banks", os.path.join(CONFIGS, name)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == BANK_DIGESTS[name]


RUN_1D = """
[model]
kind = powerlaw1d
[grid]
n = 32
[params]
p = 8.0
a = 2.0
gamma = 2.0
[initial]
rho_modes = 1, 0.15, 0.25
u_modes = 1, 0.0, 0.1
seed = 5
[time]
T = 0.02
snapshots = 4
[checks]
bank_size = 12
bank_modes = 1
"""

RUN_2D = """
[model]
kind = semistationary2d
[grid]
nx = 16
ny = 16
[params]
p = 4.0
cfl = 0.1
[initial]
rho_modes = 1, 1, 0.2, 0.0
seed = 5
[time]
T = 0.02
snapshots = 4
[checks]
bank_size = 12
bank_modes = 1
"""


@pytest.mark.parametrize("ndim", [1, 2])
def test_banks_dumps_the_scalar_bank_of_the_weak_form_checks(
        ndim, monkeypatch, capsys, tmp_path):
    # the bank a run's transport checks draw, captured from the run
    drawn = []

    def spy(*args, **kwargs):
        drawn.append(real(*args, **kwargs))
        return drawn[-1]

    maker = f"scalar_bank_{ndim}d"
    real = getattr(banks, maker)
    monkeypatch.setattr(banks, maker, spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_1D if ndim == 1 else RUN_2D)
    assert main(["run", str(cfg), "--output", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert len(drawn) == 1
    assert main(["banks", str(cfg)]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump[f"scalar_{ndim}d"] == [
        {"coeffs": [list(q) for q in phi.coeffs], "scale": phi.scale}
        for phi in drawn[0]]
    # min(bank_size, 10) members on the waves of bank_modes = 1
    assert len(drawn[0]) == 10
    assert {tuple(q[:-2]) for phi in drawn[0] for q in phi.coeffs} \
        == set(_waves(1, ndim))
    # the velocity banks have bank_size members; the 2D one keeps the
    # modes C11 draws
    assert len(dump["velocity_1d"]) == len(dump["velocity_2d"]) == 12
    for v in dump["velocity_2d"]:
        assert [tuple(q[:2]) for q in v["coeffs1"]] == _waves(2, 2)
