import hashlib
import os

import numpy as np
import pytest

from thickflow.banks import (sample_bank, scalar_bank_1d, scalar_bank_2d,
                             velocity_bank_2d)
from thickflow.cli import main
from thickflow.grids import Grid1D, Grid2D

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

# sha256 of the `thickflow banks` output. The velocity banks feed the
# variational inequality (C11), so a change of these bytes changes what
# the checks test against; it must be deliberate, and re-pinned here.
BANK_DIGESTS = {
    "demo_1d.cfg":
        "d88664a19a234469123fb94bb941332330123f3315fd5926e6a7e9444100e08f",
    "reference_2d.cfg":
        "f5a094554ef79b58ba89330e0e9b0eb15add5bdce0877492cf8f34832da3a693",
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
