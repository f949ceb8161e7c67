"""The dense samples of config validation and of the velocity banks'
scales are evaluated in bounded blocks (grids.dense_extrema): their
extrema equal those of the whole sample bit for bit, and validating a
fine 2D config takes a few MB, not memory that grows with the grid."""

import dataclasses
import glob
import os
import sys
import tracemalloc

import numpy as np
import pytest

from thickflow.banks import (BANK_MODES, BANK_SIZE, scalar_bank_1d,
                             velocity_bank_1d, velocity_bank_2d)
from thickflow.config import load_config, parse_config
from thickflow.grids import FourierSeries, sym_grad_norm

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))


def _benchmark_configs():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import WORKLOADS, config_text
    finally:
        sys.path.pop(0)
    return {name: config_text(w, 11) for name, w in WORKLOADS.items()}


BENCHMARK = _benchmark_configs()
ALL = [load_config(p) for p in CONFIGS] + [parse_config(t)
                                           for t in BENCHMARK.values()]
IDS = [os.path.basename(p) for p in CONFIGS] + list(BENCHMARK)


def _whole(*counts):
    """The points k/m, k = 0..m-1, on each axis, m its entry of counts,
    at once, as full arrays."""
    return np.meshgrid(*[np.arange(m) / m for m in counts], indexing="ij")


@pytest.mark.parametrize("cfg", ALL, ids=IDS)
def test_config_extrema_equal_the_whole_sample(cfg):
    # 8 points per cell on each axis
    counts = (8 * cfg.nx, 8 * cfg.ny) if cfg.is_2d else (8 * cfg.n,)
    vals = cfg.rho0.spatial(*_whole(*counts))
    assert cfg.initial_density_range() == (np.min(vals), np.max(vals))
    if not cfg.is_2d:
        shear = np.abs(cfg.u0.spatial(*_whole(*counts), d=0))
        assert cfg.initial_shear_max() == np.max(shear)


def test_non_square_2d_config_samples_each_axis_at_its_own_resolution(
        monkeypatch):
    # 512 x 16 cells: 4096 x 128 points, in 16 blocks of 256 whole rows;
    # 8 max(nx, ny) points on both axes would be 4096^2
    shapes = []
    spatial = FourierSeries.spatial

    def counted(self, *coords, d=None):
        shapes.append(coords[0].shape)
        return spatial(self, *coords, d=d)

    monkeypatch.setattr(FourierSeries, "spatial", counted)
    parse_config("[model]\nkind = semistationary2d\n[grid]\nnx = 512\n"
                 "ny = 16\n[initial]\nrho_modes = 1, 1, 0.25, 0.0\n"
                 "[time]\nT = 0.01\n")
    assert shapes == [(256, 128)] * 16


# (seed, size, modes) of the velocity banks the configs draw
# (banks.check_bank); T enters only the envelope, not the scales
BANKS = sorted({(c.seed, BANK_SIZE, BANK_MODES) for c in ALL})


@pytest.mark.parametrize("seed, size, modes", BANKS)
def test_velocity_bank_scales_equal_the_whole_sample(seed, size, modes):
    x, = _whole(2048)
    for v, phi in zip(velocity_bank_1d(seed, 1.0, size=size, modes=modes),
                      scalar_bank_1d(seed, 1.0, size=size, modes=modes)):
        assert v.coeffs == phi.coeffs
        assert v.scale == 0.99 / np.max(np.abs(phi.spatial(x, d=0)))
    X, Y = _whole(256, 256)
    for v in velocity_bank_2d(seed, 1.0, size=size):
        D = dataclasses.replace(v, scale=1.0).spatial_sym_grad(X, Y)
        assert v.scale == 0.99 / np.max(sym_grad_norm(D))


@pytest.mark.parametrize("n", [128, 256])
def test_2d_config_validation_peak_memory_is_bounded(n):
    # the whole 8n x 8n sample held 50 MB at n = 128 and 201 MB at 256;
    # in blocks, validation peaks at 2.7 MB at either size
    text = (f"[model]\nkind = semistationary2d\n[grid]\nnx = {n}\n"
            f"ny = {n}\n[initial]\n"
            "rho_modes = 1, 1, 0.25, 0.0, 1, -1, 0.25, 0.0\n"
            "[time]\nT = 0.01\n")
    tracemalloc.start()
    try:
        cfg = parse_config(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.nx == n
    assert peak < 4e6
