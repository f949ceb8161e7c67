"""Byte-identity guard for the solvers: the sha256 of the numeric CSVs
of a small power-law p sweep, of a small singular run and of a small
semi-stationary 2D run.

A speed-up must leave these bytes as they are. The 1D digests were
computed at commit 03a5735, before the flux kernels shared their
intermediates, the 2D digest at commit e0f15a4, before the L-BFGS
iterates shared their strain, both with numpy 2.4.6 on an x86-64 CPU
with AVX-512. Another numpy build or CPU may round exp, log and the FFT
differently, and then the digests change for a reason that is not in
this code. The sweep takes 1948 Newton iterations (41 damped), the
singular run 410 (43 damped or capped); the 2D run makes 4 momentum
solves."""

import hashlib

import pytest

from thickflow.cli import main

SWEEP_P = """
[model]
kind = powerlaw1d
[grid]
n = 64
[params]
a = 8.0
gamma = 2.0
[initial]
rho_modes = 1, 0.0, 0.25, 2, 0.12, 0.0
u_modes = 1, 0.0, 0.0882, 2, 0.0, 0.0315
paper_initial_conditions = true
seed = 11
[time]
T = 0.05
snapshots = 2
[sweep]
kind = p
values = 4, 16, 64
"""

SINGULAR = """
[model]
kind = singular1d
[grid]
n = 128
[params]
eps = 0.01
a = 2.0
gamma = 2.0
theta = 0.3
[initial]
rho_modes = 1, 0.15, 0.3
u_modes = 1, 0.0, 0.1432
paper_initial_conditions = true
seed = 11
[time]
T = 0.05
snapshots = 2
"""

STOKES_2D = """
[model]
kind = semistationary2d
[grid]
nx = 32
ny = 32
[params]
p = 8.0
a = 1.0
gamma = 2.0
cfl = 0.1
[initial]
rho_modes = 1, 1, 0.25, 0.0, 1, -1, 0.25, 0.0
seed = 11
[time]
T = 0.01
snapshots = 2
"""

DIGESTS = {
    SWEEP_P: "612fee02fefb12617e9dc99a47ad20ae"
             "0a9c40c95cc78b29fd7fb69a9ee64912",
    SINGULAR: "dd590883e8e1c33948e4efe243d4aeff"
              "9aa1f56ccc8df7ae6ff473ac19a0fc1c",
    STOKES_2D: "f462aacf1cdf3b9d04f974371e42371f"
               "6091b3a348b3ada217daa500a593858e",
}


def csv_digest(outdir):
    """sha256 over every CSV under outdir, by relative path."""
    h = hashlib.sha256()
    for path in sorted(outdir.rglob("*.csv")):
        h.update(str(path.relative_to(outdir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("command, text", [
    ("sweep", SWEEP_P), ("run", SINGULAR),
    pytest.param("run", STOKES_2D, id="run-semistationary2d")])
def test_numeric_csvs_keep_their_bytes(tmp_path, command, text):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, str(cfg), "--output", str(out), "--quiet"]) == 0
    assert csv_digest(out) == DIGESTS[text]
