"""Byte-identity guard for the solvers: the sha256 of the numeric CSVs
of a small power-law p sweep, of a small singular run and of a small
semi-stationary 2D run.

A speed-up must leave these bytes as they are. The power-law digest
was computed when Newton came to start at u^n, not at u*, and to accept
a step below the rounding unit of its merit by the slope there; that
moved the snapshots by at most 4.1e-14 in u, 2.2e-12 in dudx and
1.1e-11 in sigma, within the Newton tolerance. The singular digest was
computed when its Newton came to start at the linear extrapolation in
time of the last accepted step, where that lies inside the barrier; that
moved the snapshots by at most 5.6e-17 in u, 2.2e-16 in rho, 3.6e-15 in
dudx and 1.1e-11 in sigma, and dudx_maxabs in diag.csv by 9.0e-14,
within the Newton tolerance. The 2D digest was
computed when the L-BFGS matrix of the momentum solve came to be kept
in the compact form, with H0 y the difference of two H0 g, in place of
the two-loop recursion: the same matrix, rounded differently. Against
the former bytes, that moved u1 and u2 by at most 6.8e-9, Du_norm by
6.0e-8, divu by 9.7e-8 and rho by 5.4e-10 in the snapshots, and in
diag.csv sigma_max by 1.8e-8, Du_maxnorm by 4.9e-9, hoff_cum by 1.3e-10
and energy by 1.1e-11, within the solver tolerance; the 4 momentum
solves took 131 L-BFGS iterations, against 135. All were computed with numpy 2.4.6 on an x86-64 CPU with
AVX-512. Another numpy build or CPU may round exp, log and the FFT
differently, and then the digests change for a reason that is not in
this code. The sweep takes 653 Newton
iterations (73 damped), the singular run 404 (39 damped or capped); the
2D run makes 4 momentum solves."""

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
    SWEEP_P: "c39283e8b50eaa9ec6f14557e37cda21"
             "ba1b8b0e9997a312b46682ebb1df792b",
    SINGULAR: "05cd4cf285d7bf14f28496d68a38b223"
              "49410ba23da3ca408c078febb7861d14",
    STOKES_2D: "bb7b1f26d1e9d1cfa97d6b77031e24be"
               "1d495123182b00a1d64d59a136718b4a",
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


# Two small sweeps of gamma = 1.4, whose sweep-level JSON artifacts no
# CSV digest covers: the sweep report's density and entropy distances
# use the runs' gamma, and checks.json holds the Hoff uniformity and the
# variational inequality of the finest run.
SWEEP_MEMBERS = """
[model]
kind = powerlaw1d
[grid]
n = 32
[params]
a = 2.0
gamma = 1.4
[initial]
rho_modes = 1, 0.15, 0.25
u_modes = 1, 0.0, 0.1
paper_initial_conditions = true
seed = 11
[time]
T = 0.02
snapshots = 4
"""

SWEEP_JSON_DIGESTS = {
    "kind = p\nvalues = 4, 8, 16\n":
        "b2d767cf7189215ea31025719398df09"
        "5651b7781f529d9be0a8770488b7bc37",
    "kind = cross\nvalues = 4, 8\neps_values = 0.5, 0.2\neps_n = 64\n":
        "c670cdb212af799170d4d36f08d2e56e"
        "b2a18974898c3af3908eabf977a3ce6e",
}


@pytest.mark.parametrize("sweep", list(SWEEP_JSON_DIGESTS),
                         ids=["p", "cross"])
def test_sweep_jsons_keep_their_bytes(tmp_path, sweep):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SWEEP_MEMBERS + "[sweep]\n" + sweep)
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--output", str(out), "--quiet"]) == 0
    h = hashlib.sha256()
    for name in ("checks.json", "sweep_report.json"):
        h.update(name.encode() + b"\0")
        h.update((out / name).read_bytes())
    assert h.hexdigest() == SWEEP_JSON_DIGESTS[sweep]
