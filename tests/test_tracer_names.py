"""The benchmark's tracer (perfbench/tracer.py) wraps thickflow functions
and methods by name; a rename in src/ would silently drop its spans.
This test runs the CLI (three runs and a two-member p sweep) under the
tracer, in a fresh process so that the wrappers do not leak into other
tests, and checks that the spans the per-layer metrics are computed from
are recorded."""

import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

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
paper_initial_conditions = true
[time]
T = 0.02
snapshots = 4
"""

RUN_SINGULAR = """
[model]
kind = singular1d
[grid]
n = 64
[params]
eps = 0.01
a = 2.0
gamma = 2.0
theta = 0.5
[initial]
rho_modes = 1, 0.15, 0.25
u_modes = 1, 0.0, 0.1
paper_initial_conditions = true
[time]
T = 0.01
snapshots = 2
"""

RUN_2D = """
[model]
kind = semistationary2d
[grid]
nx = 16
ny = 16
[params]
p = 4.0
gamma = 2.0
cfl = 0.1
[initial]
rho_modes = 1, 0, 0.3, 0.0
[time]
T = 0.02
snapshots = 4
"""

SWEEP_P = RUN_1D + """
[sweep]
kind = p
values = 4, 8
"""

TRACED_RUNS = """
import sys

sys.path[:0] = sys.argv[1:3]
from tracer import Tracer

from thickflow import cli

tracer = Tracer()
tracer.install()
for arg in sys.argv[4:]:
    command, cfg = arg.split(":", 1)
    assert cli.main([command, cfg, "--output", cfg + ".out", "--quiet"]) == 0
tracer.save(sys.argv[3])
"""


def test_tracer_records_the_layers_it_names(tmp_path):
    cfgs = []
    for command, name, text in (("run", "run1d.cfg", RUN_1D),
                                ("run", "run2d.cfg", RUN_2D),
                                ("run", "singular.cfg", RUN_SINGULAR),
                                ("sweep", "sweep.cfg", SWEEP_P)):
        (tmp_path / name).write_text(text)
        cfgs.append(f"{command}:{tmp_path / name}")
    spans = tmp_path / "spans.npz"
    subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(spans), *cfgs],
        check=True, timeout=300)
    with np.load(spans) as z:
        span_of = dict(zip(z["id"].tolist(),
                           zip(z["name"].tolist(), z["parent"].tolist())))
    names = {name for name, _ in span_of.values()}
    assert {"cli.main", "cli.member", "stepper1d.newton",
            "stepper1d.transport", "stepper1d.advance", "stepper1d.tridiag",
            "powerlaw1d.step", "powerlaw1d.flux", "singular1d.step",
            "singular1d.flux", "semistationary2d.solve",
            "semistationary2d.functional",
            "semistationary2d.gradient", "limits"} <= names

    def chain(sid):
        """The names of span sid and of the spans it is nested in."""
        out = []
        while sid in span_of:
            name, sid = span_of[sid]
            out.append(name)
        return out

    # the singular-fine per-layer metrics read these spans of its run
    singular = [c for c in map(chain, span_of) if "singular1d.step" in c]
    assert ["stepper1d.tridiag", "stepper1d.newton", "singular1d.step"] \
        in [c[:3] for c in singular]
    assert ["singular1d.flux", "stepper1d.newton", "singular1d.step"] \
        in [c[:3] for c in singular]

    # the sweep-p limits.s metric reads the limits spans of the sweep
    limits = [c for c in map(chain, span_of) if c[0] == "limits"]
    assert len(limits) == 2     # assemble_sweep_report, variational_residual_1d
    assert all(c[1:] == ["cli.main"] for c in limits)

    # every run and sweep member writes its CSVs through the wrapped
    # trajectory writers: a writer bound at import would record no span
    mains = [sid for sid, (name, _) in span_of.items() if name == "cli.main"]
    assert len(mains) == 4
    by_main = {sid: set() for sid in mains}
    for sid, (name, _) in span_of.items():
        path = [sid]
        while path[-1] in span_of and span_of[path[-1]][0] != "cli.main":
            path.append(span_of[path[-1]][1])
        if path[-1] in by_main:
            by_main[path[-1]].add(name)
    assert all("trajectory.write" in names for names in by_main.values())

    # the 2D run's momentum solves and transports run inside its member
    for name in ("semistationary2d.solve", "semistationary2d.transport"):
        chains = [c for c in map(chain, span_of) if c[0] == name]
        assert chains
        assert all(c[1:] == ["cli.member", "cli.main"] for c in chains)
