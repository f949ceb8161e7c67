"""The three benchmark workloads and their seeded config generator.

Each workload is one `thickflow` CLI invocation on a generated config.
The seed draws, through `thickflow.banks.SplitMix64`, the config `seed`
that feeds the test banks of the weak-form and variational checks. The
initial data are the reference data for every seed.

The seed leaves the initial data alone because the solvers' work follows
their roundoff: translating the data by whole grid cells, the same
problem, changed the functional evaluations of `stokes2d` by up to 14%
and the flux evaluations of `singular-fine` by up to 15% between seeds,
and independent phases per mode changed the Newton iterations per step
of `singular-fine` from 1.8 to 5.5 and made the 2D momentum check fail.

Import this module only after the checkout's `src/` is on `sys.path`.
"""

import math
from dataclasses import dataclass

from thickflow.banks import SplitMix64

# two-mode strong-forcing velocity of the reference sweep: the shear
# amplitudes 2 pi k |u_k| add up to 0.95
_U1 = 0.95 / 1.2 * 0.7 / (2 * math.pi)
_U2 = 0.95 / 1.2 * 0.25 / (2 * math.pi)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str            # thickflow subcommand: run | sweep
    cli_args: tuple         # extra CLI arguments after --output
    sections: dict          # config sections; modes as flat tuples

    @property
    def jobs(self):
        args = self.cli_args
        return int(args[args.index("--jobs") + 1]) if "--jobs" in args else 1


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sweep-p",
            why="p -> infinity sweep p = 4..64 on strong two-mode data, "
                "n = 256, --jobs 2: many small Newton solves, power-law "
                "fluxes, the limits checks and the parallel sweep path",
            command="sweep", cli_args=("--jobs", "2"),
            sections={
                "model": {"kind": "powerlaw1d"},
                "grid": {"n": 256},
                "params": {"p": 8.0, "mu": 1.0, "a": 8.0, "gamma": 2.0},
                "initial": {"rho_mean": 1.0,
                            "rho_modes": (1, 0.0, 0.25, 2, 0.12, 0.0),
                            "u_mean": 0.0,
                            "u_modes": (1, 0.0, _U1, 2, 0.0, _U2),
                            "paper_initial_conditions": "true"},
                "time": {"T": 0.03, "snapshots": 6},
                "sweep": {"kind": "p", "values": (4, 8, 16, 32, 64)},
                "checks": {"tol_c": 5.0, "eta": (0.01, 0.05, 0.1)},
            }),
        Workload(
            name="singular-fine",
            why="singular eps = 1e-3 run on the 10240-cell constraint-layer "
                "grid: wide arrays and fraction-to-boundary Newton make the "
                "tridiagonal solve the largest cost; no power-law or 2D code",
            command="run", cli_args=(),
            sections={
                "model": {"kind": "singular1d"},
                "grid": {"n": 10240},
                "params": {"eps": 1e-3, "a": 2.0, "gamma": 2.0, "cfl": 0.45,
                           "theta": 0.3},
                "initial": {"rho_mean": 1.0, "rho_modes": (1, 0.15, 0.3),
                            "u_mean": 0.0,
                            "u_modes": (1, 0.0, 0.9 / (2 * math.pi)),
                            "paper_initial_conditions": "true"},
                "time": {"T": 0.004, "snapshots": 4},
            }),
        Workload(
            name="stokes2d",
            why="2D semi-stationary solve, p = 8 on 64 x 64: L-BFGS momentum "
                "solves and the 2D weak-form checks; bypasses the 1D stepper",
            command="run", cli_args=(),
            sections={
                "model": {"kind": "semistationary2d"},
                "grid": {"nx": 64, "ny": 64},
                "params": {"p": 8.0, "a": 1.0, "gamma": 2.0, "cfl": 0.1},
                "initial": {"rho_mean": 1.0,
                            "rho_modes": (1, 1, 0.25, 0.0, 1, -1, 0.25, 0.0)},
                "time": {"T": 0.01, "snapshots": 3},
            }),
    )
}


def _format(value):
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def config_text(workload, seed):
    """The workload's config file text for one benchmark seed."""
    sections = {name: dict(keys) for name, keys in workload.sections.items()}
    sections["initial"]["seed"] = SplitMix64(seed).next_u64() % 2**31
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {_format(v)}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"

