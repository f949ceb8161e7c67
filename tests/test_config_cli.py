import glob
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from thickflow.cli import main
from thickflow.config import load_config, parse_config
from thickflow.errors import ParseError, ValidationError
from thickflow.powerlaw1d import PowerLawModel

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                        "configs", "*.cfg")))

MINIMAL = """
[model]
kind = powerlaw1d
[grid]
n = 64
[time]
T = 0.05
"""

SMALL_RUN = """
[model]
kind = powerlaw1d
[grid]
n = 64
[params]
p = 8.0
a = 2.0
gamma = 2.0
[initial]
rho_mean = 1.0
rho_modes = 1, 0.15, 0.25
u_mean = 0.0
u_modes = 1, 0.0, 0.1
paper_initial_conditions = true
seed = 2026
[time]
T = 0.05
snapshots = 8
"""


class TestParser:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model == "powerlaw1d"
        assert cfg.model_class is PowerLawModel
        assert cfg.n == 64 and cfg.T == 0.05
        assert cfg.build_params().gamma == 2.0
        assert cfg.build_params().delta == 1e-8
        assert cfg.tol_c == 5.0
        assert len(cfg.snapshot_schedule()) == 32

    def test_sweep_members_hold_model_classes(self):
        from thickflow.singular1d import SingularModel

        cfg = parse_config(SMALL_RUN + "[sweep]\nkind = cross\nvalues = 4, 8"
                           "\neps_values = 0.5\neps_n = 128\n")
        assert [m[:3] for m in cfg.sweep_members] == [
            ("p", 4.0, PowerLawModel), ("p", 8.0, PowerLawModel),
            ("eps", 0.5, SingularModel)]

    def test_comments_and_lists(self):
        cfg = parse_config(SMALL_RUN + "\n# trailing comment\n")
        assert cfg.rho0.coeffs[1:] == [(1, 0.15, 0.25)]
        assert cfg.u0.coeffs[1:] == [(1, 0.0, 0.1)]

    def test_syntax_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("[model]\nnonsense line\n")
        with pytest.raises(ParseError, match="unknown section"):
            parse_config("[nope]\nx = 1\n")
        with pytest.raises(ParseError, match="outside any"):
            parse_config("x = 1\n")

    def test_gamma_validation(self):
        bad = MINIMAL.replace("[time]", "[params]\ngamma = 0.5\n[time]")
        with pytest.raises(ValidationError, match="gamma must exceed 1"):
            parse_config(bad)

    def test_all_errors_collected(self):
        bad = """
[model]
kind = powerlaw1d
[grid]
n = 4
[params]
gamma = 0.5
cfl = 7.0
[time]
T = -1.0
"""
        with pytest.raises(ValidationError) as exc:
            parse_config(bad)
        msgs = "\n".join(exc.value.errors)
        assert "gamma" in msgs and "cfl" in msgs and "T" in msgs and "n" in msgs
        assert len(exc.value.errors) >= 4

    def test_density_positivity_dense_sampling(self):
        bad = SMALL_RUN.replace("rho_modes = 1, 0.15, 0.25",
                                "rho_modes = 1, 0.8, 0.8")
        with pytest.raises(ValidationError, match="dips"):
            parse_config(bad)

    def test_shear_bound_under_flag(self):
        bad = SMALL_RUN.replace("u_modes = 1, 0.0, 0.1",
                                "u_modes = 1, 0.0, 0.25")
        # max |du/dx| = 2 pi * 0.25 = 1.57 > 1 with the flag set
        with pytest.raises(ValidationError, match="du0/dx"):
            parse_config(bad)
        ok = bad.replace("paper_initial_conditions = true",
                         "paper_initial_conditions = false")
        assert parse_config(ok).initial_shear_max() > 1.0

    def test_eps_resolution_rule(self):
        bad = """
[model]
kind = singular1d
[grid]
n = 64
[sweep]
kind = eps
values = 0.001
[time]
T = 0.05
"""
        with pytest.raises(ValidationError, match="eps >= 10 dx"):
            parse_config(bad)


REJECTED = [
    ("[sweep]\nkind = eps", "sweep.values: kind = eps"),
    ("[sweep]\nkind = cross\nvalues = 4, 8\neps_values = 0.5\neps_n = 96",
     "sweep.eps_n: 96"),
    ("[sweep]\nkind = cross\neps_values = 0.5", "sweep.values: kind = cross"),
    ("[sweep]\nkind = cross\nvalues = 4, 8", "sweep.eps_values: kind = cross"),
    ("[sweep]\nkind = p\nvalues = 4, 8.0000001, 8.0000002",
     "sweep.values: two of"),
    ("[params]\nmu = -1", "params.mu: viscosity mu must be positive"),
    ("[params]\na = 0", "params.a: pressure constant a must be positive"),
    ("[params]\ndelta = 0", r"params.delta: delta > 0 required for p > 2"),
    ("[model]\nkind = singular1d\n[params]\ntheta = 1.5",
     r"params.theta: fraction-to-boundary factor theta must be in \(0, 1\)"),
    ("[params]\np = abc", "params.p: expected a number, got 'abc'"),
    ("[sweep]\nkind = p\nvalues = 4, 1",
     "sweep.values: member p = 1: p: power-law exponent p must be >= 2"),
    ("[sweep]\nkind = p\nvalues = 4, eight",
     r"sweep.values: expected numbers, got \[4, 'eight'\]"),
    ("[sweep]\nkind = cross\nvalues = 1, 8\neps_values = 0.5\neps_n = 128",
     "sweep.values: member p = 1: p: power-law exponent p must be >= 2"),
    ("[model]\nkind = semistationary2d\n[initial]\nrho_modes = 1, 0, 0.3, 0"
     "\n[sweep]\nkind = p\nvalues = 4, 8",
     r"sweep.kind: expected p \| eps \| cross of a 1D model, got 'p' of "
     "semistationary2d"),
    ("[sweep]\nkind = p\nvalues = 4, 8\n[checks]\neta = 0.0, 0.05",
     r"checks.eta: every eta must be positive, got \[0.0, 0.05\]"),
    ("[sweep]\nkind = p\nvalues = 4, 8\n[checks]\nbank_size = 0",
     "checks.bank_size: must be >= 1, got 0"),
    ("[params]\nnewton_max_iter = 0",
     "params.newton_max_iter: Newton iteration budget newton_max_iter must "
     "be >= 1"),
    ("[params]\nnewton_tol = 0",
     "params.newton_tol: Newton tolerance newton_tol must be positive"),
    ("[model]\nkind = singular1d\n[params]\nnewton_tol = -1e-12",
     "params.newton_tol: Newton tolerance newton_tol must be positive"),
    ("[model]\nkind = singular1d\n[params]\nnewton_max_iter = 0",
     "params.newton_max_iter: Newton iteration budget newton_max_iter must "
     "be >= 1"),
    ("[initial]\npaper_initial_conditions = maybe",
     "initial.paper_initial_conditions: expected bool, got 'maybe'"),
    ("[initial]\npaper_initial_conditions = 1.5",
     "initial.paper_initial_conditions: expected bool, got 1.5"),
    ("[grid]\nn = 64.7", "grid.n: expected int, got 64.7"),
    ("[time]\nsnapshots = 2.5", "time.snapshots: expected int, got 2.5"),
    ("[time]\nsnapshot = 4", "time.snapshot: unknown key"),
    ("[checks]\ntolc = 3", "checks.tolc: unknown key"),
    ("[output]\ndirectory = x", "output.directory: unknown key"),
    ("[time]\nsnapshot_times = 0.005, 0.5",
     r"time.snapshot_times: \[0.5\] outside \(0, T = 0.05\]"),
    ("[model]\nkind = singular1d\n[params]\na = -1.0",
     "params.a: pressure constant a must be positive"),
    ("[model]\nkind = semistationary2d\n[initial]\nrho_modes = 1, 0, 0.3, 0"
     "\n[params]\na = -1.0",
     "params.a: pressure constant a must be positive"),
    ("[sweep]\nkind = p\nvalues = 4, 8\n[checks]\nbank_modes = 0",
     "checks.bank_modes: must be >= 1, got 0"),
    ("[checks]\ns_list = 0.02, 0.5, 0.0",
     r"checks.s_list: \[0.5, 0.0\] outside \(0, T = 0.05\]"),
    # 8 snapshots to T = 0.04 are 0.005 apart
    ("[time]\nT = 0.04\n[checks]\ns_list = 0.02, 0.013",
     r"checks.s_list: horizon 0.013 is not a multiple of the snapshot "
     r"cadence 0.00499"),
    # each kind reads only its own keys: 7 would be no valid grid.n
    ("[sweep]\nkind = p\nvalues = 4, 8\neps_values = 0.1\neps_n = 7",
     "sweep.eps_n: unknown key"),
    ("[sweep]\nkind = p\nvalues = 4, 8\neps_values = 0.1",
     "sweep.eps_values: unknown key"),
    ("[sweep]\nkind = eps\nvalues = 0.5\neps_values = 0.2",
     "sweep.eps_values: unknown key"),
    ("[time]\nsnapshots = 0", "time.snapshots: must be >= 1, got 0"),
    ("[time]\nsnapshots = -3", "time.snapshots: must be >= 1, got -3"),
    # a [sweep] without kind has no member to read its keys
    ("[sweep]\nvalues = 4, 8\neps_n = 7",
     r"sweep.kind: expected p \| eps \| cross of a 1D model, got '' of "
     "powerlaw1d"),
    ("[model]\nkind = semistationary2d\n[initial]\nrho_modes = 1, 0, 0.3, 0"
     "\n[sweep]\nvalues = 4, 8",
     r"sweep.kind: expected p \| eps \| cross of a 1D model, got '' of "
     "semistationary2d"),
    # the energy inequality's tolerance is its check's own constant
    ("[checks]\nenergy_tol = 1e-3", "checks.energy_tol: unknown key"),
    # non-finite values that a run cannot use
    ("[initial]\nrho_mean = nan", "initial.rho_mean: must be finite, got nan"),
    ("[initial]\nu_modes = 1, 0.0, inf",
     r"initial.u_modes: must be finite, got \[1, 0.0, inf\]"),
    ("[checks]\ntol_c = nan", "checks.tol_c: must be finite and >= 0, got nan"),
    ("[checks]\ntol_c = -1", "checks.tol_c: must be finite and >= 0, got -1"),
    ("[model]\nkind = semistationary2d\n[initial]\nrho_modes = 1, 0, 0.3, 0"
     "\n[params]\ndelta = nan",
     "params.delta: flux regularization delta must be >= 0"),
]
REJECTED_IDS = ["eps_without_values", "cross_grids_not_nested",
                "cross_without_values", "cross_without_eps_values",
                "labels_collide", "mu_negative", "a_zero", "delta_zero",
                "theta_above_1", "p_not_a_number", "sweep_p_below_2",
                "sweep_value_not_a_number", "cross_p_below_2", "sweep_2d",
                "eta_zero", "bank_size_zero", "newton_max_iter_zero",
                "newton_tol_zero", "singular_newton_tol_negative",
                "singular_newton_max_iter_zero", "paper_initial_not_a_bool",
                "paper_initial_a_number", "n_not_an_int",
                "snapshots_not_an_int", "time_key_misspelled",
                "checks_key_misspelled", "output_key_misspelled",
                "snapshot_time_beyond_T", "singular_a_negative",
                "2d_a_negative", "bank_modes_zero", "s_list_outside_0_T",
                "s_list_off_the_snapshot_cadence", "p_sweep_eps_n",
                "p_sweep_eps_values", "eps_sweep_eps_values",
                "snapshots_zero", "snapshots_negative", "sweep_without_kind",
                "sweep_2d_without_kind", "energy_tol_key", "rho_mean_nan",
                "u_modes_inf", "tol_c_nan", "tol_c_negative", "2d_delta_nan"]


@pytest.mark.parametrize("sweep, message", REJECTED, ids=REJECTED_IDS)
def test_sweep_config_rejected_before_any_run(tmp_path, sweep, message):
    # a repeated [section] header adds to the section: sweep overrides or
    # extends SMALL_RUN
    text = SMALL_RUN + "\n" + sweep + "\n"
    with pytest.raises(ValidationError, match=message):
        parse_config(text)
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text(text)
    out = tmp_path / "sw"
    assert main(["sweep", str(cfgp), "--output", str(out), "--quiet"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("sweep, message", REJECTED, ids=REJECTED_IDS)
def test_run_config_rejected_before_any_run(tmp_path, capsys, sweep, message):
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text(SMALL_RUN + "\n" + sweep + "\n")
    out = tmp_path / "run"
    assert main(["run", str(cfgp), "--output", str(out), "--quiet"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert re.search(message, err)


@pytest.mark.parametrize("command", ["run", "sweep", "banks"])
def test_missing_config_file_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    path = tmp_path / "absent.cfg"
    assert main([command, str(path), "--output", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"config error: {path}: no such file or directory\n"


def test_all_rule_failures_of_one_params_class_reported():
    from thickflow.powerlaw1d import PowerLawParams

    with pytest.raises(ValueError) as exc:
        PowerLawParams(p=1.0, gamma=0.5, cfl=7.0)
    assert [e.split(":")[0] for e in exc.value.errors] == ["p", "gamma", "cfl"]


def test_2d_newton_budget_rejected_before_any_run(tmp_path, capsys):
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text("[model]\nkind = semistationary2d\n"
                    "[grid]\nnx = 16\nny = 16\n"
                    "[params]\nnewton_tol = 0\nnewton_max_iter = 0\n"
                    "[initial]\nrho_modes = 1, 0, 0.3, 0.0\n"
                    "[time]\nT = 0.02\n")
    out = tmp_path / "run"
    assert main(["run", str(cfgp), "--output", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "config error: params.newton_tol: Newton tolerance newton_tol must be "
        "positive; params.newton_max_iter: Newton iteration budget "
        "newton_max_iter must be >= 1\n")


class _FourierField1D:
    """The former config.FourierField1D, kept as the reference."""

    def __init__(self, mean, modes):
        self.mean, self.modes = mean, modes

    def eval(self, x):
        x = np.asarray(x)
        out = np.full_like(x, self.mean, dtype=float)
        for k, c, s in self.modes:
            w = 2.0 * np.pi * k
            out += c * np.cos(w * x) + s * np.sin(w * x)
        return out

    def eval_dx(self, x):
        x = np.asarray(x)
        out = np.zeros_like(x, dtype=float)
        for k, c, s in self.modes:
            w = 2.0 * np.pi * k
            out += w * (-c * np.sin(w * x) + s * np.cos(w * x))
        return out


def _fourier_field_2d(mean, modes, X, Y):
    """The former config.FourierField2D.eval, kept as the reference."""
    out = np.full_like(X, mean, dtype=float)
    for kx, ky, c, s in modes:
        phase = 2.0 * np.pi * (kx * X + ky * Y)
        out += c * np.cos(phase) + s * np.sin(phase)
    return out


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_fourier_field_equals_per_mode_loops(path):
    cfg = load_config(path)
    g = cfg.grid()
    m = 8 * max(cfg.n, cfg.nx, cfg.ny)
    if cfg.is_2d:
        dense = np.meshgrid(np.arange(m) / m, np.arange(m) / m,
                            indexing="ij")
        for X, Y in (g.meshgrid(), dense):
            assert np.array_equal(
                cfg.rho0.spatial(X, Y),
                _fourier_field_2d(cfg.rho0.coeffs[0][-2], cfg.rho0.coeffs[1:],
                                  X, Y))
        return
    for x in (g.x, np.arange(m) / m):
        for field in (cfg.rho0, cfg.u0):
            ref = _FourierField1D(field.coeffs[0][-2], field.coeffs[1:])
            assert np.array_equal(field.spatial(x), ref.eval(x))
            assert np.array_equal(field.spatial(x, d=0), ref.eval_dx(x))


class TestCLI:
    def test_run_exit_0_and_artifacts(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(SMALL_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfgp), "--output", str(out), "--quiet"]) == 0
        assert (out / "diag.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "checks.json").exists()
        snaps = sorted(p.name for p in out.glob("snap_*.csv"))
        assert snaps[0] == "snap_000000.csv"
        manifest = json.loads((out / "manifest.json").read_text())
        written = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["artifacts"]) == written
        header = (out / "diag.csv").read_text().splitlines()[0]
        assert header == ("t,dt,mass,momentum,energy,dissipation_cum,"
                          "rho_min,rho_max,dudx_maxabs,sigma_max,hoff_cum")
        shead = (out / "snap_000000.csv").read_text().splitlines()[0]
        assert shead == "t,x,rho,u,dudx,sigma"

    def test_manifest_wall_time_covers_the_run(self, tmp_path, monkeypatch):
        from thickflow import powerlaw1d

        solve_s = {}
        run = powerlaw1d.PowerLawModel.run

        def timed_run(params, *args):
            t0 = time.perf_counter()
            traj = run(params, *args)
            solve_s[params.p] = time.perf_counter() - t0
            return traj

        monkeypatch.setattr(powerlaw1d.PowerLawModel, "run", timed_run)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(SMALL_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfgp), "--output", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["wall_time_s"] >= solve_s.pop(8.0)

        cfgp.write_text(SMALL_RUN + "\n[sweep]\nkind = p\nvalues = 4, 8\n")
        sw = tmp_path / "sw"
        assert main(["sweep", str(cfgp), "--output", str(sw), "--quiet"]) == 0
        for p in (4.0, 8.0):
            member = json.loads((sw / f"p_{p:g}" / "manifest.json").read_text())
            assert member["wall_time_s"] >= solve_s[p]

    def test_config_error_exit_2(self, tmp_path):
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text(MINIMAL.replace("kind = powerlaw1d", "kind = bogus"))
        assert main(["run", str(cfgp), "--quiet"]) == 2

    def test_solver_failure_exit_3(self, tmp_path):
        cfg = SMALL_RUN.replace("p = 8.0",
                                "p = 64.0\nnewton_max_iter = 1\na = 8.0")
        cfgp = tmp_path / "hard.cfg"
        cfgp.write_text(cfg)
        assert main(["run", str(cfgp), "--quiet",
                     "--output", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_solver_error_while_writing_exits_3(self, tmp_path, monkeypatch,
                                                capsys, command):
        # the artifacts are part of the run: a solver error raised while
        # they are written is a solver failure, in a run as in a member
        from thickflow.errors import FluxOverflow
        from thickflow.powerlaw1d import PowerLawModel

        def overflowing_write(self, traj, outdir):
            raise FluxOverflow("injected")

        monkeypatch.setattr(PowerLawModel, "write_csvs", overflowing_write)
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(SMALL_RUN.replace("T = 0.05", "T = 0.01")
                        + "\n[sweep]\nkind = p\nvalues = 4\n")
        jobs = ["--jobs", "1"] if command == "sweep" else []
        assert main([command, str(cfgp), "--output", str(tmp_path / "o"),
                     "--quiet"] + jobs) == 3
        member = "p_4: " if command == "sweep" else ""
        assert capsys.readouterr().err == \
            f"solver failure: FluxOverflow: {member}injected\n"

    def test_too_few_snapshots_skip_the_weak_form_checks(self, tmp_path,
                                                         capsys):
        # one scheduled snapshot and T: two at t > 0, where the weak-form
        # checks need three
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(SMALL_RUN.replace("snapshots = 8", "snapshots = 1"))
        out = tmp_path / "o"
        assert main(["run", str(cfgp), "--output", str(out), "--quiet"]) == 0
        reports = json.loads((out / "checks.json").read_text())
        assert [(r["check"], r["context"]["reason"]) for r in reports
                if r["skipped"]] == [
            ("transport_checks", "needs 3 snapshots at t > 0, the run has 2")]
        assert main(["verify", str(out)]) == 0
        assert capsys.readouterr().out.endswith(", 1 skipped\n")

    def test_verify_exit_codes(self, tmp_path):
        from thickflow.diagnostics import CheckReport, write_reports

        d = tmp_path / "reports"
        d.mkdir()
        write_reports([CheckReport.build("ok", 1.0, 0.5, 0.0)],
                      d / "checks.json")
        assert main(["verify", str(d), "--quiet"]) == 0
        write_reports([CheckReport.build("bad", 1.0, 5.0, 1e-3)],
                      d / "checks.json")
        assert main(["verify", str(d), "--quiet"]) == 4
        # skipped-only report: exit 0
        write_reports([CheckReport.skip("s", "precondition")],
                      d / "checks.json")
        assert main(["verify", str(d), "--quiet"]) == 0
        assert main(["verify", str(tmp_path / "nothing"), "--quiet"]) == 2

    def test_verify_tolerant_policy(self, tmp_path):
        from thickflow.diagnostics import CheckReport, write_reports

        d = tmp_path / "reports"
        d.mkdir()
        # fails strict but within twice the tolerance
        rep = CheckReport.build("edge", 1.0, 1.0 + 2.5e-3, 1e-3)
        assert not rep.passed
        write_reports([rep], d / "checks.json")
        assert main(["verify", str(d), "--quiet", "--policy", "strict"]) == 4
        assert main(["verify", str(d), "--quiet", "--policy", "tolerant"]) == 0
        # below zero the tolerated slack is bound (1 - 2 tol) + 2 tol
        rep = CheckReport.build("negative", -2.0, -2.0 + 5e-3, 1e-3)
        assert not rep.passed
        write_reports([rep], d / "checks.json")
        assert main(["verify", str(d), "--quiet", "--policy", "strict"]) == 4
        assert main(["verify", str(d), "--quiet", "--policy", "tolerant"]) == 0
        rep = CheckReport.build("negative", -2.0, -2.0 + 7e-3, 1e-3)
        write_reports([rep], d / "checks.json")
        assert main(["verify", str(d), "--quiet", "--policy", "tolerant"]) == 4

    def test_run_with_s_list_writes_the_time_mean_report(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(SMALL_RUN.replace("T = 0.05", "T = 0.04")
                        + "\n[checks]\ns_list = 0.02, 0.01, 0.005\n")
        out = tmp_path / "out"
        assert main(["run", str(cfgp), "--output", str(out), "--quiet"]) == 0
        assert (out / "manifest.json").exists()
        checks = json.loads((out / "checks.json").read_text())
        report, = [c for c in checks if c["check"] == "time_mean_continuity"]
        assert report["context"]["s_list"] == [0.02, 0.01, 0.005]
        assert len(report["context"]["m"]) == 3
        assert isinstance(report["context"]["endpoint_decrease"], bool)

    def test_negative_stress_bound_passes_at_equality(self, tmp_path):
        # without paper_initial_conditions the stress bound is max sigma(0),
        # here -1.028, and sup over t includes t = 0: measured = bound
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(SMALL_RUN.replace("p = 8.0", "p = 4.0")
                        .replace("T = 0.05", "T = 0.04")
                        .replace("paper_initial_conditions = true",
                                 "paper_initial_conditions = false"))
        out = tmp_path / "out"
        assert main(["run", str(cfgp), "--output", str(out), "--quiet"]) == 0
        report, = [c for c in json.loads((out / "checks.json").read_text())
                   if c["check"] == "stress_max_principle"]
        assert report["bound"] < -1.0
        assert report["measured"] == report["bound"] and report["pass"]

    def test_banks_deterministic(self, tmp_path, capsys):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(SMALL_RUN)
        assert main(["banks", str(cfgp)]) == 0
        first = capsys.readouterr().out
        assert main(["banks", str(cfgp)]) == 0
        second = capsys.readouterr().out
        assert first == second
        data = json.loads(first)
        assert len(data["velocity_1d"]) == 20

    def test_run_determinism_byte_identical(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(SMALL_RUN)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(cfgp), "--output", str(out1), "--quiet"]) == 0
        assert main(["run", str(cfgp), "--output", str(out2), "--quiet"]) == 0
        for name in sorted(os.listdir(out1)):
            if name.endswith(".csv"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sweep_produces_report_and_table(self, tmp_path):
        cfg = SMALL_RUN + "\n[sweep]\nkind = p\nvalues = 4, 8\n"
        cfgp = tmp_path / "sweep.cfg"
        cfgp.write_text(cfg)
        out = tmp_path / "sw"
        assert main(["sweep", str(cfgp), "--output", str(out), "--quiet"]) == 0
        rep = json.loads((out / "sweep_report.json").read_text())
        assert rep["param_values"] == [4.0, 8.0]
        table = (out / "sweep_table.csv").read_text().splitlines()
        assert table[0] == ("param,u_dist,rho_dist,viol_001,viol_005,"
                            "viol_01,compl_resid,entropy_gap")
        assert len(table) == 3
        assert (out / "p_4" / "diag.csv").exists()
        assert (out / "p_8" / "diag.csv").exists()
        # verify aggregates the nested check reports
        assert main(["verify", str(out), "--quiet"]) == 0

    def test_sweep_table_columns_follow_the_etas(self, tmp_path):
        cfgp = tmp_path / "sweep.cfg"
        cfgp.write_text(SMALL_RUN + "\n[sweep]\nkind = p\nvalues = 4, 8\n"
                        "[checks]\neta = 0.02, 0.2\n")
        out = tmp_path / "sw"
        assert main(["sweep", str(cfgp), "--output", str(out), "--quiet"]) == 0
        table = (out / "sweep_table.csv").read_text().splitlines()
        assert table[0] == ("param,u_dist,rho_dist,viol_002,viol_02,"
                            "compl_resid,entropy_gap")
        rep = json.loads((out / "sweep_report.json").read_text())
        for row, p in zip(table[1:], ("4.0", "8.0")):
            viol = rep["violation"][p]
            assert row.split(",")[3:5] == ["%.17g" % viol["0.02"],
                                           "%.17g" % viol["0.2"]]
        checks = json.loads((out / "checks.json").read_text())
        assert [c["check"] for c in checks] == ["hoff_uniformity",
                                                "variational_inequality_1d"]

    def test_sweep_exit_4_when_a_member_check_fails(self, tmp_path,
                                                     monkeypatch):
        from thickflow import cli
        from thickflow.diagnostics import CheckReport

        checks = cli._standard_checks

        def failing_checks(cfg, traj):
            return checks(cfg, traj) + [
                CheckReport.build("injected", 1.0, 5.0, 1e-3)]

        monkeypatch.setattr(cli, "_standard_checks", failing_checks)
        cfgp = tmp_path / "sweep.cfg"
        cfgp.write_text(SMALL_RUN + "\n[sweep]\nkind = p\nvalues = 4, 8\n")
        out = tmp_path / "sw"
        assert main(["sweep", str(cfgp), "--output", str(out), "--quiet"]) == 4
        # every member still ran and the sweep report was written
        assert (out / "p_4" / "diag.csv").exists()
        assert (out / "p_8" / "diag.csv").exists()
        assert (out / "sweep_report.json").exists()
        assert main(["verify", str(out), "--quiet"]) == 4
        assert main(["run", str(cfgp), "--output", str(tmp_path / "run"),
                     "--quiet"]) == 4
        # the same in forked workers, which inherit the injected check
        forked = tmp_path / "forked"
        assert main(["sweep", str(cfgp), "--output", str(forked), "--quiet",
                     "--jobs", "2"]) == 4
        assert multiprocessing.active_children() == []
        assert main(["verify", str(forked), "--quiet"]) == 4
        assert (forked / "sweep_report.json").read_bytes() == \
            (out / "sweep_report.json").read_bytes()

    def test_2d_run_csv_schema(self, tmp_path):
        cfg = """
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
rho_mean = 1.0
rho_modes = 1, 0, 0.3, 0.0
[time]
T = 0.02
snapshots = 4
"""
        cfgp = tmp_path / "run2d.cfg"
        cfgp.write_text(cfg)
        out = tmp_path / "o2d"
        assert main(["run", str(cfgp), "--output", str(out), "--quiet"]) == 0
        shead = (out / "snap_000000.csv").read_text().splitlines()[0]
        assert shead == "t,x1,x2,rho,u1,u2,Du_norm,divu"
        dhead = (out / "diag.csv").read_text().splitlines()[0]
        assert "Du_maxnorm" in dhead

    @pytest.mark.parametrize("newton_tol", ["1e-6", "1e-8"])
    def test_2d_nonsymmetric_run_passes_its_checks(self, tmp_path,
                                                   newton_tol):
        # int rho u drifts here by 6.1e-6 of the mass on a correct run,
        # the same at newton_tol 1e-5, 1e-6 and 1e-7: the momentum
        # balance has no time derivative, so it is no invariant, and the
        # 2D run checks the flat-mode gauge of u and its stationarity in
        # its place. At newton_tol 1e-8 the 25th of the 34 solves went
        # below the rounding unit of J and, judged by J alone, stalled
        # at |grad J| = 1.9e-8 and exited 3
        cfgp = tmp_path / "nonsym.cfg"
        cfgp.write_text("[model]\nkind = semistationary2d\n"
                        "[grid]\nnx = 32\nny = 32\n[params]\np = 8.0\n"
                        f"newton_tol = {newton_tol}\n"
                        "[initial]\nrho_modes = 1, 1, 0.25, 0.1, 1, -1, 0.2, "
                        "0.05, 2, 0, 0.1, 0.07\n[time]\nT = 0.1\n")
        out = tmp_path / "o"
        assert main(["run", str(cfgp), "--output", str(out), "--quiet"]) == 0
        checks = {r["check"]: r
                  for r in json.loads((out / "checks.json").read_text())}
        assert "momentum_conservation" not in checks
        assert checks["flat_mode_gauge_2d"]["pass"]
        assert checks["flat_mode_gauge_2d"]["measured"] <= 1e-12
        assert checks["stationarity_2d"]["pass"]
        assert checks["stationarity_2d"]["context"]["newton_tol"] \
            == float(newton_tol)
        assert checks["mass_conservation"]["pass"]
        diag = np.genfromtxt(out / "diag.csv", delimiter=",", names=True)
        drift = np.max(np.abs(diag["momentum"] - diag["momentum"][0]))
        assert drift > 1e-6 * diag["mass"][0]


def test_eps_sweep_cli_path(tmp_path):
    cfg = """
[model]
kind = singular1d
[grid]
n = 512
[params]
eps = 0.1
a = 2.0
gamma = 2.0
theta = 0.3
[initial]
rho_mean = 1.0
rho_modes = 1, 0.15, 0.3
u_mean = 0.0
u_modes = 1, 0.0, 0.1432394487827058
paper_initial_conditions = true
seed = 2026
[time]
T = 0.05
snapshots = 10
[sweep]
kind = eps
values = 0.1, 0.05
"""
    cfgp = tmp_path / "eps.cfg"
    cfgp.write_text(cfg)
    out = tmp_path / "sw"
    assert main(["sweep", str(cfgp), "--output", str(out), "--quiet"]) == 0
    rep = json.loads((out / "sweep_report.json").read_text())
    # eps sweeps sort toward the limit: finest (smallest) value last
    assert rep["param_values"] == [0.1, 0.05]
    assert (out / "eps_0.05" / "diag.csv").exists()
    for label in ("eps_0.1", "eps_0.05"):
        _assert_member(out / label, "singular1d", "barrier_invariant",
                       "stress_max_principle")


def _assert_member(member, model, present, absent):
    """A sweep member's checks.json has check present, not check absent,
    and its manifest names model."""
    checks = {r["check"]
              for r in json.loads((member / "checks.json").read_text())}
    assert present in checks and absent not in checks
    assert json.loads((member / "manifest.json").read_text())["model"] == model


def test_cross_sweep_cli_path(tmp_path):
    cfg = SMALL_RUN + """
[sweep]
kind = cross
values = 4, 8
eps_values = 0.5, 0.2
eps_n = 128
"""
    cfgp = tmp_path / "cross.cfg"
    cfgp.write_text(cfg)
    out = tmp_path / "sw"
    assert main(["sweep", str(cfgp), "--output", str(out), "--quiet"]) == 0
    for label in ("p_4", "p_8"):
        _assert_member(out / label, "powerlaw1d", "stress_max_principle",
                       "barrier_invariant")
    for label in ("eps_0.5", "eps_0.2"):
        _assert_member(out / label, "singular1d", "barrier_invariant",
                       "stress_max_principle")
    rep = json.loads((out / "sweep_report.json").read_text())
    assert rep["param_values"] == [4.0, 8.0]
    assert rep["context"]["eps_values"] == [0.5, 0.2]
    assert math.isfinite(rep["cross_distance"])


def _files(outdir):
    """Relative path -> bytes of every file under outdir; a manifest
    without its wall_time_s, which times the run."""
    files = {}
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                del manifest["wall_time_s"]
                data = json.dumps(manifest, sort_keys=True).encode()
            files[str(path.relative_to(outdir))] = data
    return files


def test_sweep_writes_the_same_bytes_whatever_jobs(tmp_path, capsys):
    # three members on two workers: p_16 is handed out first, p_4 last
    cfgp = tmp_path / "sweep.cfg"
    cfgp.write_text(SMALL_RUN + "\n[sweep]\nkind = p\nvalues = 4, 8, 16\n")
    files, stdout = {}, {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", str(cfgp), "--output", str(out),
                     "--jobs", jobs]) == 0
        assert multiprocessing.active_children() == []
        files[jobs], stdout[jobs] = _files(out), capsys.readouterr().out
    assert {"checks.json", "sweep_report.json", "sweep_table.csv",
            "p_16/diag.csv", "p_16/manifest.json"} <= set(files["1"])
    assert files["2"] == files["1"]
    assert stdout["2"] == stdout["1"]
    assert stdout["1"].count("[sweep] running p_") == 3


def test_sweep_workers_never_outnumber_the_members(tmp_path, monkeypatch,
                                                   capsys):
    import concurrent.futures

    real, asked = concurrent.futures.ProcessPoolExecutor, []

    def spy(workers, *args):
        asked.append(workers)
        assert workers <= 2     # start no more than two processes
        return real(workers, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    cfgp = tmp_path / "sweep.cfg"
    cfgp.write_text(SMALL_RUN + "\n[sweep]\nkind = p\nvalues = 4, 8\n")
    assert main(["sweep", str(cfgp), "--output", str(tmp_path / "a"),
                 "--quiet", "--jobs", "64"]) == 0
    assert asked == [2]
    assert multiprocessing.active_children() == []
    # where the platform cannot fork, the members run in this process
    monkeypatch.delattr(os, "fork")
    assert main(["sweep", str(cfgp), "--output", str(tmp_path / "b"),
                 "--quiet", "--jobs", "2"]) == 0
    assert asked == [2]
    assert _files(tmp_path / "b") == _files(tmp_path / "a")
    for jobs in ("0", "-1"):
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", str(cfgp), "--jobs", jobs])
        assert exit_.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
def test_sweep_exit_3_names_the_first_failing_member(tmp_path, monkeypatch,
                                                     capsys, jobs):
    from thickflow import cli
    from thickflow.errors import NewtonDivergence

    run = cli._run_model_with

    def failing_run(cfg, model, params, g):
        # p_16 is handed out first under --jobs 2; p_8 comes first in
        # the config
        if params.p in (8.0, 16.0):
            raise NewtonDivergence("injected")
        return run(cfg, model, params, g)

    monkeypatch.setattr(cli, "_run_model_with", failing_run)
    cfgp = tmp_path / "sweep.cfg"
    cfgp.write_text(SMALL_RUN + "\n[sweep]\nkind = p\nvalues = 4, 8, 16\n")
    out = tmp_path / "sw"
    assert main(["sweep", str(cfgp), "--output", str(out), "--quiet",
                 "--jobs", jobs]) == 3
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().err == \
        "solver failure: NewtonDivergence: p_8: injected\n"
    # the member that ran is complete; the failing ones left nothing
    assert sorted(p.name for p in out.iterdir()) == ["p_4"]
    assert (out / "p_4" / "manifest.json").exists()


NO_NUMPY_MA = """
import sys

sys.path.insert(0, sys.argv[1])
from thickflow import cli

assert cli.main(["run", sys.argv[2], "--output", sys.argv[4], "--quiet"]) == 0
assert cli.main(["sweep", sys.argv[3], "--output", sys.argv[5],
                 "--quiet"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_run_and_sweep_never_import_numpy_ma(tmp_path):
    # np.median imported numpy.ma (11-14 ms) in the 2D preconditioner and
    # the sweep's hoff_uniformity check; grids.median does not
    run2d = tmp_path / "run2d.cfg"
    run2d.write_text("[model]\nkind = semistationary2d\n[grid]\nnx = 16\n"
                     "[initial]\nrho_modes = 1, 0, 0.3, 0.0\n"
                     "[time]\nT = 0.01\nsnapshots = 3\n")
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(SMALL_RUN.replace("T = 0.05", "T = 0.02")
                     + "\n[sweep]\nkind = p\nvalues = 4, 8, 16\n")
    out = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_MA,
         os.path.join(os.path.dirname(__file__), "..", "src"), str(run2d),
         str(sweep), str(tmp_path / "o2"), str(tmp_path / "o1")],
        capture_output=True, text=True, check=True, timeout=300).stdout.split()
    assert out == ["False"]
