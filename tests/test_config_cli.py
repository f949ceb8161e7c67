import glob
import json
import math
import os
import re
import time

import numpy as np
import pytest

from thickflow.cli import main
from thickflow.config import load_config, parse_config
from thickflow.errors import ParseError, ValidationError

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
        assert cfg.n == 64 and cfg.T == 0.05
        assert cfg.build_params().gamma == 2.0
        assert cfg.build_params().delta == 1e-8
        assert cfg.tol_c == 5.0
        assert len(cfg.snapshot_schedule()) == 32

    def test_comments_and_lists(self):
        cfg = parse_config(SMALL_RUN + "\n# trailing comment\n")
        assert cfg.rho0.modes == [(1, 0.15, 0.25)]
        assert cfg.u0.modes == [(1, 0.0, 0.1)]

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
                "2d_a_negative"]


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
                cfg.rho0.eval(X, Y),
                _fourier_field_2d(cfg.rho0.mean, cfg.rho0.modes, X, Y))
        return
    for x in (g.x, np.arange(m) / m):
        for field in (cfg.rho0, cfg.u0):
            ref = _FourierField1D(field.mean, field.modes)
            assert np.array_equal(field.eval(x), ref.eval(x))
            assert np.array_equal(field.eval_dx(x), ref.eval_dx(x))


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
        cfg = SMALL_RUN.replace("p = 8.0", "p = 64.0") \
                       .replace("a = 2.0", "a = 8.0") \
                       .replace("[time]", "[params_extra]")
        cfg = SMALL_RUN.replace("p = 8.0",
                                "p = 64.0\nnewton_max_iter = 1\na = 8.0")
        cfgp = tmp_path / "hard.cfg"
        cfgp.write_text(cfg)
        assert main(["run", str(cfgp), "--quiet",
                     "--output", str(tmp_path / "o")]) == 3

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

        def failing_checks(cfg, traj, params):
            return checks(cfg, traj, params) + [
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


def test_sweep_jobs_flag_matches_sequential(tmp_path):
    cfg = SMALL_RUN + "\n[sweep]\nkind = p\nvalues = 4, 8\n"
    cfgp = tmp_path / "sweep.cfg"
    cfgp.write_text(cfg)
    o1, o2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", str(cfgp), "--output", str(o1), "--quiet"]) == 0
    assert main(["sweep", str(cfgp), "--output", str(o2), "--quiet",
                 "--jobs", "2"]) == 0
    assert (o1 / "sweep_table.csv").read_bytes() == \
        (o2 / "sweep_table.csv").read_bytes()
