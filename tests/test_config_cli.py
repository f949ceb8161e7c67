import json
import os
import time

import pytest

from thickflow.cli import main
from thickflow.config import parse_config
from thickflow.errors import ParseError, ValidationError

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
        assert cfg.params["gamma"] == 2.0
        assert cfg.params["delta"] == 1e-8
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
        run = powerlaw1d.run

        def timed_run(params, *args):
            t0 = time.perf_counter()
            traj = run(params, *args)
            solve_s[params.p] = time.perf_counter() - t0
            return traj

        monkeypatch.setattr(powerlaw1d, "run", timed_run)
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
    assert (out / "eps_0.1" / "checks.json").exists()
    assert (out / "eps_0.05" / "diag.csv").exists()


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
