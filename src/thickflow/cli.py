"""Command-line entry point.

    thickflow run <config> [--output DIR] [--quiet]
    thickflow sweep <config> [--output DIR] [--jobs N] [--quiet]
    thickflow verify <dir> [--policy strict|tolerant] [--quiet]
    thickflow banks <config> [--output DIR]

A sweep runs its members one after another; --jobs is accepted and
changes nothing.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 check
failure. Numeric CSV output is formatted with 17 significant digits,
so re-running an identical config reproduces byte-identical files.
"""

import argparse
import glob
import json
import os
import sys
import time

from . import __version__
from .config import MODELS, load_config
from .errors import (ConstraintViolation, FluxOverflow, NewtonDivergence,
                     ParseError, SolverDivergence, StepFailure, VacuumError,
                     ValidationError)

_SOLVER_ERRORS = (NewtonDivergence, VacuumError, FluxOverflow,
                  ConstraintViolation, SolverDivergence, StepFailure)


def _say(quiet, *args):
    if not quiet:
        print(*args)


def _launch(cfg, model, params, g):
    """Run the named model from the config's initial data on grid g."""
    from .semistationary2d import run_2d

    rho0, u0 = cfg.initial_fields(g)
    times = cfg.snapshot_schedule()
    model_1d = MODELS[model][1]
    if model_1d is None:
        return run_2d(params, g, rho0, cfg.T, times)
    return model_1d.run(params, g, rho0, u0, cfg.T, times)


def _run_model(cfg):
    return _launch(cfg, cfg.model, cfg.build_params(), cfg.grid())


def _run_model_with(cfg, model, params, g):
    return _launch(cfg, model, params, g)


def _standard_checks(cfg, traj, params):
    from . import diagnostics as dg
    from .semistationary2d import check_linf_growth

    reports = []
    reports.extend(dg.check_conservation(traj))
    reports.append(dg.check_energy_inequality(traj, tol=cfg.energy_tol))
    if traj.model == "powerlaw1d":
        reports.append(dg.check_stress_max_principle(
            traj, params, tol_c=cfg.tol_c,
            paper_initial=cfg.paper_initial_conditions))
        c1, c2 = cfg.initial_density_range()
        reports.append(dg.check_density_bounds(traj, params, c1, c2,
                                               tol_c=cfg.tol_c))
    elif traj.model == "singular1d":
        reports.append(dg.check_barrier_invariant(traj))
    else:
        reports.append(check_linf_growth(traj, tol_c=cfg.tol_c))
    return reports


def _transport_checks(cfg, traj):
    """Weak-form transport reports appended to the run's check stream."""
    from .banks import sample_bank, scalar_bank_1d, scalar_bank_2d
    from .diagnostics import CheckReport
    from .transport_check import (continuity_residual, renormalized_residual,
                                  time_mean_continuity)

    if len([s for s in traj.snapshots if s.t > 0]) < 3:
        return []
    reports = []
    try:
        maker = scalar_bank_2d if cfg.is_2d else scalar_bank_1d
        bank = sample_bank(maker(cfg.seed, cfg.T, size=min(cfg.bank_size, 10),
                                 modes=cfg.bank_modes), traj.grid)
        dts = [r.dt for r in traj.records if r.dt > 0]
        tol = 2.0 * cfg.tol_c * (traj.grid.dx + max(dts))
        worst_c = max(continuity_residual(traj, phi) for phi in bank)
        worst_r = max(renormalized_residual(traj, cfg.params["gamma"], phi)
                      for phi in bank)
        reports.append(CheckReport.build("continuity_weak_residual", 0.0,
                                         worst_c, tol))
        reports.append(CheckReport.build("renormalized_weak_residual", 0.0,
                                         worst_r, tol))
        if cfg.s_list:
            reports.append(time_mean_continuity(
                traj, cfg.params["gamma"], cfg.s_list))
    except ValueError as e:
        reports.append(CheckReport.skip("transport_checks", str(e)))
    return reports


def run_experiment(cfg, output_dir, quiet=True):
    """Run one configured model and persist all artifacts.

    Returns the CLI exit status (0 ok, 3 solver failure, 4 check
    failure); identical configs produce bit-identical numeric outputs.
    """
    try:
        traj, run_s = _timed(_run_model, cfg)
    except _SOLVER_ERRORS as e:
        print(f"solver failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    reports = _write_run_artifacts(cfg, traj, output_dir, quiet, run_s)
    if any((not r.passed) and (not r.skipped) for r in reports):
        return 4
    return 0


def _timed(fn, *args):
    """fn(*args) and the seconds it took."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _write_run_artifacts(cfg, traj, outdir, quiet, run_s):
    """Write snapshots, diag.csv, checks.json and manifest.json of the
    run traj of model traj.model; the manifest's wall_time_s is run_s,
    the seconds of the model run, plus the time spent here."""
    from . import diagnostics as dg
    from .trajectory import write_diag_csv, write_snapshots_1d, write_snapshots_2d

    t0 = time.perf_counter()
    os.makedirs(outdir, exist_ok=True)
    diag = os.path.join(outdir, "diag.csv")
    model_1d = MODELS[traj.model][1]
    if model_1d is None:
        artifacts = write_snapshots_2d(traj, outdir)
        write_diag_csv(traj, diag, maxabs_name="Du_maxnorm")
    else:
        stress = model_1d(traj.params, traj.grid).stress
        artifacts = write_snapshots_1d(traj, outdir, stress)
        write_diag_csv(traj, diag)
    artifacts.append(diag)

    reports = _standard_checks(cfg, traj, traj.params)
    reports.extend(_transport_checks(cfg, traj))
    checks_path = os.path.join(outdir, "checks.json")
    dg.write_reports(reports, checks_path)
    artifacts.append(checks_path)
    _say(quiet, dg.format_report_table(reports))

    manifest = {
        "version": __version__,
        "model": traj.model,
        "config": cfg.raw_text,
        "wall_time_s": run_s + (time.perf_counter() - t0),
        "artifacts": sorted(os.path.basename(a) for a in artifacts),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    return reports


def cmd_run(args):
    try:
        cfg = load_config(args.config)
    except (ParseError, ValidationError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    outdir = args.output or cfg.output_dir or "out"
    return run_experiment(cfg, outdir, quiet=args.quiet)


def _sweep_runs(cfg, outdir, quiet):
    """Run the sweep members one after another, writing each member's
    artifacts; returns {"p": {p: traj}, "eps": {eps: traj}} for the
    families the sweep has. Every member's params are built before the
    first run, so that a bad value fails before any run."""
    from .grids import Grid1D

    members = []
    if cfg.sweep_kind in ("p", "cross"):
        for p in map(float, cfg.sweep_values or [cfg.params["p"]]):
            members.append(("p", p, "powerlaw1d",
                            cfg.build_params("powerlaw1d", p=p), cfg.grid()))
    if cfg.sweep_kind in ("eps", "cross"):
        eps_list = cfg.sweep_eps_values if cfg.sweep_kind == "cross" \
            else cfg.sweep_values
        g_eps = Grid1D(cfg.sweep_eps_n) if cfg.sweep_eps_n else cfg.grid()
        for e in map(float, eps_list):
            members.append(("eps", e, "singular1d",
                            cfg.build_params("singular1d", eps=e), g_eps))

    results = {}
    for key, v, model, params, g in members:
        label = f"{key}_{v:g}"
        _say(quiet, f"[sweep] running {label} (n = {g.n}) ...")
        traj, run_s = _timed(_run_model_with, cfg, model, params, g)
        _write_run_artifacts(cfg, traj, os.path.join(outdir, label), quiet,
                             run_s)
        results.setdefault(key, {})[v] = traj
    return results


def cmd_sweep(args):
    from . import diagnostics as dg
    from .limits import (assemble_sweep_report, cross_model_distance,
                         variational_residual_1d)
    from .banks import velocity_bank_1d

    try:
        cfg = load_config(args.config)
    except (ParseError, ValidationError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if not cfg.sweep_kind:
        print("config error: [sweep] section with kind = p|eps|cross required",
              file=sys.stderr)
        return 2
    outdir = args.output or cfg.output_dir or "out"
    os.makedirs(outdir, exist_ok=True)
    try:
        results = _sweep_runs(cfg, outdir, args.quiet)
    except _SOLVER_ERRORS as e:
        print(f"solver failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3

    gamma = cfg.params["gamma"]
    reports = []
    kind = "eps" if cfg.sweep_kind == "eps" else "p"
    trajs = results[kind]
    rep = assemble_sweep_report(kind, list(trajs), trajs, gamma, etas=cfg.eta)
    if kind == "p":
        ys = [rep.hoff[str(v)] for v in rep.param_values]
        reports.append(dg.check_hoff_uniformity(ys, rep.param_values))
        finest = trajs[rep.param_values[-1]]
        bank = velocity_bank_1d(cfg.seed, cfg.T, size=cfg.bank_size,
                                modes=cfg.bank_modes)
        reports.append(variational_residual_1d(finest, bank, finest.params))
    if cfg.sweep_kind == "cross":
        eps_trajs = results["eps"]
        rep.cross_distance = cross_model_distance(
            trajs[max(trajs)], eps_trajs[min(eps_trajs)])
        rep.context["eps_values"] = list(cfg.sweep_eps_values)

    rep.write_json(os.path.join(outdir, "sweep_report.json"))
    rep.write_csv(os.path.join(outdir, "sweep_table.csv"))
    if reports:
        dg.write_reports(reports, os.path.join(outdir, "checks.json"))
        _say(args.quiet, dg.format_report_table(reports))
    if any((not r.passed) and (not r.skipped) for r in reports):
        return 4
    return 0


def cmd_verify(args):
    from . import diagnostics as dg

    paths = sorted(glob.glob(os.path.join(args.directory, "**", "checks.json"),
                             recursive=True))
    if os.path.exists(os.path.join(args.directory, "checks.json")):
        top = os.path.join(args.directory, "checks.json")
        if top not in paths:
            paths.insert(0, top)
    if not paths:
        print(f"no checks.json found under {args.directory}", file=sys.stderr)
        return 2
    status, summary = dg.verify_reports(paths, policy=args.policy)
    if status == 2:
        print(summary, file=sys.stderr)
        return 2
    if not args.quiet:
        table = []
        for p in paths:
            table.extend(dg.load_reports(p))
        print(dg.format_report_table(table))
        print(summary)
    return status


def cmd_banks(args):
    from .banks import scalar_bank_1d, velocity_bank_1d, velocity_bank_2d

    try:
        cfg = load_config(args.config)
    except (ParseError, ValidationError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out = {
        "seed": cfg.seed,
        "T": cfg.T,
        "scalar_1d": [
            {"coeffs": b.coeffs, "scale": b.scale}
            for b in scalar_bank_1d(cfg.seed, cfg.T, size=cfg.bank_size,
                                    modes=cfg.bank_modes)],
        "velocity_1d": [
            {"coeffs": b.coeffs, "scale": b.scale}
            for b in velocity_bank_1d(cfg.seed, cfg.T, size=cfg.bank_size,
                                      modes=cfg.bank_modes)],
        "velocity_2d": [
            {"coeffs1": b.coeffs1, "coeffs2": b.coeffs2, "scale": b.scale}
            for b in velocity_bank_2d(cfg.seed, cfg.T, size=cfg.bank_size)],
    }
    text = json.dumps(out, indent=1, sort_keys=True)
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        with open(os.path.join(args.output, "banks.json"), "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="thickflow", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one model from a config")
    p_run.add_argument("config")
    p_run.add_argument("--output", default="")
    p_run.add_argument("--quiet", action="store_true")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--output", default="")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="accepted; members run one after another")
    p_sweep.add_argument("--quiet", action="store_true")

    p_ver = sub.add_parser("verify", help="aggregate check reports")
    p_ver.add_argument("directory")
    p_ver.add_argument("--policy", choices=("strict", "tolerant"),
                       default="strict")
    p_ver.add_argument("--quiet", action="store_true")

    p_banks = sub.add_parser("banks", help="dump the seeded test banks")
    p_banks.add_argument("config")
    p_banks.add_argument("--output", default="")

    args = ap.parse_args(argv)
    cmd = {"run": cmd_run, "sweep": cmd_sweep, "verify": cmd_verify,
           "banks": cmd_banks}[args.command]
    return cmd(args)


if __name__ == "__main__":
    sys.exit(main())
