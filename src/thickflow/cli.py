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
    rho0, u0 = cfg.initial_fields(g)
    return MODELS[model].run(params, g, rho0, u0, cfg.T,
                             cfg.snapshot_schedule())


def _run_model(cfg):
    return _launch(cfg, cfg.model, cfg.run_params, cfg.grid())


def _run_model_with(cfg, model, params, g):
    return _launch(cfg, model, params, g)


def _standard_checks(cfg, traj, model):
    """model's checks of its run traj; a function of its own, so that
    perfbench's tracer can time the checks by its name."""
    return model.checks(cfg, traj)


def _transport_checks(cfg, traj):
    """Weak-form transport reports appended to the run's check stream."""
    from .banks import check_bank, sample_bank
    from .diagnostics import CheckReport, _consistency_tol
    from .transport_check import (continuity_residual, renormalized_residual,
                                  time_mean_continuity)

    if len([s for s in traj.snapshots if s.t > 0]) < 3:
        return []
    reports = []
    try:
        bank = sample_bank(check_bank(cfg, "scalar", 2 if cfg.is_2d else 1),
                           traj.grid)
        tol = 2.0 * _consistency_tol(traj, cfg.tol_c)
        worst_c = max(continuity_residual(traj, phi) for phi in bank)
        worst_r = max(renormalized_residual(traj, traj.params.gamma, phi)
                      for phi in bank)
        reports.append(CheckReport.build("continuity_weak_residual", 0.0,
                                         worst_c, tol))
        reports.append(CheckReport.build("renormalized_weak_residual", 0.0,
                                         worst_r, tol))
        if cfg.s_list:
            reports.append(time_mean_continuity(
                traj, traj.params.gamma, cfg.s_list))
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
    return 4 if _any_failed(reports) else 0


def _any_failed(reports):
    return any((not r.passed) and (not r.skipped) for r in reports)


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

    t0 = time.perf_counter()
    os.makedirs(outdir, exist_ok=True)
    model = MODELS[traj.model](traj.params, traj.grid)
    artifacts = model.write_csvs(traj, outdir)

    reports = _standard_checks(cfg, traj, model)
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


def _load(path):
    """The config at path, or None after reporting its config error."""
    try:
        return load_config(path)
    except (ParseError, ValidationError) as e:
        print(f"config error: {e}", file=sys.stderr)
    except OSError as e:
        reason = (e.strerror or str(e)).lower()
        print(f"config error: {path}: {reason}", file=sys.stderr)


def cmd_run(args):
    cfg = _load(args.config)
    if cfg is None:
        return 2
    outdir = args.output or cfg.output_dir or "out"
    return run_experiment(cfg, outdir, quiet=args.quiet)


def _sweep_runs(cfg, outdir, quiet):
    """Run the sweep members of cfg, built when it was loaded, one after
    another, writing each member's artifacts; returns {"p": {p: traj},
    "eps": {eps: traj}} for the families the sweep has, and whether a
    member's checks failed."""
    results = {}
    member_failed = False
    for key, v, model, params, g in cfg.sweep_members:
        label = f"{key}_{v:g}"
        _say(quiet, f"[sweep] running {label} (n = {g.n}) ...")
        traj, run_s = _timed(_run_model_with, cfg, model, params, g)
        reports = _write_run_artifacts(cfg, traj, os.path.join(outdir, label),
                                       quiet, run_s)
        member_failed |= _any_failed(reports)
        results.setdefault(key, {})[v] = traj
    return results, member_failed


def cmd_sweep(args):
    from . import diagnostics as dg
    from .limits import (assemble_sweep_report, cross_model_distance,
                         variational_residual_1d)
    from .banks import check_bank

    cfg = _load(args.config)
    if cfg is None:
        return 2
    if not cfg.sweep_kind:
        print("config error: [sweep] section with kind = p|eps|cross required",
              file=sys.stderr)
        return 2
    outdir = args.output or cfg.output_dir or "out"
    os.makedirs(outdir, exist_ok=True)
    try:
        results, member_failed = _sweep_runs(cfg, outdir, args.quiet)
    except _SOLVER_ERRORS as e:
        print(f"solver failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3

    reports = []
    kind = "eps" if cfg.sweep_kind == "eps" else "p"
    trajs = results[kind]
    rep = assemble_sweep_report(kind, trajs, cfg.eta)
    if kind == "p":
        ys = [rep.hoff[str(v)] for v in rep.param_values]
        reports.append(dg.check_hoff_uniformity(ys, rep.param_values))
        finest = trajs[rep.param_values[-1]]
        reports.append(variational_residual_1d(
            finest, check_bank(cfg, "velocity", 1)))
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
    return 4 if member_failed or _any_failed(reports) else 0


def cmd_verify(args):
    from . import diagnostics as dg

    paths = sorted(glob.glob(os.path.join(args.directory, "**", "checks.json"),
                             recursive=True))
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
    """Dump the banks the checks of cfg's runs draw (banks.check_bank)."""
    from .banks import check_bank

    cfg = _load(args.config)
    if cfg is None:
        return 2
    out = {"seed": cfg.seed, "T": cfg.T}
    for kind in ("scalar", "velocity"):
        for ndim in (1, 2):
            # each member's coefficients and scale; its T is the dump's
            out[f"{kind}_{ndim}d"] = [
                {k: v for k, v in vars(b).items() if k != "T"}
                for b in check_bank(cfg, kind, ndim)]
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
