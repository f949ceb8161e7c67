"""Command-line entry point.

    thickflow run <config> [--output DIR] [--quiet]
    thickflow sweep <config> [--output DIR] [--jobs N] [--quiet]
    thickflow verify <dir> [--policy strict|tolerant] [--quiet]
    thickflow banks <config> [--output DIR]

A run whose snapshots have at least _STREAM_MIN_CELLS cells, computing
alone in this process (`run`, or a member of `sweep --jobs 1`), may
format its snapshot CSVs in one writer process forked while the solver
steps: it forks at the first snapshot, after the first one after
t = 0, that the solver took at least as long to reach from the one
before as a snapshot takes to format (writer.SnapshotWriter; POSIX
only, never inside --jobs workers); a faster run writes its CSVs after
the run, inline. The
files' bytes and stdout do not depend on it; a profiler or tracer inside
this process then sees only its share of the writing, diag.csv and the
wait for the writer. When the writer fails, the run prints `snapshot
writer failed: ...` and exits 3.

A sweep runs each member into its own directory. With --jobs N above 1
it runs them in min(N, members) worker processes forked from this one
(POSIX only; without fork they run here, one after another), costliest
first. A worker gets its member as a task: the config and output
directory, pickled, and the member's index; it sends back the member's
trajectory and check reports. The progress lines, check tables, reports
and artifacts come out in config order with the same bytes whatever N
is. With N above 1 the members run in the workers, so a profiler or
tracer inside this process sees only the parent's share of the sweep.

Exit codes: 0 success, 2 config error, 3 solver or snapshot writer
failure (in a run or while writing its artifacts), 4 check failure.
Numeric CSV output is formatted with 17 significant digits, so
re-running an identical config reproduces byte-identical files on one
numeric platform: the same numpy and OpenBLAS kernels (other kernels
may round differently).
"""

import argparse
import contextlib
import functools
import glob
import json
import os
import sys
import time

from . import __version__
from .config import load_config
from .errors import (ConstraintViolation, FluxOverflow, NewtonDivergence,
                     ParseError, SolverDivergence, StepFailure, VacuumError,
                     ValidationError, WriterError)

_SOLVER_ERRORS = (NewtonDivergence, VacuumError, FluxOverflow,
                  ConstraintViolation, SolverDivergence, StepFailure)


def _say(quiet, *args):
    if not quiet:
        print(*args)


def _launch(cfg, model, params, g, sink=None):
    """Run model, a model class, from the config's initial data on grid
    g; sink, if given, receives each snapshot (stepper1d.advance)."""
    rho0, u0 = cfg.initial_fields(g)
    return model.run(params, g, rho0, u0, cfg.T, cfg.snapshot_schedule(),
                     None, sink)   # no forcing


def _run_model(cfg, sink=None):
    return _launch(cfg, cfg.model_class, cfg.run_params, cfg.grid(), sink)


def _run_model_with(cfg, model, params, g, sink=None):
    return _launch(cfg, model, params, g, sink)


def _standard_checks(cfg, traj):
    """The checks of traj by its model; a function of its own, so that
    perfbench's tracer can time the checks by its name."""
    return traj.model.checks(cfg, traj)


def _transport_checks(cfg, traj):
    """Weak-form transport reports appended to the run's check stream."""
    from .banks import check_bank, sample_bank
    from .diagnostics import CheckReport, _consistency_tol
    from .transport_check import (continuity_residual, renormalized_residual,
                                  time_mean_continuity)

    positive = sum(s.t > 0 for s in traj.snapshots)
    if positive < 3:
        return [CheckReport.skip("transport_checks", "needs 3 snapshots at "
                                 f"t > 0, the run has {positive}")]
    reports = []
    try:
        bank = sample_bank(check_bank(cfg, "scalar", 2 if cfg.is_2d else 1),
                           traj.model.g)
        tol = 2.0 * _consistency_tol(traj, cfg.tol_c)
        worst_c = max(continuity_residual(traj, phi) for phi in bank)
        gamma = traj.model.params.gamma
        worst_r = max(renormalized_residual(traj, gamma, phi) for phi in bank)
        reports.append(CheckReport.build("continuity_weak_residual", 0.0,
                                         worst_c, tol))
        reports.append(CheckReport.build("renormalized_weak_residual", 0.0,
                                         worst_r, tol))
        if cfg.s_list:
            reports.append(time_mean_continuity(traj, gamma, cfg.s_list))
    except ValueError as e:
        reports.append(CheckReport.skip("transport_checks", str(e)))
    return reports


def _any_failed(reports):
    return any((not r.passed) and (not r.skipped) for r in reports)


# the fewest cells of a snapshot that a forked writer may format. Such a
# snapshot formats in 3.7-8 ms (1D), twice to four times the fork's
# 2 ms; below it the few snapshots a run hands over save too little to
# pay for the fork, and smaller runs skip the writer module altogether
# (BENCH_28.json)
_STREAM_MIN_CELLS = 2048


def _streams(cells):
    """Whether a run with snapshots of cells cells, computing alone in
    this process, hands them to a writer.SnapshotWriter."""
    return hasattr(os, "fork") and cells >= _STREAM_MIN_CELLS


def _run_and_write(cfg, outdir, quiet, stream, run, *args):
    """run(cfg, *args), its checks, and the snapshots, diag.csv,
    checks.json and manifest.json of its trajectory in outdir, made once
    the run and its checks have returned; the manifest's wall_time_s
    times it all. Returns the trajectory and its check reports.

    With stream, run hands its snapshots to a writer.SnapshotWriter,
    which may fork a writer that formats them into a staging directory
    beside outdir while the run goes on. After the checks, diag.csv
    joins them there, the writer is waited for, and only then are the
    files moved into outdir. Otherwise, or when no writer was forked,
    the CSVs are written into outdir after the checks. The files' bytes
    do not depend on the path; with a writer, a profiler or tracer in
    this process sees only diag.csv and the wait for the writer of the
    writing. A failed run leaves no outdir, no staging directory and no
    writer process."""
    from . import diagnostics as dg

    t0 = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if stream:
            from .writer import SnapshotWriter

            writer = stack.enter_context(SnapshotWriter(outdir))
            traj = run(cfg, *args, sink=writer)
        else:
            writer = None
            traj = run(cfg, *args)
        reports = _standard_checks(cfg, traj)
        reports.extend(_transport_checks(cfg, traj))
        if writer is not None and writer.stage is not None:
            diag = traj.model.write_diag(traj, writer.stage)
            staged = writer.join() + [diag]
            os.makedirs(outdir, exist_ok=True)
            artifacts = [os.path.join(outdir, os.path.basename(p))
                         for p in staged]
            for src, dst in zip(staged, artifacts):
                os.replace(src, dst)
        else:
            os.makedirs(outdir, exist_ok=True)
            artifacts = traj.model.write_csvs(traj, outdir)

    checks_path = os.path.join(outdir, "checks.json")
    dg.write_reports(reports, checks_path)
    artifacts.append(checks_path)
    _say(quiet, dg.format_report_table(reports))

    manifest = {
        "version": __version__,
        "model": traj.model.name,
        "config": cfg.raw_text,
        "wall_time_s": time.perf_counter() - t0,
        "artifacts": sorted(os.path.basename(a) for a in artifacts),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    return traj, reports


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
    try:
        cells = cfg.nx * cfg.ny if cfg.is_2d else cfg.n
        _, reports = _run_and_write(cfg, outdir, args.quiet, _streams(cells),
                                    _run_model)
    except _SOLVER_ERRORS as e:
        print(f"solver failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except WriterError as e:
        print(f"snapshot writer failed: {e}", file=sys.stderr)
        return 3
    return 4 if _any_failed(reports) else 0


def _sweep_member(cfg, outdir, alone, i):
    """Run member i of cfg's sweep and write its artifacts quietly;
    returns its trajectory and check reports. alone: the member runs in
    the sweep's own process, not in a worker, and may stream its
    snapshots to a forked writer."""
    key, v, model, params, g = cfg.sweep_members[i]
    return _run_and_write(cfg, os.path.join(outdir, f"{key}_{v:g}"), True,
                          alone and _streams(g.n), _run_model_with, model,
                          params, g)


def _sweep_runs(cfg, outdir, quiet, jobs):
    """Run the sweep members of cfg, built when it was loaded, writing
    each member's artifacts: in min(jobs, members) forked processes if
    that is above 1 and this platform forks, else one after another
    here. The workers start from the loaded code (spawn would import it
    again), all forked before the executor starts a thread, and are
    handed members costliest first: more cells, then the later member,
    as sweeps usually list p rising or eps falling. On the way out,
    members not yet started are cancelled and those started are waited
    for, so no member directory is left half-written.

    Progress lines and check tables are printed here, in config order,
    so stdout does not depend on jobs. Returns {"p": {p: traj}, "eps":
    {eps: traj}} for the families the sweep has, and whether a member's
    checks failed. A solver error is that of the first failing member in
    config order, its message prefixed with the member."""
    from .diagnostics import format_report_table

    members = cfg.sweep_members
    workers = min(jobs, len(members))
    parallel = workers > 1 and hasattr(os, "fork")
    member = functools.partial(_sweep_member, cfg, outdir, not parallel)
    results = {}
    member_failed = False
    with contextlib.ExitStack() as stack:
        futures = {}
        if parallel:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers,
                                       multiprocessing.get_context("fork"))
            stack.callback(pool.shutdown, cancel_futures=True)
            order = sorted(range(len(members)),
                           key=lambda i: (-members[i][4].n, -i))
            futures = {i: pool.submit(member, i) for i in order}
        for i, (key, v, _, _, g) in enumerate(members):
            label = f"{key}_{v:g}"
            _say(quiet, f"[sweep] running {label} (n = {g.n}) ...")
            try:
                traj, reports = futures[i].result() if futures else member(i)
            except (*_SOLVER_ERRORS, WriterError) as e:
                e.args = (f"{label}: {e}",)
                raise
            _say(quiet, format_report_table(reports))
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
        results, member_failed = _sweep_runs(cfg, outdir, args.quiet,
                                              args.jobs)
    except _SOLVER_ERRORS as e:
        print(f"solver failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except WriterError as e:
        print(f"snapshot writer failed: {e}", file=sys.stderr)
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
                         help="worker processes to run the members in, "
                              "forked (POSIX); output does not depend on it")
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
    if args.command == "sweep" and args.jobs < 1:
        p_sweep.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    cmd = {"run": cmd_run, "sweep": cmd_sweep, "verify": cmd_verify,
           "banks": cmd_banks}[args.command]
    return cmd(args)


if __name__ == "__main__":
    sys.exit(main())
