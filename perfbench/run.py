"""Benchmark of the thickflow CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep-p|singular-fine|stokes2d|all
                             --seed N --seconds S --trace 0|1

Each repetition runs one `thickflow run` or `thickflow sweep` in a fresh
process against the `src/` next to this directory, on a config generated
from the seed. Repetitions run one after another (a closed loop: one
researcher launches a job and waits for it) while the next one is
expected to end within S seconds, and at least three run. The last line
of standard output is one JSON object {correct, attempted, failed,
metrics}: end-to-end metrics with --trace 0, per-module metrics from
traced repetitions with --trace 1.

See README.md in this directory for every metric and workload.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_REPS = 3
LAST_START_S = 120      # start no repetition later, so a run ends in 180 s
REP_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "cell_steps_per_s": "1/s",
              "peak_rss_mb": "MB"}

_S2D = "semistationary2d"
PER_LAYER = {
    "stepper1d.tridiag_s": "s",
    "stepper1d.tridiag_calls": "count",
    "stepper1d.tridiag_us_per_call": "us",
    "stepper1d.newton_s": "s",
    "stepper1d.newton_self_s": "s",
    "stepper1d.newton_its_per_step": "its/step",
    "stepper1d.linesearch_evals_per_it": "evals/it",
    "stepper1d.damped_frac": "its/it",
    "stepper1d.newton_at_floor_frac": "solves/solve",
    "stepper1d.transport_s": "s",
    "stepper1d.advance_self_s": "s",
    "stepper1d.steps": "count",
    "stepper1d.step_retries": "count",
    "powerlaw1d.step_s": "s",
    "powerlaw1d.step_self_s": "s",
    "powerlaw1d.flux_s": "s",
    "powerlaw1d.dflux_s": "s",
    "powerlaw1d.flux_calls": "count",
    "powerlaw1d.flux_overflows": "count",
    "singular1d.step_s": "s",
    "singular1d.step_self_s": "s",
    "singular1d.flux_s": "s",
    "singular1d.dflux_s": "s",
    "singular1d.flux_calls": "count",
    "singular1d.barrier_hits": "count",
    f"{_S2D}.solves": "count",
    f"{_S2D}.solve_s": "s",
    f"{_S2D}.solve_self_s": "s",
    f"{_S2D}.first_solve_s": "s",
    f"{_S2D}.lbfgs_its_per_solve": "its/solve",
    f"{_S2D}.evals_per_it": "evals/it",
    f"{_S2D}.accept_ratio": "its/eval",
    f"{_S2D}.restarts": "count",
    f"{_S2D}.functional_s": "s",
    f"{_S2D}.gradient_s": "s",
    f"{_S2D}.precond_s": "s",
    f"{_S2D}.transport_s": "s",
    "transport_check.s": "s",
    "diagnostics.checks_s": "s",
    "limits.s": "s",
    "banks.s": "s",
    "trajectory.write_s": "s",
    "trajectory.bytes": "B",
    "trajectory.mb_per_s": "MB/s",
    "config.load_s": "s",
    "cli.self_s": "s",
    "cli.sweep_parallel_eff": "s/s",
    "cli.busy_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
# units of measured time; every other per-layer metric is a count or a
# ratio of counts, which must repeat exactly for the same code and seed
TIMED_UNITS = {"s", "us", "MB/s", "s/s"}

# layers whose shares of the traced wall time are printed, per workload
SHARES = ("stepper1d.tridiag_s", "stepper1d.newton_self_s",
          "powerlaw1d.flux_s", "powerlaw1d.dflux_s", "singular1d.flux_s",
          "singular1d.dflux_s", "stepper1d.transport_s", f"{_S2D}.solve_s",
          f"{_S2D}.functional_s", "transport_check.s", "trajectory.write_s",
          "limits.s")


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def environment():
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "child_thread_vars": {var: "1" for var in THREAD_VARS},
    }


def csv_digest(outdir):
    """sha256 over every CSV under outdir, by relative path."""
    h = hashlib.sha256()
    for path in sorted(outdir.rglob("*.csv")):
        h.update(str(path.relative_to(outdir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_outputs(outdir, members):
    """Problems with a run's artifacts; empty when they are complete."""
    problems = []
    diags = sorted(outdir.rglob("diag.csv"))
    if len(diags) != members:
        problems.append(f"{len(diags)} diag.csv files, expected {members}")
    for diag in diags:
        if len(list(diag.parent.glob("snap_*.csv"))) < 4:
            problems.append(f"{diag.parent.name}: fewer than 4 snapshots")
    for path in outdir.rglob("*.csv"):
        data = path.read_bytes().lower()
        if b"nan" in data or b"inf" in data:
            problems.append(f"{path.name}: non-finite values")
    checks = sorted(outdir.rglob("checks.json"))
    if not checks:
        problems.append("no checks.json")
    for path in checks:
        for rep in json.loads(path.read_text()):
            if not rep["pass"] and not rep.get("skipped"):
                problems.append(f"check {rep['check']} failed: measured "
                                f"{rep['measured']} bound {rep['bound']}")
    return problems


class Bench:
    def __init__(self, workload, seed, work):
        from thickflow.config import parse_config
        from workloads import config_text

        self.workload = workload
        self.text = config_text(workload, seed)
        cfg = parse_config(self.text)
        self.cells = cfg.nx * cfg.ny if cfg.is_2d else cfg.n
        self.members = len(cfg.sweep_values) if workload.command == "sweep" \
            else 1
        self.work = work
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.config = work / "config.cfg"
        self.config.write_text(self.text)
        self.env = child_env()
        self.reps = []

    def warm_up(self):
        """Fill the bytecode and file caches that users pay for only once."""
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import thickflow.cli, thickflow.powerlaw1d, "
                "thickflow.singular1d, thickflow.semistationary2d, "
                "thickflow.limits, thickflow.transport_check, tracer")
        subprocess.run([sys.executable, "-c", code, str(SRC)], env=self.env,
                       cwd=HERE, check=True)

    def rep(self, traced):
        i = len(self.reps)
        outdir = self.work / f"rep{i}"
        timing = self.work / f"rep{i}.timing.json"
        spans = self.work / f"rep{i}.spans.npz"
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
               "--config", str(self.config), "--timing", str(timing)]
        if traced:
            cmd += ["--trace", str(spans)]
        cmd += ["--", self.workload.command, str(self.config),
                "--output", str(outdir), "--quiet", *self.workload.cli_args]
        with open(self.work / f"rep{i}.log", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(REP_TIMEOUT_S, proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        r = {"traced": traced, "rc": proc.returncode, "wall_s": wall,
             "peak_rss_mb": usage.ru_maxrss / 1024.0, "problems": []}
        if proc.returncode != 0:
            tail = (self.work / f"rep{i}.log").read_text(errors="replace")
            r["problems"].append(f"exit {proc.returncode}: {tail[-400:]}")
        if timing.exists():
            r["setup_s"] = json.loads(timing.read_text())["setup_end"] - t0
        else:
            r["problems"].append("no timing record")
        if outdir.exists():
            r["problems"] += check_outputs(outdir, self.members)
            r["digest"] = csv_digest(outdir)
            # diag.csv: a header and the t = 0 row, then one row per step
            steps = sum(d.read_text().count("\n") - 2
                        for d in outdir.rglob("diag.csv"))
            r["steps"] = steps
            r["trajectory_bytes"] = sum(
                p.stat().st_size for p in outdir.rglob("*.csv")
                if p.name == "diag.csv" or p.name.startswith("snap_"))
            if "setup_s" in r:
                r["cell_steps_per_s"] = self.cells * steps / (wall
                                                              - r["setup_s"])
            shutil.rmtree(outdir)
        else:
            r["problems"].append("no output directory")
        if traced and spans.exists():
            from tracer import layer_metrics, load_spans

            layers = layer_metrics(load_spans(spans), self.workload.jobs)
            layers["trajectory.bytes"] = r.get("trajectory_bytes", 0)
            layers["trajectory.mb_per_s"] = layers["trajectory.bytes"] / 1e6 \
                / layers["trajectory.write_s"] \
                if layers["trajectory.write_s"] else 0.0
            r["layers"] = layers
        self.reps.append(r)
        return r

    def run(self, seconds, trace):
        """Repeat until one more run would end after `seconds`."""
        self.warm_up()
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            traced = sum(r["traced"] for r in self.reps)
            needed = len(self.reps) < MIN_REPS or (
                trace and min(traced, len(self.reps) - traced) < 2)
            typical = statistics.median(r["wall_s"] for r in self.reps) \
                if self.reps else 0.0
            if self.reps and (elapsed > LAST_START_S or (
                    not needed and elapsed + typical > seconds)):
                break
            # with tracing, alternate untraced and traced runs so the
            # overhead compares runs made under the same conditions
            self.rep(traced=bool(trace) and len(self.reps) % 2 == 1)
        self._flag_digests()

    def _flag_digests(self):
        digests = [r["digest"] for r in self.reps if "digest" in r]
        if digests:
            common = max(set(digests), key=digests.count)
            for r in self.reps:
                if r.get("digest", common) != common:
                    r["problems"].append("numeric CSVs differ from the other "
                                         "repetitions of this seed")
        self.digest = common if digests else ""

    def result(self, trace):
        ok = [r for r in self.reps if not r["problems"]]
        failed = len(self.reps) - len(ok)
        correct = failed == 0
        notes = []
        if trace:
            traced = [r for r in ok if r["traced"]]
            plain = [r for r in ok if not r["traced"]]
            metrics, mismatched = self._layer_metrics(traced, plain)
            if mismatched:
                correct = False
                notes.append("counts differ between traced runs: "
                             + ", ".join(mismatched))
        else:
            use = ok or self.reps
            metrics = {name: {"value": statistics.median(
                r.get(name, 0.0) for r in use), "unit": unit}
                for name, unit in END_TO_END.items()}
        return {"correct": correct, "attempted": len(self.reps),
                "failed": failed, "metrics": metrics}, notes

    def _layer_metrics(self, traced, plain):
        metrics, mismatched = {}, []
        if not traced:     # already counted as failed
            return {n: {"value": 0.0, "unit": u}
                    for n, u in PER_LAYER.items()}, []
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                continue
            vals = [r["layers"][name] for r in traced]
            if unit in TIMED_UNITS:
                value = statistics.median(vals)
            else:
                value = vals[0]
                if any(v != value for v in vals):
                    mismatched.append(name)
            metrics[name] = {"value": value, "unit": unit}
        overhead = statistics.median(r["wall_s"] for r in traced) - \
            statistics.median(r["wall_s"] for r in plain) if plain else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        return metrics, mismatched


def report(name, seed, trace, bench, result, notes, env):
    """Human-readable lines; the JSON result line is printed by main."""
    reps = bench.reps
    print(f"workload {name} seed {seed} trace {trace}: {len(reps)} runs "
          f"({sum(r['traced'] for r in reps)} traced), "
          f"{result['failed']} failed")
    for r in reps:
        for p in r["problems"]:
            print(f"  problem: {p}")
    for note in notes:
        print(f"  {note}")
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        if m["cli.busy_s"] > 0:
            shares = ", ".join(f"{k} {100 * m[k] / m['cli.busy_s']:.1f}%"
                               for k in SHARES if m[k] > 0)
            print(f"  share of {m['cli.busy_s']:.4g} busy thread-seconds: "
                  f"{shares}")
            print(f"  tracing overhead {m['trace.overhead_s']:.4g} s per run")
    else:
        ok = [r for r in reps if not r["problems"]] or reps
        for metric, unit in END_TO_END.items():
            vals = sorted(r.get(metric, 0.0) for r in ok)
            print(f"  {metric} {result['metrics'][metric]['value']:.6g} {unit}"
                  f" (median of {len(vals)}, range {vals[0]:.6g}.."
                  f"{vals[-1]:.6g})")
        print(f"  fail_frac {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']} runs failed)")
    print(f"  numeric CSV digest sha256:{bench.digest}")
    print(f"  environment {json.dumps(env, sort_keys=True)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "thickflow" / "cli.py").is_file():
        sys.exit(f"no thickflow sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        sys.exit(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)} or all")
    env = environment()
    results = {}
    for name in names:
        work = WORK / f"{name}-seed{args.seed}-trace{args.trace}"
        bench = Bench(WORKLOADS[name], args.seed, work)
        bench.run(args.seconds, args.trace)
        result, notes = bench.result(args.trace)
        report(name, args.seed, args.trace, bench, result, notes, env)
        (work / "result.json").write_text(json.dumps({
            "workload": name, "seed": args.seed, "trace": args.trace,
            "result": result, "notes": notes, "digest": bench.digest,
            "environment": env, "config": bench.text,
            "repetitions": bench.reps,
        }, indent=1, sort_keys=True))
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
