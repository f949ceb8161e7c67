"""Spans around calls into each thickflow module, recorded from outside.

`Tracer.install` replaces module functions and methods by timing
wrappers, each at the name its caller resolves (for example
`powerlaw1d.implicit_shear_solve`, which `PowerLawModel.step` calls,
not `stepper1d.implicit_shear_solve`). A span keeps its name, start,
end, parent span, sweep-member label, thread and the exception type it
raised, if any. Spans stay in memory and are saved once, at the end.
Wrappers may also attach values (Newton iterations, ...) to their span.

`layer_metrics` turns the saved spans of one run into per-module
metrics. A span's self time is its duration minus the part of it that
its child spans cover; the children of one span can run on different
threads (the `--jobs 2` sweep), so covered time is a union of intervals.
"""

import functools
import itertools
import threading
import time

import numpy as np

MAIN_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent, member, thread, raised)
        self.spans = []
        self.values = []     # (span id, key, value)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, start, end):
        """A span timed by the caller, outside any wrapper."""
        self.spans.append((next(self._ids), name, start, end, 0, "", 0, ""))

    def wrap(self, owner, attr, name, member=None, after=None):
        """Replace owner.attr by a wrapper recording one span per call.

        member(*args) labels a sweep member; spans inside inherit the
        label. after(result) lists (key, value) pairs to attach to the span.
        A span opened on a worker thread with nothing open on that thread
        gets the innermost span open on the main thread as its parent.
        """
        fn = getattr(owner, attr)
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, label = stack[-1]
            else:
                main = tracer._main_stack
                parent, label = main[-1] if main else (0, "")
            if member is not None:
                label = member(*args)
            sid = next(tracer._ids)
            stack.append((sid, label))
            raised = ""
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                raised = type(err).__name__
                raise
            finally:
                end = perf()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, label,
                                     threading.get_ident(), raised))
            if after is not None:
                tracer.values.extend((sid, k, v) for k, v in after(result))
            return result

        setattr(owner, attr, traced)

    def install(self):
        """Wrap the public entry points of every thickflow layer."""
        from thickflow import (banks, cli, limits, powerlaw1d,
                               semistationary2d, singular1d, stepper1d,
                               trajectory, transport_check)

        w = self.wrap
        w(cli, "main", MAIN_SPAN)
        w(cli, "_run_model", "cli.member", member=lambda *a: "run")
        w(cli, "_run_model_with", "cli.member",
          member=lambda cfg, model, params, g: f"{model}:{_param(params)}")
        w(cli, "_standard_checks", "diagnostics.checks")
        w(stepper1d, "solve_cyclic_tridiag", "stepper1d.tridiag")
        for mod, model in ((powerlaw1d, powerlaw1d.PowerLawModel),
                           (singular1d, singular1d.SingularModel)):
            w(mod, "advance", "stepper1d.advance")
            w(mod, "barotropic_llf_update", "stepper1d.transport")
            w(mod, "implicit_shear_solve", "stepper1d.newton",
              after=_newton_info)
            for attr in ("step", "flux", "dflux"):
                w(model, attr, f"{mod.__name__.split('.')[-1]}.{attr}")
        s2d = semistationary2d
        w(s2d, "solve_momentum", "semistationary2d.solve")
        w(s2d, "functional", "semistationary2d.functional")
        w(s2d, "functional_gradient", "semistationary2d.gradient")
        w(s2d._FourierPreconditioner, "__init__",
          "semistationary2d.precond_build")
        w(s2d._FourierPreconditioner, "apply", "semistationary2d.precond")
        w(s2d, "transport_density", "semistationary2d.transport")
        for attr in ("continuity_residual", "renormalized_residual",
                     "time_mean_continuity"):
            w(transport_check, attr, "transport_check")
        for attr in ("assemble_sweep_report", "cross_model_distance",
                     "variational_residual_1d"):
            w(limits, attr, "limits")
        for attr in ("scalar_bank_1d", "scalar_bank_2d", "velocity_bank_1d"):
            w(banks, attr, "banks")
        for attr in ("write_diag_csv", "write_snapshots_1d",
                     "write_snapshots_2d"):
            w(trajectory, attr, "trajectory.write")

    def save(self, path):
        cols = list(zip(*self.spans))
        vals = list(zip(*self.values)) or [(), (), ()]
        np.savez(path,
                 id=np.array(cols[0], dtype=np.int64),
                 name=np.array(cols[1], dtype=str),
                 start=np.array(cols[2], dtype=float),
                 end=np.array(cols[3], dtype=float),
                 parent=np.array(cols[4], dtype=np.int64),
                 member=np.array(cols[5], dtype=str),
                 thread=np.array(cols[6], dtype=np.int64),
                 raised=np.array(cols[7], dtype=str),
                 value_span=np.array(vals[0], dtype=np.int64),
                 value_key=np.array(vals[1], dtype=str),
                 value=np.array(vals[2], dtype=float))


def _param(params):
    return f"{getattr(params, 'p', None) or params.eps:g}"


def _newton_info(result):
    info = result[1]
    return (("iterations", info["iterations"]),
            ("damped", sum(1 for a in info["damping"] if a < 1.0)),
            ("at_floor", 1 if info.get("at_floor") else 0))


def load_spans(path):
    with np.load(path, allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


def _union(start, end):
    """Length of the union of the intervals [start_i, end_i]."""
    covered, run_start, run_end = 0.0, None, None
    for a, b in sorted(zip(start.tolist(), end.tolist())):
        if run_end is None or a > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    return covered + (run_end - run_start if run_end is not None else 0.0)


def _self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    order = np.argsort(parent, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(parent[order])) + 1)
    covered = {int(parent[g[0]]): _union(start[g], end[g])
               for g in groups if g.size}
    return {int(s): float(e - b) - covered.get(int(s), 0.0)
            for s, b, e in zip(spans["id"], start, end)}


def layer_metrics(spans, jobs):
    """Per-module metrics of one traced run: {name: value}."""
    name, raised = spans["name"], spans["raised"]
    dur = spans["end"] - spans["start"]
    self_t = _self_times(spans)
    ids = spans["id"]

    def sel(n, ok=None):
        mask = name == n
        if ok is True:
            mask &= raised == ""
        elif ok is False:
            mask &= raised != ""
        return mask

    def total(n):
        return float(dur[sel(n)].sum())

    def self_total(n):
        return float(sum(self_t[int(s)] for s in ids[sel(n)]))

    def count(n, ok=None):
        return int(sel(n, ok).sum())

    def ratio(a, b):
        return a / b if b else 0.0

    key, value = spans["value_key"], spans["value"]

    def vsum(k):
        return float(value[key == k].sum())

    # flux evaluations inside Newton: one per residual evaluation
    newton_ids = set(ids[sel("stepper1d.newton")].tolist())
    in_newton = np.isin(spans["parent"], list(newton_ids))
    newton_calls = len(newton_ids)
    newton_ok = count("stepper1d.newton", ok=True)
    its = vsum("iterations")
    evals = int((in_newton & ((name == "powerlaw1d.flux")
                              | (name == "singular1d.flux"))).sum())

    m = {}
    m["stepper1d.tridiag_s"] = total("stepper1d.tridiag")
    m["stepper1d.tridiag_calls"] = count("stepper1d.tridiag")
    m["stepper1d.tridiag_us_per_call"] = 1e6 * ratio(
        m["stepper1d.tridiag_s"], m["stepper1d.tridiag_calls"])
    m["stepper1d.newton_s"] = total("stepper1d.newton")
    m["stepper1d.newton_self_s"] = self_total("stepper1d.newton")
    m["stepper1d.newton_its_per_step"] = ratio(its, newton_ok)
    m["stepper1d.linesearch_evals_per_it"] = ratio(evals - newton_calls, its)
    m["stepper1d.damped_frac"] = ratio(vsum("damped"), its)
    m["stepper1d.newton_at_floor_frac"] = ratio(vsum("at_floor"), newton_ok)
    m["stepper1d.transport_s"] = total("stepper1d.transport")
    m["stepper1d.advance_self_s"] = self_total("stepper1d.advance")
    for mod in ("powerlaw1d", "singular1d"):
        m[f"{mod}.step_s"] = total(f"{mod}.step")
        m[f"{mod}.step_self_s"] = self_total(f"{mod}.step")
        m[f"{mod}.flux_s"] = total(f"{mod}.flux")
        m[f"{mod}.dflux_s"] = total(f"{mod}.dflux")
        m[f"{mod}.flux_calls"] = count(f"{mod}.flux")
    m["stepper1d.steps"] = count("powerlaw1d.step", ok=True) \
        + count("singular1d.step", ok=True)
    m["stepper1d.step_retries"] = count("powerlaw1d.step", ok=False) \
        + count("singular1d.step", ok=False)
    flux_spans = sel("powerlaw1d.flux") | sel("powerlaw1d.dflux")
    m["powerlaw1d.flux_overflows"] = int(
        (flux_spans & (raised == "FluxOverflow")).sum())
    barrier_spans = sel("singular1d.flux") | sel("singular1d.dflux")
    m["singular1d.barrier_hits"] = int(
        (barrier_spans & (raised == "ConstraintViolation")).sum())

    s2 = "semistationary2d"
    solves = count(f"{s2}.solve")
    lbfgs_its = count(f"{s2}.gradient") - solves
    ls_evals = count(f"{s2}.functional") - solves
    solve_starts = spans["start"][sel(f"{s2}.solve")]
    m[f"{s2}.solves"] = solves
    m[f"{s2}.solve_s"] = total(f"{s2}.solve")
    m[f"{s2}.solve_self_s"] = self_total(f"{s2}.solve")
    m[f"{s2}.first_solve_s"] = float(
        dur[sel(f"{s2}.solve")][np.argmin(solve_starts)]) if solves else 0.0
    m[f"{s2}.lbfgs_its_per_solve"] = ratio(lbfgs_its, solves)
    m[f"{s2}.evals_per_it"] = ratio(ls_evals, lbfgs_its)
    m[f"{s2}.accept_ratio"] = ratio(lbfgs_its, ls_evals)
    m[f"{s2}.restarts"] = count(f"{s2}.precond_build") - solves
    for part in ("functional", "gradient", "precond", "transport"):
        m[f"{s2}.{part}_s"] = total(f"{s2}.{part}")

    m["transport_check.s"] = total("transport_check")
    m["diagnostics.checks_s"] = total("diagnostics.checks")
    m["limits.s"] = total("limits")
    m["banks.s"] = total("banks")
    m["trajectory.write_s"] = total("trajectory.write")
    m["config.load_s"] = total("config.load")
    m["cli.self_s"] = self_total(MAIN_SPAN) + self_total("cli.member")
    members = sel("cli.member")
    window = float(spans["end"][members].max()
                   - spans["start"][members].min()) if members.any() else 0.0
    m["cli.sweep_parallel_eff"] = ratio(total("cli.member"), jobs * window)
    # thread-seconds: the main thread, except while it waits for sweep
    # members on other threads, plus the members themselves
    m["cli.busy_s"] = total(MAIN_SPAN) + total("cli.member") - _union(
        spans["start"][members], spans["end"][members])
    m["trace.spans"] = len(ids)
    return m
