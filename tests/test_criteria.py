"""The acceptance criteria of _criteria.py outside the gate: the margin
table prints exactly them, and their 2D measures hold still where two
solver paths move the fields (ROADMAP finding 9)."""

import functools
import importlib
import inspect
import sys

import numpy as np

import _criteria as C
import _reference as R
import test_acceptance
from thickflow.config import parse_config


def test_criteria_are_c01_to_c13_of_the_gate():
    gate = sorted(name for name in vars(test_acceptance)
                  if name.startswith("test_c"))
    assert [f"test_{c.__name__}" for c in C.CRITERIA] == gate[:13]
    assert gate[13:] == ["test_c14_oracle_equivalences",
                         "test_c15_determinism"]


def test_margin_table_rows_are_the_criteria(monkeypatch, capsys):
    # stand-ins with the names and parameters of the fixture builders and
    # of the criteria let the script's main run in no time; a fixture's
    # stand-in returns its name
    calls = []

    def stand_in(fn, out):
        @functools.wraps(fn)
        def call(*args):
            calls.append((fn, args))
            return out
        return call

    monkeypatch.setattr(R, "FIXTURES", tuple(
        stand_in(b, b.__name__) for b in R.FIXTURES))
    monkeypatch.setattr(C, "CRITERIA", tuple(
        stand_in(c, C.Result(n, c.__name__, True, ""))
        for n, c in enumerate(C.CRITERIA, start=1)))
    sys.modules.pop("_measure_criteria", None)
    script = importlib.import_module("_measure_criteria")
    assert calls == []   # importing the script builds no fixture
    script.main()
    # each fixture is built once, then each criterion is measured once,
    # on the fixtures its parameters name
    assert [fn.__name__ for fn, _ in calls] == [
        fn.__name__ for fn in R.FIXTURES + C.CRITERIA]
    assert all(args == tuple(inspect.signature(fn).parameters)
               for fn, args in calls)
    rows = [line.split()[:3] for line in capsys.readouterr().out.splitlines()
            if line.startswith("C")]
    assert rows == [[f"C{n}", "PASS", c.__name__]
                    for n, c in enumerate(C.CRITERIA, start=1)]


def _run_2d_p16(newton_tol):
    """R.REF_2D at 32 x 32 and p = 16, solved to newton_tol."""
    cfg = parse_config(R.REF_2D.replace("nx = 64", "nx = 32")
                       .replace("ny = 64", "ny = 32")
                       .replace("p = 8.0", "p = 16.0\nnewton_tol = "
                                + repr(newton_tol)))
    return cfg, {16.0: R.run(cfg)}


def test_2d_gate_measures_agree_along_two_solver_paths():
    # finding 9: newton_tol 1e-6 and 1e-7 move u by 1.8e-4 (max |u| 0.19),
    # while C11's 2D minimum residual moves by 9e-11 and C5's measure and
    # C12's ratio not at all; the measures must agree to 1e-8
    a, b = _run_2d_p16(1e-6), _run_2d_p16(1e-7)
    for measure in (C.violation_2d,
                    lambda s: C.residual_2d(s).context["residuals_min"],
                    lambda s: C.c12_linf_growth(s).measured):
        assert abs(measure(a) - measure(b)) <= 1e-8
    du = max(float(np.max(np.abs(sa.u - sb.u)))
             for sa, sb in zip(a[1][16.0].snapshots, b[1][16.0].snapshots))
    print(f"max |u(1e-6) - u(1e-7)| = {du:.2e}")
    assert du > 0.0   # the two paths are two paths
