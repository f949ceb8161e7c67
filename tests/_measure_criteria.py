"""Margin table of acceptance criteria C1–C13 (a development aid).

Builds the gate's session fixtures with _reference.py, printing each
one's wall time (about 100 s in all), then one row per criterion of
_criteria.py: PASS or FAIL, measured, bound and tolerance.

Run from the repo root:  python3 tests/_measure_criteria.py
"""

import inspect
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import _criteria as C
import _reference as R


def call(fn, values):
    """fn on the values named by its parameters."""
    return fn(*(values[a] for a in inspect.signature(fn).parameters))


def _fmt(x):
    if isinstance(x, tuple):
        return ", ".join(map(_fmt, x))
    return "-" if x is None else f"{x:.10g}"


def row(res):
    return (f"C{res.num:<3}{'PASS' if res.ok else 'FAIL'}  {res.name:<36}"
            f"measured {_fmt(res.measured)}; bound {_fmt(res.bound)}; "
            f"tol {_fmt(res.tolerance)}")


def main():
    fixtures = {}
    for build in R.FIXTURES:
        t0 = time.perf_counter()
        fixtures[build.__name__] = call(build, fixtures)
        print(f"{build.__name__}: {time.perf_counter() - t0:.1f} s")
    for criterion in C.CRITERIA:
        print(row(call(criterion, fixtures)))


if __name__ == "__main__":
    main()
