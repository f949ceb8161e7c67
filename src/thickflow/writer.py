"""The snapshot CSVs of a run, formatted in one forked process while the
solver steps (POSIX).

The CLI hands a SnapshotWriter to a run with large snapshots that
computes alone in its process (cli._streams). The writer forks only
once the solver has shown that it steps slower than a snapshot formats:
a run that reaches each snapshot sooner would mostly wait for its
writer, so it writes inline after the run instead. The writer formats through
trajectory.snapshot_writer_1d and _2d, so the bytes do not depend on
which process writes them. This module is imported only by a run that
may stream.
"""

import contextlib
import os
import pickle
import shutil
import sys
import tempfile
import time

from .errors import WriterError
from .trajectory import _row_format, snapshot_path

# a snapshot formats in about FORMAT_COST times the time %.17g takes for
# one value, per value of its state (rho and u): 2.0-2.3 in 1D and 2D at
# 2048 to 10240 cells (BENCH_28.json decision_measurement). The time per
# value is measured at t = 0 on _SAMPLE values, as a VM's speed drifts.
FORMAT_COST = 2.0
_SAMPLE = 256


class SnapshotWriter:
    """Writes the snapshot CSVs of one run from one process forked while
    the run goes on (POSIX).

    stepper1d.advance calls it with the model and each snapshot as it
    stores them. It forks at the first snapshot that the solver took at
    least as long to reach from the one before as a snapshot takes to
    format (priced at t = 0 by timing %.17g), not counting the first
    interval, which carries the solver's one-time costs, and if a
    staging directory can be made beside outdir (beside its real path,
    so the files are moved in on one file system). The writer inherits
    the model and the snapshots so far, gets every later one pickled
    through a pipe, and writes them into the stage with
    model.snapshot_writer; it calls no BLAS routine, which a process
    forked from one that may hold a BLAS thread pool must not. A writer
    whose parent goes without join() (a pipe that ends without the end
    mark) removes the stage and exits.

    stage is None while no writer was forked: the run then writes its
    snapshots inline. join() waits for the writer and returns the
    staged paths; leaving a with block kills and reaps a writer that was
    not joined and removes the stage with what is left in it.
    """

    def __init__(self, outdir):
        self.outdir = outdir
        self.stage = None     # the directory the writer writes into
        self.count = 0        # snapshots handed to the writer
        self.pid = None       # of the writer until it is reaped
        self._pipe = None
        self._held = []       # the snapshots so far, until it forks
        self._last = None     # the time of the last of them
        self._format_s = None  # a snapshot's formatting time, from t = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            self._reap()
        if self.stage is not None:
            shutil.rmtree(self.stage, ignore_errors=True)

    def __call__(self, model, state):
        if self.pid is not None:
            self._send(state)
        elif self._held == []:   # t = 0
            self._format_s = (FORMAT_COST * _s_per_value(state)
                              * (state.rho.size + state.u.size))
            self._held.append(state)
            self._last = time.perf_counter()
        elif self._held is not None:
            now = time.perf_counter()
            # the first interval, with the solver's one-time costs, is
            # no measure of its pace
            if len(self._held) > 1 and now - self._last >= self._format_s:
                self._fork(model, self._held + [state])
            else:
                self._held.append(state)
                self._last = now
        self.count += 1

    def _send(self, state):
        try:
            pickle.dump(state, self._pipe, pickle.HIGHEST_PROTOCOL)
            self._pipe.flush()
        except BrokenPipeError:
            self.join()   # the writer has died: raises its status

    def _fork(self, model, states):
        self._held = None
        parent, name = os.path.split(os.path.realpath(self.outdir))
        try:
            self.stage = tempfile.mkdtemp(prefix=f".{name}.", dir=parent)
        except OSError:   # no directory beside outdir: write inline
            return
        read, write = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            self.pid = os.fork()
        except OSError:   # no process to spare: write inline
            os.close(read)
            os.close(write)
            os.rmdir(self.stage)
            self.stage = None
            return
        if self.pid == 0:
            os.close(write)
            _write_all(model, self.stage, states, os.fdopen(read, "rb"))
        os.close(read)
        self._pipe = os.fdopen(write, "wb")

    def join(self):
        """Send the end mark and wait for the writer; the paths it wrote.
        A writer that failed raises WriterError."""
        pid = self.pid
        with contextlib.suppress(BrokenPipeError):
            pickle.dump(None, self._pipe)
        status = self._reap()
        if status:
            raise WriterError(f"process {pid} exited with status {status}")
        return [snapshot_path(self.stage, i) for i in range(self.count)]

    def _reap(self):
        with contextlib.suppress(BrokenPipeError):
            self._pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)


def _s_per_value(state):
    """The time %.17g takes here and now for one value: the first
    _SAMPLE values of state's rho, formatted at once as the CSVs are."""
    values = tuple(state.rho.ravel()[:_SAMPLE].tolist())
    fmt = _row_format(len(values))
    t = time.perf_counter()
    fmt % values
    return (time.perf_counter() - t) / len(values)


def _write_all(model, stage, states, pipe):
    """The writer: states, then each snapshot from pipe until the end
    mark (None), then exit 0. It exits 1 on an error, which the parent
    finds at its next send or join and cleans up after, and on a pipe
    that ends without the end mark, after removing the stage: the parent
    is gone."""
    status = 1
    try:
        write_one = model.snapshot_writer(stage)
        for idx, state in enumerate(states):
            write_one(idx, state)
        for idx in range(len(states), sys.maxsize):
            state = pickle.load(pipe)
            if state is None:
                status = 0
                break
            write_one(idx, state)
    except EOFError:
        shutil.rmtree(stage, ignore_errors=True)
    except BaseException:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)
