"""Snapshot CSVs formatted by a forked writer while the solver steps
(writer.SnapshotWriter): the same files and stdout as when they are
formatted after the run, and no directory or process left by a failure.

These runs are small, so each test sets the two thresholds of the
choice: cli._STREAM_MIN_CELLS, the fewest snapshot cells that may
stream (0 to stream, a huge value to write inline), and
writer.FORMAT_COST, which scales the formatting time of a snapshot that
the solver's time from one snapshot to the next must reach (0 to fork
at the third snapshot, a huge value to decline)."""

import os
import time
import types

import pytest

from test_config_cli import SMALL_RUN, _files
from test_csv_digests import DIGESTS, SINGULAR, STOKES_2D, csv_digest
from thickflow import cli, trajectory, writer
from thickflow.cli import main
from thickflow.config import load_config
from thickflow.errors import NewtonDivergence

HUGE = 10**9


def _forks_here(tmp_path, monkeypatch):
    """A list that gets the pid of the process and the stage each time a
    writer forks, written to a file so that forks in sweep workers count
    too."""
    log = tmp_path / "forks.log"
    fork = writer.SnapshotWriter._fork

    def logged(self, model, states):
        fork(self, model, states)
        if self.pid is not None:
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {self.stage}\n")

    monkeypatch.setattr(writer.SnapshotWriter, "_fork", logged)
    return lambda: ([line.split()[0] for line in log.read_text().splitlines()]
                    if log.exists() else [])


def _stream(monkeypatch, fork=True):
    """Let every run stream; fork: its solver is always slow enough."""
    monkeypatch.setattr(cli, "_STREAM_MIN_CELLS", 0)
    monkeypatch.setattr(writer, "FORMAT_COST", 0 if fork else HUGE)


def _only(tmp_path, *names):
    """The entries of tmp_path are names, the config and the fork log:
    no staging directory is left beside an output directory."""
    assert sorted(p.name for p in tmp_path.iterdir()
                  if p.name != "forks.log") == sorted(names + ("c.cfg",))


def _no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("text", [SINGULAR, STOKES_2D],
                         ids=["singular1d", "semistationary2d"])
def test_streamed_and_inline_runs_write_the_same_bytes(tmp_path, monkeypatch,
                                                       capsys, text):
    forks = _forks_here(tmp_path, monkeypatch)
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(text)
    files, stdout = {}, {}
    # streamed: a writer forks; declined: the solver is too fast for one,
    # so the run writes inline; inline: the snapshots are too small
    for path, floor, pace in (("streamed", 0, 0), ("declined", 0, HUGE),
                              ("inline", HUGE, 0)):
        monkeypatch.setattr(cli, "_STREAM_MIN_CELLS", floor)
        monkeypatch.setattr(writer, "FORMAT_COST", pace)
        out = tmp_path / path
        assert main(["run", str(cfgp), "--output", str(out)]) == 0
        files[path], stdout[path] = _files(out), capsys.readouterr().out
        assert csv_digest(out) == DIGESTS[text]
        # one writer, forked by this process, for the streamed run only
        assert forks() == [str(os.getpid())]
    assert files["streamed"] == files["declined"] == files["inline"]
    assert stdout["streamed"] == stdout["declined"] == stdout["inline"]
    assert "snap_000003.csv" in files["streamed"]
    _only(tmp_path, "streamed", "declined", "inline")


def test_sweep_members_stream_only_in_the_sweeps_own_process(tmp_path,
                                                              monkeypatch,
                                                              capsys):
    # under --jobs 1 each member streams to a writer forked here; under
    # --jobs 2 they run in workers and write inline
    forks = _forks_here(tmp_path, monkeypatch)
    _stream(monkeypatch)
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(SMALL_RUN + "\n[sweep]\nkind = p\nvalues = 4, 8, 16\n")
    files, stdout = {}, {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", str(cfgp), "--output", str(out),
                     "--jobs", jobs]) == 0
        files[jobs], stdout[jobs] = _files(out), capsys.readouterr().out
        assert forks() == [str(os.getpid())] * 3
    assert files["2"] == files["1"]
    assert stdout["2"] == stdout["1"]
    assert "p_16/snap_000008.csv" in files["1"]
    _only(tmp_path, "jobs1", "jobs2")


def test_without_fork_a_run_writes_inline_the_same_bytes(tmp_path,
                                                         monkeypatch):
    forks = _forks_here(tmp_path, monkeypatch)
    _stream(monkeypatch)
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(SINGULAR)
    assert main(["run", str(cfgp), "--output", str(tmp_path / "streamed"),
                 "--quiet"]) == 0
    monkeypatch.delattr(os, "fork")
    assert main(["run", str(cfgp), "--output", str(tmp_path / "inline"),
                 "--quiet"]) == 0
    assert forks() == [str(os.getpid())]
    assert _files(tmp_path / "inline") == _files(tmp_path / "streamed")


def test_a_symlinked_output_directory_is_staged_beside_its_target(
        tmp_path, monkeypatch):
    # the stage sits beside the real directory, on its file system, so
    # the files can be renamed into it
    forks = _forks_here(tmp_path, monkeypatch)
    _stream(monkeypatch)
    (tmp_path / "real" / "target").mkdir(parents=True)
    (tmp_path / "links").mkdir()
    (tmp_path / "links" / "out").symlink_to(tmp_path / "real" / "target")
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(SINGULAR)
    assert main(["run", str(cfgp), "--output", str(tmp_path / "links" / "out"),
                 "--quiet"]) == 0
    assert forks() == [str(os.getpid())]
    stage = (tmp_path / "forks.log").read_text().split()[1]
    assert os.path.dirname(stage) == str(tmp_path / "real")
    assert csv_digest(tmp_path / "real" / "target") == DIGESTS[SINGULAR]
    assert os.listdir(tmp_path / "real") == ["target"]
    assert os.listdir(tmp_path / "links") == ["out"]


def test_missing_parent_directories_are_made_only_by_a_run_that_succeeds(
        tmp_path, monkeypatch, capsys):
    # with no directory beside outdir to stage in, the run writes inline
    forks = _forks_here(tmp_path, monkeypatch)
    _stream(monkeypatch)
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(SINGULAR)
    out = tmp_path / "new" / "sub" / "out"

    def failing_checks(cfg, traj):
        raise NewtonDivergence("injected")

    monkeypatch.setattr(cli, "_transport_checks", failing_checks)
    assert main(["run", str(cfgp), "--output", str(out), "--quiet"]) == 3
    assert "NewtonDivergence: injected" in capsys.readouterr().err
    assert forks() == []
    _only(tmp_path)
    monkeypatch.undo()
    assert main(["run", str(cfgp), "--output", str(out), "--quiet"]) == 0
    assert csv_digest(out) == DIGESTS[SINGULAR]


def test_a_solver_failure_leaves_no_directory_and_no_writer(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    forks = _forks_here(tmp_path, monkeypatch)
    _stream(monkeypatch)
    send = writer.SnapshotWriter.__call__

    def failing_send(self, model, state):
        send(self, model, state)
        if self.count == 3:     # the writer holds the first three snapshots
            assert self.pid is not None
            raise NewtonDivergence("injected")

    monkeypatch.setattr(writer.SnapshotWriter, "__call__", failing_send)
    write = trajectory._write_snapshot

    def slow_write(*args):
        time.sleep(5)
        write(*args)

    # the writer inherits a slow formatter: the run does not wait for it
    monkeypatch.setattr(trajectory, "_write_snapshot", slow_write)
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(SINGULAR)
    t0 = time.perf_counter()
    assert main(["run", str(cfgp), "--output", str(tmp_path / "o"),
                 "--quiet"]) == 3
    assert time.perf_counter() - t0 < 4
    assert capsys.readouterr().err == \
        "solver failure: NewtonDivergence: injected\n"
    assert len(forks()) == 1
    _only(tmp_path)
    _no_child()


# the writer fails on its first snapshot, which the run finds at its next
# send, or on its last, which it finds when it waits for the writer
@pytest.mark.parametrize("failing", ["snap_000000.csv", "snap_000003.csv"],
                         ids=["first", "last"])
def test_a_failing_writer_fails_the_run_and_names_the_writer(tmp_path,
                                                             monkeypatch,
                                                             capfd, failing):
    forks = _forks_here(tmp_path, monkeypatch)
    _stream(monkeypatch)
    write = trajectory._write_snapshot

    def failing_write(path, *args):
        if path.endswith(failing):
            raise OSError("injected")
        write(path, *args)

    # the writer inherits the patched module when it forks
    monkeypatch.setattr(trajectory, "_write_snapshot", failing_write)
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(SINGULAR)
    assert main(["run", str(cfgp), "--output", str(tmp_path / "o"),
                 "--quiet"]) == 3
    err = capfd.readouterr().err
    assert "OSError: injected" in err
    assert err.splitlines()[-1].startswith(
        "snapshot writer failed: process ")
    assert err.endswith(" exited with status 1\n")
    assert len(forks()) == 1
    _only(tmp_path)
    _no_child()


def test_a_writer_whose_parent_goes_removes_its_stage(tmp_path, monkeypatch):
    # a parent killed before it joins its writer closes the pipe without
    # the end mark: the writer removes the stage and exits 1
    monkeypatch.setattr(writer, "FORMAT_COST", 0)
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(SINGULAR)
    traj = cli._run_model(load_config(str(cfgp)))
    w = writer.SnapshotWriter(str(tmp_path / "o"))
    for s in traj.snapshots[:3]:
        w(traj.model, s)
    assert os.path.isdir(w.stage)
    w._pipe.close()
    _, status = os.waitpid(w.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 1
    assert os.listdir(tmp_path) == ["c.cfg"]


def test_the_writer_forks_at_the_first_snapshot_the_solver_is_slow_to_reach(
        tmp_path, monkeypatch):
    # a snapshot formats in 1 s here; the solver reaches the snapshots
    # after t = 0 2 s, 0.5 s and 1.5 s after the one before: the first
    # interval does not count, the second is too short
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(SINGULAR)
    traj = cli._run_model(load_config(str(cfgp)))
    state = traj.snapshots[0]
    values = state.rho.size + state.u.size
    monkeypatch.setattr(writer, "_s_per_value",
                        lambda s: 1.0 / (writer.FORMAT_COST * values))
    clock = iter([0.0, 2.0, 2.5, 4.0])
    fake = types.SimpleNamespace(perf_counter=lambda: next(clock))
    monkeypatch.setattr(writer, "time", fake)
    assert len(traj.snapshots) == 4
    with writer.SnapshotWriter(str(tmp_path / "o")) as w:
        for s in traj.snapshots[:3]:
            w(traj.model, s)
        assert w.pid is None and w.stage is None
        w(traj.model, traj.snapshots[3])
        assert w.pid is not None
        staged = w.join()
        assert [os.path.basename(p) for p in staged] == [
            f"snap_{i:06d}.csv" for i in range(len(traj.snapshots))]
        inline = traj.model.write_csvs(traj, str(tmp_path))
        for p, q in zip(staged, inline):
            with open(p, "rb") as a, open(q, "rb") as b:
                assert a.read() == b.read()


def test_a_fork_that_fails_leaves_the_run_writing_inline(tmp_path,
                                                         monkeypatch):
    forks = _forks_here(tmp_path, monkeypatch)
    _stream(monkeypatch)

    def no_fork():
        raise BlockingIOError("injected")

    monkeypatch.setattr(os, "fork", no_fork)
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(SINGULAR)
    assert main(["run", str(cfgp), "--output", str(tmp_path / "o"),
                 "--quiet"]) == 0
    assert forks() == []
    assert csv_digest(tmp_path / "o") == DIGESTS[SINGULAR]
    _only(tmp_path, "o")
