"""The z-chain worker: a forked child that runs the z-half of each chunk ahead.

Every test forces the worker on (or off) by replacing `_worker_pays`, so the
results do not depend on the host's CPU count.
"""

import math
import os
import signal

import numpy as np
import pytest

import gerk.solver as solver
from gerk.cli import main
from gerk.errors import GerkError, WorkerDied
from gerk.fileio import write_matrix_market, write_vector_csv
from gerk.rng import RngStream
from gerk.solver import PRESET_NAMES, Session, preset, run

KW = dict(lam=0.5, eps=0.1, tau=0.05)


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that waits on the worker for more than 60 s, rather than hang."""
    def expire(signum, frame):
        raise TimeoutError("the test waited on the worker for 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """Force the worker on, and list the pid of every worker forked."""
    pids = []

    class Counted(solver._Worker):
        def __init__(self, session):
            super().__init__(session)
            pids.append(self.pid)

    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: True)
    monkeypatch.setattr(solver, "WAIT_SHARE", math.inf)  # chunks this small wait on the pipe
    monkeypatch.setattr(solver, "_Worker", Counted)
    return pids


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def systems(field, trials, iters=37, interval=5):
    rng = RngStream(1400)
    As = [rng.gaussian_array(12 * 6, field).reshape(12, 6) for _ in range(trials)]
    bs = [rng.gaussian_array(12, field) for _ in range(trials)]
    cfgs = {name: [preset(name, A, **KW, max_iterations=iters, seed=70 + t, stream=1,
                          checkpoint_interval=interval) for t, A in enumerate(As)]
            for name in PRESET_NAMES}
    return As, bs, cfgs


def record(presets, As, bs):
    """Every checkpoint's k, x, x*, z and z* of every system, as bytes, and
    each system's draws consumed."""
    session = Session(As, bs, presets)
    snaps = []
    for states in session.checkpoints():
        snaps.append([(s.k, *(None if a is None else a.tobytes()
                              for a in (s.x, s.xstar, s.z, s.zstar))) for s in states])
    return snaps, [s.rng._counter for s in session.states()]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("trials", [1, 3])
def test_worker_runs_are_bit_equal_to_in_process_runs(field, trials, forks, monkeypatch):
    # each preset alone and all five in one session; chunks of 3 split the
    # checkpoint intervals of 5, and the last interval is 2
    As, bs, cfgs = systems(field, trials)
    cases = [[cfgs[name]] for name in PRESET_NAMES] + [[cfgs[name] for name in PRESET_NAMES]]
    monkeypatch.setattr(solver, "PIPE_CHUNK", 3)
    forked = [record(presets, As, bs) for presets in cases]
    assert len(forks) == 4  # every case with the z-update
    assert_no_child()
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: False)
    for presets, got in zip(cases, forked):
        assert record(presets, As, bs) == got
    assert len(forks) == 4


def test_worker_is_reaped_at_the_last_checkpoint(forks):
    As, bs, cfgs = systems("real", 2)
    session = Session(As, bs, cfgs["gerk_bd"])
    live = []
    for states in session.checkpoints():
        live.append(session._worker is not None)
        if states[0].k == 37:
            assert_no_child()
    assert live == [False] + [True] * 7 + [False]
    assert len(forks) == 1


def test_hook_that_stops_early_leaves_no_child(forks):
    As, bs, cfgs = systems("complex", 1, iters=400)
    report = run(As[0], bs[0], cfgs["rek"][0], hooks=(lambda state: state.k >= 20,))
    assert (report.stop_reason, report.iterations) == ("tolerance_met", 20)
    assert len(forks) == 1
    assert_no_child()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_hook_that_raises_leaves_no_child(error, forks):
    As, bs, cfgs = systems("real", 3, iters=400)
    session = Session(As, bs, [cfgs[name] for name in PRESET_NAMES])

    def hook(state):
        if state.k == 10:
            raise error("from a hook")

    with pytest.raises(error):
        session.finish([(hook,)] * 15)
    assert len(forks) == 1
    assert_no_child()
    assert session.state.k == 10  # the state stays whole at the checkpoint


def test_killed_worker_raises_worker_died(forks):
    As, bs, cfgs = systems("real", 1, iters=4000)
    session = Session(As, bs, cfgs["gerk_ad"])

    def kill(state):
        if state.k == 10:
            os.kill(forks[0], signal.SIGKILL)

    with pytest.raises(WorkerDied, match="died"):
        session.finish([(kill,)])
    assert issubclass(WorkerDied, GerkError)  # the CLI exits 1
    assert_no_child()


def test_close_goes_on_in_process(forks, monkeypatch):
    # close() reaps the worker at a checkpoint; the run then goes on
    # in-process, bit-equal to a run in-process throughout
    As, bs, cfgs = systems("complex", 2)
    session = Session(As, bs, cfgs["gerk_bd"])
    for states in session.checkpoints():
        if states[0].k == 10:
            session.close()
            assert_no_child()
    assert len(forks) == 1
    session.close()  # a second close does nothing
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: False)
    alone = Session(As, bs, cfgs["gerk_bd"])
    alone.advance(37)
    for a, b in zip(session.states(), alone.states()):
        assert a.rng._counter == b.rng._counter
        for u, v in ((a.x, b.x), (a.xstar, b.xstar), (a.zstar, b.zstar), (a.z, b.z)):
            assert np.array_equal(u, v)


def test_cli_runs_leave_no_child(tmp_path, forks):
    rng = RngStream(1410)
    A = rng.gaussian_array(30 * 10, "complex").reshape(30, 10)
    write_matrix_market(tmp_path / "A.mtx", A)
    write_vector_csv(tmp_path / "b.csv", A @ rng.gaussian_array(10, "complex"))
    assert main(["solve", "--matrix", str(tmp_path / "A.mtx"), "--rhs", str(tmp_path / "b.csv"),
                 "--preset", "gerk_bd", "--lambda", "0.5", "--eps", "0.1", "--tau", "0.05",
                 "--iterations", "300", "--out", str(tmp_path / "solve")]) == 0
    assert len(forks) == 1
    assert_no_child()
    assert main(["experiment", "--which", "ii", "--m", "20", "--n", "10", "--rank", "5",
                 "--sparsity", "2", "--trials", "2", "--epochs", "3",
                 "--out", str(tmp_path / "exp")]) == 0
    assert len(forks) == 2  # one session per trial group
    assert_no_child()


def test_failed_fork_goes_on_in_process(forks, monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    As, bs, cfgs = systems("real", 3)
    forked = record([cfgs["rek"], cfgs["gerk_bd"]], As, bs)
    monkeypatch.setattr(os, "fork", no_fork)
    assert record([cfgs["rek"], cfgs["gerk_bd"]], As, bs) == forked
    assert len(forks) == 1
    assert_no_child()


def run_with_advance(As, bs, cfgs, at, steps):
    """record() of a run whose checkpoints loop calls advance(steps) at
    iteration `at`, and whether the worker was live at each checkpoint."""
    session = Session(As, bs, cfgs)
    snaps, live = [], []
    for states in session.checkpoints():
        snaps.append([(s.k, *(a.tobytes() for a in (s.x, s.xstar, s.z, s.zstar)))
                      for s in states])
        live.append(session._worker is not None)
        if states[0].k == at:
            session.advance(steps)
    return snaps, [s.rng._counter for s in session.states()], live


def test_advance_inside_checkpoints_counts_on_from_the_state(forks, monkeypatch):
    # an advance(3) at k = 1000 moves every later checkpoint by 3, and the run
    # still ends at max_iterations; the worker's chain is then stale, so it is
    # reaped and the run goes on in-process, bit-equal to a run in-process
    As, bs, cfgs = systems("real", 1, iters=4000, interval=100)
    forked, forked_draws, live = run_with_advance(As, bs, cfgs["gerk_bd"], 1000, 3)
    assert len(forks) == 1
    assert_no_child()
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: False)
    alone, alone_draws, _ = run_with_advance(As, bs, cfgs["gerk_bd"], 1000, 3)
    ks = list(range(0, 1001, 100)) + list(range(1103, 4000, 100)) + [4000]
    assert [snap[0][0] for snap in forked] == [snap[0][0] for snap in alone] == ks
    assert forked == alone
    assert forked_draws == alone_draws == [8000]
    assert live == [False] + [True] * 10 + [False] * 30


def test_wait_rule_reaps_the_worker_past_the_horizon(forks, monkeypatch):
    # with WAIT_SHARE 0 every wait counts as too long, so the worker is
    # reaped at the first checkpoint FORK_ITERATIONS past its first chunk:
    # chunks of 3 from 0, so iteration 3 + 10 = 13, whose checkpoint is 15
    monkeypatch.setattr(solver, "WAIT_SHARE", 0.0)
    monkeypatch.setattr(solver, "FORK_ITERATIONS", 10)
    monkeypatch.setattr(solver, "PIPE_CHUNK", 3)
    As, bs, cfgs = systems("complex", 2)
    session = Session(As, bs, [cfgs["rek"], cfgs["gerk_bd"]])
    live = []
    for states in session.checkpoints():
        live.append((states[0].k, session._worker is not None))
        if states[0].k == 15:
            assert_no_child()
    assert live[:4] == [(0, False), (5, True), (10, True), (15, False)]
    assert not any(on for _, on in live[4:])
    assert len(forks) == 1
    forked = record([cfgs["rek"], cfgs["gerk_bd"]], As, bs)
    assert len(forks) == 2
    assert_no_child()
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: False)
    assert record([cfgs["rek"], cfgs["gerk_bd"]], As, bs) == forked
