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
from gerk.errors import GerkError, NonFiniteIterate, WorkerDied
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


def test_worker_whose_z_chain_overflows_raises_non_finite_iterate(forks):
    # A x 1e126 and b x 1e238 more: a_j^H z overflows in the worker's z-half,
    # whose z* comes back at the chunk's end
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 4))
    b = A @ rng.standard_normal(4)
    cfg = preset("rek", 1e126 * A, max_iterations=2000, seed=0, checkpoint_interval=5)
    with pytest.raises(NonFiniteIterate, match=r"^the iterate z\* is not finite"):
        run(1e126 * A, 1e238 * b, cfg)
    assert len(forks) == 1
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


# The worker's x-chains: from the fork on, the worker also runs the x-steps
# of the presets without the z-update.  Each test forces the hand-over on
# (or off) by replacing `_x_chains_pay`, which takes them on one system only.

HANDOVER_CASES = [PRESET_NAMES, ("srk", "rek", "gerk_ad"), ("rk", "rek")]


@pytest.fixture
def hand_over(monkeypatch):
    """Force the hand-over on, also on batches of trials."""
    monkeypatch.setattr(solver, "_x_chains_pay", lambda batch: True)


def snapshot(states):
    return [(s.k, *(None if a is None else a.tobytes() for a in (s.x, s.xstar, s.z, s.zstar)))
            for s in states]


def recorded(presets, As, bs):
    """record() of a run, and the session's worker record."""
    session = Session(As, bs, presets)
    snaps = [snapshot(states) for states in session.checkpoints()]
    return snaps, [s.rng._counter for s in session.states()], session.worker_record


def in_process(presets, As, bs, steps):
    """The states of a run of `steps` iterations without the worker."""
    session = Session(As, bs, presets)
    session.advance(steps)
    return snapshot(session.states()), [s.rng._counter for s in session.states()]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("trials", [1, 3])
def test_worker_x_chains_are_bit_equal_to_in_process_runs(field, trials, forks, monkeypatch):
    # all five presets, srk+rek+gerk_ad and rk+rek; chunks of 3 split the
    # checkpoint intervals of 5
    As, bs, cfgs = systems(field, trials)
    cases = [[cfgs[name] for name in names] for names in HANDOVER_CASES]
    monkeypatch.setattr(solver, "PIPE_CHUNK", 3)
    runs = {}
    for pays in (True, False):
        monkeypatch.setattr(solver, "_x_chains_pay", lambda batch, pays=pays: pays)
        runs[pays] = [recorded(presets, As, bs) for presets in cases]
    assert [r.x_chains_at for _, _, r in runs[True]] == [0] * len(cases)
    assert [r.x_chains_at for _, _, r in runs[False]] == [None] * len(cases)
    assert all(r.stop == "last checkpoint" for pays in runs for _, _, r in runs[pays])
    assert len(forks) == 2 * len(cases)
    assert_no_child()
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: False)
    for presets, on, off in zip(cases, runs[True], runs[False]):
        alone = recorded(presets, As, bs)
        assert on[:2] == off[:2] == alone[:2]
        assert alone[2] == solver.WorkerRecord()
    assert len(forks) == 2 * len(cases)


def test_worker_takes_no_x_chains_without_a_slab_of_each_draw_group(forks, hand_over):
    # one draw group has no x-chains to give; rk, rek, srk splits the
    # presets without the z-update in two
    As, bs, cfgs = systems("real", 2)
    for names in [("rek", "gerk_bd"), ("rk", "rek", "srk")]:
        _, _, worker = recorded([cfgs[name] for name in names], As, bs)
        assert worker.forked_at == 0
        assert worker.x_chains_at is None
    assert_no_child()


def test_close_after_the_hand_over_goes_on_in_process(forks, hand_over, monkeypatch):
    As, bs, cfgs = systems("complex", 2)
    presets = [cfgs[name] for name in PRESET_NAMES]
    session = Session(As, bs, presets)
    for states in session.checkpoints():
        if states[0].k == 25:
            assert session.worker_record.x_chains_at is not None
            session.close()
            assert_no_child()
    assert session.worker_record.stop == "close"
    assert len(forks) == 1
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: False)
    assert (snapshot(session.states()), [s.rng._counter for s in session.states()]) == (
        in_process(presets, As, bs, 37))


def test_killed_worker_with_the_x_chains_raises_worker_died(forks, hand_over):
    As, bs, cfgs = systems("real", 1, iters=4000)
    session = Session(As, bs, [cfgs[name] for name in ("srk", "rek", "gerk_ad")])

    def kill(state):
        if state.k == 30:
            assert session.worker_record.x_chains_at is not None
            os.kill(forks[0], signal.SIGKILL)

    with pytest.raises(WorkerDied, match="died"):
        session.finish([(kill,), (), ()])
    assert session.worker_record.stop == "died"
    assert_no_child()


@pytest.mark.parametrize("at", [5, 25])
@pytest.mark.parametrize("error", [None, RuntimeError, KeyboardInterrupt])
def test_hooks_that_stop_or_raise_after_the_hand_over_leave_no_child(at, error, forks,
                                                                      hand_over):
    # at the first checkpoint and at a later one
    As, bs, cfgs = systems("real", 3, iters=400)
    session = Session(As, bs, [cfgs[name] for name in ("srk", "rek", "gerk_ad")])

    def hook(state):
        if state.k == at:
            if error is None:
                return True
            raise error("from a hook")

    if error is None:
        assert session.finish([(hook,)] * 9) == "tolerance_met"
    else:
        with pytest.raises(error):
            session.finish([(hook,)] * 9)
    assert session.state.k == at
    assert session.worker_record.x_chains_at == 0
    assert session.worker_record.stop == "close"
    assert len(forks) == 1
    assert_no_child()


def test_advance_after_the_hand_over_counts_on_from_the_state(forks, hand_over, monkeypatch):
    As, bs, cfgs = systems("complex", 1, iters=4000, interval=100)
    presets = [cfgs[name] for name in ("rk", "srk", "rek", "gerk_ad")]

    def run_with_advance():
        session = Session(As, bs, presets)
        snaps = []
        for states in session.checkpoints():
            snaps.append(snapshot(states))
            if states[0].k == 1000:
                session.advance(3)
        return snaps, [s.rng._counter for s in session.states()], session.worker_record

    forked, forked_draws, worker = run_with_advance()
    assert (worker.forked_at, worker.stop) == (0, "advance")
    assert worker.x_chains_at is not None
    assert_no_child()
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: False)
    alone, alone_draws, _ = run_with_advance()
    assert len(forked) == len(alone) == 41
    assert forked == alone
    assert forked_draws == alone_draws


def test_wait_rule_reaps_the_worker_with_the_x_chains(forks, hand_over, monkeypatch):
    # the hand-over at the fork, and the wait rule at 15 (as without it)
    monkeypatch.setattr(solver, "WAIT_SHARE", 0.0)
    monkeypatch.setattr(solver, "FORK_ITERATIONS", 10)
    monkeypatch.setattr(solver, "PIPE_CHUNK", 3)
    As, bs, cfgs = systems("complex", 2)
    presets = [cfgs[name] for name in ("srk", "rek", "gerk_bd")]
    session = Session(As, bs, presets)
    live = []
    for states in session.checkpoints():
        live.append((states[0].k, session._worker is not None))
    assert live[:4] == [(0, False), (5, True), (10, True), (15, False)]
    assert session.worker_record.x_chains_at is not None
    assert session.worker_record.stop == "wait rule"
    forked = recorded(presets, As, bs)
    assert len(forks) == 2
    assert_no_child()
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: False)
    assert recorded(presets, As, bs)[:2] == forked[:2]


def test_x_chains_pay_on_one_system_only(forks):
    assert solver._x_chains_pay(())
    assert not solver._x_chains_pay((3,))
    # srk, rek, gerk_ad, as experiment i runs them: one system's worker takes
    # srk's x-chain at the fork, a batch's does not
    for trials, taken in ((1, 0), (3, None)):
        As, bs, cfgs = systems("real", trials)
        _, _, worker = recorded([cfgs[name] for name in ("srk", "rek", "gerk_ad")], As, bs)
        assert (worker.forked_at, worker.x_chains_at) == (0, taken)
    assert len(forks) == 2
    assert_no_child()


def test_worker_record_of_each_stop(forks, monkeypatch):
    As, bs, cfgs = systems("real", 1, iters=400)
    report = run(As[0], bs[0], cfgs["rek"][0])
    worker = report.worker
    assert (worker.forked_at, worker.x_chains_at, worker.stop) == (0, None, "last checkpoint")
    assert worker.chunks == 80  # checkpoints every 5 iterations cut the chunks
    assert min(worker.wait_s, worker.worker_z_cpu_s, worker.parent_x_cpu_s) > 0
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: False)
    assert run(As[0], bs[0], cfgs["rek"][0]).worker == solver.WorkerRecord()
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: True)

    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    worker = run(As[0], bs[0], cfgs["rek"][0]).worker
    assert (worker.forked_at, worker.chunks, worker.stop) == (None, 0, "fork failed")
    assert len(forks) == 1
    assert_no_child()


def test_cli_experiment_with_the_x_chains_in_the_worker(tmp_path, forks, hand_over, monkeypatch):
    argv = ["experiment", "--which", "i", "--m", "40", "--n", "20", "--rank", "10",
            "--sparsity", "2", "--trials", "2", "--epochs", "6", "--checkpoint-interval", "20"]
    assert main(argv + ["--out", str(tmp_path / "worker")]) == 0
    assert len(forks) == 1
    assert_no_child()
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: False)
    assert main(argv + ["--out", str(tmp_path / "alone")]) == 0
    files = sorted(p.relative_to(tmp_path / "alone") for p in (tmp_path / "alone").rglob("*")
                   if p.is_file())
    assert files
    for f in files:
        assert (tmp_path / "worker" / f).read_bytes() == (tmp_path / "alone" / f).read_bytes()

