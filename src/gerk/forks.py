"""The one helper behind every fork of gerk: the z-chain worker of a solver
session, and the split read of a large MatrixMarket or CSV body.

Both fork only when usable(), share arrays through anonymous shared mmaps
(shared), start their children with spawn and wait for them with reap.
"""

import contextlib
import gc
import math
import mmap
import os
import signal
import threading

import numpy as np

LIVE_FDS = set()  # pipe ends the parents of live workers hold; a new child closes them


def usable():
    """Whether a fork can run on a second CPU: os.fork, no other Python
    thread (which could hold a lock across the fork), and a second CPU in
    the affinity mask."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1)


def shared(shape, dtype):
    """A zeroed array in an anonymous shared mmap, which a forked child
    shares with its parent."""
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize),
                         dtype).reshape(shape)


@contextlib.contextmanager
def _sigint_blocked():
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


def spawn(run, close=()):
    """Fork a child that runs run(), and return its pid; OSError when there
    is no fork to be had.

    The child ignores SIGINT, which waits until then so that no
    KeyboardInterrupt can reach it outside its own try.  It disables the
    garbage collector (no finalizer of the parent's objects runs in it),
    closes `close` and LIVE_FDS, and leaves by os._exit: with 0 when run()
    returns, with 1 when it raises.
    """
    with _sigint_blocked():
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
                gc.disable()
                for fd in LIVE_FDS | set(close):
                    os.close(fd)  # else older workers never see their EOF
                run()
                code = 0
            finally:
                os._exit(code)
    return pid


def reap(pid, kill=False):
    """Wait for child pid, first killing it when `kill`, and return its
    exit code (minus the signal number when a signal ended it)."""
    with _sigint_blocked():  # a KeyboardInterrupt waits for the reaping
        if kill:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)
