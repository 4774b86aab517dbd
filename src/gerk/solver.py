"""Randomized block Kaczmarz iterations with dual regularization.

One iteration, starting from x*_k (regularizer-dual iterate), x_k = grad
f*(x*_k), z*_k (misfit-dual iterate) and z_k = grad g*(z*_k):

    draw column block j            (skipped when the z-update is disabled)
    z*_{k+1} = z*_k - tz * A_j (A_j^H z_k),    tz = 1/(Lg* * ||A_j||^2)
    z_{k+1}  = grad g*(z*_{k+1})
    draw row block i
    w        = A_i x_k - b_i + z*_{k+1,i}      (the z* term only when enabled)
    x*_{k+1} = x*_k - tx * A_i^H w,            tx = 1/(Lf* * ||A_i||^2)
    x_{k+1}  = grad f*(x*_{k+1})

Block norms are spectral norms, so for one-index blocks tx and tz reduce to
inverse squared row/column norms.  Starting point: x*_0 = 0 and z*_0 = b.
With the z-update disabled the iteration is the sparse (elastic net) or plain
randomized Kaczmarz method; with everything quadratic it is the extended
randomized Kaczmarz method converging to the pseudoinverse solution.

Exactly one z-draw then one x-draw is consumed per iteration, in that order,
from RngStream(seed, stream), so runs with equal configs are bit-identical.
The draws are taken up to DRAW_CHUNK iterations ahead (draw_indices): one
random_array call consumes the same counters in the same order as the scalar
draws would, and blocks.draw_blocks maps each uniform to its block.

Session.advance is the single implementation of the update, and Session
the single one of whole runs; run, init_state and gerk_step wrap it.  The
state arrays carry a leading batch shape: () for one system and (T,) for T
systems of one shape and method advancing in lockstep (the experiment
harness's path).  A batch stacks its matrices into a row-major (T*m, n)
array and a (T*n, m) array of columns, gathers one row and one column per
system by flat index each iteration, and forms the products with np.vecdot,
which reduces each batch row exactly as np.vdot reduces a single vector.  A
system's iterates are therefore bit-identical alone or in any batch, while
numpy's per-call overhead, the dominant cost of an iteration, is shared
among the T systems.
"""

import itertools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import BlockPartition, column_partition, draw_blocks, row_partition
from .errors import DimensionMismatch, FieldMismatch, MissingParameter, NonFiniteInput
from .linalg import as_matrix, as_vector, spectral_norm
from .potentials import (
    ComplexElasticNet,
    ElasticNet,
    HuberQuadMisfit,
    Quadratic,
    QuadraticMisfit,
    real_inner,
)
from .rng import RngStream

PRESET_NAMES = ("rk", "srk", "rek", "gerk_ad", "gerk_bd")

DRAW_CHUNK = 1024  # iterations whose block indices are drawn at once


@dataclass
class SolverConfig:
    f: object
    g: Optional[object]
    row_partition: BlockPartition
    col_partition: Optional[BlockPartition]
    z_update_enabled: bool
    max_iterations: int
    seed: int
    stream: int = 0
    z_stepsize_mode: str = "constant"
    checkpoint_interval: Optional[int] = None


@dataclass
class SolverState:
    k: int
    x: np.ndarray
    xstar: np.ndarray
    z: Optional[np.ndarray]
    zstar: Optional[np.ndarray]
    rng: RngStream


@dataclass
class SolverReport:
    state: SolverState
    iterations: int
    wall_time: float
    stop_reason: str


def validate_config(A, b, cfg):
    A = as_matrix(A)
    b = as_vector(b)
    m, n = A.shape
    if b.size != m:
        raise DimensionMismatch(f"A has {m} rows but b has length {b.size}")
    if np.iscomplexobj(A) != np.iscomplexobj(b):
        raise FieldMismatch("A and b must both be real or both be complex")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise NonFiniteInput("A and b must hold finite values only")
    cfg.f.check_field(np.iscomplexobj(A))
    if cfg.row_partition.kind != "row" or cfg.row_partition.axis_len != m:
        raise DimensionMismatch(f"row partition must cover {m} rows")
    if cfg.z_update_enabled:
        if cfg.g is None:
            raise MissingParameter("z-update needs a misfit g")
        if cfg.col_partition is None:
            raise DimensionMismatch("z-update needs a column partition")
        if cfg.col_partition.kind != "column" or cfg.col_partition.axis_len != n:
            raise DimensionMismatch(f"column partition must cover {n} columns")
    if cfg.z_stepsize_mode not in ("constant", "residual_adaptive"):
        raise ValueError(f"unknown z_stepsize_mode {cfg.z_stepsize_mode!r}")
    if cfg.max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")
    if cfg.checkpoint_interval is not None and cfg.checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")
    return A, b


def _z_step(num, den, lip, t_const):
    """The residual-adaptive z-step num / (lip * den), elementwise over a batch.

    num = ||A_j^H z||^2 and den = ||A_j A_j^H z||^2.  Where den <= 1e-300 the
    step falls back to the constant step t_const = 1/(lip * ||A_j||^2).
    """
    ok = den > 1e-300
    return np.where(ok, num / (lip * np.where(ok, den, 1.0)), t_const)


def residual_adaptive_z_stepsize(z, A_block, grad_lipschitz, block_sq_norm=None):
    """Stepsize (1/L) * ||A_j^H z||^2 / ||A_j A_j^H z||^2 with underflow fallback.

    Falls back to the constant 1/(L * ||A_j||^2) when the denominator is
    <= 1e-300; ||A_j||^2 is computed only then when block_sq_norm is not
    given.  On one-column blocks this equals the constant stepsize up to
    roundoff (rank-one identity).
    """
    A_block = np.atleast_2d(np.asarray(A_block))
    s = A_block.conj().T @ z
    v = A_block @ s
    den = real_inner(v, v)
    if block_sq_norm is None:
        block_sq_norm = spectral_norm(A_block) ** 2 if den <= 1e-300 else np.inf
    t_const = 1.0 / (grad_lipschitz * block_sq_norm)
    return float(_z_step(real_inner(s, s), den, grad_lipschitz, t_const))


def draw_indices(cfg, rng, count):
    """Block indices of the next `count` iterations: (column blocks, row blocks).

    Consumes exactly the draws of `count` single iterations, in their order:
    a z-draw then an x-draw per iteration when the z-update is on, one x-draw
    otherwise (the column blocks are then None).
    """
    if not cfg.z_update_enabled:
        return None, draw_blocks(cfg.row_partition._cum, rng.random_array(count))
    u = rng.random_array(2 * count)
    return (draw_blocks(cfg.col_partition._cum, u[0::2]),
            draw_blocks(cfg.row_partition._cum, u[1::2]))


def _stacked(mats, conj):
    """Row-major (T*rows, cols) stack of T matrices, conjugated when conj."""
    if len(mats) == 1:  # copies only to conjugate or to reorder
        return np.ascontiguousarray(mats[0].conj() if conj else mats[0])
    out = np.concatenate(mats)
    return np.conjugate(out, out=out) if conj else out


class Session:
    """One solver run: its systems validated, cached and stepped in place.

    Session(A, b, cfg) holds one system.  Session(As, bs, cfgs), given
    sequences, holds systems of one shape and method in lockstep, addressed
    by flat indices t*m + i (rows, b, t_row) and t*n + j (columns, t_col).
    The configs may differ only in seed, stream and partition norms and
    probabilities, and with more than one system the partitions must be
    single-index.  Validation, matrix copies, step sizes and updaters are
    built once.  The session owns `state`: the initial state (x*_0 = 0, so
    x_0 = 0, and z*_0 = b), or the given `state` of one system to continue.
    """

    def __init__(self, A, b, cfg, state=None):
        if isinstance(cfg, SolverConfig):
            A, b, cfg = [A], [b], [cfg]
        As, bs = zip(*map(validate_config, A, b, cfg))
        self.cfgs = cfgs = tuple(cfg)
        self.cfg = cfg = cfgs[0]
        m, n = self.shape = As[0].shape
        is_complex = np.iscomplexobj(As[0])
        self.batch = batch = (len(As),) if len(As) > 1 else ()
        # rows of conj(A): vdot(conj(A_i), x) = A_i x, and the x-step adds conj(A_i)
        self.A_rm_conj = _stacked(As, is_complex)
        join = np.concatenate if batch else (lambda arrays: arrays[0])  # one system: as is
        self.b = join(bs)
        self.t_row = join(
            [1.0 / (c.f.conj_lipschitz * c.row_partition.block_sq_norms) for c in cfgs]
        )
        self.f_upd = cfg.f.updater(batch + (n,), is_complex)
        trivial = cfg.row_partition.trivial
        if cfg.z_update_enabled:
            # row j of A_cm is column j of A, contiguous
            self.A_cm = _stacked([A.T for A in As], False)
            self.t_col = join(
                [1.0 / (c.g.grad_lipschitz * c.col_partition.block_sq_norms) for c in cfgs]
            )
            self.g_upd = cfg.g.updater(batch + (m,), is_complex)
            trivial = trivial and cfg.col_partition.trivial
        if batch and not trivial:
            raise ValueError("systems run in lockstep need single-index partitions")

        if state is None:
            xstar = np.zeros(batch + (n,), dtype=self.A_rm_conj.dtype)
            x = xstar if self.f_upd is None else np.zeros_like(xstar)
            if self.f_upd is not None:
                self.f_upd(xstar, x)
            zstar = z = None
            if cfg.z_update_enabled:
                zstar = self.b.reshape(batch + (m,)).copy()
                z = zstar if self.g_upd is None else np.empty_like(zstar)
                if self.g_upd is not None:
                    self.g_upd(zstar, z)
            rngs = tuple(RngStream(c.seed, c.stream) for c in cfgs)
            state = SolverState(0, x, xstar, z, zstar, rngs if batch else rngs[0])
        self.state = state
        self._rngs = state.rng if batch else (state.rng,)
        self._draws = 2 if cfg.z_update_enabled else 1  # per iteration
        self._left = 0  # drawn iterations not yet run
        self._end = cfg.max_iterations  # indices are drawn past it only when asked for

    def _refill(self, wanted):
        """Draw the indices of up to DRAW_CHUNK iterations, and of `wanted` at least."""
        count = min(DRAW_CHUNK, max(wanted, self._end - self.state.k))
        drawn = [draw_indices(c, rng, count) for c, rng in zip(self.cfgs, self._rngs)]
        for rng in self._rngs:  # the streams count the draws of iterations run only
            rng.skip(-count * self._draws)
        batch = self.batch
        per_iter = (lambda a: a) if batch else np.ndarray.tolist

        def flat(k, axis_len):
            # (count,) + batch indices into the stacked arrays
            if not batch:
                return drawn[0][k]
            return np.stack([d[k] for d in drawn], axis=1) + np.arange(len(drawn)) * axis_len

        fi = flat(1, self.shape[0])
        if self.cfg.z_update_enabled:
            fj = flat(0, self.shape[1])
            cols = (per_iter(fj), per_iter(self.t_col[fj]))
        else:
            cols = (itertools.repeat(None),) * 2
        self._drawn = zip(*cols, per_iter(fi), per_iter(self.t_row[fi]), per_iter(self.b[fi]))
        self._left = count

    def advance(self, steps):
        """Run `steps` iterations in place and return the state; the single
        implementation of the update."""
        state = self.state
        x, xstar = state.x, state.xstar
        z, zstar = state.z, state.zstar
        batch = self.batch
        # both dot products conjugate their first argument; vecdot reduces each
        # batch row exactly as vdot reduces one vector
        dot = np.vecdot if batch else np.vdot
        A_rm_conj, b, f_upd = self.A_rm_conj, self.b, self.f_upd
        cfg = self.cfg
        row_blocks, row_trivial = cfg.row_partition.blocks, cfg.row_partition.trivial
        z_on = cfg.z_update_enabled
        if z_on:
            zstar_flat = zstar.reshape(-1)
            A_cm, g_upd, g_lip = self.A_cm, self.g_upd, cfg.g.grad_lipschitz
            col_blocks, col_trivial = cfg.col_partition.blocks, cfg.col_partition.trivial
            adaptive = cfg.z_stepsize_mode == "residual_adaptive"

        done = 0
        while done < steps:
            if not self._left:
                self._refill(steps - done)
            count = min(steps - done, self._left)
            self._left -= count
            done += count
            for j, tc, i, tr, bi in itertools.islice(self._drawn, count):
                if z_on:
                    if not col_trivial:  # one system only
                        Aj = A_cm[col_blocks[j]].T
                        s = Aj.conj().T @ z
                        v = Aj @ s
                        if adaptive:
                            tz = _z_step(real_inner(s, s), real_inner(v, v), g_lip, tc)
                        else:
                            tz = tc
                        zstar -= tz * v
                    elif adaptive:
                        col = A_cm[j]
                        s = dot(col, z)
                        # complex s * col, and complex products of numpy scalars,
                        # round unlike a matrix product; these forms give the
                        # values of residual_adaptive_z_stepsize alone and batched
                        v = np.matmul(col[..., None], np.reshape(s, batch + (1, 1)))[..., 0]
                        tz = _z_step(s.real * s.real + s.imag * s.imag, dot(v, v).real, g_lip, tc)
                        zstar -= (tz[:, None] if batch else tz) * v
                    else:
                        col = A_cm[j]
                        c = tc * dot(col, z)
                        zstar -= (c[:, None] if batch else c) * col
                    if g_upd is not None:
                        g_upd(zstar, z)
                if row_trivial:
                    row = A_rm_conj[i]
                    w = dot(row, x) - bi
                    if z_on:
                        w += zstar_flat[i]
                    c = tr * w
                    xstar -= (c[:, None] if batch else c) * row
                else:  # one system only
                    blk = row_blocks[i]
                    Aic = A_rm_conj[blk]
                    w = Aic.conj() @ x - b[blk]
                    if z_on:
                        w += zstar[blk]
                    xstar -= tr * (Aic.T @ w)
                if f_upd is not None:
                    f_upd(xstar, x)
            state.k += count
            for rng in self._rngs:
                rng.skip(count * self._draws)
        return state

    def states(self):
        """Per-system states: the state itself for one system, else views of its rows."""
        state = self.state
        if not self.batch:
            return [state]
        return [
            SolverState(state.k, state.x[t], state.xstar[t],
                        None if state.z is None else state.z[t],
                        None if state.zstar is None else state.zstar[t], rng)
            for t, rng in enumerate(state.rng)
        ]

    def checkpoints(self):
        """Advance to cfg.max_iterations, yielding states() now and after every checkpoint.

        Checkpoints come every checkpoint_interval iterations (default: one
        epoch, m iterations) and at the final iterate.
        """
        interval = self.cfg.checkpoint_interval or self.shape[0]
        yield self.states()
        while self.state.k < self.cfg.max_iterations:
            self.advance(min(interval, self.cfg.max_iterations - self.state.k))
            yield self.states()

    def finish(self, hooks):
        """Run every checkpoint and return the stop reason.

        hooks[t] is the sequence of hooks called with system t's state at
        every checkpoint; a truthy return stops every system, with stop
        reason "tolerance_met".  Otherwise the reason is "max_iterations".
        """
        for states in self.checkpoints():
            if any(hook(s) for s, system_hooks in zip(states, hooks) for hook in system_hooks):
                return "tolerance_met"
        return "max_iterations"


def run(A, b, cfg, hooks=()):
    """Run up to cfg.max_iterations iterations from the standard initial state.

    Hooks are called with the live state at iteration 0, after every
    checkpoint_interval iterations (default: one epoch, i.e. every m
    iterations), and at the final iterate.  A hook returning a truthy value
    stops the run with stop_reason "tolerance_met".  Hook callers must treat
    the state as read-only; arrays are live views, not copies.
    """
    t0 = time.perf_counter()
    session = Session(A, b, cfg)
    stop_reason = session.finish([hooks])
    return SolverReport(session.state, session.state.k, time.perf_counter() - t0, stop_reason)


def init_state(A, b, cfg):
    """Initial state: x*_0 = 0 (so x_0 = 0) and z*_0 = b when z is enabled."""
    return Session(A, b, cfg).state


def gerk_step(state, A, b, cfg):
    """Advance the state by exactly one iteration (two index draws when z is on)."""
    session = Session(A, b, cfg, state)
    session._end = state.k + 1  # the session ends with this step: draw nothing ahead
    return session.advance(1)


def _sparse_regularizer(lam, is_complex, name):
    if lam is None:
        raise MissingParameter(f"preset {name!r} needs lam")
    return ComplexElasticNet(lam) if is_complex else ElasticNet(lam)


def preset(
    name,
    A,
    *,
    lam=None,
    eps=None,
    tau=None,
    max_iterations,
    seed,
    stream=0,
    checkpoint_interval=None,
    z_stepsize_mode="constant",
    row_probabilities=None,
    col_probabilities=None,
):
    """Named solver configuration over single-index partitions of A.

    rk       minimum-norm Kaczmarz, no z-update
    srk      sparse (elastic net) Kaczmarz, no z-update; needs lam
    rek      extended Kaczmarz for least squares, quadratic everywhere
    gerk_ad  sparse regularizer + quadratic misfit with z-update; needs lam
    gerk_bd  sparse regularizer + huber/quadratic misfit; needs lam, eps, tau
    """
    A = as_matrix(A)
    is_complex = np.iscomplexobj(A)
    if name == "rk":
        f, g, z_on = Quadratic(), None, False
    elif name == "srk":
        f, g, z_on = _sparse_regularizer(lam, is_complex, name), None, False
    elif name == "rek":
        f, g, z_on = Quadratic(), QuadraticMisfit(), True
    elif name == "gerk_ad":
        f, g, z_on = _sparse_regularizer(lam, is_complex, name), QuadraticMisfit(), True
    elif name == "gerk_bd":
        if eps is None or tau is None:
            raise MissingParameter("preset 'gerk_bd' needs eps and tau")
        f = _sparse_regularizer(lam, is_complex, name)
        g, z_on = HuberQuadMisfit(eps, tau), True
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return SolverConfig(
        f=f,
        g=g,
        row_partition=row_partition(A, probabilities=row_probabilities),
        col_partition=column_partition(A, probabilities=col_probabilities) if z_on else None,
        z_update_enabled=z_on,
        max_iterations=max_iterations,
        seed=seed,
        stream=stream,
        z_stepsize_mode=z_stepsize_mode,
        checkpoint_interval=checkpoint_interval,
    )
