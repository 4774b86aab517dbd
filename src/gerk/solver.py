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
The draws are taken up to DRAW_CHUNK iterations at a time (draw_indices): one
random_array call consumes the same counters in the same order as the scalar
draws would, and blocks.draw_blocks maps each uniform to its block.

_advance is the single implementation of the update, and _run_lockstep the
single one of whole runs.  The state arrays carry a leading batch shape:
() for one system (run, which is _run_lockstep on one system, and
gerk_step) and (T,) for T systems of one shape and method advancing in
lockstep (the experiment harness's path).  A batch stacks its matrices into
a row-major (T*m, n) array and a (T*n, m) array of columns, gathers one row
and one column per system by flat index each iteration, and forms the
products with np.vecdot, which reduces each batch row exactly as np.vdot
reduces a single vector.  A system's iterates are therefore bit-identical
alone or in any batch, while numpy's per-call overhead, the dominant cost of
an iteration, is shared among the T systems.
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


def init_state(A, b, cfg):
    """Initial state: x*_0 = 0 (so x_0 = 0) and z*_0 = b when z is enabled."""
    A, b = validate_config(A, b, cfg)
    return _initial_state(b, A.shape[1], cfg, RngStream(cfg.seed, cfg.stream))


def _initial_state(b, n, cfg, rng):
    # b carries the batch shape: (m,) for one system, (T, m) for T systems
    is_complex = np.iscomplexobj(b)
    dtype = np.complex128 if is_complex else np.float64
    shape = b.shape[:-1] + (n,)
    xstar = np.zeros(shape, dtype=dtype)
    f_upd = cfg.f.updater(shape, is_complex)
    x = xstar if f_upd is None else np.zeros(shape, dtype=dtype)
    if f_upd is not None:
        f_upd(xstar, x)
    if cfg.z_update_enabled:
        zstar = b.astype(dtype, copy=True)
        g_upd = cfg.g.updater(b.shape, is_complex)
        z = zstar if g_upd is None else np.empty_like(zstar)
        if g_upd is not None:
            g_upd(zstar, z)
    else:
        zstar = None
        z = None
    return SolverState(k=0, x=x, xstar=xstar, z=z, zstar=zstar, rng=rng)


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


class _Caches:
    """Per-run working structures; everything the hot loop touches.

    Built for the systems (As[t], bs[t], cfgs[t]).  One system has batch
    shape (); T > 1 systems have batch shape (T,) and are addressed by flat
    indices t*m + i (rows, b, t_row) and t*n + j (columns, t_col).
    """

    def __init__(self, As, bs, cfgs):
        T = len(As)
        m, n = As[0].shape
        cfg = cfgs[0]
        is_complex = np.iscomplexobj(As[0])
        self.batch = () if T == 1 else (T,)
        self.cfgs = cfgs
        # rows of conj(A): vdot(conj(A_i), x) = A_i x, and the x-step adds conj(A_i)
        self.A_rm_conj = _stacked(As, is_complex)
        self.b = np.concatenate(bs)
        self.row_off = np.arange(T) * m
        rp = cfg.row_partition
        self.row_blocks = rp.blocks
        self.row_trivial = rp.trivial
        self.t_row = np.concatenate(
            [1.0 / (c.f.conj_lipschitz * c.row_partition.block_sq_norms) for c in cfgs]
        )
        self.f_upd = cfg.f.updater(self.batch + (n,), is_complex)
        trivial = rp.trivial
        if cfg.z_update_enabled:
            # row j of A_cm is column j of A, contiguous
            self.A_cm = _stacked([A.T for A in As], False)
            self.col_off = np.arange(T) * n
            cp = cfg.col_partition
            self.col_blocks = cp.blocks
            self.col_trivial = cp.trivial
            self.t_col = np.concatenate(
                [1.0 / (c.g.grad_lipschitz * c.col_partition.block_sq_norms) for c in cfgs]
            )
            self.g_upd = cfg.g.updater(self.batch + (m,), is_complex)
            self.g_lip = cfg.g.grad_lipschitz
            trivial = trivial and cp.trivial
        if T > 1 and not trivial:
            raise ValueError("systems run in lockstep need single-index partitions")


def _advance(state, cfg, caches, steps):
    """Run `steps` iterations in place; the single implementation of the update."""
    x, xstar = state.x, state.xstar
    z, zstar = state.z, state.zstar
    batch = caches.batch
    rngs = state.rng if batch else (state.rng,)
    # both dot products conjugate their first argument; vecdot reduces each
    # batch row exactly as vdot reduces one vector
    dot = np.vecdot if batch else np.vdot
    per_iter = (lambda a: a) if batch else np.ndarray.tolist
    A_rm_conj, b = caches.A_rm_conj, caches.b
    row_blocks, row_trivial = caches.row_blocks, caches.row_trivial
    f_upd = caches.f_upd
    z_on = cfg.z_update_enabled
    if z_on:
        zstar_flat = zstar.reshape(-1)
        A_cm = caches.A_cm
        col_blocks, col_trivial = caches.col_blocks, caches.col_trivial
        g_upd, g_lip = caches.g_upd, caches.g_lip
        adaptive = cfg.z_stepsize_mode == "residual_adaptive"

    done = 0
    while done < steps:
        count = min(DRAW_CHUNK, steps - done)
        done += count
        drawn = [draw_indices(c, rng, count) for c, rng in zip(caches.cfgs, rngs)]

        def flat(k, offsets):
            # (count,) + batch indices into the stacked arrays
            if not batch:
                return drawn[0][k]
            return np.stack([d[k] for d in drawn], axis=1) + offsets

        fi = flat(1, caches.row_off)
        t_rows, b_rows = per_iter(caches.t_row[fi]), per_iter(b[fi])
        if z_on:
            fj = flat(0, caches.col_off)
            cols, t_cols = per_iter(fj), per_iter(caches.t_col[fj])
        else:
            cols, t_cols = itertools.repeat(None, count), itertools.repeat(None, count)
        for j, tc, i, tr, bi in zip(cols, t_cols, per_iter(fi), t_rows, b_rows):
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
    state.k += steps
    return state


def gerk_step(state, A, b, cfg):
    """Advance the state by exactly one iteration (two index draws when z is on)."""
    A, b = validate_config(A, b, cfg)
    return _advance(state, cfg, _Caches([A], [b], [cfg]), 1)


def _checkpoints(state, cfg, caches, m):
    """Advance to cfg.max_iterations, pausing at 0 and after every checkpoint.

    Checkpoints come every checkpoint_interval iterations (default: one
    epoch, m iterations) and at the final iterate.
    """
    interval = cfg.checkpoint_interval or m
    yield
    remaining = cfg.max_iterations
    while remaining > 0:
        chunk = min(interval, remaining)
        _advance(state, cfg, caches, chunk)
        remaining -= chunk
        yield


def run(A, b, cfg, hooks=()):
    """Run up to cfg.max_iterations iterations from the standard initial state.

    Hooks are called with the live state at iteration 0, after every
    checkpoint_interval iterations (default: one epoch, i.e. every m
    iterations), and at the final iterate.  A hook returning a truthy value
    stops the run with stop_reason "tolerance_met".  Hook callers must treat
    the state as read-only; arrays are live views, not copies.
    """
    t0 = time.perf_counter()
    (state,), stop_reason = _run_lockstep([A], [b], [cfg], [hooks])
    return SolverReport(
        state=state,
        iterations=state.k,
        wall_time=time.perf_counter() - t0,
        stop_reason=stop_reason,
    )


def _run_lockstep(As, bs, cfgs, hooks):
    """Run the systems (As[t], bs[t], cfgs[t]) in lockstep: (final states, stop reason).

    System t draws and computes exactly what it would alone, bit for bit.
    The configs may differ only in seed, stream and partition norms and
    probabilities, and with more than one system the partitions must be
    single-index.  hooks[t] is the sequence of hooks called with system t's
    state at every checkpoint, as in run; a truthy return stops every
    system, with stop reason "tolerance_met".
    """
    As, bs = zip(*(validate_config(A, b, c) for A, b, c in zip(As, bs, cfgs)))
    cfg = cfgs[0]
    m, n = As[0].shape
    rngs = tuple(RngStream(c.seed, c.stream) for c in cfgs)
    if len(As) == 1:
        state = _initial_state(bs[0], n, cfg, rngs[0])
    else:
        state = _initial_state(np.stack(bs), n, cfg, rngs)
    for _ in _checkpoints(state, cfg, _Caches(As, bs, cfgs), m):
        if len(As) == 1:
            states = [state]
        else:  # views of the batch rows
            states = [
                SolverState(state.k, state.x[t], state.xstar[t],
                            None if state.z is None else state.z[t],
                            None if state.zstar is None else state.zstar[t], rng)
                for t, rng in enumerate(rngs)
            ]
        if any(hook(s) for s, system_hooks in zip(states, hooks) for hook in system_hooks):
            return states, "tolerance_met"
    return states, "max_iterations"


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
