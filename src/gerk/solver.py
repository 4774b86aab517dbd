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
inverse squared row/column norms; tz is the constant column step of the
extended randomized Kaczmarz method.  Starting point: x*_0 = 0 and z*_0 = b.
The z-update runs exactly when a misfit g is given.  Without it the
iteration is the sparse (elastic net) or plain randomized Kaczmarz method;
with everything quadratic it is the extended randomized Kaczmarz method
converging to the pseudoinverse solution.

Exactly one z-draw then one x-draw is consumed per iteration, in that order,
from RngStream(seed, stream), so runs with equal configs are bit-identical.
The draws are taken up to DRAW_CHUNK iterations ahead (draw_indices): one
random_array call consumes the same counters in the same order as the scalar
draws would, and blocks.draw_blocks maps each uniform to its block.

Session's z-half and x-half (below) are the single implementation of the
update, and Session the single one of whole runs; run, init_state and
gerk_step wrap it.  The state arrays carry a leading batch shape: () for one
system and (T,) for T systems of one shape and method advancing in lockstep
(the experiment harness's path).  A batch stacks its matrices into two
row-major arrays, a (T*m, n) one of rows and a (T*n, m) one of columns,
gathers one row and one column per system by flat index each iteration, and
forms the products with np.vecdot, which reduces each batch row exactly as
np.vdot reduces a single vector.  A system's iterates are therefore bit-identical alone or in any
batch, while numpy's per-call overhead, the dominant cost of an iteration,
is shared among the T systems.

A session can also advance P presets over the same systems, as the
experiment harness does with all the presets of a trial.  The presets form at
most two draw groups, those without the z-update and those with it, and each
group draws from its own RngStream per system, as its first preset's configs
would alone: one draw per iteration without the z-update, two with it.  A
system's configs agree within a group on the z-update, partitions, seed and
stream, and across the session on max_iterations and checkpoint_interval.
One call of every numpy operation of the update is broadcast over a leading
preset axis of x and x*, (P,) + batch.  The x-step gathers each preset's row
in one indexing call, through a flat row index of shape lead + batch (the
right-hand sides and step sizes are gathered ahead, with the draws); with
one draw group the index is the group's own, batch-shaped and shared by
every preset.  The z-update reads neither x nor f, so presets with equal
misfits g and equal column steps run one z* chain: z and z* hold one slab
per distinct chain, with a leading chain axis only when there are several,
and the x-step gathers each preset's z*_i through a map from preset to
chain, in one indexing call.  A preset without the z-update maps to a slab of
zeros past the chains; adding its +0.0 can only turn a w of -0.0 into +0.0,
which leaves x* bit-equal because x* never holds -0.0 (it starts at +0.0,
and exact differences round to +0.0).  Potentials are values, and each
gradient kernel runs once per run of adjacent equal ones, on their
contiguous slab (a copy where the gradient is the identity): f over the
presets, g over the chains.  The kernels are elementwise, or sum each row on
its own, and every step size is the preset's own, so each preset's iterates
are again bit-identical to a run on its own.

Each chunk of drawn iterations runs in two halves.  The z-half advances
every z* chain over the chunk and records, for each iteration, what its
x-step adds to w: entry i of each preset's z*, or z*[block i] on the
one-system block path.  The x-half then runs the chunk's x-steps on those
records.  As the z-update reads neither x nor f, the z-half can run ahead:
when checkpoints() drives a session with the z-update and single-index
partitions, and _worker_pays (os.fork, no other Python thread, a second CPU
in the affinity mask, FORK_ITERATIONS iterations or more to run and
checkpoint intervals of MIN_CHUNK or more), one forked child, the worker,
runs the z-half of each chunk while this process runs the x-half of the
chunk before.  Chunks hold at most PIPE_CHUNK iterations and end at every
checkpoint.  The draws go in and the records come out through two slots of
an anonymous shared mmap, with one pipe byte each way per chunk, and the
worker's z* and z at each chunk's end are copied into state before any hook
runs.  A worker that keeps this process waiting longer than it computes, as
when another process holds its CPU, is stopped at a checkpoint.  Both
halves make the same IEEE operations in either process, so every iterate is
bit-identical with the worker and without it.
"""

import collections
import contextlib
import functools
import gc
import itertools
import math
import mmap
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import blocks
from .blocks import BlockPartition, draw_blocks
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    MissingParameter,
    NonFiniteInput,
    WorkerDied,
)
from .linalg import as_matrix, as_vector
from .potentials import (
    ComplexElasticNet,
    ElasticNet,
    HuberQuadMisfit,
    Quadratic,
    QuadraticMisfit,
)
from .rng import RngStream

PRESET_NAMES = ("rk", "srk", "rek", "gerk_ad", "gerk_bd")

DRAW_CHUNK = 1024  # iterations whose block indices are drawn at once
PIPE_CHUNK = 400  # most iterations in one chunk of the z-chain worker
MIN_CHUNK = 64  # checkpoint intervals below this run in-process
FORK_ITERATIONS = 2048  # shorter runs do not pay for a fork
WAIT_SHARE = 1.0  # a worker stops once waits on it pass this share of its CPU time


@dataclass
class SolverConfig:
    """One method on one system; the z-update runs when a misfit g is given."""

    f: object
    g: Optional[object]
    row_partition: BlockPartition
    col_partition: Optional[BlockPartition]
    max_iterations: int
    seed: int
    stream: int = 0
    checkpoint_interval: Optional[int] = None

    @property
    def z_update_enabled(self):
        return self.g is not None


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
    _check_config(cfg, m, n, np.iscomplexobj(A))
    return A, b


def _check_config(cfg, m, n, is_complex):
    cfg.f.check_field(is_complex)
    if cfg.row_partition.kind != "row" or cfg.row_partition.axis_len != m:
        raise DimensionMismatch(f"row partition must cover {m} rows")
    if cfg.z_update_enabled:
        if cfg.col_partition is None:
            raise DimensionMismatch("z-update needs a column partition")
        if cfg.col_partition.kind != "column" or cfg.col_partition.axis_len != n:
            raise DimensionMismatch(f"column partition must cover {n} columns")
    if cfg.max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")
    if cfg.checkpoint_interval is not None and cfg.checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")


def _shared_fields(cfg, draws=True):
    """What fixes a config's checkpoints and, with draws, its index draws, by
    field name.

    A partition enters by its cumulative probabilities, the only part of it
    the draws read; the column partition only when the z-update is on.
    """
    fields = {"max_iterations": cfg.max_iterations,
              "checkpoint_interval": cfg.checkpoint_interval}
    if draws:
        fields.update(
            z_update_enabled=cfg.z_update_enabled,
            row_partition=cfg.row_partition._cum.tobytes(),
            col_partition=cfg.col_partition._cum.tobytes() if cfg.z_update_enabled else None,
            seed=cfg.seed,
            stream=cfg.stream,
        )
    return fields


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
    # np.concatenate would keep the layout of column-major inputs such as A.T
    rows, cols = mats[0].shape
    out = np.concatenate(mats, out=np.empty((len(mats) * rows, cols), mats[0].dtype))
    return np.conjugate(out, out=out) if conj else out


def _join(arrays):
    """The one array itself, else the concatenation."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _stack(arrays):
    """The one array itself, else the arrays stacked along a new leading axis."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def _loop(a):
    """What a chunk's loop iterates over: the Python scalars of a 1-D array,
    which index and multiply faster than numpy's, else the array's rows."""
    return a.tolist() if a.ndim == 1 else a


def _kernels(potentials, shape, is_complex):
    """(slab, kernel) per run of adjacent equal potentials.

    potentials holds one potential per slab along the leading axis of
    `shape`, which has no such axis for one potential.  slab indexes a run's
    contiguous slabs, and kernel (None for the identity) takes them at once.
    """
    if len(potentials) == 1:
        return [(..., potentials[0].updater(shape, is_complex))]
    starts = [k for k, f in enumerate(potentials) if k == 0 or f != potentials[k - 1]]
    stops = starts[1:] + [len(potentials)]
    return [(slice(a, z), potentials[a].updater((z - a,) + shape[1:], is_complex))
            for a, z in zip(starts, stops)]


def _gradient_update(kernels, dual, primal):
    """A call that sets primal = grad(dual) by _kernels' runs; None when
    primal is dual.  An identity run's slabs are copied."""
    if primal is dual:
        return None
    calls = [functools.partial(np.copyto, primal[s], dual[s]) if k is None
             else functools.partial(k, dual[s], primal[s]) for s, k in kernels]
    if len(calls) == 1:
        return calls[0]

    def update():
        for call in calls:
            call()
    return update


class Session:
    """One solver run: its systems validated, cached and stepped in place.

    Session(A, b, cfg) holds one system.  Session(As, bs, cfgs), given
    sequences, holds systems of one shape and method in lockstep, addressed
    by flat indices t*m + i (rows, b) and t*n + j (columns).  The configs
    may differ only in seed, stream and partition norms and probabilities,
    and with more than one system the partitions must be single-index.

    Session(As, bs, presets), given a sequence of such config sequences
    (presets[p][t] runs preset p on system t), advances the presets over the
    same systems in one loop, as the module docstring describes.  A system's
    configs must agree on the fields of _shared_fields, all of them within a
    draw group and the checkpoint fields across groups, or ValueError names
    the one that differs; f, g and the step sizes are each preset's own, and
    a preset's configs must share f and g across systems.

    Validation, matrix copies, step sizes and updaters are built once.  The
    session owns `state`: the initial state (x*_0 = 0, so x_0 = 0, and
    z*_0 = b), or the given `state` of one system to continue.
    """

    def __init__(self, A, b, cfg, state=None):
        if isinstance(cfg, SolverConfig):
            A, b, cfg = [A], [b], [cfg]
        presets = [tuple(cfg)] if isinstance(cfg[0], SolverConfig) else [tuple(c) for c in cfg]
        self.cfgs = cfgs = presets[0]
        As, bs = zip(*map(validate_config, A, b, cfgs))
        self.cfg = cfg = cfgs[0]
        m, n = self.shape = As[0].shape
        is_complex = np.iscomplexobj(As[0])
        # draw groups, in order of first use: the presets without the z-update
        # and those with it, each drawing as its first preset's configs do
        z_ons = [p[0].z_update_enabled for p in presets]
        self._groups = groups = list(dict.fromkeys(z_ons))
        self._group = [groups.index(z_on) for z_on in z_ons]
        for other, z_on in zip(presets, z_ons):
            if len(other) != len(cfgs):
                raise ValueError("every preset of a session needs one config per system")
            for c, c0, first in zip(other, presets[z_ons.index(z_on)], cfgs):
                _check_config(c, m, n, is_complex)
                for ref, draws in ((c0, True), (first, False)):
                    shared = _shared_fields(ref, draws)
                    for name, value in _shared_fields(c, draws).items():
                        if value != shared[name]:
                            raise ValueError(f"the presets of a session must share {name}")
                # a preset runs as its first config's f and g, also the worker
                for name in ("f", "g"):
                    if getattr(c, name) != getattr(other[0], name):
                        raise ValueError(f"the configs of a preset must share {name}")
        self._draw_cfgs = [c for z_on in groups for c in presets[z_ons.index(z_on)]]
        self.lead = lead = (len(presets),) if len(presets) > 1 else ()
        self.batch = batch = (len(As),) if len(As) > 1 else ()
        # rows of conj(A): vdot(conj(A_i), x) = A_i x, and the x-step adds conj(A_i)
        self.A_rm_conj = _stacked(As, is_complex)
        self.b = _join(bs)
        # preset p's step size on system t at [p, t*m + i], chain c's at [c, t*n + j]
        self.t_row = _stack([
            _join([1.0 / (c.f.conj_lipschitz * c.row_partition.block_sq_norms) for c in p])
            for p in presets])
        # with two draw groups each preset gathers its own rows: its step sizes
        # sit at p*T*m past the flat row index
        self._t_off = np.arange(len(presets)).reshape(lead + (1,) * len(batch)) * len(self.b)
        f_kernels = _kernels([p[0].f for p in presets], lead + batch + (n,), is_complex)
        trivial = cfg.row_partition.trivial
        # preset p runs z* chain _chains[p] (None without the z-update); chain
        # c's z* on system t is at [c, t*m + i], with no chain axis for one chain
        self._chains, self._zmap, self._zcfg, zlead = [None] * len(presets), None, None, ()
        if True in groups:
            zp = [p for p, z_on in enumerate(z_ons) if z_on]
            self._zcfg = presets[zp[0]][0]
            # row j of A_cm is column j of A, contiguous
            self.A_cm = _stacked([A.T for A in As], False)
            # the z-update reads neither x nor f: presets of one misfit and one
            # column step run one z* chain, held once
            t_cols = [_join([1.0 / (c.g.grad_lipschitz * c.col_partition.block_sq_norms)
                             for c in presets[p]]) for p in zp]
            keys = [(presets[p][0].g, t.tobytes()) for p, t in zip(zp, t_cols)]
            chains = list(dict.fromkeys(keys))
            for p, key in zip(zp, keys):
                self._chains[p] = chains.index(key)
            firsts = [keys.index(key) for key in chains]
            zlead = (len(chains),) if len(chains) > 1 else ()
            # the x-step gathers every preset's z*_i at once, through the chain
            # map where presets share a chain, and a preset without the
            # z-update reads a slab of zeros past the chains
            slabs = len(chains) + (len(groups) > 1)
            if slabs > 1:
                self._zmap = np.reshape([len(chains) if c is None else c for c in self._chains],
                                        lead + (1,) * len(batch))
            self.t_col = _stack([t_cols[k] for k in firsts])
            # the shape of what the x-step adds to w: each preset's z*_i
            self._zshape = batch if self._zmap is None else lead + batch
            g_kernels = _kernels([keys[k][0] for k in firsts], zlead + batch + (m,), is_complex)
            trivial = trivial and self._zcfg.col_partition.trivial
        if (lead or batch) and not trivial:
            raise ValueError("systems run in lockstep need single-index partitions")
        self._trivial = trivial

        fresh = state is None
        if fresh:
            xstar = np.zeros(lead + batch + (n,), dtype=self.A_rm_conj.dtype)
            x = xstar if all(k is None for _, k in f_kernels) else np.empty_like(xstar)
            zstar = z = None
            if self._zcfg is not None:
                zbuf = np.zeros((slabs,) + batch + (m,), self.b.dtype)
                zbuf[:len(chains)] = self.b.reshape(batch + (m,))
                zstar = zbuf[:len(chains)] if zlead else zbuf[0]
                z = zstar if all(k is None for _, k in g_kernels) else np.empty_like(zstar)
            rngs = tuple(RngStream(c.seed, c.stream) for c in self._draw_cfgs)
            state = SolverState(0, x, xstar, z, zstar, rngs if len(rngs) > 1 else rngs[0])
        self.state = state
        self._f_update = _gradient_update(f_kernels, state.xstar, state.x)
        self._g_update = None
        if self._zcfg is not None:
            self._g_update = _gradient_update(g_kernels, state.zstar, state.z)
            # entry i of system t's z* at [t*m + i], of every slab at [:, t*m + i]
            self._zrows = (state.zstar.reshape(-1) if self._zmap is None
                           else zbuf.reshape(slabs, -1))
        if fresh:
            for update in (self._f_update, self._g_update):
                if update is not None:
                    update()
        self._rngs = state.rng if isinstance(state.rng, tuple) else (state.rng,)
        self._draws = [2 if c.z_update_enabled else 1 for c in self._draw_cfgs]  # per iteration
        self._left = 0  # drawn iterations not yet run
        self._end = cfg.max_iterations  # indices are drawn past it only when asked for
        self._worker = None  # the z-chain worker of a forked checkpoints() run

    def _draw(self, count, ahead=0):
        """Block indices, step sizes and b_i of `count` iterations, starting
        `ahead` iterations past state.k: (fj, tc, fi, tr, bi), each with a
        leading (count,) axis; fj and tc are None without the z-update."""
        for rng, draws in zip(self._rngs, self._draws):
            rng.skip(ahead * draws)
        drawn = [draw_indices(c, rng, count) for c, rng in zip(self._draw_cfgs, self._rngs)]
        for rng, draws in zip(self._rngs, self._draws):
            rng.skip(-(ahead + count) * draws)  # the streams count the draws of iterations run only
        batch, systems = self.batch, len(self.cfgs)

        def flat(group, k, axis_len):
            # the group's (count,) + batch indices into the stacked arrays
            own = drawn[group * systems:(group + 1) * systems]
            if not batch:
                return own[0][k]
            return np.stack([d[k] for d in own], axis=1) + np.arange(systems) * axis_len

        def steps(t, f):
            # (count,) + lead + batch step sizes, lead being t's own
            return np.moveaxis(t[..., f], t.ndim - 1, 0)

        fis = [flat(group, 1, self.shape[0]) for group in range(len(self._groups))]
        if len(self._groups) == 1:
            fi, tr = fis[0], steps(self.t_row, fis[0])
        else:  # each preset's row index: (count,) + lead + batch
            fi = np.stack([fis[group] for group in self._group], axis=1)
            tr = self.t_row.reshape(-1)[fi + self._t_off]
        fj = tc = None
        if self._zcfg is not None:
            fj = flat(self._groups.index(True), 0, self.shape[1])
            tc = steps(self.t_col, fj)
        return fj, tc, fi, tr, self.b[fi]

    def _refill(self, wanted):
        """Draw the indices of up to DRAW_CHUNK iterations, and of `wanted` at least."""
        count = min(DRAW_CHUNK, max(wanted, self._end - self.state.k))
        self._drawn, self._pos, self._left = self._draw(count), 0, count

    def _ran(self, count):
        """Count `count` iterations as run, and their draws as consumed."""
        self.state.k += count
        for rng, draws in zip(self._rngs, self._draws):
            rng.skip(count * draws)

    def advance(self, steps):
        """Run `steps` iterations in place and return the state; the single
        implementation of the update, the z-half then the x-half of each
        drawn chunk."""
        done = 0
        while done < steps:
            if not self._left:
                self._refill(steps - done)
            count = min(steps - done, self._left)
            fj, tc, fi, tr, bi = [None if a is None else a[self._pos:self._pos + count]
                                  for a in self._drawn]
            self._pos += count
            self._left -= count
            zvals = None
            if fj is not None:
                out = (np.empty((count,) + self._zshape, self.b.dtype)
                       if self.cfg.row_partition.trivial else [None] * count)
                zvals = self._z_half(fj, tc, fi, out)
            self._x_half(fi, tr, bi, zvals)
            self._ran(count)
            done += count
        return self.state

    def _z_half(self, fj, tc, fi, out):
        """Advance z* and z over a chunk's column draws, and return `out`
        with out[k] set to what the x-step of the chunk's iteration k adds to
        w: entry i of each preset's z*, or z*[block i] on the block path.

        Reads neither x nor f, so it can run ahead of the x-half."""
        zstar, z = self.state.zstar, self.state.z
        zvec = zstar.ndim > 1
        # vdot and vecdot conjugate their first argument; vecdot reduces each
        # row exactly as vdot reduces one vector
        zdot = np.vecdot if zvec else np.vdot
        A_cm, g_update, zmap, zrows = self.A_cm, self._g_update, self._zmap, self._zrows
        col_blocks, col_trivial = self._zcfg.col_partition.blocks, self._zcfg.col_partition.trivial
        row_blocks, row_trivial = self.cfg.row_partition.blocks, self.cfg.row_partition.trivial
        for k, j, tc, i in zip(itertools.count(), _loop(fj), _loop(tc), _loop(fi)):
            if not col_trivial:  # one system only
                Aj = A_cm[col_blocks[j]].T
                zstar -= tc * (Aj @ (Aj.conj().T @ z))
            else:
                col = A_cm[j]
                c = tc * zdot(col, z)
                zstar -= (c[..., None] if zvec else c) * col
            if g_update is not None:
                g_update()
            if not row_trivial:  # one system only
                out[k] = zstar[row_blocks[i]]
            else:
                out[k] = zrows[i] if zmap is None else zrows[zmap, i]
        return out

    def _x_half(self, fi, tr, bi, zvals):
        """Advance x* and x over a chunk's row draws, adding zvals[k], the
        z-half's record (None without the z-update), to iteration k's w."""
        state = self.state
        x, xstar = state.x, state.xstar
        vec = xstar.ndim > 1
        # a gathered row broadcasts over the presets
        dot = np.vecdot if vec else np.vdot
        A_rm_conj, b, f_update = self.A_rm_conj, self.b, self._f_update
        row_blocks, row_trivial = self.cfg.row_partition.blocks, self.cfg.row_partition.trivial
        if zvals is None:
            zvals = itertools.repeat(None)
        elif not isinstance(zvals, list):
            zvals = _loop(zvals)
        for i, tr, bi, zv in zip(_loop(fi), _loop(tr), _loop(bi), zvals):
            if row_trivial:
                row = A_rm_conj[i]
                w = dot(row, x) - bi
                if zv is not None:
                    w += zv
                c = tr * w
                xstar -= (c[..., None] if vec else c) * row
            else:  # one system only
                blk = row_blocks[i]
                Aic = A_rm_conj[blk]
                w = Aic.conj() @ x - b[blk]
                if zv is not None:
                    w += zv
                xstar -= tr * (Aic.T @ w)
            if f_update is not None:
                f_update()

    def states(self):
        """Per-system states: the state itself for one system, else views of
        its rows, preset by preset (system t of preset p is entry p*T + t)."""
        state = self.state
        if not (self.lead or self.batch):
            return [state]

        def rows(a):
            return None if a is None else a.reshape(-1, a.shape[-1])

        x, xstar, z, zstar = map(rows, (state.x, state.xstar, state.z, state.zstar))
        systems = len(self.cfgs)
        # system t of preset p reads z* of the preset's chain c at c*T + t, and
        # its draw group's stream
        zs = [None if c is None else c * systems + t for c in self._chains for t in range(systems)]
        return [
            SolverState(state.k, x[s], xstar[s], None if zs[s] is None else z[zs[s]],
                        None if zs[s] is None else zstar[zs[s]],
                        self._rngs[self._group[s // systems] * systems + s % systems])
            for s in range(len(x))
        ]

    def checkpoints(self):
        """Advance to cfg.max_iterations, yielding states() now and after every checkpoint.

        Checkpoints come every checkpoint_interval iterations (default: one
        epoch, m iterations) and at the final iterate.  With the z-update and
        single-index partitions, when _worker_pays, a forked worker runs the
        z-half one chunk ahead; the iterates are the same either way.
        """
        interval = self.cfg.checkpoint_interval or self.shape[0]
        end = self.cfg.max_iterations
        yield self.states()
        if (self._zcfg is not None and self._trivial and self.state.k < end
                and _worker_pays(end - self.state.k, interval)):
            yield from self._forked(interval)
        while self.state.k < end:  # in-process, also after close() stopped the worker
            self.advance(min(interval, end - self.state.k))
            yield self.states()

    def _forked(self, interval):
        """checkpoints() past the first, with the z-half of each chunk run by a
        forked worker while this process runs the x-half of the chunk before.

        Chunks hold at most PIPE_CHUNK iterations and end at every checkpoint.
        The worker's z* and z at the end of each chunk are copied into state
        before the x-half of the chunk is counted as run, so the state is
        whole between chunks.  The worker is reaped at the last checkpoint,
        before its hooks run, on any exit, and by close(); after close() the
        run goes on in-process.  It is also reaped at a checkpoint when, over
        FORK_ITERATIONS iterations or more past the first chunk (which fills
        the pipeline), this process has waited on it longer than WAIT_SHARE
        times the CPU time it spent on their z-halves: another process then
        holds its CPU, and the z-half costs less here.  The horizon keeps a
        stall of a few ms from stopping it.
        """
        k, end, chunks = self.state.k, self.cfg.max_iterations, []  # (count, ends a checkpoint)
        while k < end:
            stop = min(k + interval, end)
            while k < stop:
                count = min(PIPE_CHUNK, stop - k)
                k += count
                chunks.append((count, k == stop))
        self._left = 0  # drop what advance drew ahead: the draws restart from the counters
        try:
            worker = self._worker = _Worker(self)
        except OSError:  # no fork to be had: the run goes on in-process
            return
        pending = collections.deque()  # (fi, tr, bi) of the chunks sent

        def send(count):
            fj, tc, fi, tr, bi = self._draw(count, sum(len(p[0]) for p in pending))
            worker.send(fj, tc, fi)
            pending.append((fi, tr, bi))

        try:
            for count, _ in chunks[:2]:
                send(count)
            # over the chunks past the first: seconds waited on the worker, its
            # CPU seconds, and their iterations
            waited = spent = seen = 0
            for n, (count, cut) in enumerate(chunks):
                t0 = time.perf_counter()
                zvals, cpu, snaps = worker.receive()
                if n:
                    waited += time.perf_counter() - t0
                    spent += cpu
                    seen += count
                self._x_half(*pending.popleft(), zvals[:count])
                for live, snap in zip((self.state.zstar, self.state.z), snaps):
                    np.copyto(live, snap)
                self._ran(count)
                if n + 2 < len(chunks):
                    send(chunks[n + 2][0])
                if cut:
                    if n + 1 == len(chunks) or (seen >= FORK_ITERATIONS
                                                and waited > WAIT_SHARE * spent):
                        self.close()
                    yield self.states()
                    if self._worker is not worker:
                        return
        finally:
            if self._worker is worker:
                self.close()

    def close(self):
        """Reap the z-chain worker, if one runs.  The state stays whole, and a
        run that checkpoints() still drives goes on in-process."""
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.close()

    def finish(self, hooks):
        """Run every checkpoint and return the stop reason.

        hooks[s] is the sequence of hooks called with states()[s] at every
        checkpoint; a truthy return stops every system, with stop reason
        "tolerance_met".  Otherwise the reason is "max_iterations".  The
        z-chain worker, if one ran, is reaped on return and on any exception.
        """
        with contextlib.closing(self.checkpoints()) as checkpoints:
            for states in checkpoints:
                if any(hook(s) for s, system_hooks in zip(states, hooks)
                       for hook in system_hooks):
                    return "tolerance_met"
        return "max_iterations"


def _worker_pays(iterations, interval):
    """Whether a forked z-chain worker pays for itself over a run of
    `iterations` with checkpoints every `interval`: it needs os.fork, no
    other Python thread (which could hold a lock across the fork), a second
    CPU to run on, a run long enough to pay for the fork (about 4 ms), and
    chunks long enough to pay for their two pipe bytes (about 20 us)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1
            and iterations >= FORK_ITERATIONS and interval >= MIN_CHUNK)


def _shared(shape, dtype):
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


_WORKER_FDS = set()  # pipe ends the live workers' parents hold; a new worker closes them


class _Worker:
    """A forked child that runs a session's z-half, one chunk ahead.

    Two slots of shared mmaps alternate, each holding one chunk: its column
    indices and steps, its row indices, its count, the CPU seconds and the
    z-values of the child's z-half, and the child's z* and z at the chunk's
    end.  Each chunk costs one pipe byte each way: a request, then the reply
    when its slot is full.  The child ignores SIGINT, touches no file, and
    leaves with os._exit at the EOF of its request pipe, or at any error,
    which the parent sees as the EOF of its reply pipe and raises as
    WorkerDied.
    """

    def __init__(self, session):
        fj, tc, fi, _, _ = session._draw(1)
        state = session.state
        live = [state.zstar] + ([] if state.z is state.zstar else [state.z])
        self.slots = [[_shared((PIPE_CHUNK,) + a.shape[1:], a.dtype) for a in (fj, tc, fi)]
                      + [_shared((1,), np.int64), _shared((1,), np.float64),
                         _shared((PIPE_CHUNK,) + session._zshape, session.b.dtype)]
                      + [_shared(a.shape, a.dtype) for a in live] for _ in range(2)]
        self.sent = self.received = 0  # chunks
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        # SIGINT waits until the child has set it to ignored, so that no
        # KeyboardInterrupt can reach the child outside its own try
        with _sigint_blocked():
            try:
                self.pid = os.fork()
            except OSError:
                for fd in (req_r, req_w, rep_r, rep_w):
                    os.close(fd)
                raise
            if self.pid == 0:
                code = 1
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
                    gc.disable()  # no finalizer of the parent's objects runs here
                    for fd in _WORKER_FDS | {req_w, rep_r}:
                        os.close(fd)  # else older workers never see their EOF
                    self._serve(session, req_r, rep_w)
                    code = 0
                finally:
                    os._exit(code)
        os.close(req_r)
        os.close(rep_w)
        self.req, self.rep = req_w, rep_r
        _WORKER_FDS.update((req_w, rep_r))

    def _serve(self, session, req, rep):
        state = session.state
        while os.read(req, 1):
            fj, tc, fi, count, cpu, out, *snaps = self.slots[self.sent % 2]
            n = int(count[0])
            t0 = time.thread_time()
            session._z_half(fj[:n], tc[:n], fi[:n], out)
            cpu[0] = time.thread_time() - t0
            for snap, live in zip(snaps, (state.zstar, state.z)):
                np.copyto(snap, live)
            os.write(rep, b"\0")
            self.sent += 1

    def send(self, fj, tc, fi):
        """Ask for the z-half of the chunk with these draws."""
        slot = self.slots[self.sent % 2]
        for buf, a in zip(slot, (fj, tc, fi)):
            buf[:len(a)] = a
        slot[3][0] = len(fj)
        try:
            os.write(self.req, b"\0")
        except BrokenPipeError:
            self._died()
        self.sent += 1

    def receive(self):
        """The z-values, the CPU seconds of the z-half and the final z* (and
        z) of the oldest chunk sent."""
        if not os.read(self.rep, 1):
            self._died()
        _, _, _, _, cpu, out, *snaps = self.slots[self.received % 2]
        self.received += 1
        return out, float(cpu[0]), snaps

    def _died(self):
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        raise WorkerDied("the z-chain worker died mid-run "
                         f"(exit code {os.waitstatus_to_exitcode(status)})")

    def close(self):
        """Close both pipes and reap the child, which leaves at the EOF of its
        request pipe once it has finished the chunk it may be running."""
        _WORKER_FDS.difference_update((self.req, self.rep))
        os.close(self.req)
        os.close(self.rep)
        if self.pid is not None:
            with _sigint_blocked():  # a KeyboardInterrupt waits for the reaping
                os.waitpid(self.pid, 0)
            self.pid = None


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
    row_partition=None,
    col_partition=None,
):
    """Named solver configuration, by default over single-index partitions of A.

    row_partition and col_partition, when given, replace the default
    partitions; passing the same ones to several presets builds their block
    norms once.  The presets with a misfit g run the z-update.

    rk       minimum-norm Kaczmarz, no z-update
    srk      sparse (elastic net) Kaczmarz, no z-update; needs lam
    rek      extended Kaczmarz for least squares, quadratic everywhere
    gerk_ad  sparse regularizer + quadratic misfit with z-update; needs lam
    gerk_bd  sparse regularizer + huber/quadratic misfit; needs lam, eps, tau
    """
    A = as_matrix(A)
    is_complex = np.iscomplexobj(A)
    if name == "rk":
        f, g = Quadratic(), None
    elif name == "srk":
        f, g = _sparse_regularizer(lam, is_complex, name), None
    elif name == "rek":
        f, g = Quadratic(), QuadraticMisfit()
    elif name == "gerk_ad":
        f, g = _sparse_regularizer(lam, is_complex, name), QuadraticMisfit()
    elif name == "gerk_bd":
        if eps is None or tau is None:
            raise MissingParameter("preset 'gerk_bd' needs eps and tau")
        f, g = _sparse_regularizer(lam, is_complex, name), HuberQuadMisfit(eps, tau)
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if row_partition is None:
        row_partition = blocks.row_partition(A)
    if g is not None and col_partition is None:
        col_partition = blocks.column_partition(A)
    return SolverConfig(
        f=f,
        g=g,
        row_partition=row_partition,
        col_partition=None if g is None else col_partition,
        max_iterations=max_iterations,
        seed=seed,
        stream=stream,
        checkpoint_interval=checkpoint_interval,
    )
