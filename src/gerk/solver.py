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
The draws are taken up to DRAW_CHUNK iterations ahead (draw_indices), into
one window indexed by iteration: one random_array call per stream consumes
the same counters in the same order as the scalar draws would, and the
partition's draw maps each uniform to its block.  A chunk of the run loop
(below) that the window does not hold whole is drawn again from its first
iteration.

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
and each preset's z*_i comes from its chain's through a map from preset to
chain, one indexing call per chunk.  A preset without the z-update maps to
a slab of zeros past the chains; adding its +0.0 can only turn a w of -0.0
into +0.0, which leaves x* bit-equal because x* never holds -0.0 (it starts
at +0.0, and exact differences round to +0.0).  Potentials are values, and each
gradient kernel runs once per run of adjacent equal ones, on their
contiguous slab (a copy where the gradient is the identity): f over the
presets, g over the chains.  The kernels are elementwise, or sum each row on
its own, and every step size is the preset's own, so each preset's iterates
are again bit-identical to a run on its own.

Session._run is the one run loop, of advance() and checkpoints().  It cuts
the run into chunks of at most PIPE_CHUNK iterations that end at every
checkpoint, each sliced from the draw window, and runs each chunk in
two halves.  The z-half advances every z* chain over the chunk and records,
for each iteration, what its x-steps add to w: entry i of every z* slab,
or z*[block i] on the one-system block path.  The x-half then runs the
chunk's x-steps on those records.  As the z-update reads neither x nor f,
the z-half can run ahead: when checkpoints() drives a session with the
z-update and single-index partitions, and _worker_pays (forks.usable: a
fork, no other Python thread and a second CPU; FORK_ITERATIONS iterations
or more to run and checkpoint intervals of MIN_CHUNK or more), one child
forked by forks.spawn, the helper behind every fork of gerk (also the split
file reads of fileio), runs the z-half of each chunk while this process
runs the x-half of a chunk before.  The draws go in and the
records come out through SLOTS slots of anonymous shared mmaps, with one
pipe byte each way per chunk, and the worker's z* and z at each chunk's end
are copied into state before any hook runs.  A worker that keeps this
process waiting longer than it computes, as when another process holds its
CPU, is stopped at a checkpoint, and the chunks already drawn run on
in-process.  The x-chains of the presets without the z-update read neither
z nor the other presets.  So when the presets span both draw groups, each
one contiguous slab of presets (the experiment harness orders them so), and
_x_chains_pay says it pays for the session, the worker also takes those
x-chains, from the x and x* it inherits at the fork: it runs their x-half,
as a draw group of its own, after the z-half of each chunk, and their x and
x* come back with z* and z, while this process runs the x-half of the
presets with the z-update alone.  Whatever reaps the worker, the run goes
on in-process from state.  Both halves make the same IEEE operations
in either process, so every iterate is bit-identical with the worker and
without it.
"""

import collections
import contextlib
import functools
import itertools
import os
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import blocks, forks
from .blocks import BlockPartition
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    MissingParameter,
    NonFiniteInput,
    NonFiniteIterate,
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
from .rng import RngStream, check_seed

PRESET_NAMES = ("rk", "srk", "rek", "gerk_ad", "gerk_bd")

DRAW_CHUNK = 1024  # iterations whose block indices are drawn at once
PIPE_CHUNK = 400  # most iterations in one chunk of the z-chain worker
MIN_CHUNK = 64  # checkpoint intervals below this run in-process
FORK_ITERATIONS = 2048  # shorter runs do not pay for a fork
WAIT_SHARE = 1.0  # a worker stops once waits on it pass this share of its CPU time
SLOTS = 3  # chunks sent ahead to the worker, each in a slot of its own


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

    def __post_init__(self):
        check_seed(self.seed, self.stream)

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
class WorkerRecord:
    """What a session's z-chain worker did (_run).

    forked_at is the iteration where it forked, and x_chains_at the same
    iteration when it took the x-chains of the presets without the z-update
    (each None when it did not).  Over its chunks: the seconds this process
    waited on it, the CPU seconds of its z-halves and x-halves, and those of
    this process's x-halves.  stop says why it stopped: "last checkpoint", "wait rule",
    "close", "advance", "died" or "fork failed" (None while it runs, or
    when none forked).
    """

    forked_at: Optional[int] = None
    x_chains_at: Optional[int] = None
    chunks: int = 0
    wait_s: float = 0.0
    worker_z_cpu_s: float = 0.0
    worker_x_cpu_s: float = 0.0
    parent_x_cpu_s: float = 0.0
    stop: Optional[str] = None


@dataclass
class SolverReport:
    state: SolverState
    iterations: int
    wall_time: float
    stop_reason: str
    worker: Optional[WorkerRecord] = None


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

    A partition enters by its probabilities, the only part of it the draws
    read; the column partition only when the z-update is on.
    """
    fields = {"max_iterations": cfg.max_iterations,
              "checkpoint_interval": cfg.checkpoint_interval}
    if draws:
        fields.update(
            z_update_enabled=cfg.z_update_enabled,
            row_partition=cfg.row_partition.probabilities.tobytes(),
            col_partition=cfg.col_partition.probabilities.tobytes() if cfg.z_update_enabled else None,
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
        return None, cfg.row_partition.draw(rng.random_array(count))
    u = rng.random_array(2 * count)
    return cfg.col_partition.draw(u[0::2]), cfg.row_partition.draw(u[1::2])


def _stacked(mats, conj):
    """Row-major (T*rows, cols) stack of T matrices, conjugated when conj."""
    if len(mats) == 1:  # copies only to conjugate or to reorder
        return np.ascontiguousarray(mats[0].conj() if conj else mats[0])
    # np.concatenate would keep the layout of column-major inputs such as A.T
    rows, cols = mats[0].shape
    out = np.concatenate(mats, out=np.empty((len(mats) * rows, cols), mats[0].dtype))
    return np.conjugate(out, out=out) if conj else out


def _steps(lipschitz, partition):
    """1/(lipschitz * ||block||^2) per block; 0 on a zero block, never drawn.
    ValueError naming the axis and lipschitz where the product under- or overflows."""
    norms = partition.block_sq_norms
    with np.errstate(over="ignore", divide="ignore"):
        steps = np.divide(1.0, lipschitz * norms, out=np.zeros_like(norms), where=norms != 0)
    if not ((steps > 0) & (steps < np.inf) | (norms == 0)).all():
        raise ValueError(f"a {partition.kind} step size 1/(L ||block||^2) at L = {lipschitz:g} "
                         "is not finite and positive; rescale A or the parameters")
    return steps


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


_Slab = collections.namedtuple("_Slab", "idx first x xstar f_update")


def _slab(state, potentials, first, stop, is_complex):
    """Presets first to stop of state, their f-kernels on their own: idx
    indexes their slab along the preset axis, a lone preset without it."""
    idx = first if stop - first == 1 else slice(first, stop)
    xstar = state.xstar[idx]
    x = xstar if state.x is state.xstar else state.x[idx]
    kernels = _kernels(potentials, xstar.shape, is_complex)
    return _Slab(idx, first, x, xstar, _gradient_update(kernels, xstar, x))


def _arrays(dual, primal):
    """The dual iterate, and the primal one when it is another array."""
    return [dual] if primal is dual else [dual, primal]


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
    z*_0 = b), or the given `state` of one preset to continue.
    """

    def __init__(self, A, b, cfg, state=None):
        if isinstance(cfg, SolverConfig):
            A, b, cfg = [A], [b], [cfg]
        presets = [tuple(cfg)] if isinstance(cfg[0], SolverConfig) else [tuple(c) for c in cfg]
        if state is not None and len(presets) > 1:
            raise ValueError(f"state continues a session of one preset, not {len(presets)}")
        self.cfgs = cfgs = presets[0]
        As, bs = zip(*map(validate_config, A, b, cfgs))
        self.cfg = cfg = cfgs[0]
        m, n = self.shape = As[0].shape
        is_complex = np.iscomplexobj(As[0])
        for t, A_t in enumerate(As):
            if A_t.shape != self.shape:
                raise DimensionMismatch(f"system {t} has shape {A_t.shape}, system 0 {self.shape}")
            if np.iscomplexobj(A_t) != is_complex:
                raise FieldMismatch(f"system {t} and system 0 must both be real or both be complex")
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
        self.b = np.concatenate(bs)
        # preset p's step size on system t at [p, t*m + i], chain c's at [c, t*n + j];
        # presets share a system's partitions, so each vector is built once per
        # partition and Lipschitz constant
        steps = functools.cache(_steps)
        self.t_row = _stack([
            np.concatenate([steps(c.f.conj_lipschitz, c.row_partition) for c in p])
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
            t_cols = [np.concatenate([steps(c.g.grad_lipschitz, c.col_partition)
                                      for c in presets[p]]) for p in zp]
            keys = [(presets[p][0].g, t.tobytes()) for p, t in zip(zp, t_cols)]
            chains = list(dict.fromkeys(keys))
            for p, key in zip(zp, keys):
                self._chains[p] = chains.index(key)
            firsts = [keys.index(key) for key in chains]
            zlead = (len(chains),) if len(chains) > 1 else ()
            # the z-half records z*_i of every slab, at the row index of the
            # z-update's draw group (that of preset _zrow with two groups), and
            # the x-half maps each preset to its slab once per chunk, through
            # the chain map where presets share a chain; a preset without the
            # z-update reads a slab of zeros past the chains
            slabs = len(chains) + (len(groups) > 1)
            if slabs > 1:
                self._zmap = np.array([len(chains) if c is None else c for c in self._chains])
            self._zrow = zp[0] if len(groups) > 1 else None
            self.t_col = _stack([t_cols[k] for k in firsts])
            # the shape of the z-half's record of one iteration
            self._zshape = batch if self._zmap is None else (slabs,) + batch
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
        self._whole = _Slab(..., ..., state.x, state.xstar,  # all presets: ... selects all
                            _gradient_update(f_kernels, state.xstar, state.x))
        if fresh and self._whole.f_update is not None:
            self._whole.f_update()
        # with two draw groups, each one contiguous slab of presets, the worker
        # may take the x-chains of the presets without the z-update (_Worker):
        # (without, with), each slab's x-half a draw group of its own
        self._slabs = None
        if len(groups) == 2 and sum(a != b for a, b in zip(z_ons, z_ons[1:])) == 1:
            cut = z_ons.index(groups[1])
            spans = [(0, cut), (cut, len(presets))]
            self._slabs = tuple(_slab(state, [p[0].f for p in presets[a:z]], a, z, is_complex)
                                for a, z in (spans[::-1] if groups[0] else spans))
        self._g_update = None
        if self._zcfg is not None:
            self._g_update = _gradient_update(g_kernels, state.zstar, state.z)
            # entry i of system t's z* at [t*m + i], of every slab at [:, t*m + i]
            self._zrows = (state.zstar.reshape(-1) if self._zmap is None
                           else zbuf.reshape(slabs, -1))
            if fresh and self._g_update is not None:
                with np.errstate(over="ignore", invalid="ignore"):  # z_0 is checked below
                    self._g_update()
                for k, z0 in zip(firsts, state.z if zlead else [state.z]):
                    if not np.isfinite(z0).all():
                        raise ValueError(f"z_0 = grad g*(b) of the {keys[k][0].name} misfit "
                                         "overflows; rescale b or the misfit's parameters")
        self._rngs = state.rng if isinstance(state.rng, tuple) else (state.rng,)
        self._draws = [2 if c.z_update_enabled else 1 for c in self._draw_cfgs]  # per iteration
        self._window = (0, 0, None)  # (start, stop, _draw's arrays of iterations start to stop)
        self._worker = None  # the z-chain worker of a forked checkpoints() run
        self.worker_record = WorkerRecord()

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

    def _take(self, k, count, horizon):
        """_draw's arrays for iterations k to k + count, sliced from the draw
        window, which is redrawn from k when it does not hold them all: for
        DRAW_CHUNK iterations, none past `horizon`, and `count` at least."""
        start, stop, drawn = self._window
        if not start <= k <= k + count <= stop:
            start, stop = k, k + max(count, min(DRAW_CHUNK, horizon - k))
            drawn = self._draw(stop - start, k - self.state.k)
            self._window = start, stop, drawn
        return [None if a is None else a[k - start:k - start + count] for a in drawn]

    def advance(self, steps):
        """Run `steps` iterations in place and return the state."""
        for _ in self._run(steps, self.state.k + steps):
            pass
        return self.state

    def _run(self, interval, end, fork=False):
        """Run to iteration `end`, yielding states() after every `interval`
        iterations and at `end` (module docstring).

        With `fork` the worker, while live, runs up to SLOTS chunks ahead:
        the next chunk is sent before a checkpoint is yielded, so it runs
        through the hooks.  It is reaped at the last checkpoint, before its
        hooks run, on any exit, and by close().  It is also reaped at a
        checkpoint when, over FORK_ITERATIONS iterations or more past its
        first chunk (which fills the pipeline), this process has waited on
        it longer than WAIT_SHARE times the CPU time it spent on them:
        another process then holds its CPU, and the work costs less here.
        The horizon keeps a stall of a few ms from stopping it.  When
        advance() moved state.k while a checkpoint was yielded, the chunks
        taken ahead and the worker's chain are stale: they are dropped, and
        the next checkpoint is counted from state.k.

        A worker that took the x-chains (_Worker) runs the x-half of the
        presets without the z-update: this process runs that of the presets
        with it alone, and copies the worker's x and x* into state at each
        chunk's end.  Whatever reaps the worker, the chunks taken ahead run
        on in-process from state.  At each chunk's end, with state whole, a
        non-finite z* or x* raises NonFiniteIterate.
        """
        state = self.state
        horizon = max(end, self.cfg.max_iterations)  # draws go no further unless asked for
        k, stop = state.k, min(state.k + interval, end)  # the next chunk's start and checkpoint
        if (fork and self._zcfg is not None and self._trivial and state.k < end
                and _worker_pays(end - state.k, interval)):
            try:
                self._worker = _Worker(self)
                self.worker_record = WorkerRecord(
                    forked_at=state.k, x_chains_at=state.k if self._worker.x_chains else None)
            except OSError:  # no fork to be had: the run goes on in-process
                self.worker_record = WorkerRecord(stop="fork failed")
        record = self.worker_record
        taken = collections.deque()  # (count, cut, draws) of the chunks taken ahead
        # over the worker's chunks past its first: seconds waited on it, its
        # CPU seconds, and their iterations
        waited = spent = seen = 0

        def take():
            nonlocal k, stop
            worker = self._worker if fork else None
            while k < end and len(taken) < (1 if worker is None else SLOTS):
                count = min(PIPE_CHUNK, stop - k)
                drawn = self._take(k, count, horizon)
                if worker is not None:
                    worker.send(drawn)
                k += count
                taken.append((count, k == stop, drawn))
                if k == stop:
                    stop = min(k + interval, end)

        try:
            take()
            while taken:
                count, cut, (fj, tc, fi, tr, bi) = taken.popleft()
                worker = self._worker if fork else None
                if worker is None:
                    zvals = None if fj is None else self._z_half(fj, tc, fi, (
                        np.empty((count,) + self._zshape, self.b.dtype)
                        if self.cfg.row_partition.trivial else [None] * count))
                else:
                    t0 = time.perf_counter()
                    zvals, cpu, snaps = worker.receive()
                    wait = time.perf_counter() - t0
                    record.chunks += 1
                    record.wait_s += wait
                    record.worker_z_cpu_s += cpu[0]
                    record.worker_x_cpu_s += cpu[1]
                    if worker.received > 1:
                        waited += wait
                        spent += cpu[0] + cpu[1]
                        seen += count
                    zvals = zvals[:count]
                    for a, snap in zip(worker.live, snaps):
                        np.copyto(a, snap)
                t0 = time.thread_time()
                slab = self._slabs[1] if worker is not None and worker.x_chains else self._whole
                self._x_half(fi, tr, bi, zvals, slab)
                if worker is not None:
                    record.parent_x_cpu_s += time.thread_time() - t0
                state.k += count  # the streams count the draws of iterations run
                for rng, draws in zip(self._rngs, self._draws):
                    rng.skip(count * draws)
                for name, a in (("z*", state.zstar), ("x*", state.xstar)):
                    if a is not None and not np.isfinite(a).all():
                        raise NonFiniteIterate(f"the iterate {name} is not finite at iteration "
                                               f"{state.k}; rescale A, b or the parameters")
                if cut and worker is not None:
                    if not taken and k == end:
                        self._reap("last checkpoint")
                    elif seen >= FORK_ITERATIONS and waited > WAIT_SHARE * spent:
                        self._reap("wait rule")
                take()
                if cut:
                    at = state.k
                    yield self.states()
                    if state.k != at:
                        taken.clear()
                        self._reap("advance")
                        k, stop = state.k, min(state.k + interval, end)
                        take()
        finally:
            if fork:
                self._reap("close")

    @np.errstate(over="ignore", invalid="ignore")  # _run checks the iterates
    def _z_half(self, fj, tc, fi, out):
        """Advance z* and z over a chunk's column draws, and return `out`
        with out[k] set to what the x-steps of the chunk's iteration k add to
        w: entry i of z*, of each slab with a chain map (_x_half maps them to
        the presets), or z*[block i] on the block path.

        Reads neither x nor f, so it can run ahead of the x-half."""
        if self._zrow is not None:  # the row index of the z-update's draw group
            fi = fi[:, self._zrow]
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
                out[k] = zrows[i] if zmap is None else zrows[:, i]
        return out

    @np.errstate(over="ignore", invalid="ignore")  # _run checks the iterates
    def _x_half(self, fi, tr, bi, zvals, slab):
        """Advance x* and x of a slab over a chunk's row draws, adding zvals[k],
        the z-half's record (None without the z-update), to iteration k's w.

        The slab is _whole or one of _slabs, whose presets run as a draw group
        of their own: on its row index, which broadcasts as with one group."""
        x, xstar, f_update = slab.x, slab.xstar, slab.f_update
        fi, tr, bi = fi[:, slab.first], tr[:, slab.idx], bi[:, slab.first]
        zmap = None if self._zmap is None else self._zmap[slab.idx]
        vec = xstar.ndim > 1
        # a gathered row broadcasts over the presets
        dot = np.vecdot if vec else np.vdot
        A_rm_conj, b = self.A_rm_conj, self.b
        row_blocks, row_trivial = self.cfg.row_partition.blocks, self.cfg.row_partition.trivial
        if zvals is None:
            zvals = itertools.repeat(None)
        elif not isinstance(zvals, list):
            # each preset's z*_i from the record of its slab
            zvals = _loop(zvals if zmap is None else np.take(zvals, zmap, axis=1))
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
        z-half ahead (_run); the iterates are the same either way.  An
        advance() between two checkpoints moves the next one to
        checkpoint_interval iterations past where it leaves the state.
        """
        yield self.states()
        yield from self._run(self.cfg.checkpoint_interval or self.shape[0],
                             self.cfg.max_iterations, fork=True)

    def close(self):
        """Reap the z-chain worker, if one runs.  The state stays whole, and a
        run that checkpoints() still drives goes on in-process."""
        self._reap("close")

    def _reap(self, reason):
        worker, self._worker = self._worker, None
        if worker is not None:
            self.worker_record.stop = "died" if worker.pid is None else reason
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
    `iterations` with checkpoints every `interval`: it needs a usable fork
    (forks.usable), a run long enough to pay for the fork (about 4 ms), and
    chunks long enough to pay for their two pipe bytes (about 20 us)."""
    return iterations >= FORK_ITERATIONS and interval >= MIN_CHUNK and forks.usable()


def _x_chains_pay(batch):
    """Whether the worker of a session with _slabs should also run the
    x-chains of the presets without the z-update, given the session's trial
    batch shape: on one system only.  There the x-half costs mostly per
    call, not per preset: on the paper's experiment i (srk, rek, gerk_ad)
    the worker's z-halves take about a third of this process's x-halves,
    and with srk's x-half moved there each side is shorter than the three
    presets' x-half here.  On a batch of trials the x-half costs per system,
    and srk's over ten trials costs the worker about what the three cost
    here in lockstep: the worker would become the longer side."""
    return not batch


class _Worker:
    """A forked child that runs a session's z-half, one chunk ahead, and
    with x_chains the x-half of its presets without the z-update (_slabs and
    _x_chains_pay), from the x and x* it inherits at the fork.

    SLOTS slots of shared mmaps take turns, each holding one chunk: its draws
    (_draw's arrays; the row draws only with x_chains), its count, the CPU
    seconds of the child's z-half and x-half, the z-values of its z-half,
    and at the chunk's end its arrays of `live`: z* and z, then with
    x_chains x* and x of those presets.  Each chunk costs one pipe byte each
    way: a request, then the reply when its slot is full.  The child
    (forks.spawn) touches no file, and leaves at the EOF of its request
    pipe, or at any error, which the parent sees as the EOF of its reply
    pipe and raises as WorkerDied.
    """

    def __init__(self, session):
        state, slabs = session.state, session._slabs
        self.x_chains = slabs is not None and _x_chains_pay(session.batch)
        self.live = _arrays(state.zstar, state.z)
        if self.x_chains:
            self.live += _arrays(slabs[0].xstar, slabs[0].x)
        # zero iterations' draws give the slots their shapes and dtypes
        drawn = session._draw(0)[:5 if self.x_chains else 3]
        self.slots = [([forks.shared((PIPE_CHUNK,) + a.shape[1:], a.dtype) for a in drawn],
                       forks.shared((1,), np.int64), forks.shared((2,), np.float64),
                       forks.shared((PIPE_CHUNK,) + session._zshape, session.b.dtype),
                       [forks.shared(a.shape, a.dtype) for a in self.live])
                      for _ in range(SLOTS)]
        self.sent = self.received = 0  # chunks
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        try:
            self.pid = forks.spawn(lambda: self._serve(session, req_r, rep_w), (req_w, rep_r))
        except OSError:
            for fd in (req_r, req_w, rep_r, rep_w):
                os.close(fd)
            raise
        os.close(req_r)
        os.close(rep_w)
        self.req, self.rep = req_w, rep_r
        forks.LIVE_FDS.update((req_w, rep_r))

    def _serve(self, session, req, rep):
        while os.read(req, 1):
            drawn, count, cpu, out, snaps = self.slots[self.sent % SLOTS]
            fj, tc, fi, *rows = (a[:int(count[0])] for a in drawn)
            t0 = time.thread_time()
            session._z_half(fj, tc, fi, out)
            t1 = time.thread_time()
            if rows:
                session._x_half(fi, *rows, None, session._slabs[0])
            cpu[:] = t1 - t0, time.thread_time() - t1
            for snap, live in zip(snaps, self.live):
                np.copyto(snap, live)
            os.write(rep, b"\0")
            self.sent += 1

    def send(self, drawn):
        """Ask for the chunk with these draws (_draw's arrays)."""
        bufs, count = self.slots[self.sent % SLOTS][:2]
        for buf, a in zip(bufs, drawn):
            buf[:len(a)] = a
        count[0] = len(drawn[0])
        try:
            os.write(self.req, b"\0")
        except BrokenPipeError:
            self._died()
        self.sent += 1

    def receive(self):
        """The z-values, the CPU seconds of the z-half and the x-half, and
        the arrays of `live` at the end of the oldest chunk sent."""
        if not os.read(self.rep, 1):
            self._died()
        _, _, cpu, out, snaps = self.slots[self.received % SLOTS]
        self.received += 1
        return out, cpu.tolist(), snaps

    def _died(self):
        code, self.pid = forks.reap(self.pid), None
        raise WorkerDied(f"the z-chain worker died mid-run (exit code {code})")

    def close(self):
        """Close both pipes and reap the child, which leaves at the EOF of its
        request pipe once it has finished the chunk it may be running."""
        forks.LIVE_FDS.difference_update((self.req, self.rep))
        os.close(self.req)
        os.close(self.rep)
        if self.pid is not None:
            forks.reap(self.pid)
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
    return SolverReport(session.state, session.state.k, time.perf_counter() - t0, stop_reason,
                        session.worker_record)


def init_state(A, b, cfg):
    """Initial state: x*_0 = 0 (so x_0 = 0) and z*_0 = b when z is enabled."""
    return Session(A, b, cfg).state


def gerk_step(state, A, b, cfg):
    """Advance the state by exactly one iteration (two index draws when z is on)."""
    # a session that ends with this step draws nothing ahead
    return Session(A, b, replace(cfg, max_iterations=state.k + 1), state).advance(1)


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
