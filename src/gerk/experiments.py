"""Reproducible experiment harness: instance generators, trials, aggregation.

Two instance families over a rank-deficient A = U diag(sv) V^H with
`sparsity` planted nonzeros in x_hat and b_hat = A x_hat:

    experiment i   b = b_hat + noise in null(A^H), norm noise_level*||b_hat||
                   (direction uniform on the sphere), so the least-squares
                   residual is pure nullspace noise
    experiment ii  b = b_hat + impulsive noise: ceil(n/20) entries, drawn
                   without replacement from the m rows, each +-1 (complex:
                   (s+it)/sqrt(2)) times noise_level*||b_hat||_inf

Trial t of a run uses seed base_seed + t: stream 0 generates the instance,
stream 1 drives the solver, so repeated invocations are bit-identical and
trials never share draws.  The trials of a group and all their presets run in
one solver session, in lockstep.  The presets without the z-update (rk, srk)
share each trial's index draws, and so do those with it (rek, gerk_ad,
gerk_bd); rek and gerk_ad, both of the quadratic misfit, run one z* chain.
The session lays the presets out by its own rule (solver module docstring)
and hands their states back in the order given.  This changes no value: each
preset on each trial is bit-identical to a run on its own.  The quadratic presets' z_error
target b - P_range(A) b comes from the instance (ProblemInstance.z_target).
Both families take null(A^H) and P_range(A) from the orthonormal factor U
that builds A (U diag(sv) V^H), so generating an instance and its target
takes QR factorizations and no SVD.  Metrics are recorded
every checkpoint_interval iterations and aggregated across trials into
min/q25/median/q75/max bands.
"""

import functools
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fileio import BAND_CSV_VERSION, SPARSITY_CSV_VERSION, write_csv
from .linalg import draw_off_span, project_onto, rank_deficient_with_range
from .oracles import range_projection_quadratic
from .potentials import QuadraticMisfit, checked_nonneg
from .rng import RngStream
from .solver import Session, preset

METRIC_NAMES = (
    "rel_residual",
    "rel_grad_quadratic",
    "rel_grad_misfit",
    "rel_error",
    "z_error",
    "sparsity",
)

SPARSITY_TOL = 1e-5

# cap on the stacked matrix copies one lockstep group of trials holds
GROUP_BYTES = 32 * 2**20


@dataclass
class ProblemInstance:
    A: np.ndarray
    b: np.ndarray
    b_hat: np.ndarray
    x_hat: Optional[np.ndarray]  # None for a user system without ground truth
    field: str
    noise_kind: str
    noise_level: float
    b_range: Optional[np.ndarray] = None  # P_range(A) b; see z_target

    def z_target(self):
        """b - P_range(A) b, the limit of z* under the quadratic misfit.

        P_range(A) b is kept in b_range: set by the generators from the
        factor that builds A, else computed by the oracle on first use.
        """
        if self.b_range is None:
            self.b_range = range_projection_quadratic(self.A, self.b).value
        return self.b - self.b_range

    @functools.cached_property
    @np.errstate(over="ignore")
    def norms(self):
        """(||b_hat||, ||b||, ||x_hat||) by _norm, taken on first use and shared
        by every recorder of the instance; ||x_hat|| is None without x_hat."""
        return (_norm(self.b_hat), _norm(self.b),
                None if self.x_hat is None else _norm(self.x_hat))


@dataclass
class MetricTrace:
    checkpoints: np.ndarray
    metrics: dict


@dataclass
class AggregateBand:
    checkpoints: np.ndarray
    min: np.ndarray
    q25: np.ndarray
    median: np.ndarray
    q75: np.ndarray
    max: np.ndarray


@dataclass
class PresetSpec:
    name: str
    lam: Optional[float] = None
    eps: Optional[float] = None
    tau: Optional[float] = None


@dataclass
class ExperimentResult:
    preset_labels: list
    bands: dict  # label -> metric name -> AggregateBand
    final_sparsity: dict  # label -> int array over trials
    final_rel_error: dict  # label -> float array over trials
    traces: dict  # label -> MetricTrace per trial, in trial order
    final_x: dict  # label -> final iterate per trial, in trial order


def _planted_instance(m, n, rank, sparsity, sv_lo, sv_hi, field, rng):
    if not 1 <= sparsity <= n:
        # x_hat = 0 would leave the relative metrics without a scale
        raise ValueError(f"sparsity must be between 1 and n = {n}, got {sparsity}")
    A, U = rank_deficient_with_range(m, n, rank, sv_lo, sv_hi, field, rng)
    support = rng.choice_without_replacement(n, sparsity)
    x_hat = np.zeros(n, dtype=A.dtype)
    x_hat[support] = rng.gaussian_array(sparsity, field)
    return A, U, x_hat, A @ x_hat


def _finite_noise(value, noise_level):
    """value, unless the noise it holds overflowed: ValueError naming noise_level."""
    if not np.isfinite(value).all():
        raise ValueError(f"noise_level = {noise_level:g} makes the noise overflow; lower it")
    return value


def gen_experiment_i(m, n, rank, sparsity, noise_level, sv_lo, sv_hi, field, rng):
    """Sparse ground truth plus nullspace noise of norm noise_level*||b_hat||.

    The noise is drawn off the span of the factor U that builds A, and
    b_range = U (U^H b) is P_range(A) b; it equals the oracle's projection,
    from the thin SVD, to rounding.
    """
    noise_level = checked_nonneg(noise_level, "noise_level")
    A, U, x_hat, b_hat = _planted_instance(m, n, rank, sparsity, sv_lo, sv_hi, field, rng)
    b = b_hat.copy()
    if noise_level != 0.0:
        with np.errstate(over="ignore"):
            radius = _finite_noise(noise_level * _norm(b_hat), noise_level)
            b = _finite_noise(b_hat + draw_off_span(U, radius, field, rng), noise_level)
    return ProblemInstance(A, b, b_hat, x_hat, field, "nullspace", noise_level,
                           b_range=project_onto(U, b))


def gen_experiment_ii(m, n, rank, sparsity, noise_level, sv_lo, sv_hi, field, rng):
    """Sparse ground truth plus impulsive noise on ceil(n/20) of the m rows;
    b_range as in gen_experiment_i."""
    noise_level = checked_nonneg(noise_level, "noise_level")
    A, U, x_hat, b_hat = _planted_instance(m, n, rank, sparsity, sv_lo, sv_hi, field, rng)
    count = math.ceil(n / 20)
    if count > m:
        raise ValueError(f"cannot place {count} impulses into {m} rows")
    idx = rng.choice_without_replacement(m, count)
    amp = _finite_noise(noise_level * float(np.max(np.abs(b_hat))), noise_level)
    b = b_hat.copy()
    if field == "complex":
        spikes = (rng.signs(count) + 1j * rng.signs(count)) / np.sqrt(2.0)
    else:
        spikes = rng.signs(count)
    with np.errstate(over="ignore"):
        b[idx] += amp * spikes
    _finite_noise(b, noise_level)
    return ProblemInstance(A, b, b_hat, x_hat, field, "impulsive", noise_level,
                           b_range=project_onto(U, b))


# below this norm the squares of a vector's entries leave the normal range
NORM_MIN = math.sqrt(np.finfo(float).tiny)


def _norm(v):
    """float(np.linalg.norm(v)); where that overflows or falls below NORM_MIN
    on finite nonzero v, the norm of v / max|v| scaled back, inf only past
    the largest double.  Callers silence the overflow warning of the first
    try."""
    norm = float(np.linalg.norm(v))
    if not NORM_MIN <= norm < math.inf and np.isfinite(v).all():
        scale = _max_abs(v)
        if scale > 0.0:
            norm = scale * float(np.linalg.norm(v / scale))
    return norm


def _max_abs(v):
    """max|v_j|; where a complex modulus overflows, the largest |real| or |imaginary| part."""
    scale = float(np.max(np.abs(v)))
    return scale if scale < math.inf else float(max(np.max(np.abs(v.real)), np.max(np.abs(v.imag))))


def sparsity_count(x):
    """Number of entries with |x_j| > SPARSITY_TOL."""
    return int(np.count_nonzero(np.abs(np.asarray(x)) > SPARSITY_TOL))


class MetricRecorder:
    """Solver hook collecting the standard metric set at every checkpoint.

    z_error (distance of z* to b - y_hat) is recorded when a z-target is
    supplied; the harness does that for quadratic-misfit presets, where the
    target b - A pinv(A) b is cheap and exact.  rel_error is recorded when
    the instance has a ground truth x_hat.  Where g's gradient is the
    identity (quadratic misfit), rel_grad_misfit reuses A^H r of
    rel_grad_quadratic.  A^H r is formed without a conjugate copy of A
    (_adjoint).  A norm that overflows on finite input, as that of
    A^H r does for entries of A near 1e150, or whose squares underflow, as
    that of b does near 1e-160, is recomputed scaled (_norm).
    """

    def __init__(self, instance, g, z_target=None):
        self.A = instance.A
        self.b = instance.b
        self.b_hat = instance.b_hat
        self.x_hat = instance.x_hat
        self.g = g
        # g's gradient kernel, run into the recorder's own buffer at each checkpoint
        self._g_kernel = g.updater(self.b.shape, np.iscomplexobj(self.b))
        self.g_identity = self._g_kernel is None
        if not self.g_identity:
            self._g_grad = np.empty(self.b.shape, g.dtype or (
                np.complex128 if np.iscomplexobj(self.b) else np.float64))
        self.z_target = z_target
        self.b_hat_norm, self.b_norm, self.x_hat_norm = instance.norms
        self.checkpoints = []
        self.rows = {name: [] for name in METRIC_NAMES}

    @np.errstate(over="ignore")
    def __call__(self, state):
        x = state.x
        Ax = self.A @ x
        anti_residual = self.b - Ax
        self.checkpoints.append(state.k)
        self.rows["rel_residual"].append(_norm(Ax - self.b_hat) / self.b_hat_norm)
        rel = self._rel_grad(anti_residual)
        self.rows["rel_grad_quadratic"].append(rel)
        if not self.g_identity:
            self._g_kernel(anti_residual, self._g_grad)
            rel = self._rel_grad(self._g_grad)
        self.rows["rel_grad_misfit"].append(rel)
        if self.x_hat is not None:
            self.rows["rel_error"].append(_norm(x - self.x_hat) / self.x_hat_norm)
        if self.z_target is not None and state.zstar is not None:
            self.rows["z_error"].append(_norm(state.zstar - self.z_target))
        self.rows["sparsity"].append(float(sparsity_count(x)))
        return False

    @np.errstate(invalid="ignore")
    def _rel_grad(self, r):
        """||A^H r|| / ||b||; where A^H r holds a nan (inf - inf) for finite r,
        from A^H (r / max|r|) with max|r| / ||b|| folded back in."""
        grad = self._adjoint(r)
        if not np.isnan(grad).any() or not np.isfinite(r).all():
            return _norm(grad) / self.b_norm
        scale = _max_abs(r)
        return _norm(self._adjoint(r / scale)) * (scale / self.b_norm)

    def _adjoint(self, r):
        """A^H r, bit-equal to A.conj().T @ r: the conjugate of A^T conj(r), the
        same BLAS product on negated imaginary parts.  The conjugate takes the
        imaginary part as 0 - im, so that a zero stays +0 as the product gives it."""
        grad = self.A.T @ r.conj()
        if np.iscomplexobj(grad):
            np.subtract(0.0, grad.imag, out=grad.imag)
        return grad

    def trace(self):
        metrics = {
            name: np.asarray(vals) for name, vals in self.rows.items() if vals
        }
        return MetricTrace(checkpoints=np.asarray(self.checkpoints), metrics=metrics)


def _run_group(instances, seeds, preset_specs, iterations, checkpoint_interval, traces,
               final_x):
    """Every preset over a group of trials, in one session.

    The group's systems and presets advance in lockstep, the presets of each
    draw group (with and without the z-update) on each trial's shared index
    draws.  Appends each trial's trace and final iterate to traces[label]
    and final_x[label], in trial order.
    """
    # each trial's partitions: built by the first preset that needs them, then
    # shared, since their block norms depend on A alone
    rows, cols = [None] * len(instances), [None] * len(instances)
    configs = {}
    recorders = []  # (label, recorder), preset by preset in the order of preset_specs
    for spec in preset_specs:
        configs[spec.name] = cfgs = [
            preset(spec.name, inst.A, lam=spec.lam, eps=spec.eps, tau=spec.tau,
                   max_iterations=iterations, seed=seed, stream=1,
                   checkpoint_interval=checkpoint_interval,
                   row_partition=row, col_partition=col)
            for inst, seed, row, col in zip(instances, seeds, rows, cols)
        ]
        rows = [cfg.row_partition for cfg in cfgs]
        cols = [col if cfg.col_partition is None else cfg.col_partition
                for cfg, col in zip(cfgs, cols)]
        for inst, cfg in zip(instances, cfgs):
            z_target = inst.z_target() if isinstance(cfg.g, QuadraticMisfit) else None
            recorders.append(
                (spec.name, MetricRecorder(inst, cfg.g or QuadraticMisfit(), z_target=z_target)))
    session = Session([inst.A for inst in instances], [inst.b for inst in instances],
                      list(configs.values()))
    session.finish([(rec,) for _, rec in recorders])
    for (label, rec), state in zip(recorders, session.states()):
        traces[label].append(rec.trace())
        final_x[label].append(state.x.copy())


def _quantiles(stacked):
    """min, q25, median, q75 and max of each column: numpy's linear interpolation,
    except that a quantile on an order statistic, or between two equal ones, is
    that value, and one between a finite value and inf is inf.  np.quantile
    gives nan for both once a metric is inf, as it is past the largest double."""
    q = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    ordered = np.sort(stacked, axis=0)
    h = (len(ordered) - 1) * q
    lo, hi = ordered[np.floor(h).astype(int)], ordered[np.ceil(h).astype(int)]
    with np.errstate(invalid="ignore"):  # inf - inf inside np.quantile
        qs = np.quantile(ordered, q, axis=0)
    return np.where(lo == hi, lo, np.where(hi == np.inf, np.inf, qs))


def run_trials(
    generator,
    preset_specs,
    trials,
    iterations,
    base_seed,
    checkpoint_interval=None,
):
    """Run every preset on `trials` fresh instances and aggregate the traces.

    generator: callable(rng) -> ProblemInstance.  Trial t uses seed
    base_seed + t.  The trials advance in lockstep, in groups whose stacked
    matrix copies fit GROUP_BYTES, with the presets of a group in one
    session; each trial's trace and final iterate are bit-identical to
    running its preset alone, so the result depends neither on the grouping
    nor on the other presets.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not preset_specs:
        raise ValueError("preset_specs is empty: name at least one preset")
    labels = [spec.name for spec in preset_specs]
    if len(set(labels)) != len(labels):
        raise ValueError("preset labels must be unique")
    seeds = [base_seed + t for t in range(trials)]
    traces = {label: [] for label in labels}
    final_x = {label: [] for label in labels}
    start = 0
    while start < trials:
        instances = [generator(RngStream(seeds[start], stream=0))]
        # the solver stacks two copies of every trial's matrix
        size = max(1, GROUP_BYTES // (2 * instances[0].A.nbytes))
        group_seeds = seeds[start:start + size]
        instances += [generator(RngStream(seed, stream=0)) for seed in group_seeds[1:]]
        _run_group(instances, group_seeds, preset_specs, iterations, checkpoint_interval,
                   traces, final_x)
        start += len(group_seeds)

    return ExperimentResult(
        preset_labels=labels,
        bands=_bands(traces),
        final_sparsity={label: np.asarray([sparsity_count(x) for x in final_x[label]])
                        for label in labels},
        final_rel_error={label: np.asarray([tr.metrics["rel_error"][-1] for tr in traces[label]])
                         for label in labels},
        traces=traces,
        final_x=final_x,
    )


def _bands(traces):
    """label -> metric name -> AggregateBand of traces (label -> MetricTrace per trial).

    Every band's columns go through one _quantiles call, side by side: it
    sorts and interpolates each column on its own, so a band's values are
    those it gets alone."""
    keys = [(label, name) for label, trs in traces.items()
            for name in METRIC_NAMES if name in trs[0].metrics]
    columns = [np.vstack([tr.metrics[name] for tr in traces[label]]) for label, name in keys]
    qs = _quantiles(np.hstack(columns))
    bands = {label: {} for label in traces}
    stop = 0
    for (label, name), band in zip(keys, columns):
        start, stop = stop, stop + band.shape[1]
        bands[label][name] = AggregateBand(traces[label][0].checkpoints, *qs[:, start:stop])
    return bands


def sparsity_rows(result):
    """(label, min, median, max) of the final iterate sparsity per preset."""
    rows = []
    for label in result.preset_labels:
        counts = result.final_sparsity[label]
        rows.append(
            (label, int(counts.min()), float(np.median(counts)), int(counts.max()))
        )
    return rows


def sparsity_table(result):
    """Plain-text table of final sparsity: preset, min/median/max."""
    lines = [f"{'preset':<10} {'sparsity (min/median/max)':>28}"]
    for label, lo, med, hi in sparsity_rows(result):
        med_txt = f"{med:g}"
        lines.append(f"{label:<10} {f'{lo}/{med_txt}/{hi}':>28}")
    return "\n".join(lines)


def write_experiment_csvs(result, out_dir, experiment_name):
    """One band CSV per (preset, metric) plus a sparsity summary CSV.

    Layout: <out_dir>/<experiment_name>/<preset>/<metric>.csv and
    <out_dir>/<experiment_name>/sparsity.csv.  Returns the paths written.
    """
    base = os.path.join(os.fspath(out_dir), experiment_name)
    written = []
    for label in result.preset_labels:
        for name, band in result.bands[label].items():
            path = os.path.join(base, label, f"{name}.csv")
            columns = (band.checkpoints, band.min, band.q25, band.median, band.q75, band.max)
            write_csv(path, BAND_CSV_VERSION, ("iteration", "min", "q25", "median", "q75", "max"),
                      zip(*(c.tolist() for c in columns)))
            written.append(path)
    path = os.path.join(base, "sparsity.csv")
    write_csv(path, SPARSITY_CSV_VERSION, ("preset", "min", "median", "max"), sparsity_rows(result))
    written.append(path)
    return written


# profile defaults for the command line: one dict per size and one per experiment
_DESK = dict(m=200, n=100, rank=50, sparsity=5, noise_level=5.0, sv_lo=0.1, sv_hi=10.0,
             eps=1e-2, tau=1e-3, trials=10, epochs=200)
_PAPER = dict(_DESK, m=1000, n=500, rank=250, sparsity=25, sv_lo=0.001, trials=50, epochs=500)
_I = dict(lam=5.0, presets=("srk", "rek", "gerk_ad"))
_II = dict(lam=10.0, presets=("srk", "rek", "gerk_ad", "gerk_bd"))
PROFILES = {("desk", "i"): dict(_DESK, **_I), ("desk", "ii"): dict(_DESK, **_II),
            ("paper", "i"): dict(_PAPER, **_I, sv_hi=100.0), ("paper", "ii"): dict(_PAPER, **_II)}
