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
trials never share draws.  The trials of a preset run in lockstep (one
batched solver loop), which changes no value: each trial is bit-identical to
a run on its own.  Metrics are recorded every checkpoint_interval iterations
and aggregated across trials into min/q25/median/q75/max bands.
"""

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fileio import BAND_CSV_VERSION, SPARSITY_CSV_VERSION, _fmt, atomic_write
from .linalg import draw_nullspace_noise, make_rank_deficient
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
    z_stepsize_mode: str = "constant"

    def label(self):
        return self.name


@dataclass
class ExperimentResult:
    preset_labels: list
    bands: dict  # label -> metric name -> AggregateBand
    final_sparsity: dict  # label -> int array over trials
    final_rel_error: dict  # label -> float array over trials
    trials: int
    iterations: int
    traces: dict  # label -> MetricTrace per trial, in trial order
    final_x: dict  # label -> final iterate per trial, in trial order


def _planted_instance(m, n, rank, sparsity, sv_lo, sv_hi, field, rng):
    if sparsity < 1:
        # x_hat = 0 would leave the relative metrics without a scale
        raise ValueError(f"sparsity must be >= 1, got {sparsity}")
    A = make_rank_deficient(m, n, rank, sv_lo, sv_hi, field, rng)
    support = rng.choice_without_replacement(n, sparsity)
    x_hat = np.zeros(n, dtype=A.dtype)
    x_hat[support] = rng.gaussian_array(sparsity, field)
    return A, x_hat, A @ x_hat


def gen_experiment_i(m, n, rank, sparsity, noise_level, sv_lo, sv_hi, field, rng):
    """Sparse ground truth plus nullspace noise of norm noise_level*||b_hat||."""
    noise_level = checked_nonneg(noise_level, "noise_level")
    A, x_hat, b_hat = _planted_instance(m, n, rank, sparsity, sv_lo, sv_hi, field, rng)
    if noise_level > 0.0:
        radius = noise_level * float(np.linalg.norm(b_hat))
        b = b_hat + draw_nullspace_noise(A, radius, field, rng)
    else:
        b = b_hat.copy()
    return ProblemInstance(A, b, b_hat, x_hat, field, "nullspace", noise_level)


def gen_experiment_ii(m, n, rank, sparsity, noise_level, sv_lo, sv_hi, field, rng):
    """Sparse ground truth plus impulsive noise on ceil(n/20) of the m rows."""
    noise_level = checked_nonneg(noise_level, "noise_level")
    A, x_hat, b_hat = _planted_instance(m, n, rank, sparsity, sv_lo, sv_hi, field, rng)
    count = math.ceil(n / 20)
    if count > m:
        raise ValueError(f"cannot place {count} impulses into {m} rows")
    idx = rng.choice_without_replacement(m, count)
    amp = noise_level * float(np.max(np.abs(b_hat)))
    b = b_hat.copy()
    if field == "complex":
        spikes = (rng.signs(count) + 1j * rng.signs(count)) / np.sqrt(2.0)
    else:
        spikes = rng.signs(count)
    b[idx] += amp * spikes
    return ProblemInstance(A, b, b_hat, x_hat, field, "impulsive", noise_level)


def sparsity_count(x, tol=SPARSITY_TOL):
    """Number of entries with |x_j| > tol."""
    return int(np.count_nonzero(np.abs(np.asarray(x)) > tol))


class MetricRecorder:
    """Solver hook collecting the standard metric set at every checkpoint.

    z_error (distance of z* to b - y_hat) is recorded when a z-target is
    supplied; the harness does that for quadratic-misfit presets, where the
    target b - A pinv(A) b is cheap and exact.  rel_error is recorded when
    the instance has a ground truth x_hat.
    """

    def __init__(self, instance, g, z_target=None, sparsity_tol=SPARSITY_TOL):
        self.A = instance.A
        self.Ah = instance.A.conj().T
        self.b = instance.b
        self.b_hat = instance.b_hat
        self.x_hat = instance.x_hat
        self.g = g
        self.z_target = z_target
        self.sparsity_tol = sparsity_tol
        self.b_hat_norm = float(np.linalg.norm(instance.b_hat))
        self.b_norm = float(np.linalg.norm(instance.b))
        self.x_hat_norm = None if self.x_hat is None else float(np.linalg.norm(self.x_hat))
        self.checkpoints = []
        self.rows = {name: [] for name in METRIC_NAMES}

    def __call__(self, state):
        x = state.x
        Ax = self.A @ x
        anti_residual = self.b - Ax
        self.checkpoints.append(state.k)
        self.rows["rel_residual"].append(
            float(np.linalg.norm(Ax - self.b_hat)) / self.b_hat_norm
        )
        self.rows["rel_grad_quadratic"].append(
            float(np.linalg.norm(self.Ah @ anti_residual)) / self.b_norm
        )
        self.rows["rel_grad_misfit"].append(
            float(np.linalg.norm(self.Ah @ self.g.gradient(anti_residual))) / self.b_norm
        )
        if self.x_hat is not None:
            self.rows["rel_error"].append(
                float(np.linalg.norm(x - self.x_hat)) / self.x_hat_norm
            )
        if self.z_target is not None and state.zstar is not None:
            self.rows["z_error"].append(float(np.linalg.norm(state.zstar - self.z_target)))
        self.rows["sparsity"].append(float(sparsity_count(x, self.sparsity_tol)))
        return False

    def trace(self):
        metrics = {
            name: np.asarray(vals) for name, vals in self.rows.items() if vals
        }
        return MetricTrace(checkpoints=np.asarray(self.checkpoints), metrics=metrics)


def _run_group(instances, seeds, preset_specs, iterations, checkpoint_interval, traces,
               final_x):
    """Every preset over a group of trials, the group's systems in lockstep.

    Appends each trial's trace and final iterate to traces[label] and
    final_x[label], in trial order.
    """
    y_hat_quad = [None] * len(instances)
    for spec in preset_specs:
        cfgs = [
            preset(spec.name, inst.A, lam=spec.lam, eps=spec.eps, tau=spec.tau,
                   max_iterations=iterations, seed=seed, stream=1,
                   checkpoint_interval=checkpoint_interval,
                   z_stepsize_mode=spec.z_stepsize_mode)
            for inst, seed in zip(instances, seeds)
        ]
        recorders = []
        for t, (inst, cfg) in enumerate(zip(instances, cfgs)):
            z_target = None
            if cfg.z_update_enabled and isinstance(cfg.g, QuadraticMisfit):
                if y_hat_quad[t] is None:
                    y_hat_quad[t] = range_projection_quadratic(inst.A, inst.b).value
                z_target = inst.b - y_hat_quad[t]
            recorders.append(MetricRecorder(inst, cfg.g or QuadraticMisfit(), z_target=z_target))
        session = Session([inst.A for inst in instances], [inst.b for inst in instances], cfgs)
        session.finish([(rec,) for rec in recorders])
        traces[spec.label()] += [rec.trace() for rec in recorders]
        final_x[spec.label()] += [state.x.copy() for state in session.states()]
        del session  # its matrix copies go before the next preset's are built


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
    base_seed + t.  The trials of a preset advance in lockstep, in groups
    whose stacked matrix copies fit GROUP_BYTES; each trial's trace and
    final iterate are bit-identical to running it alone, so the result does
    not depend on the grouping.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not preset_specs:
        raise ValueError("preset_specs is empty: name at least one preset")
    labels = [spec.label() for spec in preset_specs]
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

    bands = {}
    final_sparsity = {}
    final_rel_error = {}
    for label in labels:
        checkpoints = traces[label][0].checkpoints
        bands[label] = {}
        for name in METRIC_NAMES:
            if name not in traces[label][0].metrics:
                continue
            stacked = np.vstack([tr.metrics[name] for tr in traces[label]])
            qs = np.quantile(stacked, [0.0, 0.25, 0.5, 0.75, 1.0], axis=0)
            bands[label][name] = AggregateBand(
                checkpoints=checkpoints,
                min=qs[0],
                q25=qs[1],
                median=qs[2],
                q75=qs[3],
                max=qs[4],
            )
        final_sparsity[label] = np.asarray([sparsity_count(x) for x in final_x[label]])
        final_rel_error[label] = np.asarray(
            [tr.metrics["rel_error"][-1] for tr in traces[label]]
        )
    return ExperimentResult(
        preset_labels=labels,
        bands=bands,
        final_sparsity=final_sparsity,
        final_rel_error=final_rel_error,
        trials=trials,
        iterations=iterations,
        traces=traces,
        final_x=final_x,
    )


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
            lines = [BAND_CSV_VERSION, "iteration,min,q25,median,q75,max"]
            for idx, k in enumerate(band.checkpoints):
                lines.append(
                    ",".join(
                        [str(int(k))]
                        + [
                            _fmt(arr[idx])
                            for arr in (band.min, band.q25, band.median, band.q75, band.max)
                        ]
                    )
                )
            path = os.path.join(base, label, f"{name}.csv")
            atomic_write(path, "\n".join(lines) + "\n")
            written.append(path)
    lines = [SPARSITY_CSV_VERSION, "preset,min,median,max"]
    for label, lo, med, hi in sparsity_rows(result):
        lines.append(f"{label},{lo},{_fmt(med)},{hi}")
    path = os.path.join(base, "sparsity.csv")
    atomic_write(path, "\n".join(lines) + "\n")
    written.append(path)
    return written


# profile defaults for the command line; experiment ii swaps lam and adds the
# huber parameters
PROFILES = {
    ("desk", "i"): dict(
        m=200, n=100, rank=50, sparsity=5, noise_level=5.0,
        sv_lo=0.1, sv_hi=10.0, lam=5.0, eps=1e-2, tau=1e-3,
        trials=10, epochs=200,
    ),
    ("desk", "ii"): dict(
        m=200, n=100, rank=50, sparsity=5, noise_level=5.0,
        sv_lo=0.1, sv_hi=10.0, lam=10.0, eps=1e-2, tau=1e-3,
        trials=10, epochs=200,
    ),
    ("paper", "i"): dict(
        m=1000, n=500, rank=250, sparsity=25, noise_level=5.0,
        sv_lo=0.001, sv_hi=100.0, lam=5.0, eps=1e-2, tau=1e-3,
        trials=50, epochs=500,
    ),
    ("paper", "ii"): dict(
        m=1000, n=500, rank=250, sparsity=25, noise_level=5.0,
        sv_lo=0.001, sv_hi=10.0, lam=10.0, eps=1e-2, tau=1e-3,
        trials=50, epochs=500,
    ),
}

DEFAULT_PRESETS = {
    "i": ("srk", "rek", "gerk_ad"),
    "ii": ("srk", "rek", "gerk_ad", "gerk_bd"),
}


def make_generator(which, params, field):
    gen = gen_experiment_i if which == "i" else gen_experiment_ii

    def generator(rng):
        return gen(
            m=params["m"],
            n=params["n"],
            rank=params["rank"],
            sparsity=params["sparsity"],
            noise_level=params["noise_level"],
            sv_lo=params["sv_lo"],
            sv_hi=params["sv_hi"],
            field=field,
            rng=rng,
        )

    return generator
