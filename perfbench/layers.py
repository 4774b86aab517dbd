"""Per-layer timings: each layer's public functions called directly, untraced.

Every timing runs on the workload's own planted system (its shape and field),
so each layer is measured on every workload.  The certificate and
constrained-oracle timings need a narrow, full-column-rank system: they use
the certify workload's first system, and on the other workloads the leading
columns of the workload's matrix.
"""

import gc
import os
import shutil
import time

import numpy as np

from gerk.blocks import column_partition, row_partition
from gerk.certificates import sigma_tilde_min, verify_error_bound
from gerk.errors import NotConverged
from gerk.experiments import (
    MetricRecorder,
    PresetSpec,
    ProblemInstance,
    gen_experiment_i,
    gen_experiment_ii,
    run_trials,
    write_experiment_csvs,
)
from gerk.fileio import read_matrix_market
from gerk.linalg import embed_complex_as_real, make_rank_deficient, nullspace_basis_adjoint
from gerk.oracles import constrained_regularizer_min, range_projection_quadratic
from gerk.potentials import ComplexElasticNet, ElasticNet, HuberQuadMisfit
from gerk.rng import RngStream
from gerk.solver import PRESET_NAMES, gerk_step, init_state, preset, run

SOLVER_ITERS = 4000  # iterations per timed run() call
ENUM_COLS = 10  # columns of the enumeration block on non-certify workloads
VERIFY_COLS = 6
VERIFY_SAMPLES = 500


def timed(fn, reps=5, budget=1.0):
    """Median wall time of fn() over up to `reps` calls; fewer when slow."""
    times = []
    spent = time.perf_counter()
    while len(times) < reps and (not times or time.perf_counter() - spent < budget):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def per_call(fn, calls, reps=3):
    """Median seconds per call of fn() over `reps` batches of `calls` calls."""
    def batch():
        for _ in range(calls):
            fn()
    return timed(batch, reps=reps, budget=10.0) / calls


def _narrow_system(inst, cols, whole):
    """(A, x, A x): real and full column rank; `whole` keeps every column."""
    A = inst.A
    if not whole:
        A = A[:, : cols // 2] if inst.field == "complex" else A[:, :cols]
    if inst.field == "complex":
        A = embed_complex_as_real(A)
    A = np.ascontiguousarray(A)
    k = A.shape[1]
    x = np.where(np.arange(k) % 3 == 1, 0.0, (1.0 + np.arange(k) / k) * (-1.0) ** np.arange(k))
    return A, x, A @ x


def measure(inst, matrix_file, work_dir, seed, certify=False):
    """Every per-layer timing for one workload; returns {metric: value}."""
    A, b = inst.A, inst.b
    m, n = A.shape
    is_complex = inst.field == "complex"
    out = {}

    rng = RngStream(seed, stream=7)
    draw = rng.random
    out["rng.draw_ns"] = per_call(draw, 20000) * 1e9

    def cfg(name, iters):
        return preset(name, A, lam=inst.lam, eps=inst.eps, tau=inst.tau,
                      max_iterations=iters, seed=seed)

    setup = {}
    for name in PRESET_NAMES:
        c0, c = cfg(name, 0), cfg(name, SOLVER_ITERS)
        setup[name] = timed(lambda: run(A, b, c0))
        full = timed(lambda: run(A, b, c), reps=3, budget=0.5)
        out[f"solver.us_per_iter.{name}"] = (full - setup[name]) / SOLVER_ITERS * 1e6
    out["solver.setup_s"] = setup["gerk_bd"]
    c1 = cfg("gerk_bd", 1)
    state = init_state(A, b, c1)
    out["solver.step_us"] = per_call(lambda: gerk_step(state, A, b, c1), 20) * 1e6

    out["blocks.partition_s"] = timed(lambda: (row_partition(A), column_partition(A)))

    f = ComplexElasticNet(inst.lam) if is_complex else ElasticNet(inst.lam)
    g = HuberQuadMisfit(inst.eps, inst.tau)
    xs = A[0].conj() * 3.0
    zs = b.copy()
    x_out, z_out = np.empty_like(xs), np.empty_like(zs)
    f_upd, g_upd = f.updater(n, is_complex), g.updater(m, is_complex)
    out["potentials.f_update_us"] = per_call(lambda: f_upd(xs, x_out), 2000) * 1e6
    out["potentials.g_update_us"] = per_call(lambda: g_upd(zs, z_out), 2000) * 1e6

    rank = min(inst.rank, min(m, n) - 1)
    generate = gen_experiment_i if inst.noise == "nullspace" else gen_experiment_ii
    out["experiments.instance_s"] = timed(lambda: generate(
        m, n, rank, inst.sparsity, inst.noise_level, inst.sv_lo, inst.sv_hi, inst.field,
        RngStream(seed)), reps=3)
    problem = ProblemInstance(A, b, inst.b_hat, inst.x_hat, inst.field, "planted",
                              inst.noise_level)
    recorder = MetricRecorder(problem, g)
    rec_state = init_state(A, b, c1)
    out["experiments.recorder_us"] = per_call(lambda: recorder(rec_state), 50) * 1e6
    c = cfg("gerk_bd", SOLVER_ITERS)
    # hooked and plain runs alternate, so host drift cancels within each pair
    ratios = [timed(lambda: run(A, b, c, hooks=(MetricRecorder(problem, g),)), reps=1)
              / timed(lambda: run(A, b, c), reps=1) for _ in range(5)]
    out["experiments.hook_share"] = float(np.median(ratios)) - 1.0
    specs = [PresetSpec("rk"), PresetSpec("gerk_bd", lam=inst.lam, eps=inst.eps, tau=inst.tau)]
    result = run_trials(lambda r: problem, specs, trials=2, iterations=2000, base_seed=seed,
                        checkpoint_interval=100)
    csv_dir = os.path.join(work_dir, "layer-csv")
    out["experiments.write_s"] = timed(lambda: write_experiment_csvs(result, csv_dir, "x"))
    shutil.rmtree(csv_dir, ignore_errors=True)

    out["linalg.rank_deficient_s"] = timed(lambda: make_rank_deficient(
        m, n, rank, inst.sv_lo, inst.sv_hi, inst.field, RngStream(seed)), reps=3)
    out["linalg.nullspace_s"] = timed(lambda: nullspace_basis_adjoint(A), reps=3)
    out["oracles.range_projection_s"] = timed(lambda: range_projection_quadratic(A, b), reps=3)

    Ak, xk, yk = _narrow_system(inst, ENUM_COLS, certify)
    iters = []

    def constrained():
        try:
            iters.append(constrained_regularizer_min(Ak, yk, ElasticNet(1.0),
                                                     max_iter=100000).iterations)
        except NotConverged:
            iters.append(100000)

    out["oracles.constrained_min_s"] = timed(constrained, reps=3)
    out["oracles.constrained_min_iters"] = float(iters[0])
    out["certificates.sigma_tilde_min_s"] = timed(lambda: sigma_tilde_min(Ak), reps=2)
    Av, xv, yv = _narrow_system(inst, VERIFY_COLS, False)
    t_all = timed(lambda: verify_error_bound(Av, xv, yv, 1.0, VERIFY_SAMPLES, seed), reps=3)
    t_none = timed(lambda: verify_error_bound(Av, xv, yv, 1.0, 0, seed), reps=3)
    out["certificates.verify_us_per_sample"] = (t_all - t_none) / VERIFY_SAMPLES * 1e6

    read_s = timed(lambda: read_matrix_market(matrix_file), reps=3, budget=1.0)
    out["fileio.read_mtx_s"] = read_s
    out["fileio.read_mtx_mb_per_s"] = os.path.getsize(matrix_file) / 1e6 / read_s
    return out
