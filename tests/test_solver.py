import copy
import dataclasses
import itertools

import numpy as np
import pytest

import gerk.solver as solver
from gerk.blocks import BlockPartition, column_partition, contiguous_blocks, row_partition
from gerk.certificates import gamma_hat
from gerk.errors import (
    DimensionMismatch,
    FieldMismatch,
    MissingParameter,
    NonFiniteInput,
    NonFiniteIterate,
)
from gerk.experiments import gen_experiment_i
from gerk.linalg import (
    draw_off_span,
    left_singular_bases,
    make_rank_deficient,
    range_projector_apply,
    svd_pseudoinverse_apply,
)
from gerk.oracles import range_projection_quadratic
from gerk.potentials import (
    ElasticNet,
    HuberQuadMisfit,
    Quadratic,
    QuadraticMisfit,
    bregman_distance,
)
from gerk.rng import RngStream
from gerk.solver import (
    DRAW_CHUNK,
    PRESET_NAMES,
    Session,
    SolverConfig,
    draw_indices,
    gerk_step,
    init_state,
    preset,
    run,
    validate_config,
)


def naive_trajectory(A, b, f, g, z_on, row_part, col_part, seed, stream, steps):
    """Literal transcription of the iteration, no caching or in-place tricks."""
    rng = RngStream(seed, stream)
    xstar = np.zeros(A.shape[1], dtype=A.dtype)
    x = f.conjugate_gradient(xstar)
    zstar = b.astype(A.dtype, copy=True) if z_on else None
    z = g.gradient(zstar) if z_on else None
    traj = []
    for _ in range(steps):
        if z_on:
            j = col_part.sample(rng)
            blk = col_part.blocks[j]
            Aj = A[:, blk]
            s = Aj.conj().T @ z
            v = Aj @ s
            tz = 1.0 / (g.grad_lipschitz * col_part.block_sq_norms[j])
            zstar = zstar - tz * v
            z = g.gradient(zstar)
        i = row_part.sample(rng)
        blk = row_part.blocks[i]
        Ai = A[blk, :]
        w = Ai @ x - b[blk]
        if z_on:
            w = w + zstar[blk]
        tx = 1.0 / (f.conj_lipschitz * row_part.block_sq_norms[i])
        xstar = xstar - tx * (Ai.conj().T @ w)
        x = f.conjugate_gradient(xstar)
        traj.append((x.copy(), zstar.copy() if z_on else None))
    return traj


def capture_trajectory(A, b, cfg):
    """Solver iterates at every iteration via a checkpoint hook."""
    snaps = []

    def hook(state):
        snaps.append((state.k, np.array(state.x, copy=True),
                      None if state.zstar is None else np.array(state.zstar, copy=True)))
        return False

    run(A, b, cfg, hooks=(hook,))
    return snaps


def lockstep_check(A, b, name, steps, seed=7, tol=1e-14, **kw):
    cfg = preset(name, A, max_iterations=steps, seed=seed,
                 checkpoint_interval=1, **kw)
    snaps = capture_trajectory(A, b, cfg)
    traj = naive_trajectory(
        A, b, cfg.f, cfg.g, cfg.z_update_enabled,
        cfg.row_partition, cfg.col_partition, seed, cfg.stream, steps,
    )
    assert snaps[0][0] == 0
    scale = 1.0 + float(np.linalg.norm(b))
    for k, x, zstar in snaps[1:]:
        nx, nz = traj[k - 1]
        assert np.linalg.norm(x - nx) <= tol * scale
        if nz is not None:
            assert np.linalg.norm(zstar - nz) <= tol * scale


def test_one_by_one_hand_example():
    # A = (2), b = (4): the first z-step zeroes zstar, the first x-step lands on 2
    A = np.array([[2.0]])
    b = np.array([4.0])
    cfg = preset("rek", A, max_iterations=1, seed=0)
    state = init_state(A, b, cfg)
    gerk_step(state, A, b, cfg)
    assert state.k == 1
    assert abs(state.zstar[0]) == 0.0
    assert abs(state.x[0] - 2.0) == 0.0


def test_zero_iterations_returns_initial_state():
    rng = RngStream(500)
    A = rng.normal_array(12).reshape(4, 3)
    b = rng.normal_array(4)
    cfg = preset("rek", A, max_iterations=0, seed=1)
    fired = []
    report = run(A, b, cfg, hooks=(lambda s: fired.append(s.k),))
    assert report.iterations == 0
    assert report.stop_reason == "max_iterations"
    assert fired == [0]
    assert np.array_equal(report.state.x, np.zeros(3))
    assert np.array_equal(report.state.zstar, b)


def test_rek_lockstep_with_naive_mirror():
    rng = RngStream(501)
    A = rng.normal_array(15 * 8).reshape(15, 8)
    b = rng.normal_array(15)
    lockstep_check(A, b, "rek", steps=1000)


def test_srk_lockstep_with_naive_mirror():
    rng = RngStream(502)
    A = rng.normal_array(12 * 6).reshape(12, 6)
    b = rng.normal_array(12)
    lockstep_check(A, b, "srk", steps=1000, lam=0.5)


def test_gerk_ad_lockstep_real():
    rng = RngStream(503)
    A = rng.normal_array(10 * 7).reshape(10, 7)
    b = rng.normal_array(10)
    lockstep_check(A, b, "gerk_ad", steps=1000, lam=1.5)


def test_gerk_ad_lockstep_complex():
    rng = RngStream(504)
    A = rng.complex_normal_array(9 * 5).reshape(9, 5)
    b = rng.complex_normal_array(9)
    lockstep_check(A, b, "gerk_ad", steps=1000, lam=0.8)


def test_gerk_bd_lockstep_both_fields():
    rng = RngStream(505)
    A = rng.normal_array(8 * 5).reshape(8, 5)
    b = rng.normal_array(8)
    lockstep_check(A, b, "gerk_bd", steps=500, lam=0.5, eps=0.1, tau=0.05)
    Ac = rng.complex_normal_array(8 * 5).reshape(8, 5)
    bc = rng.complex_normal_array(8)
    lockstep_check(Ac, bc, "gerk_bd", steps=500, lam=0.5, eps=0.1, tau=0.05)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_multi_block_lockstep(field):
    # multi-index row and column blocks, the solver's one-system block path
    rng = RngStream(521)
    A = rng.gaussian_array(12 * 7, field).reshape(12, 7)
    b = rng.gaussian_array(12, field)
    for name, kw in (("rek", {}), ("gerk_bd", {"lam": 0.5, "eps": 0.1, "tau": 0.05})):
        lockstep_check(A, b, name, steps=500,
                       row_partition=row_partition(A, blocks=contiguous_blocks(12, 5)),
                       col_partition=column_partition(A, blocks=contiguous_blocks(7, 3)), **kw)


def test_iterates_stay_in_dual_ranges():
    # xstar accumulates conjugated rows, zstar - b accumulates columns
    rng = RngStream(507)
    A = make_rank_deficient(12, 8, 5, 0.5, 3.0, "real", rng)
    b = rng.normal_array(12)
    cfg = preset("gerk_ad", A, lam=1.0, max_iterations=2000, seed=3)
    report = run(A, b, cfg)
    xstar = report.state.xstar
    zstar = report.state.zstar
    # project onto range(A^H) = range of the adjoint, i.e. rows
    proj_x = range_projector_apply(A.conj().T, xstar)
    assert np.linalg.norm(xstar - proj_x) <= 1e-8 * (1 + np.linalg.norm(xstar))
    diff = zstar - b
    proj_z = range_projector_apply(A, diff)
    assert np.linalg.norm(diff - proj_z) <= 1e-8 * (1 + np.linalg.norm(diff))


def test_primal_iterates_track_dual_gradients():
    rng = RngStream(508)
    A = rng.normal_array(9 * 6).reshape(9, 6)
    b = rng.normal_array(9)
    cfg = preset("gerk_bd", A, lam=0.7, eps=0.2, tau=0.1, max_iterations=500, seed=9)
    state = init_state(A, b, cfg)
    for _ in range(50):
        gerk_step(state, A, b, cfg)
    assert np.linalg.norm(state.x - cfg.f.conjugate_gradient(state.xstar)) <= 1e-12
    assert np.linalg.norm(state.z - cfg.g.gradient(state.zstar)) <= 1e-12


def test_bitwise_determinism():
    rng = RngStream(509)
    A = rng.normal_array(10 * 5).reshape(10, 5)
    b = rng.normal_array(10)
    r1 = run(A, b, preset("gerk_ad", A, lam=1.0, max_iterations=777, seed=42))
    r2 = run(A, b, preset("gerk_ad", A, lam=1.0, max_iterations=777, seed=42))
    assert np.array_equal(r1.state.x, r2.state.x)
    assert np.array_equal(r1.state.zstar, r2.state.zstar)
    r3 = run(A, b, preset("gerk_ad", A, lam=1.0, max_iterations=777, seed=43))
    assert not np.array_equal(r1.state.x, r3.state.x)


def test_rek_converges_to_pseudoinverse_solution():
    # inconsistent system: the limit is pinv(A) b, and zstar tends to b - proj b
    rng = RngStream(510)
    A = make_rank_deficient(30, 12, 8, 1.0, 2.0, "real", rng)
    b = rng.normal_array(30)
    cfg = preset("rek", A, max_iterations=60000, seed=11)
    report = run(A, b, cfg)
    x_ref = svd_pseudoinverse_apply(A, b)
    assert np.linalg.norm(report.state.x - x_ref) <= 1e-6 * (1 + np.linalg.norm(x_ref))
    z_ref = b - range_projector_apply(A, b)
    assert np.linalg.norm(report.state.zstar - z_ref) <= 1e-6 * (1 + np.linalg.norm(z_ref))


def test_rk_converges_on_consistent_system():
    rng = RngStream(511)
    A = rng.normal_array(20 * 8).reshape(20, 8)
    x_true = rng.normal_array(8)
    b = A @ x_true
    report = run(A, b, preset("rk", A, max_iterations=5000, seed=5))
    assert np.linalg.norm(report.state.x - x_true) <= 1e-8 * np.linalg.norm(x_true)


def test_fixed_residual_reduces_to_sparse_kaczmarz():
    # with zstar frozen at the off-range noise, the x-updates see the clean system
    rng = RngStream(512)
    A = make_rank_deficient(12, 6, 4, 0.8, 2.0, "real", rng)
    y_hat = range_projector_apply(A, rng.normal_array(12))
    noise = rng.normal_array(12)
    noise -= range_projector_apply(A, noise)
    b = y_hat + noise
    cfg = preset("gerk_ad", A, lam=1.0, max_iterations=1, seed=21)
    state = init_state(A, b, cfg)
    state.zstar[:] = noise  # aliased with state.z for the quadratic misfit

    mirror_rng = RngStream(21, 0)
    srk = ElasticNet(1.0)
    xstar = np.zeros(6)
    x = srk.conjugate_gradient(xstar)
    rp = cfg.row_partition
    for _ in range(800):
        gerk_step(state, A, b, cfg)
        mirror_rng.random()  # the z-draw the mirror does not need
        i = rp.sample(mirror_rng)
        row = A[rp.blocks[i][0]]
        w = float(row @ x - y_hat[rp.blocks[i][0]])
        xstar = xstar - (w / rp.block_sq_norms[i]) * row
        x = srk.conjugate_gradient(xstar)
        assert np.linalg.norm(state.x - x) <= 1e-8 * (1 + np.linalg.norm(x))
    # the frozen residual never moved (up to projector roundoff)
    assert np.linalg.norm(state.zstar - noise) <= 1e-8


def _checkpoint_iterates(A, b, cfg):
    iterates = []
    run(A, b, cfg, hooks=(lambda state: iterates.append(state.x.copy()),))
    return np.array(iterates)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_gerk_ad_ignores_the_part_of_b_off_the_range(field):
    # the paper's claim for the extended method: on a full-column-rank system, b and
    # b + r with r in null(A^H) give the same x-iterates, to rounding, at every
    # checkpoint (z*_0 = b + r, and no column step moves r, since A_j^H r = 0)
    rng = RngStream(530)
    m, n = 40, 10
    A = rng.gaussian_array(m * n, field).reshape(m, n)
    basis, null = left_singular_bases(A, True)
    assert basis.shape[1] == n and null.shape[1] == m - n  # full column rank
    x_hat = np.zeros(n, dtype=A.dtype)
    x_hat[[1, 6]] = rng.gaussian_array(2, field)
    b = A @ x_hat + 0.1 * rng.gaussian_array(m, field)
    r = draw_off_span(basis, 10.0 * np.linalg.norm(b), field, rng)
    cfg = preset("gerk_ad", A, lam=0.5, max_iterations=6000, seed=31, checkpoint_interval=200)
    want = _checkpoint_iterates(A, b, cfg)
    got = _checkpoint_iterates(A, b + r, cfg)
    assert len(want) == 31 and np.linalg.norm(want[-1]) > 0.1
    scale = 1e-10 * (1.0 + np.abs(want).max())
    assert np.abs(got - want).max() <= scale
    # negative control: a component in range(A) moves the iterates
    moved = _checkpoint_iterates(A, b + r + 1e-3 * (A @ rng.gaussian_array(n, field)), cfg)
    assert np.abs(moved[-1] - want[-1]).max() > 1e3 * scale


def test_preset_parameter_errors():
    A = np.eye(3)
    with pytest.raises(MissingParameter):
        preset("srk", A, max_iterations=1, seed=0)
    with pytest.raises(MissingParameter):
        preset("gerk_ad", A, max_iterations=1, seed=0)
    with pytest.raises(MissingParameter):
        preset("gerk_bd", A, lam=1.0, max_iterations=1, seed=0)
    with pytest.raises(ValueError):
        preset("banana", A, max_iterations=1, seed=0)


@pytest.mark.parametrize("key, bad", [("seed", 1.5), ("seed", True), ("stream", 2.0),
                                      ("stream", np.True_), ("seed", np.float64(3.0))])
def test_seed_and_stream_must_be_integers(key, bad):
    # a float or bool would be truncated to another stream's key
    A = np.eye(3)
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        preset("rk", A, max_iterations=1, **{"seed": 0, key: bad})
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        RngStream(**{"seed": 0, key: bad})
    # positive controls: Python and numpy integers
    for good in (3, np.int64(3), np.uint32(3)):
        cfg = preset("rk", A, max_iterations=1, **{"seed": 0, key: good})
        assert getattr(cfg, key) == 3
        assert RngStream(**{"seed": 0, key: good}).random() == RngStream(
            **{"seed": 0, key: 3}).random()


def test_preset_field_dispatch():
    A = np.eye(3)
    assert preset("srk", A, lam=1.0, max_iterations=1, seed=0).f.name == "elastic_net"
    Ac = np.eye(3, dtype=np.complex128)
    assert preset("srk", Ac, lam=1.0, max_iterations=1, seed=0).f.name == "complex_elastic_net"
    assert preset("rk", A, max_iterations=1, seed=0).f.name == "quadratic"
    assert preset("gerk_bd", A, lam=1.0, eps=0.1, tau=0.1,
                  max_iterations=1, seed=0).g.name == "huber_quad"


def test_validate_config_errors():
    rng = RngStream(513)
    A = rng.normal_array(12).reshape(4, 3)
    b = rng.normal_array(4)
    cfg = preset("rek", A, max_iterations=1, seed=0)
    with pytest.raises(DimensionMismatch):
        validate_config(A, rng.normal_array(5), cfg)
    with pytest.raises(FieldMismatch):
        validate_config(A, b.astype(np.complex128), cfg)
    other = rng.normal_array(15).reshape(5, 3)
    with pytest.raises(DimensionMismatch):
        validate_config(other, rng.normal_array(5), cfg)
    bad = preset("rek", A, max_iterations=1, seed=0)
    bad.col_partition = None
    with pytest.raises(DimensionMismatch):
        validate_config(A, b, bad)
    complex_f = preset("srk", A, lam=1.0, max_iterations=1, seed=0)
    with pytest.raises(FieldMismatch):
        validate_config(A.astype(np.complex128), b.astype(np.complex128), complex_f)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_non_finite_input_rejected(bad, field):
    rng = RngStream(516)
    A = rng.gaussian_array(12, field).reshape(4, 3)
    b = rng.gaussian_array(4, field)
    cfg = preset("rek", A, max_iterations=5, seed=0)
    validate_config(A, b, cfg)
    A_bad, b_bad = A.copy(), b.copy()
    A_bad[2, 1] = bad
    b_bad[3] = bad * 1j if field == "complex" else bad
    for A_in, b_in in ((A_bad, b), (A, b_bad)):
        with pytest.raises(NonFiniteInput):
            validate_config(A_in, b_in, cfg)
        with pytest.raises(NonFiniteInput):
            run(A_in, b_in, cfg)
        # partitions built from the non-finite A leave the error to the solver
        with pytest.raises(NonFiniteInput):
            run(A_in, b_in, preset("rek", A_in, max_iterations=5, seed=0))


def test_multi_block_partitions_converge():
    rng = RngStream(517)
    A = rng.normal_array(18 * 6).reshape(18, 6)
    x_true = rng.normal_array(6)
    b = A @ x_true
    cfg = SolverConfig(
        f=Quadratic(),
        g=QuadraticMisfit(),
        row_partition=row_partition(A, blocks=contiguous_blocks(18, 5)),
        col_partition=column_partition(A, blocks=contiguous_blocks(6, 2)),
        max_iterations=4000,
        seed=19,
    )
    report = run(A, b, cfg)
    assert np.linalg.norm(report.state.x - x_true) <= 1e-8 * np.linalg.norm(x_true)


@pytest.mark.parametrize("name", ["rek", "gerk_ad"])
def test_zero_row_is_never_drawn(name):
    # a zero row, with b nonzero there, has probability 0 and is never drawn
    # (it raised ZeroMatrix): x agrees with a run of the same seed on the
    # system without that row, up to the rounding of the column dots, which
    # have one more term
    rng = RngStream(521)
    A = rng.normal_array(12 * 6).reshape(12, 6)
    A[11] = 0.0
    b = rng.normal_array(12)
    kw = dict(lam=0.5, max_iterations=3000, seed=9)
    cfg = preset(name, A, **kw)
    _, rows = draw_indices(cfg, RngStream(9), kw["max_iterations"])
    assert 11 not in rows.tolist() and b[11] != 0.0
    x = run(A, b, cfg).state.x
    x_without = run(A[:11], b[:11], preset(name, A[:11], **kw)).state.x
    assert np.linalg.norm(x - x_without) <= 1e-12 * np.linalg.norm(x_without)


@pytest.mark.parametrize("name", ["rek", "gerk_ad", "gerk_bd"])
def test_zero_column_is_never_drawn(name):
    # the column twin of test_zero_row_is_never_drawn: a zero column has
    # probability and step 0, the z-update never draws it, and x_j stays
    # exactly 0 at every checkpoint
    rng = RngStream(527)
    A = rng.normal_array(12 * 6).reshape(12, 6)
    A[:, 4] = 0.0
    b = rng.normal_array(12)
    cfg = preset(name, A, lam=0.5, eps=0.1, tau=0.01, max_iterations=3000, seed=9,
                 checkpoint_interval=300)
    assert cfg.col_partition.probabilities[4] == 0.0
    assert solver.Session(A, b, cfg).t_col[4] == 0.0
    cols, _ = draw_indices(cfg, RngStream(9), cfg.max_iterations)
    assert 4 not in cols.tolist() and set(cols.tolist()) == {0, 1, 2, 3, 5}
    seen = []
    x = run(A, b, cfg, hooks=(lambda s: seen.append(float(s.x[4])),)).state.x
    assert seen == [0.0] * 11 and x[4] == 0.0 and np.all(x[[0, 1, 2, 3, 5]] != 0.0)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_out_of_range_scale_rejected(scale):
    # at 1e160 every step was 0 (rk returned x = 0, rek NaN); at 1e-170 the
    # nonzero rows were rejected as zero
    rng = RngStream(523)
    A = scale * rng.normal_array(8 * 4).reshape(8, 4)
    b = A @ rng.normal_array(4)
    for name in ("rk", "rek"):
        with pytest.raises(ValueError, match="squared row norms of A .* rescale A"):
            run(A, b, preset(name, A, max_iterations=100, seed=0))


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_extreme_but_representable_scale_solves(scale):
    # positive control for the scale check
    rng = RngStream(523)
    A = scale * rng.normal_array(8 * 4).reshape(8, 4)
    x_true = rng.normal_array(4)
    for name in ("rk", "rek"):
        report = run(A, A @ x_true, preset(name, A, max_iterations=2000, seed=0))
        assert np.linalg.norm(report.state.x - x_true) <= 1e-10 * np.linalg.norm(x_true)


def test_checkpoint_cadence():
    rng = RngStream(518)
    A = rng.normal_array(12).reshape(4, 3)
    b = rng.normal_array(4)
    cfg = preset("rek", A, max_iterations=10, seed=1, checkpoint_interval=3)
    ks = []
    run(A, b, cfg, hooks=(lambda s: ks.append(s.k),))
    assert ks == [0, 3, 6, 9, 10]
    # default interval is one epoch (m iterations)
    cfg2 = preset("rek", A, max_iterations=9, seed=1)
    ks2 = []
    run(A, b, cfg2, hooks=(lambda s: ks2.append(s.k),))
    assert ks2 == [0, 4, 8, 9]


def test_hook_stops_run():
    rng = RngStream(519)
    A = rng.normal_array(20 * 5).reshape(20, 5)
    x_true = rng.normal_array(5)
    b = A @ x_true

    def good_enough(state):
        return np.linalg.norm(A @ state.x - b) <= 1e-6 * np.linalg.norm(b)

    cfg = preset("rk", A, max_iterations=10**6, seed=2, checkpoint_interval=50)
    report = run(A, b, cfg, hooks=(good_enough,))
    assert report.stop_reason == "tolerance_met"
    assert report.iterations < 10**6
    assert report.iterations % 50 == 0 or report.iterations == 10**6


def test_run_reports_wall_time():
    A = np.eye(3)
    b = np.ones(3)
    report = run(A, b, preset("rk", A, max_iterations=10, seed=0))
    assert report.wall_time >= 0.0
    assert report.iterations == 10


def test_draw_indices_interleave_z_then_x():
    rng = RngStream(520)
    A = rng.normal_array(6 * 4).reshape(6, 4)
    cfg = preset("rek", A, max_iterations=1, seed=4, stream=2,
                 row_partition=row_partition(A, probabilities=[0.1, 0.1, 0.2, 0.2, 0.3, 0.1]),
                 col_partition=column_partition(A, probabilities=[0.4, 0.3, 0.2, 0.1]))
    a, b = RngStream(4, 2), RngStream(4, 2)
    cols, rows = draw_indices(cfg, a, 300)
    for j, i in zip(cols, rows):
        assert j == cfg.col_partition.sample(b)
        assert i == cfg.row_partition.sample(b)
    assert a.next_u64() == b.next_u64()
    cfg_x = preset("srk", A, lam=1.0, max_iterations=1, seed=4)
    cols, rows = draw_indices(cfg_x, RngStream(4), 50)
    assert cols is None
    mirror = RngStream(4)
    assert rows.tolist() == [cfg_x.row_partition.sample(mirror) for _ in range(50)]


def test_lockstep_copies_are_row_major():
    # an iteration gathers one row of each copy per system; in a column-major
    # stack each gathered row would stride over the whole batch
    rng = RngStream(530)
    for field in ("real", "complex"):
        As = [rng.gaussian_array(8 * 5, field).reshape(8, 5) for _ in range(3)]
        bs = [A @ rng.gaussian_array(5, field) for A in As]
        cfgs = [preset("rek", A, max_iterations=10, seed=t) for t, A in enumerate(As)]
        for systems in ((As, bs, cfgs), (As[:1], bs[:1], cfgs[:1])):
            session = Session(*systems)
            assert session.A_rm_conj.flags.c_contiguous
            assert session.A_cm.flags.c_contiguous
            assert np.array_equal(session.A_rm_conj, np.concatenate(systems[0]).conj())
            assert np.array_equal(session.A_cm, np.concatenate([A.T for A in systems[0]]))


def test_checkpoint_chunking_does_not_change_the_run():
    # chunks of 1, 7 and m iterations, and one longer than the draw buffer;
    # the iteration count is a multiple of none of them
    rng = RngStream(521)
    m = 9
    A = rng.normal_array(m * 5).reshape(m, 5)
    b = rng.normal_array(m)
    Ac = rng.complex_normal_array(m * 5).reshape(m, 5)
    bc = rng.complex_normal_array(m)
    iters = 2 * DRAW_CHUNK + 13
    cases = (
        (A, b, "srk", dict(lam=0.5)),
        (A, b, "gerk_bd", dict(lam=0.5, eps=0.1, tau=0.05)),
        (Ac, bc, "gerk_ad", dict(lam=0.5)),
    )
    for M, v, name, kw in cases:
        states = []
        for interval in (1, 7, m, DRAW_CHUNK + 5):
            cfg = preset(name, M, max_iterations=iters, seed=3, checkpoint_interval=interval,
                         **kw)
            per_iter = 2 if cfg.z_update_enabled else 1

            def counted(state):
                # indices drawn ahead are not counted until their iterations run
                assert state.rng._counter == state.k * per_iter

            states.append(run(M, v, cfg, hooks=(counted,)).state)
        draws = iters * per_iter
        for state in states:
            assert state.k == iters
            assert state.rng._counter == draws
            assert np.array_equal(state.x, states[0].x)
            assert np.array_equal(state.xstar, states[0].xstar)
            if cfg.z_update_enabled:
                assert np.array_equal(state.zstar, states[0].zstar)
        # single steps are chunks of one too, also past cfg.max_iterations
        cfg40 = preset(name, M, max_iterations=40, seed=3, **kw)
        ran = run(M, v, cfg40).state
        for step_cfg in (cfg, preset(name, M, max_iterations=1, seed=3, **kw)):
            stepped = init_state(M, v, step_cfg)
            for _ in range(40):
                gerk_step(stepped, M, v, step_cfg)
            assert np.array_equal(stepped.x, ran.x)
            assert stepped.rng._counter == ran.rng._counter


SHARED_KW = dict(lam=0.5, eps=0.1, tau=0.05)


def shared_systems(field, trials, iters=37, interval=5):
    """trials systems and, per preset name, their configs over shared partitions."""
    rng = RngStream(540)
    As = [rng.gaussian_array(12 * 6, field).reshape(12, 6) for _ in range(trials)]
    bs = [rng.gaussian_array(12, field) for _ in range(trials)]
    rows, cols = [row_partition(A) for A in As], [column_partition(A) for A in As]
    cfgs = {name: [preset(name, A, **SHARED_KW, max_iterations=iters, seed=60 + t, stream=1,
                          checkpoint_interval=interval, row_partition=row, col_partition=col)
                   for t, (A, row, col) in enumerate(zip(As, rows, cols))]
            for name in PRESET_NAMES}
    return As, bs, cfgs


def snapshot(snaps):
    def hook(state):
        snaps.append((state.k, state.x.copy(), state.xstar.copy(),
                      None if state.zstar is None else state.zstar.copy()))
    return hook


def assert_snaps_equal(a, b):
    assert len(a) == len(b)
    for (ka, *arrays_a), (kb, *arrays_b) in zip(a, b):
        assert ka == kb
        for u, v in zip(arrays_a, arrays_b):
            assert (u is None and v is None) or np.array_equal(u, v)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("trials", [1, 3])
def test_shared_presets_equal_each_preset_alone(field, trials):
    # every checkpoint's x, x* and z*, the final state and the draws consumed
    # are bit-equal to the preset run alone on each system, in either order;
    # the second order splits the identity misfits (rek, gerk_ad) apart
    As, bs, cfgs = shared_systems(field, trials)
    alone = {}
    for name in PRESET_NAMES:
        for t in range(trials):
            alone[name, t] = snaps = []
            report = run(As[t], bs[t], cfgs[name][t], hooks=(snapshot(snaps),))
            snaps.append(report.state.rng._counter)
    for order in (PRESET_NAMES, ("gerk_ad", "srk", "gerk_bd", "rk", "rek")):
        for z_on in (False, True):
            names = [name for name in order if cfgs[name][0].z_update_enabled == z_on]
            session = Session(As, bs, [cfgs[name] for name in names])
            assert session.state.x.shape == (len(names),) + (trials,) * (trials > 1) + (6,)
            shared = {(name, t): [] for name in names for t in range(trials)}
            assert session.finish([(snapshot(shared[key]),) for key in shared]) == "max_iterations"
            for key, state in zip(shared, session.states()):
                shared[key].append(state.rng._counter)
                assert_snaps_equal(shared[key][:-1], alone[key][:-1])
                assert shared[key][-1] == alone[key][-1]


def test_one_preset_keeps_the_state_shapes():
    As, bs, cfgs = shared_systems("real", 3)
    assert Session(As, bs, [cfgs["rek"]]).state.zstar.shape == (3, 12)
    assert Session(As, bs, cfgs["rek"]).state.zstar.shape == (3, 12)
    assert Session(As[0], bs[0], cfgs["rek"][0]).state.zstar.shape == (12,)


@pytest.mark.parametrize("trials", [1, 3])
def test_presets_of_one_misfit_share_a_z_chain(trials):
    # rek and gerk_ad, both quadratic, hold one z* slab; gerk_bd adds a second
    As, bs, cfgs = shared_systems("real", trials)
    batch = (trials,) * (trials > 1)
    for names, chains in ((("rek", "gerk_ad"), ()), (("rek", "gerk_ad", "gerk_bd"), (2,)),
                          (("gerk_ad", "gerk_bd", "rek"), (2,))):
        session = Session(As, bs, [cfgs[name] for name in names])
        assert session.state.zstar.shape == chains + batch + (12,)
        session.advance(20)
        states = dict(zip([(name, t) for name in names for t in range(trials)], session.states()))
        for t in range(trials):
            assert np.shares_memory(states["rek", t].zstar, states["gerk_ad", t].zstar)
            if "gerk_bd" in names:
                assert not np.shares_memory(states["rek", t].zstar, states["gerk_bd", t].zstar)
    # negative control: another misfit of the same column step (1/eps + tau =
    # 10.05) runs its own chain.  The same misfit on other column steps cannot
    # be built: a column partition of other norms is refused
    other_g = [dataclasses.replace(c, g=HuberQuadMisfit(0.2, 5.05)) for c in cfgs["gerk_bd"]]
    session = Session(As, bs, [cfgs["gerk_bd"], other_g])
    assert session.state.zstar.shape == (2,) + batch + (12,)
    assert np.array_equal(session.t_col[0], session.t_col[1])
    other_t = [dataclasses.replace(c, col_partition=BlockPartition(
        "column", 6, c.col_partition.blocks, 2.0 * c.col_partition.block_sq_norms))
        for c in cfgs["gerk_bd"]]
    with pytest.raises(ValueError, match="^the column partition of system 0 was built on another"):
        Session(As, bs, [cfgs["gerk_bd"], other_t])


def test_shared_presets_must_share_the_draws():
    # negative controls: presets that differ in any field fixing the draws or
    # the checkpoints are refused, naming the field
    As, bs, cfgs = shared_systems("real", 2)
    A = As[1]
    skewed = np.linspace(1.0, 2.0, 12)
    changes = {
        "z_update_enabled": cfgs["srk"][1],
        "row_partition": dataclasses.replace(
            cfgs["gerk_ad"][1], row_partition=row_partition(A, probabilities=skewed / skewed.sum())),
        "col_partition": dataclasses.replace(
            cfgs["gerk_ad"][1], col_partition=column_partition(A, probabilities=[0.5] + [0.1] * 5)),
        "seed": dataclasses.replace(cfgs["gerk_ad"][1], seed=99),
        "stream": dataclasses.replace(cfgs["gerk_ad"][1], stream=0),
        "max_iterations": dataclasses.replace(cfgs["gerk_ad"][1], max_iterations=36),
        "checkpoint_interval": dataclasses.replace(cfgs["gerk_ad"][1], checkpoint_interval=None),
    }
    for field, changed in changes.items():
        with pytest.raises(ValueError, match=field):
            Session(As, bs, [cfgs["rek"], [cfgs["gerk_ad"][0], changed]])
    with pytest.raises(ValueError, match="one config per system"):
        Session(As, bs, [cfgs["rek"], cfgs["gerk_ad"][:1]])
    # equal partitions built apart are the same draws
    rebuilt = [dataclasses.replace(c, row_partition=row_partition(M), col_partition=column_partition(M))
               for c, M in zip(cfgs["gerk_ad"], As)]
    Session(As, bs, [cfgs["rek"], rebuilt])


def signed(snaps):
    """snapshot's records with every array as its bytes, so zeros keep their sign."""
    return [(k, *(None if a is None else a.tobytes() for a in arrays)) for k, *arrays in snaps]


def negative_zeros(a):
    return np.signbit(a.view(float)) & (a.view(float) == 0.0)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("trials", [1, 3])
def test_all_presets_in_one_session_equal_each_preset_alone(field, trials):
    # presets with and without the z-update advance in one loop, over two draw
    # groups; the second order interleaves the groups and splits the equal
    # regularizers apart (gerk_ad from srk and gerk_bd, rk from rek).  Every
    # checkpoint's x, x* and z*, zero signs included, the final state and each
    # preset's draws consumed are bit-equal to the preset run alone
    As, bs, cfgs = shared_systems(field, trials)
    alone = {}
    for name in PRESET_NAMES:
        for t in range(trials):
            snaps = []
            report = run(As[t], bs[t], cfgs[name][t], hooks=(snapshot(snaps),))
            alone[name, t] = signed(snaps), report.state.rng._counter
    # some x holds -0.0, so the sign bits are compared where they can differ
    assert any(negative_zeros(np.frombuffer(x, As[0].dtype)).any()
               for snaps, _ in alone.values() for _, x, *_ in snaps)
    for order in (PRESET_NAMES, ("gerk_ad", "rk", "gerk_bd", "srk", "rek")):
        session = Session(As, bs, [cfgs[name] for name in order])
        shared = {(name, t): [] for name in order for t in range(trials)}
        assert session.finish([(snapshot(shared[key]),) for key in shared]) == "max_iterations"
        for key, state in zip(shared, session.states()):
            assert state.k == 37
            assert (signed(shared[key]), state.rng._counter) == alone[key]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_dual_iterate_holds_no_negative_zero(field):
    # a preset without the z-update adds the zeros past the z* chains in the
    # x-step, which would turn a w of -0.0 into +0.0.  That leaves x*
    # bit-equal only because x* never holds -0.0: it starts at +0.0, and exact
    # differences round to +0.0.  Sparse integer rows make exact zeros in x*
    rng = np.random.default_rng(11)
    A = rng.integers(-2, 3, (12, 6)) * (rng.random((12, 6)) < 0.4)
    A[np.arange(12), np.arange(12) % 6] = 1  # no zero row or column
    A = A.astype(complex) * (1 + 1j) if field == "complex" else A.astype(float)
    b = A @ rng.integers(-1, 2, 6)
    cfgs = [[preset(name, A, **SHARED_KW, max_iterations=60, seed=5, checkpoint_interval=1)]
            for name in PRESET_NAMES]
    session = Session([A], [b], cfgs)
    zeros = 0
    for states in session.checkpoints():
        for state in states:
            assert not negative_zeros(state.xstar).any()
            zeros += int(np.count_nonzero(state.xstar == 0)) if state.k else 0
    assert zeros > 0


def scaled_steps(potential, scale):
    """A copy of a regularizer or misfit whose step sizes 1/(L ||block||^2) are
    `scale` times its own: L / scale.  A partition holds the norms of the A
    it runs on, so the Lipschitz constant is the lever on the steps."""
    scaled = copy.copy(potential)
    name = "conj_lipschitz" if hasattr(potential, "conj_lipschitz") else "grad_lipschitz"
    setattr(scaled, name, getattr(potential, name) / scale)
    return scaled


def worst_descent_excess(A, b, x_hat, rows, scale, steps=400):
    """Largest D_{k+1} - D_k + 1/2 ||x*_{k+1} - x*_k||^2 - 1e-12 D_0 over the
    steps of rk and srk, each advanced one step at a time, with every row
    step scaled by `scale`: in a session of all five presets over single-index
    rows, and each alone over multi-index blocks, which a session of several
    presets does not take."""
    def cfg(name):
        c = preset(name, A, **SHARED_KW, max_iterations=steps, seed=8, row_partition=rows)
        return dataclasses.replace(c, f=scaled_steps(c.f, scale))

    names = ("rk", "srk")
    if rows.trivial:
        sessions = [Session([A], [b], [[cfg(name)] for name in PRESET_NAMES])]
        watched = [(sessions[0], PRESET_NAMES.index(name), cfg(name).f) for name in names]
    else:
        sessions = [Session(A, b, cfg(name)) for name in names]
        watched = [(session, 0, cfg(name).f) for session, name in zip(sessions, names)]

    def distances():
        return [(state.xstar.copy(), bregman_distance(f, state.x, state.xstar, x_hat))
                for state, f in ((session.states()[p], f) for session, p, f in watched)]

    before = distances()
    d0 = [d for _, d in before]
    worst = -np.inf
    for _ in range(steps):
        for session in sessions:
            session.advance(1)
        after = distances()
        for (xs0, d_k), (xs1, d_k1), start in zip(before, after, d0):
            gain = 0.5 * float(np.sum((xs1 - xs0) ** 2))
            worst = max(worst, d_k1 - d_k + gain - 1e-12 * start)
        before = after
    return worst


def test_rk_and_srk_bregman_distance_descends_at_every_step():
    # Schopfer & Lorenz 2019: grad f* is 1-Lipschitz and the row step is
    # 1/||A_i||^2 (spectral norm), so for any solution x_hat of a consistent
    # system the Bregman distance D_k = f*(x*_k) - <x*_k, x_hat> + f(x_hat)
    # falls by at least 1/2 ||x*_{k+1} - x*_k||^2 at every step, whatever the
    # row probabilities, on single rows and on blocks (||A_i^H w|| <= ||A_i|| ||w||)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 12)) * rng.uniform(0.2, 3.0, (30, 1))
    x_hat = np.zeros(12)
    x_hat[rng.choice(12, 3, replace=False)] = rng.standard_normal(3)
    b = A @ x_hat
    sq_norms = np.sum(A * A, axis=1)
    for rows in (row_partition(A), row_partition(A, probabilities=sq_norms / sq_norms.sum()),
                 row_partition(A, blocks=contiguous_blocks(30, 15))):
        assert worst_descent_excess(A, b, x_hat, rows, 1.0) <= 0.0
        # negative control: the step 2.5/||A_i||^2 overshoots the block's solution set
        assert worst_descent_excess(A, b, x_hat, rows, 2.5) > 0.0


def z_chain_errors(A, b, rank, scale, steps):
    """(||P_null e_k||, ||e_k||) at every step of rek with its column steps
    scaled by `scale`, e_k = z*_k - (b - P_range(A) b), and whether a z-chain
    worker ran."""
    target = b - range_projection_quadratic(A, b).value
    basis = np.linalg.svd(A)[0][:, :rank]  # of range(A)
    cfg = preset("rek", A, max_iterations=steps, seed=12, checkpoint_interval=1)
    session = Session(A, b, dataclasses.replace(cfg, g=scaled_steps(cfg.g, scale)))
    errors, forked = [], False
    for (state,) in session.checkpoints():
        e = state.zstar - target
        errors.append((np.linalg.norm(e - basis @ (basis.T @ e)), np.linalg.norm(e)))
        forked |= session._worker is not None
    return np.array(errors), forked


@pytest.mark.parametrize("worker", [False, True])
def test_rek_z_chain_error_stays_in_range_and_never_grows(worker, monkeypatch):
    # Zouzias & Freris 2013: z*_0 = b and each column step subtracts a
    # multiple of a column of A, so e_k = z*_k - (b - P_range(A) b) stays in
    # range(A), and the step 1/||a_j||^2 projects e_k onto the hyperplane
    # orthogonal to a_j, so ||e_k|| never grows.  Checked in-process and
    # through the z-chain worker, on an experiment-i system (nullspace noise)
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: worker)
    inst = gen_experiment_i(40, 20, 10, 3, 5.0, 0.1, 10.0, "real", RngStream(1500))
    errors, forked = z_chain_errors(inst.A, inst.b, 10, 1.0, 1500)
    assert forked == worker
    e0 = errors[0, 1]
    assert np.all(errors[:, 0] <= 1e-12 * e0)
    assert np.all(np.diff(errors[:, 1]) <= 1e-12 * e0)
    assert errors[-1, 1] < 0.1 * e0
    # negative control: the step 2.5/||a_j||^2 overshoots the hyperplane
    errors, _ = z_chain_errors(inst.A, inst.b, 10, 2.5, 200)
    assert np.diff(errors[:, 1]).max() > 1e-12 * e0


def test_rek_z_chain_meets_the_expected_rate():
    # Zouzias & Freris 2013: e_k stays in range(A), so under uniform columns
    # and the step 1/||a_j||^2, E||e_{k+1}||^2 <= q E||e_k||^2 with
    # q = 1 - s^2 / (n max_j ||a_j||^2), s the least nonzero singular value
    # of A; the mean of ||e_k||^2 over seeds is then at most q^k ||e_0||^2.
    # 200 seeds of rek in lockstep on one experiment-i system (rank 10)
    inst = gen_experiment_i(40, 20, 10, 3, 5.0, 0.1, 10.0, "real", RngStream(1500))
    A, b = inst.A, inst.b
    target = b - range_projection_quadratic(A, b).value
    trials, steps = 200, 300
    rows, cols = row_partition(A), column_partition(A)
    session = Session([A] * trials, [b] * trials, [
        preset("rek", A, max_iterations=steps, seed=s, row_partition=rows, col_partition=cols)
        for s in range(trials)])
    mean_sq = []
    for _ in range(steps + 1):
        mean_sq.append(np.mean(np.sum((session.state.zstar - target) ** 2, axis=1)))
        session.advance(1)
    sv = np.linalg.svd(A, compute_uv=False)
    assert sv[10] < 1e-12 * sv[0]

    def worst_ratio(s):
        q = 1.0 - s ** 2 / (A.shape[1] * np.max(np.sum(A * A, axis=0)))
        return np.max(np.array(mean_sq) / (q ** np.arange(steps + 1) * mean_sq[0]))

    assert worst_ratio(sv[9]) <= 1.0
    # negative control: the largest singular value in place of the least
    assert worst_ratio(sv[0]) > 1.0


def test_rk_and_srk_bregman_distance_meets_the_expected_rate():
    # Schopfer & Lorenz 2019: on a consistent system with solution x_hat,
    # E D_{k+1} <= q E D_k with gamma from the error bound at x_hat
    # (certificates.gamma_hat) and q = 1 - 1/(2 gamma m max_i ||a_i||^2) under
    # uniform rows, q = 1 - 1/(2 gamma ||A||_F^2) under p_i ~ ||a_i||^2
    # (Strohmer & Vershynin 2009); the mean of D_k over seeds is then at most
    # q^k D_0.  200 seeds in lockstep, on the system of the per-step descent test
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 12)) * rng.uniform(0.2, 3.0, (30, 1))
    x_hat = np.zeros(12)
    x_hat[rng.choice(12, 3, replace=False)] = rng.standard_normal(3)
    b = A @ x_hat
    sq_norms = np.sum(A * A, axis=1)
    trials, steps = 200, 400
    # negative controls: gamma / 1000, and for rk gamma / 100, whose q is the
    # one in (0, 1) of the two (at gamma / 1000 it is negative)
    for name, lam, divisors in (("rk", None, (100, 1000)), ("srk", 0.5, (1000,))):
        gamma = gamma_hat(A, x_hat, lam or 0.0).gamma
        for probs, scale in ((None, 30 * sq_norms.max()),
                             (sq_norms / sq_norms.sum(), sq_norms.sum())):
            rows = row_partition(A, probabilities=probs)
            cfgs = [preset(name, A, lam=lam, max_iterations=steps, seed=s, row_partition=rows)
                    for s in range(trials)]
            session = Session([A] * trials, [b] * trials, cfgs)
            f_hat = cfgs[0].f.value(x_hat)
            mean_d = []
            for _ in range(steps + 1):
                x, xstar = session.state.x, session.state.xstar
                mean_d.append(np.mean(0.5 * np.sum(x * x, axis=1) - xstar @ x_hat) + f_hat)
                session.advance(1)
            mean_d = np.array(mean_d)

            def exceeds(g):
                q = 1.0 - 1.0 / (2.0 * g * scale)
                return np.any(mean_d > q ** np.arange(steps + 1) * mean_d[0])

            assert not exceeds(gamma), (name, probs is None)
            for divisor in divisors:
                assert exceeds(gamma / divisor), (name, probs is None, divisor)


def test_gerk_ad_bregman_distance_meets_the_coupled_rate():
    """gerk_ad on b = y_hat + r, y_hat = A x_hat and r in null(A^T), with rows
    drawn by p_i ~ ||a_i||^2 and uniform columns: the mean over seeds of D_k =
    D(x*_k, x_hat) stays under B_k, built from the two tested one-step
    inequalities.

    The z-chain is rek's: e_k = z*_k - r stays in range(A), and E||e_{k+1}||^2
    <= q_z E||e_k||^2 with q_z = 1 - s^2 / (n max_j ||a_j||^2), s the least
    singular value of A (test_rek_z_chain_meets_the_expected_rate).  As e_0 =
    b - r = y_hat, E||e_k||^2 <= q_z^k ||y_hat||^2.

    The x-step of iteration k + 1 is srk's on A x = y_hat with its residual
    shifted by e = e_{k+1}: w = rho + e_i, rho = <a_i, x_k> - y_hat_i.  grad f*
    is 1-Lipschitz, so with d = x*_{k+1} - x*_k = -w a_i / ||a_i||^2,
    D_{k+1} - D_k <= <x_k - x_hat, d> + ||d||^2 / 2
                   = (-rho w + w^2 / 2) / ||a_i||^2 = (e_i^2 - rho^2) / (2 ||a_i||^2),
    which at e = 0 is the descent by ||d||^2 / 2 of the per-step test.  Row i
    is drawn apart from e, so with F = ||A||_F^2, E_i rho^2 / ||a_i||^2 =
    ||A x_k - y_hat||^2 / F >= D_k / (gamma F), by the error bound D <= gamma
    ||A x - y_hat||^2 of the srk rate test (x*_k lies in range(A^T)), and
    E_i e_i^2 / ||a_i||^2 = ||e||^2 / F.  Hence
    E D_{k+1} <= q_x E D_k + c q_z^{k+1} ||y_hat||^2,
    q_x = 1 - 1 / (2 gamma F),  c = 1 / (2 F),
    and B_0 = D_0, B_{k+1} = q_x B_k + c q_z^{k+1} ||y_hat||^2.  Under uniform
    rows c would be 1 / (2 m min_i ||a_i||^2), 50 times larger here, and B_k
    would rise to 340 D_0.

    Negative controls: gamma / 100 and gamma / 1000 each fire at k = 1.  What
    the bound cannot see: both tested rates are worst-case constants, far
    below the observed ones (1 - q_x = 5.6e-4 and 1 - q_z = 3.1e-3 a step,
    while the mean D_k falls about 3% a step and the mean ||e_k||^2 3.5%),
    so B_k peaks near 6.6 D_0 and a run whose D_k stalls below that passes;
    for the same reason the largest singular value in place of the least
    does not fire alone.
    """
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 12)) * rng.uniform(0.2, 3.0, (30, 1))
    x_hat = np.zeros(12)
    x_hat[rng.choice(12, 3, replace=False)] = rng.standard_normal(3)
    y_hat = A @ x_hat
    r = np.linalg.svd(A)[0][:, 12:] @ rng.standard_normal(18)  # in null(A^T)
    lam, trials, steps = 0.5, 200, 600
    row_sq, col_sq = np.sum(A * A, axis=1), np.sum(A * A, axis=0)
    rows = row_partition(A, probabilities=row_sq / row_sq.sum())
    cols = column_partition(A)
    cfgs = [preset("gerk_ad", A, lam=lam, max_iterations=steps, seed=s, row_partition=rows,
                   col_partition=cols) for s in range(trials)]
    session = Session([A] * trials, [y_hat + r] * trials, cfgs)
    f_hat = cfgs[0].f.value(x_hat)
    mean_d = []
    for _ in range(steps + 1):
        x, xstar = session.state.x, session.state.xstar
        mean_d.append(np.mean(0.5 * np.sum(x * x, axis=1) - xstar @ x_hat) + f_hat)
        session.advance(1)
    mean_d = np.array(mean_d)
    n, frob = A.shape[1], row_sq.sum()
    s_min = np.linalg.svd(A, compute_uv=False)[-1]
    gamma = gamma_hat(A, x_hat, lam).gamma
    q_z = 1.0 - s_min ** 2 / (n * col_sq.max())
    z_terms = q_z ** np.arange(1, steps + 1) * (y_hat @ y_hat) / (2.0 * frob)

    def first_exceeding(g):
        q_x = 1.0 - 1.0 / (2.0 * g * frob)
        bound = [mean_d[0]]
        for z_term in z_terms:
            bound.append(q_x * bound[-1] + z_term)
        over = np.nonzero(mean_d > np.array(bound))[0]
        return over[0] if len(over) else None

    assert first_exceeding(gamma) is None
    assert first_exceeding(gamma / 100) == first_exceeding(gamma / 1000) == 1


def test_a_preset_shares_f_and_g_across_systems():
    # one preset over two systems runs as its first config's f and g, so
    # configs that differ there are refused, naming the field.  srk on system
    # 0 and gerk_ad on system 1 ran system 1 as srk, with z* None
    As, bs, cfgs = shared_systems("real", 2)
    with pytest.raises(ValueError, match="share g"):
        Session(As, bs, [cfgs["srk"][0], cfgs["gerk_ad"][1]])
    with pytest.raises(ValueError, match="share f"):
        Session(As, bs, [cfgs["rek"][0], cfgs["gerk_ad"][1]])
    with pytest.raises(ValueError, match="share f"):
        Session(As, bs, [cfgs["srk"], [cfgs["rk"][0], cfgs["srk"][1]]])
    # equal potentials built apart are one preset
    rebuilt = dataclasses.replace(cfgs["gerk_bd"][1], f=ElasticNet(0.5), g=HuberQuadMisfit(0.1, 0.05))
    Session(As, bs, [cfgs["gerk_bd"][0], rebuilt])


@pytest.mark.parametrize("worker", [False, True])
def test_draw_window_holds_each_chunk_whole(worker, monkeypatch):
    # checkpoints every 800 iterations cut chunks of at most 400 that a
    # 1024-iteration window splits: the chunk it does not hold whole is
    # drawn again from its first iteration, so every chunk is a slice of one
    # _draw call's arrays, and no call draws past max_iterations, in-process
    # and through the z-chain worker (which sizes its slots from _draw(0))
    monkeypatch.setattr(solver, "_worker_pays", lambda iterations, interval: worker)
    draws, chunks = [], []
    draw, take = Session._draw, Session._take

    def drawn(self, count, ahead=0):
        arrays = draw(self, count, ahead)
        draws.append((self.state.k + ahead, count, arrays))
        return arrays

    def taken(self, k, count, horizon):
        arrays = take(self, k, count, horizon)
        start, length, whole = draws[-1]
        assert start <= k and k + count <= start + length
        assert all(a is None or np.shares_memory(a, w) and len(a) == count
                   for a, w in zip(arrays, whole))
        chunks.append((k, count))
        return arrays

    monkeypatch.setattr(Session, "_draw", drawn)
    monkeypatch.setattr(Session, "_take", taken)
    As, bs, cfgs = shared_systems("real", 2, iters=4000, interval=800)
    at_1000 = [dataclasses.replace(c, checkpoint_interval=1000) for c in cfgs["gerk_bd"]]
    for presets, interval, windows in (
            ([cfgs["rk"], cfgs["gerk_bd"]], 800, [0, 800, 1600, 2400, 3200]),
            # chunks of 400, 400 and 200 fill 1000 of a window's 1024 iterations
            ([at_1000], 1000, [0, 1000, 2000, 3000])):
        draws.clear()
        chunks.clear()
        session = Session(As, bs, presets)
        ks = [states[0].k for states in session.checkpoints()]
        assert ks == list(range(0, 4001, interval))
        assert session.worker_record.forked_at == (0 if worker else None)
        # the worker's slots are sized by a draw of zero iterations
        assert [(k, count) for k, count, _ in draws] == [(0, 0)] * worker + [
            (k, min(DRAW_CHUNK, 4000 - k)) for k in windows]
        # the chunks run 0 to 4000 in order
        starts = itertools.accumulate([count for _, count in chunks], initial=0)
        assert [k for k, _ in chunks] + [4000] == list(starts)
        assert max(count for _, count in chunks) == solver.PIPE_CHUNK


def test_draw_equals_draw_indices_stream_by_stream():
    # _draw is draw_indices stream by stream, skipped `ahead` iterations and
    # back: T = 3 systems, the presets rk (no z-update) and gerk_bd (z-update)
    # in one session, over the default uniform tables and norm-proportional
    # ones; every stream's counter is back at 0 after the call
    rng = RngStream(560)
    T, m, n, count = 3, 12, 6, 50
    As = [rng.gaussian_array(m * n, "real").reshape(m, n) for _ in range(T)]
    bs = [rng.gaussian_array(m, "real") for _ in range(T)]
    for proportional in (False, True):
        def parts(A):
            if not proportional:
                return row_partition(A), column_partition(A)
            rows, cols = (A * A).sum(axis=1), (A * A).sum(axis=0)
            return (row_partition(A, probabilities=rows / rows.sum()),
                    column_partition(A, probabilities=cols / cols.sum()))

        presets = [[preset(name, A, **SHARED_KW, max_iterations=500, seed=80 + t,
                           stream=2 * t + (name == "gerk_bd"), row_partition=parts(A)[0],
                           col_partition=parts(A)[1]) for t, A in enumerate(As)]
                   for name in ("rk", "gerk_bd")]
        session = Session(As, bs, presets)
        fj, tc, fi, tr, bi = session._draw(count, ahead=7)
        for t in range(T):
            for p, cfg in enumerate(c[t] for c in presets):
                stream = RngStream(cfg.seed, cfg.stream)
                stream.skip(7 * (2 if cfg.z_update_enabled else 1))
                cols, rows = draw_indices(cfg, stream, count)
                assert (fi[:, p, t] - t * m).tobytes() == rows.tobytes()
                if cols is not None:
                    assert (fj[:, t] - t * n).tobytes() == cols.tobytes()
        assert all(r._counter == 0 for r in session._rngs)


def test_state_continues_a_session_of_one_preset():
    # state= with several presets raised UnboundLocalError ('zbuf'): only the
    # fresh state built the z-slab of the presets without the z-update
    rng = np.random.default_rng(0)
    A, b = rng.standard_normal((8, 4)), rng.standard_normal(8)
    cfgs = [[preset(name, A, lam=0.5, max_iterations=10, seed=0)]
            for name in ("rek", "gerk_ad", "rk")]
    state = Session(A, b, cfgs[0][0]).state
    with pytest.raises(ValueError, match="state continues a session of one preset, not 3"):
        Session([A], [b], cfgs, state=state)
    # one preset over several systems continues: 4 then 6 iterations equal 10
    As, bs, shared = shared_systems("real", 3, iters=10)
    for name in ("rk", "gerk_bd"):
        whole = Session(As, bs, shared[name]).advance(10)
        part = Session(As, bs, shared[name]).advance(4)
        continued = Session(As, bs, shared[name], state=part).advance(6)
        assert continued.k == whole.k == 10
        for a, w in ((continued.x, whole.x), (continued.zstar, whole.zstar)):
            assert (a is None and w is None) or np.array_equal(a, w)


@pytest.mark.parametrize("scale, eps, tau", [
    (1e-100, 1e200, 1e-200),  # L_g ||a_j||^2 = 2e-200 * ||a_j||^2 underflows: the step was inf
    (1e5, 1e-300, 1.0),  # L_g ||a_j||^2 = 1e300 * ||a_j||^2 overflows: the step was 0
])
def test_a_step_size_that_is_not_finite_and_positive_is_refused(scale, eps, tau):
    # the underflow case gave x all NaN after 5 iterations, with stop reason max_iterations
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 4))
    b = scale * (A @ rng.standard_normal(4))
    A = scale * A
    cfg = preset("gerk_bd", A, lam=1.0, eps=eps, tau=tau, max_iterations=5, seed=0)
    L = HuberQuadMisfit(eps, tau).grad_lipschitz
    with pytest.raises(ValueError) as info:
        run(A, b, cfg)
    assert str(info.value).startswith(f"a column step size 1/(L ||block||^2) at L = {L:g} is not")
    # positive control: the same parameters on the unscaled system
    report = run(A / scale, b / scale, preset("gerk_bd", A / scale, lam=1.0, eps=eps, tau=tau,
                                                max_iterations=5, seed=0))
    assert np.isfinite(report.state.x).all()


def test_a_misfit_gradient_of_b_that_overflows_is_refused():
    # z_0 = (1/max(eps, |b_i|) + tau) b_i overflows at tau = 1e300 on b x 1e10: x was
    # all NaN after 20 iterations, with stop reason max_iterations
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 4))
    b = A @ rng.standard_normal(4)

    def presets(*names):
        return [[preset(name, A, lam=1.0, eps=0.1, tau=1e300, max_iterations=2000, seed=0)]
                for name in names]

    message = r"^z_0 = grad g\*\(b\) of the huber_quad misfit overflows"
    for names in (["gerk_bd"], ["rek", "gerk_bd"]):  # the misfit named is the chain's own
        with pytest.raises(ValueError, match=message):
            Session([A], [1e10 * b], presets(*names))
    # positive control: the unscaled system converges
    x = Session(A, b, presets("gerk_bd")[0][0]).advance(2000).x
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_an_iterate_that_goes_non_finite_raises():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 4))
    x0 = rng.standard_normal(4)
    b = A @ x0
    # rk with steps 2.5 times too long diverges: x was all NaN after 20,000
    # iterations, with stop reason max_iterations
    cfg = preset("rk", A, max_iterations=20000, seed=0)
    cfg = dataclasses.replace(cfg, f=scaled_steps(cfg.f, 2.5))
    with pytest.raises(NonFiniteIterate, match=r"^the iterate x\* is not finite at iteration 5120;"):
        run(A, b, cfg)
    # a_j^H z overflows in the z-step before its 1/||a_j||^2 scales it down
    A_big, b_big = 1e126 * A, 1e238 * b
    for name in ("rek", "gerk_ad"):
        cfg = preset(name, A_big, lam=1.0, max_iterations=200, seed=0)
        with pytest.raises(NonFiniteIterate, match=r"^the iterate z\* is not finite at iteration"):
            run(A_big, b_big, cfg)
    # positive controls: the unscaled system and rk on the scaled one, whose
    # solution is 1e112 times the unscaled one's, converge
    for A_s, b_s, name, scale in ((A, b, "rek", 1.0), (A, b, "gerk_ad", 1.0),
                                  (A_big, b_big, "rk", 1e112)):
        x = run(A_s, b_s, preset(name, A_s, lam=1.0, max_iterations=2000, seed=0)).state.x
        assert np.linalg.norm(A @ (x / scale) - b) <= 1e-10 * np.linalg.norm(b)


def test_lockstep_systems_must_match_system_0():
    rng = RngStream(571)
    A, A_wide = rng.normal_array(8 * 4).reshape(8, 4), rng.normal_array(8 * 5).reshape(8, 5)
    Z = A + 1j * rng.normal_array(8 * 4).reshape(8, 4)
    b, z = rng.normal_array(8), rng.complex_normal_array(8)

    def cfg(M):
        return preset("rk", M, max_iterations=5, seed=0)

    with pytest.raises(DimensionMismatch, match=r"^system 1 has shape \(8, 5\), system 0 \(8, 4\)$"):
        Session([A, A_wide], [b, b], [cfg(A), cfg(A_wide)])
    with pytest.raises(FieldMismatch, match="^system 1 and system 0 must both be real"):
        Session([A, Z], [b, z], [cfg(A), cfg(Z)])
    Session([A, 2.0 * A], [b, b], [cfg(A), cfg(2.0 * A)]).advance(5)  # positive control


def test_systems_and_right_hand_sides_of_different_counts_are_refused():
    # two systems and one right-hand side once ran one system, dropping A2
    rng = np.random.default_rng(0)
    A1, A2 = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    b1, b2 = rng.standard_normal(6), rng.standard_normal(6)
    with pytest.raises(DimensionMismatch, match=r"^2 systems but 1 right-hand sides$"):
        Session([A1, A2], [b1], [[preset("rk", A1, max_iterations=5, seed=0)]])
    with pytest.raises(DimensionMismatch, match=r"^1 systems but 2 right-hand sides$"):
        Session([A1], [b1, b2], [[preset("rk", A1, max_iterations=5, seed=0)]])
    # positive control: two of each run two systems
    cfgs = [preset("rk", A, max_iterations=5, seed=0) for A in (A1, A2)]
    session = Session([A1, A2], [b1, b2], [cfgs])
    assert session.batch == (2,) and len(session.states()) == 2


def test_config_checks_of_a_session():
    rng = RngStream(570)
    A, A2 = (rng.normal_array(8 * 4).reshape(8, 4) for _ in range(2))
    b, b2 = rng.normal_array(8), rng.normal_array(8)

    def blocked(M):
        return SolverConfig(f=Quadratic(), g=None, max_iterations=5, seed=0, col_partition=None,
                            row_partition=row_partition(M, blocks=contiguous_blocks(8, 3)))

    with pytest.raises(ValueError, match="lockstep need single-index partitions"):
        Session([A, A2], [b, b2], [blocked(A), blocked(A2)])
    Session(A, b, blocked(A)).advance(5)  # positive control: one system on blocks runs
    wrong = preset("rek", A, max_iterations=5, seed=0, col_partition=column_partition(A[:, :3]))
    with pytest.raises(DimensionMismatch, match="column partition must cover 4 columns"):
        run(A, b, wrong)
    with pytest.raises(ValueError, match="max_iterations must be >= 0"):
        run(A, b, preset("rk", A, max_iterations=-1, seed=0))


def test_a_partition_built_on_another_matrix_is_refused():
    # rk over the rows of a matrix of ones ran silently on another 6x4 system
    rng = np.random.default_rng(0)
    A, b = rng.standard_normal((6, 4)), rng.standard_normal(6)
    ones = np.ones((6, 4))
    message = "^the {} partition of system {} was built on another matrix"
    with pytest.raises(ValueError, match=message.format("row", 0)):
        run(A, b, preset("rk", ones, max_iterations=5000, seed=0))
    with pytest.raises(ValueError, match=message.format("column", 0)):
        run(A, b, preset("rek", A, max_iterations=5, seed=0, col_partition=column_partition(ones)))
    # single-index blocks in another order are checked at their own indices
    order = [[1], [0], [5], [2], [3], [4]]
    with pytest.raises(ValueError, match=message.format("row", 0)):
        run(A, b, preset("rk", A, max_iterations=5, seed=0,
                         row_partition=row_partition(ones + np.eye(6, 4), blocks=order)))
    run(A, b, preset("rk", A, max_iterations=5, seed=0, row_partition=row_partition(A, blocks=order)))
    # a lockstep system checks its own partitions, and a complex A its conjugate rows
    Z = A + 1j * rng.standard_normal((6, 4))
    for M, v in ((A, b), (Z, b + 1j * rng.standard_normal(6))):
        cfgs = [preset("rek", N, max_iterations=5, seed=0) for N in (M, M)]
        with pytest.raises(ValueError, match=message.format("row", 1)):
            Session([M, 2.0 * M], [v, v], cfgs)
        Session([M, 2.0 * M], [v, v], [cfgs[0], preset("rek", 2.0 * M, max_iterations=5, seed=0)])
    # blocks of several indices are the caller's to build on the same A
    blocked = row_partition(ones, blocks=contiguous_blocks(6, 2))
    run(A, b, preset("rk", A, max_iterations=5, seed=0, row_partition=blocked))


def test_presets_in_lockstep_need_partitions_in_index_order():
    # a second preset on single-index rows in another order ran each row with
    # another row's step, and x overflowed; alone it converges
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    b = A @ rng.standard_normal(4)
    rows = row_partition(A, blocks=[[1], [0], [2], [3], [4], [5]])
    cfgs = [preset("rk", A, max_iterations=5000, seed=0, row_partition=p) for p in (None, rows)]
    with pytest.raises(ValueError, match="lockstep need single-index partitions in index order"):
        Session([A], [b], [[c] for c in cfgs])
    x = run(A, b, cfgs[1]).state.x
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
