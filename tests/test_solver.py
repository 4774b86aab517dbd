import dataclasses

import numpy as np
import pytest

import gerk.solver as solver
from gerk.blocks import BlockPartition, column_partition, contiguous_blocks, row_partition
from gerk.errors import DimensionMismatch, FieldMismatch, MissingParameter, NonFiniteInput
from gerk.experiments import gen_experiment_i
from gerk.linalg import (
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
    # negative controls: another misfit of the same column step (1/eps + tau =
    # 10.05), or the same misfit with other column steps, runs its own chain
    other_g = [dataclasses.replace(c, g=HuberQuadMisfit(0.2, 5.05)) for c in cfgs["gerk_bd"]]
    other_t = [dataclasses.replace(c, col_partition=BlockPartition(
        "column", 6, c.col_partition.blocks, 2.0 * c.col_partition.block_sq_norms))
        for c in cfgs["gerk_bd"]]
    for other in (other_g, other_t):
        session = Session(As, bs, [cfgs["gerk_bd"], other])
        assert session.state.zstar.shape == (2,) + batch + (12,)
        assert np.array_equal(session.t_col[0], session.t_col[1]) == (other is other_g)


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


def worst_descent_excess(A, b, x_hat, rows, scale, steps=400):
    """Largest D_{k+1} - D_k + 1/2 ||x*_{k+1} - x*_k||^2 - 1e-12 D_0 over the
    steps of rk and srk, each advanced one step at a time, with every row
    step scaled by `scale`: in a session of all five presets over single-index
    rows, and each alone over multi-index blocks, which a session of several
    presets does not take."""
    rows = BlockPartition("row", A.shape[0], rows.blocks, rows.block_sq_norms / scale,
                          rows.probabilities)

    def cfg(name):
        return preset(name, A, **SHARED_KW, max_iterations=steps, seed=8, row_partition=rows)

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


def z_chain_errors(A, b, rank, cols, steps):
    """(||P_null e_k||, ||e_k||) at every step of rek over the column
    partition cols, e_k = z*_k - (b - P_range(A) b), and whether a z-chain
    worker ran."""
    target = b - range_projection_quadratic(A, b).value
    basis = np.linalg.svd(A)[0][:, :rank]  # of range(A)
    session = Session(A, b, preset("rek", A, max_iterations=steps, seed=12,
                                   checkpoint_interval=1, col_partition=cols))
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
    cols = column_partition(inst.A)
    errors, forked = z_chain_errors(inst.A, inst.b, 10, cols, 1500)
    assert forked == worker
    e0 = errors[0, 1]
    assert np.all(errors[:, 0] <= 1e-12 * e0)
    assert np.all(np.diff(errors[:, 1]) <= 1e-12 * e0)
    assert errors[-1, 1] < 0.1 * e0
    # negative control: the step 2.5/||a_j||^2 overshoots the hyperplane
    over = BlockPartition("column", 20, cols.blocks, cols.block_sq_norms / 2.5)
    errors, _ = z_chain_errors(inst.A, inst.b, 10, over, 200)
    assert np.diff(errors[:, 1]).max() > 1e-12 * e0


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
