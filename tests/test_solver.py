import numpy as np
import pytest

from gerk.blocks import column_partition, contiguous_blocks, row_partition
from gerk.errors import DimensionMismatch, FieldMismatch, MissingParameter, NonFiniteInput
from gerk.linalg import (
    make_rank_deficient,
    range_projector_apply,
    svd_pseudoinverse_apply,
)
from gerk.potentials import ElasticNet, Quadratic, QuadraticMisfit, real_inner
from gerk.rng import RngStream
from gerk.solver import (
    DRAW_CHUNK,
    SolverConfig,
    draw_indices,
    gerk_step,
    init_state,
    preset,
    residual_adaptive_z_stepsize,
    run,
    validate_config,
)


def naive_trajectory(A, b, f, g, z_on, row_part, col_part, seed, stream, steps,
                     z_mode="constant"):
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
            if z_mode == "residual_adaptive":
                den = real_inner(v, v)
                if den > 1e-300:
                    tz = real_inner(s, s) / (g.grad_lipschitz * den)
                else:
                    tz = 1.0 / (g.grad_lipschitz * col_part.block_sq_norms[j])
            else:
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
        z_mode=cfg.z_stepsize_mode,
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


def test_adaptive_z_stepsize_lockstep():
    rng = RngStream(506)
    A = rng.normal_array(10 * 6).reshape(10, 6)
    b = rng.normal_array(10)
    lockstep_check(A, b, "rek", steps=500, z_stepsize_mode="residual_adaptive",
                   tol=1e-12)


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
    bad2 = preset("rek", A, max_iterations=1, seed=0)
    bad2.g = None
    with pytest.raises(MissingParameter):
        validate_config(A, b, bad2)
    bad3 = preset("rek", A, max_iterations=1, seed=0)
    bad3.z_stepsize_mode = "warp"
    with pytest.raises(ValueError):
        validate_config(A, b, bad3)
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


def test_adaptive_stepsize_orthonormal_block():
    # orthonormal columns give exactly the constant 1/L
    q, _ = np.linalg.qr(RngStream(514).normal_array(20).reshape(5, 4))
    z = RngStream(515).normal_array(5)
    t = residual_adaptive_z_stepsize(z, q, 2.0)
    assert abs(t - 0.5) <= 1e-12


def test_adaptive_stepsize_single_column_is_constant():
    rng = RngStream(516)
    a = rng.normal_array(6).reshape(6, 1)
    z = rng.normal_array(6)
    t = residual_adaptive_z_stepsize(z, a, 1.5)
    expected = 1.0 / (1.5 * float(np.linalg.norm(a)) ** 2)
    assert abs(t - expected) <= 1e-12 * expected


def test_adaptive_stepsize_zero_residual_fallback():
    a = np.array([[3.0], [4.0]])
    t = residual_adaptive_z_stepsize(np.zeros(2), a, 2.0)
    assert abs(t - 1.0 / (2.0 * 25.0)) <= 1e-15


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
        z_update_enabled=True,
        max_iterations=4000,
        seed=19,
    )
    report = run(A, b, cfg)
    assert np.linalg.norm(report.state.x - x_true) <= 1e-8 * np.linalg.norm(x_true)


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
                 row_probabilities=[0.1, 0.1, 0.2, 0.2, 0.3, 0.1],
                 col_probabilities=[0.4, 0.3, 0.2, 0.1])
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
