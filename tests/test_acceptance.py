"""End-to-end acceptance checks, one per headline guarantee.

Every test here runs the full stack (generators, solver, oracles, harness)
at fixed seeds and asserts the documented tolerances.  These are the slow,
meaningful checks; the per-module suites cover the fine-grained contracts.
"""

import time

import numpy as np

from gerk.blocks import column_partition, paired_blocks, row_partition
from gerk.certificates import verify_error_bound
from gerk.experiments import (
    PresetSpec,
    gen_experiment_i,
    gen_experiment_ii,
    run_trials,
    write_experiment_csvs,
)
from gerk.linalg import (
    draw_off_span,
    embed_complex_as_real,
    embed_vec,
    left_singular_bases,
    make_rank_deficient,
    range_projector_apply,
    spectral_norm,
    svd_pseudoinverse_apply,
)
from gerk.oracles import (
    constrained_regularizer_min,
    misfit_projection,
    range_projection_quadratic,
)
from gerk.potentials import (
    ComplexElasticNet,
    ElasticNet,
    GroupElasticNet,
    HuberQuadMisfit,
    Quadratic,
    QuadraticMisfit,
    bregman_distance,
    real_inner,
)
from gerk.rng import RngStream
from gerk.solver import SolverConfig, preset, run


def test_extended_kaczmarz_reaches_pseudoinverse_solution():
    # 10 inconsistent 100x50 rank-25 systems, noise 5x the clean data norm:
    # 20000 iterations must land within 1e-4 of pinv(A) b, in under 10 s total
    t0 = time.perf_counter()
    errors = []
    for seed in range(10):
        rng = RngStream(1000 + seed, 0)
        A = make_rank_deficient(100, 50, 25, 1.0, 3.0, "real", rng)
        b_hat = A @ rng.normal_array(50)
        noise_basis = left_singular_bases(A, False)[0]
        b = b_hat + draw_off_span(noise_basis, 5.0 * np.linalg.norm(b_hat), "real", rng)
        cfg = preset("rek", A, max_iterations=20000, seed=1000 + seed, stream=1)
        report = run(A, b, cfg)
        x_ref = svd_pseudoinverse_apply(A, b)
        errors.append(
            float(np.linalg.norm(report.state.x - x_ref)) / float(np.linalg.norm(x_ref))
        )
    assert np.median(errors) <= 1e-4
    assert time.perf_counter() - t0 <= 10.0


def test_nullspace_noise_experiment_recovers_sparse_signal():
    # desk-scale trial harness: only the regularized + z-corrected preset
    # recovers the planted sparse vector; plain sparse Kaczmarz stalls
    def gen(rng):
        return gen_experiment_i(m=200, n=100, rank=50, sparsity=5, noise_level=5.0,
                                sv_lo=0.1, sv_hi=10.0, field="real", rng=rng)

    specs = (PresetSpec("srk", lam=5.0), PresetSpec("rek"), PresetSpec("gerk_ad", lam=5.0))
    result = run_trials(gen, specs, trials=10, iterations=500 * 200, base_seed=3000,
                        checkpoint_interval=10 * 200)
    med_err = {k: float(np.median(v)) for k, v in result.final_rel_error.items()}
    med_sp = {k: float(np.median(v)) for k, v in result.final_sparsity.items()}
    assert med_err["gerk_ad"] <= 1e-3
    assert med_err["srk"] >= 1e-1
    assert med_sp["gerk_ad"] <= 10          # twice the planted sparsity
    assert med_sp["rek"] >= 90              # least squares stays dense
    assert 10 < med_sp["srk"] < 90          # uncorrected shrinkage sits in between


def test_impulsive_noise_experiment_favors_robust_misfit():
    # corrupted rows: only the huber-type misfit reaches the planted solution,
    # and final sparsity orders robust < plain sparse < quadratic-z <= dense
    def gen(rng):
        return gen_experiment_ii(m=200, n=100, rank=50, sparsity=5, noise_level=5.0,
                                 sv_lo=0.1, sv_hi=10.0, field="real", rng=rng)

    specs = (
        PresetSpec("srk", lam=10.0),
        PresetSpec("rek"),
        PresetSpec("gerk_ad", lam=10.0),
        PresetSpec("gerk_bd", lam=10.0, eps=1e-2, tau=1e-3),
    )
    result = run_trials(gen, specs, trials=10, iterations=500 * 200, base_seed=4000,
                        checkpoint_interval=10 * 200)
    med_err = {k: float(np.median(v)) for k, v in result.final_rel_error.items()}
    med_sp = {k: float(np.median(v)) for k, v in result.final_sparsity.items()}
    assert med_err["gerk_bd"] <= 1e-2
    assert med_err["gerk_ad"] >= 1e-1       # quadratic z chases the impulses
    assert med_sp["gerk_bd"] < med_sp["srk"] < med_sp["gerk_ad"] <= med_sp["rek"]


def test_gerk_bd_reaches_its_two_oracles():
    # gerk_bd converges to x_hat = argmin f_lam(x) subject to A x = y_hat, where
    # y_hat = A u_hat and u_hat minimizes the huber misfit g*(b - A u): the
    # misfit oracle gives y_hat, the constrained oracle x_hat.  A 40x12 system
    # of full rank with 4 impulses of size 20 on b
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 12))
    x0 = np.zeros(12)
    x0[rng.choice(12, 4, replace=False)] = rng.standard_normal(4)
    b = A @ x0
    b[rng.choice(40, 4, replace=False)] += 20.0 * rng.choice([-1.0, 1.0], 4)
    lam, eps, tau = 0.5, 0.1, 0.01
    x_hat = constrained_regularizer_min(
        A, misfit_projection(A, b, HuberQuadMisfit(eps, tau)).value, ElasticNet(lam)).value
    x = run(A, b, preset("gerk_bd", A, lam=lam, eps=eps, tau=tau, max_iterations=16000,
                         seed=3)).state.x
    assert np.linalg.norm(x - x_hat) <= 1e-10 * np.linalg.norm(x_hat)
    # negative control: the quadratic misfit's x_hat, which the impulses move,
    # lies far outside that tolerance
    x_quad = constrained_regularizer_min(
        A, misfit_projection(A, b, QuadraticMisfit()).value, ElasticNet(lam)).value
    assert np.linalg.norm(x_quad - x_hat) > 0.1 * np.linalg.norm(x_hat)


def test_dual_iterate_error_decays_log_linearly():
    # the z iteration is a randomized projection onto range(A)-complement:
    # ||z* - (b - proj b)|| must decay geometrically, i.e. log-linearly in k
    good = 0
    for seed in range(10):
        rng = RngStream(2000 + seed, 0)
        inst = gen_experiment_i(m=200, n=100, rank=50, sparsity=5, noise_level=5.0,
                                sv_lo=0.5, sv_hi=5.0, field="real", rng=rng)
        z_target = inst.b - range_projection_quadratic(inst.A, inst.b).value
        ks, zerrs = [], []

        def hook(state):
            ks.append(state.k)
            zerrs.append(float(np.linalg.norm(state.zstar - z_target)))
            return False

        cfg = preset("rek", inst.A, max_iterations=200 * 200, seed=2000 + seed,
                     stream=1, checkpoint_interval=200)
        run(inst.A, inst.b, cfg, hooks=(hook,))
        karr = np.asarray(ks, dtype=float)
        zarr = np.asarray(zerrs)
        keep = zarr > 1e-8 * zarr[0]  # drop the numerical floor
        slope, intercept = np.polyfit(karr[keep], np.log(zarr[keep]), 1)
        pred = slope * karr[keep] + intercept
        resid = np.log(zarr[keep]) - pred
        r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((np.log(zarr[keep]) - np.log(zarr[keep]).mean()) ** 2))
        if slope < 0.0 and r2 >= 0.9:
            good += 1
    assert good >= 9


def test_error_bound_certificates_verify_without_violations():
    # 20 random instances, lam cycling {0, 1, 5}, 1000 samples each: the
    # certified constant gamma is never beaten, within 60 s total
    t0 = time.perf_counter()
    lams = (0.0, 1.0, 5.0)
    for case in range(20):
        rng = RngStream(5000 + case, 0)
        n = 4 + case % 7          # up to 10 columns
        m = n + 2 + case % 3      # up to 12 rows
        rank = max(1, min(n - 1, 2 + case % 5))
        lam = lams[case % 3]
        A = make_rank_deficient(m, n, rank, 0.5, 2.0, "real", rng)
        y_hat = range_projector_apply(A, rng.normal_array(m))
        x_hat = constrained_regularizer_min(A, y_hat, ElasticNet(lam), tol=1e-11).value
        report = verify_error_bound(A, x_hat, y_hat, lam, n_samples=1000, seed=5000 + case)
        assert report.violations == 0, f"case {case}: {report.violations} violations"
        assert report.max_ratio <= report.certificate.gamma * (1 + 1e-9)
    assert time.perf_counter() - t0 <= 60.0


def test_complex_iteration_matches_real_embedding():
    # a complex solve and its real embedding (paired row/column blocks, group
    # regularizer on (Re, Im) pairs) stay in lockstep for 1000 iterations
    rng = RngStream(6000, 0)
    m, n, lam = 40, 20, 1.0
    A = rng.complex_normal_array(m * n).reshape(m, n)
    b = A @ rng.complex_normal_array(n) + 0.3 * rng.complex_normal_array(m)
    E = embed_complex_as_real(A)
    be = embed_vec(b)

    cfg_c = preset("gerk_ad", A, lam=lam, max_iterations=1000, seed=77,
                   checkpoint_interval=1)
    cfg_r = SolverConfig(
        f=GroupElasticNet(lam, paired_blocks(n)),
        g=QuadraticMisfit(),
        row_partition=row_partition(E, blocks=paired_blocks(m)),
        col_partition=column_partition(E, blocks=paired_blocks(n)),
        max_iterations=1000,
        seed=77,
        checkpoint_interval=1,
    )
    xs_c, xs_r = [], []
    run(A, b, cfg_c, hooks=(lambda s: xs_c.append(np.array(s.x, copy=True)),))
    run(E, be, cfg_r, hooks=(lambda s: xs_r.append(np.array(s.x, copy=True)),))
    assert len(xs_c) == len(xs_r) == 1001
    sup = max(
        float(np.linalg.norm(embed_vec(xc) - xr))
        for xc, xr in zip(xs_c, xs_r)
    )
    assert sup <= 1e-10


def test_randomized_property_suites_hold():
    # five 100-case randomized invariant suites over the core identities

    # 1) Fenchel equality f(x) + f*(x*) = <x*, x> at x = grad f*(x*)
    rng = RngStream(7000)
    n = 8
    variants = [
        (Quadratic(), False), (Quadratic(), True),
        (ElasticNet(0.6), False), (ComplexElasticNet(0.6), True),
        (GroupElasticNet(0.8, [np.arange(0, 4), np.arange(4, 8)]), False),
    ]
    cases = 0
    for f, is_complex in variants:
        for _ in range(25):
            xstar = 3.0 * rng.gaussian_array(n, "complex" if is_complex else "real")
            x = f.conjugate_gradient(xstar)
            gap = f.value(x) + f.conjugate_value(xstar) - real_inner(xstar, x)
            assert abs(gap) <= 1e-10 * (1 + abs(real_inner(xstar, x)))
            cases += 1
    assert cases >= 100

    # 2) shrinkage identities: modulus shrinkage == paired group shrinkage,
    #    and the real operator is its restriction
    groups = [np.array([t, n + t]) for t in range(n)]
    for case in range(100):
        lam = 0.1 + rng.random()
        z = rng.complex_normal_array(n)
        lhs = embed_vec(ComplexElasticNet(lam).conjugate_gradient(z))
        rhs = GroupElasticNet(lam, groups).conjugate_gradient(embed_vec(z))
        assert np.linalg.norm(lhs - rhs) <= 1e-13
        xr = rng.normal_array(n)
        assert np.linalg.norm(
            ComplexElasticNet(lam).conjugate_gradient(xr.astype(complex))
            - ElasticNet(lam).conjugate_gradient(xr)
        ) <= 1e-13

    # 3) Bregman distance chain: alpha/2 ||x-y||^2 <= D <= <x*-y*, x-y>
    for case in range(100):
        f, is_complex = variants[case % len(variants)]
        field = "complex" if is_complex else "real"
        xstar = 2.0 * rng.gaussian_array(n, field)
        ystar = 2.0 * rng.gaussian_array(n, field)
        x, y = f.conjugate_gradient(xstar), f.conjugate_gradient(ystar)
        d = bregman_distance(f, x, xstar, y)
        slack = 1e-9 * (1 + abs(d))
        assert 0.5 * f.alpha * np.linalg.norm(x - y) ** 2 <= d + slack
        assert d <= real_inner(xstar - ystar, x - y) + slack

    # 4) partition invariants: random blockings cover, stay disjoint, and
    #    carry exact squared spectral norms
    for case in range(100):
        m = 4 + case % 6
        k = 1 + case % m
        field = "complex" if case % 2 else "real"
        A = rng.gaussian_array(m * 3, field).reshape(m, 3)
        perm = rng.choice_without_replacement(m, m)
        cuts = sorted(set([0, m] + list(rng.choice_without_replacement(m - 1, k - 1) + 1)))
        blocks = [perm[cuts[t]:cuts[t + 1]] for t in range(len(cuts) - 1)]
        part = row_partition(A, blocks=blocks)
        covered = np.concatenate([blk for blk in part.blocks])
        assert sorted(covered.tolist()) == list(range(m))
        for blk, sq in zip(part.blocks, part.block_sq_norms):
            assert abs(sq - spectral_norm(A[blk, :]) ** 2) <= 1e-10 * max(1.0, sq)
        idx = part.sample(rng)
        assert 0 <= idx < len(part)

    # 5) deterministic streams: batch draws equal scalar draws, and distinct
    #    substreams of one seed differ
    for case in range(100):
        seed = 9000 + case
        a = RngStream(seed, case % 5)
        b = RngStream(seed, case % 5)
        size = 1 + case % 17
        batch = a.random_array(size)
        scalars = np.array([b.random() for _ in range(size)])
        assert np.array_equal(batch, scalars)
        assert a.next_u64() == b.next_u64()
        other = RngStream(seed, case % 5 + 1)
        assert other.next_u64() != RngStream(seed, case % 5).next_u64()


def test_experiment_outputs_are_byte_deterministic(tmp_path):
    # identical configurations must reproduce every CSV byte for byte
    def gen(rng):
        return gen_experiment_i(m=24, n=12, rank=6, sparsity=2, noise_level=2.0,
                                sv_lo=0.5, sv_hi=2.0, field="real", rng=rng)

    specs = (PresetSpec("srk", lam=2.0), PresetSpec("gerk_ad", lam=2.0))

    def produce(out):
        result = run_trials(gen, specs, trials=3, iterations=300, base_seed=8000,
                            checkpoint_interval=60)
        return write_experiment_csvs(result, out, "i")

    paths1 = produce(tmp_path / "r1")
    paths2 = produce(tmp_path / "r2")
    assert [p.replace("r1", "") for p in paths1] == [p.replace("r2", "") for p in paths2]
    assert len(paths1) == 5 + 6 + 1
    for p1, p2 in zip(paths1, paths2):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
