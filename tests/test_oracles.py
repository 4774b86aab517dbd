import numpy as np
import pytest

import gerk.oracles
from gerk.errors import NotConverged
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
)
from gerk.rng import RngStream


def test_range_projection_matches_least_squares():
    rng = RngStream(600)
    for case in range(30):
        field = "complex" if case % 2 else "real"
        A = make_rank_deficient(10, 6, 4, 0.5, 3.0, field, rng)
        b = rng.gaussian_array(10, field)
        sol = range_projection_quadratic(A, b)
        # oracle route: A @ lstsq solution
        expected = A @ np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(sol.value - expected) <= 1e-9 * (1 + np.linalg.norm(expected))
        assert sol.converged


def test_misfit_projection_quadratic_equals_range_projection():
    rng = RngStream(601)
    for field in ("real", "complex"):
        A = make_rank_deficient(12, 7, 5, 0.5, 2.5, field, rng)
        b = rng.gaussian_array(12, field)
        got = misfit_projection(A, b, QuadraticMisfit(), tol=1e-11)
        want = range_projection_quadratic(A, b).value
        assert np.linalg.norm(got.value - want) <= 1e-8 * (1 + np.linalg.norm(want))
        assert got.converged
        # stopping rule holds at the returned point
        resid = b - got.value
        assert np.linalg.norm(A.conj().T @ resid) <= 1e-11 * np.linalg.norm(b) * 1.01


def test_misfit_projection_huber_downweights_impulses():
    # planted impulsive noise: the robust projection lands near the clean data
    rng = RngStream(602)
    A = make_rank_deficient(40, 20, 10, 0.8, 2.0, "real", rng)
    x = rng.normal_array(20)
    b_hat = A @ x
    b = b_hat.copy()
    spikes = rng.choice_without_replacement(40, 2)
    b[spikes] += 30.0 * np.linalg.norm(b_hat, np.inf) * rng.signs(2)
    g = HuberQuadMisfit(eps=1e-2, tau=1e-3)
    sol = misfit_projection(A, b, g, tol=1e-8)
    assert sol.converged
    assert np.linalg.norm(sol.value - b_hat) <= 1e-2 * np.linalg.norm(b_hat)
    # quadratic projection smears the spikes instead
    quad = range_projection_quadratic(A, b).value
    assert np.linalg.norm(quad - b_hat) > 10 * np.linalg.norm(sol.value - b_hat)


def test_misfit_projection_not_converged_carries_best():
    rng = RngStream(603)
    A = make_rank_deficient(15, 8, 5, 0.5, 2.0, "real", rng)
    b = rng.normal_array(15)
    g = HuberQuadMisfit(eps=1e-3, tau=1e-3)
    with pytest.raises(NotConverged) as exc:
        misfit_projection(A, b, g, tol=1e-12, max_iter=5)
    err = exc.value
    assert err.best is not None and err.best.shape == (15,)
    assert err.residual is not None and err.residual > 0


def test_constrained_min_quadratic_recovers_pseudoinverse():
    rng = RngStream(604)
    for field in ("real", "complex"):
        A = make_rank_deficient(10, 8, 5, 0.5, 2.0, field, rng)
        y_hat = A @ rng.gaussian_array(8, field)
        sol = constrained_regularizer_min(A, y_hat, Quadratic(), tol=1e-10)
        expected = svd_pseudoinverse_apply(A, y_hat)
        assert np.linalg.norm(sol.value - expected) <= 1e-6 * (1 + np.linalg.norm(expected))
        assert sol.converged


def test_constrained_min_satisfies_optimality():
    # elastic net: x + lam*s = A^H nu for some s in the subdifferential of ||.||_1
    rng = RngStream(605)
    lam = 2.0
    A = make_rank_deficient(12, 8, 6, 0.8, 2.0, "real", rng)
    y_hat = range_projector_apply(A, rng.normal_array(12))
    sol = constrained_regularizer_min(A, y_hat, ElasticNet(lam), tol=1e-10)
    x = sol.value
    assert np.linalg.norm(A @ x - y_hat) <= 1e-8 * (1 + np.linalg.norm(y_hat))
    # the dual certificate xstar = x + lam*s lies in range(A^H); check s is feasible
    # indirectly: wherever x_j != 0, sign consistency must hold after shrinkage
    # (x = shrink(xstar) by construction), so verify x is a fixed point instead
    f = ElasticNet(lam)
    xstar_dir = x + lam * np.sign(x)
    on = np.abs(x) > 1e-10
    fixed = f.conjugate_gradient(xstar_dir)
    assert np.linalg.norm(fixed[on] - x[on]) <= 1e-8


def test_constrained_min_sparse_recovery():
    # a sparse planted solution is recovered through the elastic net
    rng = RngStream(606)
    A = make_rank_deficient(30, 20, 15, 0.8, 2.0, "real", rng)
    x_hat = np.zeros(20)
    support = rng.choice_without_replacement(20, 3)
    x_hat[support] = 5.0 * rng.signs(3)
    # make the planted vector the true minimizer by projecting it through the oracle
    y = A @ x_hat
    sol = constrained_regularizer_min(A, y, ElasticNet(5.0), tol=1e-11)
    assert np.linalg.norm(A @ sol.value - y) <= 1e-9 * np.linalg.norm(y)
    # the recovered point is at least as regular as the plant
    f = ElasticNet(5.0)
    assert f.value(sol.value) <= f.value(x_hat) + 1e-6


def test_constrained_min_complex_elastic_net():
    rng = RngStream(607)
    A = make_rank_deficient(12, 8, 6, 0.8, 2.0, "complex", rng)
    y_hat = A @ rng.complex_normal_array(8)
    sol = constrained_regularizer_min(A, y_hat, ComplexElasticNet(0.5), tol=1e-9)
    assert sol.converged
    assert np.linalg.norm(A @ sol.value - y_hat) <= 1e-7 * np.linalg.norm(y_hat)


def test_constrained_min_zero_target():
    A = np.eye(4)
    sol = constrained_regularizer_min(A, np.zeros(4), ElasticNet(1.0))
    assert sol.iterations == 0
    assert np.array_equal(sol.value, np.zeros(4))


@pytest.mark.parametrize("dtype", [float, complex])
def test_constrained_min_zero_matrix(dtype):
    # A = 0 has no step 1/(L ||A||^2), but x = 0 is feasible for y_hat = 0
    f = ElasticNet(1.0) if dtype is float else ComplexElasticNet(1.0)
    sol = constrained_regularizer_min(np.zeros((8, 4), dtype), np.zeros(8, dtype), f)
    assert (sol.converged, sol.iterations, sol.residual) == (True, 0, 0.0)
    assert np.array_equal(sol.value, np.zeros(4))


def test_constrained_min_not_converged_carries_best():
    rng = RngStream(608)
    A = make_rank_deficient(10, 6, 4, 0.2, 2.0, "real", rng)
    y_hat = range_projector_apply(A, rng.normal_array(10))
    with pytest.raises(NotConverged) as exc:
        constrained_regularizer_min(A, y_hat, ElasticNet(1.0), tol=1e-12, max_iter=3)
    assert exc.value.best is not None
    assert exc.value.best.shape == (6,)


def test_oracle_consistency_on_noisy_instance():
    # end-to-end: project out nullspace noise, then the constrained minimum
    # reproduces the planted sparse vector on a well-conditioned instance
    rng = RngStream(609)
    A = make_rank_deficient(36, 18, 12, 1.0, 2.0, "real", rng)
    x_hat = np.zeros(18)
    support = rng.choice_without_replacement(18, 3)
    x_hat[support] = 10.0 * rng.signs(3)
    b_hat = A @ x_hat
    noise = draw_off_span(left_singular_bases(A, False)[0], 5.0 * np.linalg.norm(b_hat), "real",
                          rng)
    b = b_hat + noise
    y_proj = range_projection_quadratic(A, b).value
    assert np.linalg.norm(y_proj - b_hat) <= 1e-8 * np.linalg.norm(b_hat)
    sol = constrained_regularizer_min(A, y_proj, ElasticNet(5.0), tol=1e-11)
    # strong convexity: unique minimizer; verify via an independent rerun from
    # a perturbed target that we are at a stable point
    assert np.linalg.norm(A @ sol.value - b_hat) <= 1e-8 * np.linalg.norm(b_hat)


def plain_dual_loop(A, y_hat, f, tol=1e-10, max_iter=10**6):
    """(x, iterations) of the dual gradient iteration without the support finish."""
    step = 1.0 / (f.conj_lipschitz * spectral_norm(A) ** 2)
    Ah = A.conj().T
    xstar = np.zeros(A.shape[1], dtype=A.dtype)
    x = f.conjugate_gradient(xstar)
    bound = tol * float(np.linalg.norm(y_hat))
    if float(np.linalg.norm(A @ x - y_hat)) <= bound:
        return x, 0
    for it in range(1, max_iter + 1):
        xstar -= step * (Ah @ (A @ x - y_hat))
        x_next = f.conjugate_gradient(xstar)
        res = float(np.linalg.norm(A @ x_next - y_hat))
        delta = float(np.linalg.norm(x_next - x))
        x = x_next
        if res <= bound and delta <= tol:
            return x, it
    raise AssertionError("the plain loop did not converge")


def test_constrained_min_without_the_finish_is_the_plain_loop_bit_for_bit(monkeypatch):
    # only the real elastic net with lam > 0 finishes on its support; every other
    # regularizer, and the elastic net whose finish never runs, is the plain loop
    rng = RngStream(610)
    real = make_rank_deficient(14, 8, 6, 0.8, 2.0, "real", rng)
    cplx = make_rank_deficient(14, 8, 6, 0.8, 2.0, "complex", rng)
    groups = [np.arange(0, 3), np.arange(3, 8)]
    for A, f in ((real, Quadratic()), (cplx, Quadratic()), (cplx, ComplexElasticNet(0.5)),
                 (real, GroupElasticNet(0.5, groups)), (real, ElasticNet(0.0))):
        y_hat = A @ rng.gaussian_array(8, "complex" if np.iscomplexobj(A) else "real")
        sol = constrained_regularizer_min(A, y_hat, f)
        x, its = plain_dual_loop(A, y_hat, f)
        assert sol.iterations == its
        assert sol.value.tobytes() == x.tobytes()
    monkeypatch.setattr(gerk.oracles, "FINISH_AFTER", 10**7)
    y_hat = real @ rng.normal_array(8)
    sol = constrained_regularizer_min(real, y_hat, ElasticNet(0.5))
    x, its = plain_dual_loop(real, y_hat, ElasticNet(0.5))
    assert (sol.iterations, sol.value.tobytes()) == (its, x.tobytes())


def test_constrained_min_finish_is_exact_on_the_support_of_a_rank_deficient_system(monkeypatch):
    # without full column rank the finish needs the dual certificate |A_j^T w| <= lam
    # off the support; it agrees with the plain loop run to tol 1e-13, whose
    # zeros are entries below 1e-9 where the finish's are exact
    rng = RngStream(611)
    lam = 1.0
    A = make_rank_deficient(30, 16, 10, 0.8, 2.0, "real", rng)
    x_plant = np.zeros(16)
    x_plant[rng.choice_without_replacement(16, 3)] = 5.0 * rng.signs(3)
    y_hat = A @ x_plant
    sol = constrained_regularizer_min(A, y_hat, ElasticNet(lam))
    assert sol.converged and sol.iterations < 100
    assert np.linalg.norm(A @ sol.value - y_hat) <= 1e-10 * np.linalg.norm(y_hat)
    monkeypatch.setattr(gerk.oracles, "FINISH_AFTER", 10**7)
    loop = constrained_regularizer_min(A, y_hat, ElasticNet(lam), tol=1e-13).value
    zero = sol.value == 0.0
    assert zero.any() and np.all(np.abs(loop[zero]) < 1e-9)
    assert np.linalg.norm(sol.value - loop) <= 1e-8 * np.linalg.norm(loop)


def test_constrained_min_embedded_real_solution_has_an_exactly_zero_imaginary_half():
    # the real embedding of a full-column-rank complex system whose solution is
    # real: the loop leaves entries of order 1e-11 in the imaginary half, and
    # re-solving on its support leaves rounding-level ones of either sign; the
    # finish drops each whose sign flips or that is at rounding level, so the
    # imaginary half is exactly zero
    rng = RngStream(612)
    for _ in range(5):
        A = embed_complex_as_real(rng.complex_normal_array(24 * 7).reshape(24, 7))
        x_real = rng.signs(7) * rng.uniform_array(1.0, 2.0, 7)
        y_hat = A @ embed_vec(x_real.astype(complex))
        sol = constrained_regularizer_min(A, y_hat, ElasticNet(1.0))
        assert sol.iterations < 100
        assert np.array_equal(sol.value[7:], np.zeros(7))
        assert np.linalg.norm(sol.value[:7] - x_real) <= 1e-10 * np.linalg.norm(x_real)


def test_constrained_min_full_column_rank_with_a_lam_that_keeps_x_zero():
    # at lam = 1e300, x = S_lam(A^T w) stays 0: the held all-zero pattern left the
    # finish no support, and the loop ran to max_iter.  With full column rank x is
    # the only feasible point, the least-squares solution, returned before any step
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 4))
    y_hat = A @ rng.standard_normal(4)
    sol = constrained_regularizer_min(A, y_hat, ElasticNet(1e300), max_iter=1000)
    assert sol.converged
    assert sol.iterations == 0
    assert np.array_equal(sol.value, svd_pseudoinverse_apply(A, y_hat))
    assert sol.residual <= 1e-10 * np.linalg.norm(y_hat)
    # negative control: a rank-deficient A has no single feasible point to fall back on
    A = make_rank_deficient(8, 4, 3, 0.5, 2.0, "real", RngStream(0))
    with pytest.raises(NotConverged):
        constrained_regularizer_min(A, A @ np.ones(4), ElasticNet(1e300), max_iter=1000)


def test_constrained_min_full_column_rank_is_the_pseudoinverse_at_step_0():
    # with full column rank A^+ y_hat is the only feasible point, whatever the
    # regularizer: it is returned before any dual step, and the plain loop run to
    # tol 1e-13 reaches the same point
    rng = RngStream(613)
    real = rng.normal_array(60 * 6).reshape(60, 6)
    cplx = rng.complex_normal_array(60 * 6).reshape(60, 6)
    groups = [np.arange(0, 2), np.arange(2, 6)]
    for A, f in ((real, ElasticNet(0.5)), (real, Quadratic()),
                 (real, GroupElasticNet(0.5, groups)), (cplx, ComplexElasticNet(0.5))):
        y_hat = A @ rng.gaussian_array(6, "complex" if np.iscomplexobj(A) else "real")
        sol = constrained_regularizer_min(A, y_hat, f)
        assert (sol.iterations, sol.converged) == (0, True)
        bound = 1e-12 * np.linalg.norm(sol.value)
        assert np.linalg.norm(sol.value - svd_pseudoinverse_apply(A, y_hat)) <= bound
        assert np.linalg.norm(sol.value - plain_dual_loop(A, y_hat, f, tol=1e-13)[0]) <= bound
    # control: a y_hat off range(A) fails the residual check, and the loop runs on
    with pytest.raises(NotConverged):
        constrained_regularizer_min(real, rng.normal_array(60), Quadratic(), max_iter=50)
