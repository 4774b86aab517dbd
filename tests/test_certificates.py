from itertools import combinations

import numpy as np
import pytest

import gerk.certificates
from gerk.certificates import gamma_hat, sigma_tilde_min, verify_error_bound
from gerk.errors import OracleMismatch, TooManyColumns, ZeroMatrix
from gerk.linalg import (
    RANK_RTOL,
    embed_complex_as_real,
    make_rank_deficient,
    min_positive_singular,
    range_projector_apply,
)
from gerk.oracles import constrained_regularizer_min
from gerk.potentials import ElasticNet, bregman_distance
from gerk.rng import RngStream


def brute_sigma_tilde(A):
    """Bitmask enumeration with the same rank cutoff, written independently."""
    m, n = A.shape
    best = np.inf
    for mask in range(1, 2**n):
        cols = [j for j in range(n) if (mask >> j) & 1]
        sub = A[:, cols]
        s = np.linalg.svd(sub, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            continue
        cutoff = max(sub.shape) * s[0] * 1e-12
        pos = s[s > cutoff]
        if pos.size:
            best = min(best, float(pos[-1]))
    return best


def loop_sigma_tilde(A):
    """sigma_tilde_min as one SVD per column subset, in a Python loop (the reference)."""
    n = A.shape[1]
    best = np.inf
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            try:
                smin = min_positive_singular(A[:, list(subset)])
            except ZeroMatrix:
                continue
            if smin < best:
                best = smin
    return float(best)


def loop_verify(A, x_hat, y_hat, lam, n_samples, seed, gamma, scales=(0.1, 1.0, 10.0), slack=1e-10):
    """(violations, max_ratio) of verify_error_bound, one sample per Python iteration."""
    f = ElasticNet(lam)
    rng = RngStream(seed)
    violations = 0
    max_ratio = 0.0
    for idx in range(n_samples):
        u = scales[idx % len(scales)] * rng.normal_array(A.shape[0])
        xstar = A.T @ u
        x = f.conjugate_gradient(xstar)
        dist = bregman_distance(f, x, xstar, x_hat)
        resid_sq = float(np.linalg.norm(A @ x - y_hat)) ** 2
        if dist > gamma * resid_sq + slack * (1.0 + dist):
            violations += 1
        if resid_sq > 1e-300:
            max_ratio = max(max_ratio, dist / resid_sq)
    return violations, max_ratio


def count_svds(monkeypatch):
    """Count np.linalg.svd calls from here on; the returned list holds the count."""
    calls = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_sigma_tilde_hand_example():
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    # single columns give 1, the full pair gives sqrt(2); the min is 1
    assert abs(sigma_tilde_min(A) - 1.0) <= 1e-12


def test_sigma_tilde_identity():
    assert abs(sigma_tilde_min(np.eye(3)) - 1.0) <= 1e-12


def test_sigma_tilde_matches_bitmask_enumeration():
    rng = RngStream(700)
    for case in range(50):
        m = 3 + case % 4
        n = 2 + case % 5
        A = rng.normal_array(m * n).reshape(m, n)
        if case % 7 == 0:
            A[:, case % n] = 0.0  # zero column subsets must be skipped
        if case % 5 == 0:
            A[:, 0] = A[:, 1 % n]  # duplicate columns force rank deficiency
        if not np.any(A):
            with pytest.raises(ZeroMatrix):
                sigma_tilde_min(A)
            continue
        assert abs(sigma_tilde_min(A) - brute_sigma_tilde(A)) <= 1e-10


def test_sigma_tilde_column_cap():
    A = np.ones((2, 16))
    with pytest.raises(TooManyColumns):
        sigma_tilde_min(A)
    # the cap is adjustable
    assert sigma_tilde_min(np.eye(4), max_cols=4) == pytest.approx(1.0)


def test_sigma_tilde_cap_is_checked_before_any_svd(monkeypatch):
    calls = count_svds(monkeypatch)
    with pytest.raises(TooManyColumns, match="4 columns exceeds the enumeration cap of 3"):
        sigma_tilde_min(np.ones((5, 4)), max_cols=3)
    for cap in (0, -1, np.nan, np.inf, 2.5):
        rule = ">= 1" if cap in (0, -1) else "an integer"
        with pytest.raises(ValueError, match=f"max_cols must be {rule}, got {cap}"):
            sigma_tilde_min(np.ones((5, 4)), max_cols=cap)
    assert calls[0] == 0


def full_rank_cases():
    """Tall or square matrices with full numeric column rank, four kinds in turn."""
    rng = RngStream(705)
    for case in range(240):
        n = 1 + case % 6
        m = n + case % 5
        kind = case % 4
        if kind == 0:  # Gaussian
            A = rng.normal_array(m * n).reshape(m, n)
        elif kind == 1:  # ill-conditioned, condition number 10^1 .. 10^10
            u, _ = np.linalg.qr(rng.normal_array(m * n).reshape(m, n))
            v, _ = np.linalg.qr(rng.normal_array(n * n).reshape(n, n))
            A = (u * np.logspace(0, -(1 + case % 10), n)) @ v.T
        elif kind == 2:  # small integers
            A = np.floor(rng.uniform_array(-4.0, 5.0, m * n)).reshape(m, n)
        else:  # real embedding of a complex matrix: 2m x 2n
            k = 1 + case % 3
            A = embed_complex_as_real(rng.complex_normal_array(m * k).reshape(m, k))
        if np.linalg.matrix_rank(A, rtol=max(A.shape) * RANK_RTOL) == A.shape[1]:
            yield A


def test_sigma_tilde_full_rank_is_one_svd_within_tolerance_of_enumeration(monkeypatch):
    # sigma_min(A) is the n-subset's own value, so it is never below the
    # enumeration and exceeds it only by the rounding of the smaller subsets
    cases = 0
    for A in full_rank_cases():
        m, n = A.shape
        brute = brute_sigma_tilde(A)
        calls = count_svds(monkeypatch)
        fast = sigma_tilde_min(A)
        assert calls[0] == 1
        monkeypatch.undo()
        s1 = np.linalg.svd(A, compute_uv=False)[0]
        assert 0.0 <= fast - brute <= np.finfo(float).eps * s1 * max(m, n)
        cases += 1
    assert cases >= 200


def test_sigma_tilde_wide_matrix_enumerates():
    # a wide matrix never has full column rank: sigma_min(A) would be wrong
    rng = RngStream(706)
    for case in range(40):
        m = 1 + case % 4
        n = m + 1 + case % 3
        A = rng.normal_array(m * n).reshape(m, n)
        assert sigma_tilde_min(A) == loop_sigma_tilde(A) == brute_sigma_tilde(A)
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    # columns {0, 2} give (sqrt(5) - 1) / 2, below the sigma_2(A) = 1 of all three
    assert sigma_tilde_min(A) == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, rel=1e-14)


def test_sigma_tilde_graded_rank_deficient_counterexample():
    # numerically rank 1 under the scale-relative cutoff, so the independent
    # column sets of A are single columns (min 1e-13); but the last two columns
    # alone have a cutoff 10^12 times smaller and keep their sigma_2 ~ 7.07e-21
    A = np.array([[1.0, 1e-13, 1e-13], [0.0, 0.0, 1e-20]])
    assert np.linalg.matrix_rank(A, rtol=max(A.shape) * RANK_RTOL) == 1
    assert sigma_tilde_min(A) == brute_sigma_tilde(A)
    assert sigma_tilde_min(A) == pytest.approx(7.0710678118654755e-21, rel=1e-12)


@pytest.mark.parametrize("chunk_bytes", [None, 1000])
def test_sigma_tilde_rank_deficient_matches_subset_loop_bit_for_bit(monkeypatch, chunk_bytes):
    if chunk_bytes is not None:  # a few subsets per SVD call, so chunks split every size
        monkeypatch.setattr(gerk.certificates, "CHUNK_BYTES", chunk_bytes)
    rng = RngStream(707)
    for case in range(40):
        m = 3 + case % 6
        n = 3 + case % 7
        kind = case % 4
        if kind == 0:
            A = make_rank_deficient(m, n, 1 + case % (min(m, n) - 1), 0.5, 2.0, "real", rng)
        elif kind == 1:  # duplicated and zero columns
            A = rng.normal_array(m * n).reshape(m, n)
            A[:, 0] = A[:, n - 1]
            A[:, 1] = 0.0
        elif kind == 2:  # integer columns with repeats
            A = np.floor(rng.uniform_array(-2.0, 3.0, m * n)).reshape(m, n)
            A[:, 2] = A[:, 0] + A[:, 1]
        else:  # complex embedding of a rank-deficient matrix
            A = embed_complex_as_real(make_rank_deficient(4, 3, 2, 0.5, 2.0, "complex", rng))
        assert np.linalg.matrix_rank(A, rtol=max(A.shape) * RANK_RTOL) < A.shape[1]
        assert sigma_tilde_min(A) == loop_sigma_tilde(A)


def test_sigma_tilde_zero_matrix():
    with pytest.raises(ZeroMatrix):
        sigma_tilde_min(np.zeros((3, 3)))


def test_sigma_tilde_never_exceeds_full_matrix_sigma():
    from gerk.linalg import min_positive_singular

    rng = RngStream(701)
    for _ in range(20):
        A = rng.normal_array(24).reshape(6, 4)
        assert sigma_tilde_min(A) <= min_positive_singular(A) + 1e-12


def test_gamma_identity_hand_example():
    cert = gamma_hat(np.eye(2), np.array([1.0, 0.0]), lam=1.0)
    assert cert.gamma == pytest.approx(3.0, abs=1e-12)
    assert cert.sigma_tilde_min == pytest.approx(1.0)
    assert cert.xhat_min_abs == pytest.approx(1.0)


def test_gamma_zero_solution():
    cert = gamma_hat(np.eye(2), np.zeros(2), lam=1.0)
    assert cert.gamma == pytest.approx(4.0)  # 2n / sigma^2
    assert cert.xhat_min_abs is None


def test_gamma_tiny_entries_count_as_zero():
    cert = gamma_hat(np.eye(2), np.array([1e-13, 0.0]), lam=1.0)
    assert cert.xhat_min_abs is None
    assert cert.gamma == pytest.approx(4.0)


def test_gamma_monotonicity():
    A = np.eye(3)
    base = gamma_hat(A, np.array([1.0, 0.0, 0.0]), lam=1.0).gamma
    # larger lam loosens the constant
    assert gamma_hat(A, np.array([1.0, 0.0, 0.0]), lam=2.0).gamma > base
    # larger smallest entry tightens it
    assert gamma_hat(A, np.array([2.0, 0.0, 0.0]), lam=1.0).gamma < base
    with pytest.raises(ValueError):
        gamma_hat(A, np.zeros(3), lam=-1.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_gamma_rejects_non_finite_lam(lam):
    with pytest.raises(ValueError, match=f"lam must be finite and >= 0, got {lam}"):
        gamma_hat(np.eye(3), np.array([1.0, 0.0, 0.0]), lam=lam)


def test_verify_error_bound_no_violations():
    rng = RngStream(702)
    lam = 2.0
    A = make_rank_deficient(8, 6, 4, 0.8, 2.0, "real", rng)
    y_hat = range_projector_apply(A, rng.normal_array(8))
    x_hat = constrained_regularizer_min(A, y_hat, ElasticNet(lam), tol=1e-11).value
    report = verify_error_bound(A, x_hat, y_hat, lam, n_samples=300, seed=17)
    assert report.samples == 300
    assert report.violations == 0
    # the sampled ratio never exceeds the certified constant
    assert report.max_ratio <= report.certificate.gamma * (1 + 1e-9)


def test_verify_error_bound_negative_control():
    # halving the best sampled ratio must produce violations
    rng = RngStream(703)
    lam = 1.0
    A = make_rank_deficient(8, 5, 3, 0.8, 2.0, "real", rng)
    y_hat = range_projector_apply(A, rng.normal_array(8))
    x_hat = constrained_regularizer_min(A, y_hat, ElasticNet(lam), tol=1e-11).value
    honest = verify_error_bound(A, x_hat, y_hat, lam, n_samples=200, seed=23)
    assert honest.violations == 0
    assert honest.max_ratio > 0
    rigged = verify_error_bound(
        A, x_hat, y_hat, lam, n_samples=200, seed=23, gamma=honest.max_ratio / 2
    )
    assert rigged.violations >= 1


@pytest.mark.parametrize("name, value, message", [
    ("gamma", np.nan, "gamma must be finite and >= 0, got nan"),
    ("gamma", np.inf, "gamma must be finite and >= 0, got inf"),
    ("gamma", -1.0, "gamma must be finite and >= 0, got -1.0"),
    ("n_samples", np.nan, "n_samples must be an integer, got nan"),
    ("n_samples", 2.5, "n_samples must be an integer, got 2.5"),
    ("n_samples", -3, "n_samples must be >= 0, got -3"),
])
def test_verify_parameter_errors(name, value, message):
    # a NaN gamma counted 0 violations where gamma = 0 counts every sample
    rng = RngStream(703)
    A = make_rank_deficient(8, 5, 3, 0.8, 2.0, "real", rng)
    y_hat = range_projector_apply(A, rng.normal_array(8))
    x_hat = constrained_regularizer_min(A, y_hat, ElasticNet(1.0), tol=1e-11).value
    args = {"n_samples": 50, "gamma": 0.0}
    assert verify_error_bound(A, x_hat, y_hat, 1.0, seed=23, **args).violations == 50
    args[name] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_error_bound(A, x_hat, y_hat, 1.0, seed=23, **args)


@pytest.fixture(scope="module")
def verify_systems():
    """(A, x_hat, y_hat, lam): rank-deficient, full column rank, zero solution."""
    rng = RngStream(708)
    systems = []
    for m, n, rank, lam in ((8, 6, 4, 2.0), (48, 12, 9, 0.5), (30, 15, None, 1.0)):
        if rank is None:
            A = rng.normal_array(m * n).reshape(m, n)
        else:
            A = make_rank_deficient(m, n, rank, 0.8, 2.0, "real", rng)
        y_hat = range_projector_apply(A, rng.normal_array(m))
        x_hat = constrained_regularizer_min(A, y_hat, ElasticNet(lam), tol=1e-11).value
        systems.append((A, x_hat, y_hat, lam))
    A = make_rank_deficient(7, 5, 3, 0.8, 2.0, "real", rng)
    return systems + [(A, np.zeros(5), np.zeros(7), 1.0)]


@pytest.mark.parametrize("samples", ["0", "1", "chunk + 1", "1000"])
def test_verify_matches_per_sample_loop_bit_for_bit(monkeypatch, verify_systems, samples):
    for small in (False, True):
        for A, x_hat, y_hat, lam in verify_systems:
            m, n = A.shape
            if small:  # three samples per chunk
                monkeypatch.setattr(gerk.certificates, "CHUNK_BYTES", 3 * 8 * (m + n))
            chunk = gerk.certificates.CHUNK_BYTES // (8 * (m + n))
            count = chunk + 1 if samples == "chunk + 1" else int(samples)
            report = verify_error_bound(A, x_hat, y_hat, lam, n_samples=count, seed=31)
            gamma = report.certificate.gamma
            assert report.samples == count
            assert (report.violations, report.max_ratio) == loop_verify(
                A, x_hat, y_hat, lam, count, 31, gamma
            )
            # a rigged constant below the sampled ratio: both count the same violations
            rigged = verify_error_bound(A, x_hat, y_hat, lam, count, 31, gamma=report.max_ratio / 2)
            assert (rigged.violations, rigged.max_ratio) == loop_verify(
                A, x_hat, y_hat, lam, count, 31, report.max_ratio / 2
            )
            assert rigged.violations >= (1 if report.max_ratio > 0 else 0)
            monkeypatch.undo()


@pytest.mark.parametrize("scale", [1e160, 1e-160])
@pytest.mark.parametrize("x_hat", ["nonzero", "zero"])
def test_gamma_past_the_doubles_is_refused(scale, x_hat):
    # sigma**2 overflows (a bare OverflowError from the float power) or underflows
    # to 0 (ZeroDivisionError), for sigma_tilde_min and, at x_hat = 0, for the
    # smallest positive singular value; the unit-scale system is the control
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    x = rng.standard_normal(4) if x_hat == "nonzero" else np.zeros(4)
    assert 0.0 < gamma_hat(A, x, 1.0).gamma < np.inf
    with pytest.raises(ValueError, match="is not a finite normal double; rescale A or lambda$"):
        gamma_hat(scale * A, x, 1.0)


def test_verify_zero_solution_instance():
    # y_hat = 0 forces x_hat = 0 and the 2n/sigma^2 constant
    rng = RngStream(704)
    A = make_rank_deficient(7, 5, 3, 0.8, 2.0, "real", rng)
    report = verify_error_bound(A, np.zeros(5), np.zeros(7), 1.0, n_samples=150, seed=5)
    assert report.violations == 0
    assert report.certificate.xhat_min_abs is None


def test_verify_rejects_complex():
    A = np.eye(2, dtype=np.complex128)
    with pytest.raises(OracleMismatch):
        verify_error_bound(A, np.zeros(2), np.zeros(2), 1.0, n_samples=1, seed=0)


def test_verify_rejects_mismatched_solution():
    A = np.eye(3)
    x_bad = np.array([1.0, 0.0, 0.0])
    y_hat = np.array([0.0, 1.0, 0.0])
    with pytest.raises(OracleMismatch):
        verify_error_bound(A, x_bad, y_hat, 1.0, n_samples=1, seed=0)
