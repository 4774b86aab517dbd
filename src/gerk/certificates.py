"""Global error-bound certificates for the elastic net regularizer.

For f(x) = lam*||x||_1 + 0.5*||x||^2 and x_hat solving min f s.t. Ax = y_hat,
every x with a subgradient xstar in range(A^T) satisfies

    D_f(x, x_hat) <= gamma * ||A x - y_hat||^2

with the computable constant

    gamma = ((min_abs + 2*lam) / min_abs) / sigma_tilde_min(A)^2     (x_hat != 0)
    gamma = 2 n / min_positive_singular(A)^2                         (x_hat  = 0)

where min_abs is the smallest nonzero |x_hat_j| and sigma_tilde_min is the
smallest positive singular value over all nonzero column submatrices of A.
With full numeric column rank that is sigma_min(A), one SVD: by Cauchy interlacing
sigma_min(A_J) >= sigma_n(A) for every column subset J, so no A_J falls below its rank
cutoff, and the result exceeds the exhaustive enumeration's by 0 to eps*sigma_max(A)*max(m, n).
Otherwise all 2^n - 1 subsets are enumerated, one SVD per CHUNK_BYTES of stacked
same-size subsets.  Either way A may have at most max_cols columns.
"""

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional

import numpy as np

from .errors import OracleMismatch, TooManyColumns, ZeroMatrix
from .linalg import as_matrix, as_vector, min_positive_singular, rank_cutoff
from .potentials import ElasticNet, checked_nonneg
from .rng import RngStream

CHUNK_BYTES = 2**17  # stacked subset matrices per SVD call, stacked samples per pass


@dataclass
class ErrorBoundCertificate:
    gamma: float
    sigma_tilde_min: float
    sigma_min_positive: float
    xhat_min_abs: Optional[float]  # None when x_hat is (numerically) zero
    lam: float
    n: int


@dataclass
class VerificationReport:
    certificate: ErrorBoundCertificate
    samples: int
    violations: int
    max_ratio: float


def _dots(P, Q):
    """Row-wise <P_i, Q_i>, each by the BLAS dot np.vdot uses."""
    return (P[:, None, :] @ Q[..., None])[:, 0, 0]


def sigma_tilde_min(A, max_cols=15):
    """min over nonzero column subsets J of the smallest positive sigma of A_J."""
    A = as_matrix(A)
    m, n = A.shape
    if max_cols < 1:
        raise ValueError(f"max_cols must be >= 1, got {max_cols}")
    if n > max_cols:
        raise TooManyColumns(f"{n} columns exceeds the enumeration cap of {max_cols}")
    best = np.inf
    for k in range(n, 0, -1):  # k = n is A itself
        subsets, per = combinations(range(n), k), max(1, CHUNK_BYTES // (A.itemsize * m * k or 1))
        while (cols := np.array(list(islice(subsets, per)), dtype=np.intp)).size:
            s = np.linalg.svd(A[:, cols].transpose(1, 0, 2), compute_uv=False)
            # a row's singular values above its rank cutoff are a prefix of length kept
            kept = np.count_nonzero(s > rank_cutoff((m, k), s[:, :1]), axis=1)
            if (rows := np.flatnonzero(kept)).size:
                best = min(best, float(s[rows, kept[rows] - 1].min()))
        if kept[0] == n:
            break  # full column rank: no column subset goes lower
    if not np.isfinite(best):
        raise ZeroMatrix("matrix has no nonzero column submatrix")
    return best


def gamma_hat(A, x_hat, lam, max_cols=15):
    """Certificate with the explicit gamma for the elastic net at x_hat.

    Entries of x_hat with |x_hat_j| <= 1e-12 are treated as exact zeros.
    """
    A = as_matrix(A)
    x_hat = as_vector(x_hat, A.shape[1])
    lam = checked_nonneg(lam, "lam")
    n = A.shape[1]
    stm = sigma_tilde_min(A, max_cols=max_cols)
    smp = min_positive_singular(A)
    mags = np.abs(x_hat)
    nonzero = mags > 1e-12
    if not nonzero.any():
        gamma = 2.0 * n / smp**2
        min_abs = None
    else:
        min_abs = float(mags[nonzero].min())
        gamma = ((min_abs + 2.0 * lam) / min_abs) / stm**2
    return ErrorBoundCertificate(
        gamma=float(gamma),
        sigma_tilde_min=stm,
        sigma_min_positive=float(smp),
        xhat_min_abs=min_abs,
        lam=float(lam),
        n=n,
    )


def verify_error_bound(
    A,
    x_hat,
    y_hat,
    lam,
    n_samples,
    seed,
    scales=(0.1, 1.0, 10.0),
    slack=1e-10,
    max_cols=15,
    gamma=None,
):
    """Sample the bound D_f(x, x_hat) <= gamma*||Ax - y_hat||^2 + slack*(1 + D).

    Each sample draws u ~ scale * N(0, I) (scales cycled in order), forms
    xstar = A^T u in range(A^T) and x = grad f*(xstar), and checks the
    inequality, in batches of CHUNK_BYTES that round as one sample at a time.
    Requires ||A x_hat - y_hat|| <= 1e-8 * ||y_hat||, else OracleMismatch.
    Pass gamma to override the certificate constant (negative controls).
    Real field only.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    A = as_matrix(A)
    x_hat = as_vector(x_hat, A.shape[1])
    y_hat = as_vector(y_hat, A.shape[0])
    if np.iscomplexobj(A):
        raise OracleMismatch("certificates are real-only; embed complex systems first")
    if float(np.linalg.norm(A @ x_hat - y_hat)) > 1e-8 * float(np.linalg.norm(y_hat)):
        raise OracleMismatch("x_hat does not solve A x = y_hat to 1e-8")
    cert = gamma_hat(A, x_hat, lam, max_cols=max_cols)
    g = cert.gamma if gamma is None else float(gamma)
    f = ElasticNet(lam)
    rng = RngStream(seed)
    m, n = A.shape
    per = max(1, CHUNK_BYTES // (A.itemsize * (m + n)))
    violations, max_ratio = 0, 0.0
    for start in range(0, n_samples, per):
        k = min(per, n_samples - start)
        scale = np.take(scales, np.arange(start, start + k), mode="wrap")
        u = scale[:, None] * rng.normal_array(k * m).reshape(k, m)
        xstar = (u[:, None, :] @ A)[:, 0]  # stacked: one gemv per sample, as A.T @ u
        x = f.conjugate_gradient(xstar)
        dist = 0.5 * _dots(x, x) - _dots(xstar, x_hat) + f.value(x_hat)
        resid = (A @ x[:, :, None])[:, :, 0] - y_hat  # one gemv per sample, as A @ x
        # float ** 2 is libm pow, as in the per-sample float(norm) ** 2
        resid_sq = np.array([r**2 for r in np.sqrt(_dots(resid, resid)).tolist()])
        violations += int(np.count_nonzero(dist > g * resid_sq + slack * (1.0 + dist)))
        keep = resid_sq > 1e-300
        max_ratio = float(np.fmax.reduce(dist[keep] / resid_sq[keep], initial=max_ratio))
    return VerificationReport(
        certificate=cert, samples=n_samples, violations=violations, max_ratio=max_ratio
    )
