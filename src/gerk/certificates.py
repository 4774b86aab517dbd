"""Global error-bound certificates for the elastic net regularizer.

For f(x) = lam*||x||_1 + 0.5*||x||^2 and x_hat solving min f s.t. Ax = y_hat,
every x with a subgradient xstar in range(A^T) satisfies

    D_f(x, x_hat) <= gamma * ||A x - y_hat||^2

with the computable constant

    gamma = ((min_abs + 2*lam) / min_abs) / sigma_tilde_min(A)^2     (x_hat != 0)
    gamma = 2 n / min_positive_singular(A)^2                         (x_hat  = 0)

where min_abs is the smallest nonzero |x_hat_j| and sigma_tilde_min is the
smallest positive singular value over all nonzero column submatrices of A.
The submatrix enumeration is exhaustive (2^n - 1 subsets) and refuses to run
above max_cols columns.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import OracleMismatch, TooManyColumns, ZeroMatrix
from .linalg import as_matrix, as_vector, min_positive_singular
from .potentials import ElasticNet, bregman_distance
from .rng import RngStream


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


def sigma_tilde_min(A, max_cols=15):
    """min over nonzero column subsets J of the smallest positive sigma of A_J."""
    A = as_matrix(A)
    n = A.shape[1]
    if n > max_cols:
        raise TooManyColumns(f"{n} columns exceeds the enumeration cap of {max_cols}")
    best = np.inf
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            sub = A[:, list(subset)]
            try:
                smin = min_positive_singular(sub)
            except ZeroMatrix:
                continue
            if smin < best:
                best = smin
    if not np.isfinite(best):
        raise ZeroMatrix("matrix has no nonzero column submatrix")
    return float(best)


def gamma_hat(A, x_hat, lam, max_cols=15):
    """Certificate with the explicit gamma for the elastic net at x_hat.

    Entries of x_hat with |x_hat_j| <= 1e-12 are treated as exact zeros.
    """
    A = as_matrix(A)
    x_hat = as_vector(x_hat, A.shape[1])
    if lam < 0:
        raise ValueError("lam must be >= 0")
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
    xstar = A^T u (so xstar lies in range(A^T)), x = grad f*(xstar), and
    checks the inequality.  Requires ||A x_hat - y_hat|| <= 1e-8 * ||y_hat||,
    else OracleMismatch.  Pass gamma to override the certificate constant
    (negative controls).  Real field only.
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
    m = A.shape[0]
    violations = 0
    max_ratio = 0.0
    for idx in range(n_samples):
        scale = scales[idx % len(scales)]
        u = scale * rng.normal_array(m)
        xstar = A.T @ u
        x = f.conjugate_gradient(xstar)
        dist = bregman_distance(f, x, xstar, x_hat)
        resid_sq = float(np.linalg.norm(A @ x - y_hat)) ** 2
        if dist > g * resid_sq + slack * (1.0 + dist):
            violations += 1
        if resid_sq > 1e-300:
            max_ratio = max(max_ratio, dist / resid_sq)
    return VerificationReport(
        certificate=cert, samples=n_samples, violations=violations, max_ratio=max_ratio
    )
