"""Dense linear-algebra primitives.

Matrices and vectors are numpy ndarrays (float64 or complex128).  The numeric
rank convention used everywhere: a singular value counts as zero when
sigma <= max(m, n) * sigma_max * 1e-12.
"""

import numpy as np

from .errors import DegenerateNullspace, DimensionMismatch, InvalidRank, ZeroMatrix

RANK_RTOL = 1e-12


def as_matrix(M):
    M = np.asarray(M)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {M.shape}")
    if np.iscomplexobj(M):
        return M.astype(np.complex128, copy=False)
    return M.astype(np.float64, copy=False)


def as_vector(v, length=None):
    v = np.asarray(v)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d array, got shape {v.shape}")
    if length is not None and v.size != length:
        raise DimensionMismatch(f"expected length {length}, got {v.size}")
    if np.iscomplexobj(v):
        return v.astype(np.complex128, copy=False)
    return v.astype(np.float64, copy=False)


def rank_cutoff(shape, sigma_max):
    return max(shape) * sigma_max * RANK_RTOL


def spectral_norm(M):
    """Largest singular value (0.0 for the zero matrix)."""
    M = as_matrix(M)
    if M.size == 0 or not np.any(M):
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def min_positive_singular(M):
    """Smallest singular value above the rank cutoff.

    Raises ZeroMatrix when every singular value is below the cutoff.
    """
    M = as_matrix(M)
    s = np.linalg.svd(M, compute_uv=False)
    cutoff = rank_cutoff(M.shape, float(s[0]) if s.size else 0.0)
    keep = s[s > cutoff]
    if keep.size == 0:
        raise ZeroMatrix("matrix is numerically zero")
    return float(keep[-1])


def numeric_rank(M):
    M = as_matrix(M)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0:
        return 0
    cutoff = rank_cutoff(M.shape, float(s[0]))
    return int(np.count_nonzero(s > cutoff))


def svd_pseudoinverse_apply(M, v):
    """Pseudoinverse application pinv(M) @ v via SVD with the rank cutoff."""
    M = as_matrix(M)
    v = as_vector(v)
    if v.size != M.shape[0]:
        raise DimensionMismatch(f"matrix has {M.shape[0]} rows, vector has length {v.size}")
    u, s, vh = np.linalg.svd(M, full_matrices=False)
    cutoff = rank_cutoff(M.shape, float(s[0]) if s.size else 0.0)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return vh.conj().T @ ((u.conj().T @ v) * inv)


def range_projector_apply(M, v):
    """Orthogonal projection of v onto range(M), via the SVD of M."""
    M = as_matrix(M)
    v = as_vector(v, M.shape[0])
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    cutoff = rank_cutoff(M.shape, float(s[0]) if s.size else 0.0)
    ur = u[:, s > cutoff]
    return ur @ (ur.conj().T @ v)


def nullspace_basis_adjoint(M):
    """Orthonormal basis of null(M*), returned as the columns of an m x (m-r) array.

    Full row rank yields a basis with zero columns; callers that need noise in
    the adjoint nullspace must treat that as degenerate.
    """
    M = as_matrix(M)
    m = M.shape[0]
    u, s, _ = np.linalg.svd(M, full_matrices=True)
    cutoff = rank_cutoff(M.shape, float(s[0]) if s.size else 0.0)
    r = int(np.count_nonzero(s > cutoff))
    return u[:, r:].copy() if r < m else u[:, m:].copy()


def make_rank_deficient(m, n, rank, sv_lo, sv_hi, field, rng):
    """Random m x n matrix with exactly `rank` singular values in [sv_lo, sv_hi].

    U and V come from QR factorizations of field-appropriate Gaussian
    matrices; the singular values are uniform draws, sorted descending.
    """
    if not 1 <= rank < min(m, n):
        raise InvalidRank(f"rank must satisfy 1 <= rank < min(m, n)={min(m, n)}, got {rank}")
    if not 0 < sv_lo <= sv_hi < np.inf:
        raise ValueError(f"need 0 < sv_lo <= sv_hi < inf, got [{sv_lo}, {sv_hi}]")
    gu = rng.gaussian_array(m * rank, field).reshape(m, rank)
    gv = rng.gaussian_array(n * rank, field).reshape(n, rank)
    u, _ = np.linalg.qr(gu)
    v, _ = np.linalg.qr(gv)
    sv = np.sort(rng.uniform_array(sv_lo, sv_hi, rank))[::-1]
    return (u * sv) @ v.conj().T


def draw_nullspace_noise(M, radius, field, rng):
    """Vector of norm `radius` in null(M*), i.e. orthogonal to range(M).

    Direction is uniform on the sphere (normalized Gaussian).  Raises
    DegenerateNullspace when M has full row rank.
    """
    basis = nullspace_basis_adjoint(M)
    if basis.shape[1] == 0:
        raise DegenerateNullspace("matrix has full row rank, adjoint nullspace is trivial")
    g = rng.gaussian_array(basis.shape[1], field)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise ZeroMatrix("degenerate Gaussian draw")
    return basis @ (g * (radius / norm))


def embed_complex_as_real(M):
    """Complex m x n matrix -> real 2m x 2n matrix [[Re, -Im], [Im, Re]]."""
    M = as_matrix(M)
    if not np.iscomplexobj(M):
        raise DimensionMismatch("embed_complex_as_real expects a complex matrix")
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def embed_vec(x):
    """Complex vector of length n -> real vector (Re x, Im x) of length 2n."""
    x = as_vector(x)
    return np.concatenate([x.real, x.imag]).astype(np.float64)


def extract_vec(y):
    """Inverse of embed_vec."""
    y = as_vector(y)
    if y.size % 2:
        raise DimensionMismatch("embedded vector must have even length")
    n = y.size // 2
    return y[:n] + 1j * y[n:]
