"""Dense linear-algebra primitives.

Matrices and vectors are numpy ndarrays (float64 or complex128).  The numeric
rank convention used everywhere: a singular value counts as zero when
sigma <= max(m, n) * sigma_max * 1e-12.  A generated matrix needs no SVD:
rank_deficient_with_range also returns the orthonormal factor of its range.
"""

import numpy as np

from .errors import DimensionMismatch, InvalidRank, ZeroMatrix

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


def row_dots(P, Q):
    """Real <P_i, Q_i> per row (<P_i, Q> for a vector Q), each the BLAS dot np.vdot takes."""
    return (P[:, None, :] @ Q[..., None])[:, 0, 0]


def row_sq_norms(M):
    """Squared euclidean norm of each row of M, bit-equal to float(np.linalg.norm(row)) ** 2:
    the row_dots of a C-contiguous copy, of its real and its imaginary parts summed, reduce
    each row as np.linalg.norm reduces a vector, and the square is a Python float's (libm
    pow), which numpy's own square misses in the last bit on about 1 value in 1,000."""
    M = np.ascontiguousarray(M)
    parts = (M.real, M.imag) if np.iscomplexobj(M) else (M,)
    return np.array([r**2 for r in np.sqrt(sum(row_dots(P, P) for P in parts)).tolist()])


def rank_cutoff(shape, sigma_max):
    return max(shape) * sigma_max * RANK_RTOL


def singular_values(M):
    """Singular values, largest first ([0.0] for the zero matrix)."""
    M = as_matrix(M)
    if M.size == 0 or not np.any(M):
        return np.zeros(1)
    return np.linalg.svd(M, compute_uv=False)


def spectral_norm(M):
    """Largest singular value (0.0 for the zero matrix)."""
    return float(singular_values(M)[0])


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


def left_singular_bases(M, full_matrices):
    """M's left singular vectors split at the rank cutoff: an orthonormal basis
    of range(M), m x r, and the remaining columns, which span null(M*) when
    full_matrices is True.

    Both are contiguous copies.
    """
    M = as_matrix(M)
    u, s, _ = np.linalg.svd(M, full_matrices=full_matrices)
    keep = s > rank_cutoff(M.shape, float(s[0]) if s.size else 0.0)
    return u[:, :s.size][:, keep], u[:, np.count_nonzero(keep):].copy()


def project_onto(basis, v):
    """Orthogonal projection of v onto the span of basis's orthonormal columns."""
    return basis @ (basis.conj().T @ v)


def range_projector_apply(M, v):
    """Orthogonal projection of v onto range(M), via the thin SVD of M."""
    M = as_matrix(M)
    v = as_vector(v, M.shape[0])
    return project_onto(left_singular_bases(M, False)[0], v)


def nullspace_basis_adjoint(M):
    """Orthonormal basis of null(M*), returned as the columns of an m x (m-r) array.

    Full row rank yields a basis with zero columns.
    """
    return left_singular_bases(M, True)[1]


def rank_deficient_with_range(m, n, rank, sv_lo, sv_hi, field, rng):
    """make_rank_deficient's A = U diag(sv) V^H, with U: an orthonormal basis
    of range(A) that keeps all `rank` columns, whatever the rank cutoff."""
    if not 1 <= rank < min(m, n):
        raise InvalidRank(f"rank must satisfy 1 <= rank < min(m, n)={min(m, n)}, got {rank}")
    if not 0 < sv_lo <= sv_hi < np.inf:
        raise ValueError(f"need 0 < sv_lo <= sv_hi < inf, got [{sv_lo}, {sv_hi}]")
    # each Gaussian draw and its R factor are freed once factored: only U and V meet A
    u = np.linalg.qr(rng.gaussian_array(m * rank, field).reshape(m, rank))[0]
    v = np.linalg.qr(rng.gaussian_array(n * rank, field).reshape(n, rank))[0]
    sv = np.sort(rng.uniform_array(sv_lo, sv_hi, rank))[::-1]
    return (u * sv) @ v.conj().T, u


def make_rank_deficient(m, n, rank, sv_lo, sv_hi, field, rng):
    """Random m x n matrix with exactly `rank` singular values in [sv_lo, sv_hi].

    U and V come from QR factorizations of field-appropriate Gaussian
    matrices; the singular values are uniform draws, sorted descending.
    """
    return rank_deficient_with_range(m, n, rank, sv_lo, sv_hi, field, rng)[0]


def draw_off_span(basis, radius, field, rng):
    """Vector of norm `radius` orthogonal to basis's orthonormal columns: a
    Gaussian g minus basis @ (basis^H g), scaled.  The Gaussian is rotation
    invariant, so the direction is uniform on the sphere of the complement."""
    g = rng.gaussian_array(basis.shape[0], field)
    g = g - project_onto(basis, g)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise ZeroMatrix("degenerate Gaussian draw")
    return g * (radius / norm)


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
