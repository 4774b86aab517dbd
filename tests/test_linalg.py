import tracemalloc

import numpy as np
import pytest

from gerk.errors import DimensionMismatch, InvalidRank, ZeroMatrix
from gerk.linalg import (
    RANK_RTOL,
    as_matrix,
    as_vector,
    draw_off_span,
    embed_complex_as_real,
    embed_vec,
    extract_vec,
    left_singular_bases,
    make_rank_deficient,
    min_positive_singular,
    nullspace_basis_adjoint,
    range_projector_apply,
    rank_deficient_with_range,
    spectral_norm,
    svd_pseudoinverse_apply,
)
from gerk.rng import RngStream


def random_matrix(rng, m, n, field):
    return rng.gaussian_array(m * n, field).reshape(m, n)


def test_as_matrix_rejects_wrong_rank():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        as_vector(np.zeros(3), length=4)


def test_spectral_norm_against_gram_eigenvalues():
    # oracle: largest eigenvalue of M* M, computed by a different LAPACK path
    rng = RngStream(100)
    for case in range(100):
        field = "complex" if case % 2 else "real"
        m = 1 + case % 7
        n = 1 + (case * 3) % 9
        M = random_matrix(rng, m, n, field)
        expected = np.sqrt(max(np.linalg.eigvalsh(M.conj().T @ M).max(), 0.0))
        assert abs(spectral_norm(M) - expected) <= 1e-10 * max(1.0, expected)


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((3, 4))) == 0.0


def test_min_positive_singular_constructed():
    # plant known singular values through an explicit U diag(s) V*
    rng = RngStream(101)
    for _ in range(50):
        m, n = 8, 6
        u, _ = np.linalg.qr(random_matrix(rng, m, n, "real"))
        v, _ = np.linalg.qr(random_matrix(rng, n, n, "real"))
        s = np.sort(rng.uniform_array(0.3, 7.0, n))[::-1]
        M = (u * s) @ v.T
        assert abs(min_positive_singular(M) - s[-1]) <= 1e-9


def test_min_positive_singular_ignores_tiny():
    u = np.eye(4)
    s = np.array([5.0, 2.0, 1.0, 1e-15])
    M = u * s
    assert abs(min_positive_singular(M) - 1.0) <= 1e-12
    with pytest.raises(ZeroMatrix):
        min_positive_singular(np.zeros((3, 3)))


def test_numeric_rank_planted():
    rng = RngStream(102)
    for rank in (1, 3, 5):
        M = make_rank_deficient(9, 7, rank, 0.5, 2.0, "real", rng)
        assert np.linalg.matrix_rank(M, rtol=max(M.shape) * RANK_RTOL) == rank
    assert np.linalg.matrix_rank(np.zeros((2, 2)), rtol=2 * RANK_RTOL) == 0


def test_pseudoinverse_apply_matches_lstsq():
    rng = RngStream(103)
    for case in range(60):
        field = "complex" if case % 2 else "real"
        m, n = 7, 4
        M = random_matrix(rng, m, n, field)
        v = rng.gaussian_array(m, field)
        expected = np.linalg.lstsq(M, v, rcond=None)[0]
        got = svd_pseudoinverse_apply(M, v)
        assert np.linalg.norm(got - expected) <= 1e-9 * (1 + np.linalg.norm(expected))


def test_pseudoinverse_apply_rank_deficient():
    rng = RngStream(104)
    M = make_rank_deficient(8, 5, 3, 1.0, 2.0, "real", rng)
    v = rng.normal_array(8)
    x = svd_pseudoinverse_apply(M, v)
    # minimum-norm least squares: normal equations hold and x lies in range(M*)
    assert np.linalg.norm(M.T @ (M @ x) - M.T @ v) <= 1e-9
    assert np.linalg.norm(x - svd_pseudoinverse_apply(M, M @ x)) <= 1e-9


def test_pseudoinverse_apply_needs_one_entry_per_row():
    with pytest.raises(DimensionMismatch, match="matrix has 3 rows, vector has length 2"):
        svd_pseudoinverse_apply(np.eye(3), np.ones(2))
    assert svd_pseudoinverse_apply(np.eye(3), np.ones(3)).tolist() == [1.0, 1.0, 1.0]


def test_range_projector_idempotent_and_exact():
    rng = RngStream(105)
    for case in range(40):
        field = "complex" if case % 2 else "real"
        M = make_rank_deficient(8, 6, 3, 0.5, 4.0, "complex" if case % 2 else "real", rng)
        v = rng.gaussian_array(8, field)
        p = range_projector_apply(M, v)
        # idempotent, and the residual is orthogonal to range(M)
        assert np.linalg.norm(range_projector_apply(M, p) - p) <= 1e-10
        assert np.linalg.norm(M.conj().T @ (v - p)) <= 1e-9
        inside = M @ rng.gaussian_array(6, field)
        assert np.linalg.norm(range_projector_apply(M, inside) - inside) <= 1e-9


def test_nullspace_basis_properties():
    rng = RngStream(106)
    for field in ("real", "complex"):
        M = make_rank_deficient(9, 6, 4, 0.5, 3.0, field, rng)
        N = nullspace_basis_adjoint(M)
        assert N.shape == (9, 5)
        assert np.linalg.norm(N.conj().T @ N - np.eye(5)) <= 1e-10
        assert np.linalg.norm(M.conj().T @ N) <= 1e-9


def test_nullspace_basis_full_row_rank():
    rng = RngStream(107)
    M = random_matrix(rng, 4, 9, "real")
    assert nullspace_basis_adjoint(M).shape == (4, 0)


def test_make_rank_deficient_singular_values():
    rng = RngStream(108)
    for field in ("real", "complex"):
        M = make_rank_deficient(20, 12, 7, 0.25, 5.5, field, rng)
        s = np.linalg.svd(M, compute_uv=False)
        assert np.all(s[:7] >= 0.25 - 1e-9)
        assert np.all(s[:7] <= 5.5 + 1e-9)
        assert np.all(s[7:] <= 1e-10)
        assert M.shape == (20, 12)
        assert np.iscomplexobj(M) == (field == "complex")


def test_make_rank_deficient_validation():
    rng = RngStream(109)
    with pytest.raises(InvalidRank):
        make_rank_deficient(5, 5, 5, 1.0, 2.0, "real", rng)
    with pytest.raises(InvalidRank):
        make_rank_deficient(5, 5, 0, 1.0, 2.0, "real", rng)
    with pytest.raises(ValueError):
        make_rank_deficient(5, 5, 2, 2.0, 1.0, "real", rng)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_rank_deficient_with_range_frees_its_draws(field):
    # the traced peak is the final product's: U, V, U diag(sv) and A live (with the
    # conjugate copy of V for a complex A), each Gaussian draw freed at its QR;
    # holding both draws to the end adds (m + n) * rank values
    m, n, rank = 400, 300, 150
    item = 16 if field == "complex" else 8
    live = (m * n + 2 * m * rank + n * rank * (2 if field == "complex" else 1)) * item
    tracemalloc.start()
    try:
        A, U = rank_deficient_with_range(m, n, rank, 0.1, 10.0, field, RngStream(111))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.nbytes + U.nbytes < peak <= live + 64 * 1024


def test_nullspace_noise_norm_and_orthogonality():
    rng = RngStream(110)
    for field in ("real", "complex"):
        M = make_rank_deficient(10, 6, 3, 0.5, 2.0, field, rng)
        noise = draw_off_span(left_singular_bases(M, False)[0], 2.5, field, rng)
        assert abs(np.linalg.norm(noise) - 2.5) <= 1e-10
        assert np.linalg.norm(M.conj().T @ noise) <= 1e-9


def test_embedding_matvec_identity():
    rng = RngStream(112)
    for _ in range(30):
        M = random_matrix(rng, 6, 4, "complex")
        x = rng.complex_normal_array(4)
        lhs = embed_complex_as_real(M) @ embed_vec(x)
        rhs = embed_vec(M @ x)
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_embedding_preserves_spectral_norm():
    rng = RngStream(113)
    M = random_matrix(rng, 5, 7, "complex")
    assert abs(spectral_norm(embed_complex_as_real(M)) - spectral_norm(M)) <= 1e-10


def test_embedding_row_block_norms():
    # one complex row embeds to two real rows with equal singular values ||a||
    rng = RngStream(114)
    a = rng.complex_normal_array(6).reshape(1, 6)
    E = embed_complex_as_real(a)
    pair = E[[0, 1], :]
    s = np.linalg.svd(pair, compute_uv=False)
    norm = np.linalg.norm(a)
    assert abs(s[0] - norm) <= 1e-10
    assert abs(s[1] - norm) <= 1e-10


def test_embed_extract_roundtrip():
    rng = RngStream(115)
    x = rng.complex_normal_array(9)
    assert np.linalg.norm(extract_vec(embed_vec(x)) - x) == 0.0
    with pytest.raises(DimensionMismatch):
        extract_vec(np.zeros(5))
    with pytest.raises(DimensionMismatch):
        embed_complex_as_real(np.zeros((2, 2)))
