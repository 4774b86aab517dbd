import warnings

import numpy as np
import pytest

from gerk import blocks
from gerk.blocks import (
    BlockPartition,
    column_partition,
    contiguous_blocks,
    owners,
    paired_blocks,
    row_partition,
)
from gerk.errors import DimensionMismatch, NonFiniteInput, ZeroMatrix
from gerk.linalg import embed_complex_as_real
from gerk.rng import RngStream


def test_row_partition_default_norms():
    rng = RngStream(200)
    A = rng.normal_array(20).reshape(5, 4)
    part = row_partition(A)
    assert len(part) == 5
    assert part.trivial
    for i in range(5):
        assert abs(part.block_sq_norms[i] - np.dot(A[i], A[i])) <= 1e-12


def test_column_partition_complex_norms():
    rng = RngStream(201)
    A = rng.complex_normal_array(24).reshape(4, 6)
    part = column_partition(A)
    for j in range(6):
        expected = float(np.real(np.vdot(A[:, j], A[:, j])))
        assert abs(part.block_sq_norms[j] - expected) <= 1e-12


def test_single_index_norms_bit_equal_to_linalg_norm():
    # the per-block formula the single-index path replaced, kept as reference
    def reference(A, kind, i):
        sub = A[[i], :] if kind == "row" else A[:, [i]]
        return float(np.linalg.norm(sub)) ** 2

    rng = RngStream(205)
    for m, n in ((7, 3), (9, 1), (1, 9), (33, 17), (40, 21), (3000, 6)):
        for field in ("real", "complex"):
            A = 10.0 ** rng.normal_array(1)[0] * rng.gaussian_array(m * n, field).reshape(m, n)
            if m == 3000:
                # rows of 1e-50 to 1e50 and a zero row: squaring the roots with
                # numpy's square instead of a float's misses on about 1 in 1,000
                A *= 10.0 ** np.round(rng.uniform_array(-50.0, 50.0, m))[:, None]
                A[17] = 0.0
            for B in (A, np.asfortranarray(A)):
                for kind, part in (("row", row_partition(B)), ("column", column_partition(B))):
                    want = np.array([reference(A, kind, i) for i in range(part.axis_len)])
                    assert np.array_equal(part.block_sq_norms.view(np.uint64), want.view(np.uint64))
    # single-index blocks mixed with multi-index ones take the same values
    A = rng.gaussian_array(6 * 5, "complex").reshape(6, 5)
    part = row_partition(A, blocks=[np.array([4]), np.array([0, 2]), np.array([1, 3, 5])])
    assert part.block_sq_norms[0] == reference(A, "row", 4)
    assert part.block_sq_norms[1] == np.linalg.svd(A[[0, 2]], compute_uv=False)[0] ** 2


@pytest.mark.parametrize("field", ["real", "complex"])
def test_default_partition_holds_one_index_array(field):
    # the default single-index partition over 20,000 rows (and as many columns
    # of A^T), one of them zero: its blocks one (k, 1) index array, its squared
    # norms those of np.linalg.norm squared as a Python float, uniform
    # probabilities over the nonzero lines, and the cumulative sums and draws
    # of a list of blocks
    A = RngStream(207).gaussian_array(20_000 * 5, field).reshape(20_000, 5)
    A[5] = 0.0
    want = np.array([float(np.linalg.norm(line)) ** 2 for line in A])
    # negative control: numpy's square of the same norms misses in the last
    # bit on about 1 line in 1,000, so the byte checks below can fail
    control = np.square([float(np.linalg.norm(line)) for line in A])
    assert control.tobytes() != want.tobytes()
    nonzero = want != 0.0
    assert np.flatnonzero(~nonzero).tolist() == [5]
    p = np.where(nonzero, 1.0 / np.count_nonzero(nonzero), 0.0)
    cum = np.cumsum(p)
    u = RngStream(208).random_array(10_000)
    drawn = np.minimum(cum.searchsorted(u, side="right"), cum.searchsorted(cum[-1]))
    for part in (row_partition(A), column_partition(A.T)):
        assert part.blocks.shape == (20_000, 1)
        assert part.blocks[:, 0].tolist() == list(range(20_000))
        assert part.block_sq_norms.tobytes() == want.tobytes()
        assert part.probabilities.tobytes() == p.tobytes()
        assert part._cum.tobytes() == cum.tobytes()
        assert part.trivial
        assert part.draw(u).tobytes() == drawn.tobytes()
        # its blocks build the same partition again, and so do they as a list
        for blocks in (part.blocks, list(part.blocks)):
            again = BlockPartition(part.kind, 20_000, blocks, part.block_sq_norms)
            assert again.trivial and again._cum.tobytes() == cum.tobytes()
    # a line whose squared norm over- or underflows, and an all-zero axis
    for scale in (1e160, 1e-170):
        B = A[:40].copy()
        B[2] *= scale
        for kind, partition, lines in (("row", row_partition, B), ("column", column_partition, B.T)):
            with pytest.raises(ValueError, match=f"^the squared {kind} norms of A overflow or "
                                                 "underflow; rescale A$"):
                partition(lines)
    for partition, kind in ((row_partition, "row"), (column_partition, "column")):
        with pytest.raises(ZeroMatrix, match=f"^every {kind} block is zero$"):
            partition(np.zeros((4, 3), dtype=A.dtype))


def test_multi_index_block_norm_is_spectral():
    rng = RngStream(202)
    A = rng.normal_array(42).reshape(7, 6)
    blocks = [np.array([0, 1, 2]), np.array([3]), np.array([4, 5, 6])]
    part = row_partition(A, blocks=blocks)
    assert not part.trivial
    for i, blk in enumerate(blocks):
        expected = np.linalg.svd(A[blk, :], compute_uv=False)[0] ** 2
        assert abs(part.block_sq_norms[i] - expected) <= 1e-10


def test_partition_validation():
    A = np.eye(4)
    with pytest.raises(ValueError):
        row_partition(A, blocks=[np.array([0, 1]), np.array([1, 2, 3])])  # overlap
    with pytest.raises(ValueError):
        row_partition(A, blocks=[np.array([0, 1]), np.array([2])])  # no cover
    with pytest.raises(ValueError):
        row_partition(A, blocks=[np.array([0, 1, 2, 3]), np.array([], dtype=int)])
    with pytest.raises(DimensionMismatch):
        row_partition(A, blocks=[np.array([0, 1, 2]), np.array([3, 4])])
    with pytest.raises(ValueError):
        BlockPartition("diag", 4, [np.arange(4)], [1.0])


def test_blocks_checked_once(monkeypatch):
    # owners checks a partition's blocks once, explicit or default
    calls = []
    monkeypatch.setattr(blocks, "owners", lambda *args: calls.append(1) or owners(*args))
    row_partition(np.eye(4), blocks=[np.array([0, 1]), np.array([2, 3])])
    column_partition(np.eye(4))
    assert calls == [1, 1]


def test_zero_block_rejected():
    # an axis whose every block is zero is rejected; a zero block among
    # nonzero ones is never drawn instead (test_zero_block_never_drawn)
    for blocks in (None, [np.array([0, 1])]):
        with pytest.raises(ZeroMatrix):
            row_partition(np.zeros((2, 2)), blocks=blocks)
        with pytest.raises(ZeroMatrix):
            column_partition(np.zeros((2, 2)), blocks=blocks)


def test_zero_block_never_drawn():
    # a zero block has probability 0, the default is uniform over the others,
    # and even a uniform past the rounded total does not reach a zero block
    A = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    rows, cols = row_partition(A), column_partition(A)
    assert rows.probabilities.tolist() == [0.5, 0.0, 0.5, 0.0]
    assert cols.probabilities.tolist() == [1.0, 0.0]
    u = np.concatenate([RngStream(206).random_array(1000), [0.0, 0.5, 1.0 - 2.0 ** -53]])
    assert set(rows.draw(u).tolist()) == {0, 2}
    assert set(cols.draw(u).tolist()) == {0}
    # ten rows of probability 0.1 sum to just below 1: the last nonzero row is drawn
    tenth = row_partition(np.concatenate([np.ones((10, 1)), np.zeros((1, 1))]))
    assert tenth.probabilities.tolist() == [0.1] * 10 + [0.0]
    assert np.cumsum(tenth.probabilities)[-1] < 1.0 and int(tenth.draw(1.0 - 2.0 ** -53)) == 9
    # given probabilities: positive on the nonzero blocks, 0 on the zero ones
    assert row_partition(A, probabilities=[0.25, 0.0, 0.75, 0.0]).probabilities[2] == 0.75
    for p in ([0.25, 0.25, 0.5, 0.0], [0.5, 0.0, 0.5 - 1e-3, 1e-3], [1.0, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="positive on the nonzero blocks"):
            row_partition(A, probabilities=p)
    with pytest.raises(ValueError, match=">= 0"):
        BlockPartition("row", 2, [[0], [1]], [1.0, -1.0])
    # without a zero block the default probabilities are those of before
    full = row_partition(np.eye(3) + 1.0)
    assert full.probabilities.tobytes() == np.full(3, 1.0 / 3).tobytes()


@pytest.mark.parametrize("scale", [1e160, 1e-170])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_out_of_range_scale_rejected(scale, field):
    # squared norms that overflow to inf or underflow to 0 name the axis; on
    # multi-index blocks the squared spectral norm overflowed as a Python float
    A = scale * RngStream(203).gaussian_array(8 * 4, field).reshape(8, 4)
    for kind, partition, length in (("row", row_partition, 8), ("column", column_partition, 4)):
        for blocks in (None, contiguous_blocks(length, 3)):
            with pytest.raises(ValueError, match=f"squared {kind} norms of A .* rescale A"):
                partition(A, blocks=blocks)
    # negative control: a zero block among normal ones is no scale error, it
    # has probability 0
    B = RngStream(204).gaussian_array(8 * 4, field).reshape(8, 4)
    B[2:4] = 0.0
    for blocks in (None, contiguous_blocks(8, 4)):
        part = row_partition(B, blocks=blocks)
        assert part.probabilities[1 if blocks else 2] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_multi_index_block_rejected(bad):
    # the SVD of a multi-index block does not converge on NaN or inf; the
    # partition says why instead
    A = RngStream(205).normal_array(12).reshape(4, 3)
    cases = ((row_partition, contiguous_blocks(4, 2)), (column_partition, contiguous_blocks(3, 2)))
    for partition, blocks in cases:
        partition(A, blocks=blocks)  # negative control: finite A partitions
    A[1, 2] = bad
    for partition, blocks in cases:
        with pytest.raises(NonFiniteInput, match="finite"):
            partition(A, blocks=blocks)


def test_probability_validation():
    A = np.eye(3)
    with pytest.raises(ValueError):
        row_partition(A, probabilities=[0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        row_partition(A, probabilities=[0.5, 0.6, 0.1])
    with pytest.raises(DimensionMismatch):
        row_partition(A, probabilities=[0.5, 0.5])


def test_sampling_follows_probabilities():
    A = np.eye(3)
    part = row_partition(A, probabilities=[0.2, 0.3, 0.5])
    rng = RngStream(203)
    counts = np.zeros(3)
    draws = 30000
    for _ in range(draws):
        counts[part.sample(rng)] += 1
    assert np.all(np.abs(counts / draws - part.probabilities) < 0.02)


def test_draw_blocks_vectorised_and_clamped():
    # cum[-1] short of 1 by rounding: uniforms beyond it land in the last block
    short = row_partition(np.eye(3), probabilities=[0.25, 0.25, 0.5 - 1e-13])
    assert np.cumsum(short.probabilities)[-1] < 1.0
    u = np.array([0.0, 0.25, 0.3, 0.5, 0.9, 1.0 - 1e-14])
    assert short.draw(u).tolist() == [0, 1, 1, 2, 2, 2]
    assert int(short.draw(0.3)) == 1
    # the scalar samplers consume one uniform and agree with the array map
    part = row_partition(np.eye(3), probabilities=[0.2, 0.3, 0.5])
    a, b = RngStream(204), RngStream(204)
    drawn = [part.sample(a) for _ in range(500)]
    assert drawn == part.draw(b.random_array(500)).tolist()
    assert a.next_u64() == b.next_u64()


def test_uniform_default_probabilities():
    part = row_partition(np.eye(4))
    assert np.allclose(part.probabilities, 0.25)


def test_contiguous_blocks_cover():
    blocks = contiguous_blocks(10, 3)
    assert len(blocks) == 3
    assert np.array_equal(np.concatenate(blocks), np.arange(10))
    sizes = [b.size for b in blocks]
    assert max(sizes) - min(sizes) <= 1
    with pytest.raises(ValueError):
        contiguous_blocks(3, 4)


def test_paired_blocks_layout():
    blocks = paired_blocks(3)
    assert [b.tolist() for b in blocks] == [[0, 3], [1, 4], [2, 5]]


def test_embedded_pair_norms_match_complex():
    # paired rows of the real embedding carry the complex row norm
    rng = RngStream(204)
    A = rng.complex_normal_array(15).reshape(5, 3)
    E = embed_complex_as_real(A)
    rows = row_partition(E, blocks=paired_blocks(5))
    cols = column_partition(E, blocks=paired_blocks(3))
    for i in range(5):
        assert abs(rows.block_sq_norms[i] - np.real(np.vdot(A[i], A[i]))) <= 1e-10
    for j in range(3):
        expected = float(np.real(np.vdot(A[:, j], A[:, j])))
        assert abs(cols.block_sq_norms[j] - expected) <= 1e-10


def test_partition_needs_one_squared_norm_per_block():
    with pytest.raises(DimensionMismatch, match="need one squared norm per block"):
        BlockPartition("row", 3, [[0], [1], [2]], [1.0, 1.0])
    BlockPartition("row", 3, [[0], [1], [2]], [1.0, 1.0, 1.0])  # positive control


def test_owners_needs_at_least_one_block():
    with pytest.raises(ValueError, match="need at least one block"):
        owners([], 3)
    assert owners([np.arange(3)], 3).tolist() == [0, 0, 0]  # positive control


@pytest.mark.parametrize("bad", [
    [[1.9], [0], [2], [3], [4], [5]],  # a cast would truncate 1.9 to block [1]
    [[0.5, 1], [2, 3, 4, 5]],  # a cast would hold the block [0, 1]
    [[True], [False], [2], [3], [4], [5]],
    np.array([[1.0], [0.0], [2.0], [3.0], [4.0], [5.0]]),
])
def test_non_integer_block_indices_rejected(bad):
    A = np.arange(12.0).reshape(6, 2) + 1.0
    with pytest.raises(ValueError, match="block indices must be integers"):
        row_partition(A, blocks=bad)
    # positive controls: integer lists and numpy integer arrays of any width
    for good in ([[1], [0], [2], [3], [4], [5]], np.arange(6, dtype=np.int32)[::-1, None]):
        assert len(row_partition(A, blocks=good)) == 6


def test_probabilities_past_the_largest_double_raise_no_warning():
    A = np.eye(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sum to 1"):
            row_partition(A, probabilities=np.full(6, 1e308))
        with pytest.raises(ValueError, match="sum to 1"):
            row_partition(A, probabilities=np.full(6, np.inf))
