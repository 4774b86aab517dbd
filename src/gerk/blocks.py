"""Row and column block partitions with sampling probabilities.

A partition splits the row (or column) index range of a matrix into disjoint
nonempty index sets.  Single-index partitions are the common case; arbitrary
index sets are allowed so that, e.g., rows {i, m+i} of an embedded complex
matrix can form one block.  Each block carries its squared spectral norm,
computed once at construction.
"""

import numpy as np

from .errors import DimensionMismatch, ZeroMatrix
from .linalg import as_matrix, spectral_norm


class BlockPartition:
    """Partition of one axis of a matrix into sampling blocks.

    kind is "row" or "column".  blocks is a list of int index arrays that are
    disjoint, nonempty, and together cover range(axis length).  probabilities
    are strictly positive and sum to 1 (uniform when omitted).
    """

    def __init__(self, kind, axis_len, blocks, block_sq_norms, probabilities=None):
        if kind not in ("row", "column"):
            raise ValueError(f"kind must be 'row' or 'column', got {kind!r}")
        self.kind = kind
        self.axis_len = int(axis_len)
        self.blocks = [np.asarray(blk, dtype=np.intp) for blk in blocks]
        owner = owners(self.blocks, self.axis_len)

        self.block_sq_norms = np.asarray(block_sq_norms, dtype=np.float64)
        if self.block_sq_norms.size != len(self.blocks):
            raise DimensionMismatch("need one squared norm per block")
        if np.any(self.block_sq_norms <= 0.0):
            raise ZeroMatrix(f"zero {kind} block rejected")

        k = len(self.blocks)
        if probabilities is None:
            p = np.full(k, 1.0 / k)
        else:
            p = np.asarray(probabilities, dtype=np.float64)
            if p.size != k:
                raise DimensionMismatch("need one probability per block")
            if np.any(p <= 0.0):
                raise ValueError("probabilities must be strictly positive")
            if abs(float(p.sum()) - 1.0) > 1e-12:
                raise ValueError("probabilities must sum to 1 within 1e-12")
        self.probabilities = p
        self._cum = np.cumsum(p)
        # True when block i is exactly [i]; lets the solver skip indexed gathers
        self.trivial = bool(np.array_equal(owner, np.arange(k)))

    def __len__(self):
        return len(self.blocks)

    def sample(self, rng):
        """Draw one block index using one uniform."""
        return int(draw_blocks(self._cum, rng.random()))


def draw_blocks(cum, u):
    """Block index of each uniform u in [0, 1): the first k with cum[k] > u.

    cum holds the cumulative block probabilities.  Rounding can leave cum[-1]
    just below 1, so indices are clamped to the last block.  This is the one
    implementation of index sampling; it maps a whole array of uniforms at
    once, and a scalar u gives a numpy integer.
    """
    return np.minimum(cum.searchsorted(u, side="right"), len(cum) - 1)


def owners(blocks, n, noun="block"):
    """Index of the block holding each of 0..n-1; blocks are int index arrays.

    This is the one check of a partition: raises ValueError unless there is
    at least one block and the blocks are nonempty, disjoint and cover
    range(n), and DimensionMismatch for an index outside it.  noun names
    the blocks in the messages.
    """
    if not blocks:
        raise ValueError(f"need at least one {noun}")
    sizes = np.array([blk.size for blk in blocks])
    if not sizes.all():
        raise ValueError(f"empty {noun}")
    flat = np.concatenate([blk.ravel() for blk in blocks])
    if flat.min() < 0 or flat.max() >= n:
        raise DimensionMismatch(f"{noun} index out of range 0..{n - 1}")
    owner = np.full(n, -1, dtype=np.intp)
    owner[flat] = np.repeat(np.arange(len(blocks)), sizes)
    covered = np.count_nonzero(owner >= 0)
    if covered < flat.size:
        raise ValueError(f"{noun}s overlap")
    if covered < n:
        raise ValueError(f"{noun}s do not cover every index")
    return owner


def _partition(kind, A, blocks, probabilities):
    A = as_matrix(A)
    axis_len = A.shape[0] if kind == "row" else A.shape[1]
    if blocks is None:
        blocks = [np.array([i], dtype=np.intp) for i in range(axis_len)]
    blocks = [np.asarray(blk, dtype=np.intp) for blk in blocks]
    owners(blocks, axis_len)  # before indexing A with the blocks
    sq_norms = np.empty(len(blocks))
    for i, blk in enumerate(blocks):
        sub = A[blk, :] if kind == "row" else A[:, blk]
        if blk.size == 1:
            # spectral norm of a single row/column is its euclidean norm
            sq_norms[i] = float(np.linalg.norm(sub)) ** 2
        else:
            sq_norms[i] = spectral_norm(sub) ** 2
    return BlockPartition(kind, axis_len, blocks, sq_norms, probabilities)


def row_partition(A, blocks=None, probabilities=None):
    """Row partition of A; defaults to one block per row."""
    return _partition("row", A, blocks, probabilities)


def column_partition(A, blocks=None, probabilities=None):
    """Column partition of A; defaults to one block per column."""
    return _partition("column", A, blocks, probabilities)


def contiguous_blocks(length, count):
    """Split range(length) into `count` contiguous blocks of near-equal size."""
    if not 1 <= count <= length:
        raise ValueError(f"need 1 <= count <= {length}, got {count}")
    bounds = np.linspace(0, length, count + 1).astype(np.intp)
    return [np.arange(bounds[i], bounds[i + 1], dtype=np.intp) for i in range(count)]


def paired_blocks(half_len):
    """Blocks {i, half_len+i}, the row/column pairing of the real embedding."""
    return [np.array([i, half_len + i], dtype=np.intp) for i in range(half_len)]
