"""Row and column block partitions with sampling probabilities.

A partition splits the row (or column) index range of a matrix into disjoint
nonempty index sets.  Single-index partitions are the common case; arbitrary
index sets are allowed so that, e.g., rows {i, m+i} of an embedded complex
matrix can form one block.  Each block carries its squared spectral norm,
computed once at construction, and a partition draws its own blocks (draw).
"""

import math

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, ZeroMatrix
from .linalg import as_matrix, row_sq_norms, spectral_norm


class BlockPartition:
    """Partition of one axis of a matrix into sampling blocks.

    kind is "row" or "column".  blocks is a list of int index arrays that are
    disjoint, nonempty, and together cover range(axis length), or one 2-d int
    array holding a block per row, as the default single-index partition of
    row_partition and column_partition holds its (k, 1) blocks.  A block whose
    squared norm is 0 has probability 0 and is never drawn; probabilities are
    positive on the other blocks and sum to 1 (uniform over them when
    omitted).  ZeroMatrix when every block is zero.
    """

    def __init__(self, kind, axis_len, blocks, block_sq_norms, probabilities=None):
        self._index(kind, axis_len, blocks)
        self._weigh(block_sq_norms, probabilities)

    def _index(self, kind, axis_len, blocks):
        """Set kind, axis_len, blocks and trivial; the one check of the blocks (owners)."""
        if kind not in ("row", "column"):
            raise ValueError(f"kind must be 'row' or 'column', got {kind!r}")
        self.kind = kind
        self.axis_len = int(axis_len)
        if isinstance(blocks, np.ndarray) and blocks.ndim == 2:  # one block per row
            self.blocks = _indices(blocks)
        else:
            self.blocks = [_indices(np.asarray(blk)) for blk in blocks]
        owner = owners(self.blocks, self.axis_len)
        # True when block i is exactly [i]; lets the solver skip indexed gathers
        self.trivial = bool(np.array_equal(owner, np.arange(len(self.blocks))))

    def _weigh(self, block_sq_norms, probabilities):
        """Set block_sq_norms, probabilities and their cumulative sums."""
        self.block_sq_norms = np.asarray(block_sq_norms, dtype=np.float64)
        if self.block_sq_norms.size != len(self.blocks):
            raise DimensionMismatch("need one squared norm per block")
        if np.any(self.block_sq_norms < 0.0):
            raise ValueError("squared block norms must be >= 0")
        nonzero = self.block_sq_norms != 0.0
        if not nonzero.any():
            raise ZeroMatrix(f"every {self.kind} block is zero")

        k = len(self.blocks)
        if probabilities is None:
            p = np.where(nonzero, 1.0 / np.count_nonzero(nonzero), 0.0)
        else:
            p = np.asarray(probabilities, dtype=np.float64)
            if p.size != k:
                raise DimensionMismatch("need one probability per block")
            if not (np.all(p[nonzero] > 0.0) and np.all(p[~nonzero] == 0.0)):
                raise ValueError("probabilities must be positive on the nonzero blocks "
                                 "and 0 on the zero ones")
            with np.errstate(over="ignore"):  # a sum past the largest double fails the check
                total = float(p.sum())
            if not abs(total - 1.0) <= 1e-12:
                raise ValueError("probabilities must sum to 1 within 1e-12")
        self.probabilities = p
        self._cum = np.cumsum(p)

    def __len__(self):
        return len(self.blocks)

    def draw(self, u):
        """Block index of each uniform u in [0, 1): the first k with cum[k] > u,
        cum the cumulative block probabilities, so a block of probability 0 is
        never drawn.  Rounding can leave cum[-1] just below 1, so indices are
        clamped to the last block of positive probability.  The one
        implementation of index sampling: an array of u at once, or a scalar u
        giving a numpy integer."""
        cum = self._cum
        return np.minimum(cum.searchsorted(u, side="right"), cum.searchsorted(cum[-1]))

    def sample(self, rng):
        """Draw one block index using one uniform."""
        return int(self.draw(rng.random()))


def _indices(block):
    """block as intp; ValueError for a nonempty block of non-integer indices
    (floats or bools), which a cast would truncate."""
    if block.size and not np.issubdtype(block.dtype, np.integer):
        raise ValueError(f"block indices must be integers, got {block.dtype}")
    return block.astype(np.intp, copy=False)


def owners(blocks, n, noun="block"):
    """Index of the block holding each of 0..n-1; blocks are int index arrays,
    or one 2-d int array holding a block per row.

    This is the one check of a partition: raises ValueError unless there is
    at least one block and the blocks are nonempty, disjoint and cover
    range(n), and DimensionMismatch for an index outside it.  noun names
    the blocks in the messages.
    """
    if len(blocks) == 0:
        raise ValueError(f"need at least one {noun}")
    if isinstance(blocks, np.ndarray):
        sizes, flat = blocks.shape[1], blocks.reshape(-1)
    else:
        sizes = np.array([blk.size for blk in blocks])
        flat = np.concatenate([blk.ravel() for blk in blocks])
    if not np.all(sizes):
        raise ValueError(f"empty {noun}")
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
    lines = A if kind == "row" else A.T
    part = BlockPartition.__new__(BlockPartition)
    # checked before A is indexed with the blocks; one block per line by default
    part._index(kind, len(lines), np.arange(len(lines))[:, None] if blocks is None else blocks)
    blocks = part.blocks
    message = f"the squared {kind} norms of A overflow or underflow; rescale A"
    try:
        with np.errstate(over="ignore"):
            # spectral norm of a single row/column is its euclidean norm
            if isinstance(blocks, np.ndarray) and blocks.shape[1] == 1:
                sq_norms = row_sq_norms(lines)[blocks[:, 0]]
            else:
                line_sq_norms = row_sq_norms(lines) if any(blk.size == 1 for blk in blocks) else None
                sq_norms = np.array([
                    line_sq_norms[blk[0]] if blk.size == 1
                    else _spectral_sq_norm(A[blk, :] if kind == "row" else A[:, blk])
                    for blk in blocks
                ])
    except OverflowError:  # a finite block's norm squared past the largest double
        raise ValueError(message) from None
    for k in np.flatnonzero(~((sq_norms >= np.finfo(float).tiny) & (sq_norms < math.inf))):
        block = lines[blocks[k]]
        # a zero block is never drawn (BlockPartition), a non-finite line raises
        # NonFiniteInput in the solver
        if block.any() and np.isfinite(block).all():
            raise ValueError(message)
    part._weigh(sq_norms, probabilities)
    return part


def _spectral_sq_norm(block):
    """Squared spectral norm of a finite block; NonFiniteInput, not a failed SVD, else."""
    if not np.isfinite(block).all():
        raise NonFiniteInput("A must hold finite values only")
    return spectral_norm(block) ** 2


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
