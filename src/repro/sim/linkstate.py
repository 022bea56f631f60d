"""Link states: the dense matrix, or node positions plus a CSR for unit disk.

A channel's link state is the pairwise quantity it derives from node
positions: audibility for the unit-disk model, received power for Friis.  It
takes one of two forms, picked by the node count alone
(:func:`~repro.sim.engine.default_spatial_tiling`: sparse above
:data:`~repro.sim.engine.SPATIAL_TILING_AUTO_NODES` nodes), and
:func:`link_block` reads an exact ``(rows, cols)`` block out of either:

* the dense ``N x N`` matrix of :meth:`~repro.sim.radio.Channel.link_state`,
  sliced with ``np.ix_``;
* a :class:`SparseLinkState` from
  :meth:`~repro.sim.radio.Channel.link_state_sparse`, which keeps the node
  positions instead.  :class:`UnitDiskLinkState` also keeps the CSR
  audibility graph and reads a block off one gather of the columns' CSR
  rows.  :class:`FriisLinkState` recomputes each power block from
  positions.

Both unit-disk forms are read off one CSR, :func:`unit_disk_csr`, built with
grid-bucketed array passes (:class:`~repro.topology.grid.GridBuckets`): the
dense mask is scattered from it and :class:`UnitDiskLinkState` keeps it.  So
running a unit-disk scenario on both forms (the tests lower the node
threshold to 0 for the sparse side) checks the two block readers, the
``np.ix_`` slice and the CSR gather, against each other; audibility itself
is pinned against the distance predicate of
:meth:`~repro.sim.radio.UnitDiskChannel.observe` by the brute-force tests of
:meth:`~repro.topology.grid.GridBuckets.neighbor_arrays` and by the
link-state tests, which compare both forms with that predicate.

Bit identity is the hard contract: every block equals the dense slice bit
for bit.  Unit-disk audibility beyond the radius is exactly false, and the
CSR keeps exactly the pairs the distance predicate accepts, so it is the
whole link state.  Friis powers never truncate, so their blocks are
recomputed with the dense construction's elementwise expressions, whose
float64 results do not depend on the array shape.  The sparse form saves
memory (``O(N * neighborhood)`` for unit disk, ``O(N)`` for Friis, instead of
``O(N^2)``), never physics.
"""

from __future__ import annotations

import abc

import numpy as np

from ..topology.grid import GridBuckets

__all__ = [
    "link_block",
    "unit_disk_csr",
    "SparseLinkState",
    "UnitDiskLinkState",
    "FriisLinkState",
]


def _index_dtype(num_nodes: int, nnz: int) -> np.dtype:
    """Smallest safe integer dtype for the CSR ``indptr``/``indices`` arrays.

    ``indices`` stores node ids (< ``num_nodes``) and ``indptr`` stores
    offsets into ``indices`` (<= ``nnz``); when both fit in a signed 32-bit
    integer the arrays are halved.  At the 10^5-node scale the CSR pair is
    the dominant live allocation, so this is a real saving, and every
    consumer (fancy indexing, ``searchsorted``, arithmetic against ``intp``
    arrays) is dtype-agnostic.  Beyond 2^31 - 1 links the structure falls
    back to int64 rather than overflow.
    """
    limit = np.iinfo(np.int32).max
    if num_nodes <= limit and nnz <= limit:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def unit_disk_csr(positions: np.ndarray, radius: float, norm: str) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of unit-disk audibility, self-links included.

    Row ``i`` (``indices[indptr[i]:indptr[i+1]]``, ascending) lists every
    node ``j`` with ``distance(i, j) <= radius + 1e-12`` under ``norm``: the
    audibility predicate of :meth:`~repro.sim.radio.UnitDiskChannel.observe`,
    tolerance included, evaluated in grid-bucketed array passes
    (:meth:`~repro.topology.grid.GridBuckets.neighbor_arrays`).  Both
    unit-disk forms are read off it: :class:`UnitDiskLinkState` keeps it,
    and the dense mask of
    :meth:`~repro.sim.radio.UnitDiskChannel.link_state` is scattered from it.
    """
    buckets = GridBuckets(positions, cell_size=radius)
    return buckets.neighbor_arrays(radius + 1e-12, norm, include_self=True)


def link_block(state, rows, cols) -> np.ndarray:
    """Exact ``(len(rows), len(cols))`` block of a link state.

    ``state`` is the dense matrix or a :class:`SparseLinkState`; either way
    the block equals ``matrix[np.ix_(rows, cols)]`` bit for bit.
    """
    if isinstance(state, SparseLinkState):
        return state.submatrix(rows, cols)
    return state[np.ix_(rows, cols)]


class SparseLinkState(abc.ABC):
    """Node positions in place of the dense ``N x N`` link-state matrix."""

    def __init__(self, positions: np.ndarray, dense_itemsize: int) -> None:
        self.positions = np.asarray(positions, dtype=float)
        self.dense_itemsize = int(dense_itemsize)

    @abc.abstractmethod
    def submatrix(self, rows, cols) -> np.ndarray:
        """Exact ``(len(rows), len(cols))`` block, equal to the dense slice."""

    @property
    def sparse_bytes(self) -> int:
        return int(self.positions.nbytes)

    @property
    def dense_bytes_avoided(self) -> int:
        """Bytes the dense matrix would need minus what the sparse tier keeps."""
        n = int(self.positions.shape[0])
        return max(n * n * self.dense_itemsize - self.sparse_bytes, 0)

    def info(self) -> dict:
        """Introspection snapshot for ``plan_cache_info()["spatial_tiling"]``."""
        return {"dense_bytes_avoided": self.dense_bytes_avoided}


class UnitDiskLinkState(SparseLinkState):
    """Positions plus the CSR audibility graph of a unit-disk channel.

    Row ``i`` of the CSR (``indices[indptr[i]:indptr[i+1]]``, ascending)
    lists every node within the radius of ``i``, ``i`` itself included, as
    the dense mask's diagonal does.  Audibility is symmetric, so row ``i``
    also lists the nodes that hear ``i``.
    """

    def __init__(self, positions: np.ndarray, radius: float, norm: str) -> None:
        super().__init__(positions, dense_itemsize=1)
        self.radius = float(radius)
        self.norm = norm
        indptr, indices = unit_disk_csr(self.positions, self.radius, norm)
        # Downcast the CSR pair to int32 when safe: the values are identical,
        # only the storage shrinks.
        dtype = _index_dtype(self.positions.shape[0], int(indices.size))
        self.indptr = indptr.astype(dtype, copy=False)
        self.indices = indices.astype(dtype, copy=False)
        # Node -> block row lookup of block_entries; -1 outside a call.
        self._row_of = np.full(self.positions.shape[0], -1, dtype=np.intp)

    @property
    def nnz(self) -> int:
        """Stored links, including the self-link diagonal (dense-mask parity)."""
        return int(self.indices.size)

    @property
    def sparse_bytes(self) -> int:
        return int(self.indices.nbytes + self.indptr.nbytes + self.positions.nbytes)

    def block_entries(self, rows, cols) -> tuple[np.ndarray, np.ndarray]:
        """``(row, col)`` positions of the true entries of the ``(rows, cols)`` block.

        Audibility is symmetric, so column ``j`` is true exactly at the rows
        whose node is in the CSR row of ``cols[j]``.  One gather concatenates
        the columns' CSR rows (a round has far fewer senders than
        listeners), and a node-indexed lookup keeps the neighbours that are
        among ``rows``, which must be distinct node ids.  The entries come
        out grouped by column, each column's entries in ascending node id
        (so in ascending row when ``rows`` ascends).
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        starts = self.indptr[cols].astype(np.intp)
        lengths = self.indptr[cols + 1] - starts
        col = np.repeat(np.arange(cols.size), lengths)
        # Entry p of the concatenated rows is global entry
        # starts[c] + (p - offset of column c's row) for its column c.
        shift = starts - (np.cumsum(lengths) - lengths)
        neighbors = self.indices[shift[col] + np.arange(col.size)]
        row_of = self._row_of
        row_of[rows] = np.arange(rows.size)
        row = row_of[neighbors]
        row_of[rows] = -1
        kept = row >= 0
        return row[kept], col[kept]

    def submatrix(self, rows, cols) -> np.ndarray:
        """Exact audibility block, scattered from :meth:`block_entries`."""
        block = np.zeros((len(rows), len(cols)), dtype=bool)
        block[self.block_entries(rows, cols)] = True
        return block

    def info(self) -> dict:
        return {
            "sparse_nnz": self.nnz,
            "index_dtype": str(self.indices.dtype),
            **super().info(),
        }


class FriisLinkState(SparseLinkState):
    """Positions of a Friis channel; each power block is recomputed exactly.

    Friis power never truncates: every sender contributes to every
    listener's interference sum, as in the dense matrix, so a round's block
    is recomputed from positions and results cannot drift however far apart
    the nodes are.
    """

    def __init__(
        self,
        positions: np.ndarray,
        *,
        tx_power: float,
        reference_distance: float,
        path_loss_exponent: float,
    ) -> None:
        super().__init__(positions, dense_itemsize=8)
        self.tx_power = float(tx_power)
        self.reference_distance = float(reference_distance)
        self.path_loss_exponent = float(path_loss_exponent)

    def submatrix(self, rows, cols) -> np.ndarray:
        """Exact received-power block, recomputed with the dense expressions."""
        lp = self.positions[np.asarray(rows, dtype=np.intp)]
        sp = self.positions[np.asarray(cols, dtype=np.intp)]
        diff = lp[:, None, :] - sp[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1))
        dist = np.maximum(dist, self.reference_distance)
        return self.tx_power * (self.reference_distance / dist) ** self.path_loss_exponent
