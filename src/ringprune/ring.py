"""Deterministic simulation of collective exchanges on a node ring.

Results and byte counts are pure functions of the inputs and seeds. Chunk c
of the parameter range is owned by node c, and a reduction accumulates
contributions in ring order starting from the owner:

    chunk c  =  ((x_c + x_{c+1}) + x_{c+2}) + ...   (node indices mod N)

Fixing the summation order this way makes repeated runs bit-identical and
lets an independent checker reproduce the exact floating-point result. The
reduce kernel does not move buffers hop by hop: it rotates each chunk's
column block of the (node, entry) array once, so that row i holds the
chunk's i-th contributor, then adds the rows in order. Every element then
sees the additions of the hop-by-hop ring in the same order.

The messages are those of the scatter-reduce and allgather schedules, 2(N-1)
per node: at scatter hop s node k forwards its partial of chunk k - s, and
at allgather hop s the finished chunk k + 1 - s. Their payload bytes follow
from per-chunk entry counts and are recorded in :class:`LinkStats`, one
block of arrays per phase; on a ring the sending node identifies the link,
since node k only ever sends to k+1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec import INDEX_BYTES, VALUE_BYTES, BitMask, SparseGradient
from .codec import decode_mask, encode_mask, or_masks
from .errors import ConfigError, StructuralError
from .seeds import SELECT_STREAM, substream

PHASE_SCATTER = "scatter_reduce"
PHASE_ALLGATHER = "allgather"
PHASE_MASK = "mask_round"

BANDWIDTH_CSV_HEADER = ("step", "node", "phase", "bytes")


@dataclass(frozen=True)
class RingTopology:
    """A ring of nodes, each owning one contiguous chunk of the vector.

    When the vector is shorter than the ring, it is implicitly zero-padded to
    one element per node so the message schedule is unchanged.
    """

    n_nodes: int
    length: int
    chunk_bounds: tuple[int, ...]

    @classmethod
    def create(cls, n_nodes: int, length: int) -> "RingTopology":
        if n_nodes < 2:
            raise StructuralError(f"ring needs at least 2 nodes, got {n_nodes}")
        if length < 0:
            raise StructuralError(f"vector length must be >= 0, got {length}")
        padded = max(length, n_nodes)
        quotient, remainder = divmod(padded, n_nodes)
        bounds = [0]
        for c in range(n_nodes):
            bounds.append(bounds[-1] + quotient + (1 if c < remainder else 0))
        return cls(n_nodes=n_nodes, length=length, chunk_bounds=tuple(bounds))

    @property
    def padded_length(self) -> int:
        return self.chunk_bounds[-1]


@dataclass(frozen=True)
class MaskAgreementConfig:
    """How nodes agree on a shared mask without a coordinator.

    ``n_selected_nodes`` masks are broadcast per round; the broadcasters are
    drawn from a stream keyed by (shared_seed, step) that every node can
    evaluate identically.
    """

    n_selected_nodes: int = 2
    shared_seed: int = 1234

    def __post_init__(self) -> None:
        if self.n_selected_nodes < 1:
            raise ConfigError(
                f"n_selected_nodes must be >= 1, got {self.n_selected_nodes}"
            )


class LinkStats:
    """Ring traffic, stored as columns.

    Each :meth:`record_messages` call appends one block: a step, a phase and
    two equal-length int64 arrays, the senders and the payload bytes of its
    messages. Queries sum the arrays. :attr:`records` is a read-only view
    that expands the blocks into one (step, sender, phase, payload_bytes)
    tuple per message, in recording order.
    """

    __slots__ = ("_blocks",)

    def __init__(self) -> None:
        self._blocks: list[tuple[int, str, np.ndarray, np.ndarray]] = []

    def record_messages(self, step: int, phase: str, senders, sizes) -> None:
        """``senders[i]`` sends one message of ``sizes[i]`` bytes; the arrays are kept."""
        senders, sizes = np.asarray(senders, dtype=np.int64), np.asarray(sizes, dtype=np.int64)
        if senders.ndim != 1 or senders.shape != sizes.shape:
            raise StructuralError(f"senders {senders.shape} and sizes {sizes.shape} differ")
        if np.any(sizes < 0):
            raise StructuralError("payload_bytes must be >= 0")
        self._blocks.append((int(step), phase, senders, sizes))

    def extend(self, other: "LinkStats") -> None:
        self._blocks.extend(other._blocks)

    @property
    def records(self) -> tuple[tuple[int, int, str, int], ...]:
        return tuple(
            (step, sender, phase, nbytes)
            for step, phase, senders, sizes in self._blocks
            for sender, nbytes in zip(senders.tolist(), sizes.tolist())
        )

    def total_bytes(self) -> int:
        return self.bytes_for()

    def bytes_for(self, phase: str | None = None, node: int | None = None) -> int:
        """Bytes sent under ``phase`` (any if None) by ``node`` (any if None)."""
        return sum(
            int((sizes if node is None else sizes[senders == node]).sum())
            for _step, block_phase, senders, sizes in self._blocks
            if phase is None or block_phase == phase
        )

    def aggregated_rows(self) -> list[tuple[int, int, str, int]]:
        """Byte totals summed per (step, node, phase), sorted; a key has a row
        when at least one message, of any size, was sent under it."""
        blocks = self._blocks
        if not blocks:
            return []
        names = sorted({b[1] for b in blocks})
        steps, step_ranks = np.unique([b[0] for b in blocks], return_inverse=True)
        senders = np.concatenate([b[2] for b in blocks])
        n_phases = len(names)
        per_step = (int(senders.max(initial=-1)) + 1) * n_phases
        # One integer key per message: (step rank, sender, phase rank) in
        # mixed radix, so keys sort as the rows do (a phase's rank sorts as
        # its name does).
        block_keys = step_ranks * per_step + [names.index(b[1]) for b in blocks]
        keys = np.repeat(block_keys, [b[2].shape[0] for b in blocks])
        keys += senders * n_phases
        n_keys = len(steps) * per_step
        present = np.flatnonzero(np.bincount(keys, minlength=n_keys))
        # float64 sums are exact while every total stays below 2**53 bytes
        totals = np.bincount(keys, np.concatenate([b[3] for b in blocks]), n_keys)
        step_rank, rest = np.divmod(present, per_step)
        nodes, codes = np.divmod(rest, n_phases)
        return list(
            zip(
                steps[step_rank].tolist(),
                nodes.tolist(),
                [names[c] for c in codes.tolist()],
                totals[present].astype(np.int64).tolist(),
            )
        )


def write_bandwidth_csv(stats: LinkStats, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BANDWIDTH_CSV_HEADER)
        writer.writerows(stats.aggregated_rows())


def _stack_vectors(contributions, topo: RingTopology) -> np.ndarray:
    """One float64 row per node, validated against the topology. An (N, P)
    float64 array is used as it is, without a copy."""
    try:
        rows = np.asarray(contributions, dtype=np.float64)
    except ValueError as exc:  # ragged rows
        raise StructuralError(f"contributions do not form one row per node: {exc}") from exc
    if rows.shape != (topo.n_nodes, topo.length):
        raise StructuralError(
            f"contributions of shape {rows.shape} do not match "
            f"{topo.n_nodes} nodes of vector length {topo.length}"
        )
    return rows


def _rotate_chunks(rows: np.ndarray, bounds) -> np.ndarray:
    """Reorder each chunk's column block so that row i holds the chunk's i-th
    contributor: columns bounds[c]:bounds[c + 1] of row i come from node c + i."""
    n = rows.shape[0]
    rotated = np.empty_like(rows)
    for c in range(n):
        cols = slice(bounds[c], bounds[c + 1])
        rotated[: n - c, cols] = rows[c:, cols]
        rotated[n - c :, cols] = rows[:c, cols]
    return rotated


def _ring_reduce(rows, bounds, counts, step, entry_bytes) -> tuple[np.ndarray, LinkStats]:
    """Owner-first sum of ``rows`` (one per node) over chunks ``bounds``, and
    the scatter-reduce and allgather messages, one block per phase.

    ``counts[s, c]`` is the number of entries in chunk c's partial once it
    holds s + 1 contributions; row N-1 is the finished chunk. At scatter hop s
    node k forwards chunk k - s, and at allgather hop s chunk k + 1 - s.
    """
    rotated = _rotate_chunks(rows, bounds)
    total = rotated[0].copy()
    for row in rotated[1:]:
        total += row
    n = rows.shape[0]
    # (N-1, N) size tables, row s = hop s, column k = sender k
    senders = np.arange(n)
    hops = senders[: n - 1, None]
    scatter = counts[hops, (senders - hops) % n]
    allgather = counts[n - 1][(senders + 1 - hops) % n]
    block_senders = np.tile(senders, n - 1)
    stats = LinkStats()
    stats.record_messages(step, PHASE_SCATTER, block_senders, entry_bytes * scatter.ravel())
    stats.record_messages(step, PHASE_ALLGATHER, block_senders, entry_bytes * allgather.ravel())
    return total, stats


def _fixed_counts(bounds, n: int) -> np.ndarray:
    """Per-hop entry counts of chunks whose size does not change in transit."""
    return np.broadcast_to(np.diff(bounds), (n, n))


def dense_allreduce(
    contributions,
    topo: RingTopology,
    *,
    step: int = 0,
) -> tuple[np.ndarray, LinkStats]:
    """Elementwise sum of all contributions, delivered to every node.

    Each node sends exactly 2(N-1) chunk messages, padding included. The
    returned vector is the one every node ends up holding.
    """
    rows = _stack_vectors(contributions, topo)
    # Padding entries are zeros: they only add to the message bytes.
    bounds = np.minimum(topo.chunk_bounds, topo.length)
    counts = _fixed_counts(topo.chunk_bounds, topo.n_nodes)
    return _ring_reduce(rows, bounds, counts, step, VALUE_BYTES)


def select_broadcast_nodes(n_nodes: int, cfg: MaskAgreementConfig, step: int) -> tuple[int, ...]:
    """Draw the broadcasting nodes for one agreement round.

    Repeated uniform integer draws with duplicate rejection from the stream
    keyed by (shared_seed, SELECT_STREAM, step). The draw uses no node-local
    state, so every node computes the same answer with no coordinator, and an
    independent checker can replay it from this description.
    """
    if cfg.n_selected_nodes > n_nodes:
        raise ConfigError(
            f"cannot select {cfg.n_selected_nodes} of {n_nodes} nodes"
        )
    rng = substream(cfg.shared_seed, SELECT_STREAM, step)
    chosen: list[int] = []
    while len(chosen) < cfg.n_selected_nodes:
        candidate = int(rng.integers(0, n_nodes))
        if candidate not in chosen:
            chosen.append(candidate)
    return tuple(chosen)


def mask_agreement_round(
    broadcast_masks: list[BitMask],
    broadcasters: Sequence[int],
    n_nodes: int,
    step: int,
) -> tuple[BitMask, LinkStats]:
    """Agree on one shared mask by OR-combining the broadcasters' masks.

    ``broadcasters`` are the nodes :func:`select_broadcast_nodes` drew, in
    draw order, and ``broadcast_masks`` their local masks in the same order;
    no other node's mask reaches the shared one, so no other is needed. Each
    mask is byte-packed, circulated around the ring of ``n_nodes`` (it
    traverses the N-1 hops needed to visit every node), decoded, and
    OR-combined. Every node ends the round holding the identical mask.
    """
    masks = list(broadcast_masks)
    if not masks:
        raise StructuralError("mask agreement needs at least one broadcast mask")
    if len(masks) != len(broadcasters):
        raise StructuralError(f"got {len(masks)} masks for {len(broadcasters)} broadcasters")
    stats = LinkStats()
    received: list[BitMask] = []
    for origin, mask in zip(broadcasters, masks):
        if not 0 <= origin < n_nodes:
            raise StructuralError(f"broadcaster {origin} is not a node of {n_nodes}")
        enc = encode_mask(mask)
        senders = (origin + np.arange(n_nodes - 1)) % n_nodes
        stats.record_messages(
            step, PHASE_MASK, senders, np.full(n_nodes - 1, len(enc.payload))
        )
        received.append(decode_mask(enc))
    return or_masks(received), stats


def sparse_allreduce(
    contributions: SparseGradient,
    topo: RingTopology,
    *,
    step: int = 0,
) -> tuple[SparseGradient, LinkStats]:
    """Sum of the nodes' sparse gradients on their shared index set.

    ``contributions`` is a node-stacked block: the one index set every node
    agreed on and an (N, nnz) array of values, one row per node, as
    :func:`codec.split_by_mask` cuts it from the stacked residuals. Values
    are summed per index in the same owner-first ring order as the dense
    reduce. The output index set is exactly the shared one, so density is
    preserved no matter how many nodes reduce.
    """
    values = contributions.values
    rows = values.shape[0] if values.ndim == 2 else 1
    if rows != topo.n_nodes:
        raise StructuralError(f"got {rows} contribution rows for {topo.n_nodes} nodes")
    if contributions.total_length != topo.length:
        raise StructuralError(
            f"sparse total_length {contributions.total_length} does not match "
            f"topology length {topo.length}"
        )
    idx = contributions.indices
    # Chunk c carries the sparse entries whose parameter index falls in the
    # chunk's range; those are contiguous in the sorted index list.
    cuts = np.searchsorted(idx, np.asarray(topo.chunk_bounds))
    counts = _fixed_counts(cuts, topo.n_nodes)
    total, stats = _ring_reduce(values, cuts, counts, step, VALUE_BYTES + INDEX_BYTES)
    return SparseGradient(indices=idx, values=total, total_length=topo.length), stats


def naive_sparse_allreduce(
    contributions,
    local_masks: list[BitMask],
    topo: RingTopology,
    *,
    step: int = 0,
) -> tuple[SparseGradient, LinkStats]:
    """Sparse reduce without mask agreement, for the densification contrast.

    Each node contributes only its own masked entries, but partial sums union
    their index sets hop by hop, so payloads grow as they travel. Message
    bytes reflect the growing unions: a running OR of the masks in each
    chunk's owner-first order. The result is the sum of the masked
    contributions on the union support.
    """
    rows = _stack_vectors(contributions, topo)
    if len(local_masks) != topo.n_nodes:
        raise StructuralError(f"got {len(local_masks)} masks for {topo.n_nodes} nodes")
    for m in local_masks:
        if m.length != topo.length:
            raise StructuralError(
                f"mask length {m.length} does not match vector length {topo.length}"
            )
    bits = np.stack([m.bits for m in local_masks])
    bounds = np.minimum(topo.chunk_bounds, topo.length)
    # running[s] is, per column, the OR of the first s + 1 contributors'
    # masks in the column's chunk order; its last row is the full union.
    running = np.logical_or.accumulate(_rotate_chunks(bits, bounds), axis=0)
    counts = np.stack(
        [
            np.count_nonzero(running[:, bounds[c] : bounds[c + 1]], axis=1)
            for c in range(topo.n_nodes)
        ],
        axis=1,
    )
    sent = np.where(bits, rows, 0.0)
    total, stats = _ring_reduce(sent, bounds, counts, step, VALUE_BYTES + INDEX_BYTES)
    idx = np.flatnonzero(running[-1])
    return SparseGradient(indices=idx, values=total[idx], total_length=topo.length), stats
