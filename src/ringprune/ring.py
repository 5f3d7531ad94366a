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
from per-chunk entry counts and are recorded in :class:`LinkStats`; on a
ring the sending node identifies the link, since node k only ever sends to
k+1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .codec import (
    INDEX_BYTES,
    VALUE_BYTES,
    BitMask,
    SparseGradient,
    decode_mask,
    encode_mask,
    or_masks,
)
from .errors import ConfigError, StructuralError
from .seeds import SELECT_STREAM, substream

PHASE_SCATTER = "scatter_reduce"
PHASE_ALLGATHER = "allgather"
PHASE_MASK = "mask_round"
REDUCE_PHASES = (PHASE_SCATTER, PHASE_ALLGATHER)

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

    def successor(self, node: int) -> int:
        return (node + 1) % self.n_nodes

    def chunk_slice(self, chunk: int) -> slice:
        return slice(self.chunk_bounds[chunk], self.chunk_bounds[chunk + 1])


@dataclass(frozen=True)
class MaskAgreementConfig:
    """How nodes agree on a shared mask without a coordinator.

    ``n_selected_nodes`` masks are broadcast per round; the broadcasters are
    drawn from a stream keyed by (shared_seed, step) that every node can
    evaluate identically.
    """

    n_selected_nodes: int = 2
    shared_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_selected_nodes < 1:
            raise ConfigError(
                f"n_selected_nodes must be >= 1, got {self.n_selected_nodes}"
            )


class LinkStats:
    """Per-message byte accounting for ring traffic."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        # (step, sender, phase, payload_bytes), one record per message
        self.records: list[tuple[int, int, str, int]] = []

    def record(self, step: int, sender: int, phase: str, payload_bytes: int) -> None:
        if payload_bytes < 0:
            raise StructuralError("payload_bytes must be >= 0")
        self.records.append((int(step), int(sender), phase, int(payload_bytes)))

    def record_hop(self, step: int, phase: str, sizes: np.ndarray) -> None:
        """Record one message from every node; node k sends ``sizes[k]`` bytes."""
        if np.any(sizes < 0):
            raise StructuralError("payload_bytes must be >= 0")
        step = int(step)
        self.records.extend(
            (step, sender, phase, nbytes) for sender, nbytes in enumerate(sizes.tolist())
        )

    def extend(self, other: "LinkStats") -> None:
        self.records.extend(other.records)

    def total_bytes(self) -> int:
        return sum(r[3] for r in self.records)

    def bytes_for(self, phase: str | None = None, node: int | None = None) -> int:
        return sum(
            r[3]
            for r in self.records
            if (phase is None or r[2] == phase) and (node is None or r[1] == node)
        )

    def message_count(self, node: int | None = None, phases: tuple[str, ...] = REDUCE_PHASES) -> int:
        return sum(
            1
            for r in self.records
            if r[2] in phases and (node is None or r[1] == node)
        )

    def aggregated_rows(self) -> list[tuple[int, int, str, int]]:
        """Byte totals summed per (step, node, phase), sorted."""
        totals: dict[tuple[int, int, str], int] = {}
        for step, sender, phase, nbytes in self.records:
            key = (step, sender, phase)
            totals[key] = totals.get(key, 0) + nbytes
        return [(s, n, p, b) for (s, n, p), b in sorted(totals.items())]


@dataclass(frozen=True)
class BandwidthReport:
    """Aggregated traffic view: per-(step, node, phase) rows plus totals."""

    rows: tuple[tuple[int, int, str, int], ...]
    per_node_bytes: dict[int, int]
    total_bytes: int


def bandwidth_report(stats: LinkStats) -> BandwidthReport:
    rows = tuple(stats.aggregated_rows())
    per_node: dict[int, int] = {}
    for _step, node, _phase, nbytes in rows:
        per_node[node] = per_node.get(node, 0) + nbytes
    return BandwidthReport(
        rows=rows,
        per_node_bytes=dict(sorted(per_node.items())),
        total_bytes=sum(r[3] for r in rows),
    )


def write_bandwidth_csv(stats: LinkStats, path) -> None:
    report = bandwidth_report(stats)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BANDWIDTH_CSV_HEADER)
        for step, node, phase, nbytes in report.rows:
            writer.writerow([step, node, phase, nbytes])


def _stack_vectors(contributions, topo: RingTopology) -> np.ndarray:
    """One float64 row per node, validated against the topology."""
    vecs = [np.asarray(v, dtype=np.float64) for v in contributions]
    if len(vecs) != topo.n_nodes:
        raise StructuralError(
            f"got {len(vecs)} contributions for {topo.n_nodes} nodes"
        )
    for v in vecs:
        if v.ndim != 1 or v.shape[0] != topo.length:
            raise StructuralError(
                f"contribution shape {v.shape} does not match vector length {topo.length}"
            )
    return np.stack(vecs)


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


def _ring_reduce(rows, bounds, counts, stats, step, entry_bytes) -> np.ndarray:
    """Owner-first sum of ``rows`` (one per node) over chunks ``bounds``, with
    the scatter-reduce and allgather messages recorded in ``stats``.

    ``counts[s, c]`` is the number of entries in chunk c's partial once it
    holds s + 1 contributions; row N-1 is the finished chunk. At scatter hop s
    node k forwards chunk k - s, and at allgather hop s chunk k + 1 - s.
    """
    rotated = _rotate_chunks(rows, bounds)
    total = rotated[0].copy()
    for row in rotated[1:]:
        total += row
    n = rows.shape[0]
    senders = np.arange(n)
    for s in range(n - 1):
        stats.record_hop(step, PHASE_SCATTER, entry_bytes * counts[s, (senders - s) % n])
    finished = counts[n - 1]
    for s in range(n - 1):
        stats.record_hop(step, PHASE_ALLGATHER, entry_bytes * finished[(senders + 1 - s) % n])
    return total


def _fixed_counts(bounds, n: int) -> np.ndarray:
    """Per-hop entry counts of chunks whose size does not change in transit."""
    return np.broadcast_to(np.diff(bounds), (n, n))


def dense_allreduce(
    contributions,
    topo: RingTopology,
    *,
    step: int = 0,
    value_bytes: int = VALUE_BYTES,
) -> tuple[np.ndarray, LinkStats]:
    """Elementwise sum of all contributions, delivered to every node.

    Each node sends exactly 2(N-1) chunk messages, padding included. The
    returned vector is the one every node ends up holding.
    """
    rows = _stack_vectors(contributions, topo)
    stats = LinkStats()
    # Padding entries are zeros: they only add to the message bytes.
    total = _ring_reduce(
        rows,
        np.minimum(topo.chunk_bounds, topo.length),
        _fixed_counts(topo.chunk_bounds, topo.n_nodes),
        stats,
        step,
        value_bytes,
    )
    return total, stats


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
    local_masks: list[BitMask],
    cfg: MaskAgreementConfig,
    step: int,
) -> tuple[BitMask, LinkStats]:
    """Agree on one shared mask by OR-combining broadcast masks.

    The selected nodes' masks are byte-packed, circulated around the ring
    (each traverses the N-1 hops needed to visit every node), decoded, and
    OR-combined. Every node ends the round holding the identical mask.
    """
    masks = list(local_masks)
    if not masks:
        raise StructuralError("mask agreement needs at least one local mask")
    length = masks[0].length
    for m in masks[1:]:
        if m.length != length:
            raise StructuralError(f"mask length mismatch: {m.length} vs {length}")
    n = len(masks)
    selected = select_broadcast_nodes(n, cfg, step)
    stats = LinkStats()
    received: list[BitMask] = []
    for origin in selected:
        enc = encode_mask(masks[origin])
        nbytes = len(enc.payload)
        for hop in range(n - 1):
            stats.record(step, (origin + hop) % n, PHASE_MASK, nbytes)
        received.append(decode_mask(enc))
    return or_masks(received), stats


def sparse_allreduce(
    contributions: SparseGradient,
    topo: RingTopology,
    *,
    step: int = 0,
    value_bytes: int = VALUE_BYTES,
    index_bytes: int = INDEX_BYTES,
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
    stats = LinkStats()
    total = _ring_reduce(
        values,
        cuts,
        _fixed_counts(cuts, topo.n_nodes),
        stats,
        step,
        value_bytes + index_bytes,
    )
    return SparseGradient(indices=idx, values=total, total_length=topo.length), stats


def dgc_union_contrast(per_node_masks: list[BitMask], topo: RingTopology | None = None) -> float:
    """Density after a reduce in which nodes picked indices independently.

    Each hop of such a reduce unions the index sets it carries, so the final
    density is that of the OR of all local masks, growing toward
    min(1, N * d) as node count rises. ``topo`` is optional and only
    validated against the mask count when given, so the single-node
    degenerate case can be expressed.
    """
    masks = list(per_node_masks)
    if topo is not None and len(masks) != topo.n_nodes:
        raise StructuralError(
            f"got {len(masks)} masks for {topo.n_nodes} nodes"
        )
    return or_masks(masks).density()


def naive_sparse_allreduce(
    contributions,
    local_masks: list[BitMask],
    topo: RingTopology,
    *,
    step: int = 0,
    value_bytes: int = VALUE_BYTES,
    index_bytes: int = INDEX_BYTES,
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
        raise StructuralError(
            f"got {len(local_masks)} masks for {topo.n_nodes} nodes"
        )
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
    stats = LinkStats()
    total = _ring_reduce(
        np.where(bits, rows, 0.0), bounds, counts, stats, step, value_bytes + index_bytes
    )
    idx = np.flatnonzero(running[-1])
    return SparseGradient(indices=idx, values=total[idx], total_length=topo.length), stats
