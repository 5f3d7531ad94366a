"""Deterministic simulation of collective exchanges on a node ring.

Results and byte counts are pure functions of the inputs and seeds. Chunk c
of the parameter range is owned by node c, and a reduction accumulates
contributions in ring order starting from the owner:

    chunk c  =  ((x_c + x_{c+1}) + x_{c+2}) + ...   (node indices mod N)

Fixing the summation order this way makes repeated runs bit-identical and
lets an independent checker reproduce the exact floating-point result. The
reduce kernel does not move buffers hop by hop, nor copy the (node, entry)
array: it adds the rows in place into one total that starts at -0.0, in two
passes. The first adds each node i's entries of chunks 0..i, the second
each node i's entries of chunks i+1..N-1, so every element sees the
additions of the hop-by-hop ring in the same order.

The messages are those of the scatter-reduce and allgather schedules of
Patarasuk & Yuan (JPDC 2009), 2(N-1) per node: at scatter hop s node k
forwards its partial of chunk k - s, and at allgather hop s the finished
chunk k + 1 - s. So over a phase scatter sender k sends every chunk but
k + 1, and allgather sender k every chunk but k + 2. When a chunk's size does
not change in transit (the dense and the shared-index reduce), a phase's
payload bytes follow from its N per-chunk byte counts, and :class:`LinkStats`
stores just those; on a ring the sending node identifies the link, since
node k only ever sends to k+1.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

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

    When the vector is shorter than the ring, the chunks past its end are
    empty, and their messages carry 0 bytes.
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
        quotient, remainder = divmod(length, n_nodes)
        bounds = [0]
        for c in range(n_nodes):
            bounds.append(bounds[-1] + quotient + (1 if c < remainder else 0))
        return cls(n_nodes=n_nodes, length=length, chunk_bounds=tuple(bounds))

    @property
    def padded_length(self) -> int:
        return self.length  # no chunk is padded; kept because perfbench reads it


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


# Schedule offset of each reduce phase: at hop s node k sends chunk k + offset - s.
_PHASE_OFFSETS = {PHASE_SCATTER: 0, PHASE_ALLGATHER: 1}


class _Messages(NamedTuple):
    """Messages listed one by one: ``senders[i]`` sends ``sizes[i]`` bytes.
    They are also the per-sender totals, a sender appearing once per message."""

    step: int
    phase: str
    senders: np.ndarray
    sizes: np.ndarray

    def messages(self) -> tuple[np.ndarray, np.ndarray]:
        return self.senders, self.sizes

    per_sender = messages

    def payload_bytes(self) -> int:
        return int(self.sizes.sum())


class _RingPhase(NamedTuple):
    """One reduce phase of the ring schedule over chunks whose size does not
    change in transit: at hop s node k sends chunk (k + offset - s) mod N, of
    ``chunk_bytes[c]`` bytes."""

    step: int
    phase: str
    chunk_bytes: np.ndarray

    def messages(self) -> tuple[np.ndarray, np.ndarray]:
        """(N-1) x N messages, hop by hop, each hop's in sender order."""
        n = self.chunk_bytes.shape[0]
        senders = np.arange(n)
        chunks = (senders + _PHASE_OFFSETS[self.phase] - senders[: n - 1, None]) % n
        return np.tile(senders, n - 1), self.chunk_bytes[chunks].ravel()

    def per_sender(self) -> tuple[np.ndarray, np.ndarray]:
        # over its N-1 hops node k sends every chunk but k + offset + 1
        n = self.chunk_bytes.shape[0]
        senders = np.arange(n)
        skipped = self.chunk_bytes[(senders + _PHASE_OFFSETS[self.phase] + 1) % n]
        return senders, int(self.chunk_bytes.sum()) - skipped

    def payload_bytes(self) -> int:
        # each chunk crosses N-1 hops
        return (self.chunk_bytes.shape[0] - 1) * int(self.chunk_bytes.sum())


class LinkStats:
    """Ring traffic, stored as columns.

    Each recording call appends one block. :meth:`record_messages` keeps two
    equal-length int64 arrays, the senders and the payload bytes of its
    messages (a mask round's N-1 forwards, say). :meth:`record_ring_phase`
    keeps a reduce phase whose chunks do not change size in transit as its N
    per-chunk byte counts, O(N) where its messages number N(N-1). Byte
    counts sum each block's total and the bandwidth rows its per-sender
    totals; :attr:`records` is a read-only view that expands
    the blocks into one (step, sender, phase, payload_bytes) tuple per
    message, in recording order.
    """

    __slots__ = ("_blocks",)

    def __init__(self) -> None:
        self._blocks: list[_Messages | _RingPhase] = []

    def record_messages(self, step: int, phase: str, senders, sizes) -> None:
        """``senders[i]`` sends one message of ``sizes[i]`` bytes; the arrays are kept."""
        senders, sizes = np.asarray(senders, dtype=np.int64), np.asarray(sizes, dtype=np.int64)
        if senders.ndim != 1 or senders.shape != sizes.shape:
            raise StructuralError(f"senders {senders.shape} and sizes {sizes.shape} differ")
        if np.any(sizes < 0):
            raise StructuralError("payload_bytes must be >= 0")
        self._blocks.append(_Messages(int(step), phase, senders, sizes))

    def record_ring_phase(self, step: int, phase: str, chunk_bytes) -> None:
        """One scatter-reduce or allgather phase on a ring of
        ``len(chunk_bytes)`` nodes, chunk c being ``chunk_bytes[c]`` bytes
        at every hop."""
        chunk_bytes = np.asarray(chunk_bytes, dtype=np.int64)
        if phase not in _PHASE_OFFSETS:
            raise StructuralError(f"'{phase}' is not a reduce phase")
        if chunk_bytes.ndim != 1 or chunk_bytes.shape[0] < 2:
            raise StructuralError(f"chunk bytes of shape {chunk_bytes.shape} are not a ring's")
        if np.any(chunk_bytes < 0):
            raise StructuralError("payload_bytes must be >= 0")
        self._blocks.append(_RingPhase(int(step), phase, chunk_bytes))

    def extend(self, other: "LinkStats") -> None:
        self._blocks.extend(other._blocks)

    @property
    def records(self) -> tuple[tuple[int, int, str, int], ...]:
        return tuple(
            (block.step, sender, block.phase, nbytes)
            for block in self._blocks
            for senders, sizes in (block.messages(),)
            for sender, nbytes in zip(senders.tolist(), sizes.tolist())
        )

    def bytes_for(self, phase: str | None = None) -> int:
        """Bytes sent under ``phase`` (any if None)."""
        return sum(
            block.payload_bytes()
            for block in self._blocks
            if phase is None or block.phase == phase
        )

    def iter_aggregated_rows(self) -> Iterator[tuple[int, int, str, int]]:
        """Byte totals summed per (step, node, phase), sorted; a key has a row
        when at least one message, of any size, was sent under it. Made one
        step at a time, so that a long run's rows are never all held at once."""
        blocks_by_step: dict[int, list[_Messages | _RingPhase]] = defaultdict(list)
        for block in self._blocks:
            blocks_by_step[block.step].append(block)
        for step in sorted(blocks_by_step):
            totals: dict[tuple[int, str], int] = defaultdict(int)
            for block in blocks_by_step[step]:
                senders, sizes = block.per_sender()
                for sender, nbytes in zip(senders.tolist(), sizes.tolist()):
                    totals[sender, block.phase] += nbytes
            for (sender, phase), nbytes in sorted(totals.items()):
                yield step, sender, phase, nbytes


def write_bandwidth_csv(stats: LinkStats, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BANDWIDTH_CSV_HEADER)
        writer.writerows(stats.iter_aggregated_rows())


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
    contributor: columns bounds[c]:bounds[c + 1] of row i come from node c + i.
    Only the contrast reduce uses it, for the running OR of its masks."""
    n = rows.shape[0]
    rotated = np.empty_like(rows)
    for c in range(n):
        cols = slice(bounds[c], bounds[c + 1])
        rotated[: n - c, cols] = rows[c:, cols]
        rotated[n - c :, cols] = rows[:c, cols]
    return rotated


def _ring_sum(rows: np.ndarray, bounds) -> np.ndarray:
    """Owner-first sum of ``rows`` (one per node) over chunks ``bounds``.

    Chunk c's sum is x_c + x_{c+1} + ... + x_{N-1} + x_0 + ... + x_{c-1},
    added left to right into one (P,) total in two passes. Pass 1 adds row
    i's columns :bounds[i + 1], so every chunk c <= i gets its term x_i in
    the order c, ..., N-1; pass 2 then adds row i's columns bounds[i + 1]:,
    so every chunk c > i gets x_0, ..., x_{c-1}. The total starts at -0.0,
    which leaves the first term's bits as they are (+0.0 would turn a sum of
    -0.0s into +0.0). The rows are added one at a time:
    ``np.add.reduce(..., axis=0)`` sums a one-column array pairwise, which
    breaks the ring's order.
    """
    total = np.full(rows.shape[1], -0.0)
    ends = bounds[1:]
    for row, end in zip(rows, ends):
        head = total[:end]
        np.add(head, row[:end], out=head)
    for row, end in zip(rows[:-1], ends):
        tail = total[end:]
        np.add(tail, row[end:], out=tail)
    return total


def _fixed_size_reduce(rows, bounds, entry_bytes, step) -> tuple[np.ndarray, LinkStats]:
    """Owner-first sum of ``rows`` over chunks ``bounds``, and the scatter-reduce
    and allgather phases of those chunks, at ``entry_bytes`` per entry."""
    chunk_bytes = entry_bytes * np.diff(bounds)
    stats = LinkStats()
    stats.record_ring_phase(step, PHASE_SCATTER, chunk_bytes)
    stats.record_ring_phase(step, PHASE_ALLGATHER, chunk_bytes)
    return _ring_sum(rows, bounds), stats


def dense_allreduce(
    contributions,
    topo: RingTopology,
    *,
    step: int = 0,
) -> tuple[np.ndarray, LinkStats]:
    """Elementwise sum of all contributions, delivered to every node.

    Each node sends exactly 2(N-1) chunk messages; an empty chunk's carry
    0 bytes. The returned vector is the one every node ends up holding.
    """
    rows = _stack_vectors(contributions, topo)
    return _fixed_size_reduce(rows, topo.chunk_bounds, VALUE_BYTES, step)


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
        payload = encode_mask(mask)
        senders = (origin + np.arange(n_nodes - 1)) % n_nodes
        stats.record_messages(
            step, PHASE_MASK, senders, np.full(n_nodes - 1, len(payload))
        )
        received.append(decode_mask(payload, mask.length))
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
    if values.ndim != 2 or values.shape[0] != topo.n_nodes:
        raise StructuralError(
            f"got contribution values of shape {values.shape} for {topo.n_nodes} nodes"
        )
    if contributions.total_length != topo.length:
        raise StructuralError(
            f"sparse total_length {contributions.total_length} does not match "
            f"topology length {topo.length}"
        )
    idx = contributions.indices
    # Chunk c carries the sparse entries whose parameter index falls in the
    # chunk's range; those are contiguous in the sorted index list.
    cuts = np.searchsorted(idx, topo.chunk_bounds)
    total, stats = _fixed_size_reduce(values, cuts, VALUE_BYTES + INDEX_BYTES, step)
    return SparseGradient(indices=idx, values=total, total_length=topo.length), stats


def naive_sparse_allreduce(
    contributions,
    local_bits: np.ndarray,
    topo: RingTopology,
    *,
    step: int = 0,
) -> tuple[SparseGradient, LinkStats]:
    """Sparse reduce without mask agreement, for the densification contrast.

    ``local_bits`` is the (N, P) bool stack of the nodes' masks, row k node
    k's. Each node contributes only its own masked entries, but partial sums
    union their index sets hop by hop, so payloads grow as they travel.
    Message bytes reflect the growing unions: a running OR of the masks in
    each chunk's owner-first order. The result is the sum of the masked
    contributions on the union support. Since scatter payloads change size
    hop by hop, that phase is recorded message by message, from an (N, N)
    table of entry counts.
    """
    rows = _stack_vectors(contributions, topo)
    bits = np.asarray(local_bits)
    if bits.shape != rows.shape or bits.dtype != np.bool_:
        raise StructuralError(
            f"masks of shape {bits.shape} and dtype {bits.dtype} are not one bool row "
            f"per node of vector length {topo.length}"
        )
    bounds = topo.chunk_bounds
    # running[s] is, per column, the OR of the first s + 1 contributors'
    # masks in the column's chunk order; its last row is the full union.
    running = np.logical_or.accumulate(_rotate_chunks(bits, bounds), axis=0)
    n = topo.n_nodes
    # counts[s, c]: entries in chunk c's partial once it holds s + 1 contributions
    counts = np.stack(
        [np.count_nonzero(running[:, bounds[c] : bounds[c + 1]], axis=1) for c in range(n)],
        axis=1,
    )
    entry_bytes = VALUE_BYTES + INDEX_BYTES
    senders = np.arange(n)
    hops = senders[: n - 1, None]
    stats = LinkStats()
    scatter = entry_bytes * counts[hops, (senders - hops) % n]
    stats.record_messages(step, PHASE_SCATTER, np.tile(senders, n - 1), scatter.ravel())
    stats.record_ring_phase(step, PHASE_ALLGATHER, entry_bytes * counts[n - 1])
    total = _ring_sum(np.where(bits, rows, 0.0), bounds)
    idx = np.flatnonzero(running[-1])
    return SparseGradient(indices=idx, values=total[idx], total_length=topo.length), stats
