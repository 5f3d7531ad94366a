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
k + 1, and allgather sender k every chunk but k + 2. A phase's messages thus
follow from a table of chunk bytes, one row, or one row per hop when chunks
grow in transit (the contrast's scatter), which is all :class:`LinkStats`
stores. A mask round runs on the scatter schedule without reducing: node o's
broadcast is chunk o, forwarded at hop s by node o + s, and the chunks of
nodes that do not broadcast are 0 bytes and send no message. The sending
node identifies the link: node k only sends to k+1.
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


# Schedule offset of each phase: at hop s node k sends chunk k + offset - s.
_PHASE_OFFSETS = {PHASE_SCATTER: 0, PHASE_ALLGATHER: 1, PHASE_MASK: 0}


class _RingPhase(NamedTuple):
    """One phase of the ring schedule: at hop s node k sends chunk
    c = (k + offset - s) mod N, of ``chunk_bytes[s mod rows, c]`` bytes. The
    table has one row, or N-1, one per hop, when chunks grow in transit.
    In a mask round a 0-byte chunk was not broadcast: it is no message."""

    step: int
    phase: str
    chunk_bytes: np.ndarray

    def hop_bytes(self) -> np.ndarray:
        """(N-1, N): row s the bytes each node sends at hop s."""
        n = self.chunk_bytes.shape[1]
        senders = np.arange(n)
        chunks = (senders + _PHASE_OFFSETS[self.phase] - senders[: n - 1, None]) % n
        return np.take_along_axis(self.chunk_bytes, chunks, 1)

    def messages(self) -> tuple[np.ndarray, np.ndarray]:
        """The messages hop by hop, each hop's in sender order."""
        sizes = self.hop_bytes()
        senders = np.broadcast_to(np.arange(sizes.shape[1]), sizes.shape)
        if self.phase == PHASE_MASK:
            return senders[sizes > 0], sizes[sizes > 0]
        return senders.ravel(), sizes.ravel()

    def per_sender(self) -> tuple[np.ndarray, np.ndarray]:
        rows, n = self.chunk_bytes.shape
        senders = np.arange(n)
        if rows > 1:  # a per-hop table: sum its messages by sender
            totals = self.hop_bytes().sum(axis=0)
        else:  # over its N-1 hops node k sends every chunk but k + offset + 1
            skipped = self.chunk_bytes[0, (senders + _PHASE_OFFSETS[self.phase] + 1) % n]
            totals = int(self.chunk_bytes.sum()) - skipped
        if self.phase == PHASE_MASK:  # a node that forwarded no mask has no row
            return senders[totals > 0], totals[totals > 0]
        return senders, totals

    def payload_bytes(self) -> int:
        # each chunk crosses N-1 hops, at one row's bytes or at each hop's own
        rows, n = self.chunk_bytes.shape
        return (n - 1) * int(self.chunk_bytes.sum()) // rows


class LinkStats:
    """Ring traffic, stored as columns.

    Each call of :meth:`record_ring_phase` appends one block: a phase's table
    of chunk bytes, one row of N or one row per hop. A reduce phase sends
    N(N-1) messages, 0-byte ones included; a mask round only its broadcast
    chunks. Byte counts sum each block's total and the bandwidth rows its
    per-sender totals; :attr:`records` is a read-only view that expands the
    blocks into one (step, sender, phase, payload_bytes) tuple per message,
    block by block in recording order, each block's hop by hop.
    """

    __slots__ = ("_blocks",)

    def __init__(self) -> None:
        self._blocks: list[_RingPhase] = []

    def record_ring_phase(self, step: int, phase: str, chunk_bytes) -> None:
        """One scatter-reduce, allgather or mask phase on a ring of N nodes:
        chunk c is ``chunk_bytes[c]`` bytes at every hop of an (N,) table, or
        ``chunk_bytes[s, c]`` at hop s of an (N-1, N) table. Byte counts must
        be integers; in a mask round chunk o is broadcaster o's mask, and a
        0-byte chunk one that was not broadcast."""
        chunk_bytes = np.asarray(chunk_bytes)
        if phase not in _PHASE_OFFSETS:
            raise StructuralError(f"'{phase}' is not a ring phase")
        n = chunk_bytes.shape[-1] if chunk_bytes.ndim else 0
        if n < 2 or chunk_bytes.shape not in ((n,), (n - 1, n)):
            raise StructuralError(f"chunk bytes of shape {chunk_bytes.shape} are not a ring's")
        if chunk_bytes.dtype.kind not in "iu":
            raise StructuralError(f"chunk bytes of dtype {chunk_bytes.dtype} are not integers")
        chunk_bytes = chunk_bytes.astype(np.int64, copy=False)
        if np.any(chunk_bytes < 0):
            raise StructuralError("payload_bytes must be >= 0")
        self._blocks.append(_RingPhase(int(step), phase, chunk_bytes.reshape(-1, n)))

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
        blocks_by_step: dict[int, list[_RingPhase]] = defaultdict(list)
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


def _ring_reduce(rows, bounds, scatter_bytes, gather_bytes, step) -> tuple[np.ndarray, LinkStats]:
    """Owner-first sum of ``rows`` over chunks ``bounds``, and the ring phases
    that carry it, each a table of chunk bytes: one row, or one row per hop."""
    stats = LinkStats()
    stats.record_ring_phase(step, PHASE_SCATTER, scatter_bytes)
    stats.record_ring_phase(step, PHASE_ALLGATHER, gather_bytes)
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
    chunk_bytes = VALUE_BYTES * np.diff(topo.chunk_bounds)
    return _ring_reduce(rows, topo.chunk_bounds, chunk_bytes, chunk_bytes, step)


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

    ``broadcasters`` are the distinct nodes :func:`select_broadcast_nodes`
    drew, in draw order, and ``broadcast_masks`` their local masks in the same
    order; no other node's mask reaches the shared one, so no other is needed.
    Each mask is byte-packed, circulated around the ring of ``n_nodes`` (it
    traverses the N-1 hops needed to visit every node), decoded, and
    OR-combined. Every node ends the round holding the identical mask. The
    round is recorded as one table on the scatter schedule, broadcaster o's
    encoded mask as chunk o and every other chunk as 0 bytes.
    """
    masks = list(broadcast_masks)
    if not masks:
        raise StructuralError("mask agreement needs at least one broadcast mask")
    if len(masks) != len(broadcasters):
        raise StructuralError(f"got {len(masks)} masks for {len(broadcasters)} broadcasters")
    if n_nodes < 2:
        raise StructuralError(f"ring needs at least 2 nodes, got {n_nodes}")
    chunk_bytes = np.zeros(n_nodes, dtype=np.int64)
    received: list[BitMask] = []
    for origin, mask in zip(broadcasters, masks):
        if not 0 <= origin < n_nodes:
            raise StructuralError(f"broadcaster {origin} is not a node of {n_nodes}")
        if chunk_bytes[origin]:
            raise StructuralError(f"broadcaster {origin} is named twice")
        if not mask.length:
            raise StructuralError(f"broadcaster {origin}'s mask has length 0")
        payload = encode_mask(mask)
        chunk_bytes[origin] = len(payload)
        received.append(decode_mask(payload, mask.length))
    stats = LinkStats()
    stats.record_ring_phase(step, PHASE_MASK, chunk_bytes)
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

    A message carries ``VALUE_BYTES`` per entry and no indices: after
    :func:`mask_agreement_round` every node holds the same mask, derives the
    same sorted index list and the same chunk cuts from it, and so places
    each received value by its position in the chunk. An all-ones mask thus
    sends exactly the dense reduce's bytes.
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
    # chunk's range; those are contiguous in the sorted index list. A message
    # carries the chunk's values only (see above).
    cuts = np.searchsorted(idx, topo.chunk_bounds)
    chunk_bytes = VALUE_BYTES * np.diff(cuts)
    total, stats = _ring_reduce(values, cuts, chunk_bytes, chunk_bytes, step)
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
    Message bytes reflect the growing unions: a running OR of the masks,
    built per chunk from chunk c's column block, stacked in the chunk's
    owner-first order and OR-accumulated in place. The result is the sum of
    the masked contributions on the union support. Its phases are tables of
    chunk bytes cut from an (N, N) table of entry counts: one row per hop for
    the scatter, whose payloads grow, and the last row for the allgather.

    Each entry costs ``VALUE_BYTES + INDEX_BYTES``: the nodes share no mask,
    and a partial's support is the union of its contributors' masks, which no
    receiver holds, so every value travels with its index.
    """
    rows = _stack_vectors(contributions, topo)
    bits = np.asarray(local_bits)
    if bits.shape != rows.shape or bits.dtype != np.bool_:
        raise StructuralError(
            f"masks of shape {bits.shape} and dtype {bits.dtype} are not one bool row "
            f"per node of vector length {topo.length}"
        )
    bounds = topo.chunk_bounds
    n = topo.n_nodes
    # counts[s, c]: entries in chunk c's partial once it holds s + 1 contributions
    counts = np.empty((n, n), dtype=np.int64)
    union = np.empty(topo.length, dtype=bool)
    for c in range(n):
        cols = slice(bounds[c], bounds[c + 1])
        # row s: the OR of chunk c's first s + 1 contributors' masks
        running = np.concatenate((bits[c:, cols], bits[:c, cols]))
        np.logical_or.accumulate(running, axis=0, out=running)
        counts[:, c] = np.count_nonzero(running, axis=1)
        union[cols] = running[-1]
    chunk_bytes = (VALUE_BYTES + INDEX_BYTES) * counts
    total, stats = _ring_reduce(
        np.where(bits, rows, 0.0), bounds, chunk_bytes[:-1], chunk_bytes[-1], step
    )
    idx = np.flatnonzero(union)
    return SparseGradient(indices=idx, values=total[idx], total_length=topo.length), stats
