import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringprune import (
    INDEX_BYTES,
    VALUE_BYTES,
    BitMask,
    ConfigError,
    EpochSchedule,
    LinkStats,
    MaskAgreementConfig,
    MlpClassificationTask,
    RingTopology,
    SparseGradient,
    StructuralError,
    decode_mask,
    dense_allreduce,
    encode_mask,
    mask_agreement_round,
    naive_sparse_allreduce,
    or_masks,
    TrainingConfig,
    run_experiment,
    select_broadcast_nodes,
    sparse_allreduce,
    split_by_mask,
)
from ringprune.ring import PHASE_ALLGATHER, PHASE_MASK, PHASE_SCATTER

from oracles import (
    chunk_slice,
    densify,
    dgc_union_contrast,
    fixed_threshold_policy,
    message_count,
    stored_integers,
    successor,
)

PHASES = (PHASE_SCATTER, PHASE_ALLGATHER, PHASE_MASK)


@dataclass(frozen=True)
class BandwidthReport:
    """Aggregated traffic view: per-(step, node, phase) rows plus totals."""

    rows: tuple[tuple[int, int, str, int], ...]
    per_node_bytes: dict[int, int]
    total_bytes: int


def bandwidth_report(stats: LinkStats) -> BandwidthReport:
    rows = tuple(stats.iter_aggregated_rows())
    per_node: dict[int, int] = {}
    for _step, node, _phase, nbytes in rows:
        per_node[node] = per_node.get(node, 0) + nbytes
    return BandwidthReport(
        rows=rows,
        per_node_bytes=dict(sorted(per_node.items())),
        total_bytes=sum(r[3] for r in rows),
    )


def ring_order_sum_oracle(contributions, topo):
    """Independent reimplementation of the documented reduction order:
    chunk c accumulates contributions left to right starting from node c."""
    n = topo.n_nodes
    vecs = [np.asarray(v, dtype=float) for v in contributions]
    out = np.zeros(topo.length)
    for c in range(n):
        sl = chunk_slice(topo, c)
        acc = vecs[c][sl].copy()
        for i in range(1, n):
            acc = acc + vecs[(c + i) % n][sl]
        out[sl] = acc
    return out


def _ring_exchange(chunked, topo, sent, step, chunk_nbytes, combine):
    """Run the scatter-reduce and allgather hop schedules over per-node,
    per-chunk buffers, combining partials with ``combine`` and adopting
    finished chunks by reference. Appends each message to ``sent`` as a
    (step, sender, phase, bytes) tuple."""
    n = topo.n_nodes
    # Scatter-reduce: at hop s, node k forwards its partial of chunk (k - s);
    # the receiver folds it in ahead of its own contribution, which keeps the
    # accumulation order owner-first.
    for s in range(n - 1):
        sends = []
        for k in range(n):
            c = (k - s) % n
            sends.append((k, c, chunked[k][c]))
            sent.append((step, k, PHASE_SCATTER, chunk_nbytes(chunked[k][c])))
        for k, c, payload in sends:
            r = successor(topo, k)
            chunked[r][c] = combine(payload, chunked[r][c])
    # Allgather: node k forwards chunk (k + 1 - s); the receiver adopts it.
    for s in range(n - 1):
        sends = []
        for k in range(n):
            c = (k + 1 - s) % n
            sends.append((k, c, chunked[k][c]))
            sent.append((step, k, PHASE_ALLGATHER, chunk_nbytes(chunked[k][c])))
        for k, c, payload in sends:
            chunked[successor(topo, k)][c] = payload


def _agreed(per_node):
    """The result every node holds after the exchange; all copies must agree."""
    for other in per_node[1:]:
        assert np.array_equal(other, per_node[0])
    return per_node[0]


def hop_dense_oracle(contributions, topo, step):
    """Dense all-reduce moved hop by hop through per-node chunk buffers:
    (sum, messages)."""
    chunked = [
        [np.array(v[chunk_slice(topo, c)]) for c in range(topo.n_nodes)]
        for v in contributions
    ]
    sent = []
    _ring_exchange(
        chunked,
        topo,
        sent,
        step,
        chunk_nbytes=lambda chunk: chunk.shape[0] * VALUE_BYTES,
        combine=lambda incoming, own: incoming + own,
    )
    return _agreed([np.concatenate(c) for c in chunked]), sent


def hop_sparse_oracle(contributions, topo, step):
    """Shared-index sparse all-reduce of a node-stacked block, moved hop by
    hop: (indices, sums, messages). Every node holds the shared index set, so
    a message carries its chunk's values only."""
    idx = contributions.indices
    cuts = np.searchsorted(idx, np.asarray(topo.chunk_bounds))
    chunked = [
        [np.array(row[cuts[c]: cuts[c + 1]]) for c in range(topo.n_nodes)]
        for row in contributions.values
    ]
    sent = []
    _ring_exchange(
        chunked,
        topo,
        sent,
        step,
        chunk_nbytes=lambda chunk: chunk.shape[0] * VALUE_BYTES,
        combine=lambda incoming, own: incoming + own,
    )
    return idx, _agreed([np.concatenate(c) for c in chunked]), sent


def hop_naive_oracle(contributions, local_bits, topo, step):
    """No-agreement reduce moved hop by hop, index sets unioning on the way:
    (indices, sums, messages)."""
    chunked = []
    for v, bits in zip(contributions, local_bits):
        vals = np.where(bits, v, 0.0)
        chunked.append(
            [
                (np.array(vals[chunk_slice(topo, c)]), np.array(bits[chunk_slice(topo, c)]))
                for c in range(topo.n_nodes)
            ]
        )
    sent = []
    _ring_exchange(
        chunked,
        topo,
        sent,
        step,
        chunk_nbytes=lambda chunk: int(np.count_nonzero(chunk[1])) * (VALUE_BYTES + INDEX_BYTES),
        combine=lambda incoming, own: (incoming[0] + own[0], incoming[1] | own[1]),
    )
    final_vals = _agreed([np.concatenate([c[0] for c in node]) for node in chunked])
    final_mask = _agreed([np.concatenate([c[1] for c in node]) for node in chunked])
    idx = np.flatnonzero(final_mask)
    return idx, final_vals[idx], sent


def forward_oracle(payloads, n, step):
    """Broadcasts moved hop by hop around a ring of ``n`` nodes. At hop 0 each
    origin o sends ``payloads[o]`` to its successor; at every later hop each
    node passes on the payload it received at the hop before, so a payload
    has visited every node after N-1 hops. Returns the payloads each node
    holds at the end and the messages as (step, sender, phase, bytes) tuples."""
    topo = RingTopology.create(n, 0)
    held = [[] for _ in range(n)]
    outgoing = [None] * n
    for origin, payload in payloads.items():
        held[origin].append(payload)
        outgoing[origin] = payload
    sent = []
    for _hop in range(n - 1):
        incoming = [None] * n
        for k, payload in enumerate(outgoing):
            if payload is not None:
                sent.append((step, k, PHASE_MASK, len(payload)))
                incoming[successor(topo, k)] = payload
        for k, payload in enumerate(incoming):
            if payload is not None:
                held[k].append(payload)
        outgoing = incoming
    return held, sent


def mask_round_oracle(masks, cfg, step):
    """The mask round forwarded hop by hop: (the mask every node gets by
    decoding and OR-ing the payloads it holds, the messages)."""
    n, length = len(masks), masks[0].length
    payloads = {o: encode_mask(masks[o]) for o in select_broadcast_nodes(n, cfg, step)}
    held, sent = forward_oracle(payloads, n, step)
    shared = [or_masks([decode_mask(p, length) for p in node]).bits for node in held]
    return BitMask(_agreed(shared)), sent


def reference_rows(records):
    """Per-message records summed per (step, node, phase) in a dict, sorted."""
    totals = {}
    for step, sender, phase, nbytes in records:
        key = (step, sender, phase)
        totals[key] = totals.get(key, 0) + nbytes
    return [(s, n, p, b) for (s, n, p), b in sorted(totals.items())]


def selection_oracle(shared_seed, step, n_nodes, n_selected):
    """Independent replay of the documented broadcaster draw: repeated
    uniform integers with duplicate rejection from stream (seed, 3, step)."""
    rng = np.random.default_rng(np.random.SeedSequence(shared_seed, spawn_key=(3, step)))
    chosen = []
    while len(chosen) < n_selected:
        candidate = int(rng.integers(0, n_nodes))
        if candidate not in chosen:
            chosen.append(candidate)
    return tuple(chosen)


# --- topology -----------------------------------------------------------------


def test_topology_partitions_vector():
    topo = RingTopology.create(4, 103)
    sizes = [topo.chunk_bounds[i + 1] - topo.chunk_bounds[i] for i in range(4)]
    assert sum(sizes) == 103
    assert max(sizes) - min(sizes) <= 1
    assert successor(topo, 3) == 0


def test_topology_leaves_empty_chunks_past_a_short_vector():
    topo = RingTopology.create(3, 1)
    assert topo.chunk_bounds == (0, 1, 1, 1)
    assert topo.padded_length == topo.length == 1


def test_topology_rejects_small_rings():
    with pytest.raises(StructuralError):
        RingTopology.create(1, 10)


# --- dense all-reduce -----------------------------------------------------------


def test_dense_scalar_per_chunk():
    topo = RingTopology.create(3, 1)
    result, stats = dense_allreduce(
        [np.array([1.0]), np.array([2.0]), np.array([3.0])], topo
    )
    assert result.tolist() == [6.0]
    for node in range(3):
        assert message_count(stats, node=node) == 4  # 2(N-1)


def test_dense_two_nodes():
    topo = RingTopology.create(2, 2)
    result, _ = dense_allreduce([np.array([1.0, 0.0]), np.array([0.0, 1.0])], topo)
    assert result.tolist() == [1.0, 1.0]


def test_dense_matches_ring_order_oracle_exactly():
    rng = np.random.default_rng(21)
    topo = RingTopology.create(5, 100)
    contribs = [rng.standard_normal(100) for _ in range(5)]
    result, _ = dense_allreduce(contribs, topo)
    assert np.array_equal(result, ring_order_sum_oracle(contribs, topo))
    # And matches a plain left-to-right sum to float tolerance.
    sequential = contribs[0].copy()
    for v in contribs[1:]:
        sequential = sequential + v
    assert np.allclose(result, sequential, rtol=1e-6)


def test_dense_message_count_across_ring_sizes():
    rng = np.random.default_rng(22)
    for n in range(2, 17):
        topo = RingTopology.create(n, 40)
        _, stats = dense_allreduce([rng.standard_normal(40) for _ in range(n)], topo)
        for node in range(n):
            assert message_count(stats, node=node) == 2 * (n - 1)


def test_dense_sends_only_the_real_entries_at_any_length():
    # One chunk rule: chunk bytes are VALUE_BYTES per entry of the chunk, so
    # a vector shorter than the ring leaves empty chunks whose messages carry
    # 0 bytes. At N = 3, P = 1 a step sends 2 * 2 * 1 * 4 = 16 bytes.
    for n in range(2, 18):
        for length in range(n + 4):
            topo = RingTopology.create(n, length)
            vecs = np.arange(n * length, dtype=float).reshape(n, length)
            total, stats = dense_allreduce(vecs, topo)
            assert total.tolist() == vecs.sum(axis=0).tolist()
            for node in range(n):
                assert message_count(stats, node=node) == 2 * (n - 1)
            assert stats.bytes_for() == 2 * (n - 1) * length * VALUE_BYTES, (n, length)


def test_dense_length_mismatch():
    topo = RingTopology.create(2, 3)
    with pytest.raises(StructuralError):
        dense_allreduce([np.zeros(3), np.zeros(4)], topo)
    with pytest.raises(StructuralError):
        dense_allreduce([np.zeros(3)], topo)


def test_dense_byte_accounting():
    # 100 float32-sized params, N=4: each node sends 3 chunks of 25 values
    # of 4 bytes per phase.
    topo = RingTopology.create(4, 100)
    _, stats = dense_allreduce([np.ones(100) for _ in range(4)], topo)
    per_node = {(node, phase): nbytes for _, node, phase, nbytes in stats.iter_aggregated_rows()}
    assert per_node == {
        (node, phase): 300 for node in range(4) for phase in (PHASE_SCATTER, PHASE_ALLGATHER)
    }


# --- mask agreement --------------------------------------------------------------


def _random_masks(rng, n, length, density):
    return [BitMask(rng.random(length) < density) for _ in range(n)]


def agree(masks, cfg, step):
    """The agreement round as the trainer runs it: draw the broadcasters,
    then pass only their masks, in draw order."""
    nodes = select_broadcast_nodes(len(masks), cfg, step)
    return mask_agreement_round([masks[k] for k in nodes], nodes, len(masks), step)


def test_agreement_all_selected_is_or_of_all():
    rng = np.random.default_rng(30)
    masks = _random_masks(rng, 4, 64, 0.3)
    cfg = MaskAgreementConfig(n_selected_nodes=4, shared_seed=7)
    shared, _ = agree(masks, cfg, step=0)
    assert shared == or_masks(masks)


def test_agreement_single_selection_identical_masks():
    mask = BitMask(np.array([True, False, True, False]))
    cfg = MaskAgreementConfig(n_selected_nodes=1, shared_seed=3)
    shared, _ = agree([mask] * 5, cfg, step=2)
    assert shared == mask


def test_agreement_selection_matches_independent_oracle():
    cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=99)
    for step in range(20):
        got = select_broadcast_nodes(8, cfg, step)
        assert got == selection_oracle(99, step, 8, 2)
        assert select_broadcast_nodes(8, cfg, step) == got  # repeatable
        assert len(set(got)) == 2


def test_agreement_selection_varies_with_step_and_seed():
    cfg = MaskAgreementConfig(n_selected_nodes=3, shared_seed=5)
    draws = {select_broadcast_nodes(16, cfg, step) for step in range(25)}
    assert len(draws) > 1
    other = MaskAgreementConfig(n_selected_nodes=3, shared_seed=6)
    assert any(
        select_broadcast_nodes(16, cfg, s) != select_broadcast_nodes(16, other, s)
        for s in range(25)
    )


def test_agreement_byte_accounting():
    rng = np.random.default_rng(31)
    length = 100  # 13 encoded bytes
    masks = _random_masks(rng, 6, length, 0.2)
    cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=1)
    _, stats = agree(masks, cfg, step=4)
    assert stats.bytes_for(phase=PHASE_MASK) == 2 * (6 - 1) * 13
    assert message_count(stats, phases=(PHASE_MASK,)) == 2 * 5


@pytest.mark.parametrize("n", [2, 3, 5, 64])
def test_agreement_records_match_per_hop_oracle(n):
    rng = np.random.default_rng(50 + n)
    masks = _random_masks(rng, n, 37, 0.3)
    for n_selected in sorted({1, min(2, n), n}):
        cfg = MaskAgreementConfig(n_selected_nodes=n_selected, shared_seed=n)
        shared, stats = agree(masks, cfg, step=9)
        expected, sent = mask_round_oracle(masks, cfg, 9)
        assert shared == expected
        assert stats.records == tuple(sent)
        assert list(stats.iter_aggregated_rows()) == reference_rows(sent)
        assert stats.bytes_for(PHASE_MASK) == stats.bytes_for() == sum(r[3] for r in sent)
    # One broadcaster's mask is forwarded by N-1 nodes: the node before the
    # origin sends no mask message and so has no mask_round row.
    cfg = MaskAgreementConfig(n_selected_nodes=1, shared_seed=n)
    (origin,) = select_broadcast_nodes(n, cfg, 9)
    _, stats = mask_agreement_round([masks[origin]], (origin,), n, step=9)
    senders = [node for step, node, phase, _ in stats.iter_aggregated_rows() if phase == PHASE_MASK]
    assert senders == sorted(set(range(n)) - {(origin - 1) % n})


def test_agreement_messages_match_hand_written_forwards():
    # N = 4, broadcasters 3 and 1, 20-entry masks of 3 bytes. Hop s: node k
    # forwards chunk k - s, and chunk o is broadcaster o's mask; the chunks
    # of nodes 0 and 2 are not broadcast and send nothing.
    rng = np.random.default_rng(5)
    masks = _random_masks(rng, 2, 20, 0.5)
    shared, stats = mask_agreement_round(masks, (3, 1), 4, step=6)
    assert shared == or_masks(masks)
    m = PHASE_MASK
    assert stats.records == (
        (6, 1, m, 3), (6, 3, m, 3),  # hop 0: chunks 1 and 3 leave their origins
        (6, 0, m, 3), (6, 2, m, 3),  # hop 1: node 0 forwards chunk 3, node 2 chunk 1
        (6, 1, m, 3), (6, 3, m, 3),  # hop 2: node 1 forwards chunk 3, node 3 chunk 1
    )
    assert list(stats.iter_aggregated_rows()) == [
        (6, 0, m, 3), (6, 1, m, 6), (6, 2, m, 3), (6, 3, m, 6),
    ]
    assert stats.bytes_for(PHASE_MASK) == stats.bytes_for() == 18
    assert stats.bytes_for(PHASE_SCATTER) == 0


def test_agreement_rejects_overselection():
    with pytest.raises(ConfigError):
        select_broadcast_nodes(3, MaskAgreementConfig(n_selected_nodes=4), step=0)


def test_agreement_rejects_length_mismatch():
    masks = [BitMask(np.zeros(4, dtype=bool)), BitMask(np.zeros(5, dtype=bool))]
    with pytest.raises(StructuralError):
        mask_agreement_round(masks, (0, 1), 3, step=0)


def test_agreement_rejects_masks_that_do_not_match_the_broadcasters():
    mask = BitMask(np.zeros(4, dtype=bool))
    with pytest.raises(StructuralError, match="2 masks for 1 broadcasters"):
        mask_agreement_round([mask, mask], (0,), 3, step=0)
    with pytest.raises(StructuralError, match="1 masks for 2 broadcasters"):
        mask_agreement_round([mask], (2, 0), 3, step=0)
    with pytest.raises(StructuralError, match="at least one"):
        mask_agreement_round([], (), 3, step=0)
    with pytest.raises(StructuralError, match="broadcaster 3 is not a node of 3"):
        mask_agreement_round([mask], (3,), 3, step=0)
    for n in (1, 0, -1):
        with pytest.raises(StructuralError, match=f"ring needs at least 2 nodes, got {n}"):
            mask_agreement_round([mask], (0,), n, step=0)
    # one chunk per broadcaster, and a 0-byte chunk means "not broadcast"
    with pytest.raises(StructuralError, match="broadcaster 1 is named twice"):
        mask_agreement_round([mask, mask], (1, 1), 3, step=0)
    with pytest.raises(StructuralError, match="broadcaster 2's mask has length 0"):
        mask_agreement_round([BitMask(np.zeros(0, dtype=bool))], (2,), 3, step=0)


# --- sparse all-reduce -------------------------------------------------------------


def _sparse(indices, rows, total):
    """A node-stacked block: one index set, one row of values per node."""
    return SparseGradient(np.asarray(indices), np.asarray(rows, dtype=float), total)


def test_sparse_mean_two_nodes():
    topo = RingTopology.create(2, 4)
    total, _ = sparse_allreduce(_sparse([0, 2], [[1.0, 3.0], [3.0, 1.0]], 4), topo)
    assert total.indices.tolist() == [0, 2]
    assert total.values.tolist() == [4.0, 4.0]


def test_sparse_zero_contribution_node():
    topo = RingTopology.create(4, 8)
    parts = _sparse([1, 5], [[4.0, 8.0], [0.0, 0.0], [4.0, 8.0], [4.0, 8.0]], 8)
    total, _ = sparse_allreduce(parts, topo)
    assert total.values.tolist() == [12.0, 24.0]


def test_sparse_density_preserved_and_matches_dense_oracle():
    rng = np.random.default_rng(33)
    n, length = 16, 2000
    mask_bits = rng.random(length) < 0.05
    idx = np.flatnonzero(mask_bits)
    topo = RingTopology.create(n, length)
    dense_vecs = [rng.standard_normal(length) * mask_bits for _ in range(n)]
    parts = SparseGradient(idx, np.stack(dense_vecs)[:, idx], length)
    total, _ = sparse_allreduce(parts, topo)
    assert total.indices.shape[0] == idx.shape[0]  # density exactly that of the mask
    dense_sum, _ = dense_allreduce(dense_vecs, topo)
    # Both reduces add each index's contributions in the same owner-first order.
    assert np.array_equal(densify(total), dense_sum)


def test_sparse_rejects_wrong_row_count_or_length():
    topo = RingTopology.create(3, 4)
    with pytest.raises(StructuralError, match=r"shape \(2, 2\) for 3 nodes"):
        sparse_allreduce(_sparse([0, 2], [[1.0, 1.0], [1.0, 1.0]], 4), topo)
    # A single (nnz,) row is not a node-stacked block.
    with pytest.raises(StructuralError, match=r"shape \(2,\) for 3 nodes"):
        sparse_allreduce(_sparse([0, 2], [1.0, 1.0], 4), topo)
    with pytest.raises(StructuralError, match="total_length 5"):
        sparse_allreduce(_sparse([0, 2], [[1.0, 1.0]] * 3, 5), topo)


def test_naive_rejects_mask_stack_of_wrong_shape_or_dtype():
    n, length = 3, 4
    topo = RingTopology.create(n, length)
    vecs = np.ones((n, length))
    for bad in (
        np.ones((n - 1, length), dtype=bool),
        np.ones((n, length + 1), dtype=bool),
        np.ones((n, length), dtype=np.uint8),
    ):
        with pytest.raises(StructuralError, match="not one bool row per node"):
            naive_sparse_allreduce(vecs, bad, topo)


def test_sparse_byte_accounting_is_nnz_scaled():
    topo = RingTopology.create(2, 8)
    parts = _sparse([0, 1, 4, 5], [[1.0] * 4, [2.0] * 4], 8)
    _, stats = sparse_allreduce(parts, topo)
    # Each chunk holds 2 entries of 4 bytes (values only: every node holds the
    # shared index set); each node sends one chunk per phase.
    assert stats.bytes_for(phase=PHASE_SCATTER) == 2 * 2 * 4
    assert stats.bytes_for(phase=PHASE_ALLGATHER) == 2 * 2 * 4


# --- densification contrast ---------------------------------------------------------


def test_contrast_disjoint_masks_double_density():
    length = 200
    a = np.zeros(length, dtype=bool)
    a[:2] = True  # 1%
    b = np.zeros(length, dtype=bool)
    b[2:4] = True  # disjoint 1%
    topo = RingTopology.create(2, length)
    assert dgc_union_contrast([BitMask(a), BitMask(b)], topo) == pytest.approx(0.02)


def test_contrast_single_node_unchanged():
    bits = np.zeros(100, dtype=bool)
    bits[:7] = True
    assert dgc_union_contrast([BitMask(bits)]) == pytest.approx(0.07)


def test_contrast_density_grows_with_nodes():
    rng = np.random.default_rng(40)
    length = 20_000
    masks = [BitMask(rng.random(length) < 0.02) for _ in range(32)]
    densities = [
        dgc_union_contrast(masks[:n]) for n in (1, 2, 4, 8, 16, 32)
    ]
    assert all(b > a for a, b in zip(densities, densities[1:]))


def test_naive_sparse_reduce_matches_masked_mean_oracle():
    rng = np.random.default_rng(41)
    n, length = 4, 120
    topo = RingTopology.create(n, length)
    vecs = [rng.standard_normal(length) for _ in range(n)]
    masks = [BitMask(rng.random(length) < 0.1) for _ in range(n)]
    total, stats = naive_sparse_allreduce(vecs, np.stack([m.bits for m in masks]), topo)
    expected = np.zeros(length)
    for v, m in zip(vecs, masks):
        expected += np.where(m.bits, v, 0.0)
    union = or_masks(masks)
    assert total.indices.shape[0] == union.popcount()
    assert np.allclose(densify(total), np.where(union.bits, expected, 0.0), atol=1e-12)
    # Allgather hops carry the full union, scatter hops carry partial unions.
    per_entry = 8
    allgather_bytes = stats.bytes_for(phase=PHASE_ALLGATHER)
    scatter_bytes = stats.bytes_for(phase=PHASE_SCATTER)
    assert allgather_bytes == (n - 1) * union.popcount() * per_entry
    assert scatter_bytes <= allgather_bytes


# --- hop-by-hop oracle ---------------------------------------------------------------


def _oracle_cases():
    return sorted(
        {(n, length) for n in (2, 3, 5, 6, 8, 17, 64) for length in (1, n - 1, 100, 1204)}
    )


@pytest.mark.parametrize("n, length", _oracle_cases())
def test_collectives_match_hop_by_hop_oracle(n, length):
    # Lengths below N leave empty chunks.
    rng = np.random.default_rng(10_000 * n + length)
    topo = RingTopology.create(n, length)
    step = 7
    vecs = [rng.standard_normal(length) for _ in range(n)]

    total, stats = dense_allreduce(vecs, topo, step=step)
    expected, sent = hop_dense_oracle(vecs, topo, step)
    assert total.tobytes() == expected.tobytes()
    assert stats.records == tuple(sent)

    shared = np.flatnonzero(rng.random(length) < 0.3)
    parts = SparseGradient(shared, np.stack(vecs)[:, shared], length)
    reduced, stats = sparse_allreduce(parts, topo, step=step)
    idx, values, sent = hop_sparse_oracle(parts, topo, step)
    assert np.array_equal(reduced.indices, idx)
    assert reduced.values.tobytes() == values.tobytes()
    assert stats.records == tuple(sent)

    bits = np.stack([BitMask(rng.random(length) < 0.1).bits for _ in range(n)])
    reduced, stats = naive_sparse_allreduce(vecs, bits, topo, step=step)
    idx, values, sent = hop_naive_oracle(vecs, bits, topo, step)
    assert np.array_equal(reduced.indices, idx)
    assert reduced.values.tobytes() == values.tobytes()
    assert stats.records == tuple(sent)


def _edge_case_rows(rng, n, length):
    """(n, length) contributions whose columns cycle through four kinds: all
    -0.0, mixed +-0.0, subnormals (signed multiples of the smallest, zeros
    among them) and normals of mixed magnitude, whose sums depend on the
    order of their additions."""
    kinds = np.arange(length) % 4
    rows = np.empty((n, length))
    rows[:, kinds == 0] = -0.0
    rows[:, kinds == 1] = rng.choice([-0.0, 0.0], size=(n, np.count_nonzero(kinds == 1)))
    tiny = np.finfo(np.float64).smallest_subnormal
    rows[:, kinds == 2] = tiny * rng.integers(-3, 4, size=(n, np.count_nonzero(kinds == 2)))
    shape = (n, np.count_nonzero(kinds == 3))
    rows[:, kinds == 3] = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    return rows


@pytest.mark.parametrize("n", [2, 3, 64])
def test_reduces_match_hop_by_hop_oracle_bit_for_bit_on_edge_cases(n):
    # Signed zeros catch a sum that starts from +0.0; the mixed-magnitude
    # normals catch any other order of the additions.
    rng = np.random.default_rng(n)
    for length in sorted({n - 1, 4 * n + 3}):
        topo = RingTopology.create(n, length)
        rows = _edge_case_rows(rng, n, length)
        total, _ = dense_allreduce(rows, topo, step=3)
        expected, _ = hop_dense_oracle(list(rows), topo, 3)
        assert total.tobytes() == expected.tobytes()
        for nnz in sorted({0, 1, 2, length} & set(range(length + 1))):
            shared = np.sort(rng.choice(length, size=nnz, replace=False))
            parts = SparseGradient(shared, rows[:, shared], length)
            reduced, _ = sparse_allreduce(parts, topo, step=3)
            _, values, _ = hop_sparse_oracle(parts, topo, 3)
            assert reduced.values.tobytes() == values.tobytes()
        bits = rng.random((n, length)) < 0.5
        reduced, _ = naive_sparse_allreduce(rows, bits, topo, step=3)
        idx, values, _ = hop_naive_oracle(list(rows), bits, topo, 3)
        assert np.array_equal(reduced.indices, idx)
        assert reduced.values.tobytes() == values.tobytes()


@pytest.mark.parametrize(
    "n, length, density",
    [
        (64, 1204, 0.04),
        (64, 1204, 0.5),
        (8, 1204, 0.3),
        (4, 70_660, 0.3),
        (5, 3, 0.5),
        (5, 3, 0.0),
        (3, 10, 1.0),
    ],
)
def test_contrast_reduce_of_one_common_mask_is_the_shared_index_reduce(n, length, density):
    # Given N copies of one mask the contrast's unions never grow, so it must
    # send the same messages and sum exactly what splitting under that mask
    # and reducing on the shared index set does: the pruned step's two
    # branches are two forms of one collective. Only the message sizes
    # differ: the contrast's entries carry an index beside each value, the
    # agreed reduce's values alone.
    rng = np.random.default_rng(n * length)
    topo = RingTopology.create(n, length)
    rows = _edge_case_rows(rng, n, length)
    mask = BitMask(rng.random(length) < density)
    contrast, contrast_stats = naive_sparse_allreduce(
        rows, np.tile(mask.bits, (n, 1)), topo, step=5
    )
    shared, shared_stats = sparse_allreduce(split_by_mask(rows.copy(), mask), topo, step=5)
    per_value = (VALUE_BYTES + INDEX_BYTES) // VALUE_BYTES

    def scaled(rows):
        return [(*key, per_value * nbytes) for *key, nbytes in rows]

    assert np.array_equal(contrast.indices, shared.indices)
    assert contrast.values.tobytes() == shared.values.tobytes()
    assert list(contrast_stats.records) == scaled(shared_stats.records)
    assert list(contrast_stats.iter_aggregated_rows()) == scaled(
        shared_stats.iter_aggregated_rows()
    )
    for phase in (None, *PHASES):
        assert contrast_stats.bytes_for(phase) == per_value * shared_stats.bytes_for(phase)


def test_fixed_size_reduces_allocate_o_p_not_o_np():
    # A kernel that copies the (N, nnz) block, rotated or not, would fail here.
    rng = np.random.default_rng(12)
    n, length = 64, 1204
    topo = RingTopology.create(n, length)
    rows = rng.standard_normal((n, length))
    shared = np.flatnonzero(rng.random(length) < 0.5)
    parts = SparseGradient(shared, rows[:, shared], length)
    for reduce, args, block in (
        (dense_allreduce, (rows, topo), rows),
        (sparse_allreduce, (parts, topo), parts.values),
    ):
        tracemalloc.start()
        try:
            reduce(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block.nbytes // 8, (reduce.__name__, peak, block.nbytes)


def test_contrast_reduce_copies_no_n_by_p_bool_stack():
    # The (N, P) masked float copy stays, since it is what the shared sum
    # kernel adds: that is 1x the rows' bytes, and the growing unions must
    # fit in the rest. A rotated copy of the (N, P) masks and a running OR of
    # that size would take the peak to about 1.31x.
    rng = np.random.default_rng(13)
    n, length = 64, 1204
    topo = RingTopology.create(n, length)
    rows = rng.standard_normal((n, length))
    bits = rng.random((n, length)) < 0.1
    tracemalloc.start()
    try:
        naive_sparse_allreduce(rows, bits, topo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * rows.nbytes, (peak, rows.nbytes)


def test_fixed_size_reduces_store_o_n_integers_per_phase():
    # A return to stored per-message arrays, 2 x N(N-1) integers per phase,
    # would fail here.
    rng = np.random.default_rng(11)
    n, length = 64, 300
    topo = RingTopology.create(n, length)
    vecs = [rng.standard_normal(length) for _ in range(n)]
    shared = np.flatnonzero(rng.random(length) < 0.3)
    parts = SparseGradient(shared, np.stack(vecs)[:, shared], length)
    for stats in (
        dense_allreduce(vecs, topo, step=4)[1],
        sparse_allreduce(parts, topo, step=4)[1],
    ):
        assert stored_integers(stats) <= 2 * n
        assert message_count(stats) == 2 * n * (n - 1)
    # The no-agreement reduce's scatter payloads grow hop by hop, so that
    # phase alone is stored as a table of one row per hop, N(N-1) integers.
    # A mask round is one row of N, whatever the number of broadcasters.
    masks = [BitMask(rng.random(length) < 0.1) for _ in range(n)]
    stats = naive_sparse_allreduce(vecs, np.stack([m.bits for m in masks]), topo, step=4)[1]
    assert stored_integers(stats) == n * (n - 1) + n
    cfg = MaskAgreementConfig(n_selected_nodes=3, shared_seed=2)
    _, stats = agree(masks, cfg, step=4)
    assert stored_integers(stats) == n


def test_compressed_run_at_1024_nodes_stores_under_16n_integers_per_step():
    # Two warm-up and two pruned steps. Per-message reduce arrays would hold
    # 4N(N-1) integers per step; the two reduce phases and the mask round
    # hold N each.
    n = 1024
    task = MlpClassificationTask(n_samples=2 * n, data_seed=3)
    cfg = TrainingConfig(
        momentum=0.9,
        learning_rate=EpochSchedule.constant(0.1),
        batch_size=1,
        n_nodes=n,
        epochs=2,
        seed=3,
    )
    policy = fixed_threshold_policy(0.01, warmup_epochs=1)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=3)
    result = run_experiment(task, cfg, policy, mask_cfg, "compressed")
    n_steps = len(result.metrics) - 1
    assert n_steps == 4
    assert stored_integers(result.stats) < 16 * n * n_steps


def test_record_ring_phase_rejects_what_is_not_a_ring_phase():
    stats = LinkStats()
    with pytest.raises(StructuralError, match="'broadcast' is not a ring phase"):
        stats.record_ring_phase(0, "broadcast", [1, 2])
    # byte counts that are not integers are rejected, not truncated
    for bad, dtype in (([2.7, 3.9, 0.5], "float64"), ([True, False], "bool")):
        for phase in PHASES:
            with pytest.raises(StructuralError, match=f"dtype {dtype} are not integers"):
                stats.record_ring_phase(0, phase, bad)
    with pytest.raises(StructuralError, match="dtype float64 are not integers"):
        stats.record_ring_phase(0, PHASE_SCATTER, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(StructuralError, match="payload_bytes must be >= 0"):
        stats.record_ring_phase(0, PHASE_SCATTER, [1, -2, 3])
    with pytest.raises(StructuralError, match="payload_bytes must be >= 0"):
        stats.record_ring_phase(0, PHASE_SCATTER, [[1, 2, 3], [4, -5, 6]])
    # a ring of N takes (N,) or (N-1, N): (N, N) and (N-2, N) are neither
    for bad in (5, [5], [[1, 2], [3, 4]], [[1, 2, 3]] * 3, [[1, 2, 3]], [[[1, 2], [3, 4]]]):
        with pytest.raises(StructuralError, match="are not a ring's"):
            stats.record_ring_phase(0, PHASE_ALLGATHER, bad)
    assert stats.records == ()
    stats.record_ring_phase(0, PHASE_SCATTER, [[1, 2, 3], [4, 5, 6]])
    stats.record_ring_phase(0, PHASE_ALLGATHER, np.array([1, 2, 3], dtype=np.uint8))
    stats.record_ring_phase(0, PHASE_MASK, np.array([0, 2, 0], dtype=np.int32))
    assert message_count(stats) == 12
    assert message_count(stats, phases=(PHASE_MASK,)) == 2
    assert stats.bytes_for() == 21 + 6 * 2 + 2 * 2


def test_per_hop_ring_phase_matches_hand_written_messages():
    # N = 3, row s of each table the chunk bytes at hop s. Scatter hop s:
    # node k sends chunk k - s; allgather hop s: chunk k + 1 - s.
    stats = LinkStats()
    stats.record_ring_phase(5, PHASE_SCATTER, [[1, 2, 4], [10, 20, 40]])
    stats.record_ring_phase(5, PHASE_ALLGATHER, [[100, 200, 400], [1000, 2000, 4000]])
    s, a = PHASE_SCATTER, PHASE_ALLGATHER
    assert stats.records == (
        (5, 0, s, 1), (5, 1, s, 2), (5, 2, s, 4),  # hop 0: chunks 0, 1, 2
        (5, 0, s, 40), (5, 1, s, 10), (5, 2, s, 20),  # hop 1: chunks 2, 0, 1
        (5, 0, a, 200), (5, 1, a, 400), (5, 2, a, 100),  # hop 0: chunks 1, 2, 0
        (5, 0, a, 1000), (5, 1, a, 2000), (5, 2, a, 4000),  # hop 1: chunks 0, 1, 2
    )
    assert list(stats.iter_aggregated_rows()) == [
        (5, 0, a, 1200), (5, 0, s, 41),
        (5, 1, a, 2400), (5, 1, s, 12),
        (5, 2, a, 4100), (5, 2, s, 24),
    ]
    assert stats.bytes_for(PHASE_SCATTER) == 77
    assert stats.bytes_for(PHASE_ALLGATHER) == 7700
    assert stats.bytes_for() == 7777


def test_linkstats_rejects_negative_or_mismatched_sizes():
    # A mask round's table is checked as a reduce phase's is.
    stats = LinkStats()
    with pytest.raises(StructuralError, match="payload_bytes must be >= 0"):
        stats.record_ring_phase(0, PHASE_MASK, [3, -1, 0])
    with pytest.raises(StructuralError, match="payload_bytes must be >= 0"):
        stats.record_ring_phase(0, PHASE_MASK, np.array([3, 2**63], dtype=np.uint64))
    for bad in ([3], [[0, 1], [3, 4]], [[[3, 4]]]):
        with pytest.raises(StructuralError, match="are not a ring's"):
            stats.record_ring_phase(0, PHASE_MASK, bad)
    assert stats.records == ()


def mask_table(n, sizes):
    """A mask round's chunk bytes on a ring of ``n``: ``sizes[o]`` at each
    broadcaster o, 0 (not broadcast) elsewhere."""
    return [sizes.get(k, 0) for k in range(n)]


def mask_messages(step, n, sizes):
    """The mask round of ``mask_table(n, sizes)`` forwarded hop by hop."""
    return forward_oracle({o: bytes(b) for o, b in sizes.items()}, n, step)[1]


def _mask_sizes(n):
    """A random set of broadcasters of a ring of ``n``, each with a mask of 1
    to 3 bytes; the empty set is a round that sends nothing."""
    return st.dictionaries(st.integers(0, n - 1), st.integers(1, 3))


# (step, (n, sizes), through_extend): small ranges, so (step, node, phase)
# keys repeat across rounds.
_mask_rounds = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), _mask_sizes(n))),
        st.booleans(),
    ),
    max_size=10,
)


@given(_mask_rounds)
@settings(max_examples=200, deadline=None)
def test_linkstats_queries_match_per_message_reference(rounds):
    stats = LinkStats()
    reference = []
    for step, (n, sizes), through_extend in rounds:
        target = LinkStats() if through_extend else stats
        target.record_ring_phase(step, PHASE_MASK, mask_table(n, sizes))
        if through_extend:
            stats.extend(target)
        reference += mask_messages(step, n, sizes)

    assert stats.records == tuple(reference)
    assert stats.bytes_for() == sum(r[3] for r in reference)
    for phase in (None, *PHASES):
        assert stats.bytes_for(phase=phase) == sum(
            r[3] for r in reference if phase is None or r[2] == phase
        )
    rows = reference_rows(reference)
    assert list(stats.iter_aggregated_rows()) == rows
    report = bandwidth_report(stats)
    assert report.rows == tuple(rows)
    per_node = {}
    for _, node, _, nbytes in rows:
        per_node[node] = per_node.get(node, 0) + nbytes
    assert report.per_node_bytes == dict(sorted(per_node.items()))
    assert report.total_bytes == sum(r[3] for r in reference)


def phase_oracle(step, phase, chunk_bytes):
    """One reduce phase moved hop by hop, every buffer holding its chunk's
    id: the phase's messages, the one of chunk c at hop s weighing
    ``chunk_bytes[c]``, or ``chunk_bytes[s][c]`` in a table of one row per hop."""
    table = [chunk_bytes] if np.ndim(chunk_bytes) == 1 else chunk_bytes
    n = len(table[0])
    records = []
    _ring_exchange(
        [list(range(n)) for _ in range(n)],
        RingTopology.create(n, n),
        records,
        step,
        chunk_nbytes=lambda c: c,  # each message is recorded with its chunk's id
        combine=lambda incoming, own: own,
    )
    sent = [r for r in records if r[2] == phase]
    # _ring_exchange records a phase hop by hop, n messages a hop
    return [(st, k, ph, table[i // n % len(table)][c]) for i, (st, k, ph, c) in enumerate(sent)]


# (kind, step, ...): reduces at N from 2 to 17 with P from 0 (all chunks
# empty) up, reduce phases of random chunk sizes (zeros common), one row or
# one row per hop, and mask tables.
_reduce_ops = st.tuples(
    st.sampled_from(("dense", "sparse", "contrast")),
    st.integers(0, 3),
    st.integers(2, 17),
    st.integers(0, 40),
    st.floats(0.0, 1.0),
)
_phase_ops = st.tuples(
    st.just("phase"),
    st.integers(0, 3),
    st.sampled_from((PHASE_SCATTER, PHASE_ALLGATHER)),
    st.lists(st.integers(0, 3), min_size=2, max_size=17),
    st.booleans(),
)
_hop_phase_ops = st.integers(2, 9).flatmap(
    lambda n: st.tuples(
        st.just("phase"),
        st.integers(0, 3),
        st.sampled_from((PHASE_SCATTER, PHASE_ALLGATHER)),
        st.lists(
            st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n - 1, max_size=n - 1
        ),
        st.booleans(),
    )
)
_mask_ops = st.integers(2, 17).flatmap(
    lambda n: st.tuples(st.just("mask"), st.integers(0, 3), st.just(n), _mask_sizes(n), st.booleans())
)


@given(st.lists(st.one_of(_reduce_ops, _phase_ops, _hop_phase_ops, _mask_ops), max_size=6))
@settings(max_examples=150, deadline=None)
def test_ring_phase_queries_match_per_message_reference(ops):
    stats = LinkStats()
    reference = []
    for kind, step, *args in ops:
        if kind in ("dense", "sparse", "contrast"):
            n, length, density = args
            rng = np.random.default_rng(n * 100 + length)
            topo = RingTopology.create(n, length)
            vecs = rng.standard_normal((n, length))
            if kind == "dense":
                part = dense_allreduce(vecs, topo, step=step)[1]
                oracle_records = hop_dense_oracle(list(vecs), topo, step)[1]
            elif kind == "contrast":
                bits = rng.random((n, length)) < density
                part = naive_sparse_allreduce(vecs, bits, topo, step=step)[1]
                oracle_records = hop_naive_oracle(list(vecs), bits, topo, step)[2]
            else:
                shared = np.flatnonzero(rng.random(length) < density)
                parts = SparseGradient(shared, vecs[:, shared], length)
                part = sparse_allreduce(parts, topo, step=step)[1]
                oracle_records = hop_sparse_oracle(parts, topo, step)[2]
            stats.extend(part)
            reference += oracle_records
            continue
        *items, through_extend = args
        target = LinkStats() if through_extend else stats
        if kind == "phase":
            phase, table = items
            target.record_ring_phase(step, phase, table)
            reference += phase_oracle(step, phase, table)
        else:
            n, sizes = items
            target.record_ring_phase(step, PHASE_MASK, mask_table(n, sizes))
            reference += mask_messages(step, n, sizes)
        if through_extend:
            stats.extend(target)

    assert stats.records == tuple(reference)
    assert stats.bytes_for() == sum(r[3] for r in reference)
    for phase in (None, *PHASES):
        assert stats.bytes_for(phase=phase) == sum(
            r[3] for r in reference if phase is None or r[2] == phase
        )
    assert list(stats.iter_aggregated_rows()) == reference_rows(reference)


# --- bandwidth report ------------------------------------------------------------------


def test_report_empty_stats_all_zero():
    report = bandwidth_report(LinkStats())
    assert report.total_bytes == 0
    assert report.rows == ()
    assert report.per_node_bytes == {}


def test_report_aggregates_by_step_node_phase():
    # N = 2: at hop 0 node k sends chunk k. A reduce phase's 0-byte message
    # still gives its sender a row; a mask round's unbroadcast chunk does not.
    stats = LinkStats()
    stats.record_ring_phase(0, PHASE_SCATTER, [0, 10])
    stats.record_ring_phase(0, PHASE_SCATTER, [0, 5])
    stats.record_ring_phase(1, PHASE_MASK, [3, 0])
    report = bandwidth_report(stats)
    assert report.rows == (
        (0, 0, PHASE_SCATTER, 0), (0, 1, PHASE_SCATTER, 15), (1, 0, PHASE_MASK, 3)
    )
    assert report.per_node_bytes == {0: 3, 1: 15}
    assert report.total_bytes == 18


def test_dense_vs_sparse_bytes_track_compression():
    # Cross-check the ring accounting against the codec-level ratio.
    rng = np.random.default_rng(42)
    n, length, steps = 4, 1000, 20
    topo = RingTopology.create(n, length)
    bits = np.zeros(length, dtype=bool)
    bits[rng.choice(length, size=20, replace=False)] = True  # 2%
    idx = np.flatnonzero(bits)
    dense_total = 0
    sparse_total = 0
    for step in range(steps):
        vecs = [rng.standard_normal(length) for _ in range(n)]
        _, dstats = dense_allreduce(vecs, topo, step=step)
        parts = SparseGradient(idx, np.stack(vecs)[:, idx], length)
        _, sstats = sparse_allreduce(parts, topo, step=step)
        dense_total += dstats.bytes_for()
        sparse_total += sstats.bytes_for()
    # Payload ratio equals the codec ratio L*4 / (nnz*4) = 50x here: the shared
    # reduce sends 4-byte values and no indices.
    assert dense_total / sparse_total == pytest.approx(length * 4 / (20 * 4), rel=1e-9)
