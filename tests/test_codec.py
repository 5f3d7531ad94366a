import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringprune import (
    INDEX_BYTES,
    VALUE_BYTES,
    BitMask,
    CodecError,
    SparseGradient,
    StructuralError,
    decode_mask,
    encode_mask,
    encoded_size,
    or_masks,
    split_by_mask,
)

from oracles import densify


def _mask(bits):
    return BitMask(np.asarray(bits, dtype=bool))


# --- encode / decode ---------------------------------------------------------


def test_encode_lsb_first():
    mask = _mask([1, 0, 1, 1, 0, 0, 0, 0, 1])
    payload = encode_mask(mask)
    assert payload == bytes([0x0D, 0x01])
    assert decode_mask(payload, 9) == mask


def test_encode_all_zero():
    payload = encode_mask(_mask([0] * 16))
    assert payload == bytes([0x00, 0x00])


def test_encode_empty():
    payload = encode_mask(_mask([]))
    assert payload == b""
    assert decode_mask(payload, 0).length == 0


def test_decode_inverse_of_encode():
    mask = decode_mask(bytes([0x0D, 0x01]), 9)
    assert mask.bits.tolist() == [True, False, True, True, False, False, False, False, True]


def test_decode_zero_byte():
    assert decode_mask(bytes([0x00]), 8).popcount() == 0


def test_decode_rejects_nonzero_padding():
    with pytest.raises(CodecError):
        decode_mask(bytes([0x80]), 4)


def test_decode_rejects_size_mismatch():
    with pytest.raises(CodecError):
        decode_mask(bytes([0x01, 0x00]), 4)
    with pytest.raises(CodecError):
        decode_mask(b"", 4)


@pytest.mark.parametrize("bit_length", [-3, -8])
def test_decode_rejects_negative_bit_length(bit_length):
    with pytest.raises(CodecError, match="bit_length must be >= 0"):
        decode_mask(b"", bit_length)


@given(st.lists(st.booleans(), min_size=0, max_size=300))
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(bits):
    mask = _mask(bits)
    payload = encode_mask(mask)
    assert len(payload) == encoded_size(mask.length)
    assert decode_mask(payload, mask.length) == mask


# --- or_masks ----------------------------------------------------------------


def test_or_elementwise():
    assert or_masks([_mask([1, 0, 0]), _mask([0, 0, 1])]).bits.tolist() == [True, False, True]


def test_or_identity_element():
    m = _mask([1, 0, 1, 1])
    assert or_masks([m, _mask([0, 0, 0, 0])]) == m


def test_or_union_bound():
    # Union bound oracle over random draws: density(OR) <= min(1, r * d).
    rng = np.random.default_rng(5)
    length, r, d = 400, 5, 0.1
    k = int(length * d)
    for _ in range(100):
        masks = []
        for _ in range(r):
            bits = np.zeros(length, dtype=bool)
            bits[rng.choice(length, size=k, replace=False)] = True
            masks.append(BitMask(bits))
        combined = or_masks(masks)
        assert combined.density() <= min(1.0, r * d) + 1e-12
        assert combined.density() >= max(m.density() for m in masks)


def test_or_commutative_associative_idempotent():
    rng = np.random.default_rng(6)
    a, b, c = (BitMask(rng.random(64) < 0.3) for _ in range(3))
    assert or_masks([a, b]) == or_masks([b, a])
    assert or_masks([or_masks([a, b]), c]) == or_masks([a, or_masks([b, c])])
    assert or_masks([a, a]) == a


def test_or_errors():
    with pytest.raises(StructuralError):
        or_masks([])
    with pytest.raises(StructuralError):
        or_masks([_mask([1, 0]), _mask([1, 0, 0])])


# --- split_by_mask ------------------------------------------------------------


def test_split_basic():
    rows = np.array([[1.0, 2.0, 3.0]])
    sent = split_by_mask(rows, _mask([1, 0, 1]))
    assert sent.indices.tolist() == [0, 2]
    assert sent.values.tolist() == [[1.0, 3.0]]
    assert rows.tolist() == [[0.0, 2.0, 0.0]]


def test_split_all_ones_keeps_nothing():
    grad = np.array([[1.5, -2.0]])
    rows = grad.copy()
    sent = split_by_mask(rows, _mask([1, 1]))
    assert np.array_equal(densify(sent), grad)
    assert not rows.any()


def test_split_reconstruction_identity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        grad = rng.standard_normal((1, n))
        mask = BitMask(rng.random(n) < rng.random())
        kept = grad.copy()
        sent = split_by_mask(kept, mask)
        assert np.array_equal(densify(sent) + kept, grad)  # exact


def test_split_length_mismatch():
    with pytest.raises(StructuralError):
        split_by_mask(np.zeros(3), _mask([1, 0]))
    with pytest.raises(StructuralError):
        split_by_mask(np.zeros((2, 3)), _mask([1, 0]))
    with pytest.raises(StructuralError):
        split_by_mask(np.zeros((2, 2, 2)), _mask([1, 0]))


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_split_stacked_matches_row_by_row_split(density):
    rng = np.random.default_rng(12)
    grads = rng.standard_normal((5, 40))
    mask = BitMask(rng.random(40) < density)
    kept = grads.copy()
    sent = split_by_mask(kept, mask)
    assert sent.values.shape == (5, mask.popcount())
    for k in range(5):
        row_kept = grads[k : k + 1].copy()
        row_sent = split_by_mask(row_kept, mask)
        assert np.array_equal(sent.indices, row_sent.indices)
        assert sent.values[k].tobytes() == row_sent.values[0].tobytes()
        assert kept[k].tobytes() == row_kept[0].tobytes()
    assert np.array_equal(densify(sent) + kept, grads)  # exact


def test_split_zeroes_sent_entries_in_place():
    rng = np.random.default_rng(13)
    grads = rng.standard_normal((3, 9))
    original = grads.copy()
    mask = _mask([1, 0, 0, 1, 1, 0, 0, 0, 1])
    sent = split_by_mask(grads, mask)
    assert np.array_equal(sent.values, original[:, mask.bits])
    assert np.array_equal(grads, np.where(mask.bits, 0.0, original))


@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.booleans()), min_size=1, max_size=80))
@settings(max_examples=200, deadline=None)
def test_split_conservation_property(pairs):
    grad = np.array([[p[0] for p in pairs]])
    mask = _mask([p[1] for p in pairs])
    kept = grad.copy()
    sent = split_by_mask(kept, mask)
    assert np.array_equal(densify(sent) + kept, grad)
    assert sent.indices.shape[0] == mask.popcount()


# --- SparseGradient -----------------------------------------------------------


def test_sparse_validation():
    with pytest.raises(StructuralError):
        SparseGradient(np.array([3, 1]), np.array([1.0, 2.0]), 5)  # unsorted
    with pytest.raises(StructuralError):
        SparseGradient(np.array([1, 1]), np.array([1.0, 2.0]), 5)  # duplicate
    with pytest.raises(StructuralError):
        SparseGradient(np.array([0, 7]), np.array([1.0, 2.0]), 5)  # out of range
    with pytest.raises(StructuralError):
        SparseGradient(np.array([0]), np.array([1.0, 2.0]), 5)  # count mismatch
    with pytest.raises(StructuralError):
        SparseGradient(np.array([0]), np.ones((2, 2)), 5)  # stacked count mismatch
    with pytest.raises(StructuralError):
        SparseGradient(np.array([0]), np.ones((2, 1, 1)), 5)  # not a stack of rows


def test_sparse_stacked_block_densifies_row_by_row():
    sg = SparseGradient(np.array([1, 4]), np.array([[0.5, -1.0], [2.0, 0.0]]), 6)
    assert sg.indices.shape[0] == 2
    assert sg.indices.shape[0] * (VALUE_BYTES + INDEX_BYTES) == 16  # one row's entries
    assert sg.values.tolist() == [[0.5, -1.0], [2.0, 0.0]]
