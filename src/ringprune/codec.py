"""Mask and sparse-gradient wire formats.

The byte-packed mask layout is the bit-exact format circulated during the
simulator's mask-agreement round: bit i of a mask is stored in byte i // 8 at
bit position i % 8 (least-significant bit first), and any padding bits in the
final byte are zero. Decoders treat nonzero padding or a size mismatch as
wire corruption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CodecError, StructuralError

# Wire sizes. A value is 4 bytes. An index is 4 bytes and travels only where
# the receiver cannot derive it: the shared-mask reduce sends values alone,
# since every node holds the agreed mask, while the contrast's sparse entries
# carry value and index. Masks are bit-packed.
VALUE_BYTES = 4
INDEX_BYTES = 4


@dataclass(frozen=True)
class BitMask:
    """Per-parameter send/keep decisions."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits)
        if arr.ndim != 1:
            raise StructuralError(f"mask must be one-dimensional, got shape {arr.shape}")
        if arr.dtype != np.bool_:
            arr = arr.astype(bool)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @property
    def length(self) -> int:
        return int(self.bits.shape[0])

    def popcount(self) -> int:
        return int(np.count_nonzero(self.bits))

    def density(self) -> float:
        if self.length == 0:
            return 0.0
        return self.popcount() / self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMask):
            return NotImplemented
        return self.length == other.length and bool(np.array_equal(self.bits, other.bits))


@dataclass(frozen=True)
class SparseGradient:
    """Sorted coordinate (index, value) pairs over a dense vector of
    ``total_length`` entries.

    ``values`` is (nnz,) for one vector, or (N, nnz) for a node-stacked block:
    one row of values per node, all on the one index set.
    """

    indices: np.ndarray
    values: np.ndarray
    total_length: int

    def __post_init__(self) -> None:
        idx = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        val = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if idx.ndim != 1 or val.ndim not in (1, 2):
            raise StructuralError("indices must be one-dimensional and values one row or a stack")
        if idx.shape[0] != val.shape[-1]:
            raise StructuralError(
                f"index/value count mismatch: {idx.shape[0]} vs {val.shape[-1]}"
            )
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.total_length:
                raise StructuralError("indices out of range for total_length")
            if np.any(np.diff(idx) <= 0):
                raise StructuralError("indices must be strictly increasing")
        idx.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)


def encoded_size(bit_length: int) -> int:
    """Bytes occupied by a bit-packed mask of the given length."""
    return (int(bit_length) + 7) // 8


def encode_mask(mask: BitMask) -> bytes:
    """Pack a mask into bytes, LSB-first, zero-padding the final byte."""
    return np.packbits(mask.bits, bitorder="little").tobytes()


def decode_mask(payload: bytes, bit_length: int) -> BitMask:
    """Exact inverse of :func:`encode_mask` for a mask of ``bit_length`` bits.

    Raises:
        CodecError: if ``bit_length`` is negative, the payload size disagrees
            with it or any padding bit is set. The last two signal wire
            corruption.
    """
    if bit_length < 0:
        raise CodecError(f"bit_length must be >= 0, got {bit_length}")
    expected = encoded_size(bit_length)
    if len(payload) != expected:
        raise CodecError(
            f"payload is {len(payload)} bytes, expected {expected} "
            f"for bit_length {bit_length}"
        )
    raw = np.frombuffer(payload, dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    padding = bits[bit_length:]
    if np.any(padding):
        raise CodecError("nonzero padding bits in final byte")
    return BitMask(bits[:bit_length].astype(bool))


def or_masks(masks: list[BitMask]) -> BitMask:
    """Elementwise logical OR of equal-length masks."""
    if not masks:
        raise StructuralError("or_masks requires at least one mask")
    length = masks[0].length
    for m in masks[1:]:
        if m.length != length:
            raise StructuralError(f"mask length mismatch: {m.length} vs {length}")
    combined = np.zeros(length, dtype=bool)
    for m in masks:
        np.logical_or(combined, m.bits, out=combined)
    return BitMask(combined)


def split_by_mask(rows: np.ndarray, mask: BitMask) -> SparseGradient:
    """Cut the entries of ``mask`` out of each row of an (N, P) stack.

    No arithmetic touches the values: the masked entries are copied into one
    (N, nnz) block on the mask's index set and zeroed in ``rows`` in place,
    so adding sent's values back at its indices afterwards reconstructs the
    input exactly.
    Returns the block.
    """
    if rows.ndim != 2 or rows.shape[1] != mask.length:
        raise StructuralError(
            f"rows of shape {rows.shape} do not match mask length {mask.length}"
        )
    idx = np.flatnonzero(mask.bits)
    # take() gives C-ordered rows; rows[:, idx] would need a second copy
    sent = SparseGradient(indices=idx, values=np.take(rows, idx, axis=1), total_length=mask.length)
    rows[:, idx] = 0.0
    return sent
