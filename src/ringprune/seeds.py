"""Deterministic RNG stream derivation.

Every random draw in the simulator comes from a numpy Generator keyed by a
(seed, tag, ...) tuple, so any part of a run can be reproduced in isolation
and node steps can execute in any order without changing results.

The mask-draw streams of one step, one per (node, layer), are the streams
``ParamStream(seed, node, step).layer(j)`` describes. Constructing them one
``SeedSequence`` at a time costs more than the draws themselves, so
:func:`mask_stream_words` derives the PCG64 seed words of all of a step's
streams at once, restating numpy's ``SeedSequence`` mixing over uint32
arrays, and :func:`generator_from_words` builds each generator from its
words. ``ParamStream`` stays the reference the derivation is tested
against; a numpy release that changed the ``SeedSequence`` algorithm would
change every stream (including ``ParamStream``'s), which the pinned run
digests in the tests catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InputError, StructuralError

# Stream tags, always the first element of a spawn key.
INIT_STREAM = 0    # model weight initialisation
DATA_STREAM = 1    # synthetic dataset generation
MASK_STREAM = 2    # probabilistic mask draws, keyed (tag, node, step, layer)
SELECT_STREAM = 3  # shared random node selection, keyed (tag, step)

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
MASK32 = 0xFFFFFFFF

# PCG64 seeds itself from this many uint64 words of its seed sequence.
PCG64_SEED_WORDS = 4


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key`` under ``seed``."""
    spawn_key = tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=spawn_key))


@dataclass(frozen=True)
class ParamStream:
    """Per-(node, step) family of mask-draw streams, one substream per layer.

    Partitioning by layer means layers can be processed in any order, or in
    parallel, with bit-identical results.
    """

    seed: int
    node: int
    step: int

    def layer(self, layer_index: int) -> np.random.Generator:
        return substream(self.seed, MASK_STREAM, self.node, self.step, layer_index)


def _uint32_words(value: int) -> list[int]:
    """numpy's split of a non-negative integer into little-endian 32-bit
    words; 0 is the one word [0]."""
    value = int(value)
    if value < 0:
        raise InputError(f"expected non-negative integer, got {value}")
    words = [value & MASK32]
    value >>= 32
    while value:
        words.append(value & MASK32)
        value >>= 32
    return words


def _hash_consts(first: int, mult: int, count: int) -> list[int]:
    """The hash constant and the ``count`` values it takes next, multiplied
    by ``mult`` modulo 2**32 at each use."""
    consts = [first]
    for _ in range(count):
        consts.append((consts[-1] * mult) & MASK32)
    return consts


def _hashmix(value, xor, mult):
    """numpy's hashmix: ``value ^ xor`` times ``mult`` (the hash constant
    before and after its update), then an xor-shift. Any operand may be a
    Python int or a uint32 array; arrays broadcast."""
    value = ((value ^ xor) * mult) & MASK32
    return value ^ (value >> XSHIFT)


def _mix(x, y):
    # Both products are reduced to 32 bits first, so that a Python int
    # operand stays within uint32 when it meets an array.
    result = ((MIX_MULT_L * x) & MASK32) - ((MIX_MULT_R * y) & MASK32)
    result &= MASK32
    return result ^ (result >> XSHIFT)


def _prefix_pool(entropy: list[int]) -> tuple[list[int], int]:
    """SeedSequence.mix_entropy over the words every key shares, in Python
    ints: (pool, next hash constant). ``entropy`` fills the pool at least."""
    hash_const = INIT_A
    pool = []

    def hashmix(word):
        nonlocal hash_const
        xor, hash_const = hash_const, (hash_const * MULT_A) & MASK32
        return _hashmix(word, xor, hash_const)

    for word in entropy[:POOL_SIZE]:
        pool.append(hashmix(word))
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[POOL_SIZE:]:
        for i_dst in range(POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    return pool, hash_const


def mask_stream_words(seed: int, step: int, nodes: Sequence[int], n_layers: int) -> np.ndarray:
    """PCG64 seed words of the mask-draw streams of one step, shape
    (len(nodes), n_layers, 4) uint64.

    Entry [i, j] equals ``SeedSequence(seed, spawn_key=(MASK_STREAM,
    nodes[i], step, j)).generate_state(4, np.uint64)``. The entropy of every
    key is the seed's words, zero-padded to the pool size, then the words of
    the spawn key. Up to the node word every key has the same entropy, so
    that part of numpy's mixing runs once in Python ints. From there on the
    pool is a (4, N, L) uint32 array: each remaining word (the (N, 1) node
    ids, the step's words, the (1, L) layer indices) is mixed into all four
    pool words at once, broadcast over the (node, layer) grid.
    """
    node_ids = np.asarray(nodes, dtype=np.int64).reshape(-1, 1)
    # The words of a node id are mixed as one uint32 array.
    if np.any(node_ids < 0) or np.any(node_ids > MASK32):
        raise StructuralError("mask stream node ids must fit one 32-bit word")
    run_entropy = _uint32_words(seed)
    run_entropy += [0] * (POOL_SIZE - len(run_entropy))
    pool, hash_const = _prefix_pool(run_entropy + [MASK_STREAM])

    pool = np.array(pool, dtype=np.uint32).reshape(POOL_SIZE, 1, 1)
    keyed = (
        [node_ids.astype(np.uint32)]
        + _uint32_words(step)
        + [np.arange(n_layers, dtype=np.uint32).reshape(1, -1)]
    )
    for word in keyed:
        consts = np.array(_hash_consts(hash_const, MULT_A, POOL_SIZE), dtype=np.uint32)
        hash_const = int(consts[-1])
        xor, mult = consts[:-1, None, None], consts[1:, None, None]
        pool = _mix(pool, _hashmix(word, xor, mult))

    # SeedSequence.generate_state(4, np.uint64): 8 uint32 words cycling over
    # the pool, paired little-endian into uint64s.
    n_out = 2 * PCG64_SEED_WORDS
    consts = np.array(_hash_consts(INIT_B, MULT_B, n_out), dtype=np.uint32)
    cycled = pool[np.arange(n_out) % POOL_SIZE]
    state = _hashmix(cycled, consts[:-1, None, None], consts[1:, None, None])
    state = np.moveaxis(state, 0, -1).astype("<u4", order="C")
    return state.view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence whose PCG64 seed words are already derived."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != PCG64_SEED_WORDS or np.dtype(dtype) != np.uint64:
            raise StructuralError(f"derived seed words cannot supply {n_words} x {dtype}")
        return self._words


def generator_from_words(words: np.ndarray) -> np.random.Generator:
    """PCG64 generator seeded with one stream's words from
    :func:`mask_stream_words`; it draws what the stream's reference
    ``SeedSequence`` generator would."""
    return np.random.Generator(np.random.PCG64(_SeedWords(np.ascontiguousarray(words))))
