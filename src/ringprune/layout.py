"""Partition of a flat parameter vector into named layers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import StructuralError


@dataclass(frozen=True)
class LayerLayout:
    """Ordered, contiguous, non-overlapping named slices of a parameter vector.

    Offsets are strictly increasing, the first layer starts at 0, each layer
    starts where the previous one ends, and every layer is non-empty, so each
    parameter index belongs to exactly one layer.
    """

    names: tuple[str, ...]
    offsets: tuple[int, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise StructuralError("layout must contain at least one layer")
        if not (len(self.names) == len(self.offsets) == len(self.lengths)):
            raise StructuralError("layout fields must have equal lengths")
        if len(set(self.names)) != len(self.names):
            raise StructuralError("layer names must be unique")
        expected = 0
        for name, offset, length in zip(self.names, self.offsets, self.lengths):
            if length < 1:
                raise StructuralError(f"layer '{name}' has non-positive length {length}")
            if offset != expected:
                raise StructuralError(
                    f"layer '{name}' starts at {offset}, expected {expected} "
                    "(layers must be contiguous with strictly increasing offsets)"
                )
            expected = offset + length

    @classmethod
    def from_sizes(cls, sizes: Iterable[tuple[str, int]]) -> "LayerLayout":
        """Build a layout from ordered (name, length) pairs."""
        names: list[str] = []
        offsets: list[int] = []
        lengths: list[int] = []
        cursor = 0
        for name, length in sizes:
            names.append(str(name))
            offsets.append(cursor)
            lengths.append(int(length))
            cursor += int(length)
        return cls(tuple(names), tuple(offsets), tuple(lengths))

    @property
    def n_layers(self) -> int:
        return len(self.names)

    @property
    def total_length(self) -> int:
        return self.offsets[-1] + self.lengths[-1]

    def slice_of(self, layer_index: int) -> slice:
        if not 0 <= layer_index < self.n_layers:
            raise StructuralError(
                f"layer index {layer_index} out of range for {self.n_layers} layers"
            )
        start = self.offsets[layer_index]
        return slice(start, start + self.lengths[layer_index])