"""Partition of a flat parameter vector into named layers."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable

from .errors import StructuralError


@dataclass(frozen=True)
class LayerLayout:
    """Ordered named layers of a parameter vector, given by their lengths.

    Layer j covers the ``lengths[j]`` entries that follow layer j - 1's, the
    first starting at 0; ``slices`` holds those ranges. Every layer is
    non-empty, so each parameter index belongs to exactly one layer.
    """

    names: tuple[str, ...]
    lengths: tuple[int, ...]
    slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.names:
            raise StructuralError("layout must contain at least one layer")
        if len(self.names) != len(self.lengths):
            raise StructuralError("layout fields must have equal lengths")
        if len(set(self.names)) != len(self.names):
            raise StructuralError("layer names must be unique")
        for name, length in zip(self.names, self.lengths):
            if length < 1:
                raise StructuralError(f"layer '{name}' has non-positive length {length}")
        ends = accumulate(self.lengths)
        slices = tuple(slice(end - length, end) for end, length in zip(ends, self.lengths))
        object.__setattr__(self, "slices", slices)

    @classmethod
    def from_sizes(cls, sizes: Iterable[tuple[str, int]]) -> "LayerLayout":
        """Build a layout from ordered (name, length) pairs."""
        pairs = [(str(name), int(length)) for name, length in sizes]
        return cls(tuple(name for name, _ in pairs), tuple(length for _, length in pairs))

    @property
    def n_layers(self) -> int:
        return len(self.names)

    @property
    def total_length(self) -> int:
        return self.slices[-1].stop
