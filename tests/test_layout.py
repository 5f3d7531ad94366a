import pytest

from ringprune import LayerLayout, StructuralError


def test_from_sizes_builds_contiguous_offsets():
    layout = LayerLayout.from_sizes([("a", 3), ("b", 2), ("c", 5)])
    assert layout.names == ("a", "b", "c")
    assert layout.lengths == (3, 2, 5)
    assert layout.slices == (slice(0, 3), slice(3, 5), slice(5, 10))
    assert layout.total_length == 10
    assert layout.n_layers == 3


def test_every_index_belongs_to_exactly_one_layer():
    layout = LayerLayout.from_sizes([("a", 4), ("b", 6)])
    seen = []
    for sl in layout.slices:
        seen.extend(range(sl.start, sl.stop))
    assert seen == list(range(layout.total_length))


def test_zero_length_layer_rejected():
    # A zero-length layer would own no parameter index.
    with pytest.raises(StructuralError):
        LayerLayout.from_sizes([("a", 3), ("empty", 0), ("b", 2)])


def test_duplicate_names_rejected():
    with pytest.raises(StructuralError):
        LayerLayout.from_sizes([("a", 3), ("a", 2)])


def test_empty_layout_rejected():
    with pytest.raises(StructuralError):
        LayerLayout((), ())
