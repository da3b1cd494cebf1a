"""Clamp-set bookkeeping with one boolean mask.

:func:`~repro.core.inference.split_nodes` and
:func:`~repro.core.dynamics.free_nodes` build the free set from a mask
over the nodes, and :func:`~repro.core.dynamics.check_node_index` finds
repeats with it.  They must return what ``np.setdiff1d`` returned, values
and dtype, and raise what the ``np.unique`` check raised, range check
first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamics import check_node_index, free_nodes
from repro.core.inference import split_nodes


def _setdiff1d_split(observed_index, n):
    """The clamp-set split as ``np.setdiff1d`` and ``np.unique`` made it."""
    index = np.asarray(observed_index, dtype=int).reshape(-1)
    if index.size and (index.min() < 0 or index.max() >= n):
        raise ValueError("observed_index out of range")
    if np.unique(index).size != index.size:
        raise ValueError("observed_index contains duplicates")
    return index, np.setdiff1d(np.arange(n), index)


@st.composite
def clamp_sets(draw):
    """``(n, index)``: empty, full, or any list of nodes near ``[0, n)``,
    so some repeat a node or leave the range."""
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["empty", "full", "any"]))
    if kind == "empty":
        return n, []
    if kind == "full":
        return n, draw(st.permutations(list(range(n))))
    return n, draw(st.lists(st.integers(-2, n + 1), max_size=n + 3))


@settings(max_examples=400, deadline=None)
@given(case=clamp_sets())
def test_split_nodes_is_the_setdiff1d_split(case):
    n, index = case
    try:
        want = _setdiff1d_split(index, n)
    except ValueError as error:
        with pytest.raises(ValueError, match=f"^{error}$"):
            split_nodes(index, n)
        return
    got = split_nodes(index, n)
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)
    observed, free = want
    assert free_nodes(n, observed).dtype == free.dtype
    assert np.array_equal(free_nodes(n, observed), free)
    mask = check_node_index(observed, n, "clamp_index")
    assert mask.shape == (n,)
    assert np.array_equal(np.flatnonzero(mask), np.sort(observed))


@pytest.mark.parametrize(
    "index, message",
    [
        ([-1, -1], "out of range"),
        ([5, 5, 9], "out of range"),
        ([1, 1], "contains duplicates"),
    ],
)
def test_the_range_check_comes_first(index, message):
    with pytest.raises(ValueError, match=f"clamp_index {message}"):
        check_node_index(np.asarray(index), 9, "clamp_index")
