"""Tests for depth grouping (Stage I)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.grouping import COARSE_BINS, group_by_depth, grouping_comparison_count

depth_arrays = st.lists(
    st.floats(min_value=0.2, max_value=100.0, allow_nan=False), min_size=0, max_size=400
)
#: Continuous depths, depths drawn from a few values (ties, crowded bins,
#: neighbours one ulp apart) and all-equal depths.
tied_depth_arrays = st.one_of(
    depth_arrays,
    st.lists(
        st.sampled_from([0.5, 1.0, np.nextafter(1.0, 2.0), 7.25, 7.25 + 1e-9, 99.0]), max_size=400
    ),
    st.builds(lambda depth, count: [depth] * count, st.floats(0.2, 100.0), st.integers(0, 400)),
)


def split(order: np.ndarray, starts: np.ndarray) -> list[np.ndarray]:
    """The groups as index arrays: runs of ``order`` from each start."""
    return [order[a:b] for a, b in zip(starts, [*starts[1:], order.size])]


def per_bin_groups(depths: np.ndarray, capacity: int) -> list[np.ndarray]:
    """The per-bin construction: bin members in index order, bins over
    ``capacity`` sorted by depth and cut into chunks; then each group sorted
    stably by depth, as Stage III does."""
    if depths.size == 0:
        return []
    d_min, d_max = float(depths.min()), float(depths.max())
    if d_max <= d_min:
        bins = [np.arange(depths.size)]
    else:
        edges = np.linspace(d_min, d_max, COARSE_BINS + 1)
        bin_ids = np.clip(np.digitize(depths, edges[1:-1]), 0, COARSE_BINS - 1)
        bins = [np.nonzero(bin_ids == bin_id)[0] for bin_id in range(COARSE_BINS)]
    groups = []
    for members in bins:
        if members.size > capacity:
            members = members[np.argsort(depths[members], kind="stable")]
        groups += [members[start : start + capacity] for start in range(0, members.size, capacity)]
    return [group[np.argsort(depths[group], kind="stable")] for group in groups]


class TestGroupByDepth:
    def test_empty_input_gives_no_groups(self):
        order, starts = group_by_depth(np.array([]))
        assert order.size == 0 and starts.size == 0

    def test_groups_partition_all_indices(self, rng):
        order, starts = group_by_depth(rng.uniform(0.5, 50.0, size=300), capacity=32)
        assert sorted(order.tolist()) == list(range(300))
        assert starts[0] == 0 and np.all(np.diff(starts) > 0) and starts[-1] < 300

    def test_group_sizes_respect_capacity(self, rng):
        order, starts = group_by_depth(rng.uniform(0.5, 50.0, size=500), capacity=64)
        assert all(0 < group.size <= 64 for group in split(order, starts))

    def test_groups_are_front_to_back_ordered(self, rng):
        depths = rng.uniform(0.5, 50.0, size=400)
        order, _ = group_by_depth(depths, capacity=50)
        assert np.array_equal(order, np.argsort(depths, kind="stable"))

    def test_identical_depths_are_chunked(self):
        order, starts = group_by_depth(np.full(100, 3.0), capacity=30)
        assert order.tolist() == list(range(100))
        assert starts.tolist() == [0, 30, 60, 90]

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValueError):
            group_by_depth(np.array([1.0]), capacity=0)

    @given(depths=depth_arrays)
    @settings(max_examples=40, deadline=None)
    def test_property_partition_and_capacity(self, depths):
        order, starts = group_by_depth(np.asarray(depths), capacity=4)
        assert sorted(order.tolist()) == list(range(len(depths)))
        assert all(0 < group.size <= 4 for group in split(order, starts))

    @given(depths=depth_arrays)
    @settings(max_examples=40, deadline=None)
    def test_property_global_front_to_back_order(self, depths):
        depths = np.asarray(depths)
        order, _ = group_by_depth(depths, capacity=4)
        # Every group is a run of one depth order, so blending order is
        # front to back across groups as well as within them.
        assert np.all(np.diff(depths[order]) >= 0)

    @given(depths=tied_depth_arrays, capacity=st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_property_equals_per_bin_construction(self, depths, capacity):
        depths = np.asarray(depths, dtype=np.float64)
        groups = split(*group_by_depth(depths, capacity=capacity))
        expected = per_bin_groups(depths, capacity)
        # Boundaries, then membership and within-group order at once.
        assert [group.size for group in groups] == [group.size for group in expected]
        for group, theirs in zip(groups, expected):
            assert group.tolist() == theirs.tolist()


class TestGroupingComparisons:
    def test_zero_gaussians_cost_nothing(self):
        assert grouping_comparison_count(0) == 0

    def test_count_scales_with_gaussians(self):
        assert grouping_comparison_count(2000) > grouping_comparison_count(1000)
