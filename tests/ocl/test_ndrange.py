"""Unit and property tests for NDRange geometry and flattening."""

import pytest
from hypothesis import given, strategies as st

from repro.ocl.ndrange import NDRange


class TestConstruction:
    def test_1d(self):
        nd = NDRange(128, 16)
        assert nd.num_groups == (8,)
        assert nd.total_groups == 8
        assert nd.total_items == 128
        assert nd.items_per_group == 16

    def test_2d(self):
        nd = NDRange((64, 32), (16, 8))
        assert nd.num_groups == (4, 4)
        assert nd.total_groups == 16

    def test_3d(self):
        nd = NDRange((8, 8, 8), (2, 2, 2))
        assert nd.total_groups == 64

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            NDRange((64, 32), (16,))

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            NDRange(100, 16)

    def test_rank_limits(self):
        with pytest.raises(ValueError):
            NDRange((2, 2, 2, 2), (1, 1, 1, 1))

    def test_equality_and_hash(self):
        a = NDRange((64, 32), (16, 8))
        b = NDRange((64, 32), (16, 8))
        assert a == b
        assert hash(a) == hash(b)
        assert a != NDRange((64, 32), (8, 8))


class TestFlattening:
    def test_matches_paper_figure5(self):
        """5x5 groups: flattened ID walks the fastest dimension first."""
        nd = NDRange((5, 5), (1, 1))
        assert nd.flatten_group((0, 0)) == 0
        assert nd.flatten_group((4, 0)) == 4
        assert nd.flatten_group((0, 1)) == 5
        assert nd.flatten_group((4, 4)) == 24

    def test_round_trip_2d(self):
        nd = NDRange((64, 32), (16, 8))
        for fid in range(nd.total_groups):
            assert nd.flatten_group(nd.unflatten_group(fid)) == fid

    def test_out_of_range_group(self):
        nd = NDRange(128, 16)
        with pytest.raises(ValueError):
            nd.flatten_group((9,))
        with pytest.raises(ValueError):
            nd.unflatten_group(8)

    def test_groups_in_range(self):
        nd = NDRange((4, 4), (1, 1))
        groups = list(nd.groups_in_range(5, 8))
        assert groups == [(1, 1), (2, 1), (3, 1)]

    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    )
    def test_round_trip_3d_property(self, shape):
        nd = NDRange(shape, (1, 1, 1))
        for fid in range(nd.total_groups):
            assert nd.flatten_group(nd.unflatten_group(fid)) == fid


class TestCoveringSlice:
    def test_1d_slice_is_exact(self):
        nd = NDRange(128, 16)
        sliced = nd.covering_slice(2, 6)
        assert sliced.total_groups == 4
        assert sliced.group_offset == (2,)

    def test_2d_slice_covers_whole_rows(self):
        nd = NDRange((64, 32), (16, 8))  # 4x4 groups
        sliced = nd.covering_slice(5, 7)  # inside the slowest-dim row 1
        assert sliced.group_offset == (0, 1)
        assert sliced.num_groups == (4, 1)

    def test_2d_slice_spanning_rows(self):
        nd = NDRange((64, 32), (16, 8))
        sliced = nd.covering_slice(3, 9)
        assert sliced.group_offset == (0, 0)
        assert sliced.num_groups == (4, 3)

    def test_bad_window(self):
        nd = NDRange(128, 16)
        with pytest.raises(ValueError):
            nd.covering_slice(5, 5)
        with pytest.raises(ValueError):
            nd.covering_slice(0, 9)

    def test_absolute_group_translation(self):
        nd = NDRange((64, 32), (16, 8))
        sliced = nd.covering_slice(5, 7)
        assert sliced.absolute_group((2, 0)) == (2, 1)

    @given(
        nx=st.integers(1, 8),
        ny=st.integers(1, 8),
        data=st.data(),
    )
    def test_slice_contains_window_property(self, nx, ny, data):
        nd = NDRange((nx * 4, ny * 2), (4, 2))
        total = nd.total_groups
        start = data.draw(st.integers(0, total - 1))
        end = data.draw(st.integers(start + 1, total))
        sliced = nd.covering_slice(start, end)
        for fid in range(start, end):
            gid = nd.unflatten_group(fid)
            for g, off, n in zip(gid, sliced.group_offset, sliced.num_groups):
                assert off <= g < off + n


class TestBoxes:
    """Box decomposition of a flattened window (span dispatch)."""

    @staticmethod
    def flatten_box(nd, origin, counts):
        """Flattened IDs of a box, in flattened order."""
        ids = []
        for fid in range(nd.total_groups):
            gid = nd.unflatten_group(fid)
            if all(o <= g < o + c for g, o, c in zip(gid, origin, counts)):
                ids.append(fid)
        return ids

    def test_1d_window_is_one_box(self):
        nd = NDRange(256, 16)
        assert nd.boxes(3, 11) == [((3,), (8,))]

    def test_2d_partial_full_partial(self):
        nd = NDRange((64, 64), (16, 16))  # 4 x 4 groups
        assert nd.boxes(2, 13) == [
            ((2, 0), (2, 1)),   # rest of row 0
            ((0, 1), (4, 2)),   # rows 1-2 whole
            ((0, 3), (1, 1)),   # start of row 3
        ]

    def test_2d_inside_one_row(self):
        nd = NDRange((64, 64), (16, 16))
        assert nd.boxes(5, 7) == [((1, 1), (2, 1))]

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            NDRange(64, 16).boxes(2, 2)

    @given(
        dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_boxes_tile_the_window_in_order(self, dims, data):
        nd = NDRange(tuple(d * 2 for d in dims), (2,) * len(dims))
        total = nd.total_groups
        lo = data.draw(st.integers(0, total - 1))
        hi = data.draw(st.integers(lo + 1, total))
        boxes = nd.boxes(lo, hi)
        assert len(boxes) <= 2 * nd.rank - 1
        covered = []
        for origin, counts in boxes:
            assert all(c >= 1 for c in counts)
            covered += self.flatten_box(nd, origin, counts)
        assert covered == list(range(lo, hi))
