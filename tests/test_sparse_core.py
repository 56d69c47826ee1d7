"""Quantization, coordinate packing, kernel maps, downsampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloc import (PointCloud, SparseTensor, build_kernel_map,
                       downsample_coords, kernel_offsets, quantize)
from sparseloc.errors import EmptyInput
from sparseloc.sparse import pack_coords, unpack_keys


def make_tensor(coords, stride=1, channels=1):
    coords = np.asarray(coords, dtype=np.int64)
    return SparseTensor(coords, np.ones((len(coords), channels)), stride=stride)


class TestQuantize:
    def test_single_point_floors_to_origin(self):
        st_ = quantize(PointCloud(np.array([[0.005, 0.005, 0.005]])), step=0.01)
        assert st_.n == 1
        assert st_.coords.tolist() == [[0, 0, 0, 0]]
        assert st_.features.tolist() == [[1.0]]
        assert st_.stride == 1

    def test_same_voxel_collapses(self):
        pts = np.array([[0.005, 0.0, 0.0], [0.009, 0.0, 0.0]])
        st_ = quantize(PointCloud(pts), step=0.01)
        assert st_.n == 1
        assert st_.coords.tolist() == [[0, 0, 0, 0]]

    def test_uniform_cloud_coordinate_range(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.0, 1.0, size=(4096, 3))
        st_ = quantize(PointCloud(pts), step=0.01)
        assert st_.n <= 4096
        assert st_.coords[:, 1:].min() >= -100
        assert st_.coords[:, 1:].max() <= 99
        # voxel set matches a brute-force floor over the same points
        expect = {tuple(v) for v in np.floor(pts / 0.01).astype(int)}
        assert {tuple(c[1:]) for c in st_.coords.tolist()} == expect

    def test_first_occurrence_row_order(self):
        pts = np.array([[0.05, 0.0, 0.0], [0.0, 0.0, 0.0], [0.051, 0.0, 0.0]])
        st_ = quantize(PointCloud(pts), step=0.01)
        assert st_.coords[:, 1].tolist() == [5, 0]

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyInput):
            quantize(PointCloud(np.empty((0, 3))), step=0.01)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            quantize(PointCloud(np.zeros((1, 3))), step=0.0)

    def test_batch_index_recorded(self):
        st_ = quantize(PointCloud(np.zeros((1, 3))), step=0.01, batch=7)
        assert st_.coords[0, 0] == 7


class TestPacking:
    @given(st.lists(st.tuples(st.integers(0, 100),
                              st.integers(-30000, 30000),
                              st.integers(-30000, 30000),
                              st.integers(-30000, 30000)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_roundtrip(self, rows):
        coords = np.array(rows, dtype=np.int64)
        assert np.array_equal(unpack_keys(pack_coords(coords)), coords)

    def test_distinct_coords_distinct_keys(self):
        rng = np.random.default_rng(1)
        coords = rng.integers(-500, 500, size=(1000, 4))
        coords[:, 0] = np.abs(coords[:, 0]) % 8
        uniq = np.unique(coords, axis=0)
        keys = pack_coords(uniq)
        assert len(np.unique(keys)) == len(uniq)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_coords(np.array([[0, 1 << 17, 0, 0]]))
        with pytest.raises(ValueError):
            pack_coords(np.array([[-1, 0, 0, 0]]))


class TestKernelOffsets:
    def test_odd_kernel_centered(self):
        offs = kernel_offsets(3)
        assert len(offs) == 27
        assert (0, 0, 0) in offs
        assert min(o[0] for o in offs) == -1 and max(o[0] for o in offs) == 1

    def test_even_kernel_anchored(self):
        offs = kernel_offsets(2)
        assert len(offs) == 8
        assert set(offs) == {(a, b, c) for a in (0, 1) for b in (0, 1)
                             for c in (0, 1)}

    def test_k1_is_identity(self):
        assert kernel_offsets(1) == [(0, 0, 0)]


class TestKernelMap:
    def test_identity_kernel_single_pair(self):
        x = make_tensor([[0, 0, 0, 0]])
        kmap = build_kernel_map(x, x.coords, kernel_size=1, dilation_stride=1)
        ri, ro = kmap.get((0, 0, 0))
        assert ri.tolist() == [0] and ro.tolist() == [0]
        assert kmap.pair_count() == 1

    def test_two_voxel_hand_enumeration(self):
        # out (0,0,0): input holds out + (0,0,0) and out + (1,0,0), nothing else
        x = make_tensor([[0, 0, 0, 0], [0, 1, 0, 0]])
        out = np.array([[0, 0, 0, 0]])
        kmap = build_kernel_map(x, out, kernel_size=3, dilation_stride=1)
        assert kmap.pair_count() == 2
        assert kmap.get((0, 0, 0))[0].tolist() == [0]
        assert kmap.get((1, 0, 0))[0].tolist() == [1]

    def test_out_of_reach_is_empty(self):
        x = make_tensor([[0, 0, 0, 0]])
        out = np.array([[0, 2, 2, 2]])
        kmap = build_kernel_map(x, out, kernel_size=3, dilation_stride=1)
        assert kmap.pair_count() == 0

    def test_respects_batch_boundaries(self):
        x = make_tensor([[0, 0, 0, 0], [1, 1, 0, 0]])
        out = np.array([[0, 0, 0, 0]])
        kmap = build_kernel_map(x, out, kernel_size=3, dilation_stride=1)
        assert kmap.pair_count() == 1  # neighbour in batch 1 must not join

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_join(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 20))
        coords = np.unique(np.column_stack(
            [np.zeros(n, dtype=int), rng.integers(0, 4, size=(n, 3))]), axis=0)
        x = make_tensor(coords)
        out = coords[rng.random(len(coords)) < 0.7]
        if len(out) == 0:
            out = coords[:1]
        kmap = build_kernel_map(x, out, kernel_size=3, dilation_stride=1)
        in_set = {tuple(c): i for i, c in enumerate(coords.tolist())}
        expect = 0
        for o, oc in enumerate(out.tolist()):
            for off in kernel_offsets(3):
                cand = (oc[0], oc[1] + off[0], oc[2] + off[1], oc[3] + off[2])
                if cand in in_set:
                    expect += 1
                    ri, ro = kmap.get(off)
                    pairs = set(zip(ri.tolist(), ro.tolist()))
                    assert (in_set[cand], o) in pairs
        assert kmap.pair_count() == expect


def pair_set(kmap):
    return {(off, i, o) for off, (ri, ro) in kmap.pairs.items()
            for i, o in zip(ri.tolist(), ro.tolist())}


class TestMirroredKernelMap:
    # batches=1 takes the dense-occupancy builder, batches=3 the joint
    # searchsorted one; a copy of the coordinates forces a full build
    @pytest.mark.parametrize("batches", [1, 3])
    @pytest.mark.parametrize("kernel_size", [3, 5])
    def test_matches_full_build(self, kernel_size, batches):
        rng = np.random.default_rng(10 * kernel_size + batches)
        coords = np.unique(np.column_stack(
            [rng.integers(0, batches, size=400),
             2 * rng.integers(-5, 5, size=(400, 3))]), axis=0)
        x = make_tensor(coords[rng.permutation(len(coords))], stride=2)
        mirrored = build_kernel_map(x, x.coords, kernel_size, dilation_stride=2)
        full = build_kernel_map(x, x.coords.copy(), kernel_size,
                                dilation_stride=2)
        assert len(pair_set(full)) > 2 * len(coords)
        assert pair_set(mirrored) == pair_set(full)
        assert mirrored.pair_count() == full.pair_count()


class TestDownsample:
    def test_collapse_to_origin(self):
        x = make_tensor([[0, 0, 0, 0], [0, 1, 1, 1]])
        coords, stride = downsample_coords(x, 2)
        assert coords.tolist() == [[0, 0, 0, 0]]
        assert stride == 2

    def test_distinct_cells_kept(self):
        x = make_tensor([[0, 0, 0, 0], [0, 2, 0, 0]])
        coords, stride = downsample_coords(x, 2)
        assert coords.tolist() == [[0, 0, 0, 0], [0, 2, 0, 0]]

    def test_already_aligned(self):
        x = make_tensor([[0, 4, 4, 4]], stride=2)
        coords, stride = downsample_coords(x, 2)
        assert coords.tolist() == [[0, 4, 4, 4]]
        assert stride == 4

    def test_negative_coords_floor_down(self):
        x = make_tensor([[0, -1, 0, 0]])
        coords, _ = downsample_coords(x, 2)
        assert coords.tolist() == [[0, -2, 0, 0]]


class TestSparseTensor:
    def test_duplicate_coords_rejected(self):
        with pytest.raises(ValueError):
            make_tensor([[0, 0, 0, 0], [0, 0, 0, 0]])

    def test_misaligned_stride_rejected(self):
        with pytest.raises(ValueError):
            make_tensor([[0, 1, 0, 0]], stride=2)

    def test_rows_of_hits_and_misses(self):
        x = make_tensor([[0, 0, 0, 0], [0, 3, 1, 2]])
        rows = x.rows_of(np.array([[0, 3, 1, 2], [0, 9, 9, 9], [0, 0, 0, 0]]))
        assert rows.tolist() == [1, -1, 0]

    def test_sorted_by_coord_is_canonical(self):
        a = make_tensor([[0, 1, 0, 0], [0, 0, 0, 0]])
        b = make_tensor([[0, 0, 0, 0], [0, 1, 0, 0]])
        assert np.array_equal(a.sorted_by_coord().coords,
                              b.sorted_by_coord().coords)
