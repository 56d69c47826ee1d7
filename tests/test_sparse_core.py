"""Quantization, coordinate packing, kernel maps, downsampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloc import (PointCloud, SparseTensor, Var, build_kernel_map,
                       downsample_coords, kernel_offsets, quantize, sparse_conv)
from sparseloc import layers, sparse
from sparseloc.errors import EmptyInput
from sparseloc.sparse import downsample_map, pack_coords, unpack_keys
from conftest import coord_rows


def make_tensor(coords, stride=1, channels=1):
    coords = np.asarray(coords, dtype=np.int64)
    return SparseTensor(coords, np.ones((len(coords), channels)), stride=stride)


def segment(kmap, offset):
    """(rows_in, rows_out) of one offset's segment of a kernel map."""
    k = kmap.offsets.index(tuple(offset))
    lo, hi = kmap.bounds[k], kmap.bounds[k + 1]
    return kmap.rows_in[lo:hi], kmap.rows_out[lo:hi]


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

    def test_rows_in_key_order(self):
        # first occurrence would put voxel 5 first; key order puts 0 first
        pts = np.array([[0.05, 0.0, 0.0], [0.0, 0.0, 0.0], [0.051, 0.0, 0.0]])
        st_ = quantize(PointCloud(pts), step=0.01)
        assert st_.coords[:, 1].tolist() == [0, 5]
        assert np.array_equal(st_.keys(), pack_coords(st_.coords))
        skeys, order = st_._sorted_index()
        assert np.array_equal(skeys, st_.keys())
        assert order.tolist() == [0, 1]

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
        kmap = build_kernel_map(x, x.coords, kernel_size=1)
        ri, ro = segment(kmap, (0, 0, 0))
        assert ri.tolist() == [0] and ro.tolist() == [0]
        assert kmap.pair_count() == 1

    def test_two_voxel_hand_enumeration(self):
        # out (0,0,0): input holds out + (0,0,0) and out + (1,0,0), nothing else
        x = make_tensor([[0, 0, 0, 0], [0, 1, 0, 0]])
        out = np.array([[0, 0, 0, 0]])
        kmap = build_kernel_map(x, out, kernel_size=3)
        assert kmap.pair_count() == 2
        assert segment(kmap, (0, 0, 0))[0].tolist() == [0]
        assert segment(kmap, (1, 0, 0))[0].tolist() == [1]

    def test_out_of_reach_is_empty(self):
        x = make_tensor([[0, 0, 0, 0]])
        out = np.array([[0, 2, 2, 2]])
        kmap = build_kernel_map(x, out, kernel_size=3)
        assert kmap.pair_count() == 0

    def test_respects_batch_boundaries(self):
        x = make_tensor([[0, 0, 0, 0], [1, 1, 0, 0]])
        out = np.array([[0, 0, 0, 0]])
        kmap = build_kernel_map(x, out, kernel_size=3)
        assert kmap.pair_count() == 1  # neighbour in batch 1 must not join
        # a single-batch input (the dense-occupancy builder) against outputs
        # of another batch item: no pairs, whichever batch id is larger
        for in_batch, out_batch in [(0, 1), (1, 0)]:
            x = make_tensor([[in_batch, 0, 0, 0], [in_batch, 1, 0, 0]])
            out = np.array([[out_batch, 0, 0, 0]])
            assert build_kernel_map(x, out, kernel_size=3).pair_count() == 0

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
        kmap = build_kernel_map(x, out, kernel_size=3)
        in_set = {tuple(c): i for i, c in enumerate(coords.tolist())}
        expect = 0
        for o, oc in enumerate(out.tolist()):
            for off in kernel_offsets(3):
                cand = (oc[0], oc[1] + off[0], oc[2] + off[1], oc[3] + off[2])
                if cand in in_set:
                    expect += 1
                    ri, ro = segment(kmap, off)
                    pairs = set(zip(ri.tolist(), ro.tolist()))
                    assert (in_set[cand], o) in pairs
        assert kmap.pair_count() == expect

    def test_map_onto_own_coords_is_the_one_a_conv_uses(self, monkeypatch):
        # a map onto the input's own coordinate array is cached on its
        # geometry; one onto any other array is not, whatever it holds
        rng = np.random.default_rng(4)
        x = quantize(PointCloud(rng.uniform(-1, 1, size=(300, 3))), step=0.2)
        build_kernel_map(x, x.coords[::-1].copy(), 3)
        kmap = build_kernel_map(x, x.coords, 3)
        used = []

        def recorded(*args):
            used.append(build_kernel_map(*args))
            return used[-1]

        monkeypatch.setattr(layers, "build_kernel_map", recorded)
        sparse_conv(x, Var(np.ones((27, 1, 1))), kernel_size=3)
        assert len(used) == 1 and used[0] is kmap


def pair_set(kmap):
    k = np.repeat(np.arange(len(kmap.offsets)), np.diff(kmap.bounds))
    return {(kmap.offsets[j], i, o) for j, i, o in
            zip(k.tolist(), kmap.rows_in.tolist(), kmap.rows_out.tolist())}


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
        mirrored = build_kernel_map(x, x.coords, kernel_size)
        full = build_kernel_map(x, x.coords.copy(), kernel_size)
        assert len(pair_set(full)) > 2 * len(coords)
        assert pair_set(mirrored) == pair_set(full)
        assert mirrored.pair_count() == full.pair_count()

    @pytest.mark.parametrize("kernel_size", [3, 5])
    def test_one_item_past_the_dense_table_cap(self, kernel_size):
        # two clusters 300 voxels apart on every axis: one item's dense
        # table would pass its 20 M cells, so it takes the joint searchsorted
        rng = np.random.default_rng(kernel_size)
        xyz = np.unique(np.concatenate([rng.integers(0, 6, size=(120, 3)),
                                        rng.integers(300, 306, size=(120, 3))]),
                        axis=0)
        assert np.prod(np.ptp(xyz, axis=0) + 1) > 20_000_000
        coords = np.column_stack([np.zeros(len(xyz), dtype=int), xyz])
        x = make_tensor(coords[rng.permutation(len(coords))])
        rows = {tuple(c): i for i, c in enumerate(x.coords.tolist())}
        brute = {(off, rows[cand], o)
                 for o, (b, *c) in enumerate(x.coords.tolist())
                 for off in kernel_offsets(kernel_size)
                 if (cand := (b, c[0] + off[0], c[1] + off[1], c[2] + off[2]))
                 in rows}
        mirrored = build_kernel_map(x, x.coords, kernel_size)
        full = build_kernel_map(x, x.coords.copy(), kernel_size)
        assert len(brute) > 2 * len(coords)
        assert pair_set(mirrored) == brute == pair_set(full)
        assert mirrored.pair_count() == full.pair_count() == len(brute)

    # sparse_conv's ``out[rows_out] +=`` per offset needs unique rows there
    @pytest.mark.parametrize("batches", [1, 3])
    @pytest.mark.parametrize("mirrored", [True, False])
    def test_segments_hold_unique_rows(self, mirrored, batches):
        rng = np.random.default_rng(batches)
        coords = np.unique(np.column_stack(
            [rng.integers(0, batches, size=300),
             rng.integers(-4, 4, size=(300, 3))]), axis=0)
        x = make_tensor(coords[rng.permutation(len(coords))])
        kmap = build_kernel_map(x, x.coords if mirrored else x.coords.copy(), 3)
        b = kmap.bounds
        assert b[0] == 0 and b[-1] == kmap.pair_count() > len(coords)
        assert len(b) == len(kmap.offsets) + 1 and np.all(np.diff(b) >= 0)
        for k in range(len(kmap.offsets)):
            for rows in (kmap.rows_in[b[k]:b[k + 1]], kmap.rows_out[b[k]:b[k + 1]]):
                assert len(np.unique(rows)) == len(rows)


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

    # batches=1 gives the search oracle its dense-occupancy path, batches=3
    # its joint searchsorted; stride 3 is not a power of two
    @pytest.mark.parametrize("batches", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    def test_map_equals_search(self, stride, batches):
        rng = np.random.default_rng(10 * stride + batches)
        coords = np.unique(np.column_stack(
            [rng.integers(0, batches, size=300),
             stride * rng.integers(-6, 6, size=(300, 3))]), axis=0)
        x = make_tensor(coords[rng.permutation(len(coords))], stride=stride)
        out, new_stride = downsample_coords(x, 2)
        assert new_stride == 2 * stride and out[:, 1:].min() < 0
        kmap = downsample_map(x, 2)
        oracle = build_kernel_map(make_tensor(x.coords, stride=stride), out, 2)
        assert kmap.offsets == oracle.offsets
        for name in ("rows_in", "rows_out", "bounds"):
            assert np.array_equal(getattr(kmap, name), getattr(oracle, name))
        # every input row has exactly one parent
        assert sorted(kmap.rows_in.tolist()) == list(range(x.n))

    def test_results_are_cached_objects(self, monkeypatch):
        # a strided conv asks for its coordinates and its map once each; a
        # repeat call hands back the same objects, and the map is the one
        # the downsample built, so no search ran for it
        seen = []

        def record(fn):
            def wrapped(*args, **kwargs):
                seen.append(fn(*args, **kwargs))
                return seen[-1]
            return wrapped

        for fn in (layers.downsample_coords, layers.build_kernel_map):
            monkeypatch.setattr(layers, fn.__name__, record(fn))
        x = make_tensor([[0, 0, 0, 0], [0, 1, 1, 1], [0, 2, 0, 0],
                         [1, -1, 0, 3]])
        w = Var(np.ones((8, 1, 1)))
        for _ in range(2):
            out = sparse_conv(x, w, kernel_size=2, stride=2)
        down, kmap, down_again, kmap_again = seen
        assert down is down_again is downsample_coords(x, 2)
        coords, stride = down
        assert stride == 2 and np.array_equal(out.coords, coords)
        assert kmap is kmap_again is downsample_map(x, 2)

    def test_with_features_builds_the_downsample(self):
        x = make_tensor([[0, 0, 0, 0], [0, 1, 1, 1], [0, 2, 0, 0],
                         [1, -1, 0, 3]])
        y = x.with_features(np.zeros((3, 1)), 2)
        coords, stride = downsample_coords(x, 2)
        assert y.coords is coords and y.stride == stride == 2
        assert coords.tolist() == [[0, 0, 0, 0], [0, 2, 0, 0], [1, -2, 0, 2]]

    def test_first_conv_after_downsample_reuses_unique_keys(self, monkeypatch):
        # the downsample's np.unique key array is the parents' sorted index,
        # so a stride-1 conv on them neither packs nor sorts their keys again
        rng = np.random.default_rng(3)
        x = quantize(PointCloud(rng.uniform(-1, 1, size=(400, 3))), step=0.1)
        uniques, real_unique = [], np.unique

        def unique(*args, **kwargs):
            out = real_unique(*args, **kwargs)
            uniques.append(out[0])
            return out

        with monkeypatch.context() as m:
            m.setattr(sparse.np, "unique", unique)
            y = sparse_conv(x, Var(np.ones((8, 1, 2))), kernel_size=2, stride=2)
        packs = []
        monkeypatch.setattr(sparse, "pack_coords",
                            lambda c: packs.append(c) or pack_coords(c))
        sparse_conv(y, Var(np.ones((27, 2, 2))), kernel_size=3)
        assert packs == []
        (keys,) = uniques
        skeys, order = y._sorted_index()
        assert skeys is keys and y.keys() is keys
        assert np.array_equal(order, np.arange(y.n))
        assert np.array_equal(y.coords, unpack_keys(keys))


class TestSparseTensor:
    def test_duplicate_coords_rejected(self):
        with pytest.raises(ValueError):
            make_tensor([[0, 0, 0, 0], [0, 0, 0, 0]])

    def test_misaligned_stride_rejected(self):
        with pytest.raises(ValueError):
            make_tensor([[0, 1, 0, 0]], stride=2)

    def test_one_dimensional_features_are_one_channel(self):
        coords = np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 2, 0, 0]])
        assert SparseTensor(coords, np.arange(3.0)).features.shape == (3, 1)
        for n in (2, 6):
            with pytest.raises(ValueError, match="row counts"):
                SparseTensor(coords, np.arange(float(n)))

    def test_rows_of_hits_and_misses(self):
        # the tests' coordinate lookup, on a tensor not in key order
        x = make_tensor([[0, 3, 1, 2], [0, 0, 0, 0], [1, 0, 0, 0]])
        rows = coord_rows(x, np.array([[0, 0, 0, 0], [0, 9, 9, 9],
                                       [1, 0, 0, 0], [0, 3, 1, 2]]))
        assert rows.tolist() == [1, -1, 2, 0]

