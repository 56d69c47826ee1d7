"""File formats, geo-tag tuples, and synthetic dataset construction."""

import os
import re

import numpy as np
import pytest

from sparseloc import data as data_io
from sparseloc import (Dataset, PointCloudRecord, build_tuples, load_cloud,
                       load_index, synth_dataset, write_cloud, write_index)
from sparseloc.errors import DatasetError, EmptyInput, FormatError


class TestCloudIO:
    def test_roundtrip(self, tmp_path, rng):
        pts = rng.uniform(-1, 1, size=(100, 3))
        path = str(tmp_path / "c.bin")
        write_cloud(path, pts)
        assert np.array_equal(load_cloud(path), pts)

    def test_size_implies_point_count(self, tmp_path):
        path = str(tmp_path / "c.bin")
        write_cloud(path, np.zeros((4096, 3)))
        assert os.path.getsize(path) == 98304
        assert len(load_cloud(path)) == 4096

    def test_out_of_range_warns_but_loads(self, tmp_path):
        path = str(tmp_path / "c.bin")
        write_cloud(path, np.array([[1.5, 0.0, 0.0]]))
        with pytest.warns(UserWarning):
            pts = load_cloud(path)
        assert pts[0, 0] == 1.5

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_cloud(str(path), np.zeros((4, 3)))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_cloud(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"")
        with pytest.raises(EmptyInput):
            load_cloud(str(path))


class TestPublish:
    def test_chunks_land_concatenated_in_order(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        data_io.publish({a: [b"one", b"", b"two"], b: [b"three"]})
        assert (tmp_path / "a").read_bytes() == b"onetwo"
        assert (tmp_path / "b").read_bytes() == b"three"
        assert sorted(os.listdir(tmp_path)) == ["a", "b"]

    def test_replaced_in_the_order_given(self, tmp_path, monkeypatch):
        calls, replace = [], os.replace

        def recording(src, dst):
            calls.append((src, dst))
            replace(src, dst)
        monkeypatch.setattr(os, "replace", recording)
        paths = [str(tmp_path / name) for name in ("z", "a", "m")]
        data_io.publish({path: [b"x"] for path in paths})
        assert calls == [(f"{path}.tmp", path) for path in paths]

    @pytest.mark.parametrize("which", [0, 1])
    def test_directory_target_writes_nothing(self, tmp_path, which):
        paths = [tmp_path / "a", tmp_path / "b"]
        paths[which].mkdir()
        with pytest.raises(IsADirectoryError,
                           match=re.escape(str(paths[which]))):
            data_io.publish({str(path): [b"x"] for path in paths})
        assert os.listdir(tmp_path) == [paths[which].name]

    def test_failed_write_keeps_both_targets(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"old a")
        b.write_bytes(b"old b")

        def failing():
            yield b"partial"
            raise OSError(28, "No space left on device")
        with pytest.raises(OSError, match="No space"):
            data_io.publish({str(a): [b"new a"], str(b): failing()})
        assert a.read_bytes() == b"old a" and b.read_bytes() == b"old b"
        assert sorted(os.listdir(tmp_path)) == ["a", "b"]


class TestIndexIO:
    def test_roundtrip(self, tmp_path):
        recs = [PointCloudRecord(0, "a.bin", 1.25, -3.5, "train"),
                PointCloudRecord(1, "b.bin", 100.0, 0.125, "test")]
        path = str(tmp_path / "index.csv")
        write_index(path, recs)
        assert load_index(path) == recs

    def test_int64_bounds_load(self, tmp_path):
        recs = [PointCloudRecord(-2 ** 63, "a.bin", 0.0, 0.0),
                PointCloudRecord(2 ** 63 - 1, "b.bin", 0.0, 0.0)]
        path = str(tmp_path / "index.csv")
        write_index(path, recs)
        assert load_index(path) == recs

    @pytest.mark.parametrize("rid", [2 ** 63, -2 ** 63 - 1])
    def test_id_outside_int64_rejected(self, tmp_path, rid):
        path = str(tmp_path / "index.csv")
        write_index(path, [PointCloudRecord(rid, "a.bin", 0.0, 0.0)])
        with pytest.raises(FormatError, match="int64"):
            load_index(path)

    @pytest.mark.parametrize("text", ["id,northing,easting\n0,1.0,2.0\n",
                                      "id,path,northing,easting\n0,a.bin\n",
                                      "id,path,northing,easting\nx,a,1,2\n"])
    def test_bad_record_rejected(self, tmp_path, text):
        path = tmp_path / "index.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_index(str(path))

    def test_empty_index_rejected(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text("id,path,northing,easting,split\n")
        with pytest.raises(DatasetError):
            load_index(str(path))


class TestTuples:
    def _recs(self, xs):
        return [PointCloudRecord(id=i, path="", northing=x, easting=0.0)
                for i, x in enumerate(xs)]

    def test_close_pair_mutual_positives(self):
        tuples = build_tuples(self._recs([0.0, 5.0]))
        assert tuples[0].positives == {1}
        assert tuples[1].positives == {0}

    def test_indefinite_band(self):
        tuples = build_tuples(self._recs([0.0, 30.0]))
        assert tuples[0].positives == set()
        assert 1 in tuples[0].non_negatives

    def test_far_pair_valid_negatives(self):
        tuples = build_tuples(self._recs([0.0, 60.0]))
        assert 1 not in tuples[0].positives
        assert 1 not in tuples[0].non_negatives

    def test_boundary_radii(self):
        # 10 m inclusive for positives, 50 m exclusive for non-negatives
        tuples = build_tuples(self._recs([0.0, 10.0, 50.0]))
        assert 1 in tuples[0].positives
        assert 2 not in tuples[0].non_negatives

    def test_positives_subset_of_non_negatives(self, rng):
        tuples = build_tuples(self._recs(rng.uniform(0, 300, size=30)))
        for t in tuples.values():
            assert t.positives <= t.non_negatives
            assert t.id not in t.positives


class TestSynthDataset:
    def test_counts_and_sibling_positives(self, tmp_path):
        root = str(tmp_path / "d")
        recs = synth_dataset(root, n_places=20, n_revisits=5,
                             points_per_cloud=64)
        assert len(recs) == 100
        files = [f for f in os.listdir(root) if f.endswith(".bin")]
        assert len(files) == 100
        ds = Dataset.from_index(os.path.join(root, "index.csv"))
        for rid, t in ds.tuples.items():
            place = rid // 5
            siblings = {place * 5 + r for r in range(5)} - {rid}
            assert t.positives == siblings

    def test_minimum_two_places(self, tmp_path):
        with pytest.raises(DatasetError):
            synth_dataset(str(tmp_path / "d"), n_places=1, n_revisits=2)

    def test_every_record_has_negatives(self, tmp_path):
        root = str(tmp_path / "d")
        synth_dataset(root, n_places=2, n_revisits=2, points_per_cloud=32)
        ds = Dataset.from_index(os.path.join(root, "index.csv"))
        all_ids = set(ds.records)
        for rid, t in ds.tuples.items():
            assert all_ids - t.non_negatives - {rid}

    def test_deterministic_files(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for root in (a, b):
            synth_dataset(root, n_places=2, n_revisits=2, geometry_seed=5,
                          points_per_cloud=64)
        for name in sorted(os.listdir(a)):
            with open(os.path.join(a, name), "rb") as fa, \
                    open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read()

    def test_run_splits_partition_ids(self, synth_root):
        all_ids = {r.id for r in load_index(os.path.join(synth_root, "index.csv"))}
        seen = set()
        for r in range(3):
            run = load_index(os.path.join(synth_root, f"run_{r}.csv"))
            ids = {rec.id for rec in run}
            assert not ids & seen
            seen |= ids
        assert seen == all_ids

    def test_clouds_normalized(self, synth_root):
        ds = Dataset.from_index(os.path.join(synth_root, "index.csv"))
        for rid in list(ds.records)[:5]:
            pts = ds.load_points(rid)
            assert pts.min() >= -1.0 and pts.max() <= 1.0


class TestDataset:
    def test_duplicate_ids_rejected(self, tmp_path):
        recs = [PointCloudRecord(0, "a.bin", 0.0, 0.0),
                PointCloudRecord(0, "b.bin", 60.0, 0.0)]
        with pytest.raises(DatasetError):
            Dataset(str(tmp_path), recs)

    def test_load_points_cached(self, synth_root):
        ds = Dataset.from_index(os.path.join(synth_root, "index.csv"))
        rid = next(iter(ds.records))
        assert ds.load_points(rid) is ds.load_points(rid)
