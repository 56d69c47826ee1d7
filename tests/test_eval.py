"""Nearest-neighbour search and the Recall@N evaluation protocol."""

import numpy as np
import pytest

from sparseloc import (DescriptorDatabase, EvalConfig, average_recall, knn,
                       load_database, one_percent_cutoff, recall_at_n,
                       recall_curve, save_database)
from sparseloc.errors import DatasetError, EmptyInput
from sparseloc.evaluate import cross_run_pairings


def make_db(descs, north, ids, east=None):
    descs = np.asarray(descs, dtype=float)
    if descs.ndim == 1:
        descs = descs[:, None]
    north = np.asarray(north, dtype=float)
    east = np.zeros_like(north) if east is None else np.asarray(east)
    return DescriptorDatabase(descs, north, east, np.asarray(ids))


class TestKnn:
    def test_one_dimensional_example(self):
        db = make_db([0.0, 1.0, 3.0], [0, 0, 0], [10, 11, 12])
        ids, dists = knn(db, [0.9], k=2)
        assert ids.tolist() == [11, 10]
        assert np.allclose(dists, [0.1, 0.9])

    def test_exact_match_first(self):
        db = make_db([0.0, 1.0, 3.0], [0, 0, 0], [10, 11, 12])
        ids, dists = knn(db, [3.0], k=1)
        assert ids.tolist() == [12] and dists[0] == 0.0

    def test_matches_full_sort_oracle(self, rng):
        descs = rng.normal(size=(100, 8))
        db = make_db(descs, np.zeros(100), np.arange(100))
        q = rng.normal(size=8)
        ids, dists = knn(db, q, k=100)
        d = np.linalg.norm(descs - q, axis=1)
        expect = np.argsort(d, kind="stable")
        assert ids.tolist() == expect.tolist()
        assert np.all(np.diff(dists) >= 0)

    def test_ties_break_to_lower_id(self):
        db = make_db([1.0, 1.0], [0, 0], [7, 3])
        ids, _ = knn(db, [1.0], k=2)
        assert ids.tolist() == [3, 7]

    def test_invariant_to_db_order(self, rng):
        descs = rng.normal(size=(20, 4))
        ids = np.arange(20)
        perm = rng.permutation(20)
        a = make_db(descs, np.zeros(20), ids)
        b = make_db(descs[perm], np.zeros(20), ids[perm])
        q = rng.normal(size=4)
        assert knn(a, q, 20)[0].tolist() == knn(b, q, 20)[0].tolist()

    def test_k_exceeds_db_rejected(self):
        db = make_db([0.0], [0], [1])
        with pytest.raises(ValueError):
            knn(db, [0.0], k=2)

    def test_k_below_one_rejected(self):
        db = make_db([0.0, 1.0, 3.0], [0, 0, 0], [10, 11, 12])
        for k in (0, -1):
            with pytest.raises(ValueError):
                knn(db, [0.0], k=k)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DatasetError):
            make_db([0.0, 1.0], [0, 0], [5, 5])


class TestRecall:
    def _fixture(self):
        """10-entry database with hand-checkable geometry.

        Database descriptors are the scalars 0..9; entry i sits at
        northing 100*i except entries 3 and 4, placed 10 m and 30 m from
        the query origin respectively.
        """
        north = [5.0, 100, 200, 10.0, 30.0, 500, 600, 700, 800, 900]
        db = make_db(np.arange(10, dtype=float), north, np.arange(100, 110))
        return db

    def test_top1_geo_hit(self):
        db = self._fixture()
        q = make_db([0.1], [0.0], [0])  # nearest descriptor: entry 0 at 5 m
        assert recall_at_n(q, db, 1) == 1.0

    def test_n1_fails_n2_succeeds(self):
        db = self._fixture()
        # nearest is entry 4 (30 m away, fail), second is entry 3 (10 m, hit)
        q = make_db([3.9], [0.0], [0])
        assert recall_at_n(q, db, 1) == 0.0
        assert recall_at_n(q, db, 2) == 1.0

    def test_hand_computed_mixed_batch(self):
        db = self._fixture()
        q = make_db([0.1, 3.9, 8.9], [0.0, 0.0, 0.0], [0, 1, 2])
        assert recall_at_n(q, db, 1) == pytest.approx(1 / 3)
        assert recall_at_n(q, db, 2) == pytest.approx(2 / 3)

    def test_curve_non_decreasing(self, rng):
        descs = rng.normal(size=(30, 4))
        db = make_db(descs, rng.uniform(0, 1000, 30), np.arange(30))
        q = make_db(rng.normal(size=(10, 4)), rng.uniform(0, 1000, 10),
                    np.arange(100, 110))
        curve = recall_curve(q, db, max_n=30)
        assert np.all(np.diff(curve) >= 0)
        assert np.all((curve >= 0) & (curve <= 1))

    def test_overlapping_ids_rejected(self):
        db = self._fixture()
        q = make_db([0.0], [0.0], [105])
        with pytest.raises(DatasetError):
            recall_at_n(q, db, 1)

    def test_large_n_clamped_with_warning(self):
        db = self._fixture()
        q = make_db([0.1], [0.0], [0])
        with pytest.warns(UserWarning):
            r = recall_at_n(q, db, 99)
        assert r == 1.0

    def test_empty_db_rejected(self):
        db = self._fixture()
        empty = make_db(np.empty((0, 1)), [], [])
        q = make_db([0.0], [0.0], [0])
        with pytest.raises(EmptyInput):
            recall_at_n(q, empty, 1)

    def test_success_radius_config(self):
        db = self._fixture()
        q = make_db([3.9], [0.0], [0])  # top-1 is 30 m away
        assert recall_at_n(q, db, 1, EvalConfig(success_radius=35.0)) == 1.0


class TestAverageRecall:
    def test_cutoff_values(self):
        assert one_percent_cutoff(50) == 1
        assert one_percent_cutoff(100) == 1
        assert one_percent_cutoff(250) == 3
        assert one_percent_cutoff(1) == 1

    def test_two_pairings_average(self):
        db = make_db([0.0, 10.0], [5.0, 1000.0], [1, 2])
        good = make_db([0.1], [0.0], [10])             # recall 1.0
        half = make_db([0.1, 9.9], [0.0, 0.0], [11, 12])  # one hit, one miss
        res = average_recall([good, half], [db, db])
        assert res["ar_at_1"] == pytest.approx(0.75)
        assert len(res["pairings"]) == 2

    def test_mismatched_pairings_rejected(self):
        db = make_db([0.0], [0.0], [1])
        with pytest.raises(DatasetError):
            average_recall([db], [])

    def test_cross_run_pairings_ordered(self):
        runs = [make_db([float(i)], [0.0], [i]) for i in range(3)]
        q, d = cross_run_pairings(runs)
        assert len(q) == 6
        assert all(qa is not da for qa, da in zip(q, d))


class TestDatabaseIO:
    def test_roundtrip(self, tmp_path, rng):
        db = make_db(rng.normal(size=(12, 6)), rng.uniform(0, 100, 12),
                     np.arange(12), east=rng.uniform(0, 100, 12))
        path = str(tmp_path / "d.db")
        save_database(path, db)
        back = load_database(path)
        assert len(back) == 12 and back.dim == 6
        assert np.array_equal(back.ids, db.ids)
        # payload is float32 on disk
        assert np.max(np.abs(back.descriptors - db.descriptors)) < 1e-6
        assert np.array_equal(back.northing, db.northing)

    def test_bad_magic_rejected(self, tmp_path):
        from sparseloc.errors import FormatError
        path = tmp_path / "d.db"
        path.write_bytes(b"garbage")
        with pytest.raises(FormatError):
            load_database(str(path))

    def test_missing_sidecar_rejected(self, tmp_path, rng):
        from sparseloc.errors import FormatError
        import os
        db = make_db(rng.normal(size=(3, 2)), [0, 1, 2], [0, 1, 2])
        path = str(tmp_path / "d.db")
        save_database(path, db)
        os.remove(path + ".geo.csv")
        with pytest.raises(FormatError):
            load_database(path)
