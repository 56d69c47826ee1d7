"""Nearest-neighbour search and the Recall@N evaluation protocol."""

import csv
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparseloc import (DescriptorDatabase, average_recall, cli,
                       knn, load_database, one_percent_cutoff, recall_at_n,
                       recall_curve, save_database)
from sparseloc import evaluate, layers
from sparseloc.errors import DatasetError, EmptyInput, FormatError, ShapeError
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

    def test_length_mismatch_names_counts(self, rng):
        with pytest.raises(DatasetError, match="lengths: 4, 4, 4, 3"):
            DescriptorDatabase(rng.normal(size=(4, 2)), np.zeros(4),
                               np.zeros(4), np.arange(3))

    def test_dimension_mismatch_names_both(self, rng):
        db = make_db(rng.normal(size=(4, 3)), np.zeros(4), np.arange(4))
        with pytest.raises(ShapeError, match="dimension 4.*dimension 3"):
            knn(db, rng.normal(size=4), k=1)

    def test_flat_descriptors_are_one_scalar_per_id(self):
        db = DescriptorDatabase(np.array([0.0, 1.0, 3.0]), np.zeros(3),
                                np.zeros(3), np.array([10, 11, 12]))
        assert db.descriptors.tolist() == [[0.0], [1.0], [3.0]]

    @pytest.mark.parametrize("shape", [(7,), (6,), (3, 2, 1)])
    def test_descriptors_not_one_row_per_id_rejected(self, shape):
        message = re.escape(f"shape {shape}") + ".* 3 ids"
        with pytest.raises(DatasetError, match=message):
            DescriptorDatabase(np.ones(shape), np.zeros(3), np.zeros(3),
                               np.arange(3))


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

    def test_dimension_mismatch_names_both(self, rng):
        db = make_db(rng.normal(size=(4, 3)), np.zeros(4), np.arange(4))
        q = make_db(rng.normal(size=(2, 5)), np.zeros(2), [10, 11])
        with pytest.raises(ShapeError, match="dimension 5.*dimension 3"):
            recall_curve(q, db, 1)

    def test_success_radius_config(self):
        db = self._fixture()
        q = make_db([3.9], [0.0], [0])  # top-1 is 30 m away
        assert recall_at_n(q, db, 1, 35.0) == 1.0


def reference_recall_at_n(queries, db, n, radius=25.0):
    """The protocol rerun for one n: the top n of a full sort per query."""
    n = min(n, len(db))
    hits = 0
    for qi in range(len(queries)):
        rows = evaluate._ranking(db, queries.descriptors[qi])[0][:n]
        geo = np.sqrt((db.northing[rows] - queries.northing[qi]) ** 2
                      + (db.easting[rows] - queries.easting[qi]) ** 2)
        if np.any(geo <= radius):
            hits += 1
    return hits / len(queries) if len(queries) else 0.0


def random_pairing(seed):
    """Query and database runs with shuffled disjoint ids.  Even seeds round
    the descriptors to integers, so exact distance ties are common."""
    rng = np.random.default_rng(seed)
    n_db, n_q = int(rng.integers(1, 30)), int(rng.integers(0, 12))
    ids = rng.permutation(1000)[:n_db + n_q]
    descs = rng.normal(size=(n_db + n_q, 3))
    if seed % 2 == 0:
        descs = np.round(descs)
    north, east = rng.uniform(0, 100, size=(2, n_db + n_q))
    db = make_db(descs[:n_db], north[:n_db], ids[:n_db], east=east[:n_db])
    q = make_db(descs[n_db:], north[n_db:], ids[n_db:], east=east[n_db:])
    return q, db, int(rng.integers(1, n_db + 6))


class TestRankedProtocol:
    """recall_curve ranks each query once; the per-n rerun is its oracle."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_per_n_reference(self, seed):
        q, db, max_n = random_pairing(seed)
        ref = [reference_recall_at_n(q, db, n) for n in range(1, max_n + 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert recall_curve(q, db, max_n).tolist() == ref
            assert recall_at_n(q, db, max_n) == ref[-1]
        assert recall_at_n(q, db, 1) == ref[0]
        res = average_recall([q], [db])
        cutoff = one_percent_cutoff(len(db))
        assert res["ar_at_1"] == reference_recall_at_n(q, db, 1)
        assert res["ar_at_1pct"] == reference_recall_at_n(q, db, cutoff)
        assert res["pairings"][0]["curve"].tolist() == [
            reference_recall_at_n(q, db, n) for n in range(1, len(db) + 1)]

    def test_fixtures_cover_ties_clamping_and_no_queries(self):
        cases = [random_pairing(seed) for seed in range(30)]
        assert any(len(q) == 0 for q, _, _ in cases)
        assert any(max_n > len(db) for _, db, max_n in cases)
        ties = 0
        for q, db, _ in cases:
            for desc in q.descriptors:
                d = np.linalg.norm(db.descriptors - desc, axis=1)
                ties += len(d) - len(np.unique(d))
        assert ties > 0

    def test_clamping_warns_once(self):
        q, db, _ = random_pairing(1)
        with pytest.warns(UserWarning) as record:
            recall_curve(q, db, len(db) + 5)
        assert len(record) == 1

    def test_n_below_one_rejected_without_queries(self):
        db = make_db([0.0, 1.0], [0.0, 0.0], [1, 2])
        for q in (make_db(np.empty((0, 1)), [], []), make_db([0.0], [0.0], [9])):
            for n in (0, -1):
                with pytest.raises(ValueError):
                    recall_at_n(q, db, n)

    def test_eval_ranks_each_query_once_per_pairing(self, tmp_path,
                                                    monkeypatch, rng):
        paths = []
        for r, (n, first_id) in enumerate([(7, 0), (5, 100), (4, 200)]):
            db = make_db(rng.normal(size=(n, 3)), rng.uniform(0, 100, n),
                         np.arange(first_id, first_id + n))
            paths.append(str(tmp_path / f"run{r}.db"))
            save_database(paths[-1], db)
        calls, screen = [], evaluate._screen_block

        def counting(db, desc, *rest):
            calls.append((len(db), len(desc)))
            return screen(db, desc, *rest)

        monkeypatch.setattr(evaluate, "_screen_block", counting)
        code = cli.main(["eval", "--db", paths[0], "--query", paths[1],
                         paths[2], "--out", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_OK
        # (run1 vs run0) then (run2 vs run0): each query screened once
        assert calls == [(7, 5), (7, 4)]


def clustered_pairing(seed, n_places=200, n_queries=None, dim=256):
    """Two runs of geo-tagged descriptors clustered by place, places 20 m
    apart, as in the benchmark's retrieve workload."""
    rng = np.random.default_rng(seed)
    centers = np.abs(rng.normal(size=(n_places, dim)))
    route = 20.0 * np.arange(n_places)
    runs = []
    for r in range(2):
        runs.append((np.abs(centers + 0.9 * rng.normal(size=centers.shape)),
                     route + rng.uniform(-2, 2, n_places),
                     rng.uniform(-2, 2, n_places), r * 1000 + np.arange(n_places)))
    n_q = n_places if n_queries is None else n_queries
    q = DescriptorDatabase(*(col[:n_q] for col in runs[0]))
    return q, DescriptorDatabase(*runs[1])


def first_hits_under(order_of, queries, db, radius=25.0):
    """Each query's first geo-hit rank, database rows in order_of(q)."""
    first = np.full(len(queries), len(db))
    for qi in range(len(queries)):
        order = order_of(queries.descriptors[qi])
        geo = np.sqrt((db.northing[order] - queries.northing[qi]) ** 2
                      + (db.easting[order] - queries.easting[qi]) ** 2)
        hits = np.flatnonzero(geo <= radius)
        if hits.size:
            first[qi] = hits[0]
    return first


def ranked_first_hits(queries, db):
    """The per-query protocol: a full _ranking per query."""
    return first_hits_under(lambda q: evaluate._ranking(db, q)[0], queries, db)


def gemm_first_hits(queries, db, dtype=np.float64):
    """The same with unbounded GEMM-form distances ||q||^2 + ||x||^2 - 2q.x,
    computed in ``dtype``."""
    rows = db.descriptors.astype(dtype)
    sq_db = np.sum(rows ** 2, axis=1)

    def order(q):
        q = q.astype(dtype)
        return np.lexsort((db.ids, q @ q + sq_db - 2 * (rows @ q)))
    return first_hits_under(order, queries, db)


def rescaled(db, transform):
    return DescriptorDatabase(transform(db.descriptors), db.northing,
                              db.easting, db.ids)


class TestBlockScreen:
    """The blocked GEMM screen gives the per-query _ranking ranks exactly."""

    def assert_exact(self, q, db):
        assert np.array_equal(evaluate._first_hits(q, db, 25.0),
                              ranked_first_hits(q, db))

    def test_clustered(self):
        self.assert_exact(*clustered_pairing(0))

    def test_integer_ties(self):
        q, db = clustered_pairing(1, dim=4)
        q, db = rescaled(q, np.round), rescaled(db, np.round)
        d = np.linalg.norm(db.descriptors[:, None] - q.descriptors, axis=2)
        assert len(np.unique(d)) < d.size // 10   # exact ties are common
        self.assert_exact(q, db)

    def test_large_common_offset(self):
        q, db = clustered_pairing(2, n_places=100)
        shift = lambda x: 1e4 + 1e-3 * x
        q, db = rescaled(q, shift), rescaled(db, shift)
        # the GEMM form alone orders these differently
        assert not np.array_equal(gemm_first_hits(q, db), ranked_first_hits(q, db))
        self.assert_exact(q, db)

    def test_subnormal_squares(self):
        q, db = clustered_pairing(3, n_places=100)
        q, db = rescaled(q, lambda x: 1e-160 * x), rescaled(db, lambda x: 1e-160 * x)
        assert np.all(db.descriptors ** 2 < np.finfo(float).tiny)
        self.assert_exact(q, db)

    def test_overflowing_squares(self):
        q, db = clustered_pairing(4, n_places=100)
        q, db = rescaled(q, lambda x: 1e160 * x), rescaled(db, lambda x: 1e160 * x)
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum(db.descriptors ** 2, axis=1)).all()
            self.assert_exact(q, db)

    @pytest.mark.parametrize("n_q", [0, 63, 64, 65, 127, 128, 129, 400])
    def test_block_boundaries(self, n_q, monkeypatch):
        q, db = clustered_pairing(6, n_places=max(80, n_q), n_queries=n_q)
        sizes, screen = [], evaluate._screen_block

        def counting(db, desc, *rest):
            sizes.append(len(desc))
            return screen(db, desc, *rest)

        monkeypatch.setattr(evaluate, "_screen_block", counting)
        # the pairing runs whole: its queries are cut as one range
        monkeypatch.setattr(layers, "_SPLIT_WORK", np.inf)
        self.assert_exact(q, db)
        assert len(sizes) == -(-n_q // 128)
        assert sum(sizes) == n_q
        assert all(0 < size <= 128 for size in sizes)
        assert max(sizes, default=0) - min(sizes, default=0) <= 1

    def test_query_without_hit(self):
        q, db = clustered_pairing(7, n_places=100)
        q.northing[[3, 50]] = 1e6
        first = evaluate._first_hits(q, db, 25.0)
        assert first[3] == first[50] == len(db)
        self.assert_exact(q, db)

    def test_float32_subnormals(self):
        q, db = SCREEN_FIXTURES["float32_subnormals"]()
        # float32 subnormals, so the bound must hold whether or not a
        # kernel flushes them to zero
        f32 = np.finfo(np.float32)
        size = np.abs(db.descriptors)
        assert np.all(size < f32.tiny)
        assert np.count_nonzero(size > f32.smallest_subnormal) > size.size // 2
        self.assert_exact(q, db)

    def test_past_float32_limit(self):
        q, db = SCREEN_FIXTURES["past_float32_limit"]()
        assert np.isfinite(db.descriptors32).all()
        assert evaluate._intervals(db.descriptors32, db.sq_norms, q.descriptors,
                                   q.sq_norms) is None
        self.assert_exact(q, db)

    def test_float32_round_trip(self):
        q, db = SCREEN_FIXTURES["float32_round_trip"]()
        assert np.array_equal(db.descriptors, db.descriptors32)
        self.assert_exact(q, db)

    def test_near_ties(self):
        q, db = SCREEN_FIXTURES["near_ties"]()
        # each twin's squared distance is within the float32 band of its
        # original's, so the float32 GEMM form alone orders them wrongly
        half, dim = len(db) // 2, db.dim
        for desc, sq in zip(q.descriptors, q.sq_norms):
            d2 = np.sum((db.descriptors - desc) ** 2, axis=1)
            band = 2 * (dim + 10) * 2.0 ** -24 * (sq + db.sq_norms[:half])
            assert np.all(np.abs(d2[:half] - d2[half:]) < band)
        assert not np.array_equal(gemm_first_hits(q, db, np.float32),
                                  ranked_first_hits(q, db))
        self.assert_exact(q, db)

    def test_few_exact_rows_per_query(self, monkeypatch):
        q, db = clustered_pairing(8, n_places=400)
        rows, distances = [], evaluate._distances

        def counting(descriptors, q):
            out = distances(descriptors, q)
            rows.append(len(out))
            return out

        monkeypatch.setattr(evaluate, "_distances", counting)
        recall_curve(q, db, 5)
        assert sum(rows) <= 8 * len(q)


def scaled_pairing(seed, transform, **kwargs):
    q, db = clustered_pairing(seed, **kwargs)
    return rescaled(q, transform), rescaled(db, transform)


def near_tie_pairing(seed):
    """clustered_pairing with a twin of each database entry, 1e-6 of noise
    away and 1 km off the route, so a query's distances to an entry and
    its twin differ by less than the float32 screen's band."""
    q, db = clustered_pairing(seed, n_places=100)
    twin = db.descriptors + 1e-6 * np.random.default_rng(seed).normal(
        size=db.descriptors.shape)
    return q, DescriptorDatabase(
        np.concatenate([db.descriptors, twin]),
        np.concatenate([db.northing, db.northing + 1000.0]),
        np.concatenate([db.easting, db.easting]),
        np.concatenate([db.ids, db.ids + 500]))


def round_trip(*runs):
    """Each run saved and loaded again: float32 values, payload adopted."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{i}.db") for i in range(len(runs))]
        for path, run in zip(paths, runs):
            save_database(path, run)
        return tuple(load_database(path) for path in paths)


# TestBlockScreen's fixtures as (query run, database)
SCREEN_FIXTURES = {
    "clustered": lambda: clustered_pairing(0),
    "integer_ties": lambda: scaled_pairing(1, np.round, dim=4),
    "large_common_offset": lambda: scaled_pairing(
        2, lambda x: 1e4 + 1e-3 * x, n_places=100),
    "subnormal_squares": lambda: scaled_pairing(
        3, lambda x: 1e-160 * x, n_places=100),
    "overflowing_squares": lambda: scaled_pairing(
        4, lambda x: 1e160 * x, n_places=100),
    "float32_subnormals": lambda: scaled_pairing(
        9, lambda x: 1e-42 * x, n_places=100),
    "past_float32_limit": lambda: scaled_pairing(
        10, lambda x: 1e19 * x, n_places=100),
    "float32_round_trip": lambda: round_trip(
        *clustered_pairing(11, n_places=100)),
    "near_ties": lambda: near_tie_pairing(12),
}


class TestScreenedKnn:
    """knn's screen returns exactly the first k of _ranking."""

    @pytest.mark.parametrize("name", sorted(SCREEN_FIXTURES))
    def test_matches_ranking(self, name):
        q, db = SCREEN_FIXTURES[name]()
        with np.errstate(over="ignore"):
            for query in q.descriptors[:10]:
                order, d = evaluate._ranking(db, query)
                for k in (1, 5, 25, len(db)):
                    ids, dists = knn(db, query, k)
                    assert np.array_equal(ids, db.ids[order[:k]])
                    assert np.array_equal(dists, d[order[:k]], equal_nan=True)

    def test_at_most_2k_exact_rows(self, monkeypatch):
        q, db = clustered_pairing(8, n_places=2000)
        rows, distances = [], evaluate._distances

        def counting(descriptors, q):
            out = distances(descriptors, q)
            rows.append(len(out))
            return out

        monkeypatch.setattr(evaluate, "_distances", counting)
        for query in q.descriptors[:20]:
            knn(db, query, 25)
        assert len(rows) == 20 and max(rows) <= 2 * 25

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        db = make_db([0.0, 1.0, 3.0], [0, 0, 0], [10, 11, 12])
        with pytest.raises(ValueError, match="not finite"):
            knn(db, [bad], k=1)


class TestStoredNorms:
    """A database owns a read-only copy of its descriptors, so the squared
    norms computed once at construction cannot go stale."""

    def test_descriptors_and_norms_read_only(self, rng):
        db = make_db(rng.normal(size=(5, 3)), np.zeros(5), np.arange(5))
        with pytest.raises(ValueError, match="read-only"):
            db.descriptors[1, 2] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            db.sq_norms[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            db.descriptors32[0, 0] = 0.0

    def test_caller_writes_do_not_reach_database(self, rng):
        queries = make_db(rng.normal(size=(10, 8)), rng.uniform(0, 100, 10),
                          np.arange(100, 110))
        # float64, float32, and a read-only view of a writeable float32 array
        for dtype, view in ((np.float64, False), (np.float32, False),
                            (np.float32, True)):
            descs = rng.normal(size=(50, 8)).astype(dtype)
            given = descs.view() if view else descs
            if view:
                given.flags.writeable = False
            db = DescriptorDatabase(given, rng.uniform(0, 100, 50),
                                    np.zeros(50), np.arange(50))
            q = rng.normal(size=8)
            kept = (db.descriptors.copy(), db.descriptors32.copy(),
                    db.sq_norms.copy(), knn(db, q, 5),
                    recall_curve(queries, db, 50))
            descs[:] = q
            descs[7, 3] = np.nan
            assert np.array_equal(db.descriptors, kept[0])
            assert np.array_equal(db.descriptors32, kept[1])
            assert np.array_equal(db.sq_norms, kept[2])
            ids, dists = knn(db, q, 5)
            assert np.array_equal(ids, kept[3][0])
            assert np.array_equal(dists, kept[3][1])
            assert np.array_equal(recall_curve(queries, db, 50), kept[4])

    def test_loaded_payload_adopted_read_only(self, tmp_path, rng):
        path = str(tmp_path / "d.db")
        save_database(path, make_db(rng.normal(size=(6, 3)), np.zeros(6),
                                    np.arange(6)))
        db = load_database(path)
        rows = db.descriptors32
        assert rows.dtype == np.float32 and not rows.flags.writeable
        base = rows
        while isinstance(base, np.ndarray):
            base = base.base
        # a view of the file's bytes, not a second copy
        assert isinstance(base, bytes) and len(base) == os.path.getsize(path)
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0

    @pytest.mark.parametrize("name", sorted(SCREEN_FIXTURES))
    def test_norms_match_einsum(self, name):
        for db in SCREEN_FIXTURES[name]():
            assert np.array_equal(db.sq_norms, np.einsum(
                "ij,ij->i", db.descriptors, db.descriptors))

    def test_nan_squared_norm_not_bounded(self, rng):
        descs = rng.normal(size=(4, 3))
        q = rng.normal(size=(1, 3))
        sq_db = np.array([1.0, np.nan, 2.0, 3.0])
        assert evaluate._intervals(descs.astype(np.float32), sq_db, q,
                                   np.array([1.0])) is None

    def test_refusal_names_nan_row_after_overflowing_row(self):
        with pytest.raises(DatasetError, match="id 11 is NaN or infinite"):
            make_db([[1e200, 0.0], [np.nan, 1.0]], [0, 0], [10, 11])


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
        assert np.array_equal(back.descriptors, db.descriptors.astype(
            np.float32).astype(np.float64))
        assert np.array_equal(back.sq_norms, np.einsum(
            "ij,ij->i", back.descriptors, back.descriptors))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_descriptor_rejected(self, bad):
        with pytest.raises(DatasetError, match="id 11 is NaN or infinite"):
            make_db([[0.0, 1.0], [2.0, bad]], [0, 0], [10, 11])

    def test_non_finite_file_rejected(self, tmp_path):
        path = str(tmp_path / "d.db")
        save_database(path, make_db([[0.0, 1.0], [2.0, 3.0]], [0, 0], [10, 11]))
        with open(path, "r+b") as fh:
            fh.seek(-4, os.SEEK_END)
            fh.write(np.array(np.inf, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="id 11 is NaN or infinite") as exc:
            load_database(path)
        assert path in str(exc.value)

    def test_failed_publish_keeps_database(self, tmp_path, rng, monkeypatch):
        path = str(tmp_path / "d.db")
        save_database(path, make_db(rng.normal(size=(3, 2)), [0, 1, 2],
                                    [0, 1, 2]))
        before = load_database(path)

        def refuse(src, dst):
            raise PermissionError(dst)
        monkeypatch.setattr(evaluate.os, "replace", refuse)
        with pytest.raises(PermissionError):
            save_database(path, make_db(np.ones((5, 2)), np.zeros(5),
                                        np.arange(5)))
        monkeypatch.undo()
        assert_same_arrays(load_database(path), before)
        assert sorted(os.listdir(tmp_path)) == ["d.db", "d.db.geo.csv"]

    def test_directory_target_writes_nothing(self, tmp_path):
        path = tmp_path / "d.db"
        path.mkdir()
        with pytest.raises(IsADirectoryError):
            save_database(str(path), make_db([[0.0]], [0], [0]))
        assert [p.name for p in tmp_path.iterdir()] == ["d.db"]

    @pytest.mark.parametrize("value", [4e38, -1e300])
    def test_descriptor_past_float32_refused(self, tmp_path, value):
        db = make_db([[0.0, 1.0], [2.0, value]], [0, 0], [10, 11])
        with pytest.raises(ValueError, match="float32"):
            save_database(str(tmp_path / "d.db"), db)
        assert list(tmp_path.iterdir()) == []


def rewrite_sidecar(path, edit):
    """Replace the sidecar's rows (header first) with ``edit(rows)``."""
    with open(path + ".geo.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path + ".geo.csv", "w", newline="") as fh:
        fh.write("\n".join(",".join(row) for row in edit(rows)) + "\n")


def assert_same_arrays(got, want):
    for name in ("ids", "northing", "easting", "descriptors"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        # compare bits, so -0.0 differs from 0.0
        assert a.tobytes() == b.tobytes(), name


GEO = st.floats(allow_nan=False, allow_infinity=False)


class TestSidecarReader:
    @pytest.fixture
    def saved(self, tmp_path, rng):
        db = make_db(rng.normal(size=(5, 3)), rng.uniform(-1e4, 1e4, 5),
                     [7, -3, 12, 0, 2 ** 40], east=rng.uniform(-1e4, 1e4, 5))
        path = str(tmp_path / "d.db")
        save_database(path, db)
        return path, load_database(path)

    @given(rows=st.lists(st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1), GEO,
                                   GEO, st.floats(width=32, allow_nan=False,
                                                  allow_infinity=False)),
                         max_size=8, unique_by=lambda row: row[0]))
    @example(rows=[(-2 ** 63, -0.0, 5e-324, -0.0),
                   (2 ** 63 - 1, 1e308, -2.2250738585072014e-308,
                    1.401298464324817e-45),
                   (0, -1e308, 0.0, 3.4028234663852886e38)])
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_is_bit_exact(self, rows):
        ids, north, east, desc = (
            np.array([row[i] for row in rows], dtype)
            for i, dtype in enumerate((np.int64, float, float, float)))
        db = DescriptorDatabase(desc.reshape(-1, 1), north, east, ids)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.db")
            save_database(path, db)
            assert_same_arrays(load_database(path), db)

    def test_columns_found_by_name(self, saved):
        path, want = saved
        # header id,northing,easting becomes easting,note,id,northing
        rewrite_sidecar(path, lambda rows: [[r[2], "x" if i else "note",
                                             r[0], r[1]]
                                            for i, r in enumerate(rows)])
        assert_same_arrays(load_database(path), want)

    def test_quoted_values_accepted(self, saved):
        path, want = saved
        rewrite_sidecar(path, lambda rows: [[f'"{v}"' for v in r]
                                            for r in rows])
        assert_same_arrays(load_database(path), want)

    def test_empty_database_loads_without_warning(self, tmp_path):
        path = str(tmp_path / "d.db")
        save_database(path, DescriptorDatabase(np.zeros((0, 3)), [], [], []))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_database(path)
        assert len(back) == 0 and back.dim == 3

    def test_fields_are_contiguous_with_their_dtypes(self, saved):
        _, db = saved
        for name, dtype in (("ids", np.int64), ("northing", np.float64),
                            ("easting", np.float64)):
            array = getattr(db, name)
            assert array.dtype == dtype and array.flags.c_contiguous, name

    @pytest.mark.parametrize("damage,edit", [
        ("comment row", lambda rows: rows[:2] + [["#" + rows[2][0]]
                                                 + rows[2][1:]] + rows[3:]),
        ("comment line", lambda rows: rows + [["# a comment"]]),
        ("missing field", lambda rows: rows[:2] + [rows[2][:2]] + rows[3:]),
        ("float id", lambda rows: rows[:1] + [["1.0"] + rows[1][1:]]
         + rows[2:]),
        ("id past int64", lambda rows: rows[:1] + [[str(2 ** 63)]
                                                   + rows[1][1:]] + rows[2:]),
        ("no easting column", lambda rows: [["id", "northing", "east"]]
         + rows[1:]),
        ("count mismatch", lambda rows: rows[:-1]),
    ])
    def test_damaged_sidecar_refused(self, saved, damage, edit):
        path, _ = saved
        rewrite_sidecar(path, edit)
        with pytest.raises(FormatError, match=re.escape(path + ".geo.csv")):
            load_database(path)

    def test_truncated_payload_refused(self, saved):
        path, _ = saved
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 4)
        with pytest.raises(FormatError, match="truncated descriptor payload"):
            load_database(path)
