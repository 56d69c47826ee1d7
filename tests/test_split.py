"""Ops run as two halves on two threads give the bits of one range."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sparseloc
from sparseloc import (MinkLoc, ModelConfig, PointCloud, SparseTensor, Tape,
                       Var, build_kernel_map, compute_descriptor, gem_pool,
                       recall_curve, sparse_conv, sparse_transposed_conv)
from sparseloc import evaluate, layers
from conftest import TINY_CFG
from test_eval import clustered_pairing, ranked_first_hits, rescaled


SPLIT_WORK = layers._SPLIT_WORK


@pytest.fixture
def split_mode(monkeypatch):
    """``set(split)`` makes every op run as two concurrent halves (also on a
    one-CPU host) or as one range; ``splits()`` counts the two-half runs."""
    class CountingPool:
        def __init__(self):
            self.pool = ThreadPoolExecutor(max_workers=1)
            self.count = 0

        def submit(self, *args):
            self.count += 1
            return self.pool.submit(*args)

    pool = CountingPool()
    monkeypatch.setattr(layers, "_pool", pool)
    monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: {0, 1})

    class Mode:
        @staticmethod
        def set(split: bool):
            monkeypatch.setattr(layers, "_SPLIT_WORK", 0 if split else np.inf)

        @staticmethod
        def splits():
            return pool.count

    yield Mode
    pool.pool.shutdown()


def split_and_whole(split_mode, run):
    """``run()``'s arrays with every op in two halves and in one range."""
    split_mode.set(False)
    whole = run()
    assert split_mode.splits() == 0
    split_mode.set(True)
    split = run()
    assert split_mode.splits() > 0
    return split, whole


def assert_same_bits(split, whole):
    assert len(split) == len(whole)
    for a, b in zip(split, whole):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def sparse_coords(rng, n, side, batch=1):
    cells = rng.choice(side ** 3, size=n, replace=False)
    xyz = np.column_stack(np.unravel_index(cells, (side,) * 3))
    return np.column_stack([rng.integers(0, batch, n), xyz])


def conv_run(coords, feats, w, g, kernel_size, stride=1):
    def run():
        x = SparseTensor(coords, feats.copy())
        wv = Var(w.copy())
        tape = Tape()
        y = sparse_conv(x, wv, kernel_size, stride, tape)
        tape.backward(y.fvar, g(len(y.features)))
        return [y.features, x.fvar.grad, wv.grad]
    return run


def seeded(c, seed=5):
    return lambda n: np.random.default_rng(seed).normal(size=(n, c))


class TestConvHalves:
    @pytest.mark.parametrize("kernel_size,stride,c_in,c_out", [
        (1, 1, 3, 4), (3, 1, 3, 4), (5, 1, 1, 4), (2, 2, 3, 5)])
    def test_key_ordered(self, split_mode, kernel_size, stride, c_in, c_out):
        rng = np.random.default_rng(kernel_size)
        coords = sparse_coords(rng, 150, 8, batch=2)
        coords = coords[np.lexsort(coords.T[::-1])]
        feats = rng.normal(size=(len(coords), c_in))
        w = rng.normal(size=(kernel_size ** 3, c_in, c_out))
        run = conv_run(coords, feats, w, seeded(c_out), kernel_size, stride)
        assert_same_bits(*split_and_whole(split_mode, run))

    def test_unordered_coordinates(self, split_mode):
        rng = np.random.default_rng(3)
        coords = sparse_coords(rng, 150, 7, batch=2)
        feats = rng.normal(size=(len(coords), 3))
        x = SparseTensor(coords, feats)
        # mirrored offsets of unordered voxels do not ascend: each half
        # scatters into output rows in whatever order its offsets hold them
        kmap = build_kernel_map(x, x.coords, 3)
        b = kmap.bounds
        assert any(np.any(np.diff(kmap.rows_out[b[k]:b[k + 1]]) < 0)
                   for k in range(27))
        w = rng.normal(size=(27, 3, 4))
        run = conv_run(coords, feats, w, seeded(4), 3)
        assert_same_bits(*split_and_whole(split_mode, run))

    def test_lone_rows_of_a_segment(self, split_mode):
        # two pairs of neighbours: only the two x offsets have pairs, two
        # rows each, and the cut puts the centre alone in the first half
        coords = np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 5, 5, 5],
                           [0, 6, 5, 5]])
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(4, 8))
        w = rng.normal(size=(27, 8, 16))
        run = conv_run(coords, feats, w, seeded(16), 3)
        assert_same_bits(*split_and_whole(split_mode, run))

    @pytest.mark.parametrize("coords,kernel_size,stride", [
        # every voxel even: the strided map's only segment is offset 0
        ([[0, 0, 0, 0], [0, 2, 0, 0], [0, 2, 4, 6], [1, 0, 2, 2]], 2, 2),
        # isolated voxels: only the centre has pairs, the second half none
        ([[0, 0, 0, 0], [0, 3, 0, 0], [0, 3, 3, 3], [1, 0, 0, 0]], 3, 1)])
    def test_one_segment(self, split_mode, coords, kernel_size, stride):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(4, 5))
        w = rng.normal(size=(kernel_size ** 3, 5, 6))
        run = conv_run(np.array(coords), feats, w, seeded(6), kernel_size,
                       stride)
        assert_same_bits(*split_and_whole(split_mode, run))


@pytest.mark.parametrize("kernel_size,stride,c,split", [
    (3, 1, 16, False), (3, 1, 64, True), (2, 2, 32, False), (2, 2, 160, True)])
def test_backward_splits_when_forward_does(split_mode, kernel_size, stride, c,
                                           split):
    # one rule, at the default bound: the backward's pass over the kernel
    # map cuts and splits as its forward does
    rng = np.random.default_rng(c)
    coords = sparse_coords(rng, 1000, 14)
    x = SparseTensor(coords, rng.normal(size=(len(coords), c)))
    tape = Tape()
    y = sparse_conv(x, Var(rng.normal(size=(kernel_size ** 3, c, c))),
                    kernel_size, stride, tape)
    forward = split_mode.splits()
    tape.backward(y.fvar, seeded(c)(len(y.features)))
    assert forward == split_mode.splits() - forward == int(split)


@pytest.mark.parametrize("cpus,split", [(2, True), (None, False)])
def test_cpu_count_without_affinity(split_mode, monkeypatch, cpus, split):
    # macOS and Windows have no sched_getaffinity: the machine's count
    # decides, and an unknown count is one CPU
    monkeypatch.delattr(layers.os, "sched_getaffinity")
    monkeypatch.setattr(layers.os, "cpu_count", lambda: cpus)
    rng = np.random.default_rng(2)
    coords = sparse_coords(rng, 150, 8, batch=2)
    feats = rng.normal(size=(len(coords), 3))
    w = rng.normal(size=(27, 3, 4))
    run = conv_run(coords, feats, w, seeded(4), 3)
    split_mode.set(False)
    whole = run()
    split_mode.set(True)
    assert_same_bits(run(), whole)
    assert (split_mode.splits() > 0) == split


def test_descriptor_bits_do_not_depend_on_cpus(split_mode, monkeypatch):
    # on two CPUs the default rule splits this cloud's stride-8 convs,
    # among other ops; on one it splits none
    model = MinkLoc(ModelConfig(), seed=0)
    cloud = PointCloud(np.random.default_rng(8).uniform(-1, 1, (2048, 3)))
    split_mode.set(True)
    forced = compute_descriptor(cloud, model).values
    monkeypatch.setattr(layers, "_SPLIT_WORK", SPLIT_WORK)
    splits = split_mode.splits()
    two = compute_descriptor(cloud, model).values
    assert split_mode.splits() > splits
    splits = split_mode.splits()
    monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: {0})
    one = compute_descriptor(cloud, model).values
    assert split_mode.splits() == splits
    assert np.array_equal(forced, two) and np.array_equal(two, one)


class TestTransposedConvHalves:
    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_split_equals_whole(self, split_mode, n):
        rng = np.random.default_rng(n)
        coords = sparse_coords(rng, n, 5) * 2
        feats = rng.normal(size=(n, 6))
        w = rng.normal(size=(8, 6, 7))

        def run():
            x = SparseTensor(coords, feats.copy(), stride=2)
            wv = Var(w.copy())
            tape = Tape()
            y = sparse_transposed_conv(x, wv, 2, 2, tape)
            tape.backward(y.fvar, seeded(7)(len(y.features)))
            return [y.features, x.fvar.grad, wv.grad]

        assert_same_bits(*split_and_whole(split_mode, run))


@pytest.mark.parametrize("n,splits", [(1, 0), (2, 0), (3, 0), (4, 1), (5, 1)])
@pytest.mark.parametrize("n_off", [1, 8])
def test_dense_rows_below_four_run_whole(split_mode, n, splits, n_off):
    # a cut of fewer than four rows could leave a one-row half, which numpy
    # hands to gemv: the untaped 1x1 and transposed convs run those whole
    rng = np.random.default_rng(n)
    x = SparseTensor(sparse_coords(rng, n, 5) * 2, rng.normal(size=(n, 6)),
                     stride=2)
    w = rng.normal(size=(n_off, 6, 7))
    split_mode.set(True)
    if n_off == 1:
        y = sparse_conv(x, Var(w), 1, 1, None).features
    else:
        y = sparse_transposed_conv(x, Var(w), 2, 2, None).features
    assert split_mode.splits() == splits
    whole = x.features @ w.transpose(1, 0, 2).reshape(6, n_off * 7)
    assert np.array_equal(y, whole.reshape(-1, 7))


class TestGemHalves:
    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("reuse_map", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 1e60])
    def test_items_out_of_order(self, split_mode, taped, reuse_map, scale):
        # three items of 700, 40 and 300 rows, interleaved: several blocks
        # each, and rows not in item order; 1e60 takes the per-item max
        rng = np.random.default_rng(2)
        batch = rng.permutation(np.repeat([0, 1, 2], [700, 40, 300]))
        coords = np.column_stack([batch, np.arange(len(batch)),
                                  np.zeros((len(batch), 2), dtype=int)])
        feats = np.abs(rng.normal(size=(len(batch), 5))) * scale
        run = gem_run(coords, feats, taped, reuse_map)
        assert_same_bits(*split_and_whole(split_mode, run))

    @pytest.mark.parametrize("taped", [False, True])
    def test_reused_map_in_item_order(self, split_mode, taped):
        rng = np.random.default_rng(4)
        batch = np.repeat([0, 1], [600, 300])
        coords = np.column_stack([batch, np.arange(900),
                                  np.zeros((900, 2), dtype=int)])
        feats = np.abs(rng.normal(size=(900, 5)))
        run = gem_run(coords, feats, taped, reuse_map=True)
        assert_same_bits(*split_and_whole(split_mode, run))


def gem_run(coords, feats, taped, reuse_map):
    def run():
        fmap = SparseTensor(coords, feats.copy())
        p = Var(np.asarray(3.3))
        tape = Tape() if taped else None
        y, _ = gem_pool(fmap, p, tape, reuse_map=reuse_map)
        if not taped:
            return [y.value, fmap.features]
        tape.backward(y, seeded(y.value.shape[1])(len(y.value)))
        return [y.value, fmap.fvar.grad, p.grad]
    return run


class TestRecallHalves:
    """The recall screen's two halves of the queries give the same ranks."""

    @staticmethod
    def assert_split_equals_whole(split_mode, q, db):
        def run():
            return [evaluate._first_hits(q, db, 25.0),
                    recall_curve(q, db, len(db))]

        split_mode.set(False)
        whole = run()
        split_mode.set(True)
        split = run()
        # one _first_hits per run(); a single query is never halved
        assert split_mode.splits() == (2 if len(q) > 1 else 0)
        assert_same_bits(split, whole)
        assert np.array_equal(split[0], ranked_first_hits(q, db))
        return split[0]

    @pytest.mark.parametrize("n_q", [1, 2, 65, 129, 400])
    def test_split_equals_whole(self, split_mode, n_q):
        q, db = clustered_pairing(9, n_places=400, n_queries=n_q)
        self.assert_split_equals_whole(split_mode, q, db)

    def test_query_without_hit(self, split_mode):
        q, db = clustered_pairing(7, n_places=130)
        q.northing[[3, 100]] = 1e6        # one in each half
        first = self.assert_split_equals_whole(split_mode, q, db)
        assert first[3] == first[100] == len(db)

    def test_overflowing_squares(self, split_mode):
        # the screen cannot bound these: each block falls back to _ranking,
        # whose squares overflow in both halves, silently as the caller asks
        q, db = clustered_pairing(4, n_places=100)
        q, db = (rescaled(x, lambda d: 1e160 * d) for x in (q, db))
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(db.sq_norms).all()
            self.assert_split_equals_whole(split_mode, q, db)

    @pytest.mark.parametrize("n_q", [2, 65, 129, 200])
    def test_every_query_screened_once(self, split_mode, monkeypatch, n_q):
        q, db = clustered_pairing(6, n_places=200, n_queries=n_q)
        seen, screen = [], evaluate._screen_block

        def counting(db, desc, north, *rest):
            seen.append(north.copy())
            return screen(db, desc, north, *rest)

        monkeypatch.setattr(evaluate, "_screen_block", counting)
        split_mode.set(True)
        evaluate._first_hits(q, db, 25.0)
        assert split_mode.splits() == 1
        assert all(0 < len(north) <= evaluate._BLOCK for north in seen)
        # the northings are distinct, so they name the queries
        assert np.array_equal(np.sort(np.concatenate(seen)),
                              np.sort(q.northing))

    @pytest.mark.parametrize("n_q", [3, 129, 257, 400])
    def test_even_blocks_in_each_half(self, split_mode, monkeypatch, n_q):
        q, db = clustered_pairing(6, n_places=n_q, n_queries=n_q)
        blocks, screen = [], evaluate._screen_block

        def counting(db, desc, north, *rest):
            blocks.append(np.searchsorted(q.northing, north))
            return screen(db, desc, north, *rest)

        monkeypatch.setattr(evaluate, "_screen_block", counting)
        split_mode.set(True)
        evaluate._first_hits(q, db, 25.0)
        assert split_mode.splits() == 1
        for lo, hi in [(0, n_q // 2), (n_q // 2, n_q)]:
            sizes = [len(b) for b in blocks if lo <= b[0] < hi]
            # each block is a run of one half's queries
            assert all(b[-1] < hi and np.array_equal(b, np.arange(b[0], b[-1] + 1))
                       for b in blocks if lo <= b[0] < hi)
            assert sum(sizes) == hi - lo
            assert len(sizes) == -(-(hi - lo) // evaluate._BLOCK)
            assert max(sizes) - min(sizes) <= 1

    def test_small_pairing_runs_whole(self, split_mode):
        # Q = N = 100 at 256 dimensions: one block of a half is below the
        # split bound, as the benchmark's 20-place canary is
        q, db = clustered_pairing(5, n_places=100)
        assert db.dim == 256
        evaluate._first_hits(q, db, 25.0)
        assert split_mode.splits() == 0


class TestPool:
    def test_worker_error_reaches_caller(self, split_mode):
        split_mode.set(True)
        done = []

        def fn(lo, hi):
            if lo > 0:
                raise RuntimeError("worker half")
            done.append((lo, hi))

        with pytest.raises(RuntimeError, match="worker half"):
            layers._split(fn, 10, 1.0)
        assert done == [(0, 5)]
        # the pool still runs both halves afterwards
        layers._split(lambda lo, hi: done.append((lo, hi)), 10, 1.0)
        assert sorted(done[1:]) == [(0, 5), (5, 10)]

    def test_caller_error_waits_for_worker(self, split_mode):
        split_mode.set(True)
        done = []

        def fn(lo, hi):
            if lo == 0:
                raise ValueError("caller half")
            time.sleep(0.2)
            done.append((lo, hi))

        with pytest.raises(ValueError, match="caller half"):
            layers._split(fn, 10, 1.0)
        assert done == [(5, 10)]

    @pytest.mark.parametrize("worker", [False, True])
    def test_halves_keep_the_callers_error_state(self, split_mode, worker):
        # numpy's error state is per thread: the worker's half must take the
        # caller's, whichever half overflows
        split_mode.set(True)
        big = np.full(10, 1e300)

        def fn(lo, hi):
            if (lo > 0) == worker:
                np.multiply(big[lo:hi], big[lo:hi])

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            layers._split(fn, 10, 1.0)
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            layers._split(fn, 10, 1.0)
        assert split_mode.splits() == 2

    def test_callers_on_many_threads_share_the_pool(self, split_mode):
        rng = np.random.default_rng(6)
        coords = sparse_coords(rng, 150, 8, batch=2)
        feats = rng.normal(size=(len(coords), 3))
        w = rng.normal(size=(27, 3, 4))
        run = conv_run(coords, feats, w, seeded(4), 3)
        split_mode.set(False)
        want = run()
        split_mode.set(True)
        results, errors = [], []

        def caller():
            try:
                for _ in range(5):
                    results.append(run())
            except Exception as exc:  # reported below, not lost in a thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(results) == 20
        for got in results:
            assert_same_bits(got, want)

    def test_forked_child_embeds_with_its_own_pool(self, split_mode):
        split_mode.set(True)
        model = MinkLoc(ModelConfig(**TINY_CFG), seed=0)
        cloud = PointCloud(np.random.default_rng(0).uniform(-1, 1, (300, 3)))
        want = compute_descriptor(cloud, model).values
        assert layers._pool is not None
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_embed_into, args=(queue, cloud, model))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        assert np.array_equal(got, want)


def _embed_into(queue, cloud, model):
    queue.put(compute_descriptor(cloud, model).values)


def test_imports_without_fork_hooks():
    # Windows has no os.register_at_fork
    src = os.path.dirname(os.path.dirname(sparseloc.__file__))
    subprocess.run(
        [sys.executable, "-c",
         "import os; del os.register_at_fork; import sparseloc"],
        env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)


def test_import_starts_no_thread():
    src = os.path.dirname(os.path.dirname(sparseloc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, threading, sparseloc; print(threading.active_count(), "
         "'concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["1", "False"]
