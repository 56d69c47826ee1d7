"""Mining, loss, augmentation, optimizer, and the training loop."""

import importlib
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloc import (Adam, AugmentConfig, Dataset, MinkLoc, ModelConfig,
                       PointCloud, PointCloudRecord, SimilarityMasks,
                       TrainingConfig, Var, augment, batch_hard_mine,
                       build_tuples, compute_masks, dynamic_batch_expand,
                       load_checkpoint, mined_triplet_loss, partition_epoch,
                       train, triplet_margin_loss)
from sparseloc.autodiff import Tape
from sparseloc.data import TrainingTuple
from sparseloc.errors import FormatError, NumericError, ShapeError
from sparseloc.model import checkpoint_config
from sparseloc.train import lr_for_epoch, pairwise_distances
from conftest import TINY_CFG


class TestTripletLoss:
    def test_satisfied_triplet_is_zero(self):
        # d(a,p)=0.5, d(a,n)=0.9, margin 0.2
        a = np.zeros(2)
        p = np.array([0.5, 0.0])
        n = np.array([0.9, 0.0])
        assert triplet_margin_loss(a, p, n, margin=0.2) == 0.0

    def test_violated_triplet_arithmetic(self):
        a = np.zeros(2)
        p = np.array([0.9, 0.0])
        n = np.array([0.5, 0.0])
        assert abs(triplet_margin_loss(a, p, n, 0.2) - 0.6) < 1e-12

    def test_zero_positive_distance(self):
        a = np.array([1.0, 2.0])
        n = np.array([1.0, 2.5])
        expect = max(0.2 - 0.5, 0.0)
        assert triplet_margin_loss(a, a, n, 0.2) == expect

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            triplet_margin_loss(np.zeros(2), np.zeros(3), np.zeros(2), 0.2)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_never_negative(self, seed):
        rng = np.random.default_rng(seed)
        a, p, n = rng.normal(size=(3, 4))
        assert triplet_margin_loss(a, p, n, rng.uniform(0, 1)) >= 0.0


class TestMasks:
    def _records(self, xs):
        return [PointCloudRecord(id=i, path="", northing=x, easting=0.0)
                for i, x in enumerate(xs)]

    def test_distance_rules(self):
        # 5 m apart: positive; 60 m: negative; 30 m: indefinite
        tuples = build_tuples(self._records([0.0, 5.0, 60.0, 30.0]))
        masks = compute_masks([0, 1, 2, 3], tuples)
        assert masks.positive[0, 1] and not masks.negative[0, 1]
        assert masks.negative[0, 2] and not masks.positive[0, 2]
        assert not masks.positive[0, 3] and not masks.negative[0, 3]

    def test_mask_properties(self):
        rng = np.random.default_rng(0)
        tuples = build_tuples(self._records(rng.uniform(0, 200, size=12)))
        masks = compute_masks(list(range(12)), tuples)
        assert not np.any(masks.positive & masks.negative)
        assert np.array_equal(masks.positive, masks.positive.T)
        assert not np.any(np.diag(masks.positive))
        assert not np.any(np.diag(masks.negative))


    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_loop(self, seed):
        # random sets, some naming ids that are not in the batch at all; odd
        # seeds repeat ids within the batch
        rng = np.random.default_rng(seed)
        universe = rng.permutation(200)[:int(rng.integers(2, 40))]
        tuples = {}
        for rid in universe.tolist():
            pos = rng.choice(300, size=int(rng.integers(0, 10)), replace=False)
            extra = rng.choice(300, size=int(rng.integers(0, 10)), replace=False)
            tuples[rid] = TrainingTuple(rid, set(pos.tolist()),
                                        set(pos.tolist()) | set(extra.tolist()))
        batch = rng.choice(universe, size=int(rng.integers(1, len(universe) + 1)),
                           replace=bool(seed % 2)).tolist()
        n = len(batch)
        pos = np.zeros((n, n), dtype=bool)
        neg = np.zeros((n, n), dtype=bool)
        for i, a in enumerate(batch):
            for j, b in enumerate(batch):
                if i != j:
                    pos[i, j] = b in tuples[a].positives
                    neg[i, j] = b not in tuples[a].non_negatives and b != a
        masks = compute_masks(batch, tuples)
        assert np.array_equal(masks.positive, pos)
        assert np.array_equal(masks.negative, neg)


class TestMining:
    def test_hardest_positive_is_farthest(self):
        emb = np.array([[0.0], [0.2], [0.7], [5.0]])
        pos = np.zeros((4, 4), dtype=bool)
        neg = np.zeros((4, 4), dtype=bool)
        pos[0, 1] = pos[0, 2] = True
        neg[0, 3] = True
        triplets = batch_hard_mine(emb, SimilarityMasks(pos, neg))
        assert triplets == [(0, 2, 3)]

    def test_hardest_negative_is_nearest(self):
        emb = np.array([[0.0], [0.1], [0.4], [1.1]])
        pos = np.zeros((4, 4), dtype=bool)
        neg = np.zeros((4, 4), dtype=bool)
        pos[0, 1] = True
        neg[0, 2] = neg[0, 3] = True
        triplets = batch_hard_mine(emb, SimilarityMasks(pos, neg))
        assert triplets == [(0, 1, 2)]

    def test_anchor_without_pair_skipped(self):
        emb = np.zeros((3, 2))
        pos = np.zeros((3, 3), dtype=bool)
        neg = np.zeros((3, 3), dtype=bool)
        pos[0, 1] = True  # anchor 0 has no negative; 2 has nothing
        assert batch_hard_mine(emb, SimilarityMasks(pos, neg)) == []

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        emb = rng.normal(size=(n, 4))
        pos = rng.random((n, n)) < 0.4
        pos = np.triu(pos, 1)
        pos = pos | pos.T
        neg = (rng.random((n, n)) < 0.4) & ~pos & ~np.eye(n, dtype=bool)
        dist = np.array([[np.linalg.norm(emb[i] - emb[j]) for j in range(n)]
                         for i in range(n)])
        expect = []
        for i in range(n):
            ps = [j for j in range(n) if pos[i, j]]
            ns = [j for j in range(n) if neg[i, j]]
            if not ps or not ns:
                continue
            hp = max(ps, key=lambda j: (dist[i, j], -j))
            hn = min(ns, key=lambda j: (dist[i, j], j))
            expect.append((i, hp, hn))
        got = batch_hard_mine(emb, SimilarityMasks(pos, neg))
        assert got == expect

    def test_pairwise_distances_oracle(self):
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(10, 5))
        d = pairwise_distances(emb)
        for i in range(10):
            for j in range(10):
                assert abs(d[i, j] - np.linalg.norm(emb[i] - emb[j])) < 1e-7


class TestMinedLoss:
    def test_mean_over_active_only(self):
        emb = Var(np.array([[0.0], [0.9], [0.5],    # violation 0.6
                            [0.0], [0.1], [5.0]]))  # satisfied
        triplets = [(0, 1, 2), (3, 4, 5)]
        loss, active = mined_triplet_loss(None, emb, triplets, margin=0.2)
        assert active == 1
        assert abs(float(loss.value) - 0.6) < 1e-12

    def test_no_active_triplets_zero_loss(self):
        emb = Var(np.array([[0.0], [0.1], [5.0]]))
        loss, active = mined_triplet_loss(None, emb, [(0, 1, 2)], margin=0.2)
        assert active == 0 and float(loss.value) == 0.0

    def test_gradient_descends_loss(self):
        rng = np.random.default_rng(0)
        emb = Var(rng.normal(size=(4, 3)))
        triplets = [(0, 1, 2), (1, 0, 3)]
        tape = Tape()
        loss, active = mined_triplet_loss(tape, emb, triplets, margin=5.0)
        assert active == 2
        emb.zero_grad()
        tape.backward(loss)
        stepped = Var(emb.value - 1e-3 * emb.grad)
        loss2, _ = mined_triplet_loss(None, stepped, triplets, margin=5.0)
        assert float(loss2.value) < float(loss.value)


def reference_triplet_loss(emb, triplets, margin):
    """Per-triplet loop: mean hinge over active triplets and its gradient."""
    eps = 1e-12
    total, active, ge = 0.0, 0, np.zeros_like(emb)
    records = []
    for a, p, n in triplets:
        dap = np.linalg.norm(emb[a] - emb[p])
        dan = np.linalg.norm(emb[a] - emb[n])
        if dap - dan + margin > 0.0:
            total += dap - dan + margin
            active += 1
            records.append((a, p, n, dap, dan))
    for a, p, n, dap, dan in records:
        uap = (emb[a] - emb[p]) / max(dap, eps)
        uan = (emb[a] - emb[n]) / max(dan, eps)
        ge[a] += (uap - uan) / active
        ge[p] -= uap / active
        ge[n] += uan / active
    return (total / active if active else 0.0), active, ge


class TestMinedLossOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_value_and_gradient_match_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        emb = rng.normal(size=(n, 4))
        # indices repeat across triplets, so gradients accumulate per row
        triplets = [tuple(rng.choice(n, size=3, replace=False).tolist())
                    for _ in range(int(rng.integers(1, 3 * n)))]
        margin = float(rng.uniform(0.0, 1.5))
        want, want_active, want_grad = reference_triplet_loss(emb, triplets,
                                                              margin)
        var = Var(emb.copy())
        tape = Tape()
        loss, active = mined_triplet_loss(tape, var, triplets, margin)
        assert active == want_active
        assert abs(float(loss.value) - want) <= 1e-12
        if active:
            tape.backward(loss)
            assert np.max(np.abs(var.grad - want_grad)) <= 1e-12


class TestPartition:
    def _tuples(self, n_places, n_revisits):
        recs = [PointCloudRecord(id=p * n_revisits + r, path="",
                                 northing=60.0 * p, easting=0.0)
                for p in range(n_places) for r in range(n_revisits)]
        return build_tuples(recs)

    def test_two_mutual_positives(self):
        tuples = self._tuples(2, 2)
        rng = np.random.default_rng(0)
        batches = partition_epoch(tuples, 4, rng)
        flat = [i for b in batches for i in b]
        assert len(flat) == len(set(flat))

    def test_no_record_repeats_within_epoch(self):
        tuples = self._tuples(5, 4)
        rng = np.random.default_rng(1)
        batches = partition_epoch(tuples, 8, rng)
        flat = [i for b in batches for i in b]
        assert len(flat) == len(set(flat))
        for batch in batches:
            assert len(batch) % 2 == 0
            for a, b in zip(batch[::2], batch[1::2]):
                assert b in tuples[a].positives

    def test_odd_batch_size_rejected(self):
        with pytest.raises(ValueError):
            partition_epoch(self._tuples(2, 2), 3, np.random.default_rng(0))

    def test_record_without_positive_never_seeded(self):
        recs = [PointCloudRecord(id=0, path="", northing=0.0, easting=0.0),
                PointCloudRecord(id=1, path="", northing=5.0, easting=0.0),
                PointCloudRecord(id=2, path="", northing=500.0, easting=0.0)]
        tuples = build_tuples(recs)
        for seed in range(10):
            batches = partition_epoch(tuples, 2, np.random.default_rng(seed))
            assert all(2 not in b for b in batches)


class TestBatchExpansion:
    def test_table_values(self):
        cfg = TrainingConfig()
        assert dynamic_batch_expand(0.5, 32, cfg) == 44
        assert dynamic_batch_expand(0.9, 32, cfg) == 32
        assert dynamic_batch_expand(0.1, 200, cfg) == 256

    def test_persistent_subthreshold_trajectory(self):
        cfg = TrainingConfig()
        sizes = [32]
        for _ in range(7):
            sizes.append(dynamic_batch_expand(0.1, sizes[-1], cfg))
        assert sizes == [32, 44, 61, 85, 119, 166, 232, 256]

    def test_monotone_and_capped(self):
        cfg = TrainingConfig()
        rng = np.random.default_rng(0)
        size = cfg.initial_batch
        for _ in range(50):
            new = dynamic_batch_expand(float(rng.random()), size, cfg)
            assert new >= size and new <= cfg.batch_limit
            size = new

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            dynamic_batch_expand(1.5, 32, TrainingConfig())


class TestAugment:
    def test_all_zero_config_is_identity(self, rng):
        cfg = AugmentConfig(jitter_sigma=0.0, translation_max=0.0,
                            removal_max_fraction=0.0, erase_min_fraction=0.0,
                            erase_max_fraction=0.0)
        pts = rng.uniform(-1, 1, size=(100, 3))
        out = augment(PointCloud(pts), cfg, rng)
        assert np.array_equal(out.points, pts)

    def test_removal_upper_bound(self, rng):
        cfg = AugmentConfig(jitter_sigma=0.0, translation_max=0.0,
                            removal_max_fraction=0.10, erase_max_fraction=0.0)
        pts = rng.uniform(-1, 1, size=(4096, 3))
        for _ in range(5):
            out = augment(PointCloud(pts), cfg, rng)
            assert len(out.points) >= 3686

    def test_deterministic_under_seed(self):
        pts = np.random.default_rng(0).uniform(-1, 1, size=(500, 3))
        a = augment(PointCloud(pts), AugmentConfig(), np.random.default_rng(7))
        b = augment(PointCloud(pts), AugmentConfig(), np.random.default_rng(7))
        assert np.array_equal(a.points, b.points)

    def test_never_empties_and_stays_finite(self, rng):
        cfg = AugmentConfig(erase_min_fraction=0.9, erase_max_fraction=0.99)
        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(int(rng.integers(2, 50)), 3))
            out = augment(PointCloud(pts), cfg, rng)
            assert len(out.points) >= 1
            assert np.all(np.isfinite(out.points))


class TestOptimizer:
    def test_zero_gradient_no_motion(self):
        w = Var(np.array([1.0, -2.0]))
        opt = Adam({"w": w}, weight_decay=0.0)
        w.grad = np.zeros(2)
        opt.step(0.1)
        assert np.array_equal(w.value, [1.0, -2.0])

    def test_constant_gradient_closed_form(self):
        # with g identically 1, bias-corrected moments are exactly 1 at every
        # step, so each update moves by lr / (1 + eps)
        w = Var(np.asarray(1.0))
        opt = Adam({"w": w}, weight_decay=0.0)
        for _ in range(5):
            w.grad = np.asarray(1.0)
            opt.step(0.1)
        expect = 1.0 - 5 * 0.1 / (1.0 + 1e-8)
        assert abs(float(w.value) - expect) < 1e-12

    def test_steps_match_the_written_expressions(self):
        # the moments update in place; three steps give the bits of the
        # expressions as written, the gradient is left as it was given
        rng = np.random.default_rng(0)
        shapes = {"w": (7, 5), "b": (5,), "s": ()}
        params = {k: Var(rng.normal(size=s)) for k, s in shapes.items()}
        value = {k: p.value.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        opt = Adam(params, weight_decay=1e-2)
        b1, b2, eps, wd = 0.9, 0.999, 1e-8, 1e-2
        for t, lr in enumerate([1e-3, 1e-3, 1e-4], start=1):
            for k, p in params.items():
                p.grad = rng.normal(size=shapes[k])
            given = {k: p.grad.copy() for k, p in params.items()}
            opt.step(lr)
            for k, p in params.items():
                g = given[k] + wd * value[k]
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                mhat = m[k] / (1 - b1 ** t)
                vhat = v[k] / (1 - b2 ** t)
                value[k] = value[k] - lr * mhat / (np.sqrt(vhat) + eps)
                assert np.array_equal(p.grad, given[k])
                assert np.array_equal(opt.m[k], m[k])
                assert np.array_equal(opt.v[k], v[k])
                assert np.array_equal(p.value, value[k])

    def test_lr_schedule(self):
        cfg = TrainingConfig()  # lr 1e-3, step at epoch 30
        assert lr_for_epoch(cfg, 0) == 1e-3
        assert lr_for_epoch(cfg, 29) == 1e-3
        assert lr_for_epoch(cfg, 30) == 1e-4
        assert lr_for_epoch(cfg, 39) == 1e-4

    def test_weight_decay_pulls_toward_zero(self):
        w = Var(np.asarray(10.0))
        opt = Adam({"w": w}, weight_decay=1e-2)
        w.grad = np.asarray(0.0)
        opt.step(0.1)
        assert 0.0 < float(w.value) < 10.0

    def test_non_finite_gradient_aborts(self):
        w = Var(np.asarray(1.0))
        opt = Adam({"w": w})
        w.grad = np.asarray(np.nan)
        with pytest.raises(NumericError):
            opt.step(0.1)


class TestTrainLoop:
    def _setup(self, synth_root):
        ds = Dataset.from_index(os.path.join(synth_root, "index.csv"))
        model = MinkLoc(ModelConfig(**TINY_CFG), seed=0)
        cfg = TrainingConfig(initial_batch=4, batch_limit=8, epochs=2,
                             lr_step_epoch=1)
        return ds, model, cfg

    def test_epoch0_loss_deterministic(self, synth_root):
        losses = []
        for _ in range(2):
            ds, model, cfg = self._setup(synth_root)
            hist = train(ds, model, cfg, seed=7)
            losses.append(hist[0].mean_loss)
        assert losses[0] == losses[1]

    def test_loss_non_negative_with_zero_margin(self, synth_root):
        ds, model, cfg = self._setup(synth_root)
        cfg.margin = 0.0
        hist = train(ds, model, cfg, seed=0)
        assert all(h.mean_loss >= 0.0 for h in hist)

    def test_writes_metrics_and_checkpoints(self, synth_root, tmp_path):
        ds, model, cfg = self._setup(synth_root)
        out = str(tmp_path / "run")
        hist = train(ds, model, cfg, seed=0, out_dir=out)
        assert len(hist) == cfg.epochs
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        # each checkpoint records the whole network, its step included
        assert model.cfg.quantization_step != ModelConfig().quantization_step
        for e in range(cfg.epochs):
            state = load_checkpoint(os.path.join(out, f"epoch_{e + 1}.ckpt"))
            assert checkpoint_config(state) == model.cfg
        with open(os.path.join(out, "metrics.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "epoch,batch_size,mean_loss,active_ratio,lr"
        assert len(lines) == 1 + cfg.epochs

    def test_rerun_starts_metrics_fresh(self, synth_root, tmp_path):
        out = str(tmp_path / "run")
        for _ in range(2):
            ds, model, cfg = self._setup(synth_root)
            train(ds, model, cfg, seed=0, out_dir=out)
        with open(os.path.join(out, "metrics.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 1 + cfg.epochs

    def test_failed_rerun_keeps_metrics(self, synth_root, tmp_path):
        # a rerun whose first epoch fails leaves the last run's metrics.csv
        # beside its checkpoints, not a header-only file
        root = str(tmp_path / "data")
        shutil.copytree(synth_root, root)
        out = str(tmp_path / "run")
        ds, model, cfg = self._setup(root)
        train(ds, model, cfg, seed=0, out_dir=out)
        with open(os.path.join(out, "metrics.csv"), "rb") as fh:
            before = fh.read()
        # train draws its first partition from default_rng(seed)
        first = partition_epoch(ds.tuples, cfg.initial_batch,
                                np.random.default_rng(0))[0][0]
        os.truncate(os.path.join(root, ds.records[first].path), 23)
        ds, model, cfg = self._setup(root)
        with pytest.raises(FormatError):
            train(ds, model, cfg, seed=0, out_dir=out)
        with open(os.path.join(out, "metrics.csv"), "rb") as fh:
            assert fh.read() == before
        assert not [name for name in os.listdir(out) if name.endswith(".tmp")]

    def test_odd_limit_is_not_overshot(self, synth_root, monkeypatch):
        # growth forced every epoch: 4 grows to the odd limit 5, which must
        # round down to an even size, not up past the limit
        train_module = importlib.import_module("sparseloc.train")
        expand = train_module.dynamic_batch_expand
        monkeypatch.setattr(train_module, "dynamic_batch_expand",
                            lambda ratio, current, cfg: expand(0.0, current, cfg))
        ds, model, cfg = self._setup(synth_root)
        cfg.batch_limit, cfg.epochs = 5, 3
        hist = train(ds, model, cfg, seed=0)
        assert [h.batch_size for h in hist] == [4, 4, 4]

    def test_batch_sizes_non_decreasing(self, synth_root):
        ds, model, cfg = self._setup(synth_root)
        hist = train(ds, model, cfg, seed=0)
        sizes = [h.batch_size for h in hist]
        assert sizes == sorted(sizes)
        assert all(s <= cfg.batch_limit for s in sizes)
