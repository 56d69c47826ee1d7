"""GeM pooling and its MAC limit, invariances, backbone, checkpoints."""

import os
import tracemalloc

import numpy as np
import pytest

from sparseloc import (MinkLoc, ModelConfig, PointCloud, SparseTensor, Tape,
                       Var, batch_tensor, compute_descriptor, gem_pool,
                       load_checkpoint, mac_pool, relu, save_checkpoint,
                       sparse_transposed_conv)
from sparseloc import layers, sparse
from sparseloc import model as model_module
from sparseloc.errors import EmptyInput, FormatError
from sparseloc.gradcheck import max_rel_err, numeric_grad
from sparseloc.model import _add_lateral, _compose, checkpoint_config
from sparseloc.sparse import downsample_coords, downsample_map
from conftest import TINY_CFG, coord_rows


def column_tensor(values, batch=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    n = len(values)
    b = np.zeros(n, dtype=int) if batch is None else np.asarray(batch)
    coords = np.column_stack([b, np.arange(n), np.zeros((n, 2), dtype=int)])
    return SparseTensor(coords, values)


class TestGemPool:
    def test_p1_is_arithmetic_mean(self):
        out, ids = gem_pool(column_tensor([1.0, 3.0]), Var(np.asarray(1.0)))
        assert ids == [0]
        assert np.allclose(out.value, [[2.0]])

    def test_large_p_approaches_max(self):
        out, _ = gem_pool(column_tensor([1.0, 3.0]), Var(np.asarray(100.0)))
        assert abs(out.value[0, 0] - 3.0) / 3.0 < 1e-2

    def test_p3_direct_arithmetic(self):
        out, _ = gem_pool(column_tensor([1.0, 2.0]), Var(np.asarray(3.0)))
        expect = ((1.0 + 8.0) / 2.0) ** (1.0 / 3.0)  # 4.5^(1/3) ~ 1.6510
        assert abs(out.value[0, 0] - expect) < 1e-12
        assert abs(expect - 1.6510) < 5e-5

    def test_monotone_in_p(self):
        rng = np.random.default_rng(0)
        feats = rng.uniform(0.1, 2.0, size=(20, 6))
        x = column_tensor(feats)
        prev = None
        for p in (1.0, 3.0, 10.0, 100.0):
            out, _ = gem_pool(x, Var(np.asarray(p)))
            if prev is not None:
                assert np.all(out.value >= prev - 1e-12)
            prev = out.value

    def test_pools_per_batch_item(self):
        x = column_tensor([1.0, 3.0, 5.0, 7.0], batch=[0, 0, 1, 1])
        out, ids = gem_pool(x, Var(np.asarray(1.0)))
        assert ids == [0, 1]
        assert np.allclose(out.value.ravel(), [2.0, 6.0])

    @pytest.mark.parametrize("p, scale", [(3.17, 2.0), (200.0, 10.0)])
    def test_row_order_free(self, p, scale):
        # scale 10 at p = 200 takes the max-factored (overflow-safe) path
        rng = np.random.default_rng(3)
        batch = np.repeat([0, 1, 2], [7, 5, 9])
        feats = rng.uniform(-0.2, scale, size=(21, 4))
        mix = rng.normal(size=(3, 4))

        def pooled(perm):
            x = column_tensor(feats[perm], batch=batch[perm])
            p_var = Var(np.asarray(p))
            tape = Tape()
            out, ids = gem_pool(x, p_var, tape)
            tape.backward(out, mix)
            gx = np.empty_like(feats)
            gx[perm] = x.fvar.grad
            return out.value, gx, float(p_var.grad), ids

        ref = pooled(np.arange(21))
        got = pooled(rng.permutation(21))
        assert got[3] == ref[3] == [0, 1, 2]
        for a, b in zip(got[:3], ref[:3]):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_max_factored_gradients_match_finite_differences(self):
        # p * log(max) > 300 takes the overflow-safe path through the maxima
        rng = np.random.default_rng(5)
        x = column_tensor(rng.uniform(1600.0, 2000.0, size=(9, 2)),
                          batch=np.repeat([0, 1, 2], 3))
        p = Var(np.asarray(40.0))
        mix = rng.normal(size=(3, 2))
        tape = Tape()
        out, _ = gem_pool(x, p, tape)
        tape.backward(out, mix)

        def loss():
            return float((gem_pool(x, p)[0].value * mix).sum())

        for var in (p, x.fvar):
            assert max_rel_err(var.grad, numeric_grad(loss, var, h=1e-4)) < 1e-4

    @pytest.mark.parametrize("p, scale", [(3.0, 2.0), (3.17, 2.0),
                                          (200.0, 10.0)])
    @pytest.mark.parametrize("taped", [False, True])
    def test_input_features_untouched(self, p, scale, taped):
        rng = np.random.default_rng(4)
        x = column_tensor(rng.uniform(-0.5, scale, size=(12, 3)),
                          batch=np.repeat([0, 1], 6))
        before = x.features.copy()
        tape = Tape() if taped else None
        out, _ = gem_pool(x, Var(np.asarray(p)), tape)
        if taped:
            tape.backward(out, np.ones_like(out.value))
        assert np.array_equal(x.features, before)

    def test_taped_step_holds_one_full_size_buffer(self):
        # forward plus backward on an n x 256 map in 16 items: the kept
        # buffer, which becomes the input gradient, plus per-item temporaries
        n, items = 4096, 16
        rng = np.random.default_rng(6)
        x = column_tensor(rng.uniform(-0.5, 2.0, size=(n, 256)),
                          batch=np.repeat(np.arange(items), n // items))
        p, seed = Var(np.asarray(3.17)), rng.normal(size=(items, 256))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tape = Tape()
            out, _ = gem_pool(x, p, tape)
            tape.backward(out, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.fvar.grad.shape == (n, 256)
        assert peak - start < 1.5 * n * 256 * 8

    def test_untaped_holds_no_full_size_buffer(self):
        n = 8192
        x = column_tensor(np.random.default_rng(7).uniform(-0.5, 2.0,
                                                           size=(n, 256)))
        p = Var(np.asarray(3.17))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            gem_pool(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < n * 256 * 8 / 4

    @pytest.mark.parametrize("p", [3.0, 3.17])
    def test_taped_and_untaped_agree_bit_for_bit(self, p):
        rng = np.random.default_rng(8)
        batch = np.repeat([0, 1], [257, 775])
        x = column_tensor(rng.uniform(-0.5, 2.0, size=(len(batch), 16)),
                          batch=batch)
        taped, _ = gem_pool(x, Var(np.asarray(p)), Tape())
        untaped, _ = gem_pool(x, Var(np.asarray(p)))
        assert np.array_equal(taped.value, untaped.value)


def gem_reference(feats, batch, p, mix, eps=1e-6):
    """Per-item GeM over whole items, its input gradient and dy/dp
    contracted with ``mix``; each column is scaled by its item max so that
    neither the powers nor their mean leave the float range."""
    out, gx, gp = [], np.zeros_like(feats), 0.0
    for b in np.unique(batch):
        rows = batch == b
        top = np.maximum(feats[rows], eps).max(axis=0)
        r = np.maximum(feats[rows], eps) / top
        mean = (r ** p).mean(axis=0)
        y = top * mean ** (1.0 / p)
        out.append(y)
        gx[rows] = (mix[b] * mean ** (1.0 / p - 1.0) * r ** (p - 1.0)
                    * (feats[rows] > eps) / len(r))
        dy_dp = y * ((r ** p * np.log(r)).mean(axis=0) / (p * mean)
                     - np.log(mean) / p ** 2)
        gp += float((mix[b] * dy_dp).sum())
    return np.array(out), gx, gp


class TestGemBlocks:
    """Items that end inside, at and just past a block of rows."""

    @pytest.mark.parametrize("p, scale", [(0.5, 2.0), (3.0, 2.0),
                                          (3.17, 2.0), (200.0, 10.0)])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_matches_whole_item_reference(self, p, scale, shuffled):
        # scale 10 at p = 200 takes the max-factored (overflow-safe) path,
        # where the last column's max^p would underflow; at p = 0.5 the
        # clamped rows' gradient is large unless it is masked
        block = model_module._GEM_BLOCK
        sizes = [1, block - 1, block, block + 1, 3 * block + 7]
        rng = np.random.default_rng(9)
        batch = np.repeat(np.arange(len(sizes)), sizes)
        feats = rng.uniform(-0.2, scale, size=(len(batch), 3)) * [1, 1, 1e-3]
        mix = rng.normal(size=(len(sizes), 3))
        perm = rng.permutation(len(batch)) if shuffled else np.arange(len(batch))
        x = column_tensor(feats[perm], batch=batch[perm])
        p_var = Var(np.asarray(p))
        tape = Tape()
        out, ids = gem_pool(x, p_var, tape)
        tape.backward(out, mix)
        gx = np.empty_like(feats)
        gx[perm] = x.fvar.grad
        ref_out, ref_gx, ref_gp = gem_reference(feats, batch, p, mix)
        assert ids == list(range(len(sizes)))
        for got, ref in ((out.value, ref_out), (gx, ref_gx),
                         (float(p_var.grad), ref_gp)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_gradients_across_small_blocks(self, monkeypatch):
        # blocks of 5 rows split both items of an interleaved map
        monkeypatch.setattr(model_module, "_GEM_BLOCK", 5)
        rng = np.random.default_rng(10)
        x = column_tensor(rng.uniform(-0.2, 2.0, size=(23, 4)),
                          batch=rng.permutation(np.repeat([0, 1], [11, 12])))
        p = Var(np.asarray(3.17))
        mix = rng.normal(size=(2, 4))
        tape = Tape()
        out, _ = gem_pool(x, p, tape)
        tape.backward(out, mix)

        def loss():
            return float((gem_pool(x, p)[0].value * mix).sum())

        for var in (p, x.fvar):
            assert max_rel_err(var.grad, numeric_grad(loss, var, h=1e-4)) < 1e-4


def _item_ordered_map(rng, scale):
    """Items ending inside, at and just past a block, rows in item order."""
    block = model_module._GEM_BLOCK
    batch = np.repeat(np.arange(4), [1, block - 1, block + 1, 2 * block + 3])
    return column_tensor(rng.uniform(-0.2, scale, size=(len(batch), 16)),
                         batch=batch)


# p = 200 at scale 10 takes the max-factored path
HAND_OVER_P = [(3.0, 2.0), (3.17, 2.0), (200.0, 10.0)]


class TestGemHandOver:
    """``reuse_map=True`` lets GeM keep its backward buffer in the map."""

    @staticmethod
    def _step(x, p, seed, **kwargs):
        p_var, tape = Var(np.asarray(p)), Tape()
        out, _ = gem_pool(x, p_var, tape, **kwargs)
        tape.backward(out, seed)
        return out.value, x.fvar.grad, p_var.grad

    @pytest.mark.parametrize("p, scale", HAND_OVER_P)
    def test_default_leaves_the_map_unchanged(self, p, scale):
        rng = np.random.default_rng(11)
        x = _item_ordered_map(rng, scale)
        before = x.features.copy()
        _, gx, _ = self._step(x, p, rng.normal(size=(4, 16)))
        assert np.array_equal(x.features, before)
        assert not np.shares_memory(gx, x.features)

    @pytest.mark.parametrize("p, scale", HAND_OVER_P)
    def test_reuse_hands_the_features_over_as_the_gradient(self, p, scale):
        rng = np.random.default_rng(12)
        x = _item_ordered_map(rng, scale)
        copy = SparseTensor(x.coords, x.features.copy())
        seed = rng.normal(size=(4, 16))
        held = x.features
        got = self._step(x, p, seed, reuse_map=True)
        want = self._step(copy, p, seed)
        assert got[1] is held
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("p, scale", HAND_OVER_P)
    def test_reuse_on_permuted_rows_takes_a_fresh_buffer(self, p, scale):
        rng = np.random.default_rng(13)
        ordered = _item_ordered_map(rng, scale)
        perm = rng.permutation(ordered.n)
        x = SparseTensor(ordered.coords[perm], ordered.features[perm])
        before = x.features.copy()
        seed = rng.normal(size=(4, 16))
        got = self._step(x, p, seed, reuse_map=True)
        assert np.array_equal(x.features, before)
        assert not np.shares_memory(got[1], x.features)
        want = self._step(SparseTensor(x.coords, before.copy()), p, seed)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_reuse_without_a_tape_leaves_the_map_unchanged(self):
        x = _item_ordered_map(np.random.default_rng(14), 2.0)
        before = x.features.copy()
        out, _ = gem_pool(x, Var(np.asarray(3.17)), reuse_map=True)
        assert np.array_equal(x.features, before)
        assert np.array_equal(out.value, gem_pool(x, Var(np.asarray(3.17)))[0].value)


def gem_parent(fmap, p, g, eps=1e-6):
    """The taped GeM as it was before its forward prepared the input
    gradient: the backward clamps each block again, divides, scales and
    masks.  Returns (y, input gradient, dy/dp contracted with ``g``)."""
    f = fmap.features
    order, _, bounds = model_module._batch_slices(fmap.coords)
    sizes = np.array([e - s for s, e in bounds], dtype=float)[:, None]
    step = model_module._GEM_BLOCK

    def rows(i, j):
        return f[i:j] if order is None else f[order[i:j]]

    def blocks(s, e):
        return [(i, min(i + step, e)) for i in range(s, e, step)]

    direct = p * np.log(max(float(f.max()), 1.0)) < 300.0
    scratch = np.empty((min(step, len(f)), f.shape[1]))
    ones = np.ones(len(scratch))
    powers = np.empty_like(f)
    maxes = np.ones((len(bounds), f.shape[1]))
    means, plogs = np.zeros_like(maxes), np.zeros_like(maxes)
    for b, (s, e) in enumerate(bounds):
        if not direct:
            maxes[b] = np.maximum(rows(s, e).max(axis=0), eps)
        for i, j in blocks(s, e):
            lg, pb = scratch[:j - i], powers[i:j]
            np.maximum(rows(i, j), eps, out=pb)
            if not direct:
                pb /= maxes[b]
            np.log(pb, out=lg)
            lg *= p
            np.exp(lg, out=pb)
            means[b] += ones[:j - i] @ pb
            lg *= pb
            plogs[b] += ones[:j - i] @ lg
    means /= sizes
    y = maxes * means ** (1.0 / p)
    dy_dp = y / p ** 2 * (plogs / (sizes * means) - np.log(means))
    coef = g * means ** (1.0 / p - 1.0) * maxes / sizes
    for b, (s, e) in enumerate(bounds):
        for i, j in blocks(s, e):
            cb = np.maximum(rows(i, j), eps, out=scratch[:j - i])
            pb = powers[i:j]
            pb /= cb
            pb *= coef[b]
            pb *= cb > eps
    if order is not None:
        powers[order] = powers.copy()
    return y, powers, float((g * dy_dp).sum())


class TestPoolSameNumbers:
    """GeM's values and gradients equal the backward that re-reads the map."""

    @staticmethod
    def pooled_map(shuffled, scale):
        block = model_module._GEM_BLOCK
        sizes = [1, block - 1, block, block + 1, 3 * block + 7]
        rng = np.random.default_rng(11)
        batch = np.repeat(np.arange(len(sizes)), sizes)
        feats = rng.uniform(-0.2, scale, size=(len(batch), 4)) * [1, 1, 1, 1e-3]
        perm = rng.permutation(len(batch)) if shuffled else np.arange(len(batch))
        return (column_tensor(feats[perm], batch=batch[perm]),
                rng.normal(size=(len(sizes), 4)))

    @pytest.mark.parametrize("p, scale", [(3.0, 2.0), (3.17, 2.0),
                                          (200.0, 10.0)])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_gem_matches_parent_bit_for_bit(self, p, scale, shuffled):
        x, g = self.pooled_map(shuffled, scale)
        ref_y, ref_gx, ref_gp = gem_parent(x, p, g)
        p_var = Var(np.asarray(p))
        tape = Tape()
        out, _ = gem_pool(x, p_var, tape)
        tape.backward(out, g)
        assert np.array_equal(out.value, ref_y)
        assert np.array_equal(x.fvar.grad, ref_gx)
        assert float(p_var.grad) == ref_gp


class TestMacPool:
    def test_per_channel_max(self):
        out, _ = mac_pool(column_tensor(np.array([[1.0, 5.0], [3.0, 2.0]])))
        assert out.value.tolist() == [[3.0, 5.0]]

    def test_single_row_identity(self):
        out, _ = mac_pool(column_tensor(np.array([[2.0, -1.0, 0.5]])))
        assert out.value.tolist() == [[2.0, -1.0, 0.5]]

    def test_gem_limit_matches_mac_on_positive(self):
        # two-sided analytic bound: max * n^(-1/p) <= gem_p <= max, so the
        # relative gap at p=1000 is at most ln(n)/1000
        rng = np.random.default_rng(1)
        for n in (2, 5, 30):
            feats = rng.uniform(0.1, 2.0, size=(n, 8))
            x = column_tensor(feats)
            mac, _ = mac_pool(x)
            gem, _ = gem_pool(x, Var(np.asarray(1000.0)))
            assert np.all(gem.value <= mac.value + 1e-12)
            assert np.all(gem.value >= mac.value * n ** (-1.0 / 1000.0) - 1e-12)


class TestBackbone:
    def test_output_stride_and_dim(self, tiny_model):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(-0.9, 0.9, size=(60, 3)))
        st = batch_tensor([cloud], tiny_model.cfg.quantization_step)
        fmap = tiny_model.backbone(st)
        assert fmap.stride == 4
        assert fmap.channels == tiny_model.cfg.descriptor_dim

    def test_single_voxel_input(self, tiny_model):
        st = batch_tensor([PointCloud(np.zeros((1, 3)))],
                          tiny_model.cfg.quantization_step)
        fmap = tiny_model.backbone(st)
        assert fmap.stride == 4 and fmap.n >= 1

    def test_output_coords_are_lateral_union(self, tiny_model):
        # fused coordinate set = stride-4 set union the tconv-scattered set
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.uniform(-0.9, 0.9, size=(80, 3)))
        st = batch_tensor([cloud], tiny_model.cfg.quantization_step)
        bb = tiny_model.backbone
        from sparseloc import relu
        x = relu(bb.conv0_bn(bb.conv0(st)))
        x1 = bb.block1(x)
        x2 = bb.block2(x1)
        x3 = bb.block3(x2)
        top = sparse_transposed_conv(bb.lateral3(x3), bb.tconv3.weight)
        expect = {tuple(c) for c in x2.coords.tolist()}
        expect |= {tuple(c) for c in top.coords.tolist()}
        fmap = bb(st)
        assert {tuple(c) for c in fmap.coords.tolist()} == expect

    def test_fused_top_gradients_match_unfused(self):
        # c3 != d so a transposed factor in the split would not go unnoticed
        model = MinkLoc(ModelConfig(**{**TINY_CFG, "conv3_ch": 3,
                                       "descriptor_dim": 5}), seed=0)
        bb = model.backbone
        rng = np.random.default_rng(4)
        st = batch_tensor([PointCloud(rng.uniform(-0.9, 0.9, size=(80, 3)))],
                          model.cfg.quantization_step)
        x3 = bb.block3(bb.block2(bb.block1(relu(bb.conv0_bn(bb.conv0(st))))))
        mix = rng.normal(size=(8 * x3.n, 5))

        def grads(fused):
            leaf = SparseTensor(x3.coords, Var(x3.features.copy()),
                                stride=x3.stride)
            for var in (bb.lateral3.weight, bb.tconv3.weight):
                var.zero_grad()
            tape = Tape()
            if fused:
                w = _compose(bb.lateral3.weight, bb.tconv3.weight, tape)
                top = sparse_transposed_conv(leaf, w, tape=tape)
            else:
                top = sparse_transposed_conv(bb.lateral3(leaf, tape),
                                             bb.tconv3.weight, tape=tape)
            tape.backward(top.fvar, mix)
            return [top.features, bb.lateral3.weight.grad,
                    bb.tconv3.weight.grad, leaf.fvar.grad]

        for got, want in zip(grads(True), grads(False)):
            rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert rel < 1e-10

    def test_tape_with_running_stats_matches_no_tape(self, tiny_model):
        rng = np.random.default_rng(6)
        st = batch_tensor([PointCloud(rng.uniform(-0.9, 0.9, size=(80, 3)))],
                          tiny_model.cfg.quantization_step)
        plain = tiny_model.backbone(st)
        taped = tiny_model.backbone(st, Tape(), train=False)
        assert np.array_equal(plain.coords, taped.coords)
        assert np.max(np.abs(plain.features - taped.features)) <= 1e-12

    def test_lateral_add_and_gradients(self):
        lateral = SparseTensor(
            np.array([[0, 12, 4, 0], [0, 0, 4, 0], [0, 0, 0, 0]]),
            np.array([[1.0, 2.0], [10.0, 20.0], [30.0, 40.0]]), stride=4)
        parents, stride = downsample_coords(lateral, 2)
        assert parents.tolist() == [[0, 0, 0, 0], [0, 8, 0, 0]]   # key order
        top = sparse_transposed_conv(
            SparseTensor(parents, np.ones((2, 1)), stride=stride),
            Var(np.arange(16.0).reshape(8, 1, 2)))
        # offsets (1,1,0), (0,1,0), (0,0,0) of parents 1, 0, 0
        want = top.features.copy()
        want[[14, 2, 0]] += lateral.features
        tape = Tape()
        out = _add_lateral(top, lateral, downsample_map(lateral, 2), tape)
        assert out is top and np.array_equal(out.features, want)
        g = np.arange(32.0).reshape(16, 2)
        tape.backward(out.fvar, g)
        assert np.array_equal(lateral.fvar.grad, g[[14, 2, 0]])

    def test_lateral_rows_match_coordinate_lookup(self, tiny_model):
        self.check_lateral_rows(tiny_model, 120, tiny_model.cfg.quantization_step)

    def test_lateral_rows_over_many_slices(self, tiny_model):
        # a finer grid gives x2 more rows than several slices of the add
        assert self.check_lateral_rows(tiny_model, 2000, 0.01) > 3 * 256

    @staticmethod
    def check_lateral_rows(tiny_model, points, step):
        # on a real multi-cloud forward, block3.down's map of x2 sends each
        # stride-4 voxel to the upsampled row holding its coordinates
        rng = np.random.default_rng(4)
        clouds = [PointCloud(rng.uniform(-0.9, 0.9, size=(points, 3)))
                  for _ in range(3)]
        st = batch_tensor(clouds, step)
        bb = tiny_model.backbone
        x2 = bb.block2(bb.block1(relu(bb.conv0_bn(bb.conv0(st)))))
        x3 = bb.block3(x2)
        up = sparse_transposed_conv(x3, Var(np.ones((8, 2, 1))))
        top = up.with_features(np.zeros((up.n, 1)))
        ids = x2.with_features(np.arange(1.0, x2.n + 1))
        out = _add_lateral(top, ids, downsample_map(x2, 2), None)
        rows = coord_rows(top, x2.coords)
        assert rows.min() >= 0
        assert np.array_equal(out.features[rows], ids.features)
        assert np.count_nonzero(out.features) == x2.n
        return x2.n

    def test_one_map_lookup_per_conv(self, tiny_model, monkeypatch):
        # the lateral add reads block3.down's cached map: every map lookup
        # of a forward belongs to a conv with K > 1 (conv0, 3 x 3 in blocks)
        kernel_sizes = []

        def counted(fn):
            def wrapped(*args, **kwargs):
                kernel_sizes.append(args[2])
                return fn(*args, **kwargs)
            return wrapped

        for mod in (layers, sparse):
            monkeypatch.setattr(mod, "build_kernel_map",
                                counted(mod.build_kernel_map))
        rng = np.random.default_rng(5)
        st = batch_tensor([PointCloud(rng.uniform(-0.9, 0.9, size=(80, 3)))],
                          tiny_model.cfg.quantization_step)
        tiny_model.backbone(st, Tape(), train=True)
        assert sorted(kernel_sizes) == [2, 2, 2, 3, 3, 3, 3, 3, 3, 5]

    def test_residual_add_on_one_geometry(self, tiny_model, monkeypatch):
        # every add of a forward, taped in training or untaped in eval, is
        # the residual add: both operands share one voxel geometry
        shared = []

        def checked(a, b, tape=None):
            shared.append(a._geom is b._geom)
            return layers.sparse_add(a, b, tape)

        monkeypatch.setattr("sparseloc.model.sparse_add", checked)
        rng = np.random.default_rng(6)
        clouds = [PointCloud(rng.uniform(-0.9, 0.9, size=(150, 3)))
                  for _ in range(2)]
        tiny_model.embed_clouds(clouds, Tape(), train=True)
        tiny_model.embed_clouds(clouds)
        assert shared == [True] * 6   # one per block, in each forward

    def test_every_voxel_set_in_key_order(self, tiny_model, monkeypatch):
        # quantize, the batch and each downsample of a real forward list
        # their voxels by increasing packed key, which is their sorted index
        rng = np.random.default_rng(8)
        clouds = [PointCloud(rng.uniform(-0.9, 0.9, size=(150, 3)))
                  for _ in range(3)]
        sets = [sparse.quantize(c, 0.1, batch=i) for i, c in enumerate(clouds)]
        downs = []

        def recorded(x, factor=2):
            downs.append(downsample_coords(x, factor))
            return downs[-1]

        monkeypatch.setattr(layers, "downsample_coords", recorded)
        st = batch_tensor(clouds, tiny_model.cfg.quantization_step)
        tiny_model.backbone(st)
        assert [stride for _, stride in downs] == [2, 4, 8]
        sets.append(st)
        for x in sets:
            keys, order = x._sorted_index()
            assert keys is x.keys() and np.array_equal(order, np.arange(x.n))
        for coords in [x.coords for x in sets] + [c for c, _ in downs]:
            keys = sparse.pack_coords(coords)
            assert np.all(keys[1:] > keys[:-1])

    def test_batch_of_no_clouds_rejected(self):
        with pytest.raises(EmptyInput):
            batch_tensor([], 0.01)

    def test_reference_param_count(self):
        # default widths land within the published ~1.1M parameter budget
        model = MinkLoc(ModelConfig(), seed=0)
        assert model.param_count() == 1_117_089

    def test_forward_structural_sanity(self):
        rng = np.random.default_rng(0)
        model = MinkLoc(ModelConfig(), seed=0)
        pts = rng.uniform(-0.9, 0.9, size=(512, 3))
        d = compute_descriptor(PointCloud(pts), model)
        assert d.values.shape == (256,)
        assert np.all(np.isfinite(d.values))


class TestDescriptorInvariance:
    def test_deterministic(self, tiny_model, rng):
        pts = rng.uniform(-0.9, 0.9, size=(50, 3))
        a = compute_descriptor(PointCloud(pts), tiny_model)
        b = compute_descriptor(PointCloud(pts.copy()), tiny_model)
        assert np.array_equal(a.values, b.values)

    def test_permutation_invariant_exact(self, tiny_model, rng):
        pts = rng.uniform(-0.9, 0.9, size=(50, 3))
        a = compute_descriptor(PointCloud(pts), tiny_model)
        b = compute_descriptor(PointCloud(pts[rng.permutation(len(pts))]),
                               tiny_model)
        assert np.array_equal(a.values, b.values)

    def test_duplicate_point_invariant(self, tiny_model, rng):
        pts = rng.uniform(-0.9, 0.9, size=(50, 3))
        dup = np.concatenate([pts, pts[:1]])
        a = compute_descriptor(PointCloud(pts), tiny_model)
        b = compute_descriptor(PointCloud(dup), tiny_model)
        assert np.array_equal(a.values, b.values)

    def test_input_points_untouched(self, tiny_model, rng):
        pts = rng.uniform(-0.9, 0.9, size=(50, 3))
        before = pts.copy()
        compute_descriptor(PointCloud(pts), tiny_model)
        assert np.array_equal(pts, before)

    def test_out_of_range_warns(self, tiny_model):
        with pytest.warns(UserWarning):
            compute_descriptor(PointCloud(np.array([[1.5, 0.0, 0.0]])),
                               tiny_model)


class TestCheckpoint:
    def test_roundtrip_restores_descriptors(self, tmp_path, rng):
        cfg = ModelConfig(**TINY_CFG)
        a = MinkLoc(cfg, seed=1)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, a.state_dict())
        b = MinkLoc(cfg, seed=2)
        b.load_state_dict(load_checkpoint(path))
        pts = rng.uniform(-0.9, 0.9, size=(40, 3))
        assert np.array_equal(compute_descriptor(PointCloud(pts), a).values,
                              compute_descriptor(PointCloud(pts), b).values)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(FormatError):
            load_checkpoint(str(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        cfg = ModelConfig(**TINY_CFG)
        a = MinkLoc(cfg, seed=0)
        state = a.state_dict()
        state["conv0.w"] = state["conv0.w"][:, :, :1]
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, state)
        with pytest.raises(FormatError):
            MinkLoc(cfg, seed=0).load_state_dict(load_checkpoint(path))

    def test_missing_bn_stat_rejected(self, tmp_path):
        cfg = ModelConfig(**TINY_CFG)
        state = MinkLoc(cfg, seed=0).state_dict()
        del state["conv2.res1.bn.var"]
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, state)
        with pytest.raises(FormatError):
            MinkLoc(cfg, seed=0).load_state_dict(load_checkpoint(path))

    def test_truncated_header_length_rejected(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, MinkLoc(ModelConfig(**TINY_CFG)).state_dict())
        with open(path, "rb") as fh:
            head = fh.read(10)   # magic plus half of the header length
        with open(path, "wb") as fh:
            fh.write(head)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_header_not_an_entry_list_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"SLCKPT1\n" + (1).to_bytes(4, "little") + b"5")
        with pytest.raises(FormatError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("p", [0.0, np.inf, np.nan, -2.0])
    def test_degenerate_gem_p_rejected(self, p):
        # GeM needs a finite p > 0; a refused state leaves the model as it was
        model = MinkLoc(ModelConfig(**TINY_CFG), seed=0)
        before = model.state_dict()
        state = MinkLoc(ModelConfig(**TINY_CFG), seed=1).state_dict()
        state["gem.p"] = np.asarray(p)
        with pytest.raises(FormatError, match="gem.p"):
            model.load_state_dict(state)
        after = model.state_dict()
        assert all(np.array_equal(after[k], before[k]) for k in before)

    def test_extra_entries_rejected(self):
        state = MinkLoc(ModelConfig(**TINY_CFG), seed=0).state_dict()
        no_p = dict(state)
        del no_p["gem.p"]   # as a MAC checkpoint had it
        with pytest.raises(FormatError, match="gem.p"):
            MinkLoc(ModelConfig(**TINY_CFG), seed=0).load_state_dict(no_p)
        state["stray"] = np.zeros(1)
        with pytest.raises(FormatError, match="stray"):
            MinkLoc(ModelConfig(**TINY_CFG), seed=0).load_state_dict(state)

    def test_shape_read_from_state(self):
        cfg = ModelConfig(conv0_ch=2, conv1_ch=3, conv2_ch=4, conv3_ch=5,
                          descriptor_dim=6, quantization_step=0.05)
        state = MinkLoc(cfg, seed=0).state_dict()
        got = checkpoint_config(state)
        assert got == cfg
        MinkLoc(got).load_state_dict(state)

    @pytest.mark.parametrize("step", [None, np.nan, 0.0, 0.05, np.zeros(1)])
    def test_quantization_step_must_match(self, step):
        # the step is an entry, not a parameter Adam updates; a checkpoint
        # loads only into a network at its own step
        model = MinkLoc(ModelConfig(**TINY_CFG), seed=0)
        before = model.state_dict()
        assert before["quantization_step"].shape == ()
        assert "quantization_step" not in model.named_params()
        state = MinkLoc(ModelConfig(**TINY_CFG), seed=1).state_dict()
        if step is None:
            del state["quantization_step"]
        else:
            state["quantization_step"] = np.asarray(step)
        with pytest.raises(FormatError, match="quantization_step"):
            model.load_state_dict(state)
        after = model.state_dict()
        assert all(np.array_equal(after[k], before[k]) for k in before)
        if step == 0.05:
            assert checkpoint_config(state).quantization_step == 0.05
        else:
            with pytest.raises((FormatError, ValueError),
                               match="quantization_step"):
                checkpoint_config(state)

    @pytest.mark.parametrize("damage", ["missing", "not_3d", "no_channels"])
    def test_shape_from_damaged_state_rejected(self, damage):
        state = MinkLoc(ModelConfig(**TINY_CFG), seed=0).state_dict()
        if damage == "missing":
            del state["conv2.down.w"]
        elif damage == "not_3d":
            state["conv2.down.w"] = state["conv2.down.w"][0]
        else:
            state["conv2.down.w"] = state["conv2.down.w"][:, :, :0]
        with pytest.raises(FormatError, match="conv2.down.w"):
            checkpoint_config(state)

    def test_missing_param_rejected(self, tmp_path):
        cfg = ModelConfig(**TINY_CFG)
        a = MinkLoc(cfg, seed=0)
        state = a.state_dict()
        del state["gem.p"]
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, state)
        with pytest.raises(FormatError):
            MinkLoc(cfg, seed=0).load_state_dict(load_checkpoint(path))

    def test_directory_target_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.mkdir()
        with pytest.raises(IsADirectoryError):
            save_checkpoint(str(path), MinkLoc(ModelConfig(**TINY_CFG)).state_dict())
        assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]

    def test_failed_publish_keeps_the_old_checkpoint(self, tmp_path,
                                                     monkeypatch):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, MinkLoc(ModelConfig(**TINY_CFG), seed=1).state_dict())
        before = (tmp_path / "m.ckpt").read_bytes()

        def refuse(src, dst):
            raise PermissionError(dst)
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            save_checkpoint(path, MinkLoc(ModelConfig(**TINY_CFG), seed=2).state_dict())
        monkeypatch.undo()
        assert (tmp_path / "m.ckpt").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
