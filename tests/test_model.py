"""Pooling heads, descriptor invariances, backbone shape, checkpoints."""

import numpy as np
import pytest

from sparseloc import (MinkLoc, ModelConfig, PointCloud, SparseTensor, Tape,
                       Var, batch_tensor, compute_descriptor, gem_pool,
                       load_checkpoint, mac_pool, relu, save_checkpoint,
                       sparse_transposed_conv)
from sparseloc.errors import FormatError, ShapeError
from sparseloc.gradcheck import max_rel_err, numeric_grad
from sparseloc.model import _add_lateral, _compose
from conftest import TINY_CFG


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
        top = bb.tconv3(bb.lateral3(x3))
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
                top = bb.tconv3(bb.lateral3(leaf, tape), tape)
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

    def test_lateral_without_parent_rejected(self):
        top = SparseTensor(np.array([[0, 0, 0, 0], [0, 4, 0, 0]]),
                           np.ones((2, 3)), stride=4)
        lateral = SparseTensor(np.array([[0, 8, 0, 0]]), np.ones((1, 3)),
                               stride=4)
        with pytest.raises(ShapeError):
            _add_lateral(top, lateral, None)

    def test_lateral_add_and_gradients(self):
        top = SparseTensor(np.array([[0, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0]]),
                           np.arange(6.0).reshape(3, 2), stride=4)
        lateral = SparseTensor(np.array([[0, 0, 4, 0], [0, 0, 0, 0]]),
                               np.array([[10.0, 20.0], [30.0, 40.0]]), stride=4)
        tape = Tape()
        out = _add_lateral(top, lateral, tape)
        assert out.coords.tolist() == top.coords.tolist()
        assert out.features.tolist() == [[30.0, 41.0], [2.0, 3.0], [14.0, 25.0]]
        g = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        tape.backward(out.fvar, g)
        assert np.array_equal(lateral.fvar.grad, g[[2, 0]])

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

    def test_missing_param_rejected(self, tmp_path):
        cfg = ModelConfig(**TINY_CFG)
        a = MinkLoc(cfg, seed=0)
        state = a.state_dict()
        del state["gem.p"]
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, state)
        with pytest.raises(FormatError):
            MinkLoc(cfg, seed=0).load_state_dict(load_checkpoint(path))
