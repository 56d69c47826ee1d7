"""Tape ownership rules: which gradients a Var adopts, and what a backward frees."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from sparseloc import (BatchNorm, MinkLoc, ModelConfig, PointCloud, SparseConv,
                       SparseTensor, Tape, Var, batch_tensor)
from sparseloc import model as model_mod
from sparseloc.autodiff import Grad
from sparseloc.train import mined_triplet_loss
from conftest import TINY_CFG


class TestAddGrad:
    def test_adopts_owned_array_of_its_shape(self):
        v = Var(np.zeros((3, 2)))
        g = np.ones((3, 2))
        v.add_grad(g)
        assert v.grad is g

    @pytest.mark.parametrize("make", [
        lambda base: base[:3],                          # view
        lambda base: np.broadcast_to(base[0], (3, 2)),  # broadcast
        lambda base: base[:3].astype(np.float32),       # other dtype
        lambda base: 2.0,                               # scalar
    ], ids=["view", "broadcast", "float32", "scalar"])
    def test_copies_what_it_cannot_own(self, make):
        base = np.arange(8.0).reshape(4, 2)
        g = make(base)
        v = Var(np.zeros((3, 2)))
        v.add_grad(g)
        want = np.array(np.broadcast_to(g, (3, 2)), dtype=np.float64)
        assert v.grad.dtype == np.float64 and v.grad.base is None
        assert not np.shares_memory(v.grad, base)
        assert np.array_equal(v.grad, want)

    def test_copies_read_only_array(self):
        g = np.ones(3)
        g.flags.writeable = False
        v = Var(np.zeros(3))
        v.add_grad(g)
        v.add_grad(np.ones(3))
        assert v.grad is not g and np.array_equal(v.grad, [2.0, 2.0, 2.0])

    def test_later_gradients_accumulate_in_place(self):
        v = Var(np.zeros(2))
        v.add_grad(np.array([1.0, 2.0]))
        first = v.grad
        v.add_grad(np.array([3.0, 4.0]))
        assert v.grad is first and v.grad.tolist() == [4.0, 6.0]

    def test_reassigned_value_reshapes_the_accumulator(self):
        v = Var(np.zeros((3, 2)))
        acc = v.acc
        v.value = np.zeros(6)
        g = np.ones(6)
        acc.add(g)
        assert v.grad is g
        w = Var(np.zeros(3))
        w.value = np.zeros((2, 2))
        w.add_grad(2.0)
        assert w.grad.shape == (2, 2) and np.array_equal(w.grad, np.full((2, 2), 2.0))
        # SparseTensor reshapes 1-D features to one channel
        st = SparseTensor(np.zeros((1, 4), dtype=int), np.zeros(1))
        g = np.ones((1, 1))
        st.fvar.add_grad(g)
        assert st.fvar.grad is g

    def test_grad_assignment_and_zero_grad(self):
        v = Var(np.zeros(2))
        g = np.ones(2)
        v.grad = g
        assert v.acc.grad is g and v.grad is g
        v.zero_grad()
        assert v.grad is None and v.acc.grad is None


class TestRecordFor:
    def test_backward_gets_the_gradient_and_leaves_it(self):
        out = Var(np.zeros(2))
        tape, seen = Tape(), []
        tape.record_for(out, seen.append)
        tape.backward(out, np.array([1.0, 2.0]))
        assert len(seen) == 1 and seen[0] is out.grad
        assert out.grad.tolist() == [1.0, 2.0]

    def test_output_without_gradient_skips_its_backward(self):
        x, out, loss = Var(np.ones(2)), Var(np.zeros(2)), Var(np.zeros(()))
        tape, calls = Tape(), []

        def backward(g):
            calls.append(g)
            x.add_grad(g)

        tape.record_for(out, backward)
        tape.backward(loss)
        assert calls == [] and x.grad is None

    def test_keeps_only_the_output_gradient(self):
        out = Var(np.zeros(3))
        ref = weakref.ref(out.value)
        tape = Tape()
        tape.record_for(out, lambda g: None)
        del out
        assert len(tape) == 1 and ref() is None


def _step_tensor(rng):
    clouds = [PointCloud(rng.uniform(-0.9, 0.9, size=(60, 3))) for _ in range(4)]
    return batch_tensor(clouds, 0.1)


class TestTrainingStepOwnership:
    def test_no_two_live_vars_share_a_gradient_buffer(self, tiny_model, rng):
        st = _step_tensor(rng)
        tape = Tape()
        emb, _ = tiny_model.embed_tensor(st, tape, train=True)
        loss, active = mined_triplet_loss(tape, emb, [(0, 1, 2), (1, 0, 3)],
                                          margin=100.0)
        assert active == 2
        # hold every accumulator of the step, and every Var that outlives
        # the forward, so none is freed by the backward
        gc.collect()
        accs = [o for o in gc.get_objects() if isinstance(o, Grad)]
        live = [o for o in gc.get_objects() if isinstance(o, Var)]
        seed = np.ones(())
        tape.backward(loss, seed)
        held = [a for a in accs if a.grad is not None]
        assert len(held) > len(tiny_model.named_params())
        for i, a in enumerate(held):
            for b in held[i + 1:]:
                assert not np.shares_memory(a.grad, b.grad)
            for v in live:
                assert not np.shares_memory(a.grad, v.value)
        kept = [a.grad.copy() for a in held]
        seed[...] = 7.0
        assert all(np.array_equal(a.grad, k) for a, k in zip(held, kept))

    def test_backward_frees_activations_while_the_tape_lives(
            self, tiny_model, rng, monkeypatch):
        refs = []
        tconv = model_mod.sparse_transposed_conv

        def watched(*args, **kwargs):
            out = tconv(*args, **kwargs)
            refs.append(weakref.ref(out.features))
            return out

        monkeypatch.setattr(model_mod, "sparse_transposed_conv", watched)
        tape = Tape()
        emb, _ = tiny_model.embed_tensor(_step_tensor(rng), tape, train=True)
        loss, _ = mined_triplet_loss(tape, emb, [(0, 1, 2)], margin=100.0)
        # no backward reads the upsampled map: its array lives on only as
        # GeM's backward buffer, becomes the map's gradient, and dies with
        # the backward
        assert refs[0]() is not None
        tape.backward(loss)
        assert refs[0]() is None
        assert all(v.grad is not None for v in tiny_model.named_params().values())

    def test_pooling_adds_no_map_sized_buffer(self, rng, monkeypatch):
        # GeM's backward buffer is the map it pools; blocks of 32 rows keep
        # its scratch small next to the 64-channel map of a small step
        model = MinkLoc(ModelConfig(**{**TINY_CFG, "descriptor_dim": 64}), seed=0)
        monkeypatch.setattr(model_mod, "_GEM_BLOCK", 32)
        seen = []
        gem = model_mod.gem_pool

        def watched(fmap, *args, **kwargs):
            nbytes = fmap.features.nbytes
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = gem(fmap, *args, **kwargs)
            seen.append((tracemalloc.get_traced_memory()[1] - start, nbytes))
            return out

        monkeypatch.setattr(model_mod, "gem_pool", watched)
        st = _step_tensor(rng)
        tracemalloc.start()
        try:
            model.embed_tensor(st, Tape(), train=True)
        finally:
            tracemalloc.stop()
        [(grown, nbytes)] = seen
        assert grown < nbytes / 2

    def test_forward_frees_what_no_backward_reads(
            self, tiny_model, rng, monkeypatch):
        bb = tiny_model.backbone
        res2_bns = [blk.res2_bn for blk in (bb.block1, bb.block2, bb.block3)]
        bn_outs, res2_bn_outs, res2_relu_outs = [], [], []
        lateral_outs, res1_ins = [], []
        bn_call, conv_call, relu = BatchNorm.__call__, SparseConv.__call__, model_mod.relu

        def watched_bn(self, x, tape=None, train=False):
            out = bn_call(self, x, tape, train)
            bn_outs.append(weakref.ref(out.features))
            if any(self is bn for bn in res2_bns):
                res2_bn_outs.append(bn_outs[-1])
            return out

        def watched_conv(self, x, tape=None):
            if self is bb.block1.res1:
                res1_ins.append(weakref.ref(x.features))
            out = conv_call(self, x, tape)
            if self is bb.lateral2:
                lateral_outs.append(weakref.ref(out.features))
            return out

        def watched_relu(x, tape=None):
            out = relu(x, tape)
            if any(r() is x.features for r in res2_bn_outs):
                res2_relu_outs.append(weakref.ref(out.features))
            return out

        monkeypatch.setattr(BatchNorm, "__call__", watched_bn)
        monkeypatch.setattr(SparseConv, "__call__", watched_conv)
        monkeypatch.setattr(model_mod, "relu", watched_relu)
        tape = Tape()
        emb, _ = tiny_model.embed_tensor(_step_tensor(rng), tape, train=True)
        loss, _ = mined_triplet_loss(tape, emb, [(0, 1, 2)], margin=100.0)
        assert (len(bn_outs), len(res2_relu_outs)) == (10, 3)
        assert (len(lateral_outs), len(res1_ins)) == (1, 1)
        dead = bn_outs + res2_relu_outs + lateral_outs
        assert all(r() is None for r in dead)
        # res1's backward reads its input, so its closure keeps it
        assert res1_ins[0]() is not None
        tape.backward(loss)
        assert res1_ins[0]() is None
