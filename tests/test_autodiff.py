"""Tape ownership rules: which gradients a Var adopts, and what a backward frees."""

import gc
import weakref

import numpy as np
import pytest

from sparseloc import PointCloud, Tape, Var, batch_tensor
from sparseloc import model as model_mod
from sparseloc.train import mined_triplet_loss


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
        # hold every Var of the forward so none is freed by the backward
        gc.collect()
        live = [o for o in gc.get_objects() if isinstance(o, Var)]
        seed = np.ones(())
        tape.backward(loss, seed)
        held = [v for v in live if v.grad is not None]
        assert len(held) > len(tiny_model.named_params())
        for i, v in enumerate(held):
            for w in held[i + 1:]:
                assert not np.shares_memory(v.grad, w.grad)
            for w in live:
                assert w is v or not np.shares_memory(v.grad, w.value)
        kept = [v.grad.copy() for v in held]
        seed[...] = 7.0
        assert all(np.array_equal(v.grad, k) for v, k in zip(held, kept))

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
        assert refs[0]() is not None
        tape.backward(loss)
        assert refs[0]() is None
        assert all(v.grad is not None for v in tiny_model.named_params().values())
