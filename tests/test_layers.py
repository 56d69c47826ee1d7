"""Layer semantics against independent dense / hand-worked oracles."""

import itertools

import numpy as np
import pytest

from sparseloc import (BatchNorm, SparseTensor, Tape, Var, kernel_offsets,
                       relu, sparse_add, sparse_conv, sparse_transposed_conv)
from sparseloc.errors import EmptyInput, ShapeError, StrideError
from conftest import coord_rows


def full_grid_tensor(rng, side, c):
    coords = np.array([(0, x, y, z) for x in range(side)
                       for y in range(side) for z in range(side)])
    return SparseTensor(coords, rng.normal(size=(len(coords), c)))


def dense_conv3d_oracle(grid, w, side):
    """Zero-padded dense 3D convolution, K=3, written independently.

    grid: (side, side, side, c_in); w: (27, c_in, c_out) in kernel_offsets
    order.  Output voxel o collects input at o + offset.
    """
    c_out = w.shape[2]
    out = np.zeros((side, side, side, c_out))
    for k, (dx, dy, dz) in enumerate(kernel_offsets(3)):
        for x in range(side):
            for y in range(side):
                for z in range(side):
                    sx, sy, sz = x + dx, y + dy, z + dz
                    if 0 <= sx < side and 0 <= sy < side and 0 <= sz < side:
                        out[x, y, z] += grid[sx, sy, sz] @ w[k]
    return out


def dense_conv_terms(side, kernel_size, stride):
    """(output voxel, input voxel, offset) of every term of a zero-padded
    dense conv on a side^3 grid: output voxel o, on the stride-``stride``
    lattice, collects input o + offset through that offset's matrix."""
    for k, d in enumerate(kernel_offsets(kernel_size)):
        for o in itertools.product(range(0, side, stride), repeat=3):
            i = tuple(int(c) for c in np.add(o, d))
            if all(0 <= c < side for c in i):
                yield o, i, k


class TestSparseConv:
    def test_scalar_identity_kernel(self):
        x = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[3.0]]))
        w = Var(np.array([[[2.0]]]))
        out = sparse_conv(x, w, kernel_size=1)
        assert out.features.tolist() == [[6.0]]

    def test_matches_dense_oracle_on_full_grid(self):
        rng = np.random.default_rng(0)
        side, c_in, c_out = 4, 2, 3
        x = full_grid_tensor(rng, side, c_in)
        w = Var(rng.normal(size=(27, c_in, c_out)))
        out = sparse_conv(x, w, kernel_size=3)
        grid = x.features.reshape(side, side, side, c_in)
        expect = dense_conv3d_oracle(grid, w.value, side)
        got = np.zeros_like(expect)
        for row, (_, cx, cy, cz) in zip(out.features, out.coords):
            got[cx, cy, cz] = row
        assert np.max(np.abs(got - expect)) < 1e-6

    # the ids without c_in name the two-channel cases; one channel takes
    # the forward's single GEMM
    @pytest.mark.parametrize("kernel_size,stride,c_in", [
        pytest.param(1, 1, 2, id="1-1"), pytest.param(3, 1, 2, id="3-1"),
        pytest.param(2, 2, 2, id="2-2"), (5, 1, 1), (3, 1, 1), (2, 2, 1)])
    def test_gradients_match_dense_oracle_on_full_grid(self, kernel_size,
                                                       stride, c_in):
        # for <conv(x), g>, the input gradient is the dense conv's adjoint
        # on g and the weight gradient the correlation of x with g
        rng = np.random.default_rng(kernel_size)
        side, c_out = 4, 3
        x = full_grid_tensor(rng, side, c_in)
        w = Var(rng.normal(size=(kernel_size ** 3, c_in, c_out)))
        tape = Tape()
        y = sparse_conv(x, w, kernel_size, stride, tape)
        g = rng.normal(size=y.features.shape)
        tape.backward(y.fvar, g)
        row_in = {tuple(c[1:]): r for r, c in enumerate(x.coords.tolist())}
        row_out = {tuple(c[1:]): r for r, c in enumerate(y.coords.tolist())}
        assert len(row_out) == (side // stride) ** 3
        f, wk = x.features, w.value
        out, gx, gw = np.zeros_like(g), np.zeros_like(f), np.zeros_like(wk)
        for o, i, k in dense_conv_terms(side, kernel_size, stride):
            ro, ri = row_out[o], row_in[i]
            out[ro] += f[ri] @ wk[k]
            gx[ri] += g[ro] @ wk[k].T
            gw[k] += np.outer(f[ri], g[ro])
        for got, want in [(y.features, out), (x.fvar.grad, gx), (w.grad, gw)]:
            assert np.max(np.abs(got - want)) < 1e-10

    def test_stride2_hand_case(self):
        # both inputs land on output (0,0,0): offsets (0,0,0) and (1,1,1)
        coords = np.array([[0, 0, 0, 0], [0, 1, 1, 1]])
        x = SparseTensor(coords, np.array([[1.0], [10.0]]))
        w = Var(np.zeros((8, 1, 1)))
        offs = kernel_offsets(2)
        w.value[offs.index((0, 0, 0))] = 2.0
        w.value[offs.index((1, 1, 1))] = 3.0
        out = sparse_conv(x, w, kernel_size=2, stride=2)
        assert out.coords.tolist() == [[0, 0, 0, 0]]
        assert out.stride == 2
        assert out.features.tolist() == [[1.0 * 2.0 + 10.0 * 3.0]]

    def test_channel_mismatch_rejected(self):
        x = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[1.0, 2.0]]))
        with pytest.raises(ShapeError):
            sparse_conv(x, Var(np.zeros((1, 3, 2))), kernel_size=1)

    def test_weight_offset_count_checked(self):
        x = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[1.0]]))
        with pytest.raises(ShapeError):
            sparse_conv(x, Var(np.zeros((8, 1, 1))), kernel_size=3)

    @pytest.mark.parametrize("kernel_size,stride", [(3, 2), (3, 3)])
    def test_strided_kernel_must_be_even_and_equal_stride(self, kernel_size,
                                                          stride):
        x = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[1.0]]))
        with pytest.raises(ShapeError, match="kernel_size == stride"):
            sparse_conv(x, Var(np.zeros((27, 1, 1))), kernel_size=kernel_size,
                        stride=stride)

    def test_dilation_follows_tensor_stride(self):
        # at stride 2, K=3 neighbours sit 2 lattice units away
        coords = np.array([[0, 0, 0, 0], [0, 2, 0, 0]])
        x = SparseTensor(coords, np.array([[1.0], [5.0]]), stride=2)
        w = Var(np.zeros((27, 1, 1)))
        w.value[kernel_offsets(3).index((1, 0, 0))] = 1.0
        out = sparse_conv(x, w, kernel_size=3)
        # output row at (0,0,0) sees the input at (2,0,0) through offset (1,0,0)
        assert out.features[0, 0] == 5.0


class TestTransposedConv:
    def test_single_voxel_scatters_to_eight(self):
        x = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[1.0]]), stride=2)
        w = Var(np.ones((8, 1, 1)))
        out = sparse_transposed_conv(x, w, kernel_size=2, stride=2)
        assert out.stride == 1
        assert sorted(map(tuple, out.coords[:, 1:].tolist())) == sorted(
            [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
        assert np.all(out.features == 1.0)

    def test_zero_features_zero_output(self):
        x = SparseTensor(np.array([[0, 0, 0, 0], [0, 2, 0, 0]]),
                         np.zeros((2, 1)), stride=2)
        out = sparse_transposed_conv(x, Var(np.ones((8, 1, 1))))
        assert np.all(out.features == 0.0)

    def test_adjoint_identity_with_conv(self):
        # <conv(x), y> == <x, transposed_conv(y)> with shared weights
        rng = np.random.default_rng(3)
        coords_in = np.unique(np.column_stack(
            [np.zeros(12, dtype=int), rng.integers(0, 4, size=(12, 3))]), axis=0)
        x = SparseTensor(coords_in, rng.normal(size=(len(coords_in), 2)))
        w = Var(rng.normal(size=(8, 2, 3)))
        fwd = sparse_conv(x, w, kernel_size=2, stride=2)
        y = SparseTensor(fwd.coords, rng.normal(size=(fwd.n, 3)),
                         stride=fwd.stride)
        # adjoint maps c_out back to c_in: transpose each offset matrix
        wt = Var(np.transpose(w.value, (0, 2, 1)))
        back = sparse_transposed_conv(y, wt, kernel_size=2, stride=2)
        lhs = float((fwd.features * y.features).sum())
        rows = coord_rows(back, x.coords)
        rhs = float((x.features * back.features[rows]).sum())
        assert abs(lhs - rhs) < 1e-8

    def test_indivisible_stride_rejected(self):
        x = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[1.0]]), stride=1)
        with pytest.raises(StrideError):
            sparse_transposed_conv(x, Var(np.ones((8, 1, 1))), stride=2)

    def test_rows_are_parent_plus_offset(self):
        # row i*8 + k is parent i moved by offset k at the output stride
        rng = np.random.default_rng(5)
        coords = np.unique(np.column_stack(
            [rng.integers(0, 2, size=20), 4 * rng.integers(-3, 3, size=(20, 3))]),
            axis=0)
        x = SparseTensor(coords, rng.normal(size=(len(coords), 2)), stride=4)
        out = sparse_transposed_conv(x, Var(rng.normal(size=(8, 2, 3))))
        assert out.stride == 2 and out.n == 8 * x.n
        offs = np.asarray(kernel_offsets(2))
        for i, parent in enumerate(x.coords):
            for k, off in enumerate(offs):
                assert out.coords[i * 8 + k].tolist() == (
                    parent + np.concatenate([[0], off * 2])).tolist()
        assert len(np.unique(out.coords, axis=0)) == out.n

    def test_output_owns_its_buffer(self):
        # an owned output is adopted by Grad.add, a view would be copied
        x = SparseTensor(np.array([[0, 0, 0, 0], [0, 2, 0, 0]]),
                         np.ones((2, 2)), stride=2)
        out = sparse_transposed_conv(x, Var(np.ones((8, 2, 3))))
        assert out.features.shape == (16, 3) and out.features.base is None

    def test_kernel_size_must_equal_stride(self):
        x = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[1.0]]), stride=2)
        with pytest.raises(ShapeError):
            sparse_transposed_conv(x, Var(np.ones((27, 1, 1))), kernel_size=3,
                                   stride=2)


class TestBatchNorm:
    def _tensor(self, col):
        col = np.asarray(col, dtype=float).reshape(-1, 1)
        coords = np.column_stack([np.zeros(len(col), dtype=int),
                                  np.arange(len(col)), np.zeros((len(col), 2), dtype=int)])
        return SparseTensor(coords, col)

    def test_constant_channel_maps_to_zero(self):
        out = BatchNorm(1)(self._tensor([1.0, 1.0, 1.0]), train=True)
        assert np.allclose(out.features, 0.0)

    def test_standardizes_two_values(self):
        bn = BatchNorm(1, eps=0.0)
        out = bn(self._tensor([0.0, 2.0]), train=True)
        assert np.allclose(out.features.ravel(), [-1.0, 1.0])

    def test_train_mode_statistics(self):
        rng = np.random.default_rng(0)
        coords = np.column_stack([np.zeros(16, dtype=int), np.arange(16),
                                  np.zeros((16, 2), dtype=int)])
        x = SparseTensor(coords, rng.normal(2.0, 3.0, size=(16, 8)))
        out = BatchNorm(8)(x, train=True)
        assert np.all(np.abs(out.features.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(out.features.var(axis=0) - 1.0) < 1e-4)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(1)
        bn.running_mean[:] = 5.0
        bn.running_var[:] = 4.0
        out = bn(self._tensor([7.0]), train=False)
        assert np.allclose(out.features, (7.0 - 5.0) / np.sqrt(4.0 + bn.eps))

    @pytest.mark.parametrize("train", [True, False])
    def test_backward_matches_xhat_formula(self, train):
        # |mu| / sigma ~ 1e3: the backward's sum(g * f) - mu * sum(g) cancels
        # about three of float64's sixteen digits
        rng = np.random.default_rng(7)
        n, c = 200, 6
        f = 1e3 + rng.normal(0.0, 1.0, size=(n, c))
        g = rng.normal(size=(n, c))
        bn = BatchNorm(c)
        bn.gamma.value = rng.uniform(0.5, 2.0, size=c)
        bn.beta.value = rng.normal(size=c)
        bn.running_mean = 1e3 + rng.normal(size=c)
        bn.running_var = rng.uniform(0.5, 2.0, size=c)
        if train:
            mu, var = f.mean(axis=0), f.var(axis=0)
        else:
            mu, var = bn.running_mean, bn.running_var
        inv = 1.0 / np.sqrt(var + bn.eps)
        xhat = (f - mu) * inv
        gamma = bn.gamma.value
        if train:
            want_gx = gamma * inv * (
                g - g.mean(axis=0) - xhat * (g * xhat).mean(axis=0))
        else:
            want_gx = g * gamma * inv
        coords = np.column_stack([np.zeros(n, dtype=int), np.arange(n),
                                  np.zeros((n, 2), dtype=int)])
        x = SparseTensor(coords, f.copy())
        tape = Tape()
        out = bn(x, tape=tape, train=train)
        tape.backward(out.fvar, g)
        for got, want in [(bn.gamma.grad, (g * xhat).sum(axis=0)),
                          (bn.beta.grad, g.sum(axis=0)),
                          (x.fvar.grad, want_gx)]:
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_empty_tensor_rejected(self):
        bn = BatchNorm(1)
        # the constructor refuses no voxels; from_keys trusts its caller
        x = SparseTensor.from_keys(np.empty(0, dtype=np.int64), np.empty((0, 1)))
        with pytest.raises(EmptyInput):
            bn(x)


class TestRelu:
    def test_clamps_negatives(self):
        x = SparseTensor(np.array([[0, i, 0, 0] for i in range(3)]),
                         np.array([[-1.0], [0.0], [2.0]]))
        assert relu(x).features.ravel().tolist() == [0.0, 0.0, 2.0]

    def test_positive_identity(self):
        x = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[0.5, 3.0]]))
        assert np.array_equal(relu(x).features, x.features)

    def test_subgradient_convention(self):
        x = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[-0.5, 0.5, 0.0]]))
        tape = Tape()
        out = relu(x, tape)
        total = Var(np.asarray(out.features.sum()))
        tape.record(lambda: out.fvar.add_grad(
            np.full_like(out.features, float(total.grad))))
        tape.backward(total)
        assert x.fvar.grad.ravel().tolist() == [0.0, 1.0, 0.0]


class TestSparseAdd:
    def test_identical_coords_elementwise_sum(self):
        coords = np.array([[0, 0, 0, 0], [0, 1, 0, 0]])
        a = SparseTensor(coords, np.array([[1.0], [2.0]]))
        b = SparseTensor(coords.copy(), np.array([[10.0], [20.0]]))
        out = sparse_add(a, b)
        assert out.features.ravel().tolist() == [11.0, 22.0]

    def test_disjoint_coords_refused(self):
        # the add is the residual add: one voxel set, in one row order
        coords = np.array([[0, 0, 0, 0], [0, 1, 0, 0]])
        a = SparseTensor(coords, np.array([[1.0], [2.0]]))
        for other in (np.array([[0, 2, 0, 0]]), coords[:1], coords[::-1]):
            b = SparseTensor(other, np.ones((len(other), 1)))
            with pytest.raises(ShapeError, match=f"got 2 and {len(other)} voxels"):
                sparse_add(a, b)

    def test_sum_on_first_operands_voxels(self):
        a = SparseTensor(np.array([[0, 0, 0, 0], [0, 1, 0, 0]]),
                         np.array([[1.0], [2.0]]))
        b = a.with_features(np.array([[10.0], [20.0]]))
        out = sparse_add(a, b)
        assert out._geom is a._geom
        assert out.features.ravel().tolist() == [11.0, 22.0]

    def test_additive_identity(self):
        coords = np.array([[0, 0, 0, 0], [0, 1, 1, 1]])
        a = SparseTensor(coords, np.array([[1.5], [-2.0]]))
        zero = SparseTensor(coords.copy(), np.zeros((2, 1)))
        out = sparse_add(a, zero)
        assert np.array_equal(out.features, a.features)
        assert np.array_equal(out.coords, a.coords)

    def test_stride_and_channel_guards(self):
        a = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[1.0]]), stride=1)
        b = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[1.0]]), stride=2)
        with pytest.raises(StrideError):
            sparse_add(a, b)
        c = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[1.0, 2.0]]))
        with pytest.raises(ShapeError):
            sparse_add(a, c)


class TestTapeSemantics:
    def test_no_tape_records_no_gradient(self):
        x = SparseTensor(np.array([[0, 0, 0, 0]]), np.array([[1.0]]))
        w = Var(np.array([[[2.0]]]))
        sparse_conv(x, w, kernel_size=1, tape=None)
        assert w.grad is None and x.fvar.grad is None

    def test_tape_single_use(self):
        from sparseloc.errors import TapeConsumed
        tape = Tape()
        out = Var(np.asarray(1.0))
        tape.backward(out)
        with pytest.raises(TapeConsumed):
            tape.backward(out)
