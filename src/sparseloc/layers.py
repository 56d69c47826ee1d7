"""Differentiable layers over sparse tensors.

Every layer takes an optional ``tape``; when given, a backward closure is
recorded so :meth:`Tape.backward` can later propagate gradients into the
layer parameters and the input feature Var.  Convolutions carry no bias
(batch norm follows the bottom-up convs; 1x1 and transposed convs stay
bias-free for uniformity).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tape, Var
from .errors import EmptyInput, ShapeError, StrideError
from .sparse import (SparseTensor, build_kernel_map, downsample_coords,
                     kernel_offsets, offset_key_delta)


def _check_channels(x: SparseTensor, c_in: int):
    if x.channels != c_in:
        raise ShapeError(f"expected {c_in} input channels, got {x.channels}")


def sparse_conv(x: SparseTensor, weight: Var, kernel_size: int,
                stride: int = 1, tape: Tape | None = None) -> SparseTensor:
    """Gather-multiply-scatter convolution through a kernel map.

    weight has shape (n_offsets, c_in, c_out).  stride > 1 needs an even
    kernel_size == stride and takes the downsample's lattice and kernel map.
    """
    w = weight.value
    n_off, c_in, c_out = w.shape
    if stride > 1 and (kernel_size != stride or kernel_size % 2):
        raise ShapeError(f"strided conv needs an even kernel_size == stride, "
                         f"got {kernel_size} and {stride}")
    if n_off != len(kernel_offsets(kernel_size)):
        raise ShapeError("weight offset count does not match kernel size")
    _check_channels(x, c_in)
    f = x.features
    out_coords = x.coords if stride == 1 else downsample_coords(x, stride)[0]
    # odd K at stride 1: the centre offset pairs every row with itself, so
    # its term is one plain GEMM (and the whole conv when K == 1)
    centre = n_off // 2 if stride == 1 and kernel_size % 2 else None
    out = np.zeros((len(out_coords), c_out)) if centre is None else f @ w[centre]
    segments = []
    if centre is None or n_off > 1:
        kmap = build_kernel_map(x, out_coords, kernel_size)
        b = kmap.bounds
        segments = [(k, kmap.rows_in[b[k]:b[k + 1]], kmap.rows_out[b[k]:b[k + 1]])
                    for k in range(n_off) if k != centre and b[k] < b[k + 1]]
        for k, ri, ro in segments:
            # rows unique within one offset: plain fancy-index add is safe
            out[ro] += f[ri] @ w[k]
    yvar = Var(out)
    if tape is not None:
        gwt, gxv = weight.acc, x.fvar.acc

        def backward(g):
            gw = np.zeros_like(w)
            if centre is None:
                gx = np.zeros_like(f)
            else:
                gx = g @ w[centre].T
                np.matmul(f.T, g, out=gw[centre])
            for k, ri, ro in segments:
                gk = g[ro]
                gx[ri] += gk @ w[k].T
                np.matmul(f[ri].T, gk, out=gw[k])
            gwt.add(gw)
            gxv.add(gx)

        tape.record_for(yvar, backward)
    return x.with_features(yvar, stride)


def sparse_transposed_conv(x: SparseTensor, weight: Var, kernel_size: int = 2,
                           stride: int = 2, tape: Tape | None = None) -> SparseTensor:
    """Upsampling convolution: each input voxel expands to coord + d * out_stride.

    Output stride is input stride / stride; the adjoint of ``sparse_conv``
    with the per-offset weight matrices transposed.  Only ``kernel_size ==
    stride`` is supported: every input voxel then owns its K^3 children, so
    output row ``i * K^3 + k`` is input row ``i`` shifted by offset ``k`` and
    the rows are distinct without any scatter or lookup table.
    """
    w = weight.value
    n_off, c_in, c_out = w.shape
    if kernel_size != stride:
        raise ShapeError(f"transposed conv needs kernel_size == stride, "
                         f"got {kernel_size} and {stride}")
    if n_off != len(kernel_offsets(kernel_size)):
        raise ShapeError("weight offset count does not match kernel size")
    _check_channels(x, c_in)
    if x.stride % stride:
        raise StrideError(f"stride {x.stride} not divisible by {stride}")
    out_stride = x.stride // stride
    deltas = np.array([offset_key_delta(off, out_stride)
                       for off in kernel_offsets(kernel_size)])
    out_keys = (x.keys()[:, None] + deltas).reshape(-1)
    f = x.features
    # (c_in, K^3 * c_out): one GEMM yields every child of an input row
    wbig = w.transpose(1, 0, 2).reshape(c_in, n_off * c_out)
    # written into an array of the output's shape, so the output owns it and
    # a consumer can hand it to Grad.add without a copy
    out = np.empty((len(f) * n_off, c_out))
    np.matmul(f, wbig, out=out.reshape(len(f), n_off * c_out))
    yvar = Var(out)
    if tape is not None:
        gwt, gxv = weight.acc, x.fvar.acc

        def backward(g):
            g = g.reshape(len(f), n_off * c_out)
            gxv.add(g @ wbig.T)
            gw = (f.T @ g).reshape(c_in, n_off, c_out)
            gwt.add(gw.transpose(1, 0, 2))

        tape.record_for(yvar, backward)
    return SparseTensor.from_keys(out_keys, yvar, out_stride)


class BatchNorm:
    """Per-channel batch normalization over all voxel rows."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Var(np.ones(channels))
        self.beta = Var(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def __call__(self, x: SparseTensor, tape: Tape | None = None,
                 train: bool = False) -> SparseTensor:
        f = x.features
        n = len(f)
        if n == 0:
            raise EmptyInput("batch norm over empty tensor")
        if f.shape[1] != self.channels:
            raise ShapeError(f"expected {self.channels} channels, got {f.shape[1]}")
        if train:
            mu = f.mean(axis=0)
            var = f.var(axis=0)
            m = self.momentum
            unbiased = var * n / (n - 1) if n > 1 else var
            self.running_mean = (1 - m) * self.running_mean + m * mu
            self.running_var = (1 - m) * self.running_var + m * unbiased
        else:
            mu, var = self.running_mean, self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        scale = self.gamma.value * inv
        out = f * scale
        out += self.beta.value - mu * scale
        yvar = Var(out)
        if tape is not None:
            gxv, gamma, beta = x.fvar.acc, self.gamma.acc, self.beta.acc

            def backward(g):
                # sum(g * xhat) with xhat = (f - mu) * inv, from f itself
                g_sum = g.sum(axis=0)
                g_xhat = inv * (np.einsum("ij,ij->j", g, f) - mu * g_sum)
                gamma.add(g_xhat)
                beta.add(g_sum)
                gx = g * scale
                if train:
                    # scale * (g - mean(g) - xhat * mean(g * xhat))
                    c = scale * inv * g_xhat / n
                    gx -= f * c
                    gx += c * mu - scale * g_sum / n
                gxv.add(gx)

            tape.record_for(yvar, backward)
        return x.with_features(yvar)


def relu(x: SparseTensor, tape: Tape | None = None) -> SparseTensor:
    f = x.features
    out = np.maximum(f, 0.0)
    yvar = Var(out)
    if tape is not None:
        mask = f > 0  # subgradient at exactly 0 is 0
        gxv = x.fvar.acc

        def backward(g):
            gxv.add(g * mask)

        tape.record_for(yvar, backward)
    return x.with_features(yvar)


def sparse_add(a: SparseTensor, b: SparseTensor,
               tape: Tape | None = None) -> SparseTensor:
    """Row-wise feature sum of two tensors on one voxel set, on ``a``'s voxels.

    This is the residual add: both operands share one geometry, or at least
    equal keys in the same order.  Any other pair is refused.
    """
    if a.stride != b.stride:
        raise StrideError(f"stride mismatch: {a.stride} vs {b.stride}")
    if a.channels != b.channels:
        raise ShapeError(f"channel mismatch: {a.channels} vs {b.channels}")
    if a._geom is not b._geom and not np.array_equal(a.keys(), b.keys()):
        raise ShapeError(f"sparse_add needs one voxel set, got {a.n} "
                         f"and {b.n} voxels on different coordinates")
    yvar = Var(a.features + b.features)
    if tape is not None:
        gy, ga, gb = yvar.acc, a.fvar.acc, b.fvar.acc

        def backward(g):
            # no closure reads gy after this one: release it so ``a`` may
            # adopt g, and hand ``b`` a view, which Grad.add copies
            gy.grad = None
            ga.add(g)
            gb.add(g[:])

        tape.record_for(yvar, backward)
    return a.with_features(yvar)


class SparseConv:
    """Convolution layer holding its weight tensor."""

    def __init__(self, c_in: int, c_out: int, kernel_size: int, stride: int = 1,
                 *, rng: np.random.Generator):
        self.c_in, self.c_out = c_in, c_out
        self.kernel_size = kernel_size
        self.stride = stride
        n_off = len(kernel_offsets(kernel_size))
        scale = np.sqrt(2.0 / (n_off * c_in))  # Kaiming fan-in
        self.weight = Var(rng.normal(0.0, scale, size=(n_off, c_in, c_out)))

    def __call__(self, x: SparseTensor, tape: Tape | None = None) -> SparseTensor:
        return sparse_conv(x, self.weight, self.kernel_size, self.stride, tape)
