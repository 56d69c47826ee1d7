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
                     kernel_offsets, offset_key_delta, unpack_keys)


def _check_channels(x: SparseTensor, c_in: int):
    if x.channels != c_in:
        raise ShapeError(f"expected {c_in} input channels, got {x.channels}")


def sparse_conv(x: SparseTensor, weight: Var, kernel_size: int,
                stride: int = 1, tape: Tape | None = None) -> SparseTensor:
    """Gather-multiply-scatter convolution through a kernel map.

    weight has shape (n_offsets, c_in, c_out).  stride > 1 places outputs on
    the downsampled lattice (stride-aligned floor of input coordinates).
    """
    w = weight.value
    n_off, c_in, c_out = w.shape
    if n_off != len(kernel_offsets(kernel_size)):
        raise ShapeError("weight offset count does not match kernel size")
    _check_channels(x, c_in)
    f = x.features
    if stride == 1:
        out_coords, out_stride = x.coords, x.stride
        out_geom = x._geom
    else:
        out_coords, out_stride = downsample_coords(x, stride)
        out_geom = None
    # odd K at stride 1: the centre offset pairs every row with itself, so
    # its term is one plain GEMM (and the whole conv when K == 1)
    centre = n_off // 2 if stride == 1 and kernel_size % 2 else None
    out = np.zeros((len(out_coords), c_out)) if centre is None else f @ w[centre]
    used = []
    if centre is None or n_off > 1:
        kmap = build_kernel_map(x, out_coords, kernel_size,
                                dilation_stride=x.stride,
                                cache_key=("conv", kernel_size, stride))
        for k, off in enumerate(kmap.offsets):
            hit = kmap.pairs.get(off)
            if hit is None or k == centre:
                continue
            ri, ro = hit
            # out rows unique within one offset: plain fancy-index add is safe
            out[ro] += f[ri] @ w[k]
            used.append((k, ri, ro))
    yvar = Var(out)
    if tape is not None:
        xvar = x.fvar

        def backward():
            g = yvar.grad
            if g is None:
                return
            gw = np.zeros_like(w)
            if centre is None:
                gx = np.zeros_like(f)
            else:
                gx = g @ w[centre].T
                gw[centre] = f.T @ g
            for k, ri, ro in used:
                gx[ri] += g[ro] @ w[k].T
                gw[k] += f[ri].T @ g[ro]
            weight.add_grad(gw)
            xvar.add_grad(gx)

        tape.record(backward)
    return SparseTensor(out_coords, yvar, stride=out_stride, validate=False,
                        geom=out_geom)


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
    out_coords = unpack_keys((x.keys()[:, None] + deltas).reshape(-1))
    f = x.features
    # (c_in, K^3 * c_out): one GEMM yields every child of an input row
    wbig = w.transpose(1, 0, 2).reshape(c_in, n_off * c_out)
    yvar = Var((f @ wbig).reshape(-1, c_out))
    if tape is not None:
        xvar = x.fvar

        def backward():
            g = yvar.grad
            if g is None:
                return
            g = g.reshape(len(f), n_off * c_out)
            xvar.add_grad(g @ wbig.T)
            gw = (f.T @ g).reshape(c_in, n_off, c_out)
            weight.add_grad(gw.transpose(1, 0, 2))

        tape.record(backward)
    return SparseTensor(out_coords, yvar, stride=out_stride, validate=False)


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
        if tape is None:
            # fused affine: f * (gamma * inv) + (beta - mu * gamma * inv)
            scale = self.gamma.value * inv
            out = f * scale + (self.beta.value - mu * scale)
            return SparseTensor(x.coords, Var(out), stride=x.stride,
                                validate=False, geom=x._geom)
        xhat = (f - mu) * inv
        out = self.gamma.value * xhat + self.beta.value
        yvar = Var(out)
        if tape is not None:
            gamma, beta, xvar = self.gamma, self.beta, x.fvar

            def backward():
                g = yvar.grad
                if g is None:
                    return
                gamma.add_grad((g * xhat).sum(axis=0))
                beta.add_grad(g.sum(axis=0))
                if train:
                    gx = gamma.value * inv * (
                        g - g.mean(axis=0) - xhat * (g * xhat).mean(axis=0))
                else:
                    gx = g * gamma.value * inv
                xvar.add_grad(gx)

            tape.record(backward)
        return SparseTensor(x.coords, yvar, stride=x.stride, validate=False,
                            geom=x._geom)


def relu(x: SparseTensor, tape: Tape | None = None) -> SparseTensor:
    f = x.features
    out = np.maximum(f, 0.0)
    yvar = Var(out)
    if tape is not None:
        mask = f > 0  # subgradient at exactly 0 is 0
        xvar = x.fvar

        def backward():
            g = yvar.grad
            if g is None:
                return
            xvar.add_grad(g * mask)

        tape.record(backward)
    return SparseTensor(x.coords, yvar, stride=x.stride, validate=False,
                        geom=x._geom)


def sparse_add(a: SparseTensor, b: SparseTensor,
               tape: Tape | None = None) -> SparseTensor:
    """Feature sum over the coordinate union, zero-filled where one side is absent."""
    if a.stride != b.stride:
        raise StrideError(f"stride mismatch: {a.stride} vs {b.stride}")
    if a.channels != b.channels:
        raise ShapeError(f"channel mismatch: {a.channels} vs {b.channels}")
    if a.coords is b.coords or a._geom is b._geom:
        # shared coordinate set (e.g. a residual branch): direct row-wise sum
        yvar = Var(a.features + b.features)
        if tape is not None:
            avar, bvar = a.fvar, b.fvar

            def backward_same():
                g = yvar.grad
                if g is None:
                    return
                avar.add_grad(g)
                bvar.add_grad(g)

            tape.record(backward_same)
        return SparseTensor(a.coords, yvar, stride=a.stride, validate=False,
                            geom=a._geom)
    rows_b = a.rows_of(b.coords)
    new_mask = rows_b < 0
    out_coords = np.concatenate([a.coords, b.coords[new_mask]])
    rows_b = np.where(new_mask, len(a.coords) + np.cumsum(new_mask) - 1, rows_b)
    out = np.zeros((len(out_coords), a.channels))
    out[: a.n] = a.features
    out[rows_b] += b.features
    yvar = Var(out)
    if tape is not None:
        avar, bvar, na = a.fvar, b.fvar, a.n

        def backward():
            g = yvar.grad
            if g is None:
                return
            avar.add_grad(g[:na])
            bvar.add_grad(g[rows_b])

        tape.record(backward)
    return SparseTensor(out_coords, yvar, stride=a.stride, validate=False)


class SparseConv:
    """Convolution layer holding its weight tensor."""

    def __init__(self, c_in: int, c_out: int, kernel_size: int, stride: int = 1,
                 transposed: bool = False, rng: np.random.Generator | None = None):
        self.c_in, self.c_out = c_in, c_out
        self.kernel_size = kernel_size
        self.stride = stride
        self.transposed = transposed
        n_off = len(kernel_offsets(kernel_size))
        rng = rng or np.random.default_rng()
        scale = np.sqrt(2.0 / (n_off * c_in))  # Kaiming fan-in
        self.weight = Var(rng.normal(0.0, scale, size=(n_off, c_in, c_out)))

    def __call__(self, x: SparseTensor, tape: Tape | None = None) -> SparseTensor:
        if self.transposed:
            return sparse_transposed_conv(x, self.weight, self.kernel_size,
                                          self.stride, tape)
        return sparse_conv(x, self.weight, self.kernel_size, self.stride, tape)
