"""Differentiable layers over sparse tensors.

Every layer takes an optional ``tape``; when given, a backward closure is
recorded so :meth:`Tape.backward` can later propagate gradients into the
layer parameters and the input feature Var.  Convolutions carry no bias
(batch norm follows the bottom-up convs; 1x1 and transposed convs stay
bias-free for uniformity).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .autodiff import Tape, Var
from .errors import EmptyInput, ShapeError, StrideError
from .sparse import (SparseTensor, build_kernel_map, downsample_coords,
                     kernel_offsets, offset_key_delta)


# Least multiply-adds per unit for which an op runs as two halves.  A unit
# is one offset's GEMM of a 1x1 or transposed conv, a block of recall
# queries, or a quarter of one half of a pass over a kernel map's offsets
# (so such a half splits from 10 M, in the forward's count).  Each
# unit's numpy steps hold the GIL for a few microseconds, so the halves gain
# only where the GEMMs between those steps are long.  On a 2-core Xeon with
# one BLAS thread, split against whole: conv forwards cut by offsets, at
# 4-7.4 M per half (eval stride 2 and strided) ran 0.9-1.2x the whole time,
# at 8.4-17 M (train batch, strides 1 and 2) 0.63-0.71x, at 25-35 M (eval
# stride 8) 0.70-0.91x and at 57-169 M 0.49-0.80x; cut by rows, eval convs
# at 0.5 M per offset ran 2.2-2.9x slower and at 4.2-4.8 M 1.4x faster; the
# recall screen at 6.5 M per 64-query block ran 1.23-1.36x faster, and it
# splits at 10.2 M per block (two blocks of 100 queries per half at
# Q = N = 400, 256 dimensions).
_SPLIT_WORK = 2_500_000

_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    # a child forked after the pool started has no worker thread, and may
    # hold the lock of a thread that was creating one
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_forget_pool)


# numpy's OpenBLAS thread-count calls, by the names its builds export
_BLAS_THREAD_CALLS = ("scipy_openblas_{}_num_threads64_",
                      "scipy_openblas_{}_num_threads",
                      "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _blas_threads(count: int | None = None) -> int | None:
    """The BLAS thread count in effect in numpy's OpenBLAS, set to ``count``
    first when given.  None, with nothing set, when numpy's core library
    exports none of ``_BLAS_THREAD_CALLS`` (another BLAS)."""
    import ctypes
    try:
        core = getattr(np, "_core", None) or np.core
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in _BLAS_THREAD_CALLS:
        get = getattr(lib, name.format("get"), None)
        put = getattr(lib, name.format("set"), None)
        if get and put:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            if count is not None:
                put(count)
            return get()
    return None


def _split(fn, n: int, work: float) -> list:
    """Call ``fn(lo, hi)`` so that it covers ``range(n)`` once, and return
    what each call returned, in range order.

    With two CPUs in this process's affinity (the machine's off Linux) and
    ``work`` multiply-adds per unit of at least ``_SPLIT_WORK``,
    ``fn(n // 2, n)`` runs on a pooled worker thread, under the caller's
    numpy error state, while ``fn(0, n // 2)`` runs here, and the result is
    ``[fn(0, n // 2), fn(n // 2, n)]``; otherwise it is ``[fn(0, n)]``, run
    here.  Either way it returns once all of ``range(n)`` is done and
    raises what a half raised.

    The halves share the GIL, so they gain only where their time goes to
    calls that release it: BLAS, ``np.take``, sorts, searches and large
    ufunc loops.  A half may run Python between such calls (the stem half
    of ``MinkFPN``), but short steps that hold the GIL starve the other.
    Neither half writes what the other reads or writes, and no half calls
    ``_split``: the pool has one worker, so a nested submit from the
    worker's half would wait on itself, and one from the caller's half
    would queue behind the worker's.
    """
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if n < 2 or work < _SPLIT_WORK or cpus < 2:
        return [fn(0, n)]
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here, so a process that never splits never loads it
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=1,
                                       thread_name_prefix="sparseloc")
        second = _pool.submit(_under_errstate, np.geterr(), np.geterrcall(),
                              fn, n // 2, n)
    try:
        first = fn(0, n // 2)
    finally:
        # the worker writes into the caller's arrays: wait for it even when
        # this half raised, whose error then wins over the worker's
        second.exception()
    return [first, second.result()]


def _under_errstate(err: dict, call, fn, lo: int, hi: int):
    # numpy's error state is per thread: the worker takes the caller's
    with np.errstate(call=call, **err):
        return fn(lo, hi)


def _both(first, second, work: float) -> list:
    """``[first(), second()]``, the two calls run as :func:`_split`'s
    halves."""
    return sum(_split(lambda lo, hi: [job() for job in (first, second)[lo:hi]],
                      2, work), [])


def _scatter_add(dst: np.ndarray, rows: np.ndarray, src: np.ndarray):
    """``dst[rows] += src`` for distinct rows of a C-ordered ``dst``,
    through ``np.take`` and a store of whole rows as single records: numpy's
    fancy-index row store holds the GIL, and this one mostly does not."""
    tmp = np.take(dst, rows, axis=0)
    tmp += src
    record = np.dtype((np.void, dst.shape[1] * dst.itemsize))
    dst.view(record).reshape(-1)[rows] = tmp.view(record).reshape(-1)


def _offset_halves(terms, n_rows: int, c: int, add, work: float):
    """The one loop over a kernel map's offsets ``terms``, ``(k, ri, ro)``
    or a first ``(centre, None, None)`` that ``add`` writes whole: the sum
    of ``add(k, ri, ro, dst)`` into a new ``n_rows`` x ``c`` array, as two
    partial sums in term order added at the end, also on one thread.  The
    cut falls where the pairs halve (the centre counts ``n_rows``), so a
    conv's forward and backward cut alike; at ``work`` multiply-adds per
    pair, the halves run on two threads from 10 M each."""
    sizes = np.cumsum([n_rows if ri is None else len(ri) for _, ri, _ in terms])
    cut = 1 + int(np.abs(sizes - sizes[-1] / 2).argmin())
    rest = np.zeros((n_rows, c))
    out = np.empty_like(rest) if terms[0][1] is None else np.zeros_like(rest)
    # the work of a half, in quarters: see _SPLIT_WORK
    _both(lambda: [add(*term, out) for term in terms[:cut]],
          lambda: [add(*term, rest) for term in terms[cut:]],
          sizes[-1] * work / 8)
    out += rest
    return out


def _dense_rows(x: SparseTensor, weight: Var, tape: Tape | None) -> Var:
    """Row ``i * n + k`` is ``f_i W_k`` for the ``n`` offsets of
    ``weight``: the 1x1 conv (``n = 1``) and the transposed conv.  The
    forward is cut by rows; the backward runs ``g Wᵀ`` and ``fᵀ g``, whose
    kernel OpenBLAS picks by size, whole as the two calls of :func:`_both`."""
    w = weight.value
    n_off, c_in, c_out = w.shape
    f = x.features
    # (c_in, n * c_out): one GEMM yields every output row of an input row
    wbig = w.transpose(1, 0, 2).reshape(c_in, n_off * c_out)
    # written into an array of the output's shape, so the output owns it and
    # a consumer can hand it to Grad.add without a copy
    out = np.empty((len(f) * n_off, c_out))
    out2d = out.reshape(len(f), n_off * c_out)
    work = len(f) * c_in * c_out
    # numpy hands a one-row half to gemv, which rounds unlike gemm's rows
    if len(f) < 4:
        np.matmul(f, wbig, out=out2d)
    else:
        _split(lambda lo, hi: np.matmul(f[lo:hi], wbig, out=out2d[lo:hi]),
               len(f), work)
    yvar = Var(out)
    if tape is not None:
        gwt, gxv = weight.acc, x.fvar.acc

        def backward(g):
            g = g.reshape(len(f), n_off * c_out)
            gx, gw = _both(lambda: g @ wbig.T, lambda: f.T @ g, work)
            gxv.add(gx)
            gwt.add(gw.reshape(c_in, n_off, c_out).transpose(1, 0, 2))

        tape.record_for(yvar, backward)
    return yvar


def _check_weight(x: SparseTensor, w: np.ndarray, kernel_size: int):
    if len(w) != len(kernel_offsets(kernel_size)):
        raise ShapeError("weight offset count does not match kernel size")
    if x.channels != w.shape[1]:
        raise ShapeError(f"expected {w.shape[1]} input channels, "
                         f"got {x.channels}")


def sparse_conv(x: SparseTensor, weight: Var, kernel_size: int,
                stride: int = 1, tape: Tape | None = None) -> SparseTensor:
    """Gather-multiply-scatter convolution through a kernel map.

    weight has shape (n_offsets, c_in, c_out).  stride > 1 needs an even
    kernel_size == stride and takes the downsample's lattice and kernel map.

    A 1x1 conv is one GEMM (:func:`_dense_rows`).  Otherwise both
    directions are one pass over the map's offsets (:func:`_offset_halves`):
    the forward adds ``f[ri] W_k`` into rows ``ro``; the backward is that
    pass on ``g``, adding ``g[ro] W_kᵀ`` into rows ``ri`` and writing
    ``∂W_k = f[ri]ᵀ g[ro]`` from the same gathered rows.  With one input
    channel (the stem) the forward is one GEMM instead, on one thread: an
    (n_out, K³) matrix holding ``f[ri]`` at row ``ro``, column k, times
    the weights stacked by offset.  It releases the GIL where the pass
    would hold it for ~10 short numpy calls per offset.  Against the pass,
    the stem outputs of 40 4096-point bench clouds moved by at most 3.8e-16
    of their largest entry.  The backward stays the pass: at a 32-cloud
    batch a GEMM backward took 9.1 ms against its 1.7.  The bits do not
    depend on the thread count.  Against sums in one buffer, descriptors of
    4096-point clouds moved by at most 8e-16 relative, and a taped step's
    gradients by 1e-14 of their largest entry (the stem's weight 4e-14).
    """
    w = weight.value
    n_off, c_in, c_out = w.shape
    if stride > 1 and (kernel_size != stride or kernel_size % 2):
        raise ShapeError(f"strided conv needs an even kernel_size == stride, "
                         f"got {kernel_size} and {stride}")
    _check_weight(x, w, kernel_size)
    if n_off == 1:
        return x.with_features(_dense_rows(x, weight, tape))
    f = x.features
    out_coords = x.coords if stride == 1 else downsample_coords(x, stride)[0]
    kmap = build_kernel_map(x, out_coords, kernel_size)
    b = kmap.bounds
    # odd K at stride 1: the centre pairs each row with itself, one GEMM
    centre = n_off // 2 if stride == 1 and kernel_size % 2 else None
    terms = [] if centre is None else [(centre, None, None)]
    terms += [(k, kmap.rows_in[b[k]:b[k + 1]], kmap.rows_out[b[k]:b[k + 1]])
              for k in range(n_off) if k != centre and b[k] < b[k + 1]]

    def forward(k, ri, ro, dst):
        if ri is None:
            np.matmul(f, w[k], out=dst)
        else:
            # rows are unique within one offset: each is stored once
            _scatter_add(dst, ro, np.take(f, ri, axis=0) @ w[k])

    if c_in == 1:
        cols = np.zeros((len(out_coords), n_off))
        k = np.repeat(np.arange(n_off), np.diff(b))
        cols[kmap.rows_out, k] = f[kmap.rows_in, 0]
        yvar = Var(cols @ w.reshape(n_off, c_out))
    else:
        yvar = Var(_offset_halves(terms, len(out_coords), c_out, forward,
                                  c_in * c_out))
    if tape is not None:
        gwt, gxv = weight.acc, x.fvar.acc

        def backward(g):
            gw = np.zeros_like(w)

            def transposed(k, ri, ro, dst):
                if ri is None:
                    np.matmul(g, w[k].T, out=dst)
                    np.matmul(f.T, g, out=gw[k])
                else:
                    gr = np.take(g, ro, axis=0)
                    _scatter_add(dst, ri, gr @ w[k].T)
                    np.matmul(np.take(f, ri, axis=0).T, gr, out=gw[k])

            gxv.add(_offset_halves(terms, len(f), c_in, transposed,
                                   c_in * c_out))
            gwt.add(gw)

        tape.record_for(yvar, backward)
    return x.with_features(yvar, stride)


def sparse_transposed_conv(x: SparseTensor, weight: Var, kernel_size: int = 2,
                           stride: int = 2, tape: Tape | None = None) -> SparseTensor:
    """Upsampling convolution: each input voxel expands to coord + d * out_stride.

    Output stride is input stride / stride; the adjoint of ``sparse_conv``
    with the per-offset weight matrices transposed.  Only ``kernel_size ==
    stride`` is supported: every input voxel then owns its K^3 children, so
    output row ``i * K^3 + k`` is input row ``i`` shifted by offset ``k`` and
    the rows are distinct without any scatter or lookup table
    (:func:`_dense_rows`).
    """
    if kernel_size != stride:
        raise ShapeError(f"transposed conv needs kernel_size == stride, "
                         f"got {kernel_size} and {stride}")
    _check_weight(x, weight.value, kernel_size)
    if x.stride % stride:
        raise StrideError(f"stride {x.stride} not divisible by {stride}")
    out_stride = x.stride // stride
    deltas = np.array([offset_key_delta(off, out_stride)
                       for off in kernel_offsets(kernel_size)])
    out_keys = (x.keys()[:, None] + deltas).reshape(-1)
    return SparseTensor.from_keys(out_keys, _dense_rows(x, weight, tape),
                                  out_stride)


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
        self.kernel_size = kernel_size
        self.stride = stride
        n_off = len(kernel_offsets(kernel_size))
        scale = np.sqrt(2.0 / (n_off * c_in))  # Kaiming fan-in
        self.weight = Var(rng.normal(0.0, scale, size=(n_off, c_in, c_out)))

    def __call__(self, x: SparseTensor, tape: Tape | None = None) -> SparseTensor:
        return sparse_conv(x, self.weight, self.kernel_size, self.stride, tape)
