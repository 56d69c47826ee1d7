"""Network assembly: FPN-style sparse backbone plus GeM/MAC pooling head.

The backbone follows the MinkFPN layout: a K=5 stem, three bottom-up blocks
(stride-2 downsampling conv followed by a two-conv residual block, each conv
trailed by batch norm + ReLU), then 1x1 lateral projections and a single
K=2/s=2 transposed conv fused by sparse addition.  The head pools the fused
feature map into one global descriptor per batch item.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Var
from .errors import EmptyInput, FormatError, ShapeError
from .layers import (BatchNorm, SparseConv, relu, sparse_add,
                     sparse_transposed_conv)
from .sparse import PointCloud, SparseTensor, concat_tensors, quantize

_CKPT_MAGIC = b"SLCKPT1\n"


@dataclass
class ModelConfig:
    conv0_ch: int = 32
    conv1_ch: int = 32
    conv2_ch: int = 64
    conv3_ch: int = 64
    descriptor_dim: int = 256
    pooling: str = "gem"  # gem | mac
    gem_p_init: float = 3.0
    quantization_step: float = 0.01
    normalize: bool = False  # optional L2-normalization of descriptors


@dataclass
class Descriptor:
    values: np.ndarray
    source_id: object = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("descriptor contains non-finite values")


def _batch_slices(coords: np.ndarray):
    """Row order grouping batch items (None if they are already), ascending
    batch ids, and each item's (start, end) rows in that order."""
    batch = coords[:, 0]
    order = None
    if np.any(batch[1:] < batch[:-1]):
        order = np.argsort(batch, kind="stable")
        batch = batch[order]
    ids, starts = np.unique(batch, return_index=True)
    ends = np.append(starts[1:], len(batch))
    return order, ids.tolist(), list(zip(starts, ends))


def gem_pool(fmap: SparseTensor, p_var: Var, tape: Tape | None = None,
             eps: float = 1e-6):
    """Generalized-mean pooling per batch item.

    g_k = (mean_j clamp(f_jk, eps)^p)^(1/p); differentiable in features and p.
    Returns (Var of shape (B, c), list of batch ids).

    Items are contiguous row slices of one fresh buffer c = clamp(f, eps),
    raised to p in place (by einsum for small integer p without a tape; into
    a kept second buffer with one).  Where the direct power could overflow,
    values are max * (mean (c/max)^p)^(1/p), so the ratios stay in (0, 1].
    """
    f = fmap.features
    if len(f) == 0:
        raise EmptyInput("cannot pool an empty feature map")
    p = float(p_var.value)
    order, ids, bounds = _batch_slices(fmap.coords)
    c = np.maximum(f if order is None else f[order], eps)
    # skip the ratio normalization when the direct power cannot overflow
    direct = p * np.log(max(float(c.max()), 1.0)) < 300.0
    # eval mode with a small integer p: single-pass reduction, no temporaries
    use_einsum = tape is None and p == int(p) and 2 <= p <= 4
    powers = c if tape is None else np.empty_like(c)   # (c/max)^p
    maxes = np.ones((len(ids), f.shape[1]))
    means = np.empty_like(maxes)
    for b, (s, e) in enumerate(bounds):
        r = c[s:e]
        if not direct:
            maxes[b] = r.max(axis=0)
            r = np.divide(r, maxes[b], out=powers[s:e])
        if use_einsum:
            sub = ",".join(["ij"] * int(p)) + "->j"
            means[b] = np.einsum(sub, *([r] * int(p))) / (e - s)
        else:
            means[b] = np.power(r, p, out=powers[s:e]).sum(axis=0) / (e - s)
    out = maxes * means ** (1.0 / p)
    yvar = Var(out)
    if tape is not None:
        fvar = fmap.fvar

        def backward():
            g = yvar.grad
            if g is None:
                return
            gc = np.empty_like(c)
            gp = 0.0
            for b, (s, e) in enumerate(bounds):
                n_b, cb, pb = e - s, c[s:e], powers[s:e]
                # d g_k / d c_jk = (1/n) mean^(1/p - 1) (c/max)^p max / c:
                # the max factor cancels in g, so it is treated as a constant
                gb = np.divide(pb, cb, out=gc[s:e])
                gb *= g[b] * means[b] ** (1.0 / p - 1.0) * maxes[b] / n_b
                gb *= cb > eps
                # mean (c/max)^p log(c/max)
                mlog = (np.einsum("ij,ij->j", pb, np.log(cb)) / n_b
                        - means[b] * np.log(maxes[b]))
                dy_dp = out[b] * (mlog / (p * means[b])
                                  - np.log(means[b]) / p ** 2)
                gp += float((g[b] * dy_dp).sum())
            if order is not None:
                gc[order] = gc.copy()
            fvar.add_grad(gc)
            p_var.add_grad(np.asarray(gp))

        tape.record(backward)
    return yvar, ids


def mac_pool(fmap: SparseTensor, tape: Tape | None = None):
    """Per-channel global max over each batch item's rows."""
    f = fmap.features
    if len(f) == 0:
        raise EmptyInput("cannot pool an empty feature map")
    order, ids, bounds = _batch_slices(fmap.coords)
    rows = np.arange(len(f)) if order is None else order
    argmax = [rows[s:e][np.argmax(f[rows[s:e]], axis=0)] for s, e in bounds]
    out = np.stack([f[am, np.arange(f.shape[1])] for am in argmax])
    yvar = Var(out)
    if tape is not None:
        fvar = fmap.fvar

        def backward():
            g = yvar.grad
            if g is None:
                return
            gf = np.zeros_like(f)
            cols = np.arange(f.shape[1])
            for b, am in enumerate(argmax):
                np.add.at(gf, (am, cols), g[b])
            fvar.add_grad(gf)

        tape.record(backward)
    return yvar, ids


class _ConvBlock:
    """Stride-2 downsampling conv followed by a two-conv residual block."""

    def __init__(self, c_in, c_out, rng):
        self.down = SparseConv(c_in, c_out, kernel_size=2, stride=2, rng=rng)
        self.down_bn = BatchNorm(c_out)
        self.res1 = SparseConv(c_out, c_out, kernel_size=3, rng=rng)
        self.res1_bn = BatchNorm(c_out)
        self.res2 = SparseConv(c_out, c_out, kernel_size=3, rng=rng)
        self.res2_bn = BatchNorm(c_out)

    def __call__(self, x, tape=None, train=False):
        x = relu(self.down_bn(self.down(x, tape), tape, train), tape)
        y = relu(self.res1_bn(self.res1(x, tape), tape, train), tape)
        y = relu(self.res2_bn(self.res2(y, tape), tape, train), tape)
        return sparse_add(y, x, tape)


def _compose(lateral: Var, tconv: Var, tape: Tape | None) -> Var:
    """Per-offset product W_k = W_l . W_t,k of a 1x1 conv and a transposed conv.

    The fused gradient splits exactly into the two factors:
    gW_l = sum_k gF_k . W_t,k^T and gW_t,k = W_l^T . gF_k.
    """
    wl = lateral.value[0]                     # (c_in, d)
    wt = tconv.value                          # (n_off, d, d)
    fused = Var(wl @ wt)                      # (n_off, c_in, d)
    if tape is not None:

        def backward():
            g = fused.grad
            if g is None:
                return
            lateral.add_grad(np.tensordot(g, wt, axes=([0, 2], [0, 2]))[None])
            tconv.add_grad(wl.T @ g)

        tape.record(backward)
    return fused


def _add_lateral(top: SparseTensor, lateral: SparseTensor,
                 tape: Tape | None) -> SparseTensor:
    """top + lateral in place in top's fresh buffer.  Each lateral voxel is
    a child of its stride-8 parent, so top already holds all of them."""
    rows = top.rows_of(lateral.coords)
    if rows.min() < 0:
        raise ShapeError("lateral voxel has no parent in the upsampled map")
    top.features[rows] += lateral.features
    if tape is not None:
        # top keeps its Var, so the transposed conv receives the gradient as is
        out, lvar = top.fvar, lateral.fvar

        def backward():
            if out.grad is not None:
                lvar.add_grad(out.grad[rows])

        tape.record(backward)
    return top


class MinkFPN:
    """Local feature extraction: bottom-up pyramid with one top-down fusion."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.descriptor_dim
        self.conv0 = SparseConv(1, cfg.conv0_ch, kernel_size=5, rng=rng)
        self.conv0_bn = BatchNorm(cfg.conv0_ch)
        self.block1 = _ConvBlock(cfg.conv0_ch, cfg.conv1_ch, rng)
        self.block2 = _ConvBlock(cfg.conv1_ch, cfg.conv2_ch, rng)
        self.block3 = _ConvBlock(cfg.conv2_ch, cfg.conv3_ch, rng)
        self.lateral2 = SparseConv(cfg.conv2_ch, d, kernel_size=1, rng=rng)
        self.lateral3 = SparseConv(cfg.conv3_ch, d, kernel_size=1, rng=rng)
        self.tconv3 = SparseConv(d, d, kernel_size=2, stride=2, transposed=True,
                                 rng=rng)

    def __call__(self, x: SparseTensor, tape: Tape | None = None,
                 train: bool = False) -> SparseTensor:
        if x.channels != 1:
            raise ShapeError("backbone expects a single-channel input tensor")
        x = relu(self.conv0_bn(self.conv0(x, tape), tape, train), tape)
        x1 = self.block1(x, tape, train)      # stride 2
        x2 = self.block2(x1, tape, train)     # stride 4
        x3 = self.block3(x2, tape, train)     # stride 8
        # the 1x1 lateral and the transposed conv are adjacent linear maps,
        # so they run as one low-rank upsampling conv, back to stride 4
        fused = _compose(self.lateral3.weight, self.tconv3.weight, tape)
        top = sparse_transposed_conv(x3, fused, kernel_size=2, stride=2,
                                     tape=tape)
        return _add_lateral(top, self.lateral2(x2, tape), tape)


class MinkLoc:
    """Point cloud to global descriptor: quantize, backbone, pooling head."""

    def __init__(self, cfg: ModelConfig | None = None, seed: int = 0):
        self.cfg = cfg or ModelConfig()
        rng = np.random.default_rng(seed)
        self.backbone = MinkFPN(self.cfg, rng)
        self.gem_p = Var(np.asarray(float(self.cfg.gem_p_init)))

    # -- forward -----------------------------------------------------------

    def pool(self, fmap: SparseTensor, tape: Tape | None = None):
        if self.cfg.pooling == "mac":
            return mac_pool(fmap, tape)
        return gem_pool(fmap, self.gem_p, tape)

    def embed_tensor(self, st: SparseTensor, tape: Tape | None = None,
                     train: bool = False):
        """Returns (descriptor matrix Var of shape (B, d), batch ids)."""
        fmap = self.backbone(st, tape, train)
        emb, batch_ids = self.pool(fmap, tape)
        if self.cfg.normalize:
            emb = _l2_normalize(emb, tape)
        return emb, batch_ids

    def embed_clouds(self, clouds: list[PointCloud], tape: Tape | None = None,
                     train: bool = False):
        st = batch_tensor(clouds, self.cfg.quantization_step)
        return self.embed_tensor(st, tape, train)

    # -- parameters --------------------------------------------------------

    def named_params(self) -> dict[str, Var]:
        out = {"conv0.w": self.backbone.conv0.weight}
        out.update(_bn_params("conv0.bn", self.backbone.conv0_bn))
        for i, blk in enumerate(
                (self.backbone.block1, self.backbone.block2, self.backbone.block3), 1):
            out[f"conv{i}.down.w"] = blk.down.weight
            out.update(_bn_params(f"conv{i}.down.bn", blk.down_bn))
            out[f"conv{i}.res1.w"] = blk.res1.weight
            out.update(_bn_params(f"conv{i}.res1.bn", blk.res1_bn))
            out[f"conv{i}.res2.w"] = blk.res2.weight
            out.update(_bn_params(f"conv{i}.res2.bn", blk.res2_bn))
        out["lateral2.w"] = self.backbone.lateral2.weight
        out["lateral3.w"] = self.backbone.lateral3.weight
        out["tconv3.w"] = self.backbone.tconv3.weight
        if self.cfg.pooling == "gem":
            out["gem.p"] = self.gem_p
        return out

    def _batch_norms(self) -> dict[str, BatchNorm]:
        bns = {"conv0.bn": self.backbone.conv0_bn}
        for i, blk in enumerate(
                (self.backbone.block1, self.backbone.block2, self.backbone.block3), 1):
            bns[f"conv{i}.down.bn"] = blk.down_bn
            bns[f"conv{i}.res1.bn"] = blk.res1_bn
            bns[f"conv{i}.res2.bn"] = blk.res2_bn
        return bns

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: var.value.copy() for name, var in self.named_params().items()}
        for name, bn in self._batch_norms().items():
            state[f"{name}.mean"] = bn.running_mean.copy()
            state[f"{name}.var"] = bn.running_var.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]):
        def fetch(name: str, shape: tuple) -> np.ndarray:
            if name not in state:
                raise FormatError(f"checkpoint missing entry {name}")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != shape:
                raise FormatError(f"checkpoint shape mismatch for {name}: "
                                  f"{arr.shape} vs {shape}")
            return arr.copy()

        for name, var in self.named_params().items():
            var.value = fetch(name, var.value.shape)
        for name, bn in self._batch_norms().items():
            bn.running_mean = fetch(f"{name}.mean", bn.running_mean.shape)
            bn.running_var = fetch(f"{name}.var", bn.running_var.shape)

    def param_count(self) -> int:
        return sum(v.value.size for v in self.named_params().values())


def _bn_params(prefix: str, bn: BatchNorm) -> dict[str, Var]:
    return {f"{prefix}.gamma": bn.gamma, f"{prefix}.beta": bn.beta}


def _l2_normalize(emb: Var, tape: Tape | None):
    norms = np.linalg.norm(emb.value, axis=1, keepdims=True)
    norms = np.maximum(norms, 1e-12)
    yvar = Var(emb.value / norms)
    if tape is not None:
        x, y = emb.value, yvar.value

        def backward():
            g = yvar.grad
            if g is None:
                return
            emb.add_grad((g - y * (g * y).sum(axis=1, keepdims=True)) / norms)

        tape.record(backward)
    return yvar


def batch_tensor(clouds: list[PointCloud], step: float) -> SparseTensor:
    """Quantize each cloud with its batch index and stack, canonical row order.

    Sorting by packed coordinate key fixes the accumulation order so the
    result is independent of input point ordering.
    """
    parts = [quantize(c, step, batch=i, canonical=True)
             for i, c in enumerate(clouds)]
    out = concat_tensors(parts, validate=False)
    # the batch index occupies the top key bits, so canonically ordered
    # parts concatenate into a globally key-sorted tensor
    keys = np.concatenate([p._geom.keys for p in parts])
    out._geom.keys = keys
    out._geom.sorted = (keys, np.arange(len(keys)))
    return out


def compute_descriptor(cloud: PointCloud, model: MinkLoc) -> Descriptor:
    """Deterministic eval-mode descriptor for a single cloud."""
    pts = cloud.points
    if pts.size and (pts.min() < -1.0 or pts.max() > 1.0):
        warnings.warn("point coordinates fall outside [-1, 1]", stacklevel=2)
    emb, _ = model.embed_clouds([cloud], tape=None, train=False)
    return Descriptor(emb.value[0], source_id=cloud.source_id)


# -- checkpoint file -------------------------------------------------------
# Layout: magic, uint32 little-endian header length, JSON header listing
# (name, shape, offset) per array, then concatenated float64 LE payloads.

def save_checkpoint(path: str, state: dict[str, np.ndarray]):
    header = []
    offset = 0
    blobs = []
    for name in sorted(state):
        shape = list(np.shape(state[name]))
        # ascontiguousarray promotes 0-d to 1-d, so record the shape first
        arr = np.ascontiguousarray(state[name], dtype="<f8")
        header.append({"name": name, "shape": shape, "offset": offset})
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    hdr = json.dumps(header).encode()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(hdr)))
        fh.write(hdr)
        for blob in blobs:
            fh.write(blob)
    os.replace(tmp, path)  # atomic publish


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_CKPT_MAGIC):
        raise FormatError(f"{path}: not a checkpoint file")
    try:
        (hlen,) = struct.unpack_from("<I", data, len(_CKPT_MAGIC))
        start = len(_CKPT_MAGIC) + 4
        header = json.loads(data[start:start + hlen])
        payload = data[start + hlen:]
        state = {}
        for ent in header:
            shape = tuple(ent["shape"])
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(payload, dtype="<f8", count=count,
                                offset=ent["offset"])
            state[ent["name"]] = arr.reshape(shape).astype(np.float64)
        return state
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise FormatError(f"{path}: corrupt checkpoint ({exc})") from exc
