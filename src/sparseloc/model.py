"""Network assembly: FPN-style sparse backbone plus GeM pooling head.

The backbone follows the MinkFPN layout: a K=5 stem, three bottom-up blocks
(stride-2 downsampling conv followed by a two-conv residual block, each conv
trailed by batch norm + ReLU), then 1x1 lateral projections and a single
K=2/s=2 transposed conv, onto whose output the stride-4 lateral is added in
place.  The head pools the fused feature map into one global descriptor per
batch item.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var
from .data import publish
from .errors import EmptyInput, FormatError, ShapeError
from .layers import (BatchNorm, SparseConv, _both, _scatter_add, _split,
                     relu, sparse_add, sparse_transposed_conv)
from .sparse import (KernelMap, PointCloud, SparseTensor, downsample_map,
                     quantize)

_CKPT_MAGIC = b"SLCKPT1\n"


@dataclass
class ModelConfig:
    conv0_ch: int = 32
    conv1_ch: int = 32
    conv2_ch: int = 64
    conv3_ch: int = 64
    descriptor_dim: int = 256
    quantization_step: float = 0.01

    def __post_init__(self):
        if not (np.isfinite(self.quantization_step)
                and self.quantization_step > 0):
            raise ValueError("quantization_step must be finite and positive, "
                             f"got {self.quantization_step}")
        for name in ("conv0_ch", "conv1_ch", "conv2_ch", "conv3_ch",
                     "descriptor_dim"):
            width = getattr(self, name)
            if width < 1:
                raise ValueError(f"{name} must be at least 1, got {width}")


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


# Rows per GeM block: 256 rows x 256 channels of float64 is 512 KiB, which
# stays in a 2 MiB L2 from the clamp through log, exp and the column sums.
_GEM_BLOCK = 256
# GeM clamps features to at least this, so log and 1/r stay finite.
_GEM_EPS = 1e-6


def gem_pool(fmap: SparseTensor, p_var: Var, tape: Tape | None = None,
             *, reuse_map: bool = False):
    """Generalized-mean pooling per batch item.

    g_k = (mean_j clamp(f_jk, eps)^p)^(1/p); differentiable in features and p.
    Returns (Var of shape (B, c), list of batch ids).  eps is ``_GEM_EPS``.

    Each item's rows run in blocks of ``_GEM_BLOCK`` rows, one block at a
    time while it is in cache: clamp once into a block-sized scratch r,
    the ratio's power as exp(p log(r / max)), and column sums as
    ``ones @ block``.  Every p, integer or not, with or without a tape,
    takes this one path.  With a tape each block's power goes into a
    map-sized backward buffer; the forward also sums power * p log(ratio)
    for dy/dp, then turns the block into power / r [r > eps] while it is in
    cache.  The backward only scales each item's rows of that buffer into
    the input gradient, so it never reads the map.  max is 1 where the
    direct power cannot overflow, else each item's per-channel max, so the
    ratios stay in (0, 1].

    Rows out of item order are pooled from one item-ordered copy of the
    map, which a tape takes as its backward buffer.  The model never makes
    such rows: ``batch_tensor``, the downsamples and the transposed conv
    keep batch-major key order.  Rows in item order allocate nothing of the
    map's size without a tape.

    Large maps run their blocks as two halves on two threads (see
    ``layers._split``).  Each block's column sums go into a row of their
    own, which are added into the items' sums in block order, so the
    result does not depend on the split.

    ``reuse_map=True`` hands the map's features over: with a tape and rows
    already in item order, the buffer is the features array itself, which
    then holds power / r [r > eps] and, after the backward, the map's
    gradient.  Otherwise the features stay unchanged.
    """
    f = fmap.features
    if len(f) == 0:
        raise EmptyInput("cannot pool an empty feature map")
    p = float(p_var.value)
    order, ids, bounds = _batch_slices(fmap.coords)
    if order is not None:
        f = f[order]
    sizes = np.array([e - s for s, e in bounds], dtype=float)[:, None]
    # a block's work in GEMM multiply-adds: in a training epoch GeM took
    # 7.3 ns per element and the convs' GEMMs 0.14 ns per multiply-add
    work = min(_GEM_BLOCK, len(f)) * f.shape[1] * 50
    # a max is exact in any split
    peak = np.max(_split(lambda lo, hi: f[lo:hi].max(), len(f), work))
    # skip the ratio normalization when the direct power cannot overflow
    direct = p * np.log(max(float(peak), 1.0)) < 300.0
    powers = None
    if tape is not None:
        # f is already a private copy when the rows were reordered
        powers = f if reuse_map or order is not None else np.empty_like(f)
    maxes = np.ones((len(ids), f.shape[1]))
    if not direct:
        for b, (s, e) in enumerate(bounds):
            maxes[b] = np.maximum(f[s:e].max(axis=0), _GEM_EPS)
    todo = [(b, i, min(i + _GEM_BLOCK, e)) for b, (s, e) in enumerate(bounds)
            for i in range(s, e, _GEM_BLOCK)]
    # each block's column sums of power (and of power * p log(ratio))
    sums = np.empty((len(todo), 1 if powers is None else 2, f.shape[1]))

    def pool_blocks(lo, hi):
        r = np.empty((min(_GEM_BLOCK, len(f)), f.shape[1]))
        scratch = np.empty_like(r)
        ones = np.ones(len(r))
        for t in range(lo, hi):
            b, i, j = todo[t]
            rb, lg = r[:j - i], scratch[:j - i]
            # powers[i:j] may be these very rows: nothing reads them after
            np.maximum(f[i:j], _GEM_EPS, out=rb)
            np.log(rb if direct else np.divide(rb, maxes[b], out=lg), out=lg)
            lg *= p
            pb = lg if powers is None else powers[i:j]
            np.exp(lg, out=pb)
            sums[t, 0] = ones[:j - i] @ pb
            if powers is not None:
                lg *= pb
                sums[t, 1] = ones[:j - i] @ lg
                # the block's share of dy/dc, up to the per-item factor
                pb /= rb
                pb *= rb > _GEM_EPS

    _split(pool_blocks, len(todo), work)
    # added into the items' rows in block order, as one loop would
    totals = np.zeros((len(ids),) + sums.shape[1:])
    np.add.at(totals, [b for b, _, _ in todo], sums)
    means = totals[:, 0] / sizes
    plogs = totals[:, -1]   # sum_j power * p log(ratio), with a tape
    out = maxes * means ** (1.0 / p)
    yvar = Var(out)
    if tape is not None:
        gf, gp = fmap.fvar.acc, p_var.acc

        def backward(g):
            # dy/dp = y / p^2 (mean(r^p p log r) / mean(r^p) - log mean(r^p))
            dy_dp = out / p ** 2 * (plogs / (sizes * means) - np.log(means))
            # d g_k / d c_jk = (1/n) mean^(1/p - 1) (c/max)^p max / c:
            # the max factor cancels in g, so it is treated as a constant
            coef = g * means ** (1.0 / p - 1.0) * maxes / sizes
            for b, (s, e) in enumerate(bounds):
                powers[s:e] *= coef[b]
            if order is not None:
                powers[order] = powers.copy()
            gf.add(powers)
            gp.add(np.asarray(float((g * dy_dp).sum())))

        tape.record_for(yvar, backward)
    return yvar, ids


def mac_pool(fmap: SparseTensor):
    """Per-channel global max over each batch item's rows: GeM's p -> inf
    limit, kept as its reference, not as a head."""
    f = fmap.features
    if len(f) == 0:
        raise EmptyInput("cannot pool an empty feature map")
    order, ids, bounds = _batch_slices(fmap.coords)
    if order is not None:
        f = f[order]
    return Var(np.stack([f[s:e].max(axis=0) for s, e in bounds])), ids


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
        glat, gtconv = lateral.acc, tconv.acc

        def backward(g):
            glat.add(np.tensordot(g, wt, axes=([0, 2], [0, 2]))[None])
            gtconv.add(wl.T @ g)

        tape.record_for(fused, backward)
    return fused


def _add_lateral(top: SparseTensor, lateral: SparseTensor, down: KernelMap,
                 tape: Tape | None) -> SparseTensor:
    """top + lateral in place in top's fresh buffer.  ``down`` maps lateral
    rows to their stride-8 parents: offset k of parent p is top row p*8 + k."""
    rows = np.empty(lateral.n, dtype=np.int64)
    k = np.repeat(np.arange(len(down.offsets)), np.diff(down.bounds))
    rows[down.rows_in] = down.rows_out * len(down.offsets) + k
    ft, fl = top.features, lateral.features
    # in slices, so the gathered rows stay small; the rows are distinct, so
    # each slice adds exactly what one whole add would
    for i in range(0, len(rows), 256):
        _scatter_add(ft, rows[i:i + 256], fl[i:i + 256])
    if tape is not None:
        # top keeps its Var, so the transposed conv receives the gradient as is
        glat = lateral.fvar.acc

        def backward(g):
            glat.add(np.take(g, rows, axis=0))

        tape.record_for(top.fvar, backward)
    return top


# the pyramid's work per input voxel in GEMM multiply-adds: on 4096-point
# clouds it took 0.9-1.4 us per voxel (1.5-2.4 in a 32-cloud batch), and
# the convs' GEMMs 0.14 ns per multiply-add; it splits from ~250 voxels
_PYRAMID_WORK = 10_000


def _pyramid(geom) -> None:
    """Every voxel set and kernel map that the three blocks and the lateral
    add read, into the caches that their lookups fill: each level's
    downsample by 2 (voxels and K = 2 map) and the K = 3 map on its voxels.
    Geometry-level calls only, so the traced entry points
    (``build_kernel_map``, ``downsample_coords``) stay on the caller."""
    for _ in range(3):
        geom = geom.parent(2)[1]
        geom.own_map(3)


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
        # lateral3 and tconv3 only hold weights: they run fused via _compose
        self.lateral3 = SparseConv(cfg.conv3_ch, d, kernel_size=1, rng=rng)
        self.tconv3 = SparseConv(d, d, kernel_size=2, stride=2, rng=rng)

    def __call__(self, x: SparseTensor, tape: Tape | None = None,
                 train: bool = False) -> SparseTensor:
        if x.channels != 1:
            raise ShapeError("backbone expects a single-channel input tensor")
        # the worker builds the pyramid while the stem runs here
        x0, _ = _both(lambda: relu(self.conv0_bn(self.conv0(x, tape), tape,
                                                 train), tape),
                      lambda: _pyramid(x._geom), x.n * _PYRAMID_WORK)
        x1 = self.block1(x0, tape, train)     # stride 2
        x2 = self.block2(x1, tape, train)     # stride 4
        x3 = self.block3(x2, tape, train)     # stride 8
        # the 1x1 lateral and the transposed conv are adjacent linear maps,
        # so they run as one low-rank upsampling conv, back to stride 4
        fused = _compose(self.lateral3.weight, self.tconv3.weight, tape)
        top = sparse_transposed_conv(x3, fused, kernel_size=2, stride=2,
                                     tape=tape)
        return _add_lateral(top, self.lateral2(x2, tape),
                            downsample_map(x2, 2), tape)


class MinkLoc:
    """Point cloud to global descriptor: quantize, backbone, GeM."""

    def __init__(self, cfg: ModelConfig | None = None, seed: int = 0):
        self.cfg = cfg or ModelConfig()
        rng = np.random.default_rng(seed)
        self.backbone = MinkFPN(self.cfg, rng)
        self.gem_p = Var(np.asarray(3.0))  # MinkLoc3D's initial GeM p

    # -- forward -----------------------------------------------------------

    def embed_tensor(self, st: SparseTensor, tape: Tape | None = None,
                     train: bool = False):
        """Returns (descriptor matrix Var of shape (B, d), batch ids).

        The backbone's map dies in GeM: with a tape, GeM keeps its backward
        buffer in the map's features."""
        return gem_pool(self.backbone(st, tape, train), self.gem_p, tape,
                        reuse_map=True)

    def embed_clouds(self, clouds: list[PointCloud], tape: Tape | None = None,
                     train: bool = False):
        st = batch_tensor(clouds, self.cfg.quantization_step)
        return self.embed_tensor(st, tape, train)

    # -- parameters --------------------------------------------------------

    def _conv_bns(self):
        """(name, conv, batch norm) of every conv that batch norm follows."""
        bb = self.backbone
        yield "conv0", bb.conv0, bb.conv0_bn
        for i, blk in enumerate((bb.block1, bb.block2, bb.block3), 1):
            for part in ("down", "res1", "res2"):
                yield f"conv{i}.{part}", getattr(blk, part), getattr(blk, f"{part}_bn")

    def named_params(self) -> dict[str, Var]:
        out = {}
        for name, conv, bn in self._conv_bns():
            out[f"{name}.w"] = conv.weight
            out[f"{name}.bn.gamma"], out[f"{name}.bn.beta"] = bn.gamma, bn.beta
        out["lateral2.w"] = self.backbone.lateral2.weight
        out["lateral3.w"] = self.backbone.lateral3.weight
        out["tconv3.w"] = self.backbone.tconv3.weight
        out["gem.p"] = self.gem_p
        return out

    def _batch_norms(self) -> dict[str, BatchNorm]:
        return {f"{name}.bn": bn for name, _, bn in self._conv_bns()}

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: var.value.copy() for name, var in self.named_params().items()}
        for name, bn in self._batch_norms().items():
            state[f"{name}.mean"] = bn.running_mean.copy()
            state[f"{name}.var"] = bn.running_var.copy()
        # no parameter, but the weights hold only for the voxels of this step
        state["quantization_step"] = np.asarray(self.cfg.quantization_step,
                                                dtype=np.float64)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]):
        params, bns = self.named_params(), self._batch_norms()
        extra = set(state).difference(params, ["quantization_step"],
                                      (f"{name}.{stat}" for name in bns
                                       for stat in ("mean", "var")))
        if extra:
            raise FormatError("checkpoint entries this model does not hold: "
                              + ", ".join(sorted(extra)))

        def fetch(name: str, shape: tuple) -> np.ndarray:
            if name not in state:
                raise FormatError(f"checkpoint missing entry {name}")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != shape:
                raise FormatError(f"checkpoint shape mismatch for {name}: "
                                  f"{arr.shape} vs {shape}")
            if not np.isfinite(arr).all():
                raise FormatError(f"checkpoint entry {name} is not finite")
            return arr.copy()

        # every entry is checked before any is assigned
        values = {name: fetch(name, var.value.shape) for name, var in params.items()}
        for name, bn in bns.items():
            for stat in ("mean", "var"):
                values[f"{name}.{stat}"] = fetch(f"{name}.{stat}", (bn.channels,))
            if (values[f"{name}.var"] < 0).any():
                raise FormatError(f"checkpoint entry {name}.var is negative")
        if not values["gem.p"] > 0:
            raise FormatError(f"checkpoint gem.p must be positive, "
                              f"got {float(values['gem.p'])}")
        step = float(fetch("quantization_step", ()))
        if step != self.cfg.quantization_step:
            raise FormatError(f"checkpoint quantization_step {step} differs "
                              f"from the model's {self.cfg.quantization_step}")
        for name, var in params.items():
            var.value = values[name]
        for name, bn in bns.items():
            bn.running_mean = values[f"{name}.mean"]
            bn.running_var = values[f"{name}.var"]

    def param_count(self) -> int:
        return sum(v.value.size for v in self.named_params().values())


def batch_tensor(clouds: list[PointCloud], step: float) -> SparseTensor:
    """Quantize each cloud with its batch index and stack, in packed-key order.

    Sorting by packed coordinate key fixes the accumulation order so the
    result is independent of input point ordering.
    """
    if not clouds:
        raise EmptyInput("no clouds to batch")
    # the batch index occupies the top key bits, so key-ordered
    # parts concatenate into a globally key-sorted tensor
    keys = np.concatenate([quantize(c, step, batch=i).keys()
                           for i, c in enumerate(clouds)])
    return SparseTensor.from_keys(keys, np.ones((len(keys), 1)))


def compute_descriptor(cloud: PointCloud, model: MinkLoc) -> Descriptor:
    """Deterministic eval-mode descriptor for a single cloud."""
    pts = cloud.points
    if pts.size and (pts.min() < -1.0 or pts.max() > 1.0):
        warnings.warn("point coordinates fall outside [-1, 1]", stacklevel=2)
    emb, _ = model.embed_clouds([cloud], tape=None, train=False)
    return Descriptor(emb.value[0], source_id=cloud.source_id)


def checkpoint_config(state: dict) -> ModelConfig:
    """The network that ``state`` records: each width is a conv weight's
    output channels, and the quantization step is its own 0-d entry."""
    def entry(name: str, ndim: int):
        if name not in state:
            raise FormatError(f"checkpoint missing entry {name}")
        shape = np.shape(state[name])
        if len(shape) != ndim or 0 in shape:
            raise FormatError(f"checkpoint entry {name} has shape {shape}")
        return state[name]

    def width(name: str) -> int:
        return np.shape(entry(name, 3))[2]

    return ModelConfig(conv0_ch=width("conv0.w"),
                       conv1_ch=width("conv1.down.w"),
                       conv2_ch=width("conv2.down.w"),
                       conv3_ch=width("conv3.down.w"),
                       descriptor_dim=width("lateral2.w"),
                       quantization_step=float(entry("quantization_step", 0)))


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
    publish({path: [_CKPT_MAGIC, struct.pack("<I", len(hdr)), hdr, *blobs]})


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
