"""Sparse voxel tensors: quantization, coordinate hashing, kernel maps.

Coordinates are (batch, x, y, z) int64 rows.  A coordinate row is hashed into
a single int64 key so that membership queries and joins vectorize with
``np.searchsorted``; the hash is a bijective bit-packing, so it is
collision-free within the supported coordinate range and fully deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Var
from .errors import EmptyInput

# Bit budget for the packed coordinate key: 13 bits batch + 3 x 17 bits xyz.
_COORD_BITS = 17
_COORD_OFF = 1 << (_COORD_BITS - 1)
_MAX_BATCH = 1 << 13


@dataclass
class PointCloud:
    """Raw 3D points in normalized units, expected inside [-1, 1]."""

    points: np.ndarray  # (n, 3) float64
    source_id: object = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if self.points.size and not np.all(np.isfinite(self.points)):
            raise ValueError("point cloud contains non-finite coordinates")

    def __len__(self):
        return len(self.points)


def pack_coords(coords: np.ndarray) -> np.ndarray:
    """Pack (n, 4) int coordinate rows into unique int64 keys."""
    coords = np.asarray(coords, dtype=np.int64)
    b = coords[:, 0]
    xyz = coords[:, 1:] + _COORD_OFF
    if coords.size:
        if b.min(initial=0) < 0 or b.max(initial=0) >= _MAX_BATCH:
            raise ValueError("batch index out of packing range")
        if xyz.min(initial=0) < 0 or xyz.max(initial=0) >= (1 << _COORD_BITS):
            raise ValueError("voxel coordinate out of packing range")
    key = b
    for i in range(3):
        key = (key << _COORD_BITS) | xyz[:, i]
    return key


def unpack_keys(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_coords`."""
    keys = np.asarray(keys, dtype=np.int64)
    mask = (1 << _COORD_BITS) - 1
    z = (keys & mask) - _COORD_OFF
    y = ((keys >> _COORD_BITS) & mask) - _COORD_OFF
    x = ((keys >> (2 * _COORD_BITS)) & mask) - _COORD_OFF
    b = keys >> (3 * _COORD_BITS)
    return np.column_stack([b, x, y, z])


def offset_key_delta(offset, step: int) -> int:
    """Key-space shift equivalent to moving a coordinate by offset * step.

    Valid because the packing is a direct sum of independent bit fields and
    shifted coordinates stay inside their field range.
    """
    dx, dy, dz = (int(v) * int(step) for v in offset)
    return (dx << (2 * _COORD_BITS)) + (dy << _COORD_BITS) + dz


def _unique_rows(coords: np.ndarray) -> np.ndarray:
    """Indices of first occurrences, in order of first occurrence."""
    _, first = np.unique(pack_coords(coords), return_index=True)
    return np.sort(first)


class _Geometry:
    """Caches tied to one coordinate set: packed keys, sorted index, kernel maps.

    Tensors sharing a coordinate array (e.g. the output of BN/ReLU/stride-1
    conv) share one instance so kernel maps are built once per layer shape.
    """

    __slots__ = ("keys", "sorted", "kmaps")

    def __init__(self):
        self.keys = None
        self.sorted = None
        self.kmaps = {}


class SparseTensor:
    """Distinct voxel coordinates with an n x c feature matrix and a stride."""

    def __init__(self, coords, features, stride: int = 1, validate: bool = True,
                 geom: _Geometry | None = None):
        self.coords = np.asarray(coords, dtype=np.int64).reshape(-1, 4)
        self.fvar = features if isinstance(features, Var) else Var(features)
        if self.fvar.value.ndim != 2:
            self.fvar.value = self.fvar.value.reshape(len(self.coords), -1)
        self.stride = int(stride)
        self._geom = geom if geom is not None else _Geometry()
        if validate:
            self._validate()

    def _validate(self):
        if len(self.coords) == 0:
            raise EmptyInput("sparse tensor has no voxels")
        if self.stride < 1:
            raise ValueError("stride must be a positive integer")
        if len(self.fvar.value) != len(self.coords):
            raise ValueError("features and coords row counts differ")
        if np.any(self.coords[:, 1:] % self.stride):
            raise ValueError("coordinates are not stride-aligned")
        keys = pack_coords(self.coords)
        if len(np.unique(keys)) != len(keys):
            raise ValueError("duplicate voxel coordinates")
        self._geom.keys = keys

    @property
    def features(self) -> np.ndarray:
        return self.fvar.value

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def channels(self) -> int:
        return self.fvar.value.shape[1]

    def keys(self) -> np.ndarray:
        if self._geom.keys is None:
            self._geom.keys = pack_coords(self.coords)
        return self._geom.keys

    def _sorted_index(self):
        if self._geom.sorted is None:
            keys = self.keys()
            order = np.argsort(keys, kind="stable")
            self._geom.sorted = (keys[order], order)
        return self._geom.sorted

    def rows_of(self, coords: np.ndarray):
        """Row index per query coordinate, -1 where absent."""
        skeys, order = self._sorted_index()
        q = pack_coords(np.asarray(coords, dtype=np.int64).reshape(-1, 4))
        pos = np.searchsorted(skeys, q)
        pos_c = np.minimum(pos, len(skeys) - 1)
        hit = (pos < len(skeys)) & (skeys[pos_c] == q)
        rows = np.where(hit, order[pos_c], -1)
        return rows

    def sorted_by_coord(self) -> "SparseTensor":
        """Rows reordered by packed key: a canonical, input-order-free layout."""
        order = np.argsort(self.keys(), kind="stable")
        out = SparseTensor(self.coords[order], self.fvar.value[order],
                           self.stride, validate=False)
        return out


def quantize(cloud: PointCloud, step: float, batch: int = 0,
             canonical: bool = False) -> SparseTensor:
    """Voxelize a point cloud: floor(coord / step), single occupancy channel.

    Duplicate voxels collapse to one row; row order is order of first
    occurrence, or packed-key order when ``canonical`` is set (which also
    seeds the tensor's sorted-key index).  Output stride is 1.
    """
    if len(cloud) == 0:
        raise EmptyInput("cannot quantize an empty point cloud")
    if step <= 0:
        raise ValueError("quantization step must be positive")
    vox = np.floor(cloud.points / step).astype(np.int64)
    coords = np.column_stack([np.full(len(vox), batch, dtype=np.int64), vox])
    keys = pack_coords(coords)
    uniq, first = np.unique(keys, return_index=True)
    if canonical:
        st = SparseTensor(coords[first], np.ones((len(first), 1)),
                          stride=1, validate=False)
        st._geom.keys = uniq
        st._geom.sorted = (uniq, np.arange(len(uniq)))
        return st
    keep = np.sort(first)
    return SparseTensor(coords[keep], np.ones((len(keep), 1)), stride=1,
                        validate=False)


def kernel_offsets(kernel_size: int) -> list[tuple[int, int, int]]:
    """Offset enumeration: odd K is centered, even K is {0..K-1}^3."""
    if kernel_size < 1:
        raise ValueError("kernel size must be >= 1")
    if kernel_size % 2:
        r = range(-(kernel_size - 1) // 2, (kernel_size - 1) // 2 + 1)
    else:
        r = range(kernel_size)
    return list(itertools.product(r, r, r))


@dataclass
class KernelMap:
    """Per-offset (input_row, output_row) index pairs."""

    offsets: list[tuple[int, int, int]]
    pairs: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def pair_count(self) -> int:
        return sum(len(ri) for ri, _ in self.pairs.values())

    def get(self, offset):
        return self.pairs.get(tuple(offset))


def build_kernel_map(in_tensor: SparseTensor, out_coords: np.ndarray,
                     kernel_size: int, dilation_stride: int,
                     cache_key=None) -> KernelMap:
    """Join output voxels against the input index for every kernel offset.

    A pair (i, o) is emitted under offset d when the input contains
    ``out_coords[o] + d * dilation_stride``.  ``cache_key`` memoizes the map
    on the input tensor's shared geometry; callers must only pass it when
    ``out_coords`` is a pure function of that geometry and the key.
    """
    if cache_key is not None:
        cached = in_tensor._geom.kmaps.get(cache_key)
        if cached is not None:
            return cached
    out_coords = np.asarray(out_coords, dtype=np.int64).reshape(-1, 4)
    offsets = kernel_offsets(kernel_size)
    kmap = KernelMap(offsets=offsets)
    ds = int(dilation_stride)
    out_keys = pack_coords(out_coords)
    skeys, order = in_tensor._sorted_index()
    n_in = len(skeys)
    all_out = np.arange(len(out_coords))
    deltas = np.array([offset_key_delta(off, ds) for off in offsets])
    in_c = in_tensor.coords
    occ = None
    if ds == in_tensor.stride and in_c[:, 0].min() == in_c[:, 0].max():
        # single batch item: try a dense occupancy table so most candidate
        # (offset, output) pairs resolve with one byte load instead of a
        # binary search (typical hit rates are only a few percent)
        ic = in_c[:, 1:] // in_tensor.stride
        oc = out_coords[:, 1:] // in_tensor.stride
        off_arr = np.asarray(offsets, dtype=np.int64)
        pad = np.abs(off_arr).max(axis=0)
        lo = np.minimum(ic.min(axis=0), oc.min(axis=0)) - pad
        hi = np.maximum(ic.max(axis=0), oc.max(axis=0)) + pad
        dims = hi - lo + 1
        if dims.prod() <= 20_000_000:
            d1, d2 = int(dims[1]), int(dims[2])
            sic = ic - lo
            soc = oc - lo
            lin_in = (sic[:, 0] * d1 + sic[:, 1]) * d2 + sic[:, 2]
            lin_out = (soc[:, 0] * d1 + soc[:, 1]) * d2 + soc[:, 2]
            occ = np.zeros(int(dims.prod()), dtype=np.bool_)
            occ[lin_in] = True
    if occ is not None:
        for k, off in enumerate(offsets):
            shift = (off[0] * d1 + off[1]) * d2 + off[2]
            hit = occ[lin_out + shift]
            if hit.any():
                q = out_keys[hit] + deltas[k]
                pos = np.searchsorted(skeys, q)
                kmap.pairs[off] = (order[pos], all_out[hit])
    else:
        # one joint searchsorted over every (offset, output) candidate
        q = out_keys[None, :] + deltas[:, None]
        pos = np.searchsorted(skeys, q.ravel()).reshape(q.shape)
        pos_c = np.minimum(pos, n_in - 1)
        hits = (pos < n_in) & (skeys[pos_c] == q)
        for k, off in enumerate(offsets):
            hit = hits[k]
            if hit.any():
                kmap.pairs[off] = (order[pos_c[k][hit]], all_out[hit])
    if cache_key is not None:
        in_tensor._geom.kmaps[cache_key] = kmap
    return kmap


def downsample_coords(in_tensor: SparseTensor, factor: int = 2):
    """Stride-aligned floor of input coordinates; returns (coords, new_stride).

    Row order is order of first occurrence over the input rows.
    """
    new_stride = in_tensor.stride * int(factor)
    cached = in_tensor._geom.kmaps.get(("down", new_stride))
    if cached is not None:
        return cached
    if new_stride & (new_stride - 1) == 0:
        # power-of-two stride: floor each bit field directly in key space
        # (valid: the field offset 2^16 is itself a multiple of the stride)
        m = np.int64(new_stride - 1)
        fmask = m | (m << _COORD_BITS) | (m << (2 * _COORD_BITS))
        masked = in_tensor.keys() & ~fmask
        _, first = np.unique(masked, return_index=True)
        keep = np.sort(first)
        result = (unpack_keys(masked[keep]), new_stride)
    else:
        coords = in_tensor.coords.copy()
        coords[:, 1:] = (coords[:, 1:] // new_stride) * new_stride
        keep = _unique_rows(coords)
        result = (coords[keep], new_stride)
    in_tensor._geom.kmaps[("down", new_stride)] = result
    return result


def concat_tensors(tensors: list[SparseTensor],
                   validate: bool = True) -> SparseTensor:
    """Stack per-batch-item tensors (same stride, same channels) into one."""
    if not tensors:
        raise EmptyInput("nothing to concatenate")
    stride = tensors[0].stride
    coords = np.concatenate([t.coords for t in tensors])
    features = np.concatenate([t.features for t in tensors])
    return SparseTensor(coords, features, stride=stride, validate=validate)
