"""Sparse voxel tensors: quantization, coordinate hashing, kernel maps.

Coordinates are (batch, x, y, z) int64 rows.  A coordinate row is hashed into
a single int64 key so that membership queries and joins vectorize with
``np.searchsorted``; the hash is a bijective bit-packing, so it is
collision-free within the supported coordinate range and fully deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


def quantize(cloud: PointCloud, step: float, batch: int = 0) -> SparseTensor:
    """Voxelize a point cloud: floor(coord / step), single occupancy channel.

    Duplicate voxels collapse to one row; rows are in packed-key order, which
    also seeds the tensor's sorted-key index.  Output stride is 1.
    """
    if len(cloud) == 0:
        raise EmptyInput("cannot quantize an empty point cloud")
    if step <= 0:
        raise ValueError("quantization step must be positive")
    vox = np.floor(cloud.points / step).astype(np.int64)
    coords = np.column_stack([np.full(len(vox), batch, dtype=np.int64), vox])
    uniq, first = np.unique(pack_coords(coords), return_index=True)
    st = SparseTensor(coords[first], np.ones((len(first), 1)), stride=1,
                      validate=False)
    st._geom.keys = uniq
    st._geom.sorted = (uniq, np.arange(len(uniq)))
    return st


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
    """(input_row, output_row) pairs grouped by offset: offset k owns the
    flat rows ``bounds[k]:bounds[k + 1]``, and within one offset every input
    row and every output row occurs at most once."""

    offsets: list[tuple[int, int, int]]
    rows_in: np.ndarray
    rows_out: np.ndarray
    bounds: np.ndarray

    def pair_count(self) -> int:
        return len(self.rows_in)

    def get(self, offset):
        k = self.offsets.index(tuple(offset))
        lo, hi = self.bounds[k], self.bounds[k + 1]
        return self.rows_in[lo:hi], self.rows_out[lo:hi]


def build_kernel_map(in_tensor: SparseTensor, out_coords: np.ndarray,
                     kernel_size: int, cache_key=None) -> KernelMap:
    """Join output voxels against the input index for every kernel offset.

    A pair (i, o) is emitted under offset d when the input contains
    ``out_coords[o] + d * in_tensor.stride``.  ``cache_key`` memoizes the map
    on the input tensor's shared geometry; callers must only pass it when
    ``out_coords`` is a pure function of that geometry and the key.

    For the input's own coordinate array and odd K the map is symmetric:
    offset -d holds offset d's pairs swapped, so only half is searched.
    """
    if cache_key is not None:
        cached = in_tensor._geom.kmaps.get(cache_key)
        if cached is not None:
            return cached
    mirror = out_coords is in_tensor.coords and kernel_size % 2 == 1
    out_coords = np.asarray(out_coords, dtype=np.int64).reshape(-1, 4)
    offsets = kernel_offsets(kernel_size)
    half = len(offsets) // 2
    n_search = half if mirror else len(offsets)
    ds = in_tensor.stride
    out_keys = pack_coords(out_coords)
    skeys, order = in_tensor._sorted_index()
    deltas = np.array([offset_key_delta(off, ds) for off in offsets[:n_search]],
                      dtype=np.int64)
    in_c = in_tensor.coords
    hits = None
    if (in_c[:, 0] == in_c[0, 0]).all() and (out_coords[:, 0] == in_c[0, 0]).all():
        # one batch item on both sides: try a dense occupancy table so most
        # candidate (offset, output) pairs resolve with one byte load instead
        # of a binary search (typical hit rates are only a few percent)
        ic = in_c[:, 1:] // ds
        oc = out_coords[:, 1:] // ds
        off_arr = np.asarray(offsets, dtype=np.int64)
        pad = np.abs(off_arr).max(axis=0)
        lo = np.minimum(ic.min(axis=0), oc.min(axis=0)) - pad
        hi = np.maximum(ic.max(axis=0), oc.max(axis=0)) + pad
        dims = hi - lo + 1
        if dims.prod() <= 20_000_000:
            step = np.array([dims[1] * dims[2], dims[2], 1])
            occ = np.zeros(int(dims.prod()), dtype=np.bool_)
            occ[(ic - lo) @ step] = True
            hits = occ[(off_arr[:n_search] @ step)[:, None] + (oc - lo) @ step]
    if hits is None:
        # one joint searchsorted over every (offset, output) candidate
        q = out_keys + deltas[:, None]
        pos = np.minimum(np.searchsorted(skeys, q), len(skeys) - 1)
        hits = skeys[pos] == q
    k, ro = np.nonzero(hits)
    ri = order[np.searchsorted(skeys, out_keys[ro] + deltas[k])]
    bounds = np.searchsorted(k, np.arange(n_search + 1))
    if mirror:
        # offset len - 1 - j is offset j negated: its pairs are j's swapped,
        # so the searched segments follow the centre in reverse order
        flip = np.argsort(-k.astype(np.int16), kind="stable")
        every = np.arange(len(out_coords))
        ri, ro = np.concatenate([ri, every, ro[flip]]), np.concatenate([ro, every, ri[flip]])
        bounds = np.concatenate([bounds, 2 * bounds[-1] + len(every) - bounds[::-1]])
    kmap = KernelMap(offsets, ri, ro, bounds)
    if cache_key is not None:
        in_tensor._geom.kmaps[cache_key] = kmap
    return kmap


def conv_map_key(kernel_size: int, stride: int):
    """Cache key of a conv's kernel map on its input's geometry."""
    return ("conv", kernel_size, stride)


def downsample_coords(in_tensor: SparseTensor, factor: int = 2):
    """Stride-aligned floor of input coordinates; returns (coords, new_stride).

    Row order is order of first occurrence over the input rows.  The same pass
    caches, under ``conv_map_key(factor, factor)``, a K = factor kernel map
    with no search: each input row under its offset in {0..K-1}^3 from its
    parent, sorted by (offset, parent); for even K it equals the search's map.
    """
    new_stride = in_tensor.stride * factor
    kmaps = in_tensor._geom.kmaps
    if ("down", new_stride) not in kmaps:
        lattice = in_tensor.coords[:, 1:] // in_tensor.stride
        cell = lattice // factor
        parents = np.column_stack([in_tensor.coords[:, 0], cell * new_stride])
        _, first, inverse = np.unique(pack_coords(parents), return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        parent = np.argsort(order)[inverse]   # output row of each input row
        digit = lattice - cell * factor
        offset = (digit[:, 0] * factor + digit[:, 1]) * factor + digit[:, 2]
        rows_in = np.argsort(offset * len(order) + parent)
        bounds = np.searchsorted(offset[rows_in], np.arange(factor ** 3 + 1))
        kmaps[conv_map_key(factor, factor)] = KernelMap(
            list(itertools.product(range(factor), repeat=3)), rows_in,
            parent[rows_in], bounds)
        kmaps[("down", new_stride)] = (parents[first[order]], new_stride)
    return kmaps[("down", new_stride)]


def downsample_map(in_tensor: SparseTensor, factor: int = 2) -> KernelMap:
    """The kernel map of :func:`downsample_coords` for the same arguments."""
    if conv_map_key(factor, factor) not in in_tensor._geom.kmaps:
        downsample_coords(in_tensor, factor)
    return in_tensor._geom.kmaps[conv_map_key(factor, factor)]
