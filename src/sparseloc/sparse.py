"""Sparse voxel tensors: quantization, coordinate hashing, kernel maps.

Coordinates are (batch, x, y, z) int64 rows.  A coordinate row is hashed into
a single int64 key so that membership queries and joins vectorize with
``np.searchsorted``; the hash is a bijective bit-packing, so it is
collision-free within the supported coordinate range and fully deterministic.

A :class:`SparseTensor` is a feature Var on one voxel geometry: coordinates,
stride, packed keys and the caches built on them.  Layers that keep their
input's voxels share its geometry.  ``quantize`` and each downsample build
their voxel sets in key order, so those keys are their own sorted index.
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
    """One voxel set: coordinates, stride, packed keys and the caches built
    on them: the sorted index, ``maps[K]`` (the K kernel map onto these
    coordinates) and ``parents[factor]`` (the downsample by ``factor``).
    Tensors on the same voxels share one instance, so each is built once.
    Keys that come in strictly increasing order are their own sorted index.
    """

    __slots__ = ("coords", "stride", "keys", "sorted", "maps", "parents")

    def __init__(self, keys: np.ndarray, stride: int):
        self.coords = unpack_keys(keys)
        self.stride = stride
        self.keys = keys
        in_order = bool(np.all(keys[1:] > keys[:-1]))
        self.sorted = (keys, np.arange(len(keys))) if in_order else None
        self.maps = {}
        self.parents = {}

    def parent(self, factor: int):
        """The downsample by ``factor`` as ``((coords, stride), geometry,
        kernel map)``, built on first use (see :func:`downsample_coords`)."""
        if factor not in self.parents:
            new_stride = self.stride * factor
            lattice = self.coords[:, 1:] // self.stride
            cell = lattice // factor
            keys, parent = np.unique(
                pack_coords(np.column_stack([self.coords[:, 0], cell * new_stride])),
                return_inverse=True)
            digit = lattice - cell * factor
            offset = (digit[:, 0] * factor + digit[:, 1]) * factor + digit[:, 2]
            rows_in = np.argsort(offset * len(keys) + parent)
            bounds = np.searchsorted(offset[rows_in], np.arange(factor ** 3 + 1))
            kmap = KernelMap(list(itertools.product(range(factor), repeat=3)),
                             rows_in, parent[rows_in], bounds)
            geom = _Geometry(keys, new_stride)
            self.parents[factor] = ((geom.coords, new_stride), geom, kmap)
        return self.parents[factor]


class SparseTensor:
    """An n x c feature Var on a voxel geometry: distinct stride-aligned
    (batch, x, y, z) rows and their stride."""

    def __init__(self, coords, features, stride: int = 1):
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 4)
        stride = int(stride)
        if len(coords) == 0:
            raise EmptyInput("sparse tensor has no voxels")
        if stride < 1:
            raise ValueError("stride must be a positive integer")
        if np.any(coords[:, 1:] % stride):
            raise ValueError("coordinates are not stride-aligned")
        # a 1-D feature array is one channel, so it needs one value per voxel
        if np.shape(features.value if isinstance(features, Var)
                    else features)[:1] != (len(coords),):
            raise ValueError("features and coords row counts differ")
        self._set(_Geometry(pack_coords(coords), stride), features)
        skeys, _ = self._sorted_index()
        if np.any(skeys[1:] == skeys[:-1]):
            raise ValueError("duplicate voxel coordinates")

    def _set(self, geom: _Geometry, features) -> SparseTensor:
        self._geom = geom
        self.fvar = features if isinstance(features, Var) else Var(features)
        if self.fvar.value.ndim != 2:
            self.fvar.value = self.fvar.value.reshape(len(geom.coords), -1)
        return self

    @classmethod
    def from_keys(cls, keys: np.ndarray, features, stride: int = 1) -> SparseTensor:
        """An unvalidated tensor on the voxels of distinct packed ``keys``,
        in their order; increasing keys seed the sorted index."""
        return cls.__new__(cls)._set(_Geometry(keys, int(stride)), features)

    def with_features(self, features, factor: int = 1) -> SparseTensor:
        """A tensor on this tensor's voxels, or on their downsample by
        ``factor`` (see :func:`downsample_coords`)."""
        geom = self._geom if factor == 1 else self._geom.parent(factor)[1]
        return SparseTensor.__new__(SparseTensor)._set(geom, features)

    @property
    def coords(self) -> np.ndarray:
        return self._geom.coords

    @property
    def stride(self) -> int:
        return self._geom.stride

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
        return self._geom.keys

    def _sorted_index(self):
        if self._geom.sorted is None:
            keys = self.keys()
            order = np.argsort(keys, kind="stable")
            self._geom.sorted = (keys[order], order)
        return self._geom.sorted


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
    # sort and drop repeats: np.unique without indices takes numpy's hash
    # path, several times slower than a sort on these keys
    keys = np.sort(pack_coords(coords))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    return SparseTensor.from_keys(keys, np.ones((len(keys), 1)))


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


def build_kernel_map(in_tensor: SparseTensor, out_coords: np.ndarray,
                     kernel_size: int) -> KernelMap:
    """Join output voxels against the input index for every kernel offset.

    A pair (i, o) is emitted under offset d when the input contains
    ``out_coords[o] + d * in_tensor.stride``.  A map onto the input's own
    coordinate array is cached on its shared geometry.  For the coordinate
    array of the input's downsample by an even ``factor == kernel_size``,
    the downsample's map is returned.  Any other call searches and caches
    nothing.

    For the input's own coordinate array and odd K the map is symmetric:
    offset -d holds offset d's pairs swapped, so only half is searched.
    """
    geom = in_tensor._geom
    own = out_coords is geom.coords
    if own and kernel_size in geom.maps:
        return geom.maps[kernel_size]
    down = geom.parents.get(kernel_size)
    if down is not None and kernel_size % 2 == 0 and out_coords is down[0][0]:
        return down[2]
    mirror = own and kernel_size % 2 == 1
    out_coords = np.asarray(out_coords, dtype=np.int64).reshape(-1, 4)
    offsets = kernel_offsets(kernel_size)
    n_search = len(offsets) // 2 if mirror else len(offsets)
    ds = in_tensor.stride
    out_keys = in_tensor.keys() if own else pack_coords(out_coords)
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
    k, ro = np.divmod(np.flatnonzero(hits), hits.shape[1])
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
    if own:
        geom.maps[kernel_size] = kmap
    return kmap


def downsample_coords(in_tensor: SparseTensor, factor: int = 2):
    """Stride-aligned floor of input coordinates; returns (coords, new_stride).

    Rows are in packed-key order, straight from the ``np.unique`` over the
    parents' keys: that key array seeds the parents' geometry (see
    :meth:`SparseTensor.with_features`) as its own sorted index, and its
    inverse is each input row's parent row.  The same pass builds, with no
    search, a K = factor kernel map (see :func:`downsample_map`): each input
    row under its offset in {0..K-1}^3 from its parent, sorted by (offset,
    parent); for even K it equals the search's map.  Both are cached on the
    input's geometry, and a repeat call returns the same tuple.
    """
    return in_tensor._geom.parent(factor)[0]


def downsample_map(in_tensor: SparseTensor, factor: int = 2) -> KernelMap:
    """The kernel map of :func:`downsample_coords` for the same arguments."""
    return in_tensor._geom.parent(factor)[2]
