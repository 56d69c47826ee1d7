"""Dataset loading, training-tuple generation, synthetic datasets, and
``publish``, which writes a command's output files whole or not at all.

On-disk formats:
  * point cloud file: flat binary of 64-bit little-endian floats, xyz
    interleaved, row-major;
  * index file: CSV with header ``id,path,northing,easting,split``; paths
    are relative to the dataset root.
"""

from __future__ import annotations

import csv
import os
import warnings
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, EmptyInput, FormatError

POSITIVE_RADIUS = 10.0   # meters: structurally similar
NEGATIVE_RADIUS = 50.0   # meters: below this (excl. positives) is indefinite


@dataclass
class PointCloudRecord:
    id: int
    path: str
    northing: float
    easting: float
    split: str = "train"


@dataclass
class TrainingTuple:
    id: int
    positives: set = field(default_factory=set)
    non_negatives: set = field(default_factory=set)


def publish(files: dict[str, list[bytes]]):
    """Write each path of ``files`` as its byte chunks, concatenated.  A
    directory at any path raises ``IsADirectoryError`` before anything is
    written.  The chunks go to ``<path>.tmp`` and, once all are written,
    ``os.replace`` moves each into place in the order given, so a failed
    write leaves every path as it was; no ``.tmp`` is left behind."""
    for path in files:
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path}: is a directory")
    try:
        for path, chunks in files.items():
            with open(f"{path}.tmp", "wb") as fh:
                fh.writelines(chunks)
        for path in files:
            os.replace(f"{path}.tmp", path)
    finally:
        for path in files:
            with suppress(FileNotFoundError):
                os.remove(f"{path}.tmp")


def load_cloud(path: str) -> np.ndarray:
    """Read a raw xyz binary into an (n, 3) float64 array."""
    size = os.path.getsize(path)
    if size == 0:
        raise EmptyInput(f"{path}: empty point cloud file")
    if size % 24:
        raise FormatError(f"{path}: size {size} not divisible by 24 bytes")
    pts = np.fromfile(path, dtype="<f8").reshape(-1, 3)
    if pts.min() < -1.0 or pts.max() > 1.0:
        warnings.warn(f"{path}: coordinates outside [-1, 1]", stacklevel=2)
    return pts


def write_cloud(path: str, points: np.ndarray):
    np.ascontiguousarray(points, dtype="<f8").tofile(path)


def load_index(path: str) -> list[PointCloudRecord]:
    """The index's records.  A missing column or field, a value that does
    not parse and an id outside int64 raise ``FormatError``."""
    records = []
    with open(path, newline="") as fh:
        try:
            for row in csv.DictReader(fh):
                rid = int(row["id"])
                if not -2 ** 63 <= rid < 2 ** 63:
                    raise FormatError(f"{path}: id {rid} does not fit in int64")
                records.append(PointCloudRecord(
                    id=rid, path=row["path"], northing=float(row["northing"]),
                    easting=float(row["easting"]),
                    split=row.get("split", "train")))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad index record ({exc!r})") from exc
    if not records:
        raise DatasetError(f"{path}: index has no records")
    return records


def write_index(path: str, records: list[PointCloudRecord]):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "path", "northing", "easting", "split"])
        for r in records:
            w.writerow([r.id, r.path, repr(float(r.northing)),
                        repr(float(r.easting)), r.split])


def build_tuples(records: list[PointCloudRecord]) -> dict[int, TrainingTuple]:
    """Positives within ``POSITIVE_RADIUS`` (inclusive), non-negatives below
    ``NEGATIVE_RADIUS``.

    Distances are Euclidean over (northing, easting).  Both sets exclude the
    record itself; positives are a subset of non_negatives.
    """
    xy = np.array([[r.northing, r.easting] for r in records])
    ids = [r.id for r in records]
    d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(-1))
    out = {}
    for i, rid in enumerate(ids):
        pos = {ids[j] for j in np.nonzero(d[i] <= POSITIVE_RADIUS)[0] if j != i}
        nn = {ids[j] for j in np.nonzero(d[i] < NEGATIVE_RADIUS)[0] if j != i}
        out[rid] = TrainingTuple(id=rid, positives=pos, non_negatives=nn | pos)
    return out


def _place_geometry(rng: np.random.Generator, n_points: int) -> np.ndarray:
    """A distinct random scene: a few boxes over a ground plane."""
    n_boxes = int(rng.integers(3, 7))
    centers = rng.uniform(-0.7, 0.7, size=(n_boxes, 3))
    halves = rng.uniform(0.05, 0.35, size=(n_boxes, 3))
    n_ground = n_points // 4
    n_box = n_points - n_ground
    ground = np.column_stack([
        rng.uniform(-1.0, 1.0, size=n_ground),
        rng.uniform(-1.0, 1.0, size=n_ground),
        np.full(n_ground, -0.9) + rng.normal(0, 0.01, size=n_ground)])
    which = rng.integers(0, n_boxes, size=n_box)
    boxes = centers[which] + rng.uniform(-1.0, 1.0, size=(n_box, 3)) * halves[which]
    return np.concatenate([ground, boxes])


def _normalize(points: np.ndarray) -> np.ndarray:
    pts = points - points.mean(axis=0)
    scale = np.abs(pts).max()
    if scale > 0:
        pts = pts / scale * 0.999
    return pts


def synth_dataset(root: str, n_places: int, n_revisits: int,
                  geometry_seed: int = 0,
                  points_per_cloud: int = 1024) -> list[PointCloudRecord]:
    """Generate a desk-scale dataset of revisited synthetic places.

    Each place is a distinct random geometry revisited ``n_revisits`` times
    with small pose and noise perturbations.  Revisits stay within 3 m of the
    place center, places sit 60 m apart, so a record's positives are exactly
    its siblings and all cross-place pairs are valid negatives.  Writes
    cloud files, a full ``index.csv`` and one ``run_<r>.csv`` per revisit
    (usable as query / database splits).
    """
    if n_places < 2:
        raise DatasetError("need at least two places")
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng(geometry_seed)
    records = []
    for p in range(n_places):
        geo_rng = np.random.default_rng(geometry_seed * 10_007 + p)
        base = _place_geometry(geo_rng, points_per_cloud)
        cx = 60.0 * p
        for r in range(n_revisits):
            angle = rng.uniform(-0.02, 0.02)
            c, s = np.cos(angle), np.sin(angle)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            pts = base @ rot.T + rng.normal(0, 0.002, size=base.shape)
            pts = _normalize(pts)
            name = f"place{p:03d}_rev{r:02d}.bin"
            write_cloud(os.path.join(root, name), pts)
            theta = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0.0, 3.0)
            records.append(PointCloudRecord(
                id=p * n_revisits + r, path=name,
                northing=cx + rad * np.cos(theta),
                easting=rad * np.sin(theta)))
    write_index(os.path.join(root, "index.csv"), records)
    for r in range(n_revisits):
        run = [rec for rec in records if rec.id % n_revisits == r]
        write_index(os.path.join(root, f"run_{r}.csv"), run)
    return records


class Dataset:
    """Records, tuples and cached point arrays rooted at a directory."""

    def __init__(self, root: str, records: list[PointCloudRecord]):
        self.root = root
        self.records = {r.id: r for r in records}
        if len(self.records) != len(records):
            raise DatasetError("duplicate record ids in index")
        self.tuples = build_tuples(records)
        self._cache: dict[int, np.ndarray] = {}

    @classmethod
    def from_index(cls, index_path: str) -> "Dataset":
        return cls(os.path.dirname(os.path.abspath(index_path)),
                   load_index(index_path))

    def load_points(self, rid: int) -> np.ndarray:
        if rid not in self._cache:
            rec = self.records[rid]
            self._cache[rid] = load_cloud(os.path.join(self.root, rec.path))
        return self._cache[rid]

    def __len__(self):
        return len(self.records)
