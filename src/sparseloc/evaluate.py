"""Descriptor database, brute-force NN search, and the Recall@N protocol."""

from __future__ import annotations

import csv
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError, EmptyInput, FormatError

_DB_MAGIC = b"SLDESC1\n"


@dataclass
class EvalConfig:
    success_radius: float = 25.0  # meters
    top_n_percent: float = 1.0


class DescriptorDatabase:
    """Geo-tagged descriptors with unique ids and a uniform dimension."""

    def __init__(self, descriptors: np.ndarray, northing: np.ndarray,
                 easting: np.ndarray, ids: np.ndarray):
        self.descriptors = np.asarray(descriptors, dtype=np.float64)
        if self.descriptors.ndim != 2:
            self.descriptors = self.descriptors.reshape(len(ids), -1)
        self.northing = np.asarray(northing, dtype=np.float64)
        self.easting = np.asarray(easting, dtype=np.float64)
        self.ids = np.asarray(ids, dtype=np.int64)
        if len(np.unique(self.ids)) != len(self.ids):
            raise DatasetError("duplicate ids in descriptor database")

    def __len__(self):
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]


def _ranking(db: DescriptorDatabase, q: np.ndarray):
    """Database rows in (distance, id) order, and every row's distance."""
    d = np.linalg.norm(db.descriptors - q, axis=1)
    return np.lexsort((db.ids, d)), d


def knn(db: DescriptorDatabase, query: np.ndarray, k: int):
    """Exact k nearest neighbours by Euclidean distance, ties by lower id.

    Returns (ids, distances) in ascending distance order.
    """
    if len(db) == 0:
        raise EmptyInput("empty descriptor database")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(db):
        raise ValueError(f"k={k} exceeds database size {len(db)}")
    order, d = _ranking(db, np.asarray(query, dtype=np.float64).reshape(-1))
    return db.ids[order[:k]], d[order[:k]]


def recall_curve(queries: DescriptorDatabase, db: DescriptorDatabase,
                 max_n: int, cfg: EvalConfig | None = None) -> np.ndarray:
    """recall_at_n for n = 1..max_n, n clamped to len(db).  Each query is
    ranked once; the ranks of its first hit (len(db) for none) are counted
    into one cumulative histogram."""
    cfg = cfg or EvalConfig()
    if len(db) == 0:
        raise EmptyInput("empty descriptor database")
    if np.isin(queries.ids, db.ids).any():
        raise DatasetError("query and database ids overlap")
    if max_n < 1:
        raise ValueError(f"n must be >= 1, got {max_n}")
    if max_n > len(db):
        warnings.warn(f"n={max_n} clamped to database size {len(db)}", stacklevel=2)
    first = np.full(len(queries), len(db))
    for qi in range(len(queries)):
        order, _ = _ranking(db, queries.descriptors[qi])
        geo = np.sqrt((db.northing[order] - queries.northing[qi]) ** 2
                      + (db.easting[order] - queries.easting[qi]) ** 2)
        hits = np.flatnonzero(geo <= cfg.success_radius)
        if hits.size:
            first[qi] = hits[0]
    hits_within = np.cumsum(np.bincount(first, minlength=len(db) + 1))
    n = np.minimum(np.arange(max_n), len(db) - 1)
    return hits_within[n] / max(len(queries), 1)


def recall_at_n(queries: DescriptorDatabase, db: DescriptorDatabase,
                n: int, cfg: EvalConfig | None = None) -> float:
    """Fraction of queries with a top-n hit within the success radius."""
    return float(recall_curve(queries, db, n, cfg)[-1])


def one_percent_cutoff(db_size: int) -> int:
    """N for Recall@1%: half-up rounding of 1% of the database, at least 1."""
    return max(int(np.floor(db_size * 0.01 + 0.5)), 1)


def average_recall(queries_by_run: list[DescriptorDatabase],
                   dbs_by_run: list[DescriptorDatabase],
                   cfg: EvalConfig | None = None) -> dict:
    """AR@1 and AR@1% averaged over (query run, database run) pairings."""
    cfg = cfg or EvalConfig()
    if not queries_by_run or len(queries_by_run) != len(dbs_by_run):
        raise DatasetError("need matched query / database pairings")
    pairings = []
    for q, db in zip(queries_by_run, dbs_by_run):
        curve = recall_curve(q, db, len(db), cfg)
        n1p = one_percent_cutoff(len(db))
        pairings.append({"recall_at_1": float(curve[0]),
                         "recall_at_1pct": float(curve[n1p - 1]),
                         "cutoff_1pct": n1p, "queries": len(q), "db": len(db),
                         "curve": curve})
    return {
        "ar_at_1": float(np.mean([p["recall_at_1"] for p in pairings])),
        "ar_at_1pct": float(np.mean([p["recall_at_1pct"] for p in pairings])),
        "pairings": pairings,
    }


def cross_run_pairings(runs: list[DescriptorDatabase]):
    """Every ordered (query run i, database run j != i) pairing."""
    queries, dbs = [], []
    for i, q in enumerate(runs):
        for j, db in enumerate(runs):
            if i != j:
                queries.append(q)
                dbs.append(db)
    return queries, dbs


# -- database file ---------------------------------------------------------
# Layout: magic, uint32 dim, uint32 count, packed float32 LE descriptors.
# Geo-tags live in a CSV sidecar <path>.geo.csv with header id,northing,easting.

def save_database(path: str, db: DescriptorDatabase):
    with open(path, "wb") as fh:
        fh.write(_DB_MAGIC)
        fh.write(struct.pack("<II", db.dim, len(db)))
        fh.write(np.ascontiguousarray(db.descriptors, dtype="<f4").tobytes())
    with open(path + ".geo.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "northing", "easting"])
        for i in range(len(db)):
            w.writerow([int(db.ids[i]), repr(float(db.northing[i])),
                        repr(float(db.easting[i]))])


def load_database(path: str) -> DescriptorDatabase:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_DB_MAGIC):
        raise FormatError(f"{path}: not a descriptor database file")
    sidecar = path + ".geo.csv"
    if not os.path.exists(sidecar):
        raise FormatError(f"{sidecar}: missing geo-tag sidecar")
    ids, northing, easting = [], [], []
    try:
        dim, count = struct.unpack_from("<II", data, len(_DB_MAGIC))
        with open(sidecar, newline="") as fh:
            for row in csv.DictReader(fh):
                ids.append(int(row["id"]))
                northing.append(float(row["northing"]))
                easting.append(float(row["easting"]))
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise FormatError(f"{path}: corrupt descriptor database ({exc})") from exc
    payload = data[len(_DB_MAGIC) + 8:]
    if len(payload) != dim * count * 4:
        raise FormatError(f"{path}: truncated descriptor payload")
    if len(ids) != count:
        raise FormatError(f"{sidecar}: geo-tag count differs from descriptors")
    desc = np.frombuffer(payload, dtype="<f4").reshape(count, dim)
    return DescriptorDatabase(desc.astype(np.float64), np.array(northing),
                              np.array(easting), np.array(ids))
