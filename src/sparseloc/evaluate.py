"""Descriptor database, brute-force NN search, and the Recall@N protocol."""

from __future__ import annotations

import csv
import os
import struct
import warnings
from itertools import chain

import numpy as np

from .data import publish
from .errors import DatasetError, EmptyInput, FormatError, ShapeError
from .layers import _split

_DB_MAGIC = b"SLDESC1\n"
SUCCESS_RADIUS = 25.0        # metres: PointNetVLAD's true-match radius


class DescriptorDatabase:
    """Geo-tagged descriptors with unique ids and a uniform dimension.

    ``descriptors`` is the database's own read-only C-contiguous float64
    copy, so it cannot change once checked.  ``sq_norms`` (read-only too)
    holds each row's squared norm, computed once here for every search.
    ``descriptors32`` holds the same rows in float32 for the screen
    (``_intervals``), read-only: a loaded payload, a view of an immutable
    ``bytes``, is adopted as it is; any other input is copied.  A 1-D
    ``descriptors`` is one scalar descriptor per id.
    """

    def __init__(self, descriptors: np.ndarray, northing: np.ndarray,
                 easting: np.ndarray, ids: np.ndarray):
        self.ids = np.asarray(ids, dtype=np.int64)
        desc = np.array(descriptors, dtype=np.float64, order="C")
        if desc.ndim == 1 and len(desc) == len(self.ids):
            desc = desc.reshape(-1, 1)
        if desc.ndim != 2:
            raise DatasetError(f"descriptors of shape {desc.shape} are not "
                               f"one row per id for {len(self.ids)} ids")
        if desc.shape[1] == 0:
            # zero-width rows are all at distance 0, so every query would hit
            raise DatasetError("descriptors have zero columns")
        self.northing = np.asarray(northing, dtype=np.float64)
        self.easting = np.asarray(easting, dtype=np.float64)
        counts = [len(a) for a in (desc, self.northing, self.easting,
                                   self.ids)]
        if len(set(counts)) > 1:
            raise DatasetError(
                "descriptors, northing, easting and ids have different "
                f"lengths: {', '.join(map(str, counts))}")
        if len(np.unique(self.ids)) != len(self.ids):
            raise DatasetError("duplicate ids in descriptor database")
        sq_norms = np.einsum("ij,ij->i", desc, desc)
        # a finite norm means a finite row; a square may overflow on its own
        if not np.isfinite(sq_norms).all():
            bad = np.flatnonzero(~np.isfinite(desc).all(axis=1))
            if bad.size:
                raise DatasetError(
                    f"descriptor of id {self.ids[bad[0]]} is NaN or infinite")
        desc.flags.writeable = sq_norms.flags.writeable = False
        self.descriptors, self.sq_norms = desc, sq_norms
        self.descriptors32 = _float32_rows(descriptors, desc)

    def __len__(self):
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]


def _float32_rows(given, desc: np.ndarray) -> np.ndarray:
    """``given`` itself when it is a read-only C-contiguous float32 view of
    a ``bytes`` object, which nothing can write; else a new read-only
    float32 copy of ``desc`` (entries past float32's range become inf,
    which ``_intervals`` never screens)."""
    base = given
    while isinstance(base, np.ndarray):
        base = base.base
    if (isinstance(base, bytes) and given.dtype == np.float32
            and given.flags.c_contiguous and not given.flags.writeable):
        return given.reshape(desc.shape)
    with np.errstate(over="ignore"):
        rows = desc.astype(np.float32)
    rows.flags.writeable = False
    return rows


_BLOCK = 128                 # most queries per GEMM screen
_U = 2.0 ** -24              # unit roundoff of float32
_MU = 2.0 ** -126            # smallest normal float32
_SQUARE_LIMIT = float(np.finfo(np.float32).max) / 8


def _distances(descriptors: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise ``norm(descriptors - q)``: the distance every rank is
    decided on.  Each row's value depends only on that row, so rows
    gathered from a C-contiguous database give the same bits.  The squares
    and their sum are ``np.linalg.norm``'s, with the squares in place."""
    diff = descriptors - q
    diff *= diff
    return np.sqrt(np.add.reduce(diff, axis=1))


def _ranking(db: DescriptorDatabase, q: np.ndarray):
    """Database rows in (distance, id) order, and every row's distance."""
    d = _distances(db.descriptors, q)
    return np.lexsort((db.ids, d)), d


def knn(db: DescriptorDatabase, query: np.ndarray, k: int):
    """Exact k nearest neighbours by Euclidean distance, ties by lower id.

    Returns (ids, distances) in ascending distance order, the first k of
    ``_ranking``.  Every row gets an interval from ``_intervals``, one
    float32 GEMV against ``descriptors32`` with the stored ``sq_norms``;
    with U the k-th least upper bound, k rows have e <= U, so every row of
    the top k or tied with its last has lo <= e <= U.  Only those rows get
    an exact distance.
    """
    if len(db) == 0:
        raise EmptyInput("empty descriptor database")
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.size != db.dim:
        raise ShapeError(f"query descriptor has dimension {query.size}, "
                         f"database has dimension {db.dim}")
    if not np.isfinite(query).all():
        raise ValueError("query descriptor is not finite")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(db):
        raise ValueError(f"k={k} exceeds database size {len(db)}")
    bounds = _intervals(db.descriptors32, db.sq_norms, query[None],
                        np.array([query @ query]))
    if bounds is None:
        order, d = _ranking(db, query)
        return db.ids[order[:k]], d[order[:k]]
    lo, hi = bounds[0][0], bounds[1][0]
    rows = np.flatnonzero(lo <= np.partition(hi, k - 1)[k - 1])
    e = _distances(db.descriptors[rows], query)
    order = np.lexsort((db.ids[rows], e))[:k]
    return db.ids[rows[order]], e[order]


def _intervals(rows32: np.ndarray, sq_db: np.ndarray, desc: np.ndarray,
               sq_q: np.ndarray):
    """(lo, hi), each (queries, rows) float32: an interval around every
    exact distance e = ``_distances(descriptors, q)``, from one float32
    GEMM of the queries ``desc`` against ``rows32``, the database's
    ``descriptors32``.  None when the squared norms are NaN, inf or too
    large to bound.

    For a query q and an entry x of dimension n (their float64 values),
    D = ||q - x||^2 and T = ||q||^2 + ||x||^2 >= D/2.  The exact path is
    e = fl(sqrt(S)), S the float64 sum of fl(fl(x_j - q_j)^2), and
    |S - D| <= 2 gamma'_{n+2} T + n 2^-1074 for float64's u' = 2^-53.  The
    screen is s = fl(A - 2g), where A = fl(a_q + a_x) sums the float32
    conversions of the float64 squared norms and g is the GEMM's q.x on
    float32 conversions of q and x.  Let u = 2^-24, mu = 2^-126 and
    gamma_k = ku/(1 - ku).  Each float32 operation, conversions included,
    gives (exact)(1 + delta) + alpha, |delta| <= u, |alpha| <= mu, with
    gradual underflow and also where subnormal results are flushed to
    zero; so every operand the GEMM reads, even with subnormal inputs read
    as zero, is within u|q_j| + mu of q_j (or x_j).  An n-term dot product
    in any order is off by gamma_n |a|.|b| plus one alpha per operation
    (Higham, Accuracy and Stability of Numerical Algorithms, s3.1).  With
    |q|.|x| <= ||q|| ||x|| <= T/2 (Cauchy-Schwarz) and
    sqrt(n)(||q|| + ||x||) <= n/2 + T,

      |g - q.x| <= gamma_{n+2} T/2 + 2 mu T + 3n mu.

    The float64 norms are within T/2^30 + n 2^-1074 of the exact ones (n is
    below 2^20, as the condition below requires), so
    |A - T| <= gamma_3 T + 6 mu.  -2g adds at most 2 mu (a flushed
    subnormal) and s one more rounding, so |s - D| <= gamma_{n+9} T +
    (6n + 10) mu, and with the exact path's error

      |S - s| <= gamma_{n+10} T + 17n mu.

    As T <= (A + 6 mu)/(1 - gamma_3), for (n + 14)u <= 1/100 the band
    W = fl(2(n + 10)u A + 32n mu) exceeds |S - s| + 2 mu even after its own
    two roundings.  So s + W >= S + 2 mu is normal, fl(s + W) >=
    S(1 - u), and max(fl(s - W), 0) <= S(1 + u).  sqrt is correctly
    rounded, e = sqrt(S)(1 + delta'), |delta'| <= u', and three more
    roundings each way leave

      lo = sqrt(max(s - W, 0))(1 - 4u)  <=  e  <=  sqrt(s + W)(1 + 4u) = hi.

    Every float32 value here stays below about 2.1T, and the exact sums
    below 2.1T too, so squared norms that are NaN, inf or sum past an
    eighth of float32's max give None, as does n past the bound above.
    """
    dim = rows32.shape[1]
    if (dim + 14) * _U > 0.01 or not sq_q.max() + sq_db.max() <= _SQUARE_LIMIT:
        return None
    both = np.add.outer(sq_q.astype(np.float32), sq_db.astype(np.float32))
    s = desc.astype(np.float32) @ rows32.T
    s *= -2.0
    s += both
    band = both
    band *= 2 * (dim + 10) * _U
    band += 32 * dim * _MU
    hi = np.add(s, band)
    np.sqrt(hi, out=hi)
    hi *= 1 + 4 * _U
    lo = np.subtract(s, band, out=s)
    np.maximum(lo, 0.0, out=lo)
    np.sqrt(lo, out=lo)
    lo *= 1 - 4 * _U
    return lo, hi


def _screen_block(db: DescriptorDatabase, desc: np.ndarray,
                  north: np.ndarray, east: np.ndarray,
                  radius: float) -> np.ndarray:
    """0-based rank under ``_ranking`` of each query's first database entry
    within ``radius`` (len(db) for none), for a block of queries.

    One GEMM screens the block (``_intervals``); the exact distance is
    computed only where the screen cannot decide.  A block the screen
    cannot bound is ranked with ``_ranking`` instead.

    The first hit is the (e, id)-least among the hits with lo <= the least
    hi over hits.  Its rank counts the rows with hi < its e, plus the rows
    whose [lo, hi] holds its e that precede it under (e, id).
    """
    # the geo mask and the band tests in reused (queries, rows) buffers
    geo = np.subtract(db.northing, north[:, None])
    np.square(geo, out=geo)
    across = np.subtract(db.easting, east[:, None])
    np.square(across, out=across)
    geo += across
    np.sqrt(geo, out=geo)
    hit = geo <= radius
    del geo, across
    first = np.full(len(desc), len(db))
    bounds = _intervals(db.descriptors32, db.sq_norms, desc,
                        np.einsum("ij,ij->i", desc, desc))
    if bounds is None:
        for i, q in enumerate(desc):
            order, _ = _ranking(db, q)
            hits = np.flatnonzero(hit[i, order])
            if hits.size:
                first[i] = hits[0]
        return first
    lo, hi = bounds
    test = np.empty_like(hit)

    # the first hit, from the hits that could be it
    nearest_hit = np.min(hi, axis=1, where=hit, initial=np.inf)
    np.less_equal(lo, nearest_hit[:, None], out=test)
    test &= hit
    qi, rows = np.nonzero(test)
    e = _distances(db.descriptors[rows], desc[qi])
    order = np.lexsort((db.ids[rows], e, qi))
    found, lead = np.unique(qi[order], return_index=True)
    lead = order[lead]
    d_first = np.full(len(desc), -np.inf)
    d_first[found] = e[lead]
    id_first = np.zeros(len(desc), dtype=db.ids.dtype)
    id_first[found] = db.ids[rows[lead]]

    # its rank: rows surely before it, plus those the band leaves open
    rank = np.count_nonzero(np.less(hi, d_first[:, None], out=test), axis=1)
    np.less_equal(lo, d_first[:, None], out=test)
    test &= np.greater_equal(hi, d_first[:, None], out=hit)
    qi, rows = np.nonzero(test)
    e = _distances(db.descriptors[rows], desc[qi])
    ahead = (e < d_first[qi]) | ((e == d_first[qi])
                                 & (db.ids[rows] < id_first[qi]))
    rank += np.bincount(qi[ahead], minlength=len(desc))
    first[found] = rank[found]
    return first


def _first_hits(queries: DescriptorDatabase, db: DescriptorDatabase,
                radius: float) -> np.ndarray:
    """Each query's first-hit rank, screened in blocks (``_screen_block``).

    A large pairing screens its queries as two halves on two threads
    (``layers._split``).  Each half, or the whole range when it does not
    split, is cut into the fewest blocks of at most _BLOCK queries, of
    sizes that differ by at most one: the 200 queries of a half of a
    400-query pairing run as two blocks of 100, not 128 and 72.  The ranks
    do not depend on where the blocks are cut: a query's rank comes from
    its own row of the screen, whose bound holds however that row was
    rounded, and from exact distances of that query alone.
    """
    first = np.empty(len(queries), dtype=np.int64)

    def rows(lo: int, hi: int):
        for block in _even_blocks(lo, hi):
            first[block] = _screen_block(db, queries.descriptors[block],
                                         queries.northing[block],
                                         queries.easting[block], radius)

    # the GEMM multiply-adds of a block of the larger half
    half = len(queries) - len(queries) // 2
    _split(rows, len(queries), -(-half // _block_count(half)) * len(db) * db.dim)
    return first


def _block_count(n: int) -> int:
    """The fewest blocks of at most _BLOCK queries that hold ``n``."""
    return max(1, -(-n // _BLOCK))


def _even_blocks(lo: int, hi: int):
    """``range(lo, hi)`` as ``_block_count`` slices, sizes within one."""
    count = _block_count(hi - lo)
    cuts = [lo + (hi - lo) * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def recall_curve(queries: DescriptorDatabase, db: DescriptorDatabase,
                 max_n: int,
                 success_radius: float = SUCCESS_RADIUS) -> np.ndarray:
    """recall_at_n for n = 1..max_n, n clamped to len(db).  Each query is
    screened once, in blocks (see ``_screen_block``); the ranks of its first
    hit (len(db) for none) are counted into one cumulative histogram.  The
    ranks are exact, so the curve does not depend on how ``_first_hits``
    cuts the queries into blocks or halves."""
    if not success_radius >= 0:
        raise ValueError("success_radius must be at least 0, "
                         f"got {success_radius}")
    if len(db) == 0:
        raise EmptyInput("empty descriptor database")
    if queries.dim != db.dim:
        raise ShapeError(f"query descriptors have dimension {queries.dim}, "
                         f"database has dimension {db.dim}")
    if np.isin(queries.ids, db.ids).any():
        raise DatasetError("query and database ids overlap")
    if max_n < 1:
        raise ValueError(f"n must be >= 1, got {max_n}")
    if max_n > len(db):
        warnings.warn(f"n={max_n} clamped to database size {len(db)}", stacklevel=2)
    first = _first_hits(queries, db, success_radius)
    hits_within = np.cumsum(np.bincount(first, minlength=len(db) + 1))
    n = np.minimum(np.arange(max_n), len(db) - 1)
    return hits_within[n] / max(len(queries), 1)


def recall_at_n(queries: DescriptorDatabase, db: DescriptorDatabase,
                n: int, success_radius: float = SUCCESS_RADIUS) -> float:
    """Fraction of queries with a top-n hit within ``success_radius``."""
    return float(recall_curve(queries, db, n, success_radius)[-1])


def one_percent_cutoff(db_size: int) -> int:
    """N for Recall@1%: half-up rounding of 1% of the database, at least 1."""
    return max(int(np.floor(db_size * 0.01 + 0.5)), 1)


def average_recall(queries_by_run: list[DescriptorDatabase],
                   dbs_by_run: list[DescriptorDatabase],
                   success_radius: float = SUCCESS_RADIUS) -> dict:
    """AR@1 and AR@1% averaged over (query run, database run) pairings."""
    if not queries_by_run or len(queries_by_run) != len(dbs_by_run):
        raise DatasetError("need matched query / database pairings")
    pairings = []
    for q, db in zip(queries_by_run, dbs_by_run):
        curve = recall_curve(q, db, len(db), success_radius)
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
# Geo-tags live in a CSV sidecar <path>.geo.csv with header id,northing,easting:
# columns are found by name, others are ignored, and no line is a comment.

_GEO = np.dtype([("id", "<i8"), ("northing", "<f8"), ("easting", "<f8")])


def save_database(path: str, db: DescriptorDatabase):
    """Write ``<path>`` and its sidecar in one :func:`publish`, sidecar
    first, so a write that fails leaves a database already at ``path`` as
    it was."""
    payload = np.ascontiguousarray(db.descriptors32, dtype="<f4")
    if not np.isfinite(payload).all():
        raise ValueError(f"{path}: a descriptor is not finite in float32")
    rows = zip(db.ids.tolist(), db.northing.tolist(), db.easting.tolist())
    geo = ("id,northing,easting\r\n" + ("%d,%r,%r\r\n" * len(db))
           % tuple(chain.from_iterable(rows)))
    publish({path + ".geo.csv": [geo.encode()],
             path: [_DB_MAGIC, struct.pack("<II", db.dim, len(db)),
                    payload.tobytes()]})


def _load_geo_tags(sidecar: str):
    """C-contiguous ``ids``, ``northing`` and ``easting`` from a sidecar,
    its columns found by name in the header and its body parsed by one
    ``np.loadtxt`` call.  A missing column or an unreadable row raises
    ``FormatError``."""
    with open(sidecar, newline="") as fh:
        try:
            header = next(csv.reader([fh.readline()]))
            column = {name: i for i, name in enumerate(header)}
            usecols = [column[name] for name in _GEO.names]
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                table = np.loadtxt(fh, dtype=_GEO, delimiter=",",
                                   comments=None, quotechar='"', ndmin=1,
                                   usecols=usecols)
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{sidecar}: corrupt geo-tag sidecar "
                              f"({exc!r})") from exc
    return [np.ascontiguousarray(table[name]) for name in _GEO.names]


def load_database(path: str) -> DescriptorDatabase:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_DB_MAGIC):
        raise FormatError(f"{path}: not a descriptor database file")
    sidecar = path + ".geo.csv"
    if not os.path.exists(sidecar):
        raise FormatError(f"{sidecar}: missing geo-tag sidecar")
    start = len(_DB_MAGIC) + 8
    if len(data) < start:
        raise FormatError(f"{path}: truncated descriptor header")
    dim, count = struct.unpack_from("<II", data, len(_DB_MAGIC))
    if len(data) - start != dim * count * 4:
        raise FormatError(f"{path}: truncated descriptor payload")
    ids, northing, easting = _load_geo_tags(sidecar)
    if len(ids) != count:
        raise FormatError(f"{sidecar}: geo-tag count differs from descriptors")
    desc = np.frombuffer(data, "<f4", dim * count, start).reshape(count, dim)
    try:
        return DescriptorDatabase(desc, northing, easting, ids)
    except DatasetError as exc:
        raise FormatError(f"{path}: {exc}") from exc
