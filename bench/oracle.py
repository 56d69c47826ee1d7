"""Brute-force oracles and answer checks for the benchmark.

Each ``check_*`` returns a list of failure messages; empty means correct.
The retrieval oracle ranks every database entry by (distance, id), the tie
rule ``sparseloc.knn`` documents, and derives each query's first
geographically correct rank; Recall@N is the share of queries whose first
correct rank is below N.
"""

from __future__ import annotations

import numpy as np

SUCCESS_RADIUS = 25.0   # metres, EvalConfig's default
TIE_RTOL = 1e-9         # a different id is accepted only at an exact-distance tie


def check_finite(values, shape) -> list[str]:
    values = np.asarray(values)
    if values.shape != shape:
        return [f"shape {values.shape} != {shape}"]
    if not np.all(np.isfinite(values)):
        return ["non-finite values"]
    return []


def check_descriptor(got, ref, rtol, label) -> list[str]:
    bad = check_finite(got, ref.shape)
    if bad:
        return [f"{label}: {m}" for m in bad]
    err = float(np.max(np.abs(got - ref)))
    limit = rtol * float(np.max(np.abs(ref)))
    return [] if err <= limit else [
        f"{label}: max |descriptor - reference| = {err:.3e} > {limit:.3e}"]


def distances(db, q) -> np.ndarray:
    diff = db.descriptors - np.asarray(q, dtype=np.float64).reshape(1, -1)
    return np.sqrt((diff * diff).sum(axis=1))


def ranking(db, q):
    d = distances(db, q)
    return np.lexsort((db.ids, d)), d


def check_knn(ids, dists, db, q, k) -> list[str]:
    order, d = ranking(db, q)
    want = db.ids[order[:k]]
    ids = np.asarray(ids)
    if ids.shape != want.shape:
        return [f"knn returned {ids.shape} ids, expected {want.shape}"]
    bad = []
    if not np.array_equal(ids, want):
        row_of = {int(i): r for r, i in enumerate(db.ids)}
        for got_id, want_id in zip(ids, want):
            if got_id == want_id:
                continue
            dg = d[row_of[int(got_id)]] if int(got_id) in row_of else np.inf
            dw = d[row_of[int(want_id)]]
            if not abs(dg - dw) <= TIE_RTOL * dw:
                bad.append(f"knn id {int(got_id)} where the oracle has {int(want_id)}")
                break
    if not np.allclose(dists, d[order[:k]], rtol=TIE_RTOL, atol=0.0):
        bad.append("knn distances differ from the oracle's")
    return bad


def first_hit_ranks(queries, db) -> np.ndarray:
    """0-based rank of each query's first database entry within the radius."""
    ranks = np.empty(len(queries), dtype=np.int64)
    for qi in range(len(queries)):
        order, _ = ranking(db, queries.descriptors[qi])
        geo = np.hypot(db.northing[order] - queries.northing[qi],
                       db.easting[order] - queries.easting[qi])
        hits = np.nonzero(geo <= SUCCESS_RADIUS)[0]
        ranks[qi] = hits[0] if len(hits) else len(db)
    return ranks


def protocol(queries_by_run, dbs_by_run, max_n: int) -> dict:
    """AR@1, AR@1% and Recall@1..max_n per pairing from first-hit ranks."""
    curves, r1, r1p = [], [], []
    for q, db in zip(queries_by_run, dbs_by_run):
        ranks = first_hit_ranks(q, db)
        cutoff = max(int(np.floor(len(db) * 0.01 + 0.5)), 1)
        recall = lambda n: int(np.sum(ranks < n)) / len(q)
        r1.append(recall(1))
        r1p.append(recall(cutoff))
        curves.append([recall(n) for n in range(1, max_n + 1)])
    return {"ar_at_1": float(np.mean(r1)), "ar_at_1pct": float(np.mean(r1p)),
            "curves": curves}


def check_protocol(ar: dict, curves, queries_by_run, dbs_by_run,
                   expected: dict | None = None) -> list[str]:
    if expected is None:
        expected = protocol(queries_by_run, dbs_by_run, len(curves[0]))
    bad = []
    for key in ("ar_at_1", "ar_at_1pct"):
        if not abs(ar[key] - expected[key]) <= 1e-12:
            bad.append(f"{key} {ar[key]!r} != oracle {expected[key]!r}")
    for p, (got, want) in enumerate(zip(curves, expected["curves"])):
        got = np.asarray(got, dtype=np.float64)
        if got.shape != (len(want),) or not np.all(np.abs(got - want) <= 1e-12):
            bad.append(f"recall curve of pairing {p} differs from the oracle's")
    return bad
