"""Command line interface: train, embed, eval, query, gradcheck.

Config values resolve with precedence CLI flag > config file > default.
Config files are flat ``key=value`` text; ``#`` starts a comment.
Exit codes: 0 ok, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import time
import warnings

import numpy as np

from . import data as data_io
from . import evaluate as ev
from .errors import (DatasetError, EmptyInput, FormatError, NumericError,
                     SparselocError)
from .gradcheck import run_suite
from .model import (Descriptor, MinkLoc, ModelConfig, compute_descriptor,
                    load_checkpoint, save_checkpoint)
from .sparse import PointCloud
from .train import AugmentConfig, TrainingConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_CONFIG_FIELDS = {}
for _cls in (TrainingConfig, ModelConfig, AugmentConfig, ev.EvalConfig):
    for _f in dataclasses.fields(_cls):
        _CONFIG_FIELDS[_f.name] = (_cls, _f.type)


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value")
            key, raw = (s.strip() for s in line.split("=", 1))
            values[key] = raw
    return values


def _coerce(key: str, raw: str):
    if key not in _CONFIG_FIELDS:
        raise FormatError(f"unknown config key: {key}")
    _, ftype = _CONFIG_FIELDS[key]
    if ftype in ("int", int):
        return int(raw)
    if ftype in ("float", float):
        return float(raw)
    if ftype in ("bool", bool):
        return raw.lower() in ("1", "true", "yes", "on")
    return raw


def resolve_configs(args) -> tuple[TrainingConfig, ModelConfig, AugmentConfig,
                                   ev.EvalConfig]:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    values = {}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            values[key] = _coerce(key, raw)
    flag_map = {
        "descriptor_dim": getattr(args, "descriptor_dim", None),
        "pooling": getattr(args, "pooling", None),
        "success_radius": getattr(args, "radius", None),
        "epochs": getattr(args, "epochs", None),
        "initial_batch": getattr(args, "batch", None),
        "batch_limit": getattr(args, "batch_limit", None),
    }
    for key, val in flag_map.items():
        if val is not None:
            values[key] = val
    built = {}
    for cls in (TrainingConfig, ModelConfig, AugmentConfig, ev.EvalConfig):
        kw = {f.name: values[f.name] for f in dataclasses.fields(cls)
              if f.name in values}
        built[cls] = cls(**kw)
    return (built[TrainingConfig], built[ModelConfig], built[AugmentConfig],
            built[ev.EvalConfig])


def _load_model(checkpoint: str, cfg: ModelConfig, seed: int) -> MinkLoc:
    model = MinkLoc(cfg, seed=seed)
    model.load_state_dict(load_checkpoint(checkpoint))
    return model


def _file_descriptor(model: MinkLoc, pts: np.ndarray, source) -> Descriptor:
    """Descriptor of points from ``load_cloud``, which warns on range itself."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "point coordinates fall outside")
        return compute_descriptor(PointCloud(pts, source), model)


def _embed_records(model: MinkLoc, dataset: data_io.Dataset,
                   report=None) -> ev.DescriptorDatabase:
    descs, north, east, ids = [], [], [], []
    t0 = time.perf_counter()
    for rid in sorted(dataset.records):
        rec = dataset.records[rid]
        d = _file_descriptor(model, dataset.load_points(rid), rid)
        descs.append(d.values)
        north.append(rec.northing)
        east.append(rec.easting)
        ids.append(rid)
    dt = time.perf_counter() - t0
    if report:
        report(f"embedded {len(ids)} clouds in {dt:.2f}s "
               f"({len(ids) / dt:.1f} clouds/s)")
    return ev.DescriptorDatabase(np.stack(descs), np.array(north),
                                 np.array(east), np.array(ids))


def cmd_train(args) -> int:
    tcfg, mcfg, acfg, _ = resolve_configs(args)
    index = os.path.join(args.dataset, "index.csv")
    if not os.path.exists(index):
        print(f"error: index file not found: {index}", file=sys.stderr)
        return EXIT_DATA
    dataset = data_io.Dataset.from_index(index)
    model = MinkLoc(mcfg, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    train(dataset, model, tcfg, acfg, seed=args.seed, out_dir=args.out,
          log=print)
    print(f"final checkpoint: {os.path.join(args.out, f'epoch_{tcfg.epochs}.ckpt')}")
    return EXIT_OK


def cmd_embed(args) -> int:
    _, mcfg, _, _ = resolve_configs(args)
    model = _load_model(args.checkpoint, mcfg, args.seed)
    dataset = data_io.Dataset.from_index(args.index)
    db = _embed_records(model, dataset, report=print)
    ev.save_database(args.out, db)
    print(f"wrote {args.out}: count={len(db)} dim={db.dim}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _, _, _, ecfg = resolve_configs(args)
    dbs = [ev.load_database(p) for p in args.db]
    queries = [ev.load_database(p) for p in args.query]
    if len(queries) == 1 and len(dbs) == 1:
        q_runs, db_runs = queries, dbs
    else:
        q_runs, db_runs = [], []
        for q in queries:
            for db in dbs:
                if set(q.ids.tolist()) == set(db.ids.tolist()):
                    continue  # same run on both sides
                q_runs.append(q)
                db_runs.append(db)
        if not q_runs:
            raise DatasetError("no usable query/database pairings")
    result = ev.average_recall(q_runs, db_runs, ecfg)
    rows = [("AR@1", result["ar_at_1"]), ("AR@1%", result["ar_at_1pct"])]
    max_n = min(len(db) for db in db_runs)
    curve = np.mean([ev.recall_curve(q, db, max_n, ecfg)
                     for q, db in zip(q_runs, db_runs)], axis=0)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "value"])
        for name, val in rows:
            w.writerow([name, f"{val:.4f}"])
        w.writerow([])
        w.writerow(["n", "recall"])
        for n, r in enumerate(curve, 1):
            w.writerow([n, f"{r:.4f}"])
    for name, val in rows:
        print(f"{name} = {val:.4f}")
    return EXIT_OK


def cmd_query(args) -> int:
    if args.k < 1:
        print(f"error: -k must be >= 1, got {args.k}", file=sys.stderr)
        return EXIT_USAGE
    _, mcfg, _, _ = resolve_configs(args)
    model = _load_model(args.checkpoint, mcfg, args.seed)
    db = ev.load_database(args.db)
    desc = _file_descriptor(model, data_io.load_cloud(args.cloud), args.cloud)
    k = args.k
    if k > len(db):
        print(f"warning: k={k} clamped to database size {len(db)}",
              file=sys.stderr)
        k = len(db)
    ids, dists = ev.knn(db, desc.values, k)
    print(f"{'rank':>4}  {'id':>8}  distance")
    for rank, (rid, d) in enumerate(zip(ids, dists), 1):
        print(f"{rank:>4}  {rid:>8}  {d:.6f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_suite(seed=args.seed, corrupt=args.corrupt)
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name:<24} max_rel_err={res.max_err:.2e} "
              f"(tol {res.tolerance:g})")
        ok &= res.passed
    return EXIT_OK if ok else EXIT_NUMERIC


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sparseloc",
                description="Sparse-voxel place recognition pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--descriptor-dim", dest="descriptor_dim", type=int)
        sp.add_argument("--pooling", choices=("gem", "mac"))

    sp = sub.add_parser("train", help="train a model on an indexed dataset")
    common(sp)
    sp.add_argument("--dataset", required=True, help="dataset root directory")
    sp.add_argument("--out", required=True, help="output run directory")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch", type=int)
    sp.add_argument("--batch-limit", dest="batch_limit", type=int)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("embed", help="embed an index into a descriptor db")
    common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--index", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("eval", help="Recall@N evaluation over runs")
    common(sp)
    sp.add_argument("--db", nargs="+", required=True)
    sp.add_argument("--query", nargs="+", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--radius", type=float)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("query", help="top-k search for one cloud")
    common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--db", required=True)
    sp.add_argument("--cloud", required=True)
    sp.add_argument("-k", type=int, default=5)
    sp.set_defaults(func=cmd_query)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    common(sp)
    sp.add_argument("--corrupt", action="store_true",
                    help="test hook: corrupt one analytic gradient")
    sp.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    except (FormatError, DatasetError, EmptyInput, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SparselocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
