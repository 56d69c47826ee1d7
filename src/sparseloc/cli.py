"""Command line interface; each command takes only the flags it reads.

  train      --config --seed --dataset --out --descriptor-dim --epochs
             --batch --batch-limit
  embed      --checkpoint --index --out
  eval       --db --query --out --radius
  query      --checkpoint --db --cloud -k
  gradcheck  --seed

Only ``train`` reads a config file.  Its values resolve with precedence
CLI flag > config file > default.  Config files are flat ``key=value``
text; ``#`` starts a comment.  Every config field is an int or a float.
``embed`` and ``query`` build the network that the checkpoint records: its
widths, descriptor dimension and quantization step.
Exit codes: 0 ok, 1 usage error, 2 data error (an OS error on a file and
a refused config or checkpoint value included), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys
import time
import warnings

import numpy as np

from . import data as data_io
from . import evaluate as ev
from .errors import (DatasetError, EmptyInput, FormatError, NumericError,
                     ShapeError, SparselocError)
from .gradcheck import run_suite
from .model import (Descriptor, MinkLoc, ModelConfig, checkpoint_config,
                    compute_descriptor, load_checkpoint)
from .sparse import PointCloud
from .train import AugmentConfig, TrainingConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_CONFIGS = (TrainingConfig, ModelConfig, AugmentConfig)
_CONFIG_FIELDS = {f.name: f.type for cls in _CONFIGS
                  for f in dataclasses.fields(cls)}


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
    ftype = _CONFIG_FIELDS[key]
    try:
        return int(raw) if ftype == "int" else float(raw)
    except ValueError:
        raise FormatError(f"config key {key}: expected {ftype}, "
                          f"got '{raw}'") from None


def resolve_configs(args) -> tuple[TrainingConfig, ModelConfig, AugmentConfig]:
    """Defaults, overlaid by the config file, overlaid by same-named flags."""
    raw = parse_config_file(args.config) if args.config else {}
    values = {key: _coerce(key, val) for key, val in raw.items()}
    values.update((key, val) for key, val in vars(args).items()
                  if key in _CONFIG_FIELDS and val is not None)
    return tuple(cls(**{f.name: values[f.name] for f in dataclasses.fields(cls)
                        if f.name in values}) for cls in _CONFIGS)


def _load_model(args) -> MinkLoc:
    """The network that the checkpoint records."""
    state = load_checkpoint(args.checkpoint)
    model = MinkLoc(checkpoint_config(state))
    model.load_state_dict(state)
    return model


def _file_descriptor(model: MinkLoc, pts: np.ndarray, source) -> Descriptor:
    """Descriptor of points from ``load_cloud``, which warns on range itself."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "point coordinates fall outside")
        return compute_descriptor(PointCloud(pts, source), model)


def _embed_records(model: MinkLoc, root: str,
                   records: list[data_io.PointCloudRecord]
                   ) -> ev.DescriptorDatabase:
    """Descriptors of the records' clouds in id order, each cloud read
    from ``root`` once and dropped after its descriptor; prints the rate."""
    records = sorted(records, key=lambda rec: rec.id)
    descs = []
    t0 = time.perf_counter()
    for rec in records:
        pts = data_io.load_cloud(os.path.join(root, rec.path))
        descs.append(_file_descriptor(model, pts, rec.id).values)
    dt = time.perf_counter() - t0
    print(f"embedded {len(records)} clouds in {dt:.2f}s "
          f"({len(records) / dt:.1f} clouds/s)")
    return ev.DescriptorDatabase(
        np.stack(descs), np.array([rec.northing for rec in records]),
        np.array([rec.easting for rec in records]),
        np.array([rec.id for rec in records]))


def cmd_train(args) -> int:
    tcfg, mcfg, acfg = resolve_configs(args)
    dataset = data_io.Dataset.from_index(
        os.path.join(args.dataset, "index.csv"))
    model = MinkLoc(mcfg, seed=args.seed)
    train(dataset, model, tcfg, acfg, seed=args.seed, out_dir=args.out,
          log=print)
    print(f"final checkpoint: {os.path.join(args.out, f'epoch_{tcfg.epochs}.ckpt')}")
    return EXIT_OK


def cmd_embed(args) -> int:
    records = data_io.load_index(args.index)
    if len({rec.id for rec in records}) != len(records):
        raise DatasetError("duplicate record ids in index")
    model = _load_model(args)
    db = _embed_records(model, os.path.dirname(os.path.abspath(args.index)),
                        records)
    ev.save_database(args.out, db)
    print(f"wrote {args.out}: count={len(db)} dim={db.dim}")
    return EXIT_OK


def cmd_eval(args) -> int:
    dbs = [ev.load_database(p) for p in args.db]
    queries = [ev.load_database(p) for p in args.query]
    # --query x --db product; cross_run_pairings pairs within one list
    q_runs, db_runs = [], []
    for q in queries:
        for db in dbs:
            if set(q.ids.tolist()) == set(db.ids.tolist()):
                continue  # same run on both sides
            q_runs.append(q)
            db_runs.append(db)
    if not q_runs:
        raise DatasetError("no usable query/database pairings")
    result = ev.average_recall(q_runs, db_runs, args.success_radius)
    rows = [("AR@1", result["ar_at_1"]), ("AR@1%", result["ar_at_1pct"])]
    max_n = min(len(db) for db in db_runs)
    curve = np.mean([p["curve"][:max_n] for p in result["pairings"]], axis=0)
    text = io.StringIO()
    w = csv.writer(text)
    w.writerow(["metric", "value"])
    for name, val in rows:
        w.writerow([name, f"{val:.4f}"])
    w.writerow([])
    w.writerow(["n", "recall"])
    for n, r in enumerate(curve, 1):
        w.writerow([n, f"{r:.4f}"])
    data_io.publish({args.out: [text.getvalue().encode()]})
    for name, val in rows:
        print(f"{name} = {val:.4f}")
    return EXIT_OK


def cmd_query(args) -> int:
    if args.k < 1:
        print(f"error: -k must be >= 1, got {args.k}", file=sys.stderr)
        return EXIT_USAGE
    model = _load_model(args)
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
    results = run_suite(seed=args.seed)
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

    # a flag that sets a config field has that field's name as its dest
    sp = sub.add_parser("train", help="train a model on an indexed dataset")
    sp.add_argument("--config", help="flat key=value config file")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dataset", required=True, help="dataset root directory")
    sp.add_argument("--out", required=True, help="output run directory")
    sp.add_argument("--descriptor-dim", type=int)
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch", dest="initial_batch", type=int)
    sp.add_argument("--batch-limit", type=int)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("embed", help="embed an index into a descriptor db")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--index", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("eval", help="Recall@N evaluation over runs")
    sp.add_argument("--db", nargs="+", required=True)
    sp.add_argument("--query", nargs="+", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--radius", dest="success_radius", type=float,
                    default=ev.SUCCESS_RADIUS)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("query", help="top-k search for one cloud")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--db", required=True)
    sp.add_argument("--cloud", required=True)
    sp.add_argument("-k", type=int, default=5)
    sp.set_defaults(func=cmd_query)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    # one "warning: <message>" line each, not Python's file:line format
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *rest: print(
            f"warning: {message}", file=sys.stderr)
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except SystemExit as exc:
            return exc.code if exc.code is not None else EXIT_OK
        except (FormatError, DatasetError, EmptyInput, ShapeError, OSError,
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
