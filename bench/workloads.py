"""The three benchmark workloads: embed-4k, train-b32 and retrieve.

Each workload has a set-up (timed, sampled through the run, median reported
as setup_s), a pipeline canary (untimed: the whole pipeline against
``reference.json``), and a closed measured loop with one client.  Only
public functions of ``sparseloc`` are called.  Every answer is checked; an
op whose check fails or that raises counts as failed.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sparseloc as sl
from sparseloc.evaluate import cross_run_pairings

import oracle

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# The trained-like checkpoint: a seeded MinkLoc with perturbed BN affine
# parameters, BN running statistics calibrated by one train-mode forward pass
# (momentum 1) over CALIB_CLOUDS synthetic clouds, and a non-integer GeM
# exponent.  A fresh MinkLoc has p = 3.0, which takes gem_pool's integer
# einsum path; no trained model lands exactly on an integer p.
CKPT_SEED = 4530
GEM_P = 3.17
CALIB_CLOUDS = 2
CALIB_POINTS = 2048

DESCRIPTOR_RTOL = 1e-8   # canary descriptors vs reference, relative to max |ref|
LOSS_RTOL = 1e-8         # canary first-epoch loss vs reference
SETUP_SLOTS = 8          # set-up sampled before the loop and every seconds/8


@dataclass
class Scale:
    """Workload sizes; ``TINY`` is for the benchmark's self-tests."""
    embed_points: int = 4096
    embed_min_ops: int = 100       # p90 needs 10 samples beyond it
    perm_every: int = 25           # row-permutation check on every 25th cloud
    train_places: int = 20
    train_revisits: int = 5
    train_points: int = 512
    train_batch: int = 32
    train_min_ops: int = 2
    run_size: int = 400            # descriptors per run, two runs
    curve_n: int = 25
    knn_db: int = 2000
    knn_k: int = 25
    knn_per_part: int = 100        # three parts per protocol pass
    retrieve_min_ops: int = 1
    setup_slot_s: float = 0.25     # each set-up slot repeats it for at least this long


TINY = Scale(embed_points=512, embed_min_ops=3, perm_every=2, train_places=4,
             train_revisits=2, train_points=128, train_batch=8,
             train_min_ops=1, run_size=40, curve_n=5, knn_db=100, knn_k=5,
             knn_per_part=2, setup_slot_s=0.0)


@dataclass
class Run:
    """State shared by one workload run."""
    workdir: Path
    seed: int
    seconds: float
    scale: Scale
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    results: dict = field(default_factory=dict)
    min_ops: int = 1
    ops: int = 0
    setup_fn: object = None
    next_setup: float = 0.0
    peak_rss_mb: float | None = None

    def span(self, name):
        return self.tracer.span(name) if self.tracer else _NullSpan()

    def phase(self, op):
        """Attribute later spans to op ``op``: -1 first set-up, -2 canary,
        -3 not folded (fixtures, later set-ups, post-loop checks), 0.. the
        measured ops."""
        if self.tracer:
            self.tracer.begin_op(op)

    def fail(self, what):
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def op(self, label, fn):
        """Run one checked op; fn returns a list of failed-check messages."""
        self.attempted += 1
        try:
            bad = fn()
        except Exception:   # an op that raises is a failed op, not a crash
            bad = [f"raised:\n{traceback.format_exc()}"]
        if bad:
            self.failed += 1
            for msg in bad:
                self.fail(f"{label}: {msg}")

    def timed(self, fn, *args, **kwargs):
        """Call fn under an ``op`` span; returns (result, seconds)."""
        with self.span("op"):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        return out, dt


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def percentile_or_none(values, q):
    """The q-quantile when at least 10 samples lie beyond it, else None."""
    if round(len(values) * (1.0 - q), 6) < 10:
        return None
    return float(np.quantile(values, q))


# -- synthetic inputs ------------------------------------------------------

def make_cloud(rng: np.random.Generator, n_points: int) -> np.ndarray:
    """A random scene in [-1, 1]^3: five boxes over a ground plane.

    Box count and size range are fixed so that clouds differ in layout but
    not in how much sparse work they cost: per-cloud latency follows the box
    count, and a run's median should not depend on the seed's draw of it.
    """
    centers = rng.uniform(-0.7, 0.7, size=(5, 3))
    halves = rng.uniform(0.1, 0.3, size=(5, 3))
    n_ground = n_points // 4
    ground = np.column_stack([rng.uniform(-1, 1, n_ground),
                              rng.uniform(-1, 1, n_ground),
                              -0.9 + rng.normal(0, 0.01, n_ground)])
    which = rng.integers(0, 5, n_points - n_ground)
    boxes = centers[which] + rng.uniform(-1, 1, (len(which), 3)) * halves[which]
    pts = np.concatenate([ground, boxes])
    pts -= pts.mean(axis=0)
    return pts / np.abs(pts).max() * 0.999


def make_places(rng: np.random.Generator, n_places: int, n_runs: int,
                dim: int = 256, noise: float = 0.9):
    """Geo-tagged descriptors: one per place per run, clustered by place.

    Places lie 20 m apart along a route, so a neighbour place also counts as
    a hit within the 25 m radius.  Returns [(desc, northing, easting, ids)].
    """
    centers = np.abs(rng.normal(size=(n_places, dim)))
    route = 20.0 * np.arange(n_places)
    runs = []
    for r in range(n_runs):
        desc = np.abs(centers + noise * rng.normal(size=centers.shape))
        north = route + rng.uniform(-2, 2, n_places)
        east = rng.uniform(-2, 2, n_places)
        ids = r * 100_000 + np.arange(n_places)
        runs.append((desc, north, east, ids))
    return runs


def _batch_norms(model):
    """Every BatchNorm reachable from the backbone's attributes."""
    found, todo = [], [model.backbone]
    while todo:
        obj = todo.pop()
        for value in vars(obj).values():
            if isinstance(value, sl.BatchNorm):
                found.append(value)
            elif hasattr(value, "__dict__") and type(value).__module__.startswith("sparseloc"):
                todo.append(value)
    return found


def make_checkpoint(path: Path):
    """Write the trained-like checkpoint described at CKPT_SEED."""
    model = sl.MinkLoc(sl.ModelConfig(), seed=CKPT_SEED)
    rng = np.random.default_rng(CKPT_SEED)
    for name, var in model.named_params().items():
        if name.endswith(".gamma"):
            var.value = 1.0 + 0.1 * rng.normal(size=var.value.shape)
        elif name.endswith(".beta"):
            var.value = 0.05 * rng.normal(size=var.value.shape)
    model.gem_p.value = np.asarray(GEM_P)
    bns = _batch_norms(model)
    for bn in bns:
        bn.momentum = 1.0
    calib = [sl.PointCloud(make_cloud(rng, CALIB_POINTS))
             for _ in range(CALIB_CLOUDS)]
    model.embed_clouds(calib, tape=None, train=True)
    for bn in bns:
        bn.momentum = 0.1
    sl.save_checkpoint(str(path), model.state_dict())


def warm_cloud(n_points: int) -> "sl.PointCloud":
    """embed-4k's fixed warm-up cloud: set-up cost should not depend on the
    seed's draw.  At full size the canary checks its descriptor too."""
    return sl.PointCloud(make_cloud(np.random.default_rng(CKPT_SEED), n_points))


def load_model(path: Path):
    model = sl.MinkLoc(sl.ModelConfig())
    model.load_state_dict(sl.load_checkpoint(str(path)))
    return model


# -- pipeline canary -------------------------------------------------------
# Small fixed inputs through every layer, compared with reference.json.  It
# runs in every workload, so each layer does a little work on each.

CANARY_SEED = 777
CKPT_NAME = "trained_like.ckpt"


def canary_values(workdir: Path, ckpt: Path) -> dict:
    """The values reference.json records, computed by the current code."""
    rng = np.random.default_rng(CANARY_SEED)
    model = load_model(ckpt)
    descs = [sl.compute_descriptor(sl.PointCloud(make_cloud(rng, 2048)), model).values
             for _ in range(2)]
    warm = sl.compute_descriptor(warm_cloud(Scale.embed_points), model).values
    root = workdir / "canary"
    sl.synth_dataset(str(root), n_places=4, n_revisits=2,
                     geometry_seed=CANARY_SEED, points_per_cloud=256)
    ds = sl.Dataset.from_index(str(root / "index.csv"))
    net = sl.MinkLoc(sl.ModelConfig(), seed=CANARY_SEED)
    cfg = sl.TrainingConfig(initial_batch=8, batch_limit=8, epochs=1)
    hist = sl.train(ds, net, cfg, seed=CANARY_SEED, out_dir=str(root / "run"))
    grads = [v.grad for v in net.named_params().values() if v.grad is not None]
    saved = sl.load_checkpoint(str(root / "run" / "epoch_1.ckpt"))
    state = net.state_dict()
    return {
        "embed_descriptors": [d.tolist() for d in descs],
        "embed_warm_descriptor": warm.tolist(),
        "train_first_epoch_loss": hist[0].mean_loss,
        "train_active_ratio": hist[0].active_ratio,
        "_grads_finite": bool(grads) and all(np.all(np.isfinite(g)) for g in grads),
        "_ckpt_roundtrip": all(np.array_equal(saved[k], state[k]) for k in state),
    }


def run_canary(run: Run):
    """Check the canary's answers as one op; runs after the measured loop."""
    ref = json.loads(REFERENCE_PATH.read_text())
    ckpt = run.workdir / CKPT_NAME
    run.phase(-3)
    if not ckpt.exists():
        make_checkpoint(ckpt)
    run.phase(-2)

    def check():
        got = canary_values(run.workdir, ckpt)
        bad = []
        for i, (d, r) in enumerate(zip(got["embed_descriptors"],
                                       ref["embed_descriptors"])):
            bad += oracle.check_descriptor(np.array(d), np.array(r),
                                           DESCRIPTOR_RTOL, f"canary cloud {i}")
        bad += oracle.check_descriptor(np.array(got["embed_warm_descriptor"]),
                                       np.array(ref["embed_warm_descriptor"]),
                                       DESCRIPTOR_RTOL, "warm-up cloud")
        for key in ("train_first_epoch_loss", "train_active_ratio"):
            if not abs(got[key] - ref[key]) <= LOSS_RTOL * max(abs(ref[key]), 1e-12):
                bad.append(f"{key} {got[key]!r} != reference {ref[key]!r}")
        if not got["_grads_finite"]:
            bad.append("canary gradients missing or non-finite")
        if not got["_ckpt_roundtrip"]:
            bad.append("canary checkpoint does not reload to the trained state")
        bad += retrieve_canary(run.workdir)
        return bad

    run.op("canary", check)


def retrieve_canary(workdir: Path) -> list[str]:
    rng = np.random.default_rng(CANARY_SEED)
    runs = [_saved_db(workdir / f"canary_run{i}.desc", r)
            for i, r in enumerate(make_places(rng, 20, 2))]
    queries, dbs = cross_run_pairings(runs)
    ar = sl.average_recall(queries, dbs)
    curves = [sl.recall_curve(q, d, 5) for q, d in zip(queries, dbs)]
    bad = oracle.check_protocol(ar, curves, queries, dbs)
    q = runs[0].descriptors[3] + 0.1
    ids, dists = sl.knn(runs[1], q, 5)
    return bad + oracle.check_knn(ids, dists, runs[1], q, 5)


def _saved_db(path: Path, arrays) -> "sl.DescriptorDatabase":
    sl.save_database(str(path), sl.DescriptorDatabase(*arrays))
    return sl.load_database(str(path))


# -- set-up ----------------------------------------------------------------

def timed_setup(run: Run, fn):
    """The first set-up slot; keep_going takes the later ones.  Returns the
    last result."""
    run.setup_fn = fn
    return setup_slot(run)


def setup_slot(run: Run):
    """Repeat the set-up for at least scale.setup_slot_s, once at least.

    Slots are spread over the run, so setup_s, the median of every sample,
    does not hang on how busy the host was in one second of it.
    """
    spent = 0.0
    while True:
        # free the last sample's result first: each sample then allocates
        # afresh, as a first set-up does, instead of alternating between
        # fresh memory and memory the last-but-one sample freed
        out = None
        t0 = time.perf_counter()
        out = run.setup_fn()
        dt = time.perf_counter() - t0
        run.setup_s.append(dt)
        spent += dt
        run.phase(-3)   # the trace folds the first set-up only
        if spent >= run.scale.setup_slot_s:
            break
    run.next_setup = time.perf_counter() + run.seconds / SETUP_SLOTS
    return out


def keep_going(run: Run, start: float) -> bool:
    if time.perf_counter() >= run.next_setup:
        run.phase(-3)
        setup_slot(run)
    if run.ops == run.min_ops and run.peak_rss_mb is None:
        # the peak over a fixed amount of work, so a faster program that
        # fits more ops into the run is not charged for the extra ones
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run.ops < run.min_ops or time.perf_counter() - start < run.seconds


# -- embed-4k --------------------------------------------------------------

def embed_4k(run: Run):
    """Closed loop: compute_descriptor on a distinct 4096-point cloud per op."""
    sc = run.scale
    ckpt = run.workdir / CKPT_NAME
    run.phase(-3)
    make_checkpoint(ckpt)
    warm = warm_cloud(sc.embed_points)

    def setup():
        model = load_model(ckpt)
        sl.compute_descriptor(warm, model)   # lazy set-up finishes here
        return model

    run.phase(-1)
    model = timed_setup(run, setup)
    run.min_ops = sc.embed_min_ops
    lat = []
    perm_checks = []
    start = time.perf_counter()
    while keep_going(run, start):
        i = run.ops
        run.phase(i)
        with run.span("data.synth"):
            pts = make_cloud(np.random.default_rng([run.seed, 2, i]), sc.embed_points)

        def op():
            desc, dt = run.timed(sl.compute_descriptor,
                                 sl.PointCloud(pts, source_id=i), model)
            lat.append(dt)
            if i % sc.perm_every == 0:
                perm_checks.append((i, pts, desc.values))
            return oracle.check_finite(desc.values, (256,))

        run.op(f"embed op {i}", op)
        run.ops += 1
    # answer checks after the loop: not timed and not traced into any op
    run.phase(-3)
    for i, pts, values in perm_checks:
        def check():
            order = np.random.default_rng([run.seed, 3, i]).permutation(len(pts))
            again = sl.compute_descriptor(sl.PointCloud(pts[order]), model).values
            return [] if np.array_equal(again, values) else [
                "row-permuted cloud gave a different descriptor"]
        run.op(f"embed permutation check {i}", check)
    run.results = {
        "embed_clouds_per_s": len(lat) / sum(lat),
        "embed_p50_ms": 1e3 * statistics.median(lat),
        "embed_p90_ms": _ms(percentile_or_none(lat, 0.9)),
        "samples": len(lat),
    }
    return {"items_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat)}


# -- train-b32 -------------------------------------------------------------

# criterion 7's synthetic set; the seed drives model init, batching and
# augmentation, so epochs cost the same sparse work on every seed
TRAIN_GEOMETRY_SEED = 3


def train_b32(run: Run):
    """Closed loop: one epoch of train() per op at a fixed batch of 32."""
    sc = run.scale
    data_root = run.workdir / "train_set"
    # the data set on disk is the benchmark's input, made once and untimed
    # like embed-4k's checkpoint; set-up is what a trainer pays to open it
    run.phase(-3)
    sl.synth_dataset(str(data_root), n_places=sc.train_places,
                     n_revisits=sc.train_revisits,
                     geometry_seed=TRAIN_GEOMETRY_SEED,
                     points_per_cloud=sc.train_points)

    def setup():
        ds = sl.Dataset.from_index(str(data_root / "index.csv"))
        for rid in ds.records:
            ds.load_points(rid)
        return ds, sl.MinkLoc(sl.ModelConfig(), seed=run.seed)

    run.phase(-1)
    ds, model = timed_setup(run, setup)
    cfg = sl.TrainingConfig(initial_batch=sc.train_batch,
                            batch_limit=sc.train_batch, epochs=1)
    # train() draws its epoch partition first from default_rng(seed); the
    # same draw here gives the clouds per epoch (80 at full size)
    clouds = sum(len(b) for b in sl.partition_epoch(
        ds.tuples, sc.train_batch, np.random.default_rng(run.seed)))
    out_dir = run.workdir / "train_out"
    run.min_ops = sc.train_min_ops
    epoch_s, losses = [], []
    start = time.perf_counter()
    while keep_going(run, start):
        i = run.ops
        run.phase(i)

        def op():
            # the same seed each epoch: identical batches and augmentation,
            # so every op does the same sparse work
            hist, dt = run.timed(sl.train, ds, model, cfg, seed=run.seed,
                                 out_dir=str(out_dir))
            epoch_s.append(dt)
            losses.append(hist[0].mean_loss)
            bad = []
            if not (np.isfinite(hist[0].mean_loss) and hist[0].mean_loss >= 0):
                bad.append(f"epoch loss {hist[0].mean_loss!r}")
            for name, var in model.named_params().items():
                if var.grad is not None and not np.all(np.isfinite(var.grad)):
                    bad.append(f"non-finite gradient for {name}")
                if not np.all(np.isfinite(var.value)):
                    bad.append(f"non-finite parameter {name}")
            return bad

        run.op(f"train epoch {i}", op)
        run.ops += 1
    run.results = {
        "train_clouds_per_s": clouds * len(epoch_s) / sum(epoch_s),
        "train_epoch_p50_s": statistics.median(epoch_s),
        "epoch_s": epoch_s,
        "clouds_per_epoch": clouds,
        "first_epoch_loss": losses[0] if losses else None,
    }
    return {"items_per_s": clouds * len(epoch_s) / sum(epoch_s),
            "op_p50_ms": 1e3 * statistics.median(epoch_s)}


# -- retrieve --------------------------------------------------------------

def retrieve(run: Run):
    """Rounds of one full recall protocol pass plus top-k knn queries."""
    sc = run.scale
    # the databases on disk are the workload's input, written once and
    # untimed; set-up is what a user pays to load them
    run.phase(-3)
    rng = np.random.default_rng([run.seed, 4])
    inputs = make_places(rng, sc.run_size, 2)
    big = make_places(rng, sc.knn_db // 4, 4)
    inputs.append(tuple(np.concatenate(cols) for cols in zip(*big)))
    paths = [run.workdir / name for name in ("run0.desc", "run1.desc", "big.desc")]
    for path, arrays in zip(paths, inputs):
        sl.save_database(str(path), sl.DescriptorDatabase(*arrays))

    def setup():
        *runs, big = (sl.load_database(str(path)) for path in paths)
        return runs, big

    run.phase(-1)
    runs, big = timed_setup(run, setup)
    queries, dbs = cross_run_pairings(runs)
    expected = oracle.protocol(queries, dbs, sc.curve_n)
    n_queries = sum(len(q) for q in queries)
    run.min_ops = sc.retrieve_min_ops
    protocol_s, lat = [], []
    start = time.perf_counter()
    while keep_going(run, start):
        i = run.ops
        run.phase(i)
        rng = np.random.default_rng([run.seed, 5, i])
        # a protocol pass in three parts, top-k queries after each, so query
        # samples spread over the whole run
        parts = [lambda: sl.average_recall(queries, dbs)]
        parts += [lambda q=q, d=d: sl.recall_curve(q, d, sc.curve_n)
                  for q, d in zip(queries, dbs)]
        answers, pass_s = [], 0.0
        for part in parts:
            def part_op():
                nonlocal pass_s
                out, dt = run.timed(part)
                answers.append(out)
                pass_s += dt
                return []
            run.op(f"protocol pass {i}", part_op)
            knn_block(run, big, rng, lat, f"round {i}")
        if len(answers) == len(parts):
            protocol_s.append(pass_s)
            run.op(f"protocol pass {i} answers", lambda: oracle.check_protocol(
                answers[0], answers[1:], queries, dbs, expected))
        run.ops += 1
    run.results = {
        "eval_protocol_s": statistics.median(protocol_s),
        "query_p50_ms": 1e3 * statistics.median(lat),
        "query_p90_ms": _ms(percentile_or_none(lat, 0.9)),
        "protocol_samples": len(protocol_s),
        "query_samples": len(lat),
        "ar_at_1": expected["ar_at_1"],
        "ar_at_1pct": expected["ar_at_1pct"],
    }
    return {"items_per_s": n_queries * len(protocol_s) / sum(protocol_s),
            "op_p50_ms": 1e3 * statistics.median(lat)}


def knn_block(run: Run, big, rng, lat: list, label: str):
    """scale.knn_per_part top-k queries near random database entries."""
    sc = run.scale
    for j in range(sc.knn_per_part):
        with run.span("data.synth"):
            row = int(rng.integers(len(big)))
            q = big.descriptors[row] + 0.3 * rng.normal(size=big.dim)

        def knn_op():
            (ids, dists), dt = run.timed(sl.knn, big, q, sc.knn_k)
            lat.append(dt)
            return oracle.check_knn(ids, dists, big, q, sc.knn_k)

        run.op(f"knn {label} query {j}", knn_op)


def _ms(seconds):
    return None if seconds is None else 1e3 * seconds


WORKLOADS = {"embed-4k": embed_4k, "train-b32": train_b32, "retrieve": retrieve}
