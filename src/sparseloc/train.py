"""Triplet-margin metric learning: mining, augmentation, optimizer, loop."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Tape, Var
from .errors import DatasetError, NumericError, ShapeError
from .model import Descriptor, MinkLoc, batch_tensor, save_checkpoint
from .sparse import PointCloud


@dataclass
class TrainingConfig:
    initial_batch: int = 32
    batch_limit: int = 256
    expansion_threshold: float = 0.7
    expansion_rate: float = 1.4
    epochs: int = 40
    lr: float = 1e-3
    lr_step_epoch: int = 30
    weight_decay: float = 1e-3
    margin: float = 0.2

    def validate(self) -> None:
        """Refuse values ``train`` cannot honour, before it writes: a NaN or
        infinite value trains NaN weights or dies mid-run."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        for name in ("margin", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, "
                                 f"got {getattr(self, name)}")
        if self.expansion_rate < 1:
            raise ValueError("expansion_rate must be at least 1, "
                             f"got {self.expansion_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.initial_batch < 2 or self.initial_batch % 2:
            raise ValueError("initial_batch must be even and at least 2, "
                             f"got {self.initial_batch}")
        if self.batch_limit < self.initial_batch:
            raise ValueError(f"batch_limit ({self.batch_limit}) must be at "
                             f"least initial_batch ({self.initial_batch})")


@dataclass
class AugmentConfig:
    jitter_sigma: float = 0.001
    translation_max: float = 0.01
    removal_max_fraction: float = 0.10
    erase_min_fraction: float = 0.05   # cuboid edge, fraction of bbox extent
    erase_max_fraction: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and at least 0, "
                                 f"got {value}")
        if self.removal_max_fraction >= 1:
            raise ValueError("removal_max_fraction must be below 1, "
                             f"got {self.removal_max_fraction}")
        if self.erase_max_fraction > 1:
            raise ValueError("erase_max_fraction must be at most 1, "
                             f"got {self.erase_max_fraction}")
        # a zero maximum turns erasing off, whatever the minimum
        if 0 < self.erase_max_fraction < self.erase_min_fraction:
            raise ValueError(f"erase_min_fraction ({self.erase_min_fraction}) "
                             "must be at most erase_max_fraction "
                             f"({self.erase_max_fraction})")


@dataclass
class SimilarityMasks:
    positive: np.ndarray  # (n, n) bool
    negative: np.ndarray  # (n, n) bool


def _as_vector(x) -> np.ndarray:
    if isinstance(x, Descriptor):
        return x.values
    return np.asarray(x, dtype=np.float64).reshape(-1)


def triplet_margin_loss(anchor, positive, negative, margin: float) -> float:
    """max(d(a, p) - d(a, n) + margin, 0) with Euclidean distances."""
    a, p, n = _as_vector(anchor), _as_vector(positive), _as_vector(negative)
    if not (a.shape == p.shape == n.shape):
        raise ShapeError("embedding dimensions differ")
    return max(np.linalg.norm(a - p) - np.linalg.norm(a - n) + margin, 0.0)


def pairwise_distances(emb: np.ndarray) -> np.ndarray:
    sq = (emb ** 2).sum(axis=1)
    d2 = sq[:, None] - 2.0 * emb @ emb.T + sq[None, :]
    return np.sqrt(np.maximum(d2, 0.0))


def compute_masks(batch_ids: list, tuples: dict) -> SimilarityMasks:
    """Positive / negative boolean masks; indefinite pairs false in both."""
    ids = np.asarray(batch_ids)
    pos = np.zeros((len(ids), len(ids)), dtype=bool)
    neg = np.zeros_like(pos)
    for i, a in enumerate(batch_ids):
        t = tuples[a]
        pos[i] = np.isin(ids, list(t.positives))
        neg[i] = ~np.isin(ids, list(t.non_negatives)) & (ids != a)
    np.fill_diagonal(pos, False)
    return SimilarityMasks(positive=pos, negative=neg)


def batch_hard_mine(emb: np.ndarray, masks: SimilarityMasks):
    """One (anchor, hardest positive, hardest negative) triplet per anchor.

    Anchors lacking a positive or a negative in the batch are skipped.
    Distance ties break toward the lowest index (argmax/argmin convention).
    """
    dist = pairwise_distances(emb)
    pos, neg = masks.positive, masks.negative
    anchors = np.flatnonzero(pos.any(axis=1) & neg.any(axis=1))
    hardest_pos = np.where(pos, dist, -np.inf).argmax(axis=1)[anchors]
    hardest_neg = np.where(neg, dist, np.inf).argmin(axis=1)[anchors]
    return list(zip(anchors.tolist(), hardest_pos.tolist(),
                    hardest_neg.tolist()))


def mined_triplet_loss(tape: Tape | None, emb_var: Var, triplets, margin: float):
    """Differentiable mean loss over active triplets.

    Returns (loss Var scalar, active_count).  Loss is 0 when no triplet
    violates the margin; the mean runs over active triplets only so its scale
    does not depend on batch size.
    """
    emb = emb_var.value
    a, p, n = np.asarray(triplets, dtype=np.intp).reshape(-1, 3).T
    dap = np.linalg.norm(emb[a] - emb[p], axis=1)
    dan = np.linalg.norm(emb[a] - emb[n], axis=1)
    hinge = dap - dan + margin
    act = hinge > 0.0
    active = int(act.sum())
    if active == 0:
        return Var(np.asarray(0.0)), 0
    loss = Var(np.asarray(hinge[act].sum() / active))
    if tape is not None:
        a, p, n, dap, dan = a[act], p[act], n[act], dap[act], dan[act]
        gemb = emb_var.acc

        def backward(g):
            gi = float(g) / active
            uap = (emb[a] - emb[p]) / np.maximum(dap, 1e-12)[:, None]
            uan = (emb[a] - emb[n]) / np.maximum(dan, 1e-12)[:, None]
            ge = np.zeros_like(emb)
            np.add.at(ge, a, gi * (uap - uan))
            np.add.at(ge, p, -gi * uap)
            np.add.at(ge, n, gi * uan)
            gemb.add(ge)

        tape.record_for(loss, backward)
    return loss, active


def partition_epoch(tuples: dict, batch_size: int, rng: np.random.Generator):
    """Randomly partition the training set into batches of positive pairs.

    Each record appears at most once per epoch; batches hold batch_size / 2
    pairs.  A trailing batch with at least two pairs is kept.
    """
    if batch_size % 2:
        raise ValueError("batch size must be even")
    ids = [i for i in tuples if tuples[i].positives]
    if len(ids) < 2:
        raise DatasetError("need at least one positive pair to train")
    rng.shuffle(ids)
    used = set()
    pairs = []
    for a in ids:
        if a in used:
            continue
        cands = [b for b in sorted(tuples[a].positives) if b not in used and b in tuples]
        if not cands:
            continue
        b = cands[int(rng.integers(len(cands)))]
        used.update((a, b))
        pairs.append((a, b))
    if not pairs:
        raise DatasetError("no disjoint positive pairs available")
    per_batch = batch_size // 2
    batches = []
    for i in range(0, len(pairs), per_batch):
        chunk = pairs[i:i + per_batch]
        if len(chunk) >= 2:
            batches.append([x for pair in chunk for x in pair])
    if not batches:
        batches = [[x for pair in pairs for x in pair]]
    return batches


def dynamic_batch_expand(active_ratio: float, current: int,
                         cfg: TrainingConfig) -> int:
    """Grow the batch when too few mined triplets are active."""
    if not 0.0 <= active_ratio <= 1.0:
        raise ValueError("active ratio must be in [0, 1]")
    if active_ratio < cfg.expansion_threshold:
        # epsilon guards against float noise, e.g. 85 * 1.4 = 118.999...
        grown = int(np.floor(current * cfg.expansion_rate + 1e-9))
        return min(grown, cfg.batch_limit)
    return current


def augment(cloud: PointCloud, cfg: AugmentConfig,
            rng: np.random.Generator) -> PointCloud:
    """Jitter, global translation, random point removal, cuboid erasing.

    Stages with a zero range are skipped, so an all-zero config is the
    identity.  Erasing retries with a new cuboid rather than emptying the
    cloud.
    """
    pts = cloud.points.copy()
    if cfg.jitter_sigma > 0:
        pts += rng.normal(0.0, cfg.jitter_sigma, size=pts.shape)
    if cfg.translation_max > 0:
        direction = rng.normal(size=3)
        norm = np.linalg.norm(direction)
        if norm > 0:
            pts += direction / norm * rng.uniform(0.0, cfg.translation_max)
    if cfg.removal_max_fraction > 0 and len(pts) > 1:
        frac = rng.uniform(0.0, cfg.removal_max_fraction)
        n_drop = min(int(len(pts) * frac), len(pts) - 1)
        if n_drop:
            drop = rng.choice(len(pts), size=n_drop, replace=False)
            keep = np.ones(len(pts), dtype=bool)
            keep[drop] = False
            pts = pts[keep]
    if cfg.erase_max_fraction > 0 and len(pts) > 1:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        extent = hi - lo
        for _ in range(10):
            center = rng.uniform(lo, hi)
            half = 0.5 * rng.uniform(cfg.erase_min_fraction,
                                     cfg.erase_max_fraction, size=3) * extent
            inside = np.all(np.abs(pts - center) <= half, axis=1)
            if not inside.all():
                pts = pts[~inside]
                break
    return PointCloud(pts, source_id=cloud.source_id)


def lr_for_epoch(cfg: TrainingConfig, epoch: int) -> float:
    return cfg.lr / 10.0 if epoch >= cfg.lr_step_epoch else cfg.lr


class Adam:
    """Adam with coupled L2 weight decay (decay added to the gradient).
    Each ``step`` takes the learning rate, which the schedule sets."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Var], weight_decay: float = 0.0):
        self.params = params
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v.value) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.value) for k, v in params.items()}

    def zero_grads(self):
        for var in self.params.values():
            var.zero_grad()

    def step(self, lr: float):
        self.t += 1
        for name, var in self.params.items():
            g = np.zeros_like(var.value) if var.grad is None else var.grad
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for {name}")
            g = g + self.weight_decay * var.value
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            mhat = m / (1 - self.beta1 ** self.t)
            vhat = v / (1 - self.beta2 ** self.t)
            var.value = var.value - lr * mhat / (np.sqrt(vhat) + self.eps)


@dataclass
class EpochStats:
    epoch: int
    batch_size: int
    mean_loss: float
    active_ratio: float
    lr: float


def train(dataset, model: MinkLoc, cfg: TrainingConfig,
          aug_cfg: AugmentConfig | None = None, seed: int = 0,
          out_dir: str | None = None, stop_loss: float | None = None,
          log=None) -> list[EpochStats]:
    """Full training loop.

    dataset must expose ``tuples`` (id -> TrainingTuple) and
    ``load_points(id) -> (n, 3) ndarray``.  Writes an atomic checkpoint and a
    metrics line per epoch when ``out_dir`` is given.  ``stop_loss`` ends
    training early once the epoch mean loss drops below it.  A ``cfg`` that
    ``TrainingConfig.validate`` refuses raises ValueError before any write.
    """
    cfg.validate()
    aug_cfg = aug_cfg or AugmentConfig()
    rng = np.random.default_rng(seed)
    params = model.named_params()
    opt = Adam(params, weight_decay=cfg.weight_decay)
    history: list[EpochStats] = []
    batch_size = cfg.initial_batch
    metrics_path = os.path.join(out_dir, "metrics.csv") if out_dir else None
    if metrics_path:
        # a rerun into the same directory starts the file over
        os.makedirs(out_dir, exist_ok=True)
        with open(metrics_path, "w", newline="") as fh:
            csv.writer(fh).writerow(
                ["epoch", "batch_size", "mean_loss", "active_ratio", "lr"])
    for epoch in range(cfg.epochs):
        lr = lr_for_epoch(cfg, epoch)
        batches = partition_epoch(dataset.tuples, batch_size, rng)
        losses = []
        total_triplets = 0
        total_active = 0
        for batch_ids in batches:
            clouds = []
            for rid in batch_ids:
                raw = PointCloud(dataset.load_points(rid), source_id=rid)
                clouds.append(augment(raw, aug_cfg, rng))
            st = batch_tensor(clouds, model.cfg.quantization_step)
            tape = Tape()
            emb, _ = model.embed_tensor(st, tape, train=True)
            masks = compute_masks(batch_ids, dataset.tuples)
            triplets = batch_hard_mine(emb.value, masks)
            loss, active = mined_triplet_loss(tape, emb, triplets, cfg.margin)
            total_triplets += len(triplets)
            total_active += active
            losses.append(float(loss.value))
            if active:
                opt.zero_grads()
                tape.backward(loss)
                opt.step(lr)
        mean_loss = float(np.mean(losses)) if losses else 0.0
        active_ratio = total_active / total_triplets if total_triplets else 0.0
        stats = EpochStats(epoch, batch_size, mean_loss, active_ratio, lr)
        history.append(stats)
        if log:
            log(f"epoch {epoch}: batch={batch_size} loss={mean_loss:.4f} "
                f"active={active_ratio:.2f} lr={lr:g}")
        if metrics_path:
            with open(metrics_path, "a", newline="") as fh:
                csv.writer(fh).writerow(
                    [epoch, batch_size, f"{mean_loss:.6f}",
                     f"{active_ratio:.4f}", f"{lr:g}"])
        if out_dir:
            save_checkpoint(os.path.join(out_dir, f"epoch_{epoch + 1}.ckpt"),
                            model.state_dict())
        if stop_loss is not None and mean_loss < stop_loss:
            break
        batch_size = dynamic_batch_expand(active_ratio, batch_size, cfg)
        if batch_size % 2:
            # keep pairable: an odd size at the limit steps down, not past it
            at_limit = batch_size == cfg.batch_limit
            batch_size += -1 if at_limit else 1
    return history
