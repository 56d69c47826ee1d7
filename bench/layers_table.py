"""Fold a traced run's spans into the per-layer metrics.

Times are self times (span minus direct children): the mean over the
measured ops, plus the first set-up and the pipeline canary divided by
``min_ops``.  The set-up and canary are fixed work, so a layer the loop
never calls still shows their small figure instead of a constant zero, and
no time depends on how many ops fit into the run.  Counts are summed over
the first set-up, the canary and the first ``min_ops`` ops only, divided by
``min_ops``, so with a fixed seed they repeat exactly whatever the run
length.
"""

from __future__ import annotations

import time

# per-layer time metric -> span names whose self time it sums
TIMES = {
    "sparse.quantize_ms": ["sparse.quantize"],
    "sparse.kmap_ms": ["sparse.kmap"],
    "sparse.downsample_ms": ["sparse.downsample"],
    "layers.conv_fwd_ms": ["layers.conv_fwd"],
    "layers.conv_bwd_ms": ["layers.conv_bwd"],
    "layers.tconv_fwd_ms": ["layers.tconv_fwd"],
    "layers.tconv_bwd_ms": ["layers.tconv_bwd"],
    "layers.bn_fwd_ms": ["layers.bn_fwd"],
    "layers.bn_bwd_ms": ["layers.bn_bwd"],
    "layers.relu_fwd_ms": ["layers.relu_fwd"],
    "layers.relu_bwd_ms": ["layers.relu_bwd"],
    "layers.add_fwd_ms": ["layers.add_fwd"],
    "layers.add_bwd_ms": ["layers.add_bwd"],
    "autodiff.backward_ms": ["autodiff.backward"],
    "autodiff.add_grad_ms": ["autodiff.add_grad"],
    "model.backbone_ms": ["model.backbone"],
    "model.batch_tensor_ms": ["model.batch_tensor"],
    "model.gem_fwd_ms": ["model.gem_fwd"],
    "model.gem_bwd_ms": ["model.gem_bwd"],
    "model.ckpt_save_ms": ["model.ckpt_save"],
    "model.ckpt_load_ms": ["model.ckpt_load"],
    "train.augment_ms": ["train.augment"],
    "train.masks_ms": ["train.masks"],
    "train.mine_ms": ["train.mine"],
    "train.loss_ms": ["train.loss_fwd", "train.loss_bwd"],
    "train.adam_ms": ["train.adam"],
    "evaluate.knn_ms": ["evaluate.knn"],
    "evaluate.average_recall_ms": ["evaluate.average_recall"],
    "evaluate.curve_ms": ["evaluate.curve"],
    "evaluate.db_save_ms": ["evaluate.db_save"],
    "evaluate.db_load_ms": ["evaluate.db_load"],
    "data.build_tuples_ms": ["data.build_tuples"],
    "data.load_cloud_ms": ["data.load_cloud"],
    "trace.unattributed_ms": ["op"],
}

# per-layer count metric -> tracer counter (calls of a span when prefixed "#")
COUNTS = {
    "sparse.kmap_calls": "sparse.kmap_calls",
    "sparse.kmap_builds": "sparse.kmap_builds",
    "sparse.kmap_pairs": "sparse.kmap_pairs",
    "sparse.voxels_s1": "sparse.voxels_s1",
    "sparse.voxels_s2": "sparse.voxels_s2",
    "sparse.voxels_s4": "sparse.voxels_s4",
    "sparse.voxels_s8": "sparse.voxels_s8",
    "autodiff.tape_ops": "autodiff.tape_ops",
    "autodiff.add_grad_calls": "#autodiff.add_grad",
    "model.pooled_rows": "model.pooled_rows",
    "train.steps": "train.steps",
    "evaluate.knn_calls": "evaluate.knn_calls",
    "evaluate.distance_evals": "evaluate.distance_evals",
}


def span_cost_s(n: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    from tracer import Tracer

    def noop():
        return None

    traced = Tracer()._wrap("calibrate", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    return max(time.perf_counter() - t0 - plain, 0.0) / n


def _per_op(fixed: dict, loop: dict, per_prefix: int, ops: int) -> dict:
    """Fixed work over the fixed divisor plus the mean over the loop."""
    return {k: fixed.get(k, 0) / per_prefix + loop.get(k, 0) / ops
            for k in fixed.keys() | loop.keys()}


def fold(tracer, run) -> dict:
    ops = max(run.ops, 1)
    fixed = {-1, -2}
    loop = set(range(run.ops))
    prefix = fixed | set(range(min(run.min_ops, run.ops)))
    per_prefix = max(min(run.min_ops, run.ops), 1)
    fixed_fold, loop_fold = tracer.fold(fixed), tracer.fold(loop)
    self_s, incl_s, calls = (_per_op(f, l, per_prefix, ops)
                             for f, l in zip(fixed_fold, loop_fold))
    _, _, prefix_calls = tracer.fold(prefix)
    totals, prefix_totals = tracer.totals(fixed | loop), tracer.totals(prefix)

    metrics = {}
    for name, spans in TIMES.items():
        metrics[name] = (1e3 * sum(self_s.get(s, 0.0) for s in spans), "ms")
    metrics["data.synth_s"] = (
        self_s.get("data.synth", 0.0) + self_s.get("data.synth_dataset", 0.0), "s")
    for name, key in COUNTS.items():
        value = prefix_calls.get(key[1:], 0) if key.startswith("#") else prefix_totals.get(key, 0.0)
        metrics[name] = (value / per_prefix, "count")
    candidates = prefix_totals.get("_kmap_candidates", 0.0)
    metrics["sparse.kmap_hit_ratio"] = (
        prefix_totals.get("sparse.kmap_pairs", 0.0) / candidates if candidates else 0.0, "ratio")
    metrics["layers.conv_gflop"] = (prefix_totals.get("layers.conv_flop", 0.0) / per_prefix / 1e9, "GFLOP")
    metrics["layers.tconv_gflop"] = (prefix_totals.get("layers.tconv_flop", 0.0) / per_prefix / 1e9, "GFLOP")
    metrics["layers.conv_gather_mb"] = (
        prefix_totals.get("layers.conv_gather_bytes", 0.0) / per_prefix / 1e6, "MB")
    conv_s = sum(f.get("layers.conv_fwd", 0.0) for f in (fixed_fold[0], loop_fold[0]))
    metrics["layers.conv_gflop_per_s"] = (
        totals.get("layers.conv_flop", 0.0) / conv_s / 1e9 if conv_s else 0.0, "GFLOP/s")
    mined = prefix_totals.get("train.mined", 0.0)
    metrics["train.active_ratio"] = (
        prefix_totals.get("train.active", 0.0) / mined if mined else 0.0, "ratio")
    spans = sum(calls.values())
    metrics["trace.spans"] = (spans, "count")
    metrics["trace.overhead_ms"] = (1e3 * spans * span_cost_s(), "ms")

    table = {name: {"self_ms_per_op": 1e3 * self_s[name],
                    "incl_ms_per_op": 1e3 * incl_s[name],
                    "calls_per_op": calls[name]}
             for name in sorted(self_s, key=self_s.get, reverse=True)}
    return {"ops": run.ops, "count_ops": per_prefix, "metrics": metrics,
            "spans": table}
