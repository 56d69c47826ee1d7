"""Outside-in span tracer for the sparseloc benchmark.

The tracer wraps public entry points of the ``sparseloc`` modules from the
outside: it replaces every module-level binding of a traced function (a name
imported into several modules, e.g. ``relu`` in both ``sparseloc.layers`` and
``sparseloc.model``, is patched in each) and a few class methods.  Nothing in
``src/`` changes, and an untraced run never imports this module.

Each span records (name, start, end, parent span, op id).  Backward closures
are timed by wrapping ``Tape.record``: a closure recorded while forward span
``layers.conv_fwd`` is open runs later under span ``layers.conv_bwd``.
Counts (kernel-map pairs, voxels, FLOPs, ...) are taken at the same
boundaries.  ``fold`` turns the spans into per-layer self times: a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name); a span name ``x.y_fwd`` gets a ``x.y_bwd``
# partner for the backward closures recorded under it.
_FUNCTIONS = [
    ("sparse", "quantize", "sparse.quantize"),
    ("sparse", "build_kernel_map", "sparse.kmap"),
    ("sparse", "downsample_coords", "sparse.downsample"),
    ("layers", "sparse_conv", "layers.conv_fwd"),
    ("layers", "sparse_transposed_conv", "layers.tconv_fwd"),
    ("layers", "relu", "layers.relu_fwd"),
    ("layers", "sparse_add", "layers.add_fwd"),
    ("model", "gem_pool", "model.gem_fwd"),
    ("model", "batch_tensor", "model.batch_tensor"),
    ("model", "save_checkpoint", "model.ckpt_save"),
    ("model", "load_checkpoint", "model.ckpt_load"),
    ("train", "augment", "train.augment"),
    ("train", "compute_masks", "train.masks"),
    ("train", "batch_hard_mine", "train.mine"),
    ("train", "mined_triplet_loss", "train.loss_fwd"),
    ("evaluate", "knn", "evaluate.knn"),
    ("evaluate", "average_recall", "evaluate.average_recall"),
    ("evaluate", "recall_curve", "evaluate.curve"),
    ("evaluate", "save_database", "evaluate.db_save"),
    ("evaluate", "load_database", "evaluate.db_load"),
    ("data", "build_tuples", "data.build_tuples"),
    ("data", "load_cloud", "data.load_cloud"),
    ("data", "synth_dataset", "data.synth_dataset"),
]

_METHODS = [
    ("layers", "BatchNorm", "__call__", "layers.bn_fwd"),
    ("model", "MinkFPN", "__call__", "model.backbone"),
    ("train", "Adam", "step", "train.adam"),
    ("autodiff", "Tape", "backward", "autodiff.backward"),
    ("autodiff", "Var", "add_grad", "autodiff.add_grad"),
]

_MODULES = ("sparse", "layers", "model", "train", "evaluate", "data",
            "autodiff")


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts = defaultdict(float)   # (op, counter) -> value
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._seen: list[object] = []      # kernel maps / downsamples per op

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def count(self, key: str, value: float = 1.0):
        self.counts[(self.op, key)] += value

    def begin_op(self, op: int):
        """Start attributing spans and counts to op ``op`` (-1: outside ops)."""
        self.op = op
        self._seen.clear()

    def _first_sight(self, obj) -> bool:
        # cached kernel maps / downsample results come back as the same
        # object; holding a reference until the op ends keeps ids unique
        if any(obj is s for s in self._seen):
            return False
        self._seen.append(obj)
        return True

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Patch every sparseloc binding of the traced entry points."""
        mods = {m: importlib.import_module(f"sparseloc.{m}") for m in _MODULES}
        package = importlib.import_module("sparseloc")
        for mod_name, attr, span in _FUNCTIONS:
            original = getattr(mods[mod_name], attr)
            traced = self._wrap(span, original, _HOOKS.get(span))
            for holder in (*mods.values(), package):
                if holder.__dict__.get(attr) is original:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, traced)
        for mod_name, cls_name, attr, span in _METHODS:
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original, _HOOKS.get(span)))
        tape_cls = mods["autodiff"].Tape
        original_record = tape_cls.__dict__["record"]
        self._undo.append((tape_cls, "record", original_record))
        tracer = self

        def record(tape, backward_fn):
            # the closure runs later, under the backward twin of the forward
            # span open now (e.g. layers.conv_fwd -> layers.conv_bwd)
            owner = tracer.names[tracer._stack[-1]] if tracer._stack else "?"
            name = owner[:-4] + "_bwd" if owner.endswith("_fwd") else owner + ".bwd"
            tracer.count("autodiff.tape_ops")
            original_record(tape, tracer._wrap(name, backward_fn))

        tape_cls.record = record
        return self

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- folding -----------------------------------------------------------

    def fold(self, ops: set[int] | None = None):
        """Per-span-name self time (s), inclusive time (s) and call count.

        Only spans whose op is in ``ops`` are folded (all when None).
        """
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_s, incl_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, name in enumerate(self.names):
            if ops is not None and self.ops[i] not in ops:
                continue
            dur = self.ends[i] - self.starts[i]
            self_s[name] += dur - child[i]
            incl_s[name] += dur
            calls[name] += 1
        return self_s, incl_s, calls

    def totals(self, ops: set[int] | None = None):
        out = defaultdict(float)
        for (op, key), value in self.counts.items():
            if ops is None or op in ops:
                out[key] += value
        return out


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


# -- counters taken at the wrapped boundaries ------------------------------

def _on_quantize(tracer, args, kwargs, out):
    tracer.count("sparse.voxels_s1", out.n)


def _on_kmap(tracer, args, kwargs, kmap):
    tracer.count("sparse.kmap_calls")
    pairs = kmap.pair_count()
    # the enclosing conv needs its pair count for FLOPs, cached or not
    tracer.count("_pairs_pending", pairs)
    if tracer._first_sight(kmap):
        out_coords = args[1] if len(args) > 1 else kwargs["out_coords"]
        tracer.count("sparse.kmap_builds")
        tracer.count("sparse.kmap_pairs", pairs)
        tracer.count("_kmap_candidates", len(out_coords) * len(kmap.offsets))


def _on_downsample(tracer, args, kwargs, out):
    coords, stride = out
    if tracer._first_sight(out):
        tracer.count(f"sparse.voxels_s{stride}", len(coords))


def _on_conv(tracer, args, kwargs, out):
    x, weight = args[0], args[1]
    n_off, c_in, c_out = weight.value.shape
    pairs = tracer.counts.pop((tracer.op, "_pairs_pending"), 0.0)
    if pairs == 0.0:   # 1x1 stride-1 conv: identity map, no kernel map built
        pairs = x.n * n_off
    tracer.count("layers.conv_flop", 2.0 * pairs * c_in * c_out)
    tracer.count("layers.conv_gather_bytes", pairs * (c_in + c_out) * 8.0)


def _on_tconv(tracer, args, kwargs, out):
    x, weight = args[0], args[1]
    n_off, c_in, c_out = weight.value.shape
    tracer.count("layers.tconv_flop", 2.0 * x.n * n_off * c_in * c_out)


def _on_gem(tracer, args, kwargs, out):
    tracer.count("model.pooled_rows", args[0].n)


def _on_mine(tracer, args, kwargs, triplets):
    tracer.count("train.mined", len(triplets))


def _on_loss(tracer, args, kwargs, out):
    tracer.count("train.active", out[1])


def _on_adam(tracer, args, kwargs, out):
    tracer.count("train.steps")


def _on_knn(tracer, args, kwargs, out):
    tracer.count("evaluate.knn_calls")
    tracer.count("evaluate.distance_evals", len(args[0]))


_HOOKS = {
    "sparse.quantize": _on_quantize,
    "sparse.kmap": _on_kmap,
    "sparse.downsample": _on_downsample,
    "layers.conv_fwd": _on_conv,
    "layers.tconv_fwd": _on_tconv,
    "model.gem_fwd": _on_gem,
    "train.mine": _on_mine,
    "train.loss_fwd": _on_loss,
    "train.adam": _on_adam,
    "evaluate.knn": _on_knn,
}
