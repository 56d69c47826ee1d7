"""Finite-difference verification of every analytic gradient path."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var
from .layers import (BatchNorm, relu, sparse_add, sparse_conv,
                     sparse_transposed_conv)
from .model import MinkLoc, ModelConfig, batch_tensor, gem_pool
from .sparse import PointCloud, SparseTensor
from .train import SimilarityMasks, batch_hard_mine, mined_triplet_loss


def numeric_grad(scalar_fn, var: Var, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar_fn w.r.t. every element of var."""
    grad = np.zeros_like(var.value)
    flat = var.value.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = scalar_fn()
        flat[i] = orig - h
        fm = scalar_fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest error relative to the larger magnitude, floored at 1e-6."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


@dataclass
class CheckResult:
    name: str
    max_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_err < self.tolerance


def _random_tensor(rng, n=12, c=3, stride=1, span=4, batches=1) -> SparseTensor:
    coords = set()
    while len(coords) < n:
        b = int(rng.integers(batches))
        xyz = tuple(int(v) * stride for v in rng.integers(0, span, size=3))
        coords.add((b,) + xyz)
    coords = np.array(sorted(coords), dtype=np.int64)
    # keep features away from ReLU / clamp kinks for clean finite differences
    feats = rng.uniform(0.1, 1.0, size=(n, c)) * rng.choice([-1.0, 1.0], size=(n, c))
    return SparseTensor(coords, feats, stride=stride)


def _check(name, forward, params, tol) -> CheckResult:
    """forward(tape) -> scalar Var; params: list of (label, Var)."""
    tape = Tape()
    loss = forward(tape)
    for _, var in params:
        var.zero_grad()
    tape.backward(loss)
    worst = 0.0
    for _, var in params:
        analytic = var.grad if var.grad is not None else np.zeros_like(var.value)
        numeric = numeric_grad(lambda: float(forward(None).value), var)
        worst = max(worst, max_rel_err(analytic, numeric))
    return CheckResult(name, worst, tol)


def check_conv(rng) -> CheckResult:
    x = _random_tensor(rng, n=12, c=3)
    w = Var(rng.normal(0, 0.5, size=(27, 3, 4)))
    mix = rng.normal(size=(x.n, 4))

    def forward(tape):
        out = sparse_conv(x, w, kernel_size=3, tape=tape)
        return _dot(out.fvar, mix[: out.n], tape)

    return _check("sparse_conv", forward, [("w", w), ("x", x.fvar)], 1e-4)


def check_strided_conv(rng) -> CheckResult:
    x = _random_tensor(rng, n=10, c=2)
    w = Var(rng.normal(0, 0.5, size=(8, 2, 3)))
    mix = rng.normal(size=(x.n, 3))

    def forward(tape):
        out = sparse_conv(x, w, kernel_size=2, stride=2, tape=tape)
        return _dot(out.fvar, mix[: out.n], tape)

    return _check("sparse_conv_s2", forward, [("w", w), ("x", x.fvar)], 1e-4)


def check_tconv(rng) -> CheckResult:
    x = _random_tensor(rng, n=8, c=3, stride=2)
    w = Var(rng.normal(0, 0.5, size=(8, 3, 2)))
    mix = rng.normal(size=(8 * 8, 2))

    def forward(tape):
        out = sparse_transposed_conv(x, w, tape=tape)
        return _dot(out.fvar, mix[: out.n], tape)

    return _check("sparse_transposed_conv", forward,
                  [("w", w), ("x", x.fvar)], 1e-4)


def check_batch_norm(rng) -> CheckResult:
    x = _random_tensor(rng, n=14, c=4)
    bn = BatchNorm(4)
    bn.gamma.value = rng.uniform(0.5, 1.5, size=4)
    bn.beta.value = rng.normal(size=4)
    mix = rng.normal(size=(x.n, 4))

    def forward(tape):
        out = bn(x, tape, train=True)
        return _dot(out.fvar, mix, tape)

    return _check("batch_norm", forward,
                  [("gamma", bn.gamma), ("beta", bn.beta), ("x", x.fvar)], 1e-4)


def check_relu(rng) -> CheckResult:
    x = _random_tensor(rng, n=10, c=3)
    mix = rng.normal(size=(x.n, 3))

    def forward(tape):
        return _dot(relu(x, tape).fvar, mix, tape)

    return _check("relu", forward, [("x", x.fvar)], 1e-4)


def check_sparse_add(rng) -> CheckResult:
    # the residual add: both operands on one voxel set
    a = _random_tensor(rng, n=10, c=3, span=3)
    b = a.with_features(rng.normal(size=(a.n, 3)))
    mix = rng.normal(size=(a.n, 3))

    def forward(tape):
        return _dot(sparse_add(a, b, tape).fvar, mix, tape)

    return _check("sparse_add", forward, [("a", a.fvar), ("b", b.fvar)], 1e-4)


def check_gem(rng) -> CheckResult:
    x = _random_tensor(rng, n=12, c=4, batches=2)
    p = Var(np.asarray(2.5))
    mix = rng.normal(size=(2, 4))

    def forward(tape):
        out, _ = gem_pool(x, p, tape)
        return _dot(out, mix[: len(out.value)], tape)

    return _check("gem_pool", forward, [("p", p), ("x", x.fvar)], 1e-4)


def check_triplet(rng) -> CheckResult:
    emb = Var(rng.normal(size=(8, 5)))
    pos = np.zeros((8, 8), dtype=bool)
    for i in range(0, 8, 2):
        pos[i, i + 1] = pos[i + 1, i] = True
    neg = ~pos & ~np.eye(8, dtype=bool)
    # mine once; a large margin keeps every triplet active and off the hinge
    triplets = batch_hard_mine(emb.value, SimilarityMasks(pos, neg))

    def forward(tape):
        return mined_triplet_loss(tape, emb, triplets, margin=5.0)[0]

    return _check("triplet_loss", forward, [("emb", emb)], 1e-4)


def check_end_to_end(rng) -> CheckResult:
    cfg = ModelConfig(conv0_ch=2, conv1_ch=2, conv2_ch=2, conv3_ch=2,
                      descriptor_dim=3, quantization_step=0.1)
    model = MinkLoc(cfg, seed=int(rng.integers(1 << 30)))
    pts = rng.uniform(-0.9, 0.9, size=(40, 3))
    st = batch_tensor([PointCloud(pts)], cfg.quantization_step)
    mix = rng.normal(size=(1, 3))
    params = [(k, v) for k, v in model.named_params().items()]

    def forward(tape):
        emb, _ = model.embed_tensor(st, tape, train=True)
        return _dot(emb, mix, tape)

    return _check("compute_descriptor", forward, params, 1e-3)


def _dot(var: Var, weights: np.ndarray, tape: Tape | None) -> Var:
    """Scalar projection of an output Var; recorded so backward seeds flow."""
    out = Var(np.asarray((var.value * weights).sum()))
    if tape is not None:
        gvar = var.acc
        tape.record_for(out, lambda g: gvar.add(float(g) * weights))
    return out


def run_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_conv(rng),
        check_strided_conv(rng),
        check_tconv(rng),
        check_batch_norm(rng),
        check_relu(rng),
        check_sparse_add(rng),
        check_gem(rng),
        check_triplet(rng),
        check_end_to_end(rng),
    ]
