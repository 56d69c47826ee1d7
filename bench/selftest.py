"""Self-tests of the benchmark (tiny sizes, a couple of minutes in all).

    python3 -m pytest -q bench/selftest.py

The file name keeps the repository's own test run from collecting these.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import run

sl = run.import_package()

import workloads  # noqa: E402  (needs the package path set up above)

NAMES = ["embed-4k", "train-b32", "retrieve"]
EXACT_COUNTS = ["sparse.kmap_pairs", "sparse.voxels_s1", "sparse.voxels_s2",
                "sparse.voxels_s4", "sparse.voxels_s8", "layers.conv_gflop",
                "autodiff.tape_ops", "evaluate.knn_calls",
                "evaluate.distance_evals"]


def tiny(name, seed=3, trace=False, tmp_path=None):
    return run.run_workload(name, seed, 0.0, trace, scale=workloads.TINY,
                            workdir=tmp_path / name if tmp_path else None)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_completes_and_is_correct(name, tmp_path):
    result, report = tiny(name, tmp_path=tmp_path)
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb", "items_per_s",
                                      "op_p50_ms"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name, tmp_path):
    first, _ = tiny(name, trace=True, tmp_path=tmp_path)
    second, _ = tiny(name, trace=True, tmp_path=tmp_path)
    for key in EXACT_COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["correct"] and second["correct"]


def test_traced_metrics_cover_every_layer(tmp_path):
    result, report = tiny("embed-4k", trace=True, tmp_path=tmp_path)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    # the canary gives every layer some work, so no time reads zero
    for name, m in result["metrics"].items():
        if m["unit"] == "ms":
            assert m["value"] > 0, name
    assert result["metrics"]["sparse.voxels_s8"]["value"] > 0


def _perturb_descriptor(monkeypatch):
    original = sl.compute_descriptor

    def wrong(cloud, model):
        d = original(cloud, model)
        d.values[7] += 1e-3
        return d

    monkeypatch.setattr(sl, "compute_descriptor", wrong)


def _swap_knn_ids(monkeypatch):
    original = sl.knn

    def wrong(db, q, k):
        ids, dists = original(db, q, k)
        return ids[[1, 0, *range(2, len(ids))]], dists

    monkeypatch.setattr(sl, "knn", wrong)


def _wrong_recall(monkeypatch):
    original = sl.average_recall

    def wrong(*args, **kwargs):
        out = original(*args, **kwargs)
        out["ar_at_1"] += 1.0 / 400
        return out

    monkeypatch.setattr(sl, "average_recall", wrong)


@pytest.mark.parametrize("inject, name", [
    (_perturb_descriptor, "embed-4k"),
    (_swap_knn_ids, "retrieve"),
    (_wrong_recall, "retrieve"),
])
def test_injected_wrong_answers_count_as_failed(inject, name, monkeypatch, tmp_path):
    inject(monkeypatch)
    result, report = tiny(name, tmp_path=tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["failed_ratio"] > 0


def test_raising_op_counts_as_failed(tmp_path):
    r = workloads.Run(workdir=tmp_path, seed=0, seconds=0, scale=workloads.TINY)
    r.op("boom", lambda: 1 / 0)
    r.op("fine", lambda: [])
    assert (r.attempted, r.failed) == (2, 1)


def test_cli_fails_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in run.Path(run.__file__).parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "retrieve", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_p90_needs_ten_samples_beyond_it():
    assert workloads.percentile_or_none(list(range(99)), 0.9) is None
    assert workloads.percentile_or_none(list(range(100)), 0.9) == pytest.approx(89.1)


def test_oracle_matches_knn_on_ties():
    db = sl.DescriptorDatabase(np.zeros((4, 2)), np.zeros(4), np.zeros(4),
                               np.array([9, 3, 5, 1]))
    ids, dists = sl.knn(db, np.zeros(2), 3)
    assert workloads.oracle.check_knn(ids, dists, db, np.zeros(2), 3) == []
    assert list(ids) == [1, 3, 5]
