"""Benchmark entry point: one workload, one process.

    python3 bench/run.py --workload embed-4k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Stdout ends with a report line (host, the workload's
named metrics, the per-layer table when traced) and then the result line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Exits non-zero without a result when the checkout holds no ``src/sparseloc``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# One BLAS thread, whatever nproc is: the per-offset GEMMs are small, and
# OpenBLAS threads spin between calls, so a second thread only competes with
# the interpreter.  On a 2-core box it made runs slower and their spread twice
# as wide.
BLAS_THREADS = 1


def blas_threads() -> int:
    """Pin the BLAS thread count; call before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_package():
    src = ROOT / "src"
    if not (src / "sparseloc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no sparseloc package under {src}")
    sys.path.insert(0, str(src))
    import sparseloc
    if Path(sparseloc.__file__).resolve().parent != (src / "sparseloc").resolve():
        raise SystemExit(f"bench: sparseloc imported from {sparseloc.__file__}")
    return sparseloc


def git_commit() -> str | None:
    """HEAD commit read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record(threads: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": threads,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale=None, workdir: Path | None = None):
    """Run one workload in this process; returns (result line, report)."""
    import layers_table
    import workloads
    scale = scale or workloads.Scale()
    workdir = workdir or ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    run = workloads.Run(workdir=workdir, seed=seed, seconds=seconds,
                        scale=scale, tracer=tracer)
    try:
        e2e = workloads.WORKLOADS[name](run)
        workloads.run_canary(run)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(run.setup_s)
    e2e = {"setup_s": (setup_s, "s"),
           "peak_rss_mb": (run.peak_rss_mb, "MB"),
           "items_per_s": (e2e["items_per_s"], "1/s"),
           "op_p50_ms": (e2e["op_p50_ms"], "ms")}
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "traced": bool(trace), "ops": run.ops,
              "setup_s_samples": run.setup_s,
              "failed_ratio": run.failed / max(run.attempted, 1),
              "results": run.results,
              "failures": run.failures[:5]}
    if tracer:
        table = layers_table.fold(tracer, run)
        report["layers"] = table
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in table["metrics"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    report["end_to_end" if not trace else "end_to_end_traced"] = {
        k: v for k, (v, _) in e2e.items()}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["embed-4k", "train-b32", "retrieve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    threads = blas_threads()   # before numpy loads BLAS
    import_package()
    # numpy seeds must be non-negative; this leaves 0 <= seed < 2**63 as given
    seed = args.seed % (1 << 63)
    result, report = run_workload(args.workload, seed, args.seconds,
                                  bool(args.trace))
    report["host"] = host_record(threads)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
