"""Regenerate reference.json, the pipeline canary's expected values.

    python3 bench/make_reference.py

Run it only when a change is meant to alter the canary's answers (say a new
model layout), and say so in the change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.blas_threads()
    run.import_package()
    import workloads
    work = Path(tempfile.mkdtemp(dir=run.ROOT))
    try:
        ckpt = work / "trained_like.ckpt"
        workloads.make_checkpoint(ckpt)
        values = workloads.canary_values(work, ckpt)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not (values["_grads_finite"] and values["_ckpt_roundtrip"]):
        print("canary gradients or checkpoint round trip are wrong", file=sys.stderr)
        return 1
    ref = {k: v for k, v in values.items() if not k.startswith("_")}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
