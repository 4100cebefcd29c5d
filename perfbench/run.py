"""Run one wirebeam benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_default --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the last line of standard output is a
JSON object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The lines before it are a readable
report: every metric with its unit, the workload-specific figures, the
output digests and the run context.  The full result, and with tracing the
spans, are also written under ``.perfbench_out/``.

Exit codes: 0 when every output check passed, 1 when one failed (the JSON
line then says ``"correct": false``), 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("train_default", "eval_paired", "sweep_lookback")
BLAS_THREADS = 1  # fixed, so every run of every commit uses the same count


def _cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas_threads():
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_context() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"blas_threads": BLAS_THREADS, "cores": _cores(), "numpy": np.__version__,
            "blas": blas, "python": platform.python_version(), "git_sha": git_sha()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wirebeam" / "__init__.py").is_file():
        print(f"perfbench: no wirebeam sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import wirebeam
    if Path(wirebeam.__file__).resolve().parent != SRC / "wirebeam":
        print(f"perfbench: imported wirebeam from {wirebeam.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           OUT / f"work-{args.workload}-{os.getpid()}")
    context = run_context()

    tag = f"{args.workload}-trace{args.trace}"
    for name, (value, unit) in result.metrics.items():
        print(f"{tag} {name} = {value:.6g} {unit}")
    for name, value in result.extras.items():
        print(f"{tag} {name} = {value}")
    print(f"{tag} digests (seed {args.seed}) = {json.dumps(result.digests, sort_keys=True)}")
    print(f"{tag} context = {json.dumps(context, sort_keys=True)}")

    if result.spans:
        with open(OUT / f"spans-{args.workload}.jsonl", "w") as fh:
            for s in result.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent]) + "\n")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.metrics.items()}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "correct": result.correct, "attempted": result.attempted,
         "failed": result.failed, "metrics": metrics, "extras": result.extras,
         "digests": result.digests, "context": context}, indent=1, sort_keys=True))
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
