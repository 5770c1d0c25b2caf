"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload certify-d785 --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around smoothcert's public functions.  The
line before the result is a JSON object with the environment, the tail
percentile, artifact hashes and any failed checks.
"""

from __future__ import annotations

import os

# One BLAS thread, forced before numpy loads, so that both sides of a
# comparison run alike: two threads were faster but far less steady on
# two shared cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "smoothcert" / "__init__.py").is_file():
        print(f"error: smoothcert sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import smoothcert

    if Path(smoothcert.__file__).resolve().parent != (src / "smoothcert").resolve():
        print(f"error: imported smoothcert from {smoothcert.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from perfbench import stats, workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    # The work directory's path ends up in config.json, so it depends only on
    # the arguments: artifact hashes then repeat across runs of one seed.
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = workloads.Run(work=HERE / "_work" / stem,
                        seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    t0 = time.perf_counter()
    try:
        out = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    wall = time.perf_counter() - t0

    run.calibrate()
    raw = (workloads.per_layer(run, out["op"], out["dims"], out["op_times"]) if args.trace
           else out["e2e"])
    metrics = stats.at_reference_speed(raw, run.speed)
    bad = [k for k, (v, _) in metrics.items()
           if not stats.METRIC_NAME.fullmatch(k) or not isinstance(v, (int, float))]
    if bad:
        print(f"error: malformed metrics {bad}", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "trace": args.trace,
        "wall_s": wall,
        "failed_frac": run.failed / run.attempted if run.attempted else 1.0,
        "failures": run.failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration": {"reference_s": workloads.CALIBRATION_REF_S, "speed": run.speed,
                        "samples": len(run.calibrations),
                        "median_s": stats.median(run.calibrations)},
        "raw_metrics": {k: v for k, (v, _) in raw.items()},
        "environment": environment(args.seed),
        **run.info,
    }
    results = HERE / "_out"
    results.mkdir(exist_ok=True)
    record = {"info": info, "metrics": metrics}
    if args.trace:
        record["spans"] = run.tracer.dump()
    (results / f"{stem}.json").write_text(json.dumps(record) + "\n")

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
