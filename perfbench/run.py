"""Benchmark entry point: one workload, one fresh process, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-boats --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload's traced pass and prints the per-layer metrics instead, writing
the spans to ``.bench_out/traces/<workload>-seed<n>.json``.  Human-readable
lines come first; the last line of standard output is the JSON result.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread and clear every REPRO_* override before NumPy
# loads, so library defaults are what gets measured.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _parse(argv):
    import inputs

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t = time.perf_counter()
    import repro  # noqa: F401  (timed: the first part of setup_s)
    import_s = time.perf_counter() - t

    import common
    import inputs
    import workloads

    w = inputs.WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(w, args.seed, args.seconds, work, import_s)
    run.say(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} "
            f"trace {args.trace}: {w.why}")
    run.say(common.env_report())
    try:
        fn = getattr(workloads, f"{w.kind}_{'traced' if args.trace else 'timed'}")
        fn(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    missing = sorted(set(wanted) - set(run.metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    values_ok = all(math.isfinite(v) for v, _ in run.metrics.values())
    correct = run.failed == 0 and values_ok
    run.say(f"ops attempted {run.attempted}, failed {run.failed}, correct {correct}")
    print("diag " + json.dumps(run.diag), flush=True)
    result = {
        "correct": correct,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {name: {"value": run.metrics[name][0], "unit": run.metrics[name][1]}
                    for name in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
