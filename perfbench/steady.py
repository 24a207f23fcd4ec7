"""Steadiness tool: repeat one workload in fresh processes and report spreads.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload serve-stock --runs 10 --seed 100

Each run is ``perfbench/run.py`` in its own process with the next seed
(``--same-seed`` keeps one).  Per end-to-end metric it prints the median,
the quartiles and ``(q3 - q1) / median`` as ``statistics.quantiles(n=4)``
gives them, flagging any spread beyond the metric's bound in
``BENCHMARK.json`` (``setup_s`` is exempt from the spread rule but still
printed).  The GEMM drift probe each run takes at its start and end is
reported beside ``op_s``: when the probe's spread is as wide as
``op_s``'s, the machine drifted; when only ``op_s`` spreads, the program
did.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import common

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, timeout: float = 180.0) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diag = next((json.loads(line[5:]) for line in lines if line.startswith("diag ")), {})
    return {"result": result, "diag": diag}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="repeat a workload and report metric spreads")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="first seed")
    p.add_argument("--same-seed", action="store_true")
    p.add_argument("--seconds", type=float, default=None)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    runs = []
    for i in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + i
        r = run_once(args.workload, seed, seconds)
        res = r["result"]
        print(f"run {i + 1}/{args.runs} seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)
        runs.append({"seed": seed, **r})
    if len(runs) < 2:
        return 0

    print(f"\n{args.workload}: {len(runs)} runs, run_seconds={seconds:g}")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  flag")
    bad = 0
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = common.quartiles(values)
        s = common.spread(values)
        if name == "setup_s":
            flag = "exempt"
        elif s > bound:
            flag, bad = "BEYOND BOUND", bad + 1
        elif s > bound / 3:
            flag = "above bound/3"
        else:
            flag = "ok"
        print(f"{name:<16} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.2%} {bound:>6.2f}  {flag}")
    probes = [r["diag"].get(k) for r in runs for k in ("gemm_gflops_start", "gemm_gflops_end")]
    probes = [v for v in probes if v is not None]
    if len(probes) >= 2:
        print(f"{'gemm probe':<16} {common.median(probes):>12.6g} GFLOP/s, spread "
              f"{common.spread(probes):.2%} (machine drift if comparable to op_s's)")
    tails = [r["diag"]["op_tail_s"]["value"] for r in runs if "op_tail_s" in r["diag"]]
    if len(tails) >= 2:
        print(f"{'op_tail_s':<16} {common.median(tails):>12.6g} s, spread "
              f"{common.spread(tails):.2%} (not gated)")
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"failed ops over all runs: {failed}")
    return 1 if bad or failed else 0


if __name__ == "__main__":
    sys.exit(main())
