"""The four workloads: a timed run (end-to-end metrics) and a traced run
(per-layer metrics) for each.

Steadiness rules every timed run follows:

* input generation and the reference run before any timer starts;
* set-up is repeated and reported as a median, plus the one-time import;
* one warm-up op is discarded;
* ``gc.collect()`` runs between rounds, never inside one, and the
  correctness checks after each op are subtracted from the round time;
* ``tracemalloc`` and spans run only in their own passes.
"""

from __future__ import annotations

import gc
import shutil
import time
import tracemalloc
from pathlib import Path

import numpy as np

import common
import inputs
import reference
from inputs import SOLVER_SEED
from spans import Tracer

#: An op fails when its error exceeds the HOOI reference's by more than this
#: factor (measured ratios are 1.000-1.002 at the parent commit) or when its
#: factors are not orthonormal.
ERROR_TOL = 1.05

#: Set-up repetitions per timed run (``setup_s`` is their median); the
#: stream workload instead re-warms before every pass.
SETUP_REPS = {"fit": 3, "serve": 2}

#: Fewest timed rounds per run, whatever ``--seconds`` says.
MIN_ROUNDS = 3

#: Traced and untraced ops per fit trace run.
TRACE_OPS = 3

#: Streaming-copy probe size: at least 4x the 105 MiB L3 of the machine the
#: benchmark was tuned on, so the copy runs from DRAM.
COPY_PROBE_BYTES = 448 << 20

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "round_s": "s",
    "error_ratio": "ratio",
    "peak_mib": "MiB",
    "compressed_mib": "MiB",
}

#: name -> (unit, better).  Every traced run prints all of them; a layer
#: the workload does not exercise reads 0.
PER_LAYER = {
    "validation.as_tensor_s": ("s", "lower"),
    "core.sources.read_batch_s": ("s", "lower"),
    "core.sources.read_batch_mib": ("MiB", "lower"),
    "kernels.compress_plan.compress_source_s": ("s", "lower"),
    "kernels.compress_plan.execute_plan_s": ("s", "lower"),
    "kernels.slab_norms_s": ("s", "lower"),
    "kernels.compress_plan.sketch_draws": ("count", "lower"),
    "kernels.compress_plan.gflops": ("GFLOP/s", "higher"),
    "kernels.compress_plan.roofline_frac": ("ratio", "higher"),
    "core.initialization.initialize_s": ("s", "lower"),
    "core.iteration.als_sweeps_s": ("s", "lower"),
    "core.iteration.sweeps": ("count", "lower"),
    "core.iteration.sweep_s": ("s", "lower"),
    "kernels.workspace.w_evals_per_sweep": ("count", "lower"),
    "kernels.workspace.hit_ratio": ("ratio", "higher"),
    "kernels.workspace.bytes_reused_mib": ("MiB", "higher"),
    "engine.busy_s": ("s", "lower"),
    "engine.queue_wait_s": ("s", "lower"),
    "engine.tasks": ("count", "lower"),
    "store.save_s": ("s", "lower"),
    "store.save_mib": ("MiB", "lower"),
    "store.files_written": ("count", "lower"),
    "store.build_index_s": ("s", "lower"),
    "store.open_s": ("s", "lower"),
    "store.served.miss_s": ("s", "lower"),
    "store.served.warm_s": ("s", "lower"),
    "store.served.hit_s": ("s", "lower"),
    "store.served.hit_ratio": ("ratio", "higher"),
    "store.served.warm_ratio": ("ratio", "higher"),
    "store.range_index.node_hit_ratio": ("ratio", "higher"),
    "store.served.slice_range_s": ("s", "lower"),
    "core.streaming.partial_fit_s": ("s", "lower"),
    "core.streaming.approximation_s": ("s", "lower"),
    "core.streaming.iteration_s": ("s", "lower"),
    "core.streaming.proj_per_update": ("count", "lower"),
    "core.streaming.rotates": ("count", "lower"),
    "core.streaming.evictions": ("count", "lower"),
    "core.streaming.watchdog_refreshes": ("count", "lower"),
    "baselines.tucker_als_s": ("s", "lower"),
    "baselines.tucker_als_error_ratio": ("ratio", "lower"),
    "machine.gemm_gflops": ("GFLOP/s", "higher"),
    "machine.copy_gibps": ("GiB/s", "higher"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.composed_equal": ("flag", "higher"),
}

#: Kernel-cache names the sweep workspace records (see repro.kernels.stats).
_SWEEP_KERNELS = ("au", "av", "w", "chain")


class Run:
    """One benchmark invocation: its inputs, scratch directory and results."""

    def __init__(self, workload, seed: int, seconds: float, work: Path, import_s: float):
        self.w = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.work = work
        self.import_s = import_s
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.diag: dict[str, object] = {}

    def say(self, line: str) -> None:
        print(line, flush=True)

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.say(f"  {name:<42} {float(value):>14.6g} {unit:<8} {note}")

    def account(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def ops_summary(self, ops: list[list[float]], rounds: list[float], setups: list[float]) -> None:
        """Report ``setup_s``, ``op_s`` and ``round_s`` from per-round op times.

        ``ops[r][i]`` is op ``i`` of round ``r``; every round runs the same
        op sequence.  ``op_s`` is the mean over the sequence of each op's
        median over the rounds (for the fits, whose ops are all the same
        call, the median op); the mean keeps serve-stock's mix of 0.3 ms
        cache hits and 20-200 ms computed queries from putting a median on
        the steepest part of the distribution.  ``round_s`` is the median
        round.
        """
        flat = [t for row in ops for t in row]
        per_op = [common.median(col) for col in zip(*ops)]
        self.put("setup_s", self.import_s + common.median(setups), "s",
                 f"import {self.import_s:.4f} s + median of {len(setups)} set-ups")
        self.put("op_s", sum(per_op) / len(per_op), "s",
                 f"mean over {len(per_op)} ops of the median over {len(ops)} rounds (n={len(flat)})")
        t = common.tail(flat)
        if t is None:
            self.say(f"  {'op_tail_s':<42} {'-':>14} {'s':<8} omitted: n={len(flat)} < 20")
        else:
            pct, cnt, value = t
            self.say(f"  {'op_tail_s':<42} {value:>14.6g} {'s':<8} p{pct:.0f} of n={cnt} samples")
            self.diag["op_tail_s"] = {"value": value, "percentile": pct, "n": cnt}
        self.put("round_s", common.median(rounds), "s", f"median of {len(rounds)} rounds")
        self.diag.update(n_ops=len(flat), n_rounds=len(rounds), n_setups=len(setups))


def _peak_mib(fn) -> float:
    """tracemalloc peak above the starting level while ``fn()`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / common.MIB
    finally:
        tracemalloc.stop()


def _drift(run: Run, before: float, after: float) -> None:
    run.diag.update(gemm_gflops_start=before, gemm_gflops_end=after)
    run.say(f"  drift probe: GEMM {before:.2f} GFLOP/s at start, {after:.2f} at end "
            f"({(after - before) / before:+.1%})")


def _timed_rounds(run: Run, n_ops: int, op, check, before_round=None) -> tuple[list[list[float]], list[float]]:
    """Run whole rounds of ``n_ops`` until ``run.seconds`` have passed (at least
    ``MIN_ROUNDS``); returns per-round op times and round times.

    ``op(i)`` is timed.  ``check(i, result)`` returns whether the op passed;
    its time is excluded from the round.  ``before_round()`` resets state
    after the between-round ``gc.collect()``, outside every timer.
    """
    ops: list[list[float]] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if before_round is not None:
            before_round()
        row: list[float] = []
        r0 = time.perf_counter()
        checking = 0.0
        for i in range(n_ops):
            t = time.perf_counter()
            result = op(i)
            row.append(time.perf_counter() - t)
            c = time.perf_counter()
            run.account(check(i, result))
            checking += time.perf_counter() - c
        rounds.append(time.perf_counter() - r0 - checking)
        ops.append(row)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start >= run.seconds:
            return ops, rounds


# -- per-layer helpers ------------------------------------------------------

def _engine_totals(traces) -> tuple[float, float, int]:
    busy = sum(sum(t.busy_seconds_per_worker.values()) for t in traces)
    wait = sum(t.queue_wait_seconds for t in traces)
    return busy, wait, sum(t.n_tasks for t in traces)


def _workspace_counters(stats) -> tuple[float, float, float]:
    """``(w_evals_per_sweep, hit_ratio, bytes_reused_mib)`` of sweep kernels."""
    hits = sum(stats.hits_for(k) for k in _SWEEP_KERNELS)
    misses = sum(stats.misses_for(k) for k in _SWEEP_KERNELS)
    ratio = hits / (hits + misses) if hits + misses else 0.0
    return stats.w_evals_per_sweep(), ratio, stats.bytes_reused / common.MIB


def _machine(run: Run, out: dict) -> None:
    out["machine.gemm_gflops"] = common.gemm_probe(n=1024, reps=3)
    out["machine.copy_gibps"] = common.copy_probe(COPY_PROBE_BYTES)
    run.say(f"machine: GEMM 1024^3 float64, copy {COPY_PROBE_BYTES >> 20} MiB -> "
            f"{COPY_PROBE_BYTES >> 20} MiB (>= 4x a 105 MiB L3)")


def _compress_replays(run: Run, tracer: Tracer, out: dict, source, k: int, config, seconds: float) -> None:
    """Replay the approximation phase's pieces on one gathered slab.

    ``read_batch`` plus the layout copy the rsvd kernels make, then
    ``execute_plan`` and ``slab_norms`` on the contiguous slab, and the
    planner's flop estimate over the in-op ``compress_source`` time.
    """
    from repro.engine import backend_scope
    from repro.kernels.compress_plan import execute_plan, slab_norms

    count = source.slice_count
    with tracer.span("core.sources.read_batch", replay=True):
        slab = np.ascontiguousarray(source.read_batch(0, count))
    out["core.sources.read_batch_s"] = tracer.spans[-1].seconds
    out["core.sources.read_batch_mib"] = slab.nbytes / common.MIB
    plan = source.plan(k, config)
    omega = None
    if plan.method == "rsvd":
        omega = np.random.default_rng(SOLVER_SEED).standard_normal((slab.shape[2], plan.k_eff))
    with backend_scope(None, config=config) as eng:
        with tracer.span("kernels.compress_plan.execute_plan", replay=True, method=plan.method):
            execute_plan(eng, slab, k, plan, omega=omega)
    out["kernels.compress_plan.execute_plan_s"] = tracer.spans[-1].seconds
    with tracer.span("kernels.slab_norms", replay=True):
        slab_norms(slab)
    out["kernels.slab_norms_s"] = tracer.spans[-1].seconds
    flops = float(plan.costs[plan.method]) * count
    gflops = flops / seconds / 1e9 if seconds > 0 else 0.0
    intensity = flops / float(slab.nbytes)  # computed bytes: the slab read once
    roof = min(out["machine.gemm_gflops"], out["machine.copy_gibps"] * 2**30 / 1e9 * intensity)
    out["kernels.compress_plan.gflops"] = gflops
    out["kernels.compress_plan.roofline_frac"] = gflops / roof if roof > 0 else 0.0
    run.say(f"planner: method={plan.method} k_eff={plan.k_eff} flops={flops:.4g} "
            f"intensity={intensity:.3g} flop/B (computed) roofline={roof:.3g} GFLOP/s")


def _finish_trace(run: Run, tracer: Tracer, out: dict, untraced: list[float], traced: list[float]) -> None:
    """Coverage, overhead, the span table and the Chrome trace file."""
    op_s = common.median(untraced)
    out["trace.overhead_s"] = common.median(traced) - op_s
    path = run.work.parent / "traces" / f"{run.w.name}-seed{run.seed}.json"
    tracer.write_chrome(path)
    run.say(f"spans (self = span minus child spans), untraced op_s={op_s:.6g} s:")
    run.say(f"  {'span':<44} {'calls':>5} {'total_s':>10} {'self_s':>10}")
    for name, calls, total, self_s in tracer.table():
        run.say(f"  {name:<44} {calls:>5} {total:>10.4f} {self_s:>10.4f}")
    run.say(f"trace: {path.name} ({len(tracer.spans)} spans; load at ui.perfetto.dev)")
    run.say(f"trace.coverage={out['trace.coverage']:.4f} trace.overhead_s="
            f"{out['trace.overhead_s']:+.6f} composed_equal={bool(out['trace.composed_equal'])}")
    run.say("per-layer:")
    for name, (unit, _) in PER_LAYER.items():
        run.put(name, out.get(name, 0.0), unit)


# -- fit workloads ----------------------------------------------------------

def _check_fit(x, ref_err, ratios):
    def check(_i, model):
        res = model.result_
        ratio = reference.relative_error(x, res.core, res.factors) / ref_err
        ratios.append(ratio)
        return common.orthonormal(res.factors) and ratio <= ERROR_TOL
    return check


def fit_timed(run: Run) -> None:
    import repro

    w = run.w
    x = inputs.make_tensor(w, run.seed)
    ref_err = reference.hooi(x, w.ranks)[2]
    run.say(f"inputs: {w.dataset}:{w.scale} {x.shape} {x.nbytes / common.MIB:.1f} MiB, "
            f"ranks {w.ranks}, HOOI reference error {ref_err:.6f}")

    def op(_i):
        return repro.DTucker(ranks=w.ranks, seed=SOLVER_SEED).fit(x)

    setups = []
    for _ in range(SETUP_REPS["fit"]):
        t = time.perf_counter()
        model = op(0)
        setups.append(time.perf_counter() - t)
    ratios: list[float] = []
    check = _check_fit(x, ref_err, ratios)
    g0 = common.gemm_probe()
    ops, rounds = _timed_rounds(run, w.ops_per_round, op, check)
    g1 = common.gemm_probe()
    run.ops_summary(ops, rounds, setups)
    run.put("error_ratio", max(ratios), "ratio", f"worst of {len(ratios)} fits, tol {ERROR_TOL}")
    run.put("peak_mib", _peak_mib(lambda: op(0)), "MiB", "one fit")
    run.put("compressed_mib", model.slice_svd_.nbytes / common.MIB, "MiB", "SliceSVD.nbytes")
    _drift(run, g0, g1)


def fit_traced(run: Run) -> None:
    import repro
    from repro.baselines import tucker_als
    from repro.core.fit_pipeline import resolve_slice_rank
    from repro.core.initialization import initialize
    from repro.core.iteration import als_sweeps
    from repro.core.result import TuckerResult
    from repro.core.sources import DenseSource, compress_source
    from repro.engine import backend_scope
    from repro.kernels.stats import KernelStats
    from repro.tensor.random import default_rng
    from repro.validation import as_tensor, check_ranks

    w = run.w
    out: dict[str, float] = {}
    _machine(run, out)
    x = inputs.make_tensor(w, run.seed)
    ref_err = reference.hooi(x, w.ranks)[2]
    run.say(f"inputs: {w.dataset}:{w.scale} {x.shape}, ranks {w.ranks}")

    def op():
        return repro.DTucker(ranks=w.ranks, seed=SOLVER_SEED).fit(x)

    op()  # warm-up, discarded
    untraced = []
    for _ in range(TRACE_OPS):
        t = time.perf_counter()
        timed_model = op()
        untraced.append(time.perf_counter() - t)
    config = timed_model.config
    perm = timed_model.permutation_
    inverse = tuple(int(i) for i in np.argsort(perm))

    tracer = Tracer()
    per_op: list[dict] = []
    equal = True
    for i in range(TRACE_OPS):
        tracer.op = i
        rec: dict[str, float] = {}
        with tracer.span("op.fit"):
            with tracer.span("validation.as_tensor"):
                xx = as_tensor(x, min_order=2, name="tensor")
            rank_tuple = check_ranks(tuple(w.ranks[p] for p in perm), xx.shape)
            with tracer.span("core.sources.DenseSource"):
                source = DenseSource(np.transpose(xx, perm))
            k = resolve_slice_rank(source.shape, rank_tuple[0], rank_tuple[1], None)
            stats = KernelStats()
            with backend_scope(None, config=config) as eng:
                first = len(eng.traces)
                with tracer.span("kernels.compress_plan.compress_source"):
                    ssvd = compress_source(source, k, config=config, engine=eng,
                                           rng=default_rng(config.seed), stats=stats)
                with tracer.span("core.initialization.initialize"):
                    _, factors = initialize(ssvd, rank_tuple)
                with tracer.span("core.iteration.als_sweeps"):
                    outcome = als_sweeps(ssvd, rank_tuple, factors, config=config, engine=eng)
                traces = list(eng.traces[first:])
        result = TuckerResult(core=outcome.core, factors=outcome.factors).permute_modes(inverse)
        ref = timed_model.result_
        equal = equal and np.array_equal(result.core, ref.core) and all(
            np.array_equal(a, b) for a, b in zip(result.factors, ref.factors))
        rec["sweeps"] = outcome.n_iters
        rec["sketch_draws"] = stats.sketch_draws
        rec["busy"], rec["wait"], rec["tasks"] = _engine_totals(traces)
        rec["w_evals"], rec["hit"], rec["reuse"] = _workspace_counters(outcome.kernel_stats)
        per_op.append(rec)

    def med(name):
        return common.median(tracer.per_op(name).values())

    def med_rec(key):
        return common.median(r[key] for r in per_op)

    out["validation.as_tensor_s"] = med("validation.as_tensor")
    out["kernels.compress_plan.compress_source_s"] = med("kernels.compress_plan.compress_source")
    out["kernels.compress_plan.sketch_draws"] = med_rec("sketch_draws")
    out["core.initialization.initialize_s"] = med("core.initialization.initialize")
    out["core.iteration.als_sweeps_s"] = med("core.iteration.als_sweeps")
    out["core.iteration.sweeps"] = med_rec("sweeps")
    out["core.iteration.sweep_s"] = out["core.iteration.als_sweeps_s"] / max(1, out["core.iteration.sweeps"])
    out["kernels.workspace.w_evals_per_sweep"] = med_rec("w_evals")
    out["kernels.workspace.hit_ratio"] = med_rec("hit")
    out["kernels.workspace.bytes_reused_mib"] = med_rec("reuse")
    out["engine.busy_s"] = med_rec("busy")
    out["engine.queue_wait_s"] = med_rec("wait")
    out["engine.tasks"] = med_rec("tasks")
    op_spans = [i for i, s in enumerate(tracer.spans) if s.name == "op.fit"]
    covered = [sum(s.seconds for s in tracer.spans if s.parent == i) for i in op_spans]
    out["trace.coverage"] = common.median(covered) / common.median(untraced)
    out["trace.composed_equal"] = 1.0 if equal else 0.0
    if not equal:
        run.say("WARNING: the composed fit differs from DTucker.fit; the breakdown no "
                "longer describes the timed op")

    tracer.op = None
    _compress_replays(run, tracer, out, DenseSource(x), k, config,
                      out["kernels.compress_plan.compress_source_s"])
    with tracer.span("baselines.tucker_als"):
        base = tucker_als(x, w.ranks)
    out["baselines.tucker_als_s"] = tracer.spans[-1].seconds
    out["baselines.tucker_als_error_ratio"] = reference.relative_error(
        x, base.result.core, base.result.factors) / ref_err
    run.say(f"yardstick: D-Tucker op_s / tucker_als = "
            f"{common.median(untraced) / out['baselines.tucker_als_s']:.3f}")
    run.account(bool(equal))
    _finish_trace(run, tracer, out, untraced, [tracer.spans[i].seconds for i in op_spans])


# -- serve-stock ------------------------------------------------------------

def _serve_setup(w, x, path: Path, tracer: Tracer, out: dict):
    """Fit, save, build the range index and open: the serving set-up."""
    import repro

    t = time.perf_counter()
    model = repro.DTucker(ranks=w.ranks, seed=SOLVER_SEED).fit(x)
    with tracer.span("store.save"):
        store = model.save(path)
    out["store.save_s"] = tracer.spans[-1].seconds
    nbytes, files = common.dir_stats(path)
    out["store.save_mib"] = nbytes / common.MIB
    out["store.files_written"] = files
    with tracer.span("store.build_index"):
        store.build_index()
    out["store.build_index_s"] = tracer.spans[-1].seconds
    with tracer.span("store.open"):
        served = store.open()
    out["store.open_s"] = tracer.spans[-1].seconds
    return served, store, time.perf_counter() - t


def _warmup_query(served, seq) -> None:
    """One discarded query on a range outside the sequence, then a cold cache."""
    t0 = 1
    while (t0, t0 + 32) in seq:
        t0 += 1
    served.query_time_range(t0, t0 + 32)
    served.clear_cache()


def serve_timed(run: Run) -> None:
    w = run.w
    x = inputs.make_tensor(w, run.seed)
    seq = inputs.query_sequence(run.seed, x.shape[-1])
    run.say(f"inputs: {w.dataset}:{w.scale} {x.shape}, {len(seq)} queries per round "
            f"({len(set(seq))} distinct), ranks {w.ranks}")
    setups = []
    served = store = None
    for i in range(SETUP_REPS["serve"]):
        if served is not None:
            served.close()
            shutil.rmtree(store.path)
        served, store, seconds = _serve_setup(w, x, run.work / f"store{i}", Tracer(), {})
        setups.append(seconds)
    _warmup_query(served, seq)

    answers: dict[tuple[int, int], object] = {}

    def op(i):
        return served.query_time_range(*seq[i])

    def check(i, ans):
        answers.setdefault(seq[i], ans)
        return common.orthonormal(ans.factors)

    g0 = common.gemm_probe()
    ops, rounds = _timed_rounds(run, len(seq), op, check, served.clear_cache)
    g1 = common.gemm_probe()
    run.ops_summary(ops, rounds, setups)

    distinct = list(dict.fromkeys(seq))
    checked = distinct[:: len(distinct) // 4][:4]
    ratios = []
    for t0, t1 in checked:
        sub = np.ascontiguousarray(x[..., t0:t1])
        ans = answers[(t0, t1)]
        ranks = ans.core.shape
        ratio = reference.relative_error(sub, ans.core, ans.factors) / reference.hooi(sub, ranks)[2]
        ratios.append(ratio)
        if ratio > ERROR_TOL:
            run.failed += 1
    run.put("error_ratio", max(ratios), "ratio",
            f"worst of {len(checked)} checked ranges (lengths {[b - a for a, b in checked]})")
    longest = sorted(distinct, key=lambda r: (r[0] - r[1], r))[:4]

    def cold(r):
        served.clear_cache()
        return _peak_mib(lambda: served.query_time_range(*r))

    run.put("peak_mib", common.median(cold(r) for r in longest), "MiB",
            "median of the 4 longest ranges, cold")
    index_bytes, _ = common.dir_stats(store.path / "index")
    run.put("compressed_mib", (store.nbytes + index_bytes) / common.MIB, "MiB",
            "ModelStore.nbytes + index")
    _drift(run, g0, g1)
    served.close()


def serve_traced(run: Run) -> None:
    from repro.core.initialization import initialize
    from repro.core.iteration import als_sweeps
    from repro.engine import backend_scope

    w = run.w
    out: dict[str, float] = {}
    _machine(run, out)
    x = inputs.make_tensor(w, run.seed)
    seq = inputs.query_sequence(run.seed, x.shape[-1])
    tracer = Tracer()
    served, store, _ = _serve_setup(w, x, run.work / "store", tracer, out)
    _warmup_query(served, seq)

    untraced = []
    for r in seq:
        t = time.perf_counter()
        ans = served.query_time_range(*r)
        untraced.append(time.perf_counter() - t)
        run.account(common.orthonormal(ans.factors))
    served.clear_cache()
    counters0 = served.stats.counters.copy()
    first = len(served.stats.records)
    traced = []
    for i, r in enumerate(seq):
        tracer.op = i
        with tracer.span("store.served.query_time_range", t0=r[0], t1=r[1]) as span:
            served.query_time_range(*r)
        span.args["cache"] = served.stats.records[-1].cache
        traced.append(span.seconds)
    records = served.stats.records[first:]
    delta = served.stats.counters.delta(counters0)
    by = {c: [rec.seconds for rec in records if rec.cache == c] for c in ("miss", "warm", "hit")}
    for c, values in by.items():
        out[f"store.served.{c}_s"] = common.median(values) if values else 0.0
    computed = len(by["miss"]) + len(by["warm"])
    out["store.served.hit_ratio"] = len(by["hit"]) / len(records)
    out["store.served.warm_ratio"] = len(by["warm"]) / computed if computed else 0.0
    node = delta.hits_for("node") + delta.misses_for("node")
    out["store.range_index.node_hit_ratio"] = delta.hits_for("node") / node if node else 0.0
    run.say(f"served: {len(records)} queries miss={len(by['miss'])} warm={len(by['warm'])} "
            f"hit={len(by['hit'])} nodes={delta.hits_for('node')}h/{delta.misses_for('node')}m")
    out["trace.coverage"] = common.median(traced) / common.median(untraced)
    out["trace.composed_equal"] = 1.0

    # Replays of the compressed-domain work of a cold query, via public calls.
    tracer.op = None
    distinct = list(dict.fromkeys(seq))[:8]
    recs = []
    for t0, t1 in distinct:
        with tracer.span("store.served.slice_range", replay=True):
            local = served.slice_range(t0, t1)
        rec = {"slice": tracer.spans[-1].seconds}
        ranks = tuple(min(r, d) for r, d in zip(w.ranks, local.shape))
        with backend_scope(None, config=served.config) as eng:
            n0 = len(eng.traces)
            with tracer.span("core.initialization.initialize", replay=True):
                _, factors = initialize(local, ranks)
            rec["init"] = tracer.spans[-1].seconds
            with tracer.span("core.iteration.als_sweeps", replay=True):
                outcome = als_sweeps(local, ranks, factors, config=served.config, engine=eng)
            rec["als"] = tracer.spans[-1].seconds
            rec["busy"], rec["wait"], rec["tasks"] = _engine_totals(eng.traces[n0:])
        rec["sweeps"] = outcome.n_iters
        rec["w_evals"], rec["hit"], rec["reuse"] = _workspace_counters(outcome.kernel_stats)
        recs.append(rec)

    def med(key):
        return common.median(r[key] for r in recs)

    out["store.served.slice_range_s"] = med("slice")
    out["core.initialization.initialize_s"] = med("init")
    out["core.iteration.als_sweeps_s"] = med("als")
    out["core.iteration.sweeps"] = med("sweeps")
    out["core.iteration.sweep_s"] = common.median(r["als"] / max(1, r["sweeps"]) for r in recs)
    out["kernels.workspace.w_evals_per_sweep"] = med("w_evals")
    out["kernels.workspace.hit_ratio"] = med("hit")
    out["kernels.workspace.bytes_reused_mib"] = med("reuse")
    out["engine.busy_s"] = med("busy")
    out["engine.queue_wait_s"] = med("wait")
    out["engine.tasks"] = med("tasks")
    served.close()
    _finish_trace(run, tracer, out, untraced, traced)


# -- stream-walking ---------------------------------------------------------

def _stream_model(warm):
    from repro.core.streaming import StreamingDTucker

    t = time.perf_counter()
    model = StreamingDTucker(
        inputs.WORKLOADS["stream-walking"].ranks, seed=SOLVER_SEED,
        update="incremental", window=inputs.STREAM_WINDOW,
    )
    model.partial_fit(warm)
    return model, time.perf_counter() - t


def stream_timed(run: Run) -> None:
    w = run.w
    x = inputs.make_tensor(w, run.seed)
    warm, blocks = inputs.stream_blocks(x)
    live = np.ascontiguousarray(x[..., -inputs.STREAM_WINDOW:])
    del x
    ref_err = reference.hooi(live, w.ranks)[2]
    run.say(f"inputs: {w.dataset}:{w.scale} warm {warm.shape}, {len(blocks)} blocks of "
            f"{inputs.STREAM_BLOCK} steps, window {inputs.STREAM_WINDOW}")
    ckpt = run.work / "checkpoint"
    setups = []
    model, seconds = _stream_model(warm)
    setups.append(seconds)
    model.partial_fit(blocks[0])  # warm-up durable ingest, discarded
    model.save(ckpt, overwrite=True)
    state = {}

    def rewarm():
        shutil.rmtree(ckpt, ignore_errors=True)
        state["model"], seconds = _stream_model(warm)
        setups.append(seconds)

    def op(i):
        m = state["model"]
        m.partial_fit(blocks[i])
        m.save(ckpt, overwrite=True)
        return m

    ratios = []

    def check(i, m):
        ok = common.orthonormal(m.result_.factors)
        if i == len(blocks) - 1:
            ratio = reference.relative_error(live, m.result_.core, m.result_.factors) / ref_err
            ratios.append(ratio)
            ok = ok and ratio <= ERROR_TOL
        return ok

    g0 = common.gemm_probe()
    ops, rounds = _timed_rounds(run, len(blocks), op, check, rewarm)
    g1 = common.gemm_probe()
    run.ops_summary(ops, rounds, setups)
    run.put("error_ratio", max(ratios), "ratio", f"live window after each of {len(ratios)} passes")
    fresh, _ = _stream_model(warm)
    peaks = []
    for b in blocks[:8]:
        peaks.append(_peak_mib(lambda: (fresh.partial_fit(b), fresh.save(ckpt, overwrite=True))))
    run.put("peak_mib", common.median(peaks), "MiB", "median of the first 8 ingests")
    nbytes, files = common.dir_stats(ckpt)
    run.put("compressed_mib", nbytes / common.MIB, "MiB", f"checkpoint directory, {files} files")
    _drift(run, g0, g1)


def stream_traced(run: Run) -> None:
    from repro.core.sources import BlockSource, compress_source
    from repro.kernels.stats import KernelStats

    w = run.w
    out: dict[str, float] = {}
    _machine(run, out)
    x = inputs.make_tensor(w, run.seed)
    warm, blocks = inputs.stream_blocks(x)
    del x
    ckpt = run.work / "checkpoint"
    model, _ = _stream_model(warm)
    model.partial_fit(blocks[0])  # warm-up durable ingest, discarded
    model.save(ckpt, overwrite=True)

    shutil.rmtree(ckpt)
    model, _ = _stream_model(warm)
    untraced = []
    for b in blocks:
        t = time.perf_counter()
        model.partial_fit(b)
        model.save(ckpt, overwrite=True)
        untraced.append(time.perf_counter() - t)
        run.account(common.orthonormal(model.result_.factors))

    shutil.rmtree(ckpt)
    model, _ = _stream_model(warm)
    tracer = Tracer()
    recs = []
    for i, b in enumerate(blocks):
        tracer.op = i
        phases = dict(model.timings_.phases)
        stats0 = model.kernel_stats_.copy()
        refreshes, n_traces = model.watchdog_triggers_, len(model.traces_)
        with tracer.span("op.durable_ingest") as op_span:
            with tracer.span("core.streaming.partial_fit") as fit_span:
                model.partial_fit(b)
            with tracer.span("store.save") as save_span:
                model.save(ckpt, overwrite=True)
        d = model.kernel_stats_.delta(stats0)
        rec = {
            name: model.timings_.phases.get(name, 0.0) - phases.get(name, 0.0)
            for name in ("approximation", "initialization", "iteration")
        }
        rec.update(
            op=op_span.seconds, fit=fit_span.seconds, save=save_span.seconds,
            proj=d.misses_for("stream:proj"), proj_hits=d.hits_for("stream:proj"),
            rotates=d.misses_for("stream:rotate"), evict=d.misses_for("stream:evict"),
            refreshes=model.watchdog_triggers_ - refreshes,
        )
        rec["busy"], rec["wait"], rec["tasks"] = _engine_totals(model.traces_[n_traces:])
        recs.append(rec)

    def med(key):
        return common.median(r[key] for r in recs)

    def total(key):
        return float(sum(r[key] for r in recs))

    nbytes, files = common.dir_stats(ckpt)
    out["store.save_s"] = med("save")
    out["store.save_mib"] = nbytes / common.MIB
    out["store.files_written"] = files
    out["core.streaming.partial_fit_s"] = med("fit")
    out["core.streaming.approximation_s"] = med("approximation")
    out["core.streaming.iteration_s"] = med("iteration")
    out["kernels.compress_plan.compress_source_s"] = med("approximation")
    out["core.initialization.initialize_s"] = med("initialization")
    out["core.streaming.proj_per_update"] = med("proj")
    out["core.streaming.rotates"] = total("rotates")
    out["core.streaming.evictions"] = total("evict")
    out["core.streaming.watchdog_refreshes"] = total("refreshes")
    lookups = total("proj") + total("proj_hits")
    out["kernels.workspace.hit_ratio"] = total("proj_hits") / lookups if lookups else 0.0
    out["engine.busy_s"] = med("busy")
    out["engine.queue_wait_s"] = med("wait")
    out["engine.tasks"] = med("tasks")
    per_block = blocks[0].shape[-1] * int(np.prod(blocks[0].shape[2:-1], dtype=np.int64))
    proj_ok = all(r["proj"] == per_block for r in recs)
    run.account(proj_ok)
    if not proj_ok:
        run.say(f"FAIL: stream:proj misses per update {sorted({r['proj'] for r in recs})} "
                f"!= {per_block} slices per block")
    out["trace.coverage"] = common.median(r["fit"] + r["save"] for r in recs) / common.median(untraced)
    out["trace.composed_equal"] = 1.0

    tracer.op = None
    k = min(max(w.ranks[0], w.ranks[1]), *blocks[0].shape[:2])
    stats = KernelStats()
    compress_source(BlockSource([blocks[0]]), k, config=model.config, rng=SOLVER_SEED, stats=stats)
    out["kernels.compress_plan.sketch_draws"] = stats.sketch_draws
    _compress_replays(run, tracer, out, BlockSource([blocks[0]]), k, model.config,
                      out["kernels.compress_plan.compress_source_s"])
    _finish_trace(run, tracer, out, untraced, [r["op"] for r in recs])
