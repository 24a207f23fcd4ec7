"""Tests of the benchmark's own logic (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def test_same_seed_same_query_sequence():
    a = inputs.query_sequence(7, 1000)
    assert a == inputs.query_sequence(7, 1000)
    assert a != inputs.query_sequence(8, 1000)


def test_query_sequence_mix():
    seq = inputs.query_sequence(3, 1000)
    distinct = set(seq)
    assert len(seq) == inputs.SERVE_DISTINCT + inputs.SERVE_REPEATS
    assert len(distinct) == inputs.SERVE_DISTINCT > 32  # outnumbers the LRU cache
    lengths = [b - a for a, b in distinct]
    assert min(lengths) >= inputs.SERVE_MIN_LEN and max(lengths) <= 500
    assert all(0 <= a < b <= 1000 for a, b in distinct)
    seen = []
    for r in seq:
        if r in seen:  # every repeat re-issues one of the last four distinct ranges
            assert r in seen[-4:]
        else:
            seen.append(r)


def test_query_sequence_fixed_outcome_mix():
    for seed in range(5):
        outcomes = inputs.cache_outcomes(inputs.query_sequence(seed, 1000))
        assert outcomes.count("hit") == inputs.SERVE_REPEATS
        assert outcomes.count("miss") == inputs.SERVE_MISSES


def test_cache_outcomes_match_the_served_model(tmp_path):
    import repro

    x = np.random.default_rng(0).standard_normal((6, 5, 1000))
    store = repro.DTucker(ranks=(2, 2, 2), seed=0).fit(x).save(tmp_path / "m")
    served = store.open()
    seq = inputs.query_sequence(3, 1000)
    for r in seq:
        served.query_time_range(*r)
    got = [rec.cache for rec in served.stats.records]
    served.close()
    assert got == inputs.cache_outcomes(seq)


def test_same_seed_same_tensor():
    w = inputs.Workload("t", "fit", "boats", "tiny", (3, 3, 3), "test")
    a, b = inputs.make_tensor(w, 5), inputs.make_tensor(w, 5)
    assert np.array_equal(a, b) and a.flags["C_CONTIGUOUS"]
    assert not np.array_equal(a, inputs.make_tensor(w, 6))


def test_stream_blocks_cover_the_tensor():
    x = np.arange(2 * 3 * 432, dtype=float).reshape(2, 3, 432)
    warm, blocks = inputs.stream_blocks(x)
    assert warm.shape == (2, 3, inputs.STREAM_WARM)
    assert len(blocks) == 2 and all(b.flags["C_CONTIGUOUS"] for b in blocks)
    assert np.array_equal(np.concatenate([warm, *blocks], axis=-1), x)


def test_tail_rule():
    assert common.tail(range(19)) is None
    pct, n, value = common.tail(range(1, 101))
    assert (pct, n, value) == (90.0, 100, 90.0)
    pct, n, value = common.tail(range(1, 21))
    assert (pct, n) == (50.0, 20) and sum(v > value for v in range(1, 21)) == 10
    for n in range(20, 300, 7):
        pct, _, value = common.tail(range(n))
        assert sum(v > value for v in range(n)) >= 10


def test_quartile_spread_matches_statistics():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = common.quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert common.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


@pytest.mark.parametrize("name", ["setup_s", "op_s", "core.sources.read_batch_mib",
                                  "kernels.compress_plan.gflops", "9lives", "a-b_c.d"])
def test_metric_names_valid(name):
    assert common.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "é"])
def test_metric_names_invalid(name):
    assert not common.valid_name(name)


def test_units():
    for unit in ("s", "ms", "MiB", "GFLOP/s", "GiB/s", "1/s", "%", "count", "ratio"):
        assert common.valid_unit(unit)
    for unit in ("", "a b", "x" * 17):
        assert not common.valid_unit(unit)


def test_benchmark_json_matches_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == workloads.PER_LAYER
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names)) and all(common.valid_name(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_hooi_exact_on_low_rank_tensor():
    rng = np.random.default_rng(0)
    core = rng.standard_normal((3, 4, 2))
    factors = [np.linalg.qr(rng.standard_normal((d, r)))[0]
               for d, r in zip((20, 15, 30), core.shape)]
    x = np.einsum("abc,ia,jb,kc->ijk", core, *factors)
    _, got, err = reference.hooi(x, core.shape)
    assert err < 1e-6
    assert common.orthonormal(got)
    for a, b in zip(got, factors):  # same column spaces
        assert np.allclose(a @ a.T, b @ b.T, atol=1e-8)


def test_relative_error_matches_dense():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 7, 6))
    core, factors, err = reference.hooi(x, (3, 3, 2))
    approx = np.einsum("abc,ia,jb,kc->ijk", core, *factors)
    assert err == pytest.approx(np.linalg.norm(x - approx) / np.linalg.norm(x), rel=1e-9)


def test_tracer_self_time_and_chrome_export(tmp_path):
    tracer = Tracer()
    tracer.op = 0
    with tracer.span("op.x"):
        with tracer.span("layer.a"):
            pass
        with tracer.span("layer.b"):
            pass
    outer = tracer.spans[0]
    kids = tracer.spans[1].seconds + tracer.spans[2].seconds
    assert tracer.self_seconds(0) == pytest.approx(outer.seconds - kids)
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    events = json.loads(tracer.write_chrome(tmp_path / "t.json").read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["op.x", "layer.a", "layer.b"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"]["parent"] == "op.x"
