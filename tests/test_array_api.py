"""Tests for the pluggable array-namespace layer (``repro.engine.array_api``).

Strategy: torch/CuPy are optional extras that are typically absent in CI,
so the generic :class:`ArrayModule` code paths are exercised here through a
*pseudo-device* — a generic (non-subclassed) module wrapped around NumPy
itself, with the native-capability flags forced off.  That runs exactly the
emulation code a torch/strict namespace would run (``permute_dims`` reshape,
generic einsum contraction, ``concat``-based ``out=``), while every result
can be compared elementwise against the literal NumPy expression.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DTuckerConfig
from repro.core.initialization import initialize
from repro.core.iteration import als_sweeps
from repro.core.slice_svd import compress
from repro.engine import SerialBackend
from repro.engine.array_api import (
    DEVICE_NAMES,
    NUMPY,
    ArrayModule,
    array_module_of,
    get_module,
    probe_namespaces,
    resolve_device,
)
from repro.engine.array_api import _MODULES, _TYPE_CACHE
from repro.engine.trace import PhaseTrace
from repro.exceptions import BackendError
from repro.kernels import BufferPool, KernelStats, SweepWorkspace
from repro.linalg.rsvd import batched_svd_via_gram
from repro.linalg.svd import (
    _complete_basis,
    leading_left_singular_vectors,
    sign_fix,
    solve_gram,
)
from repro.kernels.compress_plan import (
    estimate_costs,
    estimate_device_costs,
    execute_plan,
    plan_compression,
    plan_from_config,
)
from repro.tensor.random import random_tensor


@pytest.fixture
def generic():
    """A generic ArrayModule over NumPy with all native shortcuts disabled.

    Runs the exact emulation branches a capability-poor namespace (the
    array-API standard) would take, on arrays we can compare bit-for-bit.
    """
    am = ArrayModule("generic-test", np)
    am.caps["native_einsum"] = False
    am.caps["native_kron"] = False
    return am


class Boxed(np.ndarray):
    """A NumPy array that the dispatcher hands to a non-NumPy module."""


class _BoxingNumpy:
    """NumPy as a foreign namespace: ``asarray`` keeps arrays ``Boxed``."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def asarray(obj, dtype=None):
        return np.asarray(obj, dtype=dtype).view(Boxed)


@pytest.fixture
def boxed(generic, monkeypatch):
    """Route :class:`Boxed` inputs to ``generic`` through ``array_module_of``.

    Library entry points dispatch on their inputs, so a boxed input runs
    every kernel body on the base :class:`ArrayModule` end to end.
    """
    monkeypatch.setattr(generic, "xp", _BoxingNumpy())
    monkeypatch.setitem(_TYPE_CACHE, Boxed, generic)
    return generic


def box(arr: np.ndarray) -> Boxed:
    return np.asarray(arr).view(Boxed)


@pytest.fixture
def registered_generic(generic):
    """Temporarily register the generic module as a resolvable device."""
    _MODULES["generic-test"] = generic
    yield generic
    _MODULES.pop("generic-test", None)


# ---------------------------------------------------------------------------
# resolution & probing
# ---------------------------------------------------------------------------


class TestResolution:
    def test_default_is_numpy(self) -> None:
        am = resolve_device(None)
        assert am is NUMPY
        assert am.is_numpy

    def test_cpu_and_numpy_aliases(self) -> None:
        assert resolve_device("cpu") is NUMPY
        assert resolve_device("numpy") is NUMPY
        assert get_module("numpy") is NUMPY
        assert get_module("cpu") is NUMPY

    def test_module_passthrough(self, generic) -> None:
        assert resolve_device(generic) is generic

    def test_config_device_flows(self) -> None:
        cfg = DTuckerConfig(device="cpu")
        assert resolve_device(None, config=cfg) is NUMPY
        assert resolve_device("auto", config=cfg) is NUMPY

    def test_env_var_flows(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_DEVICE", "cpu")
        assert resolve_device(None) is NUMPY
        monkeypatch.setenv("REPRO_DEVICE", "nonsense")
        with pytest.raises(BackendError):
            resolve_device(None)

    def test_unknown_name_raises(self) -> None:
        with pytest.raises(BackendError, match="unknown device"):
            resolve_device("quantum")

    def test_config_rejects_unknown_device(self) -> None:
        with pytest.raises(BackendError):
            DTuckerConfig(device="quantum")

    def test_device_names_cover_config_choices(self) -> None:
        for name in ("auto", "cpu", "cuda", "numpy", "torch", "cupy"):
            assert name in DEVICE_NAMES

    def test_probe_reports_numpy(self) -> None:
        probed = probe_namespaces(refresh=True)
        assert probed["numpy"] is True
        assert set(probed) == {"numpy", "torch", "cupy", "array_api_strict"}

    def test_missing_namespace_message_is_actionable(self) -> None:
        probed = probe_namespaces()
        if probed["torch"]:  # pragma: no cover - torch present in some envs
            pytest.skip("torch installed; the missing-extra path is moot")
        with pytest.raises(BackendError, match="torch"):
            resolve_device("torch")

    def test_cuda_without_accelerator_raises(self) -> None:
        probed = probe_namespaces()
        if probed["torch"] or probed["cupy"]:  # pragma: no cover
            pytest.skip("a CUDA-capable namespace is importable here")
        with pytest.raises(BackendError, match="cuda"):
            resolve_device("cuda")

    def test_array_module_of_host_inputs(self) -> None:
        assert array_module_of(np.ones(3)) is NUMPY
        assert array_module_of([1, 2], 3.0, None) is NUMPY
        assert array_module_of() is NUMPY


# ---------------------------------------------------------------------------
# generic facade vs literal NumPy
# ---------------------------------------------------------------------------


EINSUM_CASES = [
    # The contraction patterns the kernels actually dispatch.
    ("lij,jk->lik", [(4, 5, 3), (3, 2)]),
    ("ji,ljk->lik", [(5, 2), (4, 5, 3)]),
    ("lij,lj,ljk->lik", [(4, 5, 3), (4, 3), (4, 3, 2)]),
    ("aj,lak->ljk", [(5, 2), (4, 5, 3)]),
    ("ij,ij->", [(6, 7), (6, 7)]),
    ("lij->l", [(4, 3, 2)]),
]


class TestGenericFacade:
    @pytest.mark.parametrize("subscripts,shapes", EINSUM_CASES)
    def test_generic_einsum_matches_numpy(self, generic, subscripts, shapes) -> None:
        rng = np.random.default_rng(0)
        ops = [rng.standard_normal(s) for s in shapes]
        want = np.einsum(subscripts, *ops)
        got = generic.einsum(subscripts, *ops)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_generic_einsum_out(self, generic) -> None:
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((4, 5, 3)), rng.standard_normal((3, 2))
        out = np.empty((4, 5, 2))
        res = generic.einsum("lij,jk->lik", a, b, out=out)
        assert res is out
        np.testing.assert_allclose(out, np.einsum("lij,jk->lik", a, b))

    @pytest.mark.parametrize(
        "shape,new",
        [((6, 4), (4, 6)), ((3, 4, 5), (12, 5)), ((3, 4, 5), (5, -1)), ((2, 3, 4, 5), (6, 20))],
    )
    def test_forder_reshape(self, generic, shape, new) -> None:
        x = np.arange(int(np.prod(shape)), dtype=float).reshape(shape)
        want = np.reshape(x, new, order="F")
        got = generic.reshape(x, new, order="F")
        np.testing.assert_array_equal(got, want)

    def test_corder_reshape(self, generic) -> None:
        x = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(
            generic.reshape(x, (6, 4)), x.reshape(6, 4)
        )

    def test_axis_moves(self, generic) -> None:
        x = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(generic.moveaxis(x, 0, 2), np.moveaxis(x, 0, 2))
        np.testing.assert_array_equal(generic.swapaxes(x, 0, 1), np.swapaxes(x, 0, 1))
        np.testing.assert_array_equal(generic.mT(x), np.swapaxes(x, -1, -2))

    def test_kron_emulation(self, generic) -> None:
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 5))
        np.testing.assert_allclose(generic.kron(a, b), np.kron(a, b))

    def test_concatenate_out(self, generic) -> None:
        parts = [np.ones((2, 3)), 2.0 * np.ones((3, 3))]
        out = np.empty((5, 3))
        res = generic.concatenate(parts, axis=0, out=out)
        assert res is out
        np.testing.assert_array_equal(out, np.concatenate(parts, axis=0))

    def test_take_flat_and_diagonal(self, generic) -> None:
        x = np.arange(20.0).reshape(4, 5)
        idx = np.array([0, 7, 19])
        np.testing.assert_array_equal(generic.take_flat(x, idx), x.ravel()[idx])
        np.testing.assert_array_equal(generic.diagonal(x), np.diagonal(x))

    def test_transfers_round_trip_and_copy(self, generic) -> None:
        x = np.arange(12.0).reshape(3, 4)
        dev = generic.to_device(x)
        back = generic.from_device(dev)
        np.testing.assert_array_equal(back, x)
        back[0, 0] = -1.0  # independent copy: the "device" array is untouched
        assert dev[0, 0] == 0.0

    def test_to_device_dtype_cast(self, generic) -> None:
        x = np.arange(6.0)
        assert generic.to_device(x, dtype=np.float32).dtype == np.float32

    def test_host_rng_determinism(self, generic) -> None:
        draw_a = generic.standard_normal((3, 4), np.float64, np.random.default_rng(7))
        draw_b = np.random.default_rng(7).standard_normal((3, 4))
        np.testing.assert_array_equal(generic.from_device(draw_a), draw_b)

    def test_float64_accumulators(self, generic) -> None:
        x = np.random.default_rng(3).standard_normal((50, 40)).astype(np.float32)
        assert generic.sum_float64(x) == pytest.approx(float(x.astype(np.float64).sum()))
        assert generic.vdot_float64(x) == pytest.approx(
            float(np.vdot(x.astype(np.float64), x.astype(np.float64)))
        )

    def test_numpy_module_is_literal(self) -> None:
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 4))
        u1, s1, v1 = NUMPY.svd(a, full_matrices=False)
        u2, s2, v2 = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(v1, v2)
        b = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(NUMPY.matmul(a, b), a @ b)
        out = np.empty((6, 3))
        NUMPY.gemm_into(a, b, out)
        np.testing.assert_array_equal(out, a @ b)

    def test_nbytes_and_np_dtype(self, generic) -> None:
        x = np.zeros((3, 5), dtype=np.float32)
        assert generic.nbytes(x) == x.nbytes
        assert generic.np_dtype(x) == np.float32


def _numpy_signs(u: np.ndarray) -> np.ndarray:
    """Reference sign convention: each column's largest |entry| positive."""
    signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return signs


class TestKernelBodiesOnFacade:
    """The one body of each linalg kernel, run on the base facade.

    Each result is compared with the NumPy path and with an independent
    NumPy reference, so a fault in the shared body fails here too.
    """

    def test_boxed_inputs_dispatch_to_generic(self, boxed) -> None:
        assert array_module_of(box(np.ones(3))) is boxed

    def test_gram_svd_with_rank_deficient_slice(self, boxed, monkeypatch) -> None:
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((5, 30, 12))
        stack[2] = np.outer(rng.standard_normal(30), rng.standard_normal(12))
        direct = []
        svd = boxed.svd
        monkeypatch.setattr(
            boxed, "svd", lambda a, full_matrices=False: direct.append(a.shape)
            or svd(a, full_matrices=full_matrices)
        )
        u, s, vt = batched_svd_via_gram(box(stack), 3)
        assert type(u) is Boxed
        assert direct == [(30, 12)]  # only the rank-1 slice took the fallback
        u0, s0, vt0 = batched_svd_via_gram(stack, 3)
        np.testing.assert_allclose(s, s0, rtol=1e-12, atol=1e-12)
        good = [0, 1, 3, 4]
        np.testing.assert_allclose(u[good], u0[good], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(vt[good], vt0[good], rtol=1e-9, atol=1e-12)
        ur, sr, vtr = np.linalg.svd(stack, full_matrices=False)
        np.testing.assert_allclose(s, sr[:, :3], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            np.einsum("lik,lk,lkj->lij", u, s, vt),
            np.einsum("lik,lk,lkj->lij", ur[:, :, :3], sr[:, :3], vtr[:, :3]),
            atol=1e-9,
        )
        for ul in u:
            np.testing.assert_array_equal(_numpy_signs(np.asarray(ul)), 1.0)

    def test_sign_fix(self, boxed) -> None:
        rng = np.random.default_rng(9)
        u = rng.standard_normal((7, 4))
        u[:, 2] = 0.0  # an all-zero column keeps its sign
        vt = rng.standard_normal((4, 5))
        got_u, got_vt = sign_fix(box(u), box(vt))
        want_u, want_vt = sign_fix(u, vt)
        np.testing.assert_allclose(got_u, want_u, rtol=1e-15, atol=0)
        np.testing.assert_allclose(got_vt, want_vt, rtol=1e-15, atol=0)
        signs = _numpy_signs(u)
        np.testing.assert_array_equal(got_u, u * signs)
        np.testing.assert_array_equal(got_vt, vt * signs[:, None])

    @pytest.mark.parametrize(
        "shape,rank",
        [((6, 40), 4), ((12, 9), 5), ((10, 3), 6)],
        ids=["wide-gram", "thin-svd", "complete-basis"],
    )
    def test_leading_left_singular_vectors(self, boxed, shape, rank) -> None:
        a = np.random.default_rng(10).standard_normal(shape)
        got = np.asarray(leading_left_singular_vectors(box(a), rank))
        want = leading_left_singular_vectors(a, rank)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got.T @ got, np.eye(rank), atol=1e-12)
        # The leading directions span the top left singular subspace.
        lead = min(rank, shape[1])
        ur = np.linalg.svd(a, full_matrices=False)[0][:, :lead]
        np.testing.assert_allclose(
            got[:, :lead] @ got[:, :lead].T, ur @ ur.T, atol=1e-9
        )
        np.testing.assert_array_equal(_numpy_signs(got), 1.0)

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_solve_gram(self, boxed, ridge) -> None:
        rng = np.random.default_rng(11)
        m = rng.standard_normal((20, 6))
        rhs = rng.standard_normal((6, 3))
        got = solve_gram(box(m.T @ m), rhs, ridge=ridge)
        np.testing.assert_allclose(
            got, solve_gram(m.T @ m, rhs, ridge=ridge), rtol=1e-12, atol=1e-12
        )
        reference = np.linalg.solve(m.T @ m + ridge * np.eye(6), rhs)
        np.testing.assert_allclose(got, reference, rtol=1e-9, atol=1e-12)

    def test_solve_gram_singular_takes_pinv(self, boxed) -> None:
        g, rhs = np.ones((4, 4)), np.ones((4, 2))
        got = solve_gram(box(g), rhs)
        np.testing.assert_allclose(got, np.linalg.pinv(g) @ rhs, atol=1e-12)

    def test_float32_complete_basis_keeps_float64_projector(self) -> None:
        """Bitwise pin: ``u @ uᵀ`` in float32, the projector in float64."""
        rng = np.random.default_rng(12)
        u = np.linalg.qr(rng.standard_normal((9, 3)))[0].astype(np.float32)
        projector = np.eye(9) - u @ u.T
        _, vecs = np.linalg.eigh((projector + projector.T) / 2.0)
        extra = vecs[:, ::-1][:, :4]
        extra, _ = np.linalg.qr(extra - u @ (u.T @ extra))
        got = _complete_basis(u, 7)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.hstack([u, extra]))


# ---------------------------------------------------------------------------
# transfer accounting
# ---------------------------------------------------------------------------


class TestXferAccounting:
    def test_kernel_stats_record_transfer(self) -> None:
        stats = KernelStats()
        stats.record_transfer("h2d", 1024)
        stats.record_transfer("h2d", 1024)
        stats.record_transfer("d2h", 512)
        assert stats.bytes_h2d == 2048
        assert stats.bytes_d2h == 512
        assert stats.counts["xfer:h2d"][1] == 2
        assert stats.counts["xfer:d2h"][1] == 1
        assert "xfer=" in stats.summary()

    def test_kernel_stats_delta_and_copy(self) -> None:
        stats = KernelStats()
        stats.record_transfer("h2d", 100)
        before = stats.copy()
        stats.record_transfer("h2d", 50)
        stats.record_transfer("d2h", 25)
        d = stats.delta(before)
        assert d.bytes_h2d == 50
        assert d.bytes_d2h == 25

    def test_phase_trace_xfer_summary(self) -> None:
        tr = PhaseTrace(phase="iteration", backend="serial", n_workers=1)
        tr.annotate_xfer(h2d_bytes=3 * 2**20, d2h_bytes=2**20, device="generic-test")
        line = tr.summary()
        assert "device=generic-test" in line
        assert "xfer=3.0MiB>/1.0MiB<" in line

    def test_phase_trace_cpu_has_no_xfer_segment(self) -> None:
        tr = PhaseTrace(phase="iteration", backend="serial", n_workers=1)
        assert "xfer=" not in tr.summary()


# ---------------------------------------------------------------------------
# device-aware planning
# ---------------------------------------------------------------------------


class TestDevicePlanning:
    def test_cpu_plan_is_unchanged(self) -> None:
        plan = plan_compression(64, 48, 8)
        assert plan.device == "cpu"
        assert plan.device_costs == {}
        assert plan.as_dict()["device"] == "cpu"

    def test_estimate_device_costs_ranking(self) -> None:
        # Compute-dominated: a big exact SVD amortises the transfer.
        big = estimate_device_costs(
            2048, 2048, 32, method_cost=estimate_costs(2048, 2048, 32)["exact"]
        )
        assert big["cuda"] < big["cpu"]
        # Transfer-dominated: a tiny gram factorization is not worth the trip.
        small = estimate_device_costs(
            16, 16, 4, method_cost=estimate_costs(16, 16, 4)["gram"]
        )
        assert small["cpu"] < small["cuda"]

    def test_device_costs_scale_with_slices(self) -> None:
        one = estimate_device_costs(128, 96, 8, method_cost=1e6, n_slices=1)
        ten = estimate_device_costs(128, 96, 8, method_cost=1e6, n_slices=10)
        assert ten["cpu"] == pytest.approx(10 * one["cpu"])
        assert ten["cuda"] == pytest.approx(10 * one["cuda"])

    def test_auto_strategy_places_by_cost(self) -> None:
        heavy = plan_compression(
            2048, 2048, 32, strategy="auto", exact_slice_svd=True, device="cuda"
        )
        assert heavy.device == "cuda"
        assert set(heavy.device_costs) == {"cpu", "cuda"}
        light = plan_compression(16, 16, 4, strategy="auto", device="cuda")
        assert light.device == "cpu"
        assert light.device_costs  # the offer was considered, not ignored

    def test_explicit_strategy_honours_offered_device(self) -> None:
        plan = plan_compression(16, 16, 4, strategy="gram", device="cuda")
        assert plan.device == "cuda"

    def test_auto_device_spec_normalises_to_cpu(self) -> None:
        for spec in ("auto", "numpy", ""):
            assert plan_compression(32, 32, 4, device=spec).device == "cpu"

    def test_plan_from_config_default_is_cpu(self) -> None:
        plan = plan_from_config(32, 24, 4, DTuckerConfig())
        assert plan.device == "cpu"

    def test_execute_plan_on_pseudo_device(self, registered_generic) -> None:
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((3, 20, 16))
        for strategy in ("exact", "gram", "rsvd"):
            cpu_plan = plan_compression(20, 16, 4, strategy=strategy)
            dev_plan = plan_compression(
                20, 16, 4, strategy=strategy, device="generic-test"
            )
            assert dev_plan.device == "generic-test"
            with SerialBackend() as eng:
                u0, s0, v0, n0 = execute_plan(eng, stack, 4, cpu_plan, rng=11)
                stats = KernelStats()
                u1, s1, v1, n1 = execute_plan(
                    eng, stack, 4, dev_plan, rng=11, stats=stats
                )
            np.testing.assert_array_equal(n1, n0)  # norms accumulate on host
            np.testing.assert_allclose(s1, s0, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(
                np.einsum("lik,lk,lkj->lij", u1, s1, v1),
                np.einsum("lik,lk,lkj->lij", u0, s0, v0),
                rtol=1e-7,
                atol=1e-9,
            )
            assert stats.bytes_h2d >= stack.nbytes
            assert stats.bytes_d2h > 0
            assert all(type(arr) is np.ndarray for arr in (u1, s1, v1))


# ---------------------------------------------------------------------------
# device-resident sweeps
# ---------------------------------------------------------------------------


def _problem(shape=(12, 11, 8), ranks=(3, 3, 2)):
    x = random_tensor(shape, ranks, rng=1, noise=0.02)
    ssvd = compress(x, max(ranks[:2]) + 2, rng=0)
    _, factors = initialize(ssvd, ranks)
    return ssvd, ranks, factors


class TestDeviceSweeps:
    def test_workspace_uploads_are_tallied(self, generic) -> None:
        ssvd, ranks, factors = _problem()
        ws = SweepWorkspace(ssvd, module=generic)
        assert ws.engine is None  # device slabs run inline
        expected = ssvd.u.nbytes + ssvd.s.nbytes + ssvd.vt.nbytes
        assert ws.stats.bytes_h2d == expected
        ws.bind_factors(factors)
        assert ws.stats.bytes_h2d == expected + sum(f.nbytes for f in factors)

    def test_device_sweeps_match_numpy(self, registered_generic) -> None:
        ssvd, ranks, factors = _problem()
        cpu = als_sweeps(ssvd, ranks, factors, config=DTuckerConfig(max_iters=4))
        ws = SweepWorkspace(ssvd, module=registered_generic)
        dev = als_sweeps(
            ssvd, ranks, factors, config=DTuckerConfig(max_iters=4), workspace=ws
        )
        # Same math through the generic branches: equal to round-off.
        np.testing.assert_allclose(dev.core, cpu.core, rtol=1e-9, atol=1e-11)
        for a, b in zip(dev.factors, cpu.factors):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(dev.errors, cpu.errors, rtol=1e-9)
        # Results land on the host, with the downloads tallied.
        assert type(dev.core) is np.ndarray
        assert all(type(f) is np.ndarray for f in dev.factors)
        assert dev.kernel_stats.bytes_d2h > 0

    def test_env_device_reaches_als_sweeps(self, registered_generic, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_DEVICE", "generic-test")
        ssvd, ranks, factors = _problem()
        res = als_sweeps(ssvd, ranks, factors, config=DTuckerConfig(max_iters=2))
        assert res.kernel_stats.bytes_h2d > 0
        assert res.kernel_stats.bytes_d2h > 0
        assert type(res.core) is np.ndarray


# ---------------------------------------------------------------------------
# float32 compute-dtype discipline (regression: silent float64 upcasts)
# ---------------------------------------------------------------------------


class TestComputeDtype:
    def test_float64_default_is_identity(self) -> None:
        ssvd, ranks, factors = _problem()
        ws = SweepWorkspace(ssvd)
        # No cast, no copy: the views alias the stored representation.
        assert ws._u is ssvd.u or ws._u.base is ssvd.u
        assert ws.compute_dtype == np.float64

    def test_every_cached_projection_is_float32(self) -> None:
        ssvd, ranks, factors = _problem()
        ws = SweepWorkspace(ssvd, compute_dtype=np.float32)
        ws.bind_factors(factors)
        assert ws.factor(0).dtype == np.float32
        assert ws.factor(1).dtype == np.float32
        assert ws.au().dtype == np.float32
        assert ws.av().dtype == np.float32
        assert ws.w().dtype == np.float32
        assert ws.mode1_partial().dtype == np.float32
        assert ws.mode2_partial().dtype == np.float32
        assert ws.project_w_trailing(skip=None).dtype == np.float32
        assert ws.project_w_trailing(skip=2).dtype == np.float32
        z1 = ws.project_trailing(ws.mode1_partial(), skip=None, tag="z1")
        assert z1.dtype == np.float32

    def test_float32_factor_updates_stay_float32(self) -> None:
        ssvd, ranks, factors = _problem()
        ws = SweepWorkspace(ssvd, compute_dtype=np.float32)
        ws.bind_factors(factors)
        # A float64 factor update (e.g. from an SVD on a float64 unfolding)
        # must not leak float64 into the cached projections.
        ws.update_factor(0, np.asarray(factors[0], dtype=np.float64))
        assert ws.factor(0).dtype == np.float32
        assert ws.au().dtype == np.float32
        assert ws.w().dtype == np.float32

    def test_pool_allocates_compute_dtype(self) -> None:
        pool = BufferPool()
        buf64 = pool.take("t", (4, 5), np.float64)
        buf32 = pool.take("t", (4, 5), np.float32)
        assert buf64.dtype == np.float64
        assert buf32.dtype == np.float32
