"""Tests for the fused ProtectionEngine and its per-GEMM reference backend.

The central property: the fused section-level checksum-passing engine and the
original per-GEMM hook implementation must make **identical** detection and
correction decisions (and produce byte-identical protected outputs) under a
fault-injection campaign covering every target matrix and error type.
"""

import numpy as np
import pytest

from repro.core import (
    CHECKER_BACKENDS,
    ATTNChecker,
    ATTNCheckerConfig,
    ProtectionEngine,
    SectionCostModel,
)
from repro.faults import FaultInjector, FaultSpec
from repro.models import get_config
from repro.nn import (
    SECTION_BOUNDARY_OPS,
    AttentionHooks,
    ComposedHooks,
    MultiHeadAttention,
    SectionContext,
)
from repro.nn.attention import AttentionOp
from repro.tensor.autograd import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(41)


def make_attention(seed=41, hidden=16, heads=4, bias=True):
    attn = MultiHeadAttention(
        hidden_size=hidden, num_heads=heads, dropout_p=0.0,
        rng=np.random.default_rng(seed), bias=bias,
    )
    attn.eval()
    return attn


def run_attention(attention, x, hooks):
    attention.set_hooks(hooks)
    try:
        return attention(Tensor(x)).data.copy()
    finally:
        attention.set_hooks(None)


def run_with_backend(backend, matrix, error_type, x, seed=7, bias=True, config_kwargs=None):
    """One single-fault protected forward pass; returns (output, decisions)."""
    attention = make_attention(bias=bias)
    injector = FaultInjector(
        [FaultSpec(matrix=matrix, error_type=error_type, layer_index=0)],
        rng=np.random.default_rng(seed),
    )
    checker = ATTNChecker(ATTNCheckerConfig(backend=backend, **(config_kwargs or {})))
    output = run_attention(attention, x, ComposedHooks([injector, checker]))
    checker.end_step()
    decisions = {
        name: (
            stats.checks_run,
            stats.detections,
            stats.corrections,
            stats.aborted_vectors,
            stats.residual_extreme,
            stats.operand_repairs,
        )
        for name, stats in checker.stats.sections.items()
    }
    return output, decisions


class TestBackendConfig:
    def test_default_backend_is_fused(self):
        checker = ATTNChecker()
        assert checker.backend == "fused"
        assert checker.engine is not None

    def test_per_gemm_backend_selectable(self):
        checker = ATTNChecker(ATTNCheckerConfig(backend="per_gemm"))
        assert checker.backend == "per_gemm"
        assert checker.engine is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ATTNCheckerConfig(backend="cuda")

    def test_deferred_requires_fused(self):
        with pytest.raises(ValueError, match="fused"):
            ATTNCheckerConfig(backend="per_gemm", verification_mode="deferred")

    def test_dispatch_accounting(self):
        model = SectionCostModel(get_config("bert-base", size="paper"), batch_size=8)
        assert model.python_dispatches_per_layer("fused") == 3
        assert model.python_dispatches_per_layer("per_gemm") == 6
        with pytest.raises(KeyError):
            model.python_dispatches_per_layer("other")


class TestFusedTransparency:
    def test_clean_forward_bitwise_unchanged(self, rng):
        attention = make_attention()
        x = rng.normal(size=(2, 6, 16))
        reference = run_attention(attention, x, None)
        checker = ATTNChecker()  # fused
        protected = run_attention(attention, x, checker)
        assert np.array_equal(protected, reference)
        assert checker.stats.total_detections == 0

    def test_section_hook_fires_at_boundaries_only(self, rng):
        seen = []

        class Recorder(AttentionHooks):
            def on_section_output(self, ctx, out):
                seen.append((ctx.section, ctx.layer_index))
                return out

        attention = make_attention()
        run_attention(attention, rng.normal(size=(1, 4, 16)), Recorder())
        assert seen == [("AS", 0), ("CL", 0), ("O", 0)]

    def test_fused_checker_skips_per_gemm_dispatch(self, rng):
        # The 3-instead-of-6 dispatch claim: a fused checker declares it does
        # not consume per-GEMM outputs, so MultiHeadAttention never dispatches
        # the non-boundary GEMM hooks for it.
        calls = {"gemm": 0, "section": 0}

        class CountingFused(ATTNChecker):
            def on_gemm_output(self, ctx, out):
                calls["gemm"] += 1
                return super().on_gemm_output(ctx, out)

            def on_section_output(self, ctx, out):
                calls["section"] += 1
                return super().on_section_output(ctx, out)

        attention = make_attention()
        run_attention(attention, rng.normal(size=(1, 4, 16)), CountingFused())
        assert calls == {"gemm": 0, "section": 3}

    def test_per_gemm_checker_still_gets_all_six_dispatches(self, rng):
        calls = {"gemm": 0}

        class CountingRef(ATTNChecker):
            def on_gemm_output(self, ctx, out):
                calls["gemm"] += 1
                return super().on_gemm_output(ctx, out)

        attention = make_attention()
        run_attention(
            attention, rng.normal(size=(1, 4, 16)),
            CountingRef(ATTNCheckerConfig(backend="per_gemm")),
        )
        assert calls["gemm"] == 6

    def test_composed_injector_restores_gemm_dispatch(self, rng):
        # An injector composed with a fused checker consumes per-GEMM outputs,
        # so the dispatches come back for the composition (and injection into
        # a non-boundary matrix still works — covered by the campaign tests).
        attention = make_attention()
        injector = FaultInjector(
            [FaultSpec(matrix="Q", error_type="inf", layer_index=0)],
            rng=np.random.default_rng(7),
        )
        checker = ATTNChecker()
        hooks = ComposedHooks([injector, checker])
        assert injector.consumes_gemm_outputs()
        assert not checker.consumes_gemm_outputs()
        assert hooks.consumes_gemm_outputs()
        run_attention(attention, rng.normal(size=(2, 6, 16)), hooks)
        assert injector.num_injections == 1
        assert checker.stats.total_corrections >= 1

    def test_boundary_op_mapping_consistent_with_sections(self):
        from repro.core import PROTECTION_SECTIONS

        for op, section in SECTION_BOUNDARY_OPS.items():
            assert PROTECTION_SECTIONS[section].boundary_op == op.value
        assert set(SECTION_BOUNDARY_OPS) == {AttentionOp.QK, AttentionOp.APV, AttentionOp.CLO}


@pytest.mark.parametrize("matrix", ["Q", "K", "V", "AS", "CL", "O"])
@pytest.mark.parametrize("error_type", ["inf", "nan", "near_inf", "numeric"])
class TestBackendEquivalenceCampaign:
    """Property: fused and per-GEMM backends are byte-identical per scenario."""

    def test_identical_decisions_and_outputs(self, rng, matrix, error_type):
        x = rng.normal(size=(2, 6, 16))
        fused_out, fused_decisions = run_with_backend("fused", matrix, error_type, x)
        ref_out, ref_decisions = run_with_backend("per_gemm", matrix, error_type, x)
        assert fused_decisions == ref_decisions
        assert np.array_equal(fused_out, ref_out, equal_nan=True)


class TestBackendEquivalenceVariants:
    def test_identical_without_bias(self, rng):
        x = rng.normal(size=(2, 5, 16))
        fused_out, fused_dec = run_with_backend("fused", "AS", "inf", x, bias=False)
        ref_out, ref_dec = run_with_backend("per_gemm", "AS", "inf", x, bias=False)
        assert fused_dec == ref_dec
        assert np.array_equal(fused_out, ref_out, equal_nan=True)

    def test_identical_under_frequency_gating(self, rng):
        # Half frequency: the gating accumulators must advance identically, so
        # both backends check and skip the same passes.
        x = rng.normal(size=(1, 4, 16))
        results = {}
        for backend in CHECKER_BACKENDS:
            attention = make_attention()
            checker = ATTNChecker(ATTNCheckerConfig(
                backend=backend, frequencies={"AS": 0.5, "CL": 0.5, "O": 0.5},
            ))
            for _ in range(4):
                run_attention(attention, x, checker)
            results[backend] = {
                name: (s.checks_run, s.checks_skipped)
                for name, s in checker.stats.sections.items()
            }
        assert results["fused"] == results["per_gemm"]
        assert results["fused"]["AS"] == (2, 2)

    def test_fused_multi_fault_campaign_matches_reference(self, rng):
        # Several random faults across steps: accumulate statistics under both
        # backends and compare in aggregate.
        specs = [
            FaultSpec(matrix=m, error_type=e, layer_index=0)
            for m, e in [("Q", "inf"), ("V", "nan"), ("AS", "near_inf"), ("O", "numeric")]
        ]
        totals = {}
        for backend in CHECKER_BACKENDS:
            attention = make_attention()
            checker = ATTNChecker(ATTNCheckerConfig(backend=backend))
            for trial, spec in enumerate(specs):
                injector = FaultInjector([spec], rng=np.random.default_rng(100 + trial))
                x = np.random.default_rng(200 + trial).normal(size=(2, 6, 16))
                run_attention(attention, x, ComposedHooks([injector, checker]))
            totals[backend] = {
                name: (s.detections, s.corrections, s.aborted_vectors, s.residual_extreme)
                for name, s in checker.stats.sections.items()
            }
        assert totals["fused"] == totals["per_gemm"]
        assert sum(d for d, *_ in totals["fused"].values()) >= len(specs)


class TestDeferredVerification:
    def test_deferred_queues_then_flushes_in_one_batch(self, rng):
        attention = make_attention()
        checker = ATTNChecker(ATTNCheckerConfig(verification_mode="deferred"))
        injector = FaultInjector(
            [FaultSpec(matrix="AS", error_type="inf", layer_index=0)],
            rng=np.random.default_rng(7),
        )
        run_attention(attention, rng.normal(size=(2, 6, 16)), ComposedHooks([injector, checker]))
        # Nothing verified yet: the three sections are queued.
        assert checker.stats.total_checks == 0
        assert checker.engine.pending_verifications == 3
        outcomes = checker.end_step()
        assert checker.engine.pending_verifications == 0
        assert len(outcomes) == 3
        assert checker.stats.total_detections >= 1
        assert checker.stats.total_checks == 3

    def test_deferred_clean_pass_reports_clean(self, rng):
        attention = make_attention()
        checker = ATTNChecker(ATTNCheckerConfig(verification_mode="deferred"))
        run_attention(attention, rng.normal(size=(2, 6, 16)), checker)
        outcomes = checker.end_step()
        assert len(outcomes) == 3
        assert checker.stats.total_detections == 0

    def test_deferred_batches_multiple_layers(self, rng):
        # Two forward passes before the flush: same-shaped boundary matrices
        # stack into one batched verification per section.
        attention = make_attention()
        checker = ATTNChecker(ATTNCheckerConfig(verification_mode="deferred"))
        x = rng.normal(size=(2, 6, 16))
        run_attention(attention, x, checker)
        run_attention(attention, x, checker)
        assert checker.engine.pending_verifications == 6
        outcomes = checker.end_step()
        assert len(outcomes) == 6
        assert checker.stats.total_checks == 6

    def test_end_step_noop_in_immediate_mode(self, rng):
        checker = ATTNChecker()
        assert checker.end_step() == []


class TestEngineStandalone:
    def test_unknown_section_raises(self):
        engine = ProtectionEngine()
        engine.begin_layer(0, {"AS": True, "CL": True, "O": True})
        ctx = SectionContext(
            section="XX", operands={}, layer_index=0, step=1,
            num_heads=2, head_dim=4, seq_len=4,
        )
        with pytest.raises(KeyError):
            engine.protect_section(ctx, np.zeros((1, 4, 4)))

    def test_no_layer_state_is_safe(self):
        engine = ProtectionEngine()
        ctx = SectionContext(
            section="AS", operands={}, layer_index=3, step=1,
            num_heads=2, head_dim=4, seq_len=4,
        )
        assert engine.protect_section(ctx, np.zeros((1, 4, 4))) is None

    def test_reset_clears_queue(self, rng):
        attention = make_attention()
        checker = ATTNChecker(ATTNCheckerConfig(verification_mode="deferred"))
        run_attention(attention, rng.normal(size=(1, 4, 16)), checker)
        assert checker.engine.pending_verifications == 3
        checker.reset_stats()
        assert checker.engine.pending_verifications == 0
