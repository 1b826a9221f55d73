"""Tests for the protected inference serving path.

Covers the serving workload generator, the batched serving engine, the
equivalence campaign (fault-free protected decode byte-identical to
unprotected; per-GEMM / fused / fused+async agree on detection decisions),
per-request fault isolation (repair and eviction), and the O(1)-per-token
decode checksum dispatch counters against the serving cost-model entry.
"""

import numpy as np
import pytest

from repro.core import (
    VERIFICATION_MODES,
    ATTNChecker,
    ATTNCheckerConfig,
    SectionCostModel,
)
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.nn import ComposedHooks
from repro.serving import (
    RequestGenerator,
    ServingConfig,
    ServingEngine,
    ServingRequest,
)


def make_gpt2(seed: int = 0):
    model = build_model("gpt2", size="tiny", rng=np.random.default_rng(seed))
    model.eval()
    return model


def make_requests(model, num_requests: int = 4, seed: int = 5):
    return RequestGenerator(
        vocab_size=model.config.vocab_size,
        prompt_len_range=(3, 6),
        new_tokens_range=(3, 5),
        seed=seed,
    ).generate(num_requests)


def serve(model, requests, checker=None, injector=None, batch_size: int = 4,
          evict_uncorrected: bool = True):
    engine = ServingEngine(
        model,
        checker=checker,
        injector=injector,
        config=ServingConfig(
            max_batch_size=batch_size, evict_uncorrected=evict_uncorrected
        ),
    )
    return engine.run(requests)


class TestWorkload:
    def test_same_seed_same_stream(self):
        a = RequestGenerator(vocab_size=100, seed=3).generate(6)
        b = RequestGenerator(vocab_size=100, seed=3).generate(6)
        assert a == b

    def test_different_seed_different_stream(self):
        a = RequestGenerator(vocab_size=100, seed=3).generate(6)
        b = RequestGenerator(vocab_size=100, seed=4).generate(6)
        assert a != b

    def test_prompt_tokens_avoid_pad_id(self):
        requests = RequestGenerator(vocab_size=5, prompt_len_range=(8, 8), seed=0).generate(4)
        for request in requests:
            assert min(request.prompt) >= 1
            assert max(request.prompt) < 5

    def test_ranges_respected(self):
        requests = RequestGenerator(
            vocab_size=100, prompt_len_range=(2, 4), new_tokens_range=(1, 3), seed=1
        ).generate(20)
        assert all(2 <= r.prompt_len <= 4 for r in requests)
        assert all(1 <= r.max_new_tokens <= 3 for r in requests)

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            RequestGenerator(vocab_size=1)
        with pytest.raises(ValueError):
            RequestGenerator(vocab_size=100, prompt_len_range=(0, 3))
        with pytest.raises(ValueError):
            ServingRequest(request_id=0, prompt=(), max_new_tokens=2)
        with pytest.raises(ValueError):
            ServingRequest(request_id=0, prompt=(1,), max_new_tokens=0)


class TestDecodeEquivalence:
    """KV-cached decode must reproduce the full forward pass."""

    @pytest.mark.parametrize("name", ["gpt2", "gpt-neo"])
    def test_prefill_plus_decode_matches_full_forward(self, name):
        model = build_model(name, size="tiny", rng=np.random.default_rng(0))
        model.eval()
        config = model.config
        rng = np.random.default_rng(2)
        total_len = 8
        ids = rng.integers(1, config.vocab_size, size=(2, total_len), dtype=np.int64)
        mask = np.ones((2, total_len), dtype=np.float64)

        caches = model.new_kv_caches(2, max_len=total_len)
        hidden = model.prefill(ids[:, :4], mask[:, :4], caches)
        steps = [np.asarray(hidden.data[:, -1, :])]
        for t in range(4, total_len):
            hidden = model.decode_step(ids[:, t : t + 1], caches, attention_mask=mask)
            steps.append(np.asarray(hidden.data[:, 0, :]))

        full = np.asarray(model.encode(ids, mask).data)
        for offset, step_hidden in enumerate(steps):
            np.testing.assert_allclose(
                step_hidden, full[:, 3 + offset, :], rtol=0.0, atol=1e-12
            )

    def test_decode_respects_left_padding(self):
        # A left-padded prefill and an unpadded prefill of the same suffix
        # must decode different tokens only through position embeddings —
        # the padded positions themselves must not leak into attention.
        model = make_gpt2()
        config = model.config
        rng = np.random.default_rng(3)
        prompt = rng.integers(1, config.vocab_size, size=(1, 3), dtype=np.int64)
        padded_ids = np.concatenate([np.zeros((1, 2), dtype=np.int64), prompt], axis=1)
        mask = np.ones((1, 8), dtype=np.float64)
        mask[0, :2] = 0.0
        caches = model.new_kv_caches(1, max_len=8)
        hidden = model.prefill(padded_ids, mask[:, :5], caches)
        assert np.isfinite(np.asarray(hidden.data)).all()
        hidden = model.decode_step(
            np.asarray([[7]], dtype=np.int64), caches, attention_mask=mask
        )
        assert np.isfinite(np.asarray(hidden.data)).all()


class TestFaultFreeServing:
    """Fault-free protection must not perturb the served token stream."""

    @pytest.mark.parametrize("backend", ["fused", "per_gemm"])
    def test_protected_tokens_byte_identical(self, backend):
        requests_model = make_gpt2()
        baseline = serve(requests_model, make_requests(requests_model))

        model = make_gpt2()
        checker = ATTNChecker(ATTNCheckerConfig(backend=backend))
        model.set_attention_hooks(checker)
        protected = serve(model, make_requests(model), checker=checker)
        checker.close()

        assert [r.tokens for r in protected.results] == [
            r.tokens for r in baseline.results
        ]
        assert protected.num_evicted == 0
        assert protected.checker_stats["detections"] == 0
        assert protected.checker_stats["checks"] > 0

    @pytest.mark.parametrize("mode", sorted(VERIFICATION_MODES))
    def test_verification_modes_serve_identically(self, mode):
        requests_model = make_gpt2()
        baseline = serve(requests_model, make_requests(requests_model))

        model = make_gpt2()
        checker = ATTNChecker(
            ATTNCheckerConfig(backend="fused", verification_mode=mode)
        )
        model.set_attention_hooks(checker)
        protected = serve(model, make_requests(model), checker=checker)
        checker.close()

        assert [r.tokens for r in protected.results] == [
            r.tokens for r in baseline.results
        ]
        assert protected.checker_stats["detections"] == 0

    def test_serving_timer_keys_present(self):
        model = make_gpt2()
        checker = ATTNChecker(ATTNCheckerConfig(backend="fused"))
        model.set_attention_hooks(checker)
        engine = ServingEngine(model, checker=checker)
        engine.run(make_requests(model))
        checker.close()
        keys = set(engine.timers.as_dict())
        assert {"serve/schedule", "serve/prefill", "serve/decode", "serve/verify"} <= keys


class TestFaultIsolation:
    """A corrupted request is repaired or evicted without touching batch-mates."""

    FAULT = dict(matrix="AS", layer_index=0, position=(1, 0, 0, 0))
    #: Four INFs forming a 2x2 block in request 1's first-head scores: every
    #: touched row and column holds two extreme errors, so both checksum
    #: passes abort (case 4) — a genuinely uncorrectable corruption.
    ABORT_BLOCK = [(1, 0, 1, 1), (1, 0, 1, 2), (1, 0, 2, 1), (1, 0, 2, 2)]

    def _specs(self, error_type):
        if error_type == "abort":
            return [
                FaultSpec(matrix="AS", error_type="inf", layer_index=0, position=p)
                for p in self.ABORT_BLOCK
            ]
        if error_type == "abort_numeric":
            # Same uncorrectable block but with finite deltas: the checksums
            # abort, yet nothing propagates to non-finite logits.
            return [
                FaultSpec(
                    matrix="AS", error_type="numeric", numeric_delta=100.0,
                    layer_index=0, position=p,
                )
                for p in self.ABORT_BLOCK
            ]
        return [FaultSpec(error_type=error_type, **self.FAULT)]

    def _serve_with_fault(self, error_type, backend="fused", mode="immediate",
                          evict_uncorrected=True):
        model = make_gpt2()
        checker = ATTNChecker(
            ATTNCheckerConfig(backend=backend, verification_mode=mode)
        )
        injector = FaultInjector(
            self._specs(error_type), rng=np.random.default_rng(0), enabled=False
        )
        model.set_attention_hooks(ComposedHooks([injector, checker]))
        injector.arm()
        report = serve(
            model,
            make_requests(model, num_requests=3),
            checker=checker,
            injector=injector,
            batch_size=3,
            evict_uncorrected=evict_uncorrected,
        )
        checker.close()
        return report

    @pytest.fixture(scope="class")
    def clean_tokens(self):
        model = make_gpt2()
        report = serve(model, make_requests(model, num_requests=3), batch_size=3)
        return [r.tokens for r in report.results]

    @pytest.mark.parametrize("backend", ["fused", "per_gemm"])
    def test_corrected_fault_is_repaired_in_place(self, backend, clean_tokens):
        report = self._serve_with_fault("near_inf", backend=backend)
        assert report.checker_stats["detections"] >= 1
        assert report.checker_stats["corrections"] >= 1
        assert report.num_evicted == 0
        # The repair is attributed to the corrupted request only.
        repaired = [r.repaired_detections for r in report.results]
        assert repaired[1] >= 1
        assert repaired[0] == 0 and repaired[2] == 0
        # Fully repaired: every request's tokens match the clean run.
        assert [r.tokens for r in report.results] == clean_tokens

    @pytest.mark.parametrize("backend", ["fused", "per_gemm"])
    def test_uncorrectable_fault_evicts_only_dirty_request(self, backend, clean_tokens):
        report = self._serve_with_fault("abort", backend=backend)
        assert report.checker_stats["detections"] >= 1
        statuses = [r.status for r in report.results]
        assert statuses[1] == "evicted"
        assert statuses[0] == "completed" and statuses[2] == "completed"
        # Batch-mates are unaffected by the eviction.
        tokens = [r.tokens for r in report.results]
        assert tokens[0] == clean_tokens[0]
        assert tokens[2] == clean_tokens[2]

    def test_detection_only_mode_counts_without_evicting(self):
        report = self._serve_with_fault("abort_numeric", evict_uncorrected=False)
        assert report.checker_stats["detections"] >= 1
        assert report.num_evicted == 0

    def test_unprotected_nonfinite_logits_evict(self, clean_tokens):
        # Without a checker the engine's last line of defence is the logits
        # finiteness check: the poisoned request is evicted, mates keep going.
        model = make_gpt2()
        spec = FaultSpec(error_type="inf", **self.FAULT)
        injector = FaultInjector([spec], rng=np.random.default_rng(0), enabled=False)
        model.set_attention_hooks(injector)
        injector.arm()
        report = serve(
            model, make_requests(model, num_requests=3), injector=injector, batch_size=3
        )
        model.set_attention_hooks(None)
        statuses = [r.status for r in report.results]
        assert statuses[1] == "evicted"
        assert statuses[0] == "completed" and statuses[2] == "completed"
        tokens = [r.tokens for r in report.results]
        assert tokens[0] == clean_tokens[0]
        assert tokens[2] == clean_tokens[2]

    def test_per_gemm_agrees_with_fused_on_detection_decisions(self, clean_tokens):
        reference = self._serve_with_fault("near_inf", backend="fused")
        other = self._serve_with_fault("near_inf", backend="per_gemm")
        assert [r.status for r in other.results] == [
            r.status for r in reference.results
        ]
        assert [r.tokens for r in other.results] == [
            r.tokens for r in reference.results
        ]
        assert [r.repaired_detections > 0 for r in other.results] == [
            r.repaired_detections > 0 for r in reference.results
        ]
        assert (
            other.checker_stats["detections"] == reference.checker_stats["detections"]
        )
        assert (
            other.checker_stats["corrections"] == reference.checker_stats["corrections"]
        )

    def test_async_mode_detects_same_fault_but_evicts(self, clean_tokens):
        # Async verification detects the same corruption and attributes it to
        # the same request, but it runs after the boundary's values were
        # consumed — repair comes too late, so the dirty request is evicted
        # rather than repaired in place.  Batch-mates are still untouched.
        immediate = self._serve_with_fault("near_inf", mode="immediate")
        deferred = self._serve_with_fault("near_inf", mode="async")
        assert (
            deferred.checker_stats["detections"]
            >= immediate.checker_stats["detections"]
            >= 1
        )
        statuses = [r.status for r in deferred.results]
        assert statuses[1] == "evicted"
        assert statuses[0] == "completed" and statuses[2] == "completed"
        tokens = [r.tokens for r in deferred.results]
        assert tokens[0] == clean_tokens[0]
        assert tokens[2] == clean_tokens[2]


class TestDecodeDispatchCounters:
    """The O(1)-per-token claim, counter-verified against the cost model."""

    def test_serving_cost_model_entries(self):
        steady = SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer()
        cold = SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer(
            steady_state=False
        )
        assert steady == {"AS": 2, "CL": 2, "O": 1}
        assert cold == {"AS": 2, "CL": 3, "O": 2}

    def test_steady_state_decode_dispatches_constant_in_cache_length(self):
        model = make_gpt2()
        checker = ATTNChecker(ATTNCheckerConfig(backend="fused"))
        model.set_attention_hooks(checker)
        config = model.config
        rng = np.random.default_rng(7)
        total_len = config.max_seq_len
        ids = rng.integers(1, config.vocab_size, size=(2, 4), dtype=np.int64)
        mask = np.ones((2, total_len), dtype=np.float64)
        caches = model.new_kv_caches(2, max_len=total_len)
        model.prefill(ids, mask[:, :4], caches)

        def decode_delta():
            before = checker.dispatch_counts["gemm"]
            token = rng.integers(1, config.vocab_size, size=(2, 1), dtype=np.int64)
            model.decode_step(token, caches, attention_mask=mask)
            return checker.dispatch_counts["gemm"] - before

        cold = sum(
            SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer(
                steady_state=False
            ).values()
        )
        steady = sum(
            SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer().values()
        )
        # The first decode step pays cold weight-encoding work the protected
        # prefill has not already cached — more than steady state, bounded by
        # the cost model's fully-cold entry.
        first = decode_delta()
        assert steady * config.num_layers < first <= cold * config.num_layers
        workspace = checker.engine.workspace
        allocations_after_cold = workspace.allocations
        deltas = []
        while caches[0].length < total_len:
            deltas.append(decode_delta())
        checker.close()
        # Constant dispatch count at every cache length, matching the model.
        assert deltas == [steady * config.num_layers] * len(deltas)
        # Zero steady-state decode allocations from the workspace arena.
        assert workspace.allocations == allocations_after_cold


class TestSlotCompaction:
    """Dead slots stop stepping: decode cost tracks live requests."""

    BUDGETS = (6, 2, 2, 2)

    def _mixed_requests(self, model, budgets=BUDGETS, seed=11):
        rng = np.random.default_rng(seed)
        return [
            ServingRequest(
                request_id=i,
                prompt=tuple(
                    int(t) for t in rng.integers(1, model.config.vocab_size, size=4)
                ),
                max_new_tokens=budget,
            )
            for i, budget in enumerate(budgets)
        ]

    def _serve_counted(self, model, requests, checker=None, injector=None,
                       batch_size=4):
        engine = ServingEngine(
            model, checker=checker, injector=injector,
            config=ServingConfig(max_batch_size=batch_size),
        )
        return engine.run(requests)

    def test_decode_cost_tracks_live_requests(self):
        model = make_gpt2()
        report = self._serve_counted(model, self._mixed_requests(model))
        # Budget 6 drives 5 decode iterations.  All four slots step on the
        # first; the three budget-2 requests then complete, and the rest of
        # the decode runs at the two-slot floor instead of the full batch.
        assert report.decode_steps == 5
        assert report.decode_slot_steps == 4 + 2 * 4
        assert report.decode_slot_steps < report.decode_steps * len(self.BUDGETS)
        assert report.num_completed == len(self.BUDGETS)
        assert [r.num_tokens for r in report.results] == list(self.BUDGETS)

    def test_compaction_preserves_surviving_token_stream(self):
        # The bitwise guarantee behind the two-slot floor: the survivor's
        # tokens must match the run where nothing ever left the batch.
        model = make_gpt2()
        mixed = self._serve_counted(model, self._mixed_requests(model))
        uniform = self._serve_counted(
            model, self._mixed_requests(model, budgets=(6, 6, 6, 6))
        )
        assert uniform.decode_slot_steps == uniform.decode_steps * 4
        assert mixed.results[0].tokens == uniform.results[0].tokens

    def test_protected_compaction_matches_unprotected(self):
        baseline_model = make_gpt2()
        baseline = self._serve_counted(
            baseline_model, self._mixed_requests(baseline_model)
        )
        model = make_gpt2()
        checker = ATTNChecker(ATTNCheckerConfig(backend="fused"))
        model.set_attention_hooks(checker)
        protected = self._serve_counted(
            model, self._mixed_requests(model), checker=checker
        )
        checker.close()
        # The checksum side-state compacts with the slots: same schedule,
        # same tokens, no spurious detections.
        assert protected.decode_slot_steps == baseline.decode_slot_steps
        assert [r.tokens for r in protected.results] == [
            r.tokens for r in baseline.results
        ]
        assert protected.checker_stats["detections"] == 0

    def test_async_mode_keeps_full_width(self):
        # Async dirty masks drain late with historical batch widths, so the
        # engine must not compact under async verification.
        model = make_gpt2()
        checker = ATTNChecker(
            ATTNCheckerConfig(backend="fused", verification_mode="async")
        )
        model.set_attention_hooks(checker)
        report = self._serve_counted(model, self._mixed_requests(model), checker=checker)
        checker.close()
        assert report.decode_slot_steps == report.decode_steps * len(self.BUDGETS)

    def test_eviction_stops_dead_slot_stepping(self):
        # An evicted slot leaves the physical batch: with three requests and
        # one eviction at prefill, every decode iteration runs two slots.
        model = make_gpt2()
        spec = FaultSpec(
            matrix="AS", error_type="inf", layer_index=0, position=(1, 0, 0, 0)
        )
        injector = FaultInjector([spec], rng=np.random.default_rng(0), enabled=False)
        model.set_attention_hooks(injector)
        injector.arm()
        report = self._serve_counted(
            model, make_requests(model, num_requests=3), batch_size=3,
            injector=injector,
        )
        model.set_attention_hooks(None)
        assert report.num_evicted == 1
        assert report.decode_slot_steps == report.decode_steps * 2

    def test_report_dict_exposes_counters(self):
        model = make_gpt2()
        report = self._serve_counted(model, self._mixed_requests(model))
        payload = report.to_dict()
        assert payload["decode_steps"] == report.decode_steps
        assert payload["decode_slot_steps"] == report.decode_slot_steps
