"""Whole-model protection overhead: attention-only vs attention+ffn scope.

Trains the same deterministic tiny workload three times — protection off,
attention scope, and attention+ffn scope — and measures what extending the
protected sections to the FFN GEMMs costs:

* **Training overhead** — wall-clock ratio of each protected run over the
  unprotected baseline, plus the scope-over-scope ratio.  Fault-free, both
  protected runs must reproduce the unprotected loss curve bit-for-bit (the
  checksums observe, they do not perturb).
* **Dispatch counters** — the measured checksum GEMM dispatch totals must
  equal the extended :class:`SectionCostModel` exactly.  Training pays the
  cold column every step (the optimizer update invalidates weight-derived
  encodings), so the expected total is ``steps x layers x sum(cold)``.
* **O(1) FFN decode** — in steady-state serving decode the per-token delta
  must match ``serving_decode_checksum_gemm_dispatches_per_layer`` with the
  FF1/FF2 entries included, at two different cache lengths, with zero
  steady-state workspace allocations.

The run emits a machine-readable ``BENCH_ffn.json`` artifact (path
overridable via the ``BENCH_FFN_JSON`` environment variable) that the CI
whole-model smoke asserts on.
"""

import json
import os

import numpy as np

from benchmarks.conftest import make_batch, make_model
from repro.core import (
    ATTNChecker,
    ATTNCheckerConfig,
    SectionCostModel,
    sections_for_scope,
)
from repro.training import Trainer, TrainerConfig

STEPS = 3


def train_once(scope):
    """Train the pinned workload once; ``scope=None`` disables protection."""
    model = make_model("bert-base")
    batch = make_batch(model, n=4, full_mask=True)
    checker = None
    if scope is not None:
        checker = ATTNChecker(ATTNCheckerConfig(backend="fused", protect_scope=scope))
    trainer = Trainer(
        model, config=TrainerConfig(learning_rate=5e-4), checker=checker
    )
    losses = [repr(float(trainer.train_step(batch).loss)) for _ in range(STEPS)]
    wall = sum(step.step_seconds for step in trainer.metrics.steps)
    out = {
        "scope": scope,
        "losses": losses,
        "wall_seconds": wall,
        "num_layers": model.config.num_layers,
    }
    if checker is not None:
        per_layer = SectionCostModel.checksum_gemm_dispatches_per_layer(
            steady_state=False, scope=scope
        )
        out.update(
            gemm_dispatches_measured=checker.dispatch_counts["gemm"],
            gemm_dispatches_expected=(
                sum(per_layer.values()) * model.config.num_layers * STEPS
            ),
            per_layer_cold_model={k: v for k, v in sorted(per_layer.items())},
            detections=checker.stats.total_detections,
            sections_checked=sorted(checker.stats.sections),
            workspace=checker.workspace_stats(),
        )
        checker.close()
    return out


def ffn_decode_dispatch_counters():
    """Counter-verify O(1) decode with the FFN sections enabled.

    Mirrors the serving benchmark's probe but at ``attention+ffn`` scope: the
    FF2 row checksum of the static decode weights is encoded once on the cold
    step and served from the weight cache afterwards, so the steady-state
    per-token delta includes exactly one FF2 verify GEMM.
    """
    model = make_model("gpt2")
    model.eval()
    checker = ATTNChecker(
        ATTNCheckerConfig(backend="fused", protect_scope="attention+ffn")
    )
    model.set_attention_hooks(checker)
    config = model.config

    batch, prompt_len = 2, 4
    total_len = config.max_seq_len
    rng = np.random.default_rng(11)
    ids = rng.integers(1, config.vocab_size, size=(batch, prompt_len), dtype=np.int64)
    mask = np.ones((batch, total_len), dtype=np.float64)
    caches = model.new_kv_caches(batch, max_len=total_len)
    model.prefill(ids, mask[:, :prompt_len], caches)

    def step():
        token = rng.integers(1, config.vocab_size, size=(batch, 1), dtype=np.int64)
        model.decode_step(token, caches, attention_mask=mask)

    def measured_step():
        before = checker.dispatch_counts["gemm"]
        step()
        return checker.dispatch_counts["gemm"] - before, int(caches[0].length)

    step()  # cold: encodes the static weight checksums, fills the workspace
    allocations_after_cold = checker.engine.workspace.allocations
    delta_short, cache_len_short = measured_step()
    while caches[0].length < total_len - 2:
        step()
    delta_long, cache_len_long = measured_step()

    per_layer = SectionCostModel.serving_decode_checksum_gemm_dispatches_per_layer(
        scope="attention+ffn"
    )
    counters = {
        "per_layer_model": {k: v for k, v in sorted(per_layer.items())},
        "expected_per_step": sum(per_layer.values()) * config.num_layers,
        "delta_short": delta_short,
        "cache_len_short": cache_len_short,
        "delta_long": delta_long,
        "cache_len_long": cache_len_long,
        "steady_state_decode_allocations": (
            checker.engine.workspace.allocations - allocations_after_cold
        ),
        "workspace": checker.workspace_stats(),
        "detections": checker.stats.total_detections,
    }
    model.set_attention_hooks(None)
    checker.close()
    return counters


def test_ffn_scope_overhead_and_counters_json(benchmark, report):
    """The whole-model-protection claims, counter-verified, plus the artifact."""

    def compare():
        counters = ffn_decode_dispatch_counters()
        # Interleave trials so shared-host drift hits all configurations
        # alike; keep the best of three for each.
        off_t, attn_t, ffn_t = [], [], []
        for _ in range(3):
            off_t.append(train_once(None))
            attn_t.append(train_once("attention"))
            ffn_t.append(train_once("attention+ffn"))
        key = lambda r: r["wall_seconds"]
        return counters, min(off_t, key=key), min(attn_t, key=key), min(ffn_t, key=key)

    counters, off, attn, ffn = benchmark.pedantic(compare, rounds=1, iterations=1)

    # -- hard, deterministic gates -------------------------------------------
    # Fault-free protection must not perturb the loss curve, at either scope.
    assert attn["losses"] == off["losses"]
    assert ffn["losses"] == off["losses"]
    # Measured checksum GEMM dispatches match the extended cost model exactly.
    for run in (attn, ffn):
        assert run["gemm_dispatches_measured"] == run["gemm_dispatches_expected"], run
        assert run["detections"] == 0
    assert set(ffn["sections_checked"]) == set(sections_for_scope("attention+ffn"))
    # Widening the scope must actually dispatch more checksum work.
    assert ffn["gemm_dispatches_measured"] > attn["gemm_dispatches_measured"]
    # O(1) FFN decode: equal deltas at two cache lengths, on the model.
    assert counters["cache_len_long"] > counters["cache_len_short"]
    assert counters["delta_short"] == counters["expected_per_step"]
    assert counters["delta_long"] == counters["expected_per_step"]
    assert counters["steady_state_decode_allocations"] == 0
    assert counters["workspace"]["reuses"] > 0
    assert counters["detections"] == 0

    ratio_attn = attn["wall_seconds"] / off["wall_seconds"]
    ratio_ffn = ffn["wall_seconds"] / off["wall_seconds"]
    report(
        "Whole-model protection (bert-base tiny, CPU/NumPy, "
        f"{STEPS} steps): overhead attention {ratio_attn:.2f}x, "
        f"attention+ffn {ratio_ffn:.2f}x over unprotected; checksum GEMM "
        f"dispatches {attn['gemm_dispatches_measured']} -> "
        f"{ffn['gemm_dispatches_measured']} "
        f"(model: {attn['gemm_dispatches_expected']} -> "
        f"{ffn['gemm_dispatches_expected']}); FFN decode "
        f"{counters['delta_short']} dispatches/token at cache lengths "
        f"{counters['cache_len_short']} and {counters['cache_len_long']} "
        f"(model: {counters['expected_per_step']}), steady-state decode "
        f"allocations {counters['steady_state_decode_allocations']}"
    )

    # -- machine-readable artifact -------------------------------------------
    payload = {
        "unprotected": off,
        "attention": attn,
        "attention_ffn": ffn,
        "losses_identical": attn["losses"] == off["losses"] == ffn["losses"],
        "overhead_ratio_attention": ratio_attn,
        "overhead_ratio_attention_ffn": ratio_ffn,
        "ffn_decode_dispatch": counters,
    }
    path = os.environ.get("BENCH_FFN_JSON", "BENCH_ffn.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    report(f"Whole-model machine-readable artifact written to {path}")
    benchmark.extra_info["ffn_scope"] = payload
