"""Figure 7: ATTNChecker overhead on six LLMs (batch size 8).

Two complementary reproductions:

* **Modelled A100** — the analytical roofline model prices the attention block
  and the whole training step with and without ABFT at the published model
  dimensions; the paper reports 7-16 % attention overhead and ~7 % per-step
  overhead on average.
* **Measured CPU** — the benchmark also times real protected vs. unprotected
  training steps of the tiny configurations on this host (the ATTNChecker
  NumPy implementation), as a sanity check that the implementation's overhead
  is of the same order.

The run additionally emits a machine-readable ``BENCH_fig7.json`` artifact
(path overridable via the ``BENCH_FIG7_JSON`` environment variable) with the
modelled overhead ratios plus the fused engine's kernel-schedule counters —
checksum GEMM dispatches, steady-state workspace allocations, weight-cache
hits — which the CI perf smoke asserts on: measured dispatches equal to the
cost model's count, and zero steady-state hot-path allocations.
"""

import json
import os

import numpy as np
import pytest

from benchmarks.conftest import OVERHEAD_MODELS, make_batch, make_model
from repro.analysis import format_percent, format_table
from repro.core import ATTNChecker, ATTNCheckerConfig, SectionCostModel
from repro.models import get_config
from repro.perfmodel import TrainingStepCostModel
from repro.training import Trainer, TrainerConfig

#: Attention-block overheads reported in Figure 7 (left panel).
PAPER_ATTENTION_OVERHEAD = {
    "bert-small": 0.09, "bert-base": 0.13, "bert-large": 0.16,
    "gpt2": 0.13, "gpt-neo": 0.09, "roberta": 0.07,
}
#: Per-step training overheads reported in Figure 7 (right panel).
PAPER_STEP_OVERHEAD = {
    "bert-small": 0.06, "bert-base": 0.07, "bert-large": 0.10,
    "gpt2": 0.07, "gpt-neo": 0.09, "roberta": 0.05,
}


def model_overheads(batch_size: int = 8):
    table = {}
    for name in OVERHEAD_MODELS:
        cost = TrainingStepCostModel(get_config(name, size="paper"), batch_size=batch_size)
        table[name] = {
            "attention_ms": cost.attention_step_time() * 1e3,
            "attention_overhead": cost.attention_overhead(),
            "step_ms": cost.step_time() * 1e3,
            "step_overhead": cost.step_overhead(),
        }
    return table


def measured_cpu_overhead(model_name: str = "bert-base", steps: int = 3):
    """Measured per-step overhead of the NumPy ATTNChecker on this host."""
    def run(checker):
        model = make_model(model_name)
        batch = make_batch(model, n=8)
        trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3), checker=checker)
        trainer.train_step(batch)  # warm-up
        times = [trainer.train_step(batch).step_seconds for _ in range(steps)]
        return float(np.median(times))

    baseline = run(None)
    protected = run(ATTNChecker())
    return (protected - baseline) / baseline


def kernel_schedule_counters(model_name: str = "bert-base", steps: int = 4):
    """Dispatch/allocation counters of the fused engine's kernel schedule.

    Runs a fixed-weight protected forward loop (model.eval(); no optimizer
    steps, so the weight-encoding cache reaches true steady state after the
    warm-up pass) and reads the engine's own counters.
    """
    model = make_model(model_name)
    model.eval()
    batch = make_batch(model, n=4, full_mask=True)
    checker = ATTNChecker()
    model.set_attention_hooks(checker)
    # Warm-up: allocates the workspace slots and fills the weight cache.
    model(batch["input_ids"], attention_mask=batch["attention_mask"])
    workspace = checker.engine.workspace
    workspace.reset_stats()
    gemm_before = checker.dispatch_counts["gemm"]
    for _ in range(steps):
        model(batch["input_ids"], attention_mask=batch["attention_mask"])
    model.set_attention_hooks(None)
    return {
        "gemm_dispatches": checker.dispatch_counts["gemm"] - gemm_before,
        "steady_state_allocations": workspace.allocations,
        "workspace": checker.workspace_stats(),
        "weight_cache": checker.weight_cache_stats(),
        "layer_visits": steps * model.config.num_layers,
    }


def steady_state_checker_seconds(model_name: str = "bert-base", reps: int = 6):
    """Min-floor per-pass checker time of a fixed-weight protected forward.

    The steady-state regime the fused schedule targets: weights unchanged
    between passes, so the weight-encoding cache serves every visit and the
    workspace reuses every buffer.  (A training loop re-derives weight-side
    encodings every step by necessity — the optimizer changed the weights —
    so its floor reflects the dispatch fusion only.)
    """
    model = make_model(model_name)
    model.eval()
    batch = make_batch(model, n=8)
    checker = ATTNChecker()
    model.set_attention_hooks(checker)
    model(batch["input_ids"], attention_mask=batch["attention_mask"])  # warm-up
    per_pass = []
    for _ in range(reps):
        before = checker.overhead_seconds()
        model(batch["input_ids"], attention_mask=batch["attention_mask"])
        per_pass.append(checker.overhead_seconds() - before)
    model.set_attention_hooks(None)
    return min(per_pass)


def measured_mode_path_seconds(mode: str, model_name: str = "bert-base", steps: int = 6):
    """Critical-path and total ABFT seconds of one fused verification mode.

    Returns ``(per_step_critical_floor, critical_total, overall_total)``:
    the min-over-steps critical-path cost (noise-floor estimator), plus run
    totals after a full drain.  Every ``train_step`` must leave the checker's
    front queue empty — the zero-pending-after-end_step invariant.
    """
    model = make_model(model_name)
    batch = make_batch(model, n=8)
    checker = ATTNChecker(ATTNCheckerConfig(verification_mode=mode))
    trainer = Trainer(model, config=TrainerConfig(learning_rate=1e-3), checker=checker)
    trainer.train_step(batch)  # warm-up
    per_step = []
    for _ in range(steps):
        before = checker.critical_path_seconds()
        trainer.train_step(batch)
        assert checker.pending_verifications == 0
        per_step.append(checker.critical_path_seconds() - before)
    trainer.drain_verifications()
    assert checker.engine.pending_steps == 0
    critical_total = checker.critical_path_seconds()
    overall_total = checker.overhead_seconds()
    # The Figure-7 split reports copy overhead separately (xfer/* keys); on
    # the default follow-the-arrays NumPy path it must be exactly zero.
    assert checker.transfer_seconds() == 0.0
    checker.close()
    return min(per_step), critical_total, overall_total


def test_fig7_overhead_modelled(benchmark, report):
    table = benchmark(model_overheads)

    rows = [
        [name,
         f"{table[name]['attention_ms']:.2f}",
         format_percent(table[name]["attention_overhead"]),
         format_percent(PAPER_ATTENTION_OVERHEAD[name]),
         f"{table[name]['step_ms']:.1f}",
         format_percent(table[name]["step_overhead"]),
         format_percent(PAPER_STEP_OVERHEAD[name])]
        for name in OVERHEAD_MODELS
    ]
    report(format_table(
        ["model", "attn time (ms)", "attn overhead", "paper", "step time (ms)", "step overhead", "paper"],
        rows,
        title="Figure 7 — ATTNChecker overhead, batch 8 (modelled A100 vs paper)",
    ))
    benchmark.extra_info["figure7"] = table

    for name in OVERHEAD_MODELS:
        # Shape: overhead is a modest fraction, attention overhead above step
        # overhead, both within a small factor of the paper's bars.
        assert 0.01 < table[name]["attention_overhead"] < 0.30
        assert 0.005 < table[name]["step_overhead"] < 0.15
        assert table[name]["attention_overhead"] > table[name]["step_overhead"]
        assert table[name]["step_overhead"] < 2.5 * PAPER_STEP_OVERHEAD[name]


def test_fig7_overhead_measured_cpu(benchmark, report):
    overhead = benchmark.pedantic(measured_cpu_overhead, rounds=1, iterations=1)
    report(f"Figure 7 (measured, CPU/NumPy, bert-base tiny): per-step ATTNChecker overhead = "
           f"{format_percent(max(overhead, 0.0))}")
    benchmark.extra_info["measured_step_overhead"] = overhead
    # The NumPy implementation's overhead stays moderate (well under 2x).
    assert overhead < 1.0


def test_fig7_async_verification_off_critical_path(benchmark, report):
    """The off-critical-path claim, measured: async verification must leave
    strictly less checker time on the training thread than deferred mode,
    whose batched flush still runs on the caller — while the verification
    work itself (the total) does not go away, it moves to the worker."""
    def compare():
        # Interleave the modes and keep the floor of three trials each, so
        # slow drift on a shared CI host hits both measurements alike.
        deferred_trials, async_trials = [], []
        for _ in range(3):
            deferred_trials.append(measured_mode_path_seconds("deferred"))
            async_trials.append(measured_mode_path_seconds("async"))
        return (
            min(t[0] for t in deferred_trials),
            min(t[0] for t in async_trials),
            max(t[2] - t[1] for t in async_trials),
        )

    deferred_step, async_step, async_worker_total = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )

    report(
        "Figure 7 (verification modes, CPU/NumPy, bert-base tiny): per-step "
        f"critical-path ABFT time deferred = {deferred_step * 1e3:.2f} ms, "
        f"async = {async_step * 1e3:.2f} ms "
        f"({(deferred_step - async_step) / deferred_step * 100.0:+.1f}% moved off "
        f"the critical path; worker verified {async_worker_total * 1e3:.2f} ms "
        "off-thread)"
    )
    benchmark.extra_info["deferred_critical_path_seconds"] = deferred_step
    benchmark.extra_info["async_critical_path_seconds"] = async_step
    benchmark.extra_info["async_worker_seconds"] = async_worker_total

    # The hard gate: async critical-path time strictly below deferred mode's
    # flush cost.  The gap is the whole batched EEC-ABFT pass (deferred pays
    # it on the caller; async pays only the queue-swap/submit bookkeeping),
    # which is far above timer jitter on the min-floor estimator.
    assert async_step < deferred_step
    # The verification work did not disappear — it ran on the worker.
    assert async_worker_total > 0.0


def test_fig7_fused_kernel_schedule_counters_and_json(benchmark, report):
    """The kernel-schedule claim, counter-verified, plus the JSON artifact.

    The fused schedule (sibling-GEMM fusion + weight-encoding cache +
    checksum workspace) must issue exactly the cost model's checksum GEMM
    dispatches per layer visit and allocate nothing on the steady-state hot
    path.  Everything measured lands in ``BENCH_fig7.json`` for CI.
    """
    def measure():
        return kernel_schedule_counters(), steady_state_checker_seconds()

    fused, fused_seconds = benchmark.pedantic(measure, rounds=1, iterations=1)

    # -- hard, deterministic gates -------------------------------------------
    # Measured dispatches agree exactly with the cost model.
    per_layer_fused = sum(
        SectionCostModel.checksum_gemm_dispatches_per_layer().values()
    )
    assert fused["gemm_dispatches"] == per_layer_fused * fused["layer_visits"]
    # Zero steady-state hot-path allocations, and the weight cache served
    # every steady-state visit from cache.
    assert fused["steady_state_allocations"] == \
        SectionCostModel.steady_state_hot_path_allocations() == 0
    assert fused["workspace"]["reuses"] > 0
    assert fused["weight_cache"]["hits"] > 0

    report(
        "Figure 7 (kernel schedule, CPU/NumPy, bert-base tiny): checksum GEMM "
        f"dispatches/visit = {per_layer_fused}; "
        f"steady-state workspace allocations = {fused['steady_state_allocations']} "
        f"(reuses = {fused['workspace']['reuses']}); steady-state per-pass checker "
        f"time = {fused_seconds * 1e3:.2f} ms"
    )

    # -- machine-readable artifact -------------------------------------------
    payload = {
        "modelled_overheads": {
            name: {
                "attention_overhead": row["attention_overhead"],
                "step_overhead": row["step_overhead"],
            }
            for name, row in model_overheads().items()
        },
        "paper_overheads": {
            "attention": PAPER_ATTENTION_OVERHEAD,
            "step": PAPER_STEP_OVERHEAD,
        },
        "kernel_schedule": {
            "fused": {
                "gemm_dispatches_per_layer": per_layer_fused,
                "gemm_dispatches_measured": fused["gemm_dispatches"],
                "steady_state_allocations": fused["steady_state_allocations"],
                "workspace": fused["workspace"],
                "weight_cache": fused["weight_cache"],
                "abft_seconds": fused_seconds,
            },
        },
        "layer_visits": fused["layer_visits"],
    }
    path = os.environ.get("BENCH_FIG7_JSON", "BENCH_fig7.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    report(f"Figure 7 machine-readable artifact written to {path}")
    benchmark.extra_info["kernel_schedule"] = payload["kernel_schedule"]
