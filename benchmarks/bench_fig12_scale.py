"""Figure 12: ATTNChecker overhead for multi-billion-parameter LLMs on 1,024 GPUs.

The paper simulates data-parallel training of 30B / 60B / 100B-parameter
models on 1,024 GPUs and reports that ATTNChecker's per-step overhead stays
essentially constant (~6.3 %) as the model grows.  The harness regenerates the
sweep from the multi-GPU scale model and asserts the near-constancy.

Alongside the analytical projection, the harness now *measures* data-parallel
scaling with the real :class:`~repro.training.DataParallelTrainer` — strong
scaling (fixed global batch and shard count, growing worker count) and weak
scaling (fixed per-shard batch, growing world) — with the gradient all-reduce
running through the checksum-protected collective.  Byte-identity of the
trained weights across worker counts and the collective checksum dispatch
counters are hard gates; wall-clock efficiencies are recorded, not gated
(shared CI hosts make timing assertions flaky).  Everything lands in
``BENCH_fig12.json`` (path overridable via ``BENCH_FIG12_JSON``) for the CI
gate.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.analysis import format_percent, format_table
from repro.core import SectionCostModel
from repro.perfmodel import MultiGPUScaleModel
from repro.perfmodel.scale import BILLION_SCALE_MODELS
from repro.comm import GradientBucketer
from repro.training import DataParallelConfig, DataParallelTrainer, ReplicaSpec

PAPER_OVERHEAD = {"30B": 0.0632, "60B": 0.0633, "100B": 0.0634}


def run_sweep(num_gpus: int = 1024):
    return MultiGPUScaleModel(num_gpus=num_gpus).sweep()


def test_fig12_multi_billion_parameter_scaling(benchmark, report):
    points = benchmark(run_sweep)

    rows = [
        [p.model_name, f"{p.parameters / 1e9:.0f}B", p.num_gpus,
         f"{p.compute_seconds:.2f}", f"{p.allreduce_seconds:.2f}", f"{p.step_seconds:.2f}",
         format_percent(p.abft_overhead, digits=2), format_percent(PAPER_OVERHEAD[p.model_name], digits=2)]
        for p in points
    ]
    report(format_table(
        ["model", "params", "GPUs", "compute (s)", "all-reduce (s)", "step (s)", "ATTNChecker overhead", "paper"],
        rows,
        title="Figure 12 — data-parallel training of multi-billion parameter LLMs (modelled)",
    ))
    benchmark.extra_info["figure12"] = {p.model_name: p.abft_overhead for p in points}

    overheads = [p.abft_overhead for p in points]
    # Overhead is small (same regime as the single-GPU per-step overhead)...
    assert all(0.001 < o < 0.12 for o in overheads)
    # ...and nearly constant across model sizes (the paper's 6.32-6.34 %).
    assert max(overheads) / min(overheads) < 1.8
    # Step time grows with model size, as expected for the scaling study.
    steps = [p.step_seconds for p in points]
    assert steps == sorted(steps)
    # The configured model sizes match the paper's 30B / 60B / 100B points.
    assert [p.model_name for p in points] == list(BILLION_SCALE_MODELS)


# -- measured data-parallel scaling ------------------------------------------------

#: Worker counts of the measured sweep.  The thread executor overlaps the
#: GIL-releasing BLAS work of the per-rank replicas, so wall-clock scaling is
#: real (if modest at tiny-model sizes) rather than simulated.
MEASURED_WORKERS = (1, 2, 4)
#: Strong scaling: the global batch and shard count stay fixed while workers
#: grow, so every configuration computes the byte-identical training step.
STRONG_SHARDS = 4
STRONG_GLOBAL_BATCH = 8
#: Weak scaling: per-shard batch stays fixed while world (= workers) grows.
WEAK_PER_SHARD_BATCH = 2
WARMUP_STEPS = 1
MEASURED_STEPS = 2
MEASURED_SPEC = ReplicaSpec(name="bert-base", size="tiny", seed=7, num_labels=2)


def _scaling_batch(seed: int, batch: int, seq: int = 10, vocab: int = 100):
    rng = np.random.default_rng(seed)
    return {
        "input_ids": rng.integers(0, vocab, size=(batch, seq)),
        "attention_mask": np.ones((batch, seq), dtype=np.int64),
        "labels": rng.integers(0, 2, size=(batch,)),
    }


def _states_equal(a, b):
    return set(a) == set(b) and all(
        np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a
    )


def _run_measured(workers: int, shards: int, global_batch: int):
    config = DataParallelConfig(
        workers=workers,
        shards=shards,
        executor="serial" if workers == 1 else "thread",
    )
    trainer = DataParallelTrainer(
        model_spec=MEASURED_SPEC,
        config=config,
    )
    try:
        total = WARMUP_STEPS + MEASURED_STEPS
        batches = [_scaling_batch(200 + i, global_batch) for i in range(total)]
        for batch in batches[:WARMUP_STEPS]:
            trainer.train_step(batch)
        begin = time.perf_counter()
        for batch in batches[WARMUP_STEPS:]:
            trainer.train_step(batch)
        step_seconds = (time.perf_counter() - begin) / MEASURED_STEPS
        state = trainer.state_dict()
        timers = trainer.timers.as_dict()
        return {
            "workers": workers,
            "shards": shards,
            "global_batch": global_batch,
            "steps": total,
            "step_seconds": step_seconds,
            "comm_allreduce_seconds": timers.get("comm/allreduce", 0.0),
            "comm_verify_seconds": timers.get("comm/verify", 0.0),
            "counters": trainer.collective_counters(),
            "num_buckets": [r.buckets for r in trainer.metrics],
            "state": state,
        }
    finally:
        trainer.close()


def run_measured_scaling():
    strong = [
        _run_measured(w, STRONG_SHARDS, STRONG_GLOBAL_BATCH) for w in MEASURED_WORKERS
    ]
    weak = [
        _run_measured(w, w, WEAK_PER_SHARD_BATCH * w) for w in MEASURED_WORKERS
    ]
    return strong, weak


def _efficiency_rows(points, weak: bool):
    base = points[0]["step_seconds"]
    rows = []
    for p in points:
        if weak:
            # Perfect weak scaling keeps the step time flat as world grows.
            efficiency = base / p["step_seconds"]
        else:
            efficiency = base / (p["step_seconds"] * p["workers"])
        rows.append({**{k: v for k, v in p.items() if k != "state"},
                     "efficiency": efficiency})
    return rows


def test_fig12_measured_data_parallel_scaling(benchmark, report):
    strong, weak = benchmark.pedantic(run_measured_scaling, rounds=1, iterations=1)

    # Hard gate 1: strong-scaling configurations train byte-identical weights
    # at every worker count (same shards, rank-ordered protected reduction).
    byte_identical = all(
        _states_equal(strong[0]["state"], p["state"]) for p in strong[1:]
    )
    assert byte_identical

    # Hard gate 2: collective checksum dispatches match the cost model
    # exactly — per step, one encode per gradient bucket plus the loss slot
    # per rank and one verify per bucket plus the loss slot, counter-verified
    # against the protected collective.
    # B is partitioned here from a fresh replica, independent of the
    # trainers, and every step result must report it.
    num_gradients = len(strong[0]["state"]) + 1  # parameters + the loss scalar
    num_buckets = GradientBucketer(
        [p.data for p in MEASURED_SPEC.build().parameters()],
        DataParallelConfig().bucket_cap_mb,
    ).num_buckets
    for p in strong + weak:
        assert p["num_buckets"] == [num_buckets] * p["steps"]
        per_step = SectionCostModel.collective_checksum_dispatches_per_step(
            num_gradients=num_gradients, world_size=p["shards"],
            num_buckets=num_buckets,
        )
        counters = p["counters"]
        assert counters["checksum_encodes"] == per_step["encode"] * p["steps"]
        assert counters["checksum_verifies"] == per_step["verify"] * p["steps"]
        assert counters["mismatches"] == 0
    counters_match = True

    strong_rows = _efficiency_rows(strong, weak=False)
    weak_rows = _efficiency_rows(weak, weak=True)
    for rows in (strong_rows, weak_rows):
        assert [r["workers"] for r in rows] == list(MEASURED_WORKERS)
        assert all(r["step_seconds"] > 0.0 for r in rows)
        assert all(r["efficiency"] > 0.0 for r in rows)

    table_rows = [
        [kind, r["workers"], r["shards"], r["global_batch"],
         f"{r['step_seconds'] * 1e3:.1f}",
         f"{r['comm_allreduce_seconds'] * 1e3:.1f}",
         f"{r['comm_verify_seconds'] * 1e3:.1f}",
         format_percent(r["efficiency"], digits=1)]
        for kind, rows in (("strong", strong_rows), ("weak", weak_rows))
        for r in rows
    ]
    report(format_table(
        ["sweep", "workers", "shards", "global batch", "step (ms)",
         "all-reduce (ms)", "verify (ms)", "efficiency"],
        table_rows,
        title="Figure 12 — measured data-parallel scaling (protected all-reduce)",
    ))

    payload = {
        "figure": "fig12",
        "modelled": {p.model_name: p.abft_overhead for p in run_sweep()},
        "measured": {
            "model": "bert-base/tiny",
            "measured_steps": MEASURED_STEPS,
            "strong": strong_rows,
            "weak": weak_rows,
            "byte_identical_across_workers": byte_identical,
            "collective_dispatch": {
                "num_gradients": num_gradients,
                "num_buckets": num_buckets,
                "counters_match_cost_model": counters_match,
            },
        },
    }
    benchmark.extra_info["figure12_measured"] = payload["measured"]
    path = os.environ.get("BENCH_FIG12_JSON", "BENCH_fig12.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
