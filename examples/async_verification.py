#!/usr/bin/env python3
"""Asynchronous off-critical-path verification, end to end.

Walks through the fused ProtectionEngine's three verification modes on a tiny
BERT fine-tuning run with one injected transient fault per mode:

1. **immediate** — every section boundary is verified (and repaired) inside
   the forward pass; the whole checker cost sits on the training critical
   path.
2. **deferred**  — boundary checksums are queued and verified in one batched
   pass at the end of each step; cheaper, but the flush still runs on the
   training thread, and detection is all you get.
3. **async**     — each step's checksum queue is snapshotted and verified by
   a worker thread while the next step computes.  Only the encode/carry and
   queue-swap bookkeeping remain on the critical path.  A boundary that
   verifies dirty within the staleness window (``max_pending_steps``) has its
   retained matrix repaired via EEC-ABFT and surfaces as a *stale* detection,
   which the trainer's ``stale_policy`` turns into checkpoint-free
   re-execution of the step (or an abort).

Run with:  python examples/async_verification.py [model-name]
"""

import sys

import numpy as np

from repro import (
    ATTNChecker,
    ATTNCheckerConfig,
    FaultInjector,
    FaultSpec,
    Trainer,
    TrainerConfig,
    build_model,
)
from repro.analysis import format_table
from repro.data import SyntheticMRPC

from repro.core import VERIFICATION_MODES

STEPS = 4


def run(model_name: str, mode: str):
    model = build_model(model_name, size="tiny", rng=np.random.default_rng(0))
    data = SyntheticMRPC(
        num_examples=32,
        max_seq_len=model.config.max_seq_len,
        vocab_size=model.config.vocab_size,
        seed=21,
    )
    batch = dict(data.encode(range(8)))
    injector = FaultInjector(
        [FaultSpec(matrix="AS", error_type="numeric")], rng=np.random.default_rng(13)
    )
    checker = ATTNChecker(ATTNCheckerConfig(verification_mode=mode))
    trainer = Trainer(
        model,
        # Re-execute a step whose (stale) verification came back dirty — the
        # checkpoint-free recovery policy.  Ignored by the synchronous modes,
        # which never produce stale outcomes.
        config=TrainerConfig(learning_rate=1e-3, stale_policy="reexecute"),
        checker=checker,
        fault_hooks=[injector],
    )
    for _ in range(STEPS):
        trainer.train_step(batch)
    # Barrier: wait out in-flight verification work before reading statistics
    # (a no-op for the synchronous modes).
    trainer.drain_verifications()
    checker.close()
    return {
        "detections": checker.stats.total_detections,
        "corrections": checker.stats.total_corrections,
        "stale": checker.stats.total_stale_detections,
        "reexecuted": trainer.metrics.num_reexecuted(),
        "critical_ms": checker.critical_path_seconds() * 1e3,
        "total_ms": checker.overhead_seconds() * 1e3,
    }


def main() -> int:
    model_name = sys.argv[1] if len(sys.argv) > 1 else "bert-base"
    rows = []
    for mode in VERIFICATION_MODES:
        r = run(model_name, mode)
        rows.append([
            mode, r["detections"], r["corrections"], r["stale"], r["reexecuted"],
            f"{r['critical_ms']:.1f}", f"{r['total_ms']:.1f}",
        ])
    print(format_table(
        ["mode", "detections", "corrections", "stale", "re-executed",
         "critical-path ms", "total ms"],
        rows,
        title=f"Verification modes on {model_name} (tiny, {STEPS} steps, one numeric fault)",
    ))
    print(
        "\nReading the table: async keeps the detection (and, within the\n"
        "staleness window, the correction) of immediate mode while its\n"
        "critical-path time drops toward the encode/carry floor — the\n"
        "verification moved to the worker thread (total ms stays comparable).\n"
        "The stale detection triggered one checkpoint-free re-execution."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
