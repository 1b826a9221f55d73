"""Command-line interface for running the reproduction experiments.

The benchmark harness (``pytest benchmarks/ --benchmark-only``) is the
canonical way to regenerate every table and figure, but a plain CLI is handy
for quick looks and for users who do not want pytest in the loop::

    python -m repro list                 # available experiments
    python -m repro table3               # GEMM workload ratios
    python -m repro fig7  --batch-size 8
    python -m repro fig10 --rates 13 16 20
    python -m repro quickstart           # inject + correct one fault
    python -m repro train_parallel --workers 4 --shards 4


Each experiment prints the same plain-text table the corresponding benchmark
prints and returns a process exit code of 0 on success.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis import format_percent, format_table, gemm_ratio_table
from repro.backend import (
    KNOWN_ARRAY_BACKENDS,
    BackendUnavailable,
    available_array_backends,
    resolve_backend_name,
)
from repro.core import (
    CHECKER_BACKENDS,
    PROTECT_SCOPES,
    VERIFICATION_MODES,
    ATTNChecker,
    ATTNCheckerConfig,
    ErrorRates,
    OperationVulnerability,
    optimize_abft_frequencies,
)
from repro.data import SyntheticMRPC
from repro.faults import DetectionCorrectionCampaign, FaultInjector, FaultSpec, PropagationStudy
from repro.models import build_model, get_config
from repro.nn import ComposedHooks
from repro.perfmodel import (
    EncoderThroughputModel,
    MultiGPUScaleModel,
    RecoveryCostModel,
    TrainingStepCostModel,
)

__all__ = ["main", "EXPERIMENTS"]

MAIN_MODELS = ["bert-base", "gpt2", "gpt-neo", "roberta"]
OVERHEAD_MODELS = ["bert-small", "bert-base", "bert-large", "gpt2", "gpt-neo", "roberta"]


# ---------------------------------------------------------------------------
# Experiment implementations (each returns the printed text)
# ---------------------------------------------------------------------------

def _tiny_model_and_batch(model_name: str, batch: int = 8, seed: int = 0,
                          array_backend: Optional[str] = None):
    model = build_model(
        model_name, size="tiny", rng=np.random.default_rng(seed),
        array_backend=array_backend,
    )
    data = SyntheticMRPC(
        num_examples=max(16, 2 * batch),
        max_seq_len=model.config.max_seq_len,
        vocab_size=model.config.vocab_size,
    )
    encoded = dict(data.encode(range(batch)))
    encoded["attention_mask"] = np.ones_like(encoded["attention_mask"])
    return model, encoded


def run_quickstart(args: argparse.Namespace) -> str:
    model, batch = _tiny_model_and_batch(args.model, array_backend=args.model_array_backend)
    injector = FaultInjector(
        [FaultSpec(matrix=args.matrix, error_type=args.error_type)],
        rng=np.random.default_rng(args.seed),
    )
    checker = ATTNChecker(ATTNCheckerConfig(
        backend=args.backend, verification_mode=args.verification_mode,
        array_backend=args.array_backend, protect_scope=args.protect_scope,
    ))
    model.eval()
    reference = model(batch["input_ids"], attention_mask=batch["attention_mask"],
                      labels=batch["labels"]).loss_value
    model.set_attention_hooks(ComposedHooks([injector, checker]))
    protected = model(batch["input_ids"], attention_mask=batch["attention_mask"],
                      labels=batch["labels"]).loss_value
    model.set_attention_hooks(None)
    checker.end_step()
    checker.drain()   # settle async verification before reading statistics
    checker.close()
    substrate = getattr(model, "array_backend", None)
    lines = [
        f"backend              : {checker.backend}",
        f"verification mode    : {checker.verification_mode}",
        f"array backend        : {checker.array_backend_name} "
        f"(installed: {', '.join(available_array_backends())})",
        f"model substrate      : {'numpy' if substrate is None else substrate.device_info()}",
        f"transfer time        : {checker.transfer_seconds() * 1e3:.3f} ms",
        f"fault-free loss      : {reference:.6f}",
        f"protected faulty loss: {protected:.6f}",
        f"detections           : {checker.stats.total_detections}",
        f"corrections          : {checker.stats.total_corrections}",
        f"stale detections     : {checker.stats.total_stale_detections}",
        f"residual extremes    : {checker.stats.total_residual_extreme}",
    ]
    return "\n".join(lines)


def run_backends(args: argparse.Namespace) -> str:
    """Compare the fused ProtectionEngine against the per-GEMM reference.

    Runs the same single-fault forward pass under both backends (same seeds)
    for every (matrix, error type) combination and reports whether detection /
    correction decisions and the protected output are byte-identical, plus the
    ABFT wall-clock each backend spent.
    """
    combos = [(m, e) for m in ("Q", "K", "V", "AS", "CL", "O")
              for e in ("inf", "nan", "near_inf")]
    rows = []
    abft_seconds = {name: 0.0 for name in CHECKER_BACKENDS}
    all_identical = True
    for matrix, error_type in combos:
        outputs, decisions = {}, {}
        for backend in CHECKER_BACKENDS:
            model, batch = _tiny_model_and_batch(
                args.model, seed=args.seed, array_backend=args.model_array_backend)
            model.eval()
            injector = FaultInjector(
                [FaultSpec(matrix=matrix, error_type=error_type)],
                rng=np.random.default_rng(args.seed),
            )
            checker = ATTNChecker(ATTNCheckerConfig(
                backend=backend, array_backend=args.array_backend,
            ))
            model.set_attention_hooks(ComposedHooks([injector, checker]))
            outputs[backend] = model(
                batch["input_ids"], attention_mask=batch["attention_mask"],
                labels=batch["labels"],
            ).logits.data.copy()
            model.set_attention_hooks(None)
            decisions[backend] = {
                name: (s.detections, s.corrections, s.aborted_vectors, s.operand_repairs)
                for name, s in checker.stats.sections.items()
            }
            abft_seconds[backend] += checker.overhead_seconds()
        identical = (
            np.array_equal(outputs["fused"], outputs["per_gemm"], equal_nan=True)
            and decisions["fused"] == decisions["per_gemm"]
        )
        all_identical &= identical
        fused = decisions["fused"]
        rows.append([
            matrix, error_type,
            sum(d for d, *_ in fused.values()),
            sum(c for _, c, *_ in fused.values()),
            "yes" if identical else "NO",
        ])
    footer = (
        f"backends byte-identical on all {len(combos)} scenarios; "
        if all_identical else "BACKENDS DIVERGED; "
    ) + (
        f"ABFT time fused {abft_seconds['fused'] * 1e3:.1f} ms vs "
        f"per-GEMM {abft_seconds['per_gemm'] * 1e3:.1f} ms"
    )
    return format_table(
        ["matrix", "error", "detections", "corrections", "identical"], rows,
        title=f"Backend equivalence — fused engine vs per-GEMM reference ({args.model}); {footer}",
    )


def run_verification_modes(args: argparse.Namespace) -> str:
    """Compare the fused engine's immediate / deferred / async verification.

    Runs the same single-fault forward passes under all three modes (same
    seeds) and reports detection/correction counters, stale detections, and
    the critical-path vs total checker time split.  The footer states the two
    cross-mode invariants the test suite enforces: deferred and async make
    byte-identical detection decisions, and async repairs (bounded-staleness
    correction of the retained boundary matrices) match immediate-mode
    correction counts.
    """
    combos = [("Q", "inf"), ("AS", "nan"), ("CL", "inf"), ("O", "near_inf")]
    rows = []
    per_mode = {}
    for mode in VERIFICATION_MODES:
        detections = corrections = stale = 0
        critical = total = 0.0
        signatures = []
        for trial, (matrix, error_type) in enumerate(combos):
            model, batch = _tiny_model_and_batch(
                args.model, batch=4, seed=args.seed,
                array_backend=args.model_array_backend)
            model.eval()
            injector = FaultInjector(
                [FaultSpec(matrix=matrix, error_type=error_type)],
                rng=np.random.default_rng(args.seed + trial),
            )
            checker = ATTNChecker(ATTNCheckerConfig(
                array_backend=args.array_backend, verification_mode=mode,
            ))
            model.set_attention_hooks(ComposedHooks([injector, checker]))
            model(batch["input_ids"], attention_mask=batch["attention_mask"],
                  labels=batch["labels"])
            model.set_attention_hooks(None)
            outcomes = checker.end_step() + checker.drain()
            checker.close()
            signatures.append(tuple(
                (o.section, o.layer_index, o.step,
                 o.report.detected, o.report.aborted, o.report.residual_extreme)
                for o in outcomes if o.report is not None
            ))
            detections += checker.stats.total_detections
            corrections += checker.stats.total_corrections
            stale += checker.stats.total_stale_detections
            critical += checker.critical_path_seconds()
            total += checker.overhead_seconds()
        per_mode[mode] = {"corrections": corrections, "signatures": signatures}
        rows.append([
            mode, detections, corrections, stale,
            f"{critical * 1e3:.1f}", f"{total * 1e3:.1f}",
        ])
    identical = per_mode["deferred"]["signatures"] == per_mode["async"]["signatures"]
    parity = per_mode["immediate"]["corrections"] == per_mode["async"]["corrections"]
    footer = (
        ("deferred/async detection decisions byte-identical" if identical
         else "DEFERRED/ASYNC DETECTION DECISIONS DIVERGED")
        + "; "
        + ("async corrections match immediate" if parity
           else "ASYNC CORRECTIONS DIVERGED FROM IMMEDIATE")
    )
    return format_table(
        ["mode", "detections", "corrections", "stale", "critical-path ms", "total ms"],
        rows,
        title=f"Verification modes — fused engine ({args.model}); {footer}",
    )


def run_train(args: argparse.Namespace) -> str:
    """A short protected fine-tuning run on the chosen model substrate.

    Builds the model with ``build_model(..., array_backend=args.model_array_backend)``
    so forward, backward and the optimiser update run on that backend, attaches
    the fused checker (following or pinned per ``--array-backend``), and trains
    for ``--steps`` optimisation steps on synthetic MRPC.  The footer reports
    the checker's ``xfer/*`` transfer total — exactly zero whenever model and
    checker share a backend (the device-resident zero-copy property; the CI
    smoke job greps for it).
    """
    model, batch = _tiny_model_and_batch(
        args.model, batch=args.batch_size, seed=args.seed,
        array_backend=args.model_array_backend,
    )
    from repro.training import Trainer, TrainerConfig

    checker = ATTNChecker(ATTNCheckerConfig(
        backend=args.backend, verification_mode=args.verification_mode,
        array_backend=args.array_backend, protect_scope=args.protect_scope,
    ))
    trainer = Trainer(model, config=TrainerConfig(learning_rate=5e-4), checker=checker)
    rows = []
    for _ in range(args.steps):
        result = trainer.train_step(batch)
        rows.append([
            result.step, f"{result.loss:.6f}", f"{result.step_seconds * 1e3:.1f}",
            f"{result.abft_seconds * 1e3:.2f}", result.detections, result.corrections,
        ])
    trainer.drain_verifications(batch=batch)
    xfer_ms = checker.transfer_seconds() * 1e3
    footer = (
        f"model substrate {trainer.model_array_backend}, checker array backend "
        f"{trainer.array_backend}; xfer total {xfer_ms:.3f} ms"
        + (" (zero host round-trips)" if xfer_ms == 0.0 else "")
    )
    return format_table(
        ["step", "loss", "step ms", "abft ms", "det", "corr"], rows,
        title=f"Protected training — {args.model} (tiny); {footer}",
    )


def run_train_parallel(args: argparse.Namespace) -> str:
    """Data-parallel protected fine-tuning with the checksummed all-reduce.

    Shards each global batch over ``--shards`` model replicas driven by
    ``--workers`` workers (``--executor`` picks the serial / thread / process
    backend), synchronises gradients through the checksum-protected
    collective, then repeats the run with a single serial worker on the same
    shard count and compares the trained weights byte-for-byte.  The footer
    states the equivalence verdict and the collective dispatch counters — the
    CI smoke job greps for ``byte-identical to 1-worker reference``.
    """
    from repro.training import DataParallelConfig, DataParallelTrainer, ReplicaSpec

    shards = args.shards if args.shards else max(args.workers, 1)
    global_batch = ((args.batch_size + shards - 1) // shards) * shards
    spec = ReplicaSpec(name=args.model, size="tiny", seed=args.seed, num_labels=2)
    probe = spec.build()
    data = SyntheticMRPC(
        num_examples=max(16, args.steps * global_batch),
        max_seq_len=probe.config.max_seq_len,
        vocab_size=probe.config.vocab_size,
    )
    batches = []
    for i in range(args.steps):
        batch = dict(data.encode(range(i * global_batch, (i + 1) * global_batch)))
        batch["attention_mask"] = np.ones_like(batch["attention_mask"])
        batches.append(batch)

    def run(workers: int, executor: str, overlap: Optional[bool] = None):
        config = DataParallelConfig(
            workers=workers,
            shards=shards,
            executor=executor,
            overlap_grad_reduce=args.overlap if overlap is None else overlap,
            bucket_cap_mb=args.bucket_cap_mb,
        )
        trainer = DataParallelTrainer(model_spec=spec, config=config)
        try:
            results = [trainer.train_step(batch) for batch in batches]
            state = trainer.state_dict()
            return results, state, trainer.timers.as_dict(), trainer.collective_counters()
        finally:
            trainer.close()

    results, state, timers, counters = run(args.workers, args.executor)
    # The reference is one serial worker launching buckets after backward,
    # so with --overlap the comparison also pins hook launches to it.
    reference_state = (
        run(1, "serial", overlap=False)[1]
        if args.workers > 1 or args.overlap
        else state
    )
    identical = set(state) == set(reference_state) and all(
        np.array_equal(np.asarray(state[k]), np.asarray(reference_state[k]))
        for k in state
    )
    rows = [
        [r.step, f"{r.loss:.6f}", f"{r.step_seconds * 1e3:.1f}",
         r.dirty_reductions, r.reduction_reexecutions, r.detections, r.corrections]
        for r in results
    ]
    footer = (
        ("weights byte-identical to 1-worker reference" if identical
         else "WEIGHTS DIVERGED FROM 1-WORKER REFERENCE")
        + f"; {counters['checksum_encodes']} checksum encodes, "
        f"{counters['checksum_verifies']} verifies, "
        f"{counters['mismatches']} mismatches; "
        f"all-reduce {timers.get('comm/allreduce', 0.0) * 1e3:.1f} ms, "
        f"verify {timers.get('comm/verify', 0.0) * 1e3:.1f} ms"
    )
    return format_table(
        ["step", "mean loss", "step ms", "dirty", "retries", "det", "corr"], rows,
        title=f"Data-parallel protected training — {args.model} (tiny), "
              f"{args.workers} workers, {shards} shards, {args.executor} executor; {footer}",
    )


def run_serve(args: argparse.Namespace) -> str:
    """Protected inference serving on a tiny causal decoder.

    Generates a deterministic request stream, serves it twice — protection
    off, then protection on (fused engine, sections always on as the
    incremental decode checksums require) — and reports per-configuration
    p50/p99 latency, tokens/sec, and the checker's detection counters.  The
    two runs see identical traffic; fault-free they produce byte-identical
    tokens (asserted in the footer).
    """
    from repro.serving import RequestGenerator, ServingConfig, ServingEngine

    model_name = args.model if args.model in ("gpt2", "gpt-neo") else "gpt2"
    reports = {}
    token_streams = {}
    for protected in (False, True):
        model = build_model(model_name, size="tiny", rng=np.random.default_rng(args.seed))
        checker = None
        if protected:
            checker = ATTNChecker(ATTNCheckerConfig(
                backend=args.backend, array_backend=args.array_backend,
                protect_scope=args.protect_scope,
            ))
            model.set_attention_hooks(checker)
        requests = RequestGenerator(
            vocab_size=model.config.vocab_size,
            prompt_len_range=(3, 6),
            new_tokens_range=(2, 5),
            seed=args.seed,
        ).generate(args.requests)
        engine = ServingEngine(
            model, checker=checker,
            config=ServingConfig(max_batch_size=args.batch_size),
        )
        report = engine.run(requests)
        if checker is not None:
            checker.close()
        reports[protected] = report
        token_streams[protected] = [r.tokens for r in report.results]
    identical = token_streams[False] == token_streams[True]
    rows = []
    for protected, report in reports.items():
        data = report.to_dict()
        rows.append([
            "on" if protected else "off",
            data["num_completed"], data["num_evicted"], data["total_new_tokens"],
            f"{data['latency_p50_ms']:.2f}", f"{data['latency_p99_ms']:.2f}",
            f"{data['tokens_per_second']:.0f}",
            data["checker_stats"].get("detections", 0),
        ])
    footer = (
        "fault-free protected tokens byte-identical to unprotected"
        if identical else "PROTECTED TOKENS DIVERGED FROM UNPROTECTED"
    )
    return format_table(
        ["protection", "completed", "evicted", "new tokens",
         "p50 ms", "p99 ms", "tok/s", "detections"],
        rows,
        title=f"Protected serving — {model_name} (tiny), "
              f"{args.requests} requests, batch {args.batch_size}; {footer}",
    )


def run_table2(args: argparse.Namespace) -> str:
    model, batch = _tiny_model_and_batch(args.model, batch=4)
    study = PropagationStudy(model, batch, rng=np.random.default_rng(args.seed))
    rows = []
    for error_type in ("inf", "nan", "near_inf"):
        for matrix in ("Q", "K", "V", "AS", "CL"):
            result = study.trace(matrix, error_type)
            rows.append([error_type, matrix] + [result.cell(m) for m in ("Q", "K", "V", "AS", "AP", "CL", "O")])
    return format_table(
        ["inject", "into", "Q", "K", "V", "AS", "AP", "CL", "O"], rows,
        title=f"Table 2 — error propagation ({args.model}, tiny config)",
    )


def run_table3(args: argparse.Namespace) -> str:
    table = gemm_ratio_table(model_names=MAIN_MODELS, batch_size=args.batch_size, size="paper")
    rows = [[name, format_percent(table[name].gemm_ratio)] for name in MAIN_MODELS]
    return format_table(["model", "GEMM ratio"], rows, title="Table 3 — GEMM workload ratio of attention")


def run_sec52(args: argparse.Namespace) -> str:
    model, batch = _tiny_model_and_batch(args.model, batch=4)
    campaign = DetectionCorrectionCampaign(model, batch, rng=np.random.default_rng(args.seed))
    results = campaign.run(trials=args.trials)
    rows = [
        [r.matrix, r.error_type, format_percent(r.detection_rate),
         format_percent(r.correction_rate), format_percent(r.recovery_rate)]
        for r in results
    ]
    footer = "ALL extreme errors corrected" if DetectionCorrectionCampaign.all_corrected(results) else "NOT all corrected"
    return format_table(
        ["matrix", "error", "detected", "corrected", "restored"], rows,
        title=f"Section 5.2 — detection & correction ({args.model}); {footer}",
    )


def run_fig7(args: argparse.Namespace) -> str:
    rows = []
    for name in OVERHEAD_MODELS:
        cost = TrainingStepCostModel(get_config(name, size="paper"), batch_size=args.batch_size)
        rows.append([name, format_percent(cost.attention_overhead()), format_percent(cost.step_overhead())])
    return format_table(
        ["model", "attention overhead", "per-step overhead"], rows,
        title=f"Figure 7 — ATTNChecker overhead (modelled A100, batch {args.batch_size})",
    )


def run_fig8(args: argparse.Namespace) -> str:
    rows = []
    for name in MAIN_MODELS:
        cost = TrainingStepCostModel(get_config(name, size="paper"), batch_size=args.batch_size)
        rows.append([
            name,
            format_percent(cost.attention_overhead(optimized=True)),
            format_percent(cost.attention_overhead(optimized=False)),
            format_percent(cost.step_overhead(optimized=True)),
            format_percent(cost.step_overhead(optimized=False)),
        ])
    return format_table(
        ["model", "attn OPT", "attn Non-OPT", "step OPT", "step Non-OPT"], rows,
        title=f"Figure 8 — overhead with / without GPU optimisation (batch {args.batch_size})",
    )


def run_fig9(args: argparse.Namespace) -> str:
    sweep = EncoderThroughputModel()
    custom, cublas = sweep.model_custom(), sweep.model_cublas()
    rows = [
        [c.batch_size, f"{c.throughput_tbps:.2f}", f"{b.throughput_tbps:.3f}"]
        for c, b in zip(custom, cublas)
    ]
    return format_table(
        ["batch", "ATTNChecker (TB/s)", "cuBLAS (TB/s)"], rows,
        title="Figure 9 — checksum-encoding throughput (modelled A100)",
    )


def run_fig10(args: argparse.Namespace) -> str:
    config = get_config("bert-base", size="paper")
    vulnerability = OperationVulnerability.from_table4("bert-base")
    rows = []
    for rate in args.rates:
        plan = optimize_abft_frequencies(
            config, batch_size=16, error_rates=ErrorRates.from_errors_per_1e25_flops(rate),
            vulnerability=vulnerability, target_coverage=1 - 1e-11,
            flops_multiplier=12 * 3 * 8,
        )
        rows.append([
            rate, f"{plan.frequencies['AS']:.2f}", f"{plan.frequencies['CL']:.2f}",
            f"{plan.frequencies['O']:.2f}", format_percent(plan.relative_overhead),
        ])
    return format_table(
        ["errors/1e25 flops", "f_AS", "f_CL", "f_O", "ABFT time vs always-on"], rows,
        title="Figure 10 — adaptive ABFT detection frequencies",
    )


def run_fig11(args: argparse.Namespace) -> str:
    rows = []
    for name in MAIN_MODELS:
        comparison = RecoveryCostModel(get_config(name, size="paper"), batch_size=args.batch_size).compare()
        rows.append([
            name, format_percent(comparison.checkpoint_restore_overhead, digits=0),
            format_percent(comparison.attnchecker_overhead), f"{comparison.improvement:.0f}x",
        ])
    return format_table(
        ["model", "checkpoint/restore", "ATTNChecker", "reduction"], rows,
        title="Figure 11 — per-step recovery overhead (modelled A100)",
    )


def run_fig12(args: argparse.Namespace) -> str:
    rows = [
        [p.model_name, f"{p.parameters / 1e9:.0f}B", f"{p.step_seconds:.2f}",
         format_percent(p.abft_overhead, digits=2)]
        for p in MultiGPUScaleModel(num_gpus=args.gpus).sweep()
    ]
    return format_table(
        ["model", "params", "step (s)", "ATTNChecker overhead"], rows,
        title=f"Figure 12 — data-parallel training on {args.gpus} GPUs (modelled)",
    )


#: Registry of experiments exposed by the CLI.
EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "quickstart": run_quickstart,
    "train": run_train,
    "train_parallel": run_train_parallel,
    "serve": run_serve,
    "backends": run_backends,
    "verification_modes": run_verification_modes,
    "table2": run_table2,
    "table3": run_table3,
    "sec52": run_sec52,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _array_backend_name(name: str) -> str:
    """Argparse type for ``--array-backend``: validate against the registry.

    Both failure modes produce a message listing what is *known* (registered
    backend names) versus what is *installed* (importable on this machine),
    so an unknown or missing name tells the user exactly what to do.
    """
    if name == "auto":
        return name
    try:
        resolve_backend_name(name)
    except (ValueError, BackendUnavailable) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ATTNChecker reproduction — run individual experiments from the command line.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["list"],
                        help="experiment to run, or 'list' to enumerate them")
    parser.add_argument("--model", default="bert-base", help="model name for the measured experiments")
    parser.add_argument("--matrix", default="AS", help="fault-injection matrix for quickstart")
    parser.add_argument("--error-type", default="inf", choices=["inf", "nan", "near_inf", "numeric"])
    parser.add_argument("--backend", default="fused", choices=list(CHECKER_BACKENDS),
                        help="ATTNChecker mechanics backend: fused ProtectionEngine "
                             "(default) or the per-GEMM reference implementation")
    parser.add_argument("--protect-scope", default="attention", choices=list(PROTECT_SCOPES),
                        help="protected-section scope: 'attention' (default, the "
                             "paper's three sections) or 'attention+ffn' (adds the "
                             "FF1/FF2 feed-forward sections)")
    parser.add_argument("--array-backend", default="auto", type=_array_backend_name,
                        metavar="{auto," + ",".join(KNOWN_ARRAY_BACKENDS) + "}",
                        help="array library the checksum chain runs on: 'auto' "
                             "(default) follows the model's arrays; naming a "
                             "registered backend pins the fused engine to it "
                             f"(known: {', '.join(KNOWN_ARRAY_BACKENDS)}; "
                             f"installed here: {', '.join(available_array_backends())})")
    parser.add_argument("--model-array-backend", default=None, type=_array_backend_name,
                        metavar="{auto," + ",".join(KNOWN_ARRAY_BACKENDS) + "}",
                        help="array library the *model substrate* lives on "
                             "(build_model(..., array_backend=...)): parameters, "
                             "activations, gradients and optimizer state are "
                             "device-resident on that backend; default is the "
                             "pure-NumPy substrate")
    parser.add_argument("--async", dest="verification_mode", action="store_const",
                        const="async", default="immediate",
                        help="verify boundary checksums asynchronously on a worker "
                             "thread, off the critical path (fused backend only)")
    parser.add_argument("--steps", type=int, default=4,
                        help="optimisation steps for the train experiments")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker count for the train_parallel experiment")
    parser.add_argument("--shards", type=int, default=None,
                        help="data-parallel shard (replica) count for "
                             "train_parallel; defaults to --workers")
    parser.add_argument("--executor", default="thread",
                        choices=["serial", "thread", "process"],
                        help="execution backend for the train_parallel workers")
    parser.add_argument("--overlap", action="store_true",
                        help="launch train_parallel's gradient buckets during "
                             "backward (byte-identical, overlapped)")
    parser.add_argument("--bucket-cap-mb", type=float, default=1.0,
                        dest="bucket_cap_mb",
                        help="soft per-bucket size cap in MiB of "
                             "train_parallel's gradient reduction")
    parser.add_argument("--trials", type=int, default=2, help="trials per cell for campaign experiments")
    parser.add_argument("--requests", type=int, default=8,
                        help="request count for the serve experiment")
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--gpus", type=int, default=1024, help="GPU count for fig12")
    parser.add_argument("--rates", type=float, nargs="+", default=[13, 14, 15, 16, 17, 18, 19, 20],
                        help="error rates (per 1e25 flops) for fig10")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        print("available experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
        return 0
    text = EXPERIMENTS[args.experiment](args)
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
