"""The benchmark's four closed-loop workloads.

Each workload builds the program from its seed, runs one closed-loop
operation at a time (a ``train_step``, or one served batch of requests) and
checks every operation's outputs.  A check that fails marks that operation
(a step, or a request on ``serve_kv``) failed; ``failures`` maps the index of
each failed operation to the names of the checks it failed.

Only public APIs of ``repro`` are used.  Sizes are chosen so that at least
``min_ops`` operations finish inside a 20 s run on a 2-CPU host; see
``README.md`` in this directory for the reasoning and the probe figures.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import ATTNChecker, ATTNCheckerConfig, SectionCostModel
from repro.data import DataLoader, SyntheticMRPC
from repro.faults import FaultInjector, FaultSpec
from repro.models import build_model
from repro.serving import ServingConfig, ServingEngine, ServingRequest
from repro.training import (
    DataParallelConfig,
    DataParallelTrainer,
    ReplicaSpec,
    Trainer,
)

VOCAB = 512
BATCH_SIZE = 8
#: Distinct training batches generated per seed and cycled through.
NUM_BATCHES = 16
#: Matrices the fault workload flips, in rotation (one flip per step).
FAULT_TARGETS = ("Q", "K", "V", "AS", "CL", "O", "H", "FO")
#: Relative per-step loss tolerance against the fault-free replay.
LOSS_RTOL = 1e-12
#: Leading operations whose outputs form the run's digest.  Every run makes
#: at least this many, so digests of one seed compare across commits.
DIGEST_OPS = 100


def _protection() -> ATTNCheckerConfig:
    return ATTNCheckerConfig(protect_scope="attention+ffn")


def _digest(values: Sequence[float]) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


def _finite_params(params) -> bool:
    return all(bool(np.isfinite(p.data).all()) for p in params)


def _masked_value_flip(record, batch) -> bool:
    """A flip of V at a padded key position: its attention probability is
    exactly 0, so it never reaches the protected CL boundary and changes
    nothing (the loss check against the fault-free replay still applies)."""
    if record.spec.matrix != "V":
        return False
    row, token = record.position[0], record.position[1]
    return not batch["attention_mask"][row, token]


def _final_pass_aborts(report) -> int:
    """Aborted vectors of the last checksum side that ran on a boundary.

    With both sides maintained, a column-side abort on a propagated pattern
    is handed to the row side (paper section 4.3); only aborts of the final
    pass leave a vector unrepaired.
    """
    last = report.row_report if report.row_report is not None else report.column_report
    return 0 if last is None else last.num_aborted


def _checker_counters(checkers: Sequence[ATTNChecker]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for checker in checkers:
        for key, seconds in checker.timers.as_dict().items():
            out[f"timer.{key}"] += seconds
        out["core.dispatches"] += sum(checker.dispatch_counts.values())
        cache = checker.weight_cache_stats()
        out["core.cache_hits"] += cache["hits"]
        out["core.cache_lookups"] += cache["hits"] + cache["misses"]
        out["core.workspace_allocs"] += checker.workspace_stats()["allocations"]
        out["core.detections"] += checker.stats.total_detections
        out["core.corrections"] += checker.stats.total_corrections
        out["core.residual_extreme"] += checker.stats.total_residual_extreme
        out["backend.xfer_s"] += checker.transfer_seconds()
    return out


class Workload:
    """Shared bookkeeping: operation walls, failures and program counters."""

    name = ""
    #: Operations a run makes at least, whatever ``--seconds`` says.
    min_ops = 100
    #: Program threads that compute (one BLAS thread each).
    workers = 1
    #: Operations per block of a traced run (untraced and traced alternate).
    trace_block = 5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.walls: List[float] = []
        self.failures: Dict[int, Set[str]] = defaultdict(set)
        self.totals: Dict[str, float] = defaultdict(float)

    # Subclasses implement setup (after a close), run_op, close and counters.

    def check_op(self) -> None:
        """Untimed checks of the operation just made, outside its trace span."""

    def verify(self) -> None:
        """Checks that need the whole run; they run after timing."""

    @property
    def ops(self) -> int:
        return len(self.walls)

    @property
    def attempted(self) -> int:
        return len(self.walls)

    def fail(self, index: int, check: str) -> None:
        self.failures[index].add(check)

    def failed_checks(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for checks in self.failures.values():
            for check in checks:
                counts[check] += 1
        return dict(sorted(counts.items()))

class TrainingWorkload(Workload):
    """Shared data, loss record and step accounting of the training workloads."""

    model_overrides: Dict[str, int] = {}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        data = SyntheticMRPC(
            num_examples=BATCH_SIZE * NUM_BATCHES,
            max_seq_len=self.model_overrides["max_seq_len"],
            vocab_size=VOCAB,
            seed=seed,
        )
        self.batches = DataLoader(data, batch_size=BATCH_SIZE, shuffle=False).batches()
        self.losses: List[float] = []

    def _batch(self, index: int):
        return self.batches[index % len(self.batches)]

    def completed(self) -> Tuple[int, int]:
        """Samples and input tokens finished by the timed steps."""
        return BATCH_SIZE * self.ops, BATCH_SIZE * self.model_overrides["max_seq_len"] * self.ops

    def step_samples(self) -> List[float]:
        return self.walls

    def request_samples(self) -> List[float]:
        """A training step is the closed loop's request: one batch in, one update out."""
        return self.walls

    def _timed_step(self, trainer):
        index = self.ops
        start = time.perf_counter()
        result = trainer.train_step(self._batch(index))
        self.walls.append(time.perf_counter() - start)
        self.losses.append(result.loss)
        if not math.isfinite(result.loss):
            self.fail(index, "finite_loss")
        return index, result

    def digest(self) -> Dict[str, object]:
        head = self.losses[:DIGEST_OPS]
        return {"digest_ops": len(head), "final_loss": head[-1] if head else None,
                "loss_digest": _digest(head)}


class TrainProtected(TrainingWorkload):
    """Single-rank ``Trainer`` with AdamW under attention+FFN protection."""

    name = "train_protected"
    model_overrides = dict(
        hidden_size=128, num_layers=2, num_heads=4, intermediate_size=512, max_seq_len=32,
    )
    inject = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.trainer: Optional[Trainer] = None
        self.injector: Optional[FaultInjector] = None

    def _build(self, inject: bool):
        model = build_model(
            "bert-base", size="tiny", rng=np.random.default_rng(self.seed),
            vocab_size=VOCAB, **self.model_overrides,
        )
        injector = FaultInjector([], seed=self.seed, enabled=False) if inject else None
        trainer = Trainer(
            model, checker=ATTNChecker(_protection()),
            fault_hooks=[injector] if injector is not None else None,
        )
        # Warm-up: fills the weight-encoding cache and the checksum workspace.
        trainer.train_step(self.batches[0])
        return trainer, injector

    def setup(self) -> None:
        self.trainer, self.injector = self._build(self.inject)

    def close(self) -> None:
        if self.trainer is not None:
            self.trainer.checker.close()
        self.trainer = self.injector = None

    def run_op(self) -> None:
        index, result = self._timed_step(self.trainer)
        if not _finite_params(self.trainer.model.parameters()):
            self.fail(index, "finite_weights")
        if result.detections:
            self.fail(index, "no_false_detection")

    def counters(self) -> Dict[str, float]:
        out = _checker_counters([self.trainer.checker])
        if self.injector is not None:
            out["faults.injections"] = self.injector.num_injections
        return out


class TrainFaults(TrainProtected):
    """``train_protected`` plus one exponent-MSB flip per step, rotating over
    the eight injectable matrices and over the layers.

    After each timed step an untimed fault-free replay runs the same batch
    from the same weights, optimizer state and dropout stream, and the two
    losses must agree within ``LOSS_RTOL``.  A replay that ran on freely from
    the start would compare trajectories instead of steps: the round-off of
    each correction, amplified by training, moved it 2e-12 away after 170
    steps.
    """

    name = "train_faults"
    inject = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.replay: Optional[Trainer] = None

    def close(self) -> None:
        super().close()
        if self.replay is not None:
            self.replay.checker.close()
        self.replay = None

    def run_op(self) -> None:
        trainer, injector = self.trainer, self.injector
        index = self.ops
        batch = self._batch(index)
        self.before_step = trainer.model.state_dict(), trainer.optimizer.state_dict()
        injector.specs = [FaultSpec(
            matrix=FAULT_TARGETS[index % len(FAULT_TARGETS)],
            error_type="near_inf",
            layer_index=(index // len(FAULT_TARGETS)) % self.model_overrides["num_layers"],
        )]
        injector.arm()
        injections = injector.num_injections
        index, result = self._timed_step(trainer)
        injector.disarm()
        reports = [o.report for o in trainer.checker.take_recent_outcomes() if o.report]
        if injector.num_injections - injections != 1:
            self.fail(index, "one_flip_per_step")
        elif result.detections < 1 and not _masked_value_flip(injector.records[-1], batch):
            self.fail(index, "flip_detected")
        if any(r.residual_extreme for r in reports):
            self.fail(index, "no_residual_extreme")
        if any(_final_pass_aborts(r) for r in reports):
            self.fail(index, "no_unrepaired_abort")
        if not _finite_params(trainer.model.parameters()):
            self.fail(index, "finite_weights")

    def check_op(self) -> None:
        if self.replay is None:
            # Built after set-up so that set-up time covers the program only;
            # its warm-up leaves its dropout stream where the timed trainer's is.
            self.replay, _ = self._build(inject=False)
        index = self.ops - 1
        model_state, optimizer_state = self.before_step
        self.replay.model.load_state_dict(model_state)
        self.replay.optimizer.load_state_dict(optimizer_state)
        reference = self.replay.train_step(self._batch(index)).loss
        if not abs(self.losses[index] - reference) <= LOSS_RTOL * abs(reference):
            self.fail(index, "loss_equals_fault_free_replay")


class TrainDP2(TrainingWorkload):
    """``DataParallelTrainer`` over two ranks with the overlapped, bucketed
    reduction through the protected collective and no model checker.

    One thread drives both ranks.  With one thread per rank the two threads
    need both CPUs of a 2-CPU host, and on a shared host the second CPU is
    not always there: the step time of one ten-seed set moved from 135 ms to
    215 ms halfway through (quartile spread 0.42 of the median), while the
    single-threaded workloads stayed within 0.05.  The collective, the
    bucketing and the checksum work are the same either way; only their
    overlap with the other rank's backward is lost.
    """

    name = "train_dp2"
    ranks = 2
    model_overrides = dict(
        hidden_size=128, num_layers=4, num_heads=4, intermediate_size=512, max_seq_len=16,
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.trainer: Optional[DataParallelTrainer] = None

    def setup(self) -> None:
        spec = ReplicaSpec(
            name="bert-base", size="tiny", seed=self.seed,
            overrides=dict(vocab_size=VOCAB, **self.model_overrides),
        )
        self.trainer = DataParallelTrainer(
            model_spec=spec,
            config=DataParallelConfig(
                workers=self.workers, shards=self.ranks, executor="thread",
                overlap_grad_reduce=True,
            ),
        )
        self.trainer.train_step(self.batches[0])
        params = len(self.trainer.runners[0].params)
        self.expected_verifies = SectionCostModel.collective_checksum_dispatches_per_step(
            params + 1, self.ranks, num_buckets=self.trainer.metrics[-1].buckets,
        )["verify"]

    def close(self) -> None:
        if self.trainer is not None:
            self.trainer.close()
        self.trainer = None

    def run_op(self) -> None:
        verifies = self.trainer.collective.counters()["checksum_verifies"]
        index, result = self._timed_step(self.trainer)
        self.totals["comm.drain_s"] += result.drain_seconds / self.ranks
        self.totals["comm.overlap_s"] += result.overlap_seconds / self.ranks
        self.totals["comm.retries"] += result.reduction_reexecutions
        if result.dirty_reductions:
            self.fail(index, "no_unrecovered_dirty_reduction")
        done = self.trainer.collective.counters()["checksum_verifies"] - verifies
        if done != self.expected_verifies:
            self.fail(index, "verifies_equal_cost_model")
        if not all(_finite_params(r.params) for r in self.trainer.runners):
            self.fail(index, "finite_weights")

    def counters(self) -> Dict[str, float]:
        out = _checker_counters([r.checker for r in self.trainer.runners if r.checker])
        out.update(self.totals)
        return out


class StratifiedRequests:
    """Seeded request batches with prompts of 16-48 tokens and budgets of
    16-64 new tokens.

    The ranges are cut into ``batch_size`` bands of ``batch_size`` evenly
    spaced values each, and every batch takes one prompt length and one
    budget from each band (seeded choice within a band, seeded pairing of
    prompt band to budget band).  Each batch thus mixes short and long
    requests the same way, and every block of ``batch_size`` batches uses
    each value once.  Decode cost depends on these lengths and on which
    requests share a batch, not on token values, so seeds differ in content
    while serving the same amount of work; uniform independent lengths made
    per-seed throughput differ by more than the host's own noise.
    """

    prompt_range = (16, 48)
    budget_range = (16, 64)

    def __init__(self, seed: int, batch_size: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.batch_size = batch_size
        self.pending: List[List[ServingRequest]] = []
        self.next_id = 0

    def _bands(self, bounds: Tuple[int, int]) -> np.ndarray:
        n = self.batch_size
        values = np.linspace(bounds[0], bounds[1], n * n).round().astype(int)
        # Column j of the result holds batch j's value from every band.
        return np.stack([self.rng.permutation(band) for band in values.reshape(n, n)])

    def take(self) -> List[ServingRequest]:
        """The next batch of ``batch_size`` requests."""
        if not self.pending:
            prompts, budgets = self._bands(self.prompt_range), self._bands(self.budget_range)
            for j in range(self.batch_size):
                pairing = self.rng.permutation(self.batch_size)
                batch = []
                for band in range(self.batch_size):
                    length = int(prompts[band, j])
                    prompt = tuple(int(t) for t in self.rng.integers(1, VOCAB, size=length))
                    batch.append(ServingRequest(
                        self.next_id, prompt, int(budgets[pairing[band], j])))
                    self.next_id += 1
                self.pending.append(batch)
        return self.pending.pop(0)


class ServeKV(Workload):
    """``ServingEngine`` over a gpt2-family decoder, attention+FFN protected;
    one operation serves one batch of ``batch_size`` fresh requests."""

    name = "serve_kv"
    batch_size = 4
    trace_block = 1
    #: Batches per run at least, so that ``request_ms_p90`` has >= 100 requests.
    min_ops = 25
    model_overrides = dict(
        hidden_size=256, num_layers=2, num_heads=4, intermediate_size=1024, max_seq_len=128,
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.requests = StratifiedRequests(seed, self.batch_size)
        self.warmup = self.requests.take()
        self.first_batch: Optional[List[ServingRequest]] = None
        self.latencies: List[float] = []
        self.decode_walls: List[float] = []
        self.tokens: List[List[int]] = []
        self.engine: Optional[ServingEngine] = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def completed(self) -> Tuple[int, int]:
        """Requests served in full and the tokens they generated."""
        done = [tokens for i, tokens in enumerate(self.tokens)
                if "not_evicted" not in self.failures.get(i, ())]
        return len(done), sum(len(tokens) for tokens in done)

    def step_samples(self) -> List[float]:
        """A serving step is one ``decode_step``: one token for every live slot."""
        return self.decode_walls

    def request_samples(self) -> List[float]:
        return self.latencies

    def _build(self, protected: bool) -> ServingEngine:
        model = build_model(
            "gpt2", size="tiny", rng=np.random.default_rng(self.seed),
            vocab_size=VOCAB, **self.model_overrides,
        )
        checker = None
        if protected:
            checker = ATTNChecker(_protection())
            model.set_attention_hooks(checker)
        return ServingEngine(
            model, checker=checker, config=ServingConfig(max_batch_size=self.batch_size),
        )

    def setup(self) -> None:
        self.engine = self._build(protected=True)
        self.engine.run(self.warmup)
        model = self.engine.model
        walls = self.decode_walls

        def timed_decode_step(*args, **kwargs):
            # Looked up per call so that a traced run's class-level wrapper
            # still sees every decode step.
            start = time.perf_counter()
            try:
                return type(model).decode_step(model, *args, **kwargs)
            finally:
                walls.append(time.perf_counter() - start)

        model.decode_step = timed_decode_step

    def close(self) -> None:
        if self.engine is not None:
            self.engine.checker.close()
        self.engine = None

    def run_op(self) -> None:
        batch = self.requests.take()
        first = len(self.latencies)
        report = self.engine.run(batch)
        self.walls.append(report.wall_seconds)
        if self.first_batch is None:
            self.first_batch = batch
        self.totals["serving.decode_steps"] += report.decode_steps
        self.totals["serving.slot_steps"] += report.decode_slot_steps
        self.totals["serving.verify_s"] += report.timer_seconds.get("serve/verify", 0.0)
        for offset, (request, result) in enumerate(zip(batch, report.results)):
            index = first + offset
            self.latencies.append(result.latency_seconds)
            self.tokens.append(list(result.tokens))
            if result.status != "completed":
                self.fail(index, "not_evicted")
            if result.num_tokens != request.max_new_tokens:
                self.fail(index, "full_budget")
            if result.repaired_detections:
                self.fail(index, "no_false_detection")

    def verify(self) -> None:
        """The first batch's tokens must equal an unprotected replay."""
        if self.first_batch is None:
            return
        report = self._build(protected=False).run(self.first_batch)
        for index, result in enumerate(report.results):
            if list(result.tokens) != self.tokens[index]:
                self.fail(index, "tokens_equal_unprotected_replay")

    def counters(self) -> Dict[str, float]:
        out = _checker_counters([self.engine.checker])
        out.update(self.totals)
        return out

    def digest(self) -> Dict[str, object]:
        head = self.tokens[:DIGEST_OPS]
        flat = [t for tokens in head for t in tokens]
        return {"digest_ops": len(head), "tokens": len(flat), "token_digest": _digest(flat)}


WORKLOADS = {w.name: w for w in (TrainProtected, TrainFaults, TrainDP2, ServeKV)}
