"""Data-parallel sharded training with a checksum-protected all-reduce.

:class:`DataParallelTrainer` shards each global batch across ``shards``
virtual ranks, every rank owning its own device-resident model replica,
optimizer and (optionally) per-shard :class:`~repro.core.ATTNChecker` whose
async verification drains independently of its peers.  Gradient
synchronisation goes through the :mod:`repro.comm` collective seam; with
``protect_collective=True`` (default) the all-reduce itself is ABFT-covered:
each rank attaches float64 gradient checksums, and the linearity identity
``checksum(sum of gradients) == sum of checksums`` is verified on the reduced
result (:class:`repro.comm.ProtectedCollective`).

**Determinism / byte-equivalence.**  The shard count is decoupled from the
worker count: ``shards`` fixes the numerical decomposition (R replicas, R
per-shard gradients, one rank-ordered reduction) while ``workers`` only
decides how many OS threads drive those ranks.  Because the reduction is a
deterministic left fold in rank order and every per-rank computation sees
identical inputs regardless of which thread runs it, training with any
worker count produces **byte-identical weights** at a fixed shard count —
the property the N-worker vs 1-worker equivalence test pins.  Thread workers
overlap where the backend releases the GIL (BLAS GEMMs on the NumPy
substrate, device kernels elsewhere); a process-based executor
(``executor="process"``) is available for GIL-free scaling, at the cost of
pickling gradients across the pipe.

**Dirty reductions and the stale policy.**  A checksum mismatch at the
reduction extends the existing ``stale_policy`` machinery to rank level:

* ``"record"`` — count the dirty reduction and proceed with its result;
* ``"reexecute"`` — re-execute the reduction from the ranks' retained (and
  still intact) local gradients under a fresh key, up to
  ``max_retries_per_step`` times — a transient fault in the collective does
  not recur;
* ``"abort"`` — raise :class:`~repro.training.trainer.StaleDetectionAbort`.

Per-rank *attention* faults follow the same policy before the collective:
each rank settles its own checker at the end of backward (for ``reexecute``
/ ``abort`` an async engine is drained so verdicts are in hand *before* the
rank contributes), and a dirty rank re-executes only its own
forward/backward — no optimizer state has advanced yet, so rank-level
re-execution is checkpoint-free by construction.

**Bucketed reduction — the one reduction path.**  Trainable parameters
are partitioned into size-capped buckets in reverse-registration order
(:class:`repro.comm.GradientBucketer`).  Each bucket reduces as one flat
payload under its own rendezvous key (``step{N}/bucket{k}``; the loss scalar
rides the final bucket), and the collective's last contributor folds it
eagerly.  A dirty reduction is therefore *bucket-granular*:
``stale_policy="reexecute"`` re-contributes only the dirty bucket's retained
clean payloads under ``step{N}/bucket{k}#retry{a}``.  The serial, thread and
process executors all reduce this way; the process executor buckets the
gradients its workers ship back, on the coordinator.

``overlap_grad_reduce`` only decides *when* a bucket launches.  On, each
parameter's post-accumulate gradient hook launches its bucket the moment the
bucket's last gradient lands, so the fold runs while backprop continues on
earlier layers.  Off — and whenever a rank-level re-execution is possible (a
checker under ``stale_policy="reexecute"``), so that a re-executed shard
never double-contributes — completed buckets queue and launch in readiness
order right after backward.  The per-bucket fold is the same rank-ordered
elementwise left fold over a pure concatenation either way, so training is
**byte-identical** for any launch mode, bucket cap and worker count.

Timer keys: ``parallel/step`` (coordinator wall clock), ``comm/allreduce``
(rendezvous + reduction) and ``comm/verify`` (checksum encode / recompute /
compare), the latter two folded from the per-rank workers into the shared
registry between steps; ``comm/bucket`` (flatten/unflatten bookkeeping),
``comm/overlap`` (backward wall time with a bucket reduction already in
flight) and ``comm/drain`` (post-backward wait for the remaining
reductions).  ``overlap_efficiency`` on the step result is
``overlap / (overlap + drain)``.
"""

from __future__ import annotations

import copy
import math
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import namespace_of
from repro.comm import (
    BucketAccounting,
    Collective,
    CollectiveError,
    DirtyReductionError,
    GradientBucketer,
    ProtectedCollective,
    ThreadCollective,
)
from repro.core.attention_checker import ATTNChecker, ATTNCheckerConfig
from repro.faults.injector import FaultInjector
from repro.nn.attention import AttentionHooks, ComposedHooks
from repro.nn.module import Module
from repro.training.optimizer import AdamW
from repro.training.trainer import (
    STALE_POLICIES,
    StaleDetectionAbort,
    _count_stale_dirty,
    clip_gradients,
)
from repro.utils.logging import get_logger
from repro.utils.timing import TimingRegistry

__all__ = [
    "EXECUTORS",
    "ReplicaSpec",
    "DataParallelConfig",
    "ParallelStepResult",
    "DataParallelTrainer",
]

logger = get_logger("training.parallel")

#: Supported executors: ``serial`` drives every rank on the calling thread
#: (the 1-worker reference), ``thread`` uses a pool of ``workers`` OS threads
#: over the GIL-releasing backend seam, ``process`` forks out to spawned
#: worker processes (NumPy substrate only; gradients cross the pipe).
EXECUTORS = ("serial", "thread", "process")


@dataclass
class ReplicaSpec:
    """Picklable recipe for building one model replica.

    Every rank builds from the *same* spec (same seed), so replicas start
    byte-identical on any executor — including spawned worker processes,
    which cannot receive live model objects.
    """

    name: str = "bert-base"
    size: str = "tiny"
    seed: int = 0
    num_labels: Optional[int] = None
    array_backend: Optional[str] = None
    overrides: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> Module:
        from repro.models import build_model

        return build_model(
            self.name,
            size=self.size,
            rng=np.random.default_rng(self.seed),
            num_labels=self.num_labels,
            array_backend=self.array_backend,
            **self.overrides,
        )


@dataclass
class DataParallelConfig:
    """Knobs of the data-parallel trainer.

    Attributes
    ----------
    workers:
        OS threads (or worker processes) driving the ranks.
    shards:
        Virtual ranks R — the numerical decomposition of the global batch.
        Defaults to ``workers``.  ``workers`` may be smaller than ``shards``
        (each thread then owns a stride of ranks); it must not be larger.
    executor:
        One of :data:`EXECUTORS`.
    learning_rate / weight_decay / max_grad_norm:
        Per-replica AdamW and clipping settings (clipping runs on the
        *reduced* gradient, identically on every rank).
    stale_policy / max_retries_per_step:
        Recovery policy for dirty reductions and per-rank stale attention
        verdicts (see the module docstring).
    protect_collective:
        Wrap the collective in a :class:`~repro.comm.ProtectedCollective`.
    sync_weights_on_init:
        Broadcast rank 0's weights to every replica at construction (a
        guard against divergent replica initialisation; also what exercises
        the ``broadcast`` collective).
    protection:
        Optional :class:`~repro.core.ATTNCheckerConfig`; each rank gets its
        own independent checker (and, in async mode, its own verification
        worker) built from a deep copy of this config.
    overlap_grad_reduce:
        Launch each gradient bucket from its post-accumulate hook during
        backward instead of right after it (see the module docstring).  The
        trained weights are byte-identical either way.
    bucket_cap_mb:
        Soft per-bucket size cap of the gradient reduction, in MiB.
    """

    workers: int = 2
    shards: Optional[int] = None
    executor: str = "thread"
    learning_rate: float = 5e-4
    weight_decay: float = 0.01
    max_grad_norm: float = 1.0
    stale_policy: str = "record"
    max_retries_per_step: int = 2
    protect_collective: bool = True
    sync_weights_on_init: bool = True
    protection: Optional[ATTNCheckerConfig] = None
    overlap_grad_reduce: bool = False
    bucket_cap_mb: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.bucket_cap_mb > 0:
            raise ValueError(f"bucket_cap_mb must be > 0, got {self.bucket_cap_mb}")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS}"
            )
        if self.stale_policy not in STALE_POLICIES:
            raise ValueError(
                f"unknown stale_policy {self.stale_policy!r}; "
                f"expected one of {STALE_POLICIES}"
            )
        if self.shards is None:
            self.shards = self.workers
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.workers > self.shards:
            raise ValueError(
                f"workers ({self.workers}) must not exceed shards ({self.shards}); "
                "extra workers would idle and break the fixed numerical decomposition"
            )

    @property
    def world_size(self) -> int:
        return int(self.shards)  # type: ignore[arg-type]


@dataclass
class ParallelStepResult:
    """Metrics of one data-parallel optimisation step."""

    step: int
    loss: float
    shard_losses: List[float]
    step_seconds: float
    #: Per-rank stale dirty attention verdicts (summed over ranks).
    stale_detections: int = 0
    #: Ranks that re-executed their forward/backward this step.
    rank_reexecutions: int = 0
    #: Gradient buckets whose reduction verified dirty this step.
    dirty_reductions: int = 0
    #: Re-executed reductions (``stale_policy="reexecute"``) this step.
    reduction_reexecutions: int = 0
    #: Attention detections / corrections summed over the rank checkers.
    detections: int = 0
    corrections: int = 0
    #: Gradient buckets of the reduction (always >= 1).
    buckets: int = 0
    #: Summed per-rank backward wall time with a bucket reduction in flight.
    overlap_seconds: float = 0.0
    #: Summed per-rank post-backward wait for the remaining reductions.
    drain_seconds: float = 0.0
    #: ``overlap / (overlap + drain)`` — 1.0 means the reduction fully hid
    #: behind backward, 0.0 means it all serialised after it.
    overlap_efficiency: float = 0.0

    @property
    def non_trainable(self) -> bool:
        return math.isnan(self.loss)


class _RankRunner:
    """One rank's replica, optimizer, checker and step logic.

    Shared by the thread/serial executors (R runners owned by the trainer)
    and the process executor (each worker process owns its ranks' runners).
    Phase A (:meth:`forward_backward` + :meth:`gradients`) produces the
    rank's contribution; phase B (:meth:`apply`) consumes the reduction.
    The optimizer only advances in phase B, so a phase-A re-execution after
    a stale dirty verdict restarts from genuinely clean state.
    """

    def __init__(
        self,
        rank: int,
        model: Module,
        config: DataParallelConfig,
        checker: Optional[ATTNChecker] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.rank = rank
        self.model = model
        self.config = config
        self.checker = checker
        self.injector = injector
        self.params = model.parameters()
        self.optimizer = AdamW(
            self.params,
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        # Bucket readiness (installed by install_bucket_hooks; process
        # workers have none, their coordinator buckets the shipped grads).
        self._tracker: Optional[Any] = None
        self._launch: Optional[Any] = None
        self._immediate = False
        self._ready_order: List[int] = []
        self._hook_handles: List[Any] = []
        #: Shard loss of the in-flight forward/backward attempt, readable by
        #: mid-backward bucket launches (the loss scalar rides the final
        #: bucket's payload instead of its own rendezvous).
        self.current_loss: float = math.nan
        hooks: List[AttentionHooks] = []
        if injector is not None:
            hooks.append(injector)
        if checker is not None:
            hooks.append(checker)
        if hooks:
            model.set_attention_hooks(ComposedHooks(hooks))
        model.train()

    # -- bucket readiness -----------------------------------------------------------

    def install_bucket_hooks(
        self, bucketer: GradientBucketer, launch: Any, immediate: bool
    ) -> None:
        """Install post-accumulate hooks that mark bucket readiness.

        ``launch(rank, bucket, grads, loss, during_backward)`` is the
        trainer's contribute callback.  ``immediate`` launches straight from
        the hook (mid backward); otherwise completed buckets queue in
        readiness order and the trainer launches them right after the
        checker settles — a re-executed attempt resets the queue, so a shard
        never double-contributes.
        """
        self._tracker = bucketer.tracker()
        self._launch = launch
        self._immediate = immediate
        for index, param in enumerate(self.params):
            handle = param.register_post_accumulate_grad_hook(
                lambda _t, i=index: self._on_grad_ready(i)
            )
            self._hook_handles.append(handle)

    def _on_grad_ready(self, param_index: int) -> None:
        bucket = self._tracker.mark(param_index)
        if bucket is None:
            return
        if self._immediate:
            self._launch(self.rank, bucket, self.gradients(), self.current_loss, True)
        else:
            self._ready_order.append(bucket)

    def take_ready_buckets(self) -> List[int]:
        """Bucket launch order after backward: deferred completions in
        readiness order, then never-completed buckets (zero-filled slices)
        ascending."""
        assert self._tracker is not None
        order = list(self._ready_order)
        self._ready_order = []
        order.extend(self._tracker.pending())
        return order

    # -- phase A ---------------------------------------------------------------------

    def forward_backward(self, shard: Dict[str, np.ndarray]) -> Tuple[float, int, int]:
        """Compute this rank's shard gradient; settle its own checker.

        Returns ``(loss, stale_dirty, reexecutions)``.  For ``reexecute`` /
        ``abort`` policies an async checker is drained so the verdict for
        *this* step's sections is in hand before the rank contributes to the
        collective — per-shard engines still drain independently of their
        peers, there is no cross-rank barrier here.
        """
        policy = self.config.stale_policy
        reexecutions = 0
        total_stale = 0
        while True:
            self.model.zero_grad()
            if self._tracker is not None:
                # Fresh attempt, fresh readiness: a re-executed shard starts
                # its bucket accounting over (post-backward launches only —
                # hook launches and re-execution are mutually exclusive).
                self._tracker.reset()
                self._ready_order = []
            output = self.model(
                shard["input_ids"],
                attention_mask=shard.get("attention_mask"),
                labels=shard["labels"],
            )
            loss_value = output.loss_value
            self.current_loss = loss_value
            if math.isfinite(loss_value):
                output.loss.backward()
            stale_dirty = 0
            if self.checker is not None:
                outcomes = list(self.checker.end_step())
                if policy != "record" and self.checker.config.verification_mode == "async":
                    outcomes.extend(self.checker.drain())
                stale_dirty = _count_stale_dirty(outcomes)
            total_stale += stale_dirty
            if stale_dirty and policy == "abort":
                raise StaleDetectionAbort(
                    f"rank {self.rank}: {stale_dirty} boundary check(s) verified "
                    f"dirty after their values were consumed (stale_policy='abort')"
                )
            if (
                stale_dirty
                and policy == "reexecute"
                and reexecutions < self.config.max_retries_per_step
            ):
                # No optimizer update has happened yet this step, so simply
                # re-running the shard is clean recovery; a transient fault
                # does not recur.
                reexecutions += 1
                continue
            return loss_value, total_stale, reexecutions

    def gradients(self) -> List[Any]:
        """This rank's gradients in parameter order (``None`` where backward
        skipped a parameter; bucket flattening zero-fills those slices)."""
        return [p.grad for p in self.params]

    # -- phase B ---------------------------------------------------------------------

    def apply(self, reduced: Sequence[Any], mean_loss: float) -> None:
        """Adopt the reduced gradient and advance the optimizer.

        Skipped entirely for a non-finite global mean loss, mirroring the
        single-device trainer's skip-on-non-finite rule — and because the
        mean is global, every rank makes the same decision.
        """
        if not math.isfinite(mean_loss):
            return
        for p, g in zip(self.model.parameters(), reduced):
            p.grad = g
        clip_gradients(self.model, self.config.max_grad_norm)
        self.optimizer.step()

    def close(self) -> None:
        if self.checker is not None:
            self.checker.close()
        for handle in self._hook_handles:
            handle.remove()
        self._hook_handles = []
        self.model.set_attention_hooks(None)


def _shard_batch(batch: Dict[str, np.ndarray], shards: int) -> List[Dict[str, np.ndarray]]:
    """Split a global batch into ``shards`` equal leading-axis slices."""
    size = len(batch["labels"])
    if size < shards:
        # Covers the empty batch too: an empty shard would contribute a NaN
        # loss and zero gradients, silently poisoning the global mean.
        raise ValueError(
            f"global batch size {size} is smaller than shards={shards}; "
            "every shard needs at least one row"
        )
    if size % shards != 0:
        raise ValueError(
            f"global batch size {size} is not divisible by shards={shards}; "
            "equal shards are required for the mean-of-means gradient to equal "
            "the global-batch gradient"
        )
    per = size // shards
    return [
        {k: v[r * per : (r + 1) * per] for k, v in batch.items()}
        for r in range(shards)
    ]


def _loss_array(xp: Any, loss_value: float) -> Any:
    out = xp.zeros((1,), dtype=xp.float64)
    out[0] = loss_value
    return out


# -- process executor ---------------------------------------------------------------

#: What a pipe to a dead peer process raises, on send or on receive.
_PIPE_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError)


def _process_worker(conn, spec: ReplicaSpec, config: DataParallelConfig,
                    owned: List[int]) -> None:
    """Worker-process main loop: forward/backward, then the optimizer update
    from the coordinator's reduction, for its owned ranks."""
    runners: Dict[int, _RankRunner] = {}
    for rank in owned:
        checker = (
            ATTNChecker(copy.deepcopy(config.protection))
            if config.protection is not None
            else None
        )
        runners[rank] = _RankRunner(rank, spec.build(), config, checker=checker)
    try:
        while True:
            cmd, payload = conn.recv()
            try:
                if cmd == "fwbw":
                    shards = payload
                    out = {}
                    for rank in owned:
                        loss, stale, reexec = runners[rank].forward_backward(shards[rank])
                        out[rank] = (loss, stale, reexec, runners[rank].gradients())
                    conn.send(("ok", out))
                elif cmd == "apply":
                    for rank, (reduced, mean_loss) in payload.items():
                        runners[rank].apply(reduced, mean_loss)
                    conn.send(("ok", None))
                elif cmd == "layout":
                    params = runners[owned[0]].params
                    conn.send(("ok", [(p.data.shape, p.data.dtype.str) for p in params]))
                elif cmd == "state":
                    conn.send(("ok", runners[payload].model.state_dict()))
                elif cmd == "load_state":
                    for runner in runners.values():
                        runner.model.load_state_dict(payload)
                    conn.send(("ok", None))
                elif cmd == "close":
                    conn.send(("ok", None))
                    return
                else:  # pragma: no cover - protocol guard
                    conn.send(("error", ("RuntimeError", f"unknown command {cmd!r}")))
            except BaseException as exc:
                conn.send(("error", (type(exc).__name__, str(exc))))
    except _PIPE_ERRORS:
        pass  # the coordinator is gone; there is no one left to answer
    finally:
        for runner in runners.values():
            runner.close()


class _ProcessPool:
    """Spawned worker processes, one per worker, each owning a rank stride."""

    def __init__(self, spec: ReplicaSpec, config: DataParallelConfig,
                 owned_by_worker: List[List[int]]) -> None:
        ctx = multiprocessing.get_context("spawn")
        self.owned_by_worker = owned_by_worker
        self.conns = []
        self.procs = []
        for owned in owned_by_worker:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_process_worker,
                args=(child_conn, spec, config, owned),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.conns.append(parent_conn)
            self.procs.append(proc)

    def _send(self, worker: int, cmd: str, payload: Any) -> None:
        try:
            self.conns[worker].send((cmd, payload))
        except _PIPE_ERRORS as exc:
            raise self._died(worker, exc) from exc

    def _recv(self, worker: int) -> Any:
        """One reply from ``worker``: its value, or the error it reported."""
        try:
            status, value = self.conns[worker].recv()
        except _PIPE_ERRORS as exc:
            raise self._died(worker, exc) from exc
        if status == "error":
            name, message = value
            if name == "StaleDetectionAbort":
                raise StaleDetectionAbort(message)
            raise RuntimeError(f"worker {worker} failed: {name}: {message}")
        return value

    def _died(self, worker: int, exc: BaseException) -> RuntimeError:
        code = self.procs[worker].exitcode
        return RuntimeError(
            f"worker {worker} died (exit code {code}; pipe: {type(exc).__name__})"
        )

    def request(self, worker: int, cmd: str, payload: Any) -> Any:
        self._send(worker, cmd, payload)
        return self._recv(worker)

    def broadcast_request(self, cmd: str, payloads: List[Any]) -> List[Any]:
        """Send to every worker first, then collect — keeps them concurrent."""
        for worker, payload in enumerate(payloads):
            self._send(worker, cmd, payload)
        return [self._recv(worker) for worker in range(len(self.conns))]

    def close(self) -> None:
        for conn, proc in zip(self.conns, self.procs):
            try:
                conn.send(("close", None))
                conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            conn.close()
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - hung worker safety net
                proc.terminate()


# -- the trainer --------------------------------------------------------------------


class DataParallelTrainer:
    """Data-parallel trainer over R virtual ranks and W workers (W <= R).

    Parameters
    ----------
    model_spec:
        Recipe every rank builds its replica from (required for the process
        executor; the default way to construct replicas elsewhere too).
    models:
        Alternative to ``model_spec`` for thread/serial executors: a list of
        ``shards`` pre-built replicas (must be identically initialised, or
        ``sync_weights_on_init`` left on).
    collective:
        Override the gradient collective; defaults to a
        :class:`~repro.comm.ThreadCollective` (op ``mean``), wrapped in a
        :class:`~repro.comm.ProtectedCollective` per
        ``config.protect_collective``.
    injector:
        Optional *seed-constructed* attention :class:`FaultInjector`; each
        rank gets its own deterministic child via ``injector.spawn(rank)``.
        Not supported by the process executor.
    collective_injector:
        Optional hook ``(key, rank, arrays)`` corrupting deposited
        contributions (e.g. :class:`repro.faults.CollectiveFaultInjector`);
        installed as the inner collective's ``fault_hook``.
    """

    def __init__(
        self,
        model_spec: Optional[ReplicaSpec] = None,
        models: Optional[Sequence[Module]] = None,
        config: Optional[DataParallelConfig] = None,
        collective: Optional[Collective] = None,
        injector: Optional[FaultInjector] = None,
        collective_injector: Optional[Any] = None,
    ) -> None:
        self.config = config or DataParallelConfig()
        self.timers = TimingRegistry()
        self.metrics: List[ParallelStepResult] = []
        self.global_step = 0
        self.collective_injector = collective_injector
        world = self.config.world_size
        if (model_spec is None) == (models is None):
            raise ValueError("pass exactly one of model_spec or models")
        if self.config.executor == "process":
            if model_spec is None:
                raise ValueError("the process executor needs a picklable model_spec")
            if injector is not None:
                raise ValueError(
                    "attention fault injection is not supported by the process "
                    "executor (hooks live in the worker processes); use the "
                    "collective_injector seam or the thread executor"
                )
            if model_spec.array_backend not in (None, "numpy"):
                raise ValueError(
                    "the process executor supports the NumPy substrate only "
                    f"(got array_backend={model_spec.array_backend!r})"
                )

        if collective is None:
            inner = ThreadCollective(
                world,
                op="mean",
                fault_hook=collective_injector,
                # The last contributor folds inside contribute, so a bucket
                # launched during backward reduces while backprop continues.
                eager_reduce=True,
                # Payloads are flat scratch buffers the trainer owns, so the
                # fold may accumulate into rank 0's deposit in place — except
                # under "reexecute", where the retained payloads must survive
                # the fold intact for bucket retry.
                consume_deposits=self.config.stale_policy != "reexecute",
            )
            collective = (
                ProtectedCollective(inner, timers=self.timers)
                if self.config.protect_collective
                else inner
            )
        elif collective.world_size != world:
            raise ValueError(
                f"collective world size {collective.world_size} != shards {world}"
            )
        self.collective = collective

        #: rank stride owned by each worker: worker w drives ranks w, w+W, ...
        workers = self.config.workers
        self._owned_by_worker = [list(range(w, world, workers)) for w in range(workers)]

        self._pool: Optional[ThreadPoolExecutor] = None
        self._procs: Optional[_ProcessPool] = None
        self.runners: List[_RankRunner] = []
        if self.config.executor == "process":
            self._procs = _ProcessPool(model_spec, self.config, self._owned_by_worker)
            if self.config.sync_weights_on_init and world > 1:
                state = self._procs.request(0, "state", self._owned_by_worker[0][0])
                self._procs.broadcast_request("load_state", [state] * workers)
        else:
            replicas = (
                list(models)
                if models is not None
                else [model_spec.build() for _ in range(world)]  # type: ignore[union-attr]
            )
            if len(replicas) != world:
                raise ValueError(
                    f"need exactly {world} replicas (one per shard), got {len(replicas)}"
                )
            for rank, model in enumerate(replicas):
                checker = (
                    ATTNChecker(copy.deepcopy(self.config.protection))
                    if self.config.protection is not None
                    else None
                )
                rank_injector = injector.spawn(rank) if injector is not None else None
                self.runners.append(
                    _RankRunner(rank, model, self.config, checker=checker,
                                injector=rank_injector)
                )
            if self.config.executor == "thread" and workers > 1:
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="dp-rank"
                )
            if self.config.sync_weights_on_init and world > 1:
                self._broadcast_initial_weights()

        # Per-step scratch (index-assigned, one writer per slot).
        self._shard_losses: List[float] = [math.nan] * world
        self._mean_losses: List[float] = [math.nan] * world
        self._stale_counts: List[int] = [0] * world
        self._reexec_counts: List[int] = [0] * world
        self._dirty_counts: List[int] = [0] * world
        self._retry_counts: List[int] = [0] * world

        # Bucketed reduction.  The process executor's coordinator buckets
        # the gradients its workers ship back (no hooks across the pipe), so
        # it partitions worker 0's parameter layout: zero-stride stand-ins
        # carry the shapes and dtypes without a replica of the weights.
        if self._procs is not None:
            arrays = [
                np.broadcast_to(np.zeros((), dtype=dtype), shape)
                for shape, dtype in self._procs.request(0, "layout", None)
            ]
        else:
            arrays = [p.data for p in self.runners[0].params]
        self._xp = namespace_of(arrays[0])
        self._bucketer = GradientBucketer(arrays, self.config.bucket_cap_mb)
        self._bucket_stats = BucketAccounting()
        self._bucket_payloads: List[Dict[int, List[Any]]] = [{} for _ in range(world)]
        self._first_launch: List[Optional[float]] = [None] * world
        # A checker under "reexecute" may re-run a shard after its backward;
        # hook launches would then double-contribute, so buckets launch just
        # after the checker settles instead.
        immediate = self.config.overlap_grad_reduce and not (
            self.config.protection is not None
            and self.config.stale_policy == "reexecute"
        )
        for runner in self.runners:
            runner.install_bucket_hooks(self._bucketer, self._launch_bucket, immediate)

    # -- construction helpers --------------------------------------------------------

    def _broadcast_initial_weights(self) -> None:
        state = self.runners[0].model.state_dict()
        names = sorted(state)
        arrays = [state[name] for name in names]
        for rank in range(self.config.world_size):
            received = self.collective.broadcast(
                "init/weights", rank, arrays if rank == 0 else None, root=0
            )
            if rank != 0:
                self.runners[rank].model.load_state_dict(dict(zip(names, received)))

    # -- one step ---------------------------------------------------------------------

    def _bucket_key(self, step: int, bucket: int) -> str:
        return f"step{step}/bucket{bucket}"

    def _launch_bucket(self, rank: int, bucket: int, grads: Sequence[Any],
                       loss: float, during_backward: bool) -> None:
        """Flatten and contribute one bucket of ``rank``'s gradients.

        Called from a post-accumulate hook mid-backward (hook launches), or
        after backward once the rank's checker settles, or by the process
        coordinator for the gradients a worker shipped back.  The flat
        payload is retained for bucket-granular retry.
        """
        begin = time.perf_counter()
        flat = self._bucketer.flatten(bucket, grads, self._xp)
        self._bucket_stats.add_bucket_seconds(time.perf_counter() - begin)
        payload = [flat]
        if bucket == self._bucketer.num_buckets - 1:
            # The loss scalar rides the final bucket's payload rather than a
            # rendezvous of its own — one fewer key per step, and the counts
            # still match the cost model's (num_buckets + 1) encode slots.
            payload.append(_loss_array(self._xp, loss))
        self._bucket_payloads[rank][bucket] = payload
        self._bucket_stats.record_launch(rank, bucket, during_backward)
        if during_backward and self._first_launch[rank] is None:
            self._first_launch[rank] = time.perf_counter()
        self.collective.contribute(self._bucket_key(self.global_step, bucket), rank, payload)

    def _worker_step(self, step: int, worker: int,
                     shards: List[Dict[str, np.ndarray]]) -> None:
        owned = self._owned_by_worker[worker]
        try:
            for rank in owned:
                runner = self.runners[rank]
                self._first_launch[rank] = None
                loss, stale, reexec = runner.forward_backward(shards[rank])
                backward_end = time.perf_counter()
                first = self._first_launch[rank]
                if first is not None:
                    self._bucket_stats.add_overlap_seconds(
                        max(0.0, backward_end - first)
                    )
                # Queued completions in readiness order, then zero-filled
                # buckets the loss never reached (ascending).
                for bucket in runner.take_ready_buckets():
                    self._launch_bucket(rank, bucket, runner.gradients(), loss, False)
                # The retained flat payloads now hold this shard's gradient;
                # apply() installs the reduction, so drop the local copies.
                runner.model.zero_grad()
                self._shard_losses[rank] = loss
                self._stale_counts[rank] = stale
                self._reexec_counts[rank] = reexec
            drain_begin = time.perf_counter()
            applied = self._reduce_buckets_with_policy(step, owned)
            self._bucket_stats.add_drain_seconds(time.perf_counter() - drain_begin)
            for rank in owned:
                self.runners[rank].apply(*applied[rank])
        except BaseException as exc:
            # Unblock peers waiting in the rendezvous; the coordinator
            # re-raises the original failure, not the poisoned peers'.
            self.collective.poison(exc)
            raise

    def _reduce_buckets_with_policy(
        self, step: int, owned: List[int]
    ) -> Dict[int, Tuple[List[Any], float]]:
        """Finish every bucket's reduction for ``owned`` ranks, applying the
        dirty policy *per bucket* — a mismatch re-reduces only the bucket it
        struck, from the ranks' retained flat payloads.

        Returns ``{rank: (parameter-order gradient list, mean loss)}`` and
        records each rank's mean loss.  Every worker runs this loop
        symmetrically over the same shared verdicts, so retries rendezvous
        without coordination.
        """
        policy = self.config.stale_policy
        num_buckets = self._bucketer.num_buckets
        flat: Dict[int, Dict[int, Any]] = {rank: {} for rank in owned}
        loss_val: Dict[int, float] = {}
        total_retries = 0
        for bucket in range(num_buckets):
            base_key = self._bucket_key(step, bucket)
            key = base_key
            attempt = 0
            while True:
                dirty = False
                for rank in owned:
                    try:
                        result = self.collective.finish(key, rank)
                    except DirtyReductionError as exc:
                        result = exc.reduced
                        dirty = True
                    flat[rank][bucket] = result[0]
                    if bucket == num_buckets - 1:
                        # The reduced loss scalar rides the final bucket.
                        loss_val[rank] = float(
                            np.asarray(result[1]).reshape(-1)[0]
                        )
                if not dirty:
                    break
                # Every worker observed the same shared verdict, so they all
                # take the same branch — no coordination needed.
                if policy == "abort":
                    raise StaleDetectionAbort(
                        f"step {step}: checksum-linearity mismatch on reduced "
                        f"{base_key!r} (stale_policy='abort')"
                    )
                if policy == "record" or attempt >= self.config.max_retries_per_step:
                    for rank in owned:
                        self._dirty_counts[rank] += 1
                    break
                # Bucket-granular re-reduction: only this bucket's retained
                # clean payloads go around again under a fresh key (transient
                # faults don't recur; the injector leaves '#retry' keys
                # alone); every other bucket's completed reduction stands.
                attempt += 1
                key = f"{base_key}#retry{attempt}"
                if 0 in owned:
                    # Exactly one worker owns rank 0, so the global retry is
                    # counted once however many workers observe it.
                    self._bucket_stats.record_retry(bucket)
                for rank in owned:
                    self.collective.contribute(
                        key, rank, self._bucket_payloads[rank][bucket]
                    )
            total_retries += attempt
        out: Dict[int, Tuple[List[Any], float]] = {}
        for rank in owned:
            # Every bucket verified or was given up on: no retry can need
            # the retained payloads any more.
            self._bucket_payloads[rank] = {}
            self._retry_counts[rank] += total_retries
            self._mean_losses[rank] = loss_val[rank]
            out[rank] = (self._materialize_bucket_grads(flat[rank]), loss_val[rank])
        return out

    def _materialize_bucket_grads(self, flat_by_bucket: Dict[int, Any]) -> List[Any]:
        """Parameter-order gradient views into the reduced flat buckets."""
        begin = time.perf_counter()
        full: List[Any] = [None] * self._bucketer.num_params
        for bucket in range(self._bucketer.num_buckets):
            for pi, view in self._bucketer.unflatten(
                bucket, flat_by_bucket[bucket]
            ).items():
                full[pi] = view
        self._bucket_stats.add_bucket_seconds(time.perf_counter() - begin)
        return full

    def train_step(self, batch: Dict[str, np.ndarray]) -> ParallelStepResult:
        """Run one data-parallel optimisation step on the global ``batch``."""
        self.global_step += 1
        step = self.global_step
        world = self.config.world_size
        shards = _shard_batch(batch, world)
        if self.collective_injector is not None and hasattr(
            self.collective_injector, "begin_step"
        ):
            self.collective_injector.begin_step(step)
        for slot in range(world):
            self._shard_losses[slot] = math.nan
            self._mean_losses[slot] = math.nan
            self._stale_counts[slot] = 0
            self._reexec_counts[slot] = 0
            self._dirty_counts[slot] = 0
            self._retry_counts[slot] = 0

        start = time.perf_counter()
        detections_before, corrections_before = self._checker_totals()
        if self._procs is not None:
            self._process_step(step, shards)
        elif self._pool is not None:
            futures = [
                self._pool.submit(self._worker_step, step, worker, shards)
                for worker in range(self.config.workers)
            ]
            errors: List[BaseException] = []
            for future in futures:
                try:
                    future.result()
                except BaseException as exc:  # noqa: BLE001 - gathered below
                    errors.append(exc)
            if errors:
                primary = next(
                    (e for e in errors if not isinstance(e, CollectiveError)), errors[0]
                )
                raise primary
        else:
            self._worker_step(step, 0, shards)

        if isinstance(self.collective, ProtectedCollective):
            self.collective.fold_timers(self.timers)
        elapsed = time.perf_counter() - start
        self.timers.add("parallel/step", elapsed)
        seconds = self._bucket_stats.pop_step_seconds()
        self.timers.add("comm/bucket", seconds["bucket"])
        self.timers.add("comm/overlap", seconds["overlap"])
        self.timers.add("comm/drain", seconds["drain"])
        overlap_s, drain_s = seconds["overlap"], seconds["drain"]
        total = overlap_s + drain_s
        detections_after, corrections_after = self._checker_totals()
        result = ParallelStepResult(
            step=step,
            loss=self._mean_losses[0],
            shard_losses=list(self._shard_losses),
            step_seconds=elapsed,
            stale_detections=sum(self._stale_counts),
            rank_reexecutions=sum(self._reexec_counts),
            dirty_reductions=self._dirty_counts[0],
            reduction_reexecutions=self._retry_counts[0],
            detections=detections_after - detections_before,
            corrections=corrections_after - corrections_before,
            buckets=self._bucketer.num_buckets,
            overlap_seconds=overlap_s,
            drain_seconds=drain_s,
            overlap_efficiency=overlap_s / total if total > 0 else 0.0,
        )
        self.metrics.append(result)
        return result

    def _process_step(self, step: int, shards: List[Dict[str, np.ndarray]]) -> None:
        """Drive one step through the worker processes.

        The forward/backward passes run concurrently in the children; the
        coordinator then reduces the shipped gradients through the *same*
        bucketed collective and dirty-reduction policy before shipping each
        rank's reduction back for the optimizer update.
        """
        assert self._procs is not None
        payloads = [
            {rank: shards[rank] for rank in owned} for owned in self._owned_by_worker
        ]
        replies = self._procs.broadcast_request("fwbw", payloads)
        reduced = self._process_reduce_bucketed(step, replies)
        self._procs.broadcast_request(
            "apply",
            [{rank: reduced[rank] for rank in owned} for owned in self._owned_by_worker],
        )

    def _process_reduce_bucketed(
        self, step: int, replies: List[Dict[int, Any]]
    ) -> Dict[int, Tuple[List[Any], float]]:
        """Coordinator-side bucketed reduction for the process executor.

        The gradients already crossed the pipe, so there is no in-backward
        overlap to win here — the point is the *identical numerical path*:
        the same buckets, the same flat folds, the same bucket-granular
        retry, so process-executor training stays byte-identical to the
        thread and serial executors.
        """
        for reply in replies:
            for rank in list(reply):
                # Popped so each shipped gradient list frees once flattened.
                loss, stale, reexec, grads = reply.pop(rank)
                self._shard_losses[rank] = loss
                self._stale_counts[rank] = stale
                self._reexec_counts[rank] = reexec
                for bucket in range(self._bucketer.num_buckets):
                    self._launch_bucket(rank, bucket, grads, loss, False)
        return self._reduce_buckets_with_policy(
            step, list(range(self.config.world_size))
        )

    def _checker_totals(self) -> Tuple[int, int]:
        detections = corrections = 0
        for runner in self.runners:
            if runner.checker is not None:
                detections += runner.checker.stats.total_detections
                corrections += runner.checker.stats.total_corrections
        return detections, corrections

    # -- epochs / evaluation -----------------------------------------------------------

    def train(
        self, batches: Iterable[Dict[str, np.ndarray]], epochs: int = 1
    ) -> List[ParallelStepResult]:
        batch_list = list(batches)
        if not batch_list:
            raise ValueError("no batches provided")
        for _ in range(epochs):
            for batch in batch_list:
                self.train_step(batch)
        return self.metrics

    def state_dict(self) -> Dict[str, Any]:
        """Rank 0's replica weights (identical on every rank by construction)."""
        if self._procs is not None:
            return self._procs.request(0, "state", self._owned_by_worker[0][0])
        return self.runners[0].model.state_dict()

    def collective_counters(self) -> Dict[str, int]:
        """The protected collective's cumulative dispatch counters."""
        if isinstance(self.collective, ProtectedCollective):
            return self.collective.counters()
        return {}

    def bucket_counters(self) -> Dict[str, Any]:
        """Cumulative bucket launch / retry counters of the reduction."""
        return self._bucket_stats.counters()

    def close(self) -> None:
        for runner in self.runners:
            runner.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self._procs is not None:
            self._procs.close()
        self.collective.close()

    def __enter__(self) -> "DataParallelTrainer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
