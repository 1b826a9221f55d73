"""ATTNChecker: systematic ABFT protection for the attention mechanism.

:class:`ATTNChecker` is an :class:`repro.nn.AttentionHooks` implementation
that plugs into :class:`repro.nn.MultiHeadAttention` (and therefore into every
model of the zoo) and realises the protection scheme of Sections 4.2–4.6.
It is a thin *policy* layer — adaptive per-section detection frequencies
(``f_AS``, ``f_CL``, ``f_O``), thresholds, statistics and timing — over the
mechanics of :class:`repro.core.engine.ProtectionEngine`: checksums are
encoded once per protection section and passed through all member GEMMs in a
single dispatch at the section-boundary GEMM (the paper's Section 4.4
design), three Python dispatches per layer instead of six.

The engine runs in one of three *verification modes*
(:data:`VERIFICATION_MODES`; see :mod:`repro.core.engine` for the mechanics):

===========  ==============================  ===========================  ===============
mode         critical-path latency           guarantee                    staleness bound
===========  ==============================  ===========================  ===============
immediate    full: verify at each boundary,  detection + correction       none
             inside the forward pass         before values are consumed
deferred     encode/carry only; one batched  detection only               one step
             flush at ``end_step``           (values already consumed)    (the flush)
async        encode/carry + queue swap; a    detection + bounded-         ``max_pending_
             worker thread verifies off      staleness correction of      steps`` steps
             the critical path               the retained boundary        (backpressure)
                                             matrix; dirty outcomes
                                             flagged ``stale``
===========  ==============================  ===========================  ===============

Detection decisions of async mode are byte-identical to deferred mode (both
run the same batched pass over the same per-step snapshots).  Use
:meth:`ATTNChecker.critical_path_seconds` vs :meth:`ATTNChecker.overhead_seconds`
to split the checker time spent on the training thread from total checker
work including the async worker.

The checker is completely transparent to the model: attaching it changes no
shapes and no semantics of the forward/backward pass (one of the paper's
stated design goals).

Usage
-----
>>> from repro.models import build_model
>>> from repro.core import ATTNChecker, ATTNCheckerConfig
>>> model = build_model("bert-base", size="tiny")
>>> checker = ATTNChecker(ATTNCheckerConfig(verification_mode="async"))
>>> model.set_attention_hooks(checker)
>>> # ... train as usual; checker.stats reports detections/corrections.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.backend import ArrayBackend, get_backend
from repro.core.correction import MatrixCorrectionReport
from repro.core.engine import VERIFICATION_MODES, ProtectionEngine, SectionOutcome
from repro.core.hooks import AttentionHooks, SectionContext
from repro.core.sections import PROTECTION_SECTIONS, PROTECT_SCOPES, sections_for_scope
from repro.core.thresholds import ABFTThresholds
from repro.utils.timing import TimingRegistry, XFER_PREFIX

__all__ = [
    "VERIFICATION_MODES",
    "ATTNCheckerConfig",
    "SectionStats",
    "CheckerStats",
    "ATTNChecker",
]


@dataclass
class ATTNCheckerConfig:
    """Configuration of the checker.

    Attributes
    ----------
    thresholds:
        EEC-ABFT thresholds (T_near-INF, T_correct, detection tolerance).
    frequencies:
        Per-section detection frequency in [0, 1] (Section 4.5); 1.0 checks
        every execution, 0.5 every other execution, 0 disables the section.
        Sections of the protection scope that are not named default to 1.0.
    protect_scope:
        Which registered protection sections the checker drives
        (:data:`repro.core.sections.PROTECT_SCOPES`):

        * ``"attention"`` (default) — the historical ``AS``/``CL``/``O``
          triple, bit-for-bit identical to the pre-generalization checker;
        * ``"attention+ffn"`` — additionally protect the feed-forward GEMMs
          through the single-GEMM sections ``FF1`` (boundary ``H``) and
          ``FF2`` (boundary ``FO``) — every registered section.

        Hooks from out-of-scope blocks are ignored, so a model whose
        ``FeedForward`` modules are instrumented can still run an
        attention-only checker unchanged.
    array_backend:
        Which array library the checksum chain runs on — a name from
        :data:`repro.backend.KNOWN_ARRAY_BACKENDS` or ``"auto"`` (default).
        Orthogonal to the verification mode.  ``"auto"``
        *follows* the arrays each protection section produces (a NumPy model
        is checked with NumPy, a Torch tensor with Torch — never a host
        round-trip).  Naming a backend *pins* the engine to it: foreign
        section outputs are adopted and repaired values written back, with
        the copies timed under the ``xfer/h2d`` / ``xfer/d2h`` keys so
        transfer overhead reports separately from checksum math.  Unknown
        names raise :class:`ValueError` listing the known backends; known
        names whose library is missing raise
        :class:`repro.backend.BackendUnavailable` listing what is installed.
    verification_mode:
        One of :data:`VERIFICATION_MODES` (see the module docstring table and
        :mod:`repro.core.engine`):

        * ``"immediate"`` (default) — verify and correct at each section
          boundary, inside the forward pass;
        * ``"deferred"`` — queue boundary verifications and run them in one
          batched pass per step at :meth:`ATTNChecker.end_step` (detection
          only);
        * ``"async"`` — snapshot each step's queued boundary verifications
          at :meth:`ATTNChecker.end_step` and verify them on a worker
          thread, off the training critical path, with bounded-staleness
          correction of the retained boundary matrices.  Results are folded
          into :attr:`ATTNChecker.stats` as they are harvested at subsequent
          ``end_step`` calls or at :meth:`ATTNChecker.drain`.
    max_pending_steps:
        Async only: bound on in-flight submitted step batches; ``end_step``
        blocks once the bound is reached (backpressure), which is also the
        detection staleness window in steps.
    repair_operands:
        After a boundary-matrix correction, additionally repair the upstream
        operand (Q, K or V) whose 0D fault caused the propagation.  The
        boundary correction alone restores the forward value (what the paper
        evaluates); repairing the operand also keeps the *backward* pass
        clean, which this NumPy reproduction needs for the Figure-6
        training-loss experiment because the corrupted operand is reused by
        autograd.  Costs nothing in the fault-free path.
    refresh_checksums:
        Rebuild column checksums after a row-side repair (see
        :func:`repro.core.correction.correct_matrix`).
    collect_timing:
        Record wall-clock time per ABFT phase in :attr:`ATTNChecker.timers`.
    """

    thresholds: ABFTThresholds = field(default_factory=ABFTThresholds)
    frequencies: Dict[str, float] = field(default_factory=lambda: {"AS": 1.0, "CL": 1.0, "O": 1.0})
    protect_scope: str = "attention"
    array_backend: str = "auto"
    verification_mode: str = "immediate"
    max_pending_steps: int = 2
    repair_operands: bool = True
    refresh_checksums: bool = True
    collect_timing: bool = True

    def __post_init__(self) -> None:
        if self.protect_scope not in PROTECT_SCOPES:
            raise ValueError(
                f"unknown protect_scope {self.protect_scope!r}; "
                f"expected one of {PROTECT_SCOPES}"
            )
        active = sections_for_scope(self.protect_scope)
        for name, value in self.frequencies.items():
            if name not in active:
                raise KeyError(f"unknown protection section {name!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"frequency for section {name} must be in [0, 1], got {value}")
        for name in active:
            self.frequencies.setdefault(name, 1.0)
        if self.array_backend != "auto":
            # Fail fast with the registry's helpful unknown-vs-uninstalled
            # message instead of at the first protected forward pass.
            get_backend(self.array_backend)
        if self.verification_mode not in VERIFICATION_MODES:
            raise ValueError(
                f"unknown verification_mode {self.verification_mode!r}; "
                f"expected one of {VERIFICATION_MODES}"
            )
        if not isinstance(self.max_pending_steps, int) or self.max_pending_steps < 1:
            raise ValueError(
                f"max_pending_steps must be a positive integer, got {self.max_pending_steps!r}"
            )

    @property
    def active_sections(self) -> Dict[str, Any]:
        """``{name: ProtectionSection}`` for every section in the scope."""
        return sections_for_scope(self.protect_scope)


@dataclass
class SectionStats:
    """Counters for one protection section."""

    checks_run: int = 0
    checks_skipped: int = 0
    detections: int = 0
    corrections: int = 0
    aborted_vectors: int = 0
    residual_extreme: int = 0
    operand_repairs: int = 0
    #: Boundaries that verified dirty only after their values were consumed
    #: (async verification) — candidates for re-execution/abort policies.
    stale_detections: int = 0

    def record(self, report: MatrixCorrectionReport) -> None:
        self.checks_run += 1
        self.detections += report.detected
        self.corrections += report.corrected
        self.aborted_vectors += report.aborted
        self.residual_extreme += report.residual_extreme


@dataclass
class CheckerStats:
    """Aggregated statistics across all sections."""

    sections: Dict[str, SectionStats] = field(
        default_factory=lambda: {name: SectionStats() for name in PROTECTION_SECTIONS}
    )

    @property
    def total_detections(self) -> int:
        return sum(s.detections for s in self.sections.values())

    @property
    def total_corrections(self) -> int:
        return sum(s.corrections for s in self.sections.values())

    @property
    def total_residual_extreme(self) -> int:
        return sum(s.residual_extreme for s in self.sections.values())

    @property
    def total_checks(self) -> int:
        return sum(s.checks_run for s in self.sections.values())

    @property
    def total_stale_detections(self) -> int:
        return sum(s.stale_detections for s in self.sections.values())

    def reset(self) -> None:
        for name in list(self.sections):
            self.sections[name] = SectionStats()


class ATTNChecker(AttentionHooks):
    """The ABFT attention hook: policy layer over the fused ProtectionEngine."""

    def __init__(self, config: Optional[ATTNCheckerConfig] = None) -> None:
        self.config = config or ATTNCheckerConfig()
        active = self.config.active_sections
        self.stats = CheckerStats(
            sections={name: SectionStats() for name in active}
        )
        self.timers = TimingRegistry()
        self.last_reports: Dict[str, MatrixCorrectionReport] = {}
        #: Bounded ring of recently verified section outcomes, drained by
        #: :meth:`take_recent_outcomes` (the serving engine reads per-request
        #: fault attribution from here after each prefill/decode step).
        self.recent_outcomes: Deque[SectionOutcome] = deque(maxlen=1024)
        self._freq_accumulators: Dict[str, float] = {name: 0.0 for name in active}
        #: Resolved array-backend pin; ``None`` = follow the section's arrays.
        self.array_backend: Optional[ArrayBackend] = (
            None if self.config.array_backend == "auto"
            else get_backend(self.config.array_backend)
        )
        self.engine = ProtectionEngine(
            thresholds=self.config.thresholds,
            refresh_checksums=self.config.refresh_checksums,
            repair_operands=self.config.repair_operands,
            timers=self.timers,
            verification_mode=self.config.verification_mode,
            max_pending_steps=self.config.max_pending_steps,
            array_backend=self.array_backend,
        )

    # -- configuration shortcuts ------------------------------------------------

    @property
    def array_backend_name(self) -> str:
        """Configured array backend (``"auto"`` = follow the section arrays)."""
        return self.config.array_backend

    def transfer_seconds(self) -> float:
        """Wall-clock spent copying arrays between the model's array library
        and a pinned engine backend (the ``xfer/*`` keys).  Exactly zero on
        the pure-NumPy path and whenever the engine follows its inputs."""
        return self.timers.total(prefix=XFER_PREFIX)

    @property
    def dispatch_counts(self) -> Dict[str, int]:
        """Checksum GEMM / verification dispatches the engine issued."""
        return dict(self.engine.dispatch_counts)

    def workspace_stats(self) -> Dict[str, int]:
        """Allocation/reuse counters of the critical-path checksum workspace."""
        return self.engine.workspace.stats()

    def weight_cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the weight-encoding cache."""
        return self.engine.weight_cache.stats()

    def invalidate_weight_cache(self) -> None:
        """Drop cached weight-derived encodings.

        Only needed after *in-place* mutation of weight storage outside
        ``Optimizer.step`` / ``Module.load_state_dict`` (those bump the
        global weights version themselves; rebinding ``param.data`` is
        caught by the cache's identity check).
        """
        self.engine.invalidate_weight_cache()

    @property
    def verification_mode(self) -> str:
        return self.config.verification_mode

    @property
    def pending_verifications(self) -> int:
        """Boundary checks queued this step, not yet flushed/submitted."""
        return self.engine.pending_verifications

    @property
    def thresholds(self) -> ABFTThresholds:
        return self.config.thresholds

    def set_frequencies(self, frequencies: Dict[str, float]) -> None:
        """Install new per-section detection frequencies (from the optimiser)."""
        active = self.config.active_sections
        for name, value in frequencies.items():
            if name not in active:
                raise KeyError(f"unknown protection section {name!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"frequency for {name} must be in [0, 1], got {value}")
            self.config.frequencies[name] = float(value)

    def reset_stats(self) -> None:
        # Join the async worker before clearing the timers: an in-flight
        # batch must not record ``async/`` entries into the fresh registry.
        self.engine.reset()
        self.stats.reset()
        self.timers.reset()
        self.last_reports.clear()
        self.recent_outcomes.clear()

    # -- frequency gating (policy) ----------------------------------------------

    def _sections_of_block(self, block: str) -> List[str]:
        """Names of in-scope sections belonging to one block, in config order."""
        active = self.config.active_sections
        return [
            name for name in self.config.frequencies
            if active[name].block == block
        ]

    def _section_enabled_this_pass(self) -> Dict[str, bool]:
        """Decide which attention sections check on this forward pass.

        With frequency ``f`` the section runs on a deterministic ``f`` fraction
        of passes, spread as evenly as possible (e.g. ``f = 0.5`` -> every
        other pass), which is how the paper's ``f_S`` is defined.  Only the
        attention block's accumulators advance here; other blocks advance
        theirs at their own :meth:`on_block_start`, so widening the protection
        scope never perturbs the attention gating sequence.
        """
        return self._advance_enabled(self._sections_of_block("attention"))

    def _advance_enabled(self, names: List[str]) -> Dict[str, bool]:
        enabled = {}
        for name in names:
            acc = self._freq_accumulators[name] + self.config.frequencies[name]
            if acc >= 1.0 - 1e-12:
                enabled[name] = True
                acc -= 1.0
            else:
                enabled[name] = False
            self._freq_accumulators[name] = acc
        return enabled

    # -- AttentionHooks interface -------------------------------------------------

    def on_attention_start(self, layer_index: int, step: int) -> None:
        self.engine.begin_layer(layer_index, self._section_enabled_this_pass())

    def on_attention_end(self, layer_index: int, step: int) -> None:
        self.engine.end_layer(layer_index)

    def on_block_start(self, block: str, layer_index: int, step: int) -> None:
        """Open the pass window of a non-attention block (e.g. the FFN).

        A no-op when none of the block's sections are in the protection
        scope — an instrumented model can always fire its block hooks, and an
        attention-only checker stays bit-for-bit the historical one.
        """
        if block == "attention":
            return  # attention announces via on_attention_start
        names = self._sections_of_block(block)
        if names:
            self.engine.begin_layer(layer_index, self._advance_enabled(names))

    def on_block_end(self, block: str, layer_index: int, step: int) -> None:
        if block != "attention" and self._sections_of_block(block):
            self.engine.end_layer(layer_index)

    def consumes_gemm_outputs(self) -> bool:
        """The engine works at section boundaries only: no per-GEMM dispatch.

        This is what lets :class:`repro.nn.MultiHeadAttention` skip the
        non-boundary GEMM hooks entirely for the checker (three dispatch
        points per layer instead of six) — unless another composed hook (an
        injector, a recorder) still consumes them.  Stated explicitly rather
        than inherited: the base class decides by whether ``on_gemm_output``
        is overridden, and a profiler that wraps that class attribute would
        otherwise flip the dispatch schedule it is measuring.
        """
        return False

    def on_section_output(self, ctx: SectionContext, out: Any) -> Any:
        outcome = self.engine.protect_section(ctx, out)
        self._record_outcome(ctx.section, outcome)
        return out

    def end_step(self) -> List[SectionOutcome]:
        """Close one training step's verification work; call once per step.

        * immediate mode — a no-op (every boundary already verified in-pass);
        * deferred mode — flush the step's queued checks in one batched pass,
          on the calling thread;
        * async mode — submit the step's snapshot to the worker (blocking
          only if ``max_pending_steps`` batches are already in flight) and
          harvest whatever verification results have completed so far,
          without waiting for the batch just submitted.

        Returns the outcomes produced now (statistics are folded into
        :attr:`stats`); always leaves :attr:`pending_verifications` at zero.
        """
        mode = self.config.verification_mode
        if mode == "async":
            with self.timers.measure("submit/async"):
                self.engine.submit_step()
            outcomes = self.engine.harvest()
        elif mode == "deferred":
            outcomes = self.engine.flush()
        else:
            return []
        self._fold_outcomes(outcomes)
        return outcomes

    def drain(self) -> List[SectionOutcome]:
        """Barrier: complete and fold every queued/in-flight verification.

        Deferred mode flushes synchronously; async mode submits any residual
        front-buffer items and waits for the worker to finish all batches
        (re-raising a worker exception instead of swallowing it).  A no-op
        returning ``[]`` in immediate mode.
        """
        mode = self.config.verification_mode
        if mode == "async":
            with self.timers.measure("submit/async"):
                self.engine.submit_step()
            outcomes = self.engine.drain()
        elif mode == "deferred":
            outcomes = self.engine.flush()
        else:
            return []
        self._fold_outcomes(outcomes)
        return outcomes

    def close(self) -> None:
        """Join the async verification worker, keeping statistics intact."""
        self.engine.close()

    def _fold_outcomes(self, outcomes: List[SectionOutcome]) -> None:
        """Fold batched-verification outcomes into :attr:`stats`.

        Detection counters come from the batched detect pass (byte-identical
        between deferred and async modes).  For async outcomes that carry a
        bounded-staleness ``repair``, corrections come from the repair report
        and the residual counter reports the post-repair state, mirroring
        what immediate mode would have recorded at the same boundary.
        """
        for outcome in outcomes:
            report = outcome.report
            if report is None:
                continue
            stats = self.stats.sections[outcome.section]
            stats.record(report)
            if outcome.repair is not None:
                stats.corrections += outcome.repair.corrected
                stats.residual_extreme += outcome.repair.residual_extreme - report.residual_extreme
            if outcome.stale and report.detected:
                stats.stale_detections += 1
            self.last_reports[outcome.section] = report
            self.recent_outcomes.append(outcome)

    # -- stats plumbing -----------------------------------------------------------

    def _record_outcome(self, section: str, outcome: Optional[SectionOutcome]) -> None:
        stats = self.stats.sections.get(section)
        if stats is None:
            # Boundary of an out-of-scope block (e.g. an instrumented FFN
            # under an attention-only scope): nothing ran, nothing to count.
            return
        if outcome is None:
            # Section disabled this pass (frequency gating) or no pass state.
            stats.checks_skipped += 1
            return
        if outcome.deferred:
            return  # counted when end_step() flushes
        if outcome.report is None:
            # Carried checksums forward without verifying (CL visited for O).
            stats.checks_skipped += 1
            return
        stats.record(outcome.report)
        self.last_reports[section] = outcome.report
        stats.operand_repairs += outcome.operand_repairs
        self.recent_outcomes.append(outcome)

    def take_recent_outcomes(self) -> List[SectionOutcome]:
        """Drain and return the bounded ring of verified section outcomes.

        Serving callers read :attr:`SectionOutcome.request_dirty` off the
        drained outcomes to attribute detections to individual requests of a
        batch.  The ring holds at most its ``maxlen`` most recent outcomes,
        so a caller that drains once per step never loses any (one step
        produces at most sections x layers outcomes); a caller that never
        drains pays bounded memory instead of a leak.
        """
        outcomes = list(self.recent_outcomes)
        self.recent_outcomes.clear()
        return outcomes

    # -- reporting ----------------------------------------------------------------

    def overhead_seconds(self) -> float:
        """Total wall-clock ABFT work, including the async worker's share."""
        return self.timers.total()

    def critical_path_seconds(self) -> float:
        """ABFT time spent on the training thread (excludes ``async/`` keys).

        For immediate and deferred modes this equals
        :meth:`overhead_seconds`; for async mode it is the encode/carry/queue
        cost plus the step-submit bookkeeping — the part the paper's
        off-critical-path claim says should be all that remains.
        """
        return self.timers.total(exclude="async/")

    def section_overhead_seconds(self) -> Dict[str, float]:
        """Wall-clock ABFT time per protection section (critical path only)."""
        return {
            name: self.timers.total(prefix=f"{name}/")
            for name in self.config.active_sections
        }

    def summary(self) -> str:
        """Human-readable multi-line statistics summary."""
        lines = [
            f"ATTNChecker statistics (mode={self.verification_mode}, "
            f"array_backend={self.config.array_backend}):"
        ]
        for name, stats in self.stats.sections.items():
            lines.append(
                f"  [{name}] checks={stats.checks_run} skipped={stats.checks_skipped} "
                f"detected={stats.detections} corrected={stats.corrections} "
                f"aborted={stats.aborted_vectors} residual_extreme={stats.residual_extreme} "
                f"operand_repairs={stats.operand_repairs} stale={stats.stale_detections}"
            )
        lines.append(
            f"  total ABFT time: {self.overhead_seconds() * 1e3:.3f} ms "
            f"(critical path: {self.critical_path_seconds() * 1e3:.3f} ms, "
            f"transfers: {self.transfer_seconds() * 1e3:.3f} ms)"
        )
        return "\n".join(lines)
