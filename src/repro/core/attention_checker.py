"""ATTNChecker: systematic ABFT protection for the attention mechanism.

:class:`ATTNChecker` is an :class:`repro.nn.AttentionHooks` implementation
that plugs into :class:`repro.nn.MultiHeadAttention` (and therefore into every
model of the zoo) and realises the protection scheme of Sections 4.2–4.6.
Since the ProtectionEngine refactor it is a thin *policy* layer — adaptive
per-section detection frequencies (``f_AS``, ``f_CL``, ``f_O``), thresholds,
statistics and timing — on top of one of two interchangeable *mechanics*
backends:

``"fused"`` (default)
    :class:`repro.core.engine.ProtectionEngine` — checksums are encoded once
    per protection section and passed through all member GEMMs in a single
    dispatch at the section-boundary GEMM (the paper's Section 4.4 design),
    three Python dispatches per layer instead of six.

``"per_gemm"``
    The original hook-per-GEMM implementation, kept as a reference backend:
    it computes the identical checksum algebra spread over all six GEMM
    hooks.  Both backends make byte-identical detection/correction decisions;
    the equivalence is enforced by tests and by the Figure-7 benchmark.

The fused backend additionally selects one of three *verification modes*
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
>>> checker = ATTNChecker()                                   # fused engine
>>> reference = ATTNChecker(ATTNCheckerConfig(backend="per_gemm"))
>>> model.set_attention_hooks(checker)
>>> # ... train as usual; checker.stats reports detections/corrections.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.backend import (
    ArrayBackend,
    BackendUnavailable,
    get_backend,
    namespace_of,
)
from repro.core.checksums import (
    ChecksumState,
    adjust_column_checksums_for_bias,
    encode_column_checksums,
    encode_per_head_row_checksums_of_weight,
    encode_row_checksums,
    checksum_weights,
    merge_head_column_checksums,
    split_head_column_checksums,
    update_column_checksums_through_gemm,
    update_column_checksums_with_appended_rows,
)
from repro.core.correction import MatrixCorrectionReport, correct_matrix
from repro.core.eec_abft import check_columns, check_rows
from repro.core.engine import (
    VERIFICATION_MODES,
    ProtectionEngine,
    SectionOutcome,
    request_dirty_from_report,
)
from repro.core.hooks import (
    AttentionHooks,
    AttentionOp,
    FeedForwardOp,
    GemmContext,
    SectionContext,
)
from repro.core.sections import PROTECTION_SECTIONS, PROTECT_SCOPES, sections_for_scope
from repro.core.thresholds import ABFTThresholds
from repro.utils.timing import TimingRegistry, XFER_PREFIX

__all__ = [
    "CHECKER_BACKENDS",
    "VERIFICATION_MODES",
    "ATTNCheckerConfig",
    "SectionStats",
    "CheckerStats",
    "ATTNChecker",
]

#: Selectable mechanics backends.
CHECKER_BACKENDS = ("fused", "per_gemm")



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
    backend:
        ``"fused"`` — the section-level checksum-passing
        :class:`~repro.core.engine.ProtectionEngine` (default);
        ``"per_gemm"`` — the reference hook-per-GEMM implementation.
    array_backend:
        Which array library the checksum chain runs on — a name from
        :data:`repro.backend.KNOWN_ARRAY_BACKENDS` or ``"auto"`` (default).
        Orthogonal to both ``backend`` and the verification mode.  ``"auto"``
        *follows* the arrays each protection section produces (a NumPy model
        is checked with NumPy, a Torch tensor with Torch — never a host
        round-trip).  Naming a backend *pins* the fused engine to it: foreign
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

        The queued modes need the ``"fused"`` backend; the per-GEMM
        reference verifies inline at every GEMM.
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
    backend: str = "fused"
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
        if self.backend not in CHECKER_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {CHECKER_BACKENDS}"
            )
        if self.array_backend != "auto":
            # Fail fast with the registry's helpful unknown-vs-uninstalled
            # message instead of at the first protected forward pass.
            get_backend(self.array_backend)
        if self.verification_mode not in VERIFICATION_MODES:
            raise ValueError(
                f"unknown verification_mode {self.verification_mode!r}; "
                f"expected one of {VERIFICATION_MODES}"
            )
        if self.verification_mode != "immediate" and self.backend != "fused":
            raise ValueError(
                f"verification_mode={self.verification_mode!r} requires the 'fused' "
                "backend; the per-GEMM reference verifies inline at every GEMM and "
                "has no checksum queue to flush or hand to a worker"
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


class _PerGemmState:
    """Per-(layer, forward-pass) checksum state of the reference backend."""

    __slots__ = (
        "enabled",
        "cs_x_col",
        "cs_q_col",
        "cs_k_col",
        "cs_v_row",
        "cs_cl_col",
    )

    def __init__(self, enabled: Dict[str, bool]) -> None:
        self.enabled = enabled
        self.cs_x_col: Optional[Any] = None
        self.cs_q_col: Optional[Any] = None
        self.cs_k_col: Optional[Any] = None
        self.cs_v_row: Optional[Any] = None
        self.cs_cl_col: Optional[Any] = None


class _PerGemmReferenceBackend:
    """The original per-GEMM checker mechanics, kept as a reference backend.

    Dispatches Python work at every one of the six attention GEMM hooks.  The
    checksum algebra is operation-for-operation identical to the fused
    :class:`~repro.core.engine.ProtectionEngine`, which makes the two backends
    byte-comparable — this class is the oracle the engine is validated
    against.  Like the engine it is array-library generic, but it always
    *follows* the GEMM operands' owning backend (there is no engine here to
    pin); a configured ``array_backend`` only affects the fused engine.
    """

    def __init__(self, checker: "ATTNChecker") -> None:
        self.checker = checker
        self._states: Dict[int, _PerGemmState] = {}

    # -- pass lifecycle ---------------------------------------------------------

    def begin_layer(self, layer_index: int, enabled: Dict[str, bool]) -> None:
        self._states[layer_index] = _PerGemmState(dict(enabled))

    def end_layer(self, layer_index: int) -> None:
        self._states.pop(layer_index, None)

    def reset(self) -> None:
        self._states.clear()

    # -- GEMM dispatch ----------------------------------------------------------

    def on_gemm_output(self, ctx: GemmContext, out: Any) -> Any:
        state = self._states.get(ctx.layer_index)
        if state is None:  # hooks attached mid-pass; nothing to do safely
            return out
        op = ctx.op
        if op is FeedForwardOp.UP:
            # FFN sections are single-GEMM (GELU blocks checksum carrying),
            # so the whole chain runs at the boundary GEMM — identical for
            # training and decode (the FFN has no cross-token state; decode
            # is the training algebra at sequence length 1).
            self._handle_ff_up(ctx, state, out)
            return out
        if op is FeedForwardOp.DOWN:
            self._handle_ff_down(ctx, state, out)
            return out
        if ctx.phase == "decode":
            # Decode is row-side only (see the engine's decode section for
            # the algebra); XQ contributes nothing because no column
            # checksums of Q are carried at decode.
            if op is AttentionOp.XK:
                self._handle_projection_decode(ctx, state)
            elif op is AttentionOp.XV:
                self._handle_value_projection_decode(ctx, state)
            elif op is AttentionOp.QK:
                self._handle_attention_scores_decode(ctx, state, out)
            elif op is AttentionOp.APV:
                self._handle_context_layer_decode(ctx, state, out)
            elif op is AttentionOp.CLO:
                self._handle_output_decode(ctx, state, out)
            return out
        if op is AttentionOp.XQ:
            self._handle_projection(ctx, state, which="q")
        elif op is AttentionOp.XK:
            self._handle_projection(ctx, state, which="k")
        elif op is AttentionOp.XV:
            self._handle_value_projection(ctx, state)
        elif op is AttentionOp.QK:
            self._handle_attention_scores(ctx, state, out)
        elif op is AttentionOp.APV:
            self._handle_context_layer(ctx, state, out)
        elif op is AttentionOp.CLO:
            self._handle_output(ctx, state, out)
        return out

    # -- section S_AS -----------------------------------------------------------

    def _handle_projection(self, ctx: GemmContext, state: _PerGemmState, which: str) -> None:
        """X x W_Q / X x W_K: derive column checksums of Q / K from those of X."""
        checker = self.checker
        if not state.enabled.get("AS", False):
            return
        num_rows = ctx.a.shape[-2]
        if state.cs_x_col is None:
            with checker.timers.measure("AS/encode"):
                state.cs_x_col = encode_column_checksums(ctx.a)
            if ctx.phase == "prefill" and ctx.kv_cache is not None:
                # Seed the cache's incremental input checksums so decode can
                # fold appended tokens in O(1) of the cached length.
                cache = ctx.kv_cache
                cs_x_buf, _ = cache.ensure_checksum_buffers(
                    namespace_of(ctx.a), ctx.a.shape[-1]
                )
                cs_x_buf[...] = state.cs_x_col
                cache.cs_x_len = num_rows
        with checker.timers.measure("AS/update"):
            cs = update_column_checksums_through_gemm(state.cs_x_col, ctx.b)
            if ctx.bias is not None:
                cs = adjust_column_checksums_for_bias(cs, ctx.bias, num_rows)
        if which == "q":
            state.cs_q_col = cs
        else:
            state.cs_k_col = cs

    def _record_report(
        self, ctx: GemmContext, section: str, report: MatrixCorrectionReport
    ) -> None:
        """Record one boundary verification; surface it to serving callers.

        Training callers read ``stats`` / ``last_reports``; serving callers
        additionally drain :meth:`ATTNChecker.take_recent_outcomes`, so every
        non-train verification is wrapped in a :class:`SectionOutcome`
        carrying the per-request dirty mask — the same attribution the fused
        engine computes, so both backends drive identical repair-or-evict
        decisions.
        """
        checker = self.checker
        checker.stats.sections[section].record(report)
        checker.last_reports[section] = report
        if ctx.phase != "train":
            checker.recent_outcomes.append(
                SectionOutcome(
                    section=section,
                    layer_index=ctx.layer_index,
                    step=ctx.step,
                    report=report,
                    request_dirty=request_dirty_from_report(report),
                )
            )

    def _handle_attention_scores(self, ctx: GemmContext, state: _PerGemmState, out: Any) -> None:
        """Q x K^T: pass checksums to AS, then detect & correct at the boundary."""
        checker = self.checker
        if not state.enabled.get("AS", False):
            checker.stats.sections["AS"].checks_skipped += 1
            return
        if state.cs_q_col is None or state.cs_k_col is None:
            return
        num_heads = ctx.num_heads
        xp = namespace_of(ctx.a)
        with checker.timers.measure("AS/update"):
            cs_q_ph = split_head_column_checksums(state.cs_q_col, num_heads)   # (B, H, 2, dh)
            cs_k_ph = split_head_column_checksums(state.cs_k_col, num_heads)
            # Column side of AS: col(AS) = col(Q) K^T.
            cs_as_col = xp.matmul(cs_q_ph, ctx.b)                              # (B, H, 2, S)
            # Row side of AS: row(AS) = Q row(K^T) = Q col(K)^T.
            cs_as_row = xp.matmul(ctx.a, xp.swapaxes(cs_k_ph, -1, -2))          # (B, H, S, 2)
        with checker.timers.measure("AS/detect"):
            checksums = ChecksumState(col=cs_as_col, row=cs_as_row)
            report = correct_matrix(
                out, checksums, thresholds=checker.thresholds,
                refresh_checksums=checker.config.refresh_checksums,
            )
        self._record_report(ctx, "AS", report)
        if checker.config.repair_operands and report.corrected > 0:
            with checker.timers.measure("AS/correct"):
                q_report = check_columns(ctx.a, cs_q_ph, thresholds=checker.thresholds)
                kt_report = check_rows(ctx.b, xp.swapaxes(cs_k_ph, -1, -2), thresholds=checker.thresholds)
            checker.stats.sections["AS"].operand_repairs += (
                q_report.num_corrected + kt_report.num_corrected
            )

    # -- section S_CL -----------------------------------------------------------

    def _handle_value_projection(self, ctx: GemmContext, state: _PerGemmState) -> None:
        """X x W_V: derive per-head row checksums of V from those of W_V."""
        checker = self.checker
        if not (state.enabled.get("CL", False) or state.enabled.get("O", False)):
            return
        num_heads = ctx.num_heads
        head_dim = ctx.head_dim
        xp = namespace_of(ctx.a)
        with checker.timers.measure("CL/encode"):
            rowcs_wv = encode_per_head_row_checksums_of_weight(ctx.b, num_heads)  # (D, H, 2)
        with checker.timers.measure("CL/update"):
            cs_v_row = xp.einsum("...sd,dhw->...hsw", ctx.a, rowcs_wv)            # (B, H, S, 2)
            if ctx.bias is not None:
                bias_heads = xp.astype(
                    xp.asarray(ctx.bias), xp.float64, copy=False
                ).reshape(num_heads, head_dim)
                _, v2 = checksum_weights(head_dim, xp=xp)
                cs_v_row = xp.copy(cs_v_row)
                cs_v_row[..., 0] += xp.sum(bias_heads, axis=-1)[None, :, None]
                cs_v_row[..., 1] += xp.sum(bias_heads * v2, axis=-1)[None, :, None]
        state.cs_v_row = cs_v_row
        if ctx.phase == "prefill" and ctx.kv_cache is not None:
            # Seed the cache's per-position row checksums of V (bias folded
            # in), ready for per-token extension at decode.
            cache = ctx.kv_cache
            prompt_len = ctx.a.shape[-2]
            _, cs_v_buf = cache.ensure_checksum_buffers(xp, ctx.a.shape[-1])
            cs_v_buf[:, :, :prompt_len, :] = cs_v_row
            cache.cs_v_len = prompt_len

    def _handle_context_layer(self, ctx: GemmContext, state: _PerGemmState, out: Any) -> None:
        """AP x V: encode AP, pass checksums to CL, detect & correct at the boundary."""
        checker = self.checker
        cl_enabled = state.enabled.get("CL", False)
        o_enabled = state.enabled.get("O", False)
        if not (cl_enabled or o_enabled):
            checker.stats.sections["CL"].checks_skipped += 1
            return
        xp = namespace_of(ctx.a)
        with checker.timers.measure("CL/encode"):
            cs_ap_col = encode_column_checksums(ctx.a)                            # (B, H, 2, S)
        with checker.timers.measure("CL/update"):
            cs_cl_col = xp.matmul(cs_ap_col, ctx.b)                               # (B, H, 2, dh)
            cs_cl_row = None
            if cl_enabled and state.cs_v_row is not None:
                # row(CL) = AP row(V): carry the per-head row checksums of V
                # through the AP x V GEMM.
                cs_cl_row = xp.matmul(ctx.a, state.cs_v_row)                      # (B, H, S, 2)
        checksums = ChecksumState(col=cs_cl_col, row=cs_cl_row)
        if cl_enabled:
            with checker.timers.measure("CL/detect"):
                report = correct_matrix(
                    out, checksums, thresholds=checker.thresholds,
                    refresh_checksums=checker.config.refresh_checksums,
                )
            self._record_report(ctx, "CL", report)
            if checker.config.repair_operands and report.corrected > 0 and state.cs_v_row is not None:
                with checker.timers.measure("CL/correct"):
                    v_report = check_rows(ctx.b, state.cs_v_row, thresholds=checker.thresholds)
                checker.stats.sections["CL"].operand_repairs += v_report.num_corrected
        else:
            checker.stats.sections["CL"].checks_skipped += 1
        # Pass the (possibly refreshed) column checksums of CL to section S_O.
        state.cs_cl_col = checksums.col

    # -- section S_O ------------------------------------------------------------

    def _handle_output(self, ctx: GemmContext, state: _PerGemmState, out: Any) -> None:
        """CL x W_O: carry column checksums through and correct the output O."""
        checker = self.checker
        if not state.enabled.get("O", False):
            checker.stats.sections["O"].checks_skipped += 1
            return
        if state.cs_cl_col is None:
            return
        with checker.timers.measure("O/update"):
            cs_cl_merged = merge_head_column_checksums(state.cs_cl_col)          # (B, 2, D)
            cs_o_col = update_column_checksums_through_gemm(cs_cl_merged, ctx.b)  # (B, 2, D)
        with checker.timers.measure("O/detect"):
            report = correct_matrix(
                out, ChecksumState(col=cs_o_col), thresholds=checker.thresholds,
                refresh_checksums=checker.config.refresh_checksums,
            )
        self._record_report(ctx, "O", report)

    # -- FFN sections S_FF1 / S_FF2 ----------------------------------------------

    def _handle_ff_up(self, ctx: GemmContext, state: _PerGemmState, out: Any) -> None:
        """x x W_up: encode col(x), carry through W_up, verify H column-side.

        The boundary matrix ``H`` is the raw GEMM output — the bias add runs
        outside the section (like attention's output-projection bias), so no
        bias adjustment of the carried checksums is needed.
        """
        checker = self.checker
        if not state.enabled.get("FF1", False):
            checker.stats.sections["FF1"].checks_skipped += 1
            return
        with checker.timers.measure("FF1/encode"):
            cs_x = encode_column_checksums(ctx.a)
        with checker.timers.measure("FF1/update"):
            cs_h = update_column_checksums_through_gemm(cs_x, ctx.b)
        with checker.timers.measure("FF1/detect"):
            report = correct_matrix(
                out, ChecksumState(col=cs_h), thresholds=checker.thresholds,
                refresh_checksums=checker.config.refresh_checksums,
            )
        self._record_report(ctx, "FF1", report)

    def _handle_ff_down(self, ctx: GemmContext, state: _PerGemmState, out: Any) -> None:
        """h x W_down: carry rowcs(W_down) through, verify FO row-side."""
        checker = self.checker
        if not state.enabled.get("FF2", False):
            checker.stats.sections["FF2"].checks_skipped += 1
            return
        xp = namespace_of(ctx.a)
        with checker.timers.measure("FF2/encode"):
            rowcs_wd = encode_row_checksums(ctx.b)                      # (D_ff, 2)
        with checker.timers.measure("FF2/update"):
            cs_fo = xp.matmul(ctx.a, rowcs_wd)                          # (B, S, 2)
        with checker.timers.measure("FF2/detect"):
            report = correct_matrix(
                out, ChecksumState(row=cs_fo), thresholds=checker.thresholds,
                refresh_checksums=checker.config.refresh_checksums,
            )
        self._record_report(ctx, "FF2", report)

    # -- decode (incremental, row-side only) -------------------------------------
    #
    # The reference decode algebra mirrors the engine's decode section
    # byte-for-byte: the cache's incremental input checksums ``cs_x`` fold in
    # the new token's row in O(1) of the cached length, per-position row
    # checksums of V extend by one slot, and each boundary verifies its row
    # side only (the column side would be O(T) to re-encode, which is exactly
    # what incremental decode protection avoids).

    @staticmethod
    def _decode_cache(ctx: GemmContext) -> Any:
        cache = ctx.kv_cache
        if cache is None:
            raise RuntimeError(
                f"decode GEMM {ctx.op.value!r} fired without a KV cache in context"
            )
        return cache

    def _handle_projection_decode(self, ctx: GemmContext, state: _PerGemmState) -> None:
        """X x W_K at decode: fold the new row into cs(X), derive col(K)."""
        checker = self.checker
        if not state.enabled.get("AS", False):
            return
        cache = self._decode_cache(ctx)
        total_len = cache.length + 1  # this token's K row is appended later
        if cache.cs_x is None or cache.cs_x_len != total_len - 1:
            raise RuntimeError(
                f"decode AS protection needs contiguous incremental checksums: "
                f"cache covers {cache.cs_x_len} rows but the model is decoding "
                f"token {total_len}; run a protected prefill first and keep the "
                f"AS section enabled on every decode step"
            )
        with checker.timers.measure("AS/encode"):
            update_column_checksums_with_appended_rows(cache.cs_x, ctx.a, total_len - 1)
            cache.cs_x_len = total_len
        with checker.timers.measure("AS/update"):
            cs = update_column_checksums_through_gemm(cache.cs_x, ctx.b)
            if ctx.bias is not None:
                cs = adjust_column_checksums_for_bias(cs, ctx.bias, total_len)
        state.cs_k_col = cs

    def _handle_attention_scores_decode(
        self, ctx: GemmContext, state: _PerGemmState, out: Any
    ) -> None:
        """q x K^T at decode: verify the new score row against row(AS)."""
        checker = self.checker
        if not state.enabled.get("AS", False):
            checker.stats.sections["AS"].checks_skipped += 1
            return
        if state.cs_k_col is None:
            return
        xp = namespace_of(ctx.a)
        with checker.timers.measure("AS/update"):
            cs_k_ph = split_head_column_checksums(state.cs_k_col, ctx.num_heads)
            cs_as_row = xp.matmul(ctx.a, xp.swapaxes(cs_k_ph, -1, -2))  # (B, H, 1, 2)
        with checker.timers.measure("AS/detect"):
            report = correct_matrix(
                out, ChecksumState(row=cs_as_row), thresholds=checker.thresholds,
                refresh_checksums=checker.config.refresh_checksums,
            )
        self._record_report(ctx, "AS", report)

    def _handle_value_projection_decode(self, ctx: GemmContext, state: _PerGemmState) -> None:
        """X x W_V at decode: extend the cached row checksums of V by one slot."""
        checker = self.checker
        if not state.enabled.get("CL", False):
            return
        cache = self._decode_cache(ctx)
        total_len = cache.length + 1  # this token's V row is appended later
        if cache.cs_v_row is None or cache.cs_v_len != total_len - 1:
            raise RuntimeError(
                f"decode CL protection needs contiguous incremental checksums: "
                f"cache covers {cache.cs_v_len} rows but the model is decoding "
                f"token {total_len}; run a protected prefill first and keep the "
                f"CL section enabled on every decode step"
            )
        num_heads = ctx.num_heads
        head_dim = ctx.head_dim
        xp = namespace_of(ctx.a)
        with checker.timers.measure("CL/encode"):
            rowcs_wv = encode_per_head_row_checksums_of_weight(ctx.b, num_heads)
        with checker.timers.measure("CL/update"):
            cs_v_new = xp.einsum("...sd,dhw->...hsw", ctx.a, rowcs_wv)  # (B, H, 1, 2)
            if ctx.bias is not None:
                bias_heads = xp.astype(
                    xp.asarray(ctx.bias), xp.float64, copy=False
                ).reshape(num_heads, head_dim)
                _, v2 = checksum_weights(head_dim, xp=xp)
                cs_v_new[..., 0] += xp.sum(bias_heads, axis=-1)[None, :, None]
                cs_v_new[..., 1] += xp.sum(bias_heads * v2, axis=-1)[None, :, None]
            cache.cs_v_row[:, :, total_len - 1 : total_len, :] = cs_v_new
            cache.cs_v_len = total_len

    def _handle_context_layer_decode(
        self, ctx: GemmContext, state: _PerGemmState, out: Any
    ) -> None:
        """ap x V at decode: verify the new context row against row(CL)."""
        checker = self.checker
        if not state.enabled.get("CL", False):
            checker.stats.sections["CL"].checks_skipped += 1
            return
        cache = self._decode_cache(ctx)
        total_len = cache.length  # APV fires after the append
        if cache.cs_v_row is None or cache.cs_v_len != total_len:
            raise RuntimeError(
                f"decode CL protection needs contiguous incremental checksums: "
                f"cache covers {cache.cs_v_len} of {total_len} rows"
            )
        xp = namespace_of(ctx.a)
        with checker.timers.measure("CL/update"):
            cs_cl_row = xp.matmul(ctx.a, cache.cs_v_row[:, :, :total_len, :])
        with checker.timers.measure("CL/detect"):
            report = correct_matrix(
                out, ChecksumState(row=cs_cl_row), thresholds=checker.thresholds,
                refresh_checksums=checker.config.refresh_checksums,
            )
        self._record_report(ctx, "CL", report)

    def _handle_output_decode(self, ctx: GemmContext, state: _PerGemmState, out: Any) -> None:
        """cl x W_O at decode: verify the new output row against row(O)."""
        checker = self.checker
        if not state.enabled.get("O", False):
            checker.stats.sections["O"].checks_skipped += 1
            return
        xp = namespace_of(ctx.a)
        with checker.timers.measure("O/update"):
            rowcs_wo = encode_row_checksums(ctx.b)                  # (D, 2)
            cs_o_row = xp.matmul(ctx.a, rowcs_wo)                   # (B, 1, 2)
        with checker.timers.measure("O/detect"):
            report = correct_matrix(
                out, ChecksumState(row=cs_o_row), thresholds=checker.thresholds,
                refresh_checksums=checker.config.refresh_checksums,
            )
        self._record_report(ctx, "O", report)


class ATTNChecker(AttentionHooks):
    """The ABFT attention hook: policy layer over a mechanics backend."""

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
        if self.config.backend == "fused":
            self.engine: Optional[ProtectionEngine] = ProtectionEngine(
                thresholds=self.config.thresholds,
                refresh_checksums=self.config.refresh_checksums,
                repair_operands=self.config.repair_operands,
                timers=self.timers,
                verification_mode=self.config.verification_mode,
                max_pending_steps=self.config.max_pending_steps,
                array_backend=self.array_backend,
            )
            self._reference: Optional[_PerGemmReferenceBackend] = None
        else:
            self.engine = None
            self._reference = _PerGemmReferenceBackend(self)

    # -- configuration shortcuts ------------------------------------------------

    @property
    def backend(self) -> str:
        return self.config.backend

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
        """Checksum GEMM / verification dispatches the fused engine issued
        (empty for the per-GEMM reference, which has no fused schedule)."""
        return dict(self.engine.dispatch_counts) if self.engine is not None else {}

    def workspace_stats(self) -> Dict[str, int]:
        """Allocation/reuse counters of the critical-path checksum workspace
        (all zeros for the per-GEMM backend)."""
        if self.engine is None:
            return {"slots": 0, "allocations": 0, "reuses": 0, "bytes_allocated": 0}
        return self.engine.workspace.stats()

    def weight_cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the weight-encoding cache (zeros for the
        per-GEMM backend)."""
        if self.engine is None:
            return {"entries": 0, "hits": 0, "misses": 0}
        return self.engine.weight_cache.stats()

    def invalidate_weight_cache(self) -> None:
        """Drop cached weight-derived encodings.

        Only needed after *in-place* mutation of weight storage outside
        ``Optimizer.step`` / ``Module.load_state_dict`` (those bump the
        global weights version themselves; rebinding ``param.data`` is
        caught by the cache's identity check).
        """
        if self.engine is not None:
            self.engine.invalidate_weight_cache()

    @property
    def verification_mode(self) -> str:
        return self.config.verification_mode

    @property
    def pending_verifications(self) -> int:
        """Boundary checks queued this step, not yet flushed/submitted."""
        return self.engine.pending_verifications if self.engine is not None else 0

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
        if self.engine is not None:
            self.engine.reset()
        if self._reference is not None:
            self._reference.reset()
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
        enabled = self._section_enabled_this_pass()
        if self.engine is not None:
            self.engine.begin_layer(layer_index, enabled)
        else:
            self._reference.begin_layer(layer_index, enabled)

    def on_attention_end(self, layer_index: int, step: int) -> None:
        if self.engine is not None:
            self.engine.end_layer(layer_index)
        else:
            self._reference.end_layer(layer_index)

    def on_block_start(self, block: str, layer_index: int, step: int) -> None:
        """Open the pass window of a non-attention block (e.g. the FFN).

        A no-op when none of the block's sections are in the protection
        scope — an instrumented model can always fire its block hooks, and an
        attention-only checker stays bit-for-bit the historical one.
        """
        if block == "attention":
            return  # attention announces via on_attention_start
        names = self._sections_of_block(block)
        if not names:
            return
        enabled = self._advance_enabled(names)
        if self.engine is not None:
            self.engine.begin_layer(layer_index, enabled)
        else:
            self._reference.begin_layer(layer_index, enabled)

    def on_block_end(self, block: str, layer_index: int, step: int) -> None:
        if block == "attention":
            return
        if not self._sections_of_block(block):
            return
        if self.engine is not None:
            self.engine.end_layer(layer_index)
        else:
            self._reference.end_layer(layer_index)

    def on_gemm_output(self, ctx: GemmContext, out: Any) -> Any:
        if self._reference is not None:
            return self._reference.on_gemm_output(ctx, out)
        return out  # fused backend works at section boundaries only

    def consumes_gemm_outputs(self) -> bool:
        """The fused backend needs no per-GEMM dispatch; the reference does.

        This is what lets :class:`repro.nn.MultiHeadAttention` skip the
        non-boundary GEMM hooks entirely for a fused checker (three dispatch
        points per layer instead of six) — unless another composed hook (an
        injector, a recorder) still consumes them.
        """
        return self.config.backend == "per_gemm"

    def on_section_output(self, ctx: SectionContext, out: Any) -> Any:
        if self.engine is None:
            return out  # per-GEMM backend already handled the boundary GEMM
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
        if self.engine is None:
            return []
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
        returning ``[]`` in immediate mode or for the per-GEMM backend.
        """
        if self.engine is None:
            return []
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
        if self.engine is not None:
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
            f"ATTNChecker statistics (backend={self.config.backend}, "
            f"mode={self.verification_mode}, "
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
