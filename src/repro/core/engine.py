"""ProtectionEngine: fused section-level checksum passing (Section 4.4).

The paper's headline optimisation is that checksums are encoded **once per
protection section** and *passed* through every GEMM of the section, with a
single verification at the section boundary.  The original hook-based
implementation in this repository realised the same algebra but dispatched
Python work at every one of the six attention GEMMs; this module fuses each
section's entire checksum chain into one dispatch at the section-boundary
GEMM:

* :math:`S_{AS}` — at the ``Q K^T`` boundary: encode ``col(X)`` once, carry it
  through ``W_Q`` and ``W_K`` (with bias adjustment), split heads, derive both
  checksum sides of ``AS`` and verify/correct in one batched EEC-ABFT pass
  over all heads.
* :math:`S_{CL}` — at the ``AP V`` boundary: encode the per-head row checksums
  of ``W_V`` and the column checksums of ``AP``, carry both through to ``CL``
  and verify.
* :math:`S_O` — at the ``CL W_O`` boundary: carry the column checksums of
  ``CL`` (stored by the :math:`S_{CL}` step) through the output projection and
  verify ``O``.

The engine owns one :class:`repro.core.checksums.ChecksumState` per section
and the per-layer pass state that links them (``cs_cl_col`` flows from
:math:`S_{CL}` into :math:`S_O`).  Policy — adaptive detection frequencies,
thresholds, statistics — lives in :class:`repro.core.attention_checker.ATTNChecker`,
which drives the engine through the section-level hook
:meth:`repro.nn.attention.AttentionHooks.on_section_output`.

Array backends
--------------
The checksum chain is array-library generic.  Each
:class:`~repro.nn.attention.SectionContext` carries the backend that owns its
arrays, and by default the engine simply *follows* it: encode, carry, verify
and repair run natively in that library (NumPy, CuPy or Torch), so a
device-resident boundary matrix is never round-tripped through host memory on
the critical path.

Passing ``array_backend`` *pins* the engine to one registered backend
instead.  Section outputs that already belong to the pinned backend still run
natively; foreign outputs (say, a NumPy model driving a Torch-pinned engine)
are adopted into the pinned backend before the chain runs and repaired values
are written back afterwards.  Those copies are real transfer overhead and are
timed under the dedicated keys :data:`repro.utils.timing.XFER_H2D` /
:data:`~repro.utils.timing.XFER_D2H`, so the Figure-7 overhead split can
report copy cost separately from checksum math.  On the pure-NumPy path both
keys stay exactly zero.

Verification modes
------------------
The engine supports three verification modes.  At a glance:

============  =====================  ==========================  =================
mode          verification latency   guarantee                   staleness bound
============  =====================  ==========================  =================
*immediate*   in-pass (boundary)     detection **and** in-place  none — repaired
              — full cost on the     correction before the       values are what
              critical path          value is consumed           downstream sees
*deferred*    end of step — flush    detection only; one         one step — flush
              cost still on the      batched pass over all       runs at
              critical path          layers of the step          ``flush()``
*async*       off the critical       detection plus bounded-     ``max_pending_``
              path — a worker        staleness correction of     ``steps`` steps,
              thread verifies        the *retained* boundary     enforced by
              while the next         matrix; outcome flagged     backpressure in
              step computes          ``stale`` for the trainer   ``submit_step``
============  =====================  ==========================  =================

``immediate`` (default)
    Verify and correct at each section boundary, inside the forward pass, so
    a repaired value is what downstream operations consume.  This is the
    semantics the paper evaluates.
``deferred``
    Record the boundary matrix and its carried checksums, and verify all
    sections of all layers of a step in one batched pass at
    :meth:`ProtectionEngine.flush`.  Boundary matrices of the same shape are
    stacked so the whole step costs a handful of vectorised EEC-ABFT calls
    regardless of depth.  Deferred verification is *detection only*: by flush
    time the forward pass has already consumed the (possibly corrupted)
    values, so corrections are not applied retroactively.
``async``
    Same per-step work-item snapshot as deferred, but the batched
    verification runs on a standard-library worker thread while the training
    loop proceeds with the next step's compute — the checker work leaves the
    critical path entirely.  The queues are double-buffered:
    :meth:`protect_section` appends :class:`_DeferredCheck` work items to the
    *front* buffer; :meth:`submit_step` swaps it against an empty buffer and
    hands the snapshot to the worker.  ``max_pending_steps`` bounds how many
    submitted step batches may be in flight: submitting beyond the bound
    *blocks* until the worker catches up, so detection can never trail the
    fault by more than ``max_pending_steps`` steps (the staleness window).
    Within that window the engine upgrades detection to *bounded-staleness
    correction*: a boundary that verifies dirty has its retained matrix
    repaired via EEC-ABFT (on a copy — the live value was already consumed),
    and the outcome is flagged ``stale`` so the trainer can re-execute the
    affected step or abort (see ``TrainerConfig.stale_policy``).  Only the
    *earliest* dirty boundary of a (step, layer) pass is repaired: later
    boundaries of the same pass are propagation shadows of the same fault and
    re-execution, not double-repair, is the recovery for them.

Detection decisions of ``async`` mode are byte-identical to ``deferred``
mode — both run the same batched pass (:meth:`ProtectionEngine._verify_batch`)
over the same per-step snapshots.  Worker-side wall-clock is recorded under
timer keys prefixed ``"async/"`` so callers can split critical-path from
total checker time.

Hot-path kernel schedule
------------------------
The fused engine runs one dispatch/allocation schedule:

* **Sibling fusion.** ``W_Q`` and ``W_K`` consume the *same* carried
  checksum ``cs_x``, so the two per-projection checksum GEMMs of
  :math:`S_{AS}` run as one GEMM against the concatenated operand
  ``[W_Q | W_K]`` (split back into the Q and K halves afterwards — pure
  axis-split views, no copy), and the two bias adjustments collapse into one
  vectorised in-place add of the concatenated float64 bias row.  This is the
  paper's strided-batched fusion argument (§4): fewer, larger launches for
  the same algebra.
* **Weight-encoding cache.** Everything derived *from weights only* —
  ``rowcs(W_V)``, the fused ``[W_Q | W_K]`` operand, the concatenated/summed
  bias terms — is cached per (layer, kind) and reused until the weights
  change.  Validity is a version check against
  :func:`repro.utils.versioning.weights_version` (bumped by
  ``Optimizer.step`` and ``Module.load_state_dict``) *plus* an identity check
  on the source arrays, so weight-side encode work runs once per weight
  version instead of once per layer visit.  Code that mutates weight storage
  in place outside those two paths must call
  :meth:`ProtectionEngine.invalidate_weight_cache`.
* **Workspace reuse.** Checksum intermediates live in a
  :class:`~repro.core.workspace.ChecksumWorkspace` arena of named
  shape/dtype/device-keyed buffers filled through the namespaces' ``out=``
  contract: after one warm-up visit the steady-state hot path allocates no
  managed buffers.  Checksums that outlive the section visit (the
  deferred/async queues) deliberately bypass the arena, and the batched
  verification pass uses a second arena owned by whichever single thread
  runs it — workspace buffers are never aliased by retained state.

``dispatch_counts`` tracks the checksum GEMM/einsum launches (``"gemm"``)
and verification passes (``"detect"``) the engine actually issued — the
measurable side of :meth:`repro.core.sections.SectionCostModel.\
checksum_gemm_dispatches_per_layer`.

Follow-on items tracked in ROADMAP.md: layer-granular re-execution from
retained activations.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.backend import ArrayBackend, backend_of
from repro.core.checksums import (
    ChecksumState,
    checksum_weights,
    encode_column_checksums,
    encode_per_head_row_checksums_of_weight,
    encode_row_checksums,
    merge_head_column_checksums,
    split_head_column_checksums,
    update_column_checksums_with_appended_rows,
)
from repro.core.correction import MatrixCorrectionReport, correct_matrix
from repro.core.eec_abft import check_columns, check_rows
from repro.core.sections import SECTION_REGISTRY
from repro.core.thresholds import ABFTThresholds
from repro.core.hooks import SectionContext
from repro.core.workspace import ChecksumWorkspace, matmul_into, stack_into
from repro.utils.timing import TimingRegistry, XFER_D2H, XFER_H2D
from repro.utils.versioning import weights_version

__all__ = [
    "VERIFICATION_MODES",
    "SectionOutcome",
    "ProtectionEngine",
    "WeightEncodingCache",
    "fold_request_dirty",
    "request_dirty_from_report",
]


#: Verification modes of the fused engine (see the module docstring).
VERIFICATION_MODES = ("immediate", "deferred", "async")


def fold_request_dirty(dirty: Optional[Any], mask: Any) -> Optional[Any]:
    """OR a per-vector dirty mask into a per-request (batch-axis) mask.

    ``mask`` keeps the boundary matrix's leading axes; reducing over
    every non-leading axis attributes the verdict to the batch entries
    (requests) whose slice it touched.  Leaves ``dirty`` unchanged for
    masks without a batch axis to reduce over.
    """
    if mask.ndim < 2:
        return dirty
    flat = mask.reshape(mask.shape[0], -1).any(-1)
    return flat if dirty is None else (dirty | flat)


def request_dirty_from_report(report: MatrixCorrectionReport) -> Optional[Any]:
    """Per-request boolean dirty mask from one verification's sub-reports.

    Shared by the fused engine and the per-GEMM reference backend so both
    attribute serving-time detections to batch entries the same way.
    """
    dirty = None
    for sub in (report.column_report, report.row_report):
        if sub is not None:
            dirty = fold_request_dirty(dirty, sub.detected | sub.aborted)
    return dirty

#: Dataflow order of the protection sections within one layer forward pass
#: (the declaration order of ``SECTION_REGISTRY``: the attention sections
#: first, then the FFN sections — the order the layer executes them).  The
#: async repair pass uses it to find the earliest dirty boundary of a step —
#: the fault site — since later dirty boundaries are propagation shadows.
_SECTION_ORDER = {name: index for index, name in enumerate(SECTION_REGISTRY)}


@dataclass
class SectionOutcome:
    """Result of protecting one section at one boundary.

    ``report`` is ``None`` for work that carried checksums forward without
    verifying (an :math:`S_{CL}` boundary visited only to feed :math:`S_O`,
    or any boundary in deferred/async mode before its batched verification
    ran).  For queued modes the eventual ``report`` holds the *detection*
    outcome (``corrected`` stays 0 — the consumed value was never patched);
    async mode additionally attaches ``repair``, the EEC-ABFT report of
    repairing the retained boundary matrix within the staleness window.
    """

    section: str
    layer_index: int
    step: int
    report: Optional[MatrixCorrectionReport] = None
    operand_repairs: int = 0
    deferred: bool = False
    #: Verification completed after the producing step's values were already
    #: consumed (async mode, dirty boundary) — the trainer's cue to re-execute
    #: or abort under its staleness policy.
    stale: bool = False
    #: Diagnostic: how many step batches had been submitted past this one when
    #: its verification ran.  Bounded by ``max_pending_steps`` (backpressure);
    #: not part of the detection/correction decision.
    lag_steps: int = 0
    #: Bounded-staleness repair of the retained boundary matrix (async mode,
    #: earliest dirty boundary of its pass only).
    repair: Optional[MatrixCorrectionReport] = None
    #: Per-request dirty mask: boolean array over the leading batch axis,
    #: True where detection/abort touched that request's slice of the
    #: boundary matrix.  Populated on serving (prefill/decode) verifications
    #: and by the batched pass; ``None`` when no verification ran or the
    #: boundary had no batch axis.  Sound for attention boundaries because
    #: every attention GEMM is row-independent across the batch axis.
    request_dirty: Optional[Any] = None


class _LayerState:
    """Per-(layer, forward-pass) checksum state linking the sections."""

    __slots__ = ("enabled", "cs_cl_col")

    def __init__(self, enabled: Dict[str, bool]) -> None:
        self.enabled = enabled
        self.cs_cl_col: Optional[Any] = None


class WeightEncodingCache:
    """Version-keyed cache of weight-derived checksum operands.

    An entry is valid only when **both** hold:

    * it was built at the current global weights version
      (:func:`repro.utils.versioning.weights_version`, bumped by every
      optimizer step and ``load_state_dict``), and
    * every source array it was derived from is the *identical object* the
      caller presents now (the optimizer rebinds ``param.data`` on update,
      so a swapped weight can never be served a stale encoding even if no
      version bump happened).

    Anything else is a miss: the builder reruns and the entry is replaced
    in place, so the cache size stays bounded by (layers x encoding kinds).
    Entries hold strong references to their sources, which also guarantees
    an ``is`` comparison can never alias a freed-and-reallocated array.

    Single-writer by design: only the critical-path ``protect_section``
    thread touches it.
    """

    __slots__ = ("_entries", "hits", "misses")

    def __init__(self) -> None:
        self._entries: Dict[tuple, Tuple[int, tuple, Any]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple, sources: tuple, builder) -> Any:
        version = weights_version()
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry[0] == version
            and len(entry[1]) == len(sources)
            and all(cached is live for cached, live in zip(entry[1], sources))
        ):
            self.hits += 1
            return entry[2]
        self.misses += 1
        value = builder()
        self._entries[key] = (version, tuple(sources), value)
        return value

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


class _DeferredCheck:
    """One boundary matrix queued for batched verification.

    The work item of both deferred and async modes: the retained boundary
    matrix (by reference — downstream autograd ops allocate fresh arrays, so
    the retained values stay what the boundary produced) plus its carried
    checksums and the backend they live on.
    """

    __slots__ = ("section", "layer_index", "step", "matrix", "checksums", "backend")

    def __init__(self, section: str, layer_index: int, step: int,
                 matrix: Any, checksums: ChecksumState,
                 backend: Optional[ArrayBackend] = None) -> None:
        self.section = section
        self.layer_index = layer_index
        self.step = step
        self.matrix = matrix
        self.checksums = checksums
        self.backend = backend if backend is not None else backend_of(matrix)


class ProtectionEngine:
    """Section-level checksum-passing engine (mechanics only, no policy).

    Parameters
    ----------
    thresholds:
        EEC-ABFT thresholds used for every verification.
    refresh_checksums:
        Rebuild column checksums after a row-side repair (see
        :func:`repro.core.correction.correct_matrix`).
    repair_operands:
        After a boundary correction, additionally repair the upstream operand
        whose 0D fault caused the propagation (keeps the backward pass clean).
    timers:
        Shared :class:`TimingRegistry`; phase labels match the historical
        per-GEMM backend (``"AS/encode"``, ``"CL/detect"``, ...) so overhead
        reporting is backend-agnostic.  The async worker records under the
        same labels prefixed ``"async/"``; adoption / write-back copies of a
        pinned engine record under ``"xfer/h2d"`` / ``"xfer/d2h"``.
    verification_mode:
        One of :data:`VERIFICATION_MODES` (see the module docstring).
    max_pending_steps:
        Async only: bound on in-flight submitted step batches.
        :meth:`submit_step` blocks once the bound is reached, which both
        prevents unbounded queue growth and enforces the staleness window.
    array_backend:
        ``None`` (default) follows the backend that owns each section's
        arrays.  An :class:`~repro.backend.ArrayBackend` instance pins the
        checksum chain to that library: foreign section outputs are adopted
        (``xfer/h2d``) and repaired values written back (``xfer/d2h``).
    """

    def __init__(
        self,
        thresholds: Optional[ABFTThresholds] = None,
        refresh_checksums: bool = True,
        repair_operands: bool = True,
        timers: Optional[TimingRegistry] = None,
        verification_mode: str = "immediate",
        max_pending_steps: int = 2,
        array_backend: Optional[ArrayBackend] = None,
    ) -> None:
        if verification_mode not in VERIFICATION_MODES:
            raise ValueError(
                f"unknown verification_mode {verification_mode!r}; "
                f"expected one of {VERIFICATION_MODES}"
            )
        if max_pending_steps < 1:
            raise ValueError(f"max_pending_steps must be >= 1, got {max_pending_steps}")
        self.thresholds = thresholds or ABFTThresholds()
        self.refresh_checksums = refresh_checksums
        self.repair_operands = repair_operands
        self.timers = timers if timers is not None else TimingRegistry()
        self.verification_mode = verification_mode
        self.max_pending_steps = max_pending_steps
        self.array_backend = array_backend
        #: Weight-derived encoding cache.
        self.weight_cache = WeightEncodingCache()
        #: Critical-path intermediate arena.
        self.workspace = ChecksumWorkspace()
        # The batched verification pass runs on exactly one thread at a time
        # (the caller in deferred mode, the worker in async mode), but that
        # thread is not the critical-path one — it gets its own arena so the
        # two never share buffers.
        self._batch_workspace = ChecksumWorkspace()
        #: Checksum GEMM/einsum launches ("gemm") and verification passes
        #: ("detect") actually dispatched.  "gemm" counts only critical-path
        #: encode/carry launches; "detect" is also incremented by the batched
        #: pass, so async totals are diagnostic rather than exact (the worker
        #: increments concurrently).
        self.dispatch_counts: Dict[str, int] = {"gemm": 0, "detect": 0}
        self._layers: Dict[int, _LayerState] = {}
        #: Front buffer of the double-buffered queue: the step in progress
        #: appends here; submit_step()/flush() swap it out wholesale.
        self._queue: List[_DeferredCheck] = []
        # -- async worker state (guarded by _cv) --------------------------------
        self._cv = threading.Condition()
        self._inbox: Deque[Tuple[int, List[_DeferredCheck]]] = deque()
        self._completed: List[SectionOutcome] = []
        self._inflight = 0
        self._epoch = 0  # number of step batches submitted so far
        self._failure: Optional[BaseException] = None
        self._shutdown = False
        self._discard_on_shutdown = False
        self._worker: Optional[threading.Thread] = None

    # -- pass lifecycle ---------------------------------------------------------

    def begin_layer(self, layer_index: int, enabled: Dict[str, bool]) -> None:
        """Open the pass state for one attention layer forward pass."""
        self._layers[layer_index] = _LayerState(dict(enabled))

    def end_layer(self, layer_index: int) -> None:
        self._layers.pop(layer_index, None)

    def reset(self) -> None:
        """Drop all pass state and queued work; joins the async worker.

        In-flight batches are *discarded*, not verified — reset means the
        caller no longer wants their results.  Caches and workspaces are
        dropped too: a reset engine holds no reference to any model array.
        """
        self._layers.clear()
        self._queue.clear()
        self._join_worker(discard=True)
        with self._cv:
            self._inbox.clear()
            self._completed.clear()
            self._inflight = 0
            self._epoch = 0
            self._failure = None
        self.weight_cache.clear()
        self.workspace.clear()
        self._batch_workspace.clear()
        self.dispatch_counts = {"gemm": 0, "detect": 0}

    def invalidate_weight_cache(self) -> None:
        """Drop cached weight-derived encodings.

        Needed only after mutating weight storage *in place* outside the two
        instrumented paths (``Optimizer.step`` / ``Module.load_state_dict``),
        which bump the global weights version themselves.
        """
        self.weight_cache.clear()

    def close(self) -> None:
        """Join the async worker thread (idempotent; engine stays usable).

        Graceful: batches already submitted are verified before the worker
        exits, so a later :meth:`harvest`/:meth:`drain` still returns their
        outcomes instead of hanging on stranded in-flight accounting.
        """
        self._join_worker(discard=False)

    @property
    def pending_verifications(self) -> int:
        """Work items in the front buffer, not yet flushed/submitted."""
        return len(self._queue)

    @property
    def pending_steps(self) -> int:
        """Submitted step batches the async worker has not finished yet."""
        with self._cv:
            return self._inflight

    # -- backend adoption -------------------------------------------------------

    @contextmanager
    def _timed(self, key: str, backend: ArrayBackend) -> Iterator[None]:
        """Measure one checksum phase with device-correct boundaries.

        Device libraries launch kernels asynchronously, so the wall clock
        must not start until prior work has retired and must not stop until
        this phase's kernels have: the backend's :meth:`synchronize` barrier
        runs on both edges.  On host backends it is a no-op and the timing is
        byte-identical to a bare ``timers.measure``.
        """
        backend.synchronize()
        with self.timers.measure(key):
            try:
                yield
            finally:
                backend.synchronize()

    # -- workspace / cache plumbing ---------------------------------------------

    def _buf(self, name: str, shape: Tuple[int, ...], xp: Any) -> Any:
        """A reusable float64 workspace buffer."""
        return self.workspace.request(name, shape, xp.float64, xp)

    def _transient_buf(self, name: str, shape: Tuple[int, ...], xp: Any) -> Optional[Any]:
        """Workspace buffer for checksums that may outlive the section visit.

        In deferred/async mode the boundary checksums are queued and verified
        after later layers (and steps) have run — a reusable buffer would be
        overwritten under the queue, so queued modes always allocate fresh.
        """
        if self.verification_mode != "immediate":
            return None
        return self._buf(name, shape, xp)

    def _cached_weight(self, key: tuple, sources: tuple, builder) -> Any:
        return self.weight_cache.lookup(key, sources, builder)

    def _stack_batch(self, name: str, arrays: List[Any], xp: Any) -> Any:
        """Stack a verification group into a batch-workspace buffer."""
        first = arrays[0]
        shape = (len(arrays),) + tuple(first.shape)
        out = self._batch_workspace.request(name, shape, first.dtype, xp)
        return stack_into(xp, arrays, out)

    @staticmethod
    def _section_active(ctx: SectionContext, state: _LayerState) -> bool:
        """Whether this boundary has any checksum work this pass.

        Checked *before* operand adoption so a pinned-foreign engine never
        pays ``xfer/h2d`` copies for a section that frequency gating (or a
        missing upstream checksum) is about to skip.
        """
        if ctx.section == "AS":
            return state.enabled.get("AS", False)
        if ctx.section == "CL":
            if ctx.phase == "decode":
                # Decode CL is row-side only and feeds nothing into S_O
                # (decode S_O carries rowcs(W_O) instead of cs_cl_col).
                return state.enabled.get("CL", False)
            return state.enabled.get("CL", False) or state.enabled.get("O", False)
        if ctx.section == "O":
            if ctx.phase == "decode":
                return state.enabled.get("O", False)
            return state.enabled.get("O", False) and state.cs_cl_col is not None
        if ctx.section in ("FF1", "FF2"):
            # Single-GEMM sections with no inter-section carried state (GELU
            # between them breaks any checksum chain): plain per-section gate.
            return state.enabled.get(ctx.section, False)
        raise KeyError(f"unknown protection section {ctx.section!r}")

    def _adopt_section(
        self, ctx: SectionContext, out: Any
    ) -> Tuple[ArrayBackend, Dict[str, Optional[Any]], Any, bool]:
        """Resolve the backend the checksum chain runs on for this section.

        Native case (no pin, or ``out`` already belongs to the pinned
        backend): zero copies, zero transfer time.  Pinned-foreign case:
        adopt the boundary output and every section operand into the pinned
        backend, timing the copies under ``xfer/h2d``.  For host-resident
        backends whose adoption can alias host memory (Torch on CPU) the
        "copy" is free and in-place repairs flow straight back.
        """
        owner = ctx.backend if ctx.backend is not None else backend_of(out)
        pinned = self.array_backend
        if pinned is None or pinned.is_backend_array(out):
            return (pinned or owner), ctx.operands, out, False
        with self._timed(XFER_H2D, pinned):
            ops = {
                # The KV cache is a plain Python object riding along in the
                # operand dict, not an array — never adopt it.
                key: value if key == "kv_cache" or value is None
                else pinned.asarray(value)
                for key, value in ctx.operands.items()
            }
            work = pinned.asarray(out)
        return pinned, ops, work, True

    def _write_back_section(
        self,
        ctx: SectionContext,
        out: Any,
        ops: Dict[str, Optional[Any]],
        work: Any,
        outcome: Optional[SectionOutcome],
    ) -> None:
        """Export a pinned engine's repairs back into the producing arrays.

        Only runs on the adopted (pinned-foreign) path, and only when a
        repair actually mutated data — detection-only verifications leave the
        producing arrays untouched and cost no ``xfer/d2h`` time.
        """
        if outcome is None or outcome.report is None:
            return
        pinned = self.array_backend
        if outcome.report.corrected > 0:
            with self._timed(XFER_D2H, pinned):
                out[...] = pinned.to_numpy(work)
        if outcome.operand_repairs > 0:
            with self._timed(XFER_D2H, pinned):
                for key in ("q", "k_t", "v"):
                    host = ctx.operands.get(key)
                    adopted = ops.get(key)
                    if host is not None and adopted is not None:
                        host[...] = pinned.to_numpy(adopted)

    # -- section dispatch -------------------------------------------------------

    def protect_section(self, ctx: SectionContext, out: Any) -> Optional[SectionOutcome]:
        """Run the fused checksum chain for the section ending at ``out``.

        Returns ``None`` when the layer has no open pass state (hooks attached
        mid-pass) or the section is disabled for this pass.
        """
        state = self._layers.get(ctx.layer_index)
        if state is None:
            return None
        if not self._section_active(ctx, state):
            return None
        if ctx.phase == "decode":
            # Decode always runs natively: the incremental checksum state
            # lives beside the KV cache on the model's own backend, so a
            # pinned-foreign adoption round-trip would desynchronise it.
            if self.array_backend is not None and not self.array_backend.is_backend_array(out):
                raise RuntimeError(
                    "decode protection does not support a pinned-foreign engine; "
                    "run the engine on the model's array backend"
                )
            backend = ctx.backend if ctx.backend is not None else backend_of(out)
            if ctx.section == "AS":
                return self._protect_as_decode(ctx, state, ctx.operands, out, backend)
            if ctx.section == "CL":
                return self._protect_cl_decode(ctx, state, ctx.operands, out, backend)
            if ctx.section == "O":
                return self._protect_o_decode(ctx, state, ctx.operands, out, backend)
            if ctx.section == "FF1":
                # The FFN has no cross-token state, so a decode step is the
                # training algebra at sequence length 1 — O(1) per token.
                return self._protect_ff1(ctx, state, ctx.operands, out, backend)
            if ctx.section == "FF2":
                return self._protect_ff2(ctx, state, ctx.operands, out, backend)
            raise KeyError(f"unknown protection section {ctx.section!r}")
        backend, ops, work, adopted = self._adopt_section(ctx, out)
        if ctx.section == "AS":
            outcome = self._protect_as(ctx, state, ops, work, backend)
        elif ctx.section == "CL":
            outcome = self._protect_cl(ctx, state, ops, work, backend)
        elif ctx.section == "O":
            outcome = self._protect_o(ctx, state, ops, work, backend)
        elif ctx.section == "FF1":
            outcome = self._protect_ff1(ctx, state, ops, work, backend)
        elif ctx.section == "FF2":
            outcome = self._protect_ff2(ctx, state, ops, work, backend)
        else:
            raise KeyError(f"unknown protection section {ctx.section!r}")
        if adopted:
            self._write_back_section(ctx, out, ops, work, outcome)
        return outcome

    def _verify(
        self,
        ctx: SectionContext,
        out: Any,
        checksums: ChecksumState,
        outcome: SectionOutcome,
        backend: ArrayBackend,
    ) -> None:
        """Verify ``out`` now, or queue it for a batched verification pass."""
        if self.verification_mode != "immediate":
            self._queue.append(
                _DeferredCheck(ctx.section, ctx.layer_index, ctx.step, out,
                               checksums, backend=backend)
            )
            outcome.deferred = True
            return
        with self._timed(f"{ctx.section}/detect", backend):
            self.dispatch_counts["detect"] += 1
            outcome.report = correct_matrix(
                out, checksums, thresholds=self.thresholds,
                refresh_checksums=self.refresh_checksums,
            )
        if ctx.phase != "train":
            outcome.request_dirty = request_dirty_from_report(outcome.report)

    _fold_request_dirty = staticmethod(fold_request_dirty)

    # -- section S_AS -----------------------------------------------------------

    def _protect_as(
        self,
        ctx: SectionContext,
        state: _LayerState,
        ops: Dict[str, Optional[Any]],
        out: Any,
        backend: ArrayBackend,
    ) -> Optional[SectionOutcome]:
        # Gating already happened in protect_section via _section_active.
        xp = backend.namespace_for(out)
        x, w_q, w_k = ops["x"], ops["w_q"], ops["w_k"]
        bias_q, bias_k = ops.get("bias_q"), ops.get("bias_k")
        if (bias_q is None) != (bias_k is None):
            # MultiHeadAttention biases the Q and K projections together; the
            # fused [W_Q | W_K] carry adds both bias rows as one.
            raise ValueError(
                "S_AS needs both or neither of bias_q / bias_k, got only "
                f"{'bias_q' if bias_q is not None else 'bias_k'}"
            )
        num_rows = x.shape[-2]
        lead = tuple(x.shape[:-2])
        outcome = SectionOutcome(section="AS", layer_index=ctx.layer_index, step=ctx.step)

        # Encode the section input once...
        with self._timed("AS/encode", backend):
            self.dispatch_counts["gemm"] += 1
            cs_x = encode_column_checksums(
                x, out=self._buf("AS/cs_x", lead + (2, x.shape[-1]), xp)
            )
            if ctx.phase == "prefill" and ops.get("kv_cache") is not None:
                # Seed the cache's incremental input checksums.  Copy, not
                # alias: cs_x may live in a workspace slot shared across
                # layer visits.
                cache = ops["kv_cache"]
                cs_x_buf, _ = cache.ensure_checksum_buffers(xp, x.shape[-1])
                cs_x_buf[...] = cs_x
                cache.cs_x_len = num_rows
        # ...and carry it through every member GEMM of the section.
        with self._timed("AS/update", backend):
            # Sibling fusion: W_Q and W_K consume the same carried checksum,
            # so one GEMM against the cached concatenated operand [W_Q | W_K]
            # replaces the two per-projection checksum GEMMs; the Q/K halves
            # are recovered as axis-split views (no copy).  Cache identity
            # keys on the *pre-adoption* producer arrays (ctx.operands): a
            # pinned-foreign engine adopts fresh copies every visit, which
            # would defeat an identity check on the adopted operands — the
            # host-side originals are the stable handle.  On the native path
            # ops IS ctx.operands.
            w_qk = self._cached_weight(
                ("AS/w_qk", ctx.layer_index),
                (ctx.operands["w_q"], ctx.operands["w_k"]),
                lambda: xp.concatenate([w_q, w_k], axis=-1),
            )
            d_q = w_q.shape[-1]
            self.dispatch_counts["gemm"] += 1
            cs_qk = matmul_into(
                xp, cs_x, w_qk,
                self._buf("AS/cs_qk", lead + (2, w_qk.shape[-1]), xp),
            )
            if bias_q is not None:
                # Both bias adjustments collapse into one vectorised in-place
                # add of the cached concatenated float64 bias row; cs_qk is
                # freshly computed float64, so the values are identical to
                # the per-GEMM reference's copy-then-add.
                b_qk = self._cached_weight(
                    ("AS/bias_qk", ctx.layer_index),
                    (ctx.operands["bias_q"], ctx.operands["bias_k"]),
                    lambda: xp.concatenate([
                        xp.astype(xp.asarray(bias_q), xp.float64, copy=False),
                        xp.astype(xp.asarray(bias_k), xp.float64, copy=False),
                    ], axis=-1),
                )
                cs_qk[..., 0, :] += num_rows * b_qk
                cs_qk[..., 1, :] += (num_rows * (num_rows + 1) / 2.0) * b_qk
            cs_q, cs_k = cs_qk[..., :d_q], cs_qk[..., d_q:]
            cs_q_ph = split_head_column_checksums(cs_q, ctx.num_heads)     # (B, H, 2, dh)
            cs_k_ph = split_head_column_checksums(cs_k, ctx.num_heads)
            self.dispatch_counts["gemm"] += 2
            # Column side of AS: col(AS) = col(Q) K^T.
            cs_as_col = matmul_into(                                        # (B, H, 2, S)
                xp, cs_q_ph, ops["k_t"],
                self._transient_buf(
                    "AS/cs_as_col", tuple(cs_q_ph.shape[:-1]) + (ops["k_t"].shape[-1],), xp
                ),
            )
            # Row side of AS: row(AS) = Q row(K^T) = Q col(K)^T.
            cs_as_row = matmul_into(                                        # (B, H, S, 2)
                xp, ops["q"], xp.swapaxes(cs_k_ph, -1, -2),
                self._transient_buf("AS/cs_as_row", tuple(ops["q"].shape[:-1]) + (2,), xp),
            )

        self._verify(ctx, out, ChecksumState(col=cs_as_col, row=cs_as_row), outcome, backend)
        if (
            self.repair_operands
            and outcome.report is not None
            and outcome.report.corrected > 0
        ):
            with self._timed("AS/correct", backend):
                q_report = check_columns(ops["q"], cs_q_ph, thresholds=self.thresholds)
                kt_report = check_rows(
                    ops["k_t"], xp.swapaxes(cs_k_ph, -1, -2), thresholds=self.thresholds
                )
            outcome.operand_repairs = q_report.num_corrected + kt_report.num_corrected
        return outcome

    # -- decode sections (serving) ----------------------------------------------
    #
    # A decode step appends one row to the attention input, so every decode
    # boundary matrix has a single query row — the column checksums degenerate
    # (a sum over one row detects nothing the row itself doesn't show), and
    # the decode chain therefore carries *row* checksums only:
    #
    # * S_AS: fold the new input row into the cache's incremental cs(X)
    #   (elementwise, O(1) in the cached length), re-derive col(K) through
    #   W_K, and row(AS) = Q col(K)^T exactly as in training.
    # * S_CL: derive the new V row's checksum from the cached rowcs(W_V)
    #   carry, write it into its cache slot, and row(CL) = AP row(V).
    # * S_O: carry the per-weight-version rowcs(W_O) through the output
    #   projection — row(O) = CL row(W_O).
    #
    # Steady-state checksum GEMM dispatches per layer per token: AS 2, CL 2,
    # O 1 — constant in the cached length (SectionCostModel's serving entry).

    def _decode_cache(self, ops: Dict[str, Optional[Any]], section: str):
        cache = ops.get("kv_cache")
        if cache is None:
            raise RuntimeError(
                f"decode {section} protection requires the KV cache in the "
                "section operands"
            )
        return cache

    def _protect_as_decode(
        self,
        ctx: SectionContext,
        state: _LayerState,
        ops: Dict[str, Optional[Any]],
        out: Any,
        backend: ArrayBackend,
    ) -> Optional[SectionOutcome]:
        xp = backend.namespace_for(out)
        cache = self._decode_cache(ops, "AS")
        x = ops["x"]                      # (B, 1, D) — the new input row
        total_len = cache.length          # post-append cache length T
        lead = tuple(x.shape[:-2])
        outcome = SectionOutcome(section="AS", layer_index=ctx.layer_index, step=ctx.step)
        if cache.cs_x is None or cache.cs_x_len != total_len - 1:
            raise RuntimeError(
                "decode AS protection needs contiguous incremental checksums: "
                f"cache covers {cache.cs_x_len if cache.cs_x is not None else 'no'} "
                f"of {total_len - 1} prior positions — run a protected prefill "
                "and keep the AS section enabled on every decode step"
            )

        with self._timed("AS/encode", backend):
            # O(1) incremental fold of the new row — elementwise AXPYs, not a
            # checksum GEMM dispatch.
            update_column_checksums_with_appended_rows(cache.cs_x, x, total_len - 1)
            cache.cs_x_len = total_len
        with self._timed("AS/update", backend):
            w_k = ops["w_k"]
            bias_k = ops.get("bias_k")
            self.dispatch_counts["gemm"] += 1
            cs_k = matmul_into(
                xp, cache.cs_x, w_k,
                self._buf("AS/decode_cs_k", lead + (2, w_k.shape[-1]), xp),
            )
            if bias_k is not None:
                b_k = self._cached_weight(
                    ("AS/decode_bias_k", ctx.layer_index),
                    (ctx.operands["bias_k"],),
                    lambda: xp.astype(xp.asarray(bias_k), xp.float64, copy=False),
                )
                # Fresh float64 GEMM output: in-place adds are value-identical
                # to adjust_column_checksums_for_bias's copy-then-add.
                cs_k[..., 0, :] += total_len * b_k
                cs_k[..., 1, :] += (total_len * (total_len + 1) / 2.0) * b_k
            cs_k_ph = split_head_column_checksums(cs_k, ctx.num_heads)  # (B, H, 2, dh)
            self.dispatch_counts["gemm"] += 1
            cs_as_row = matmul_into(                                    # (B, H, 1, 2)
                xp, ops["q"], xp.swapaxes(cs_k_ph, -1, -2),
                self._transient_buf(
                    "AS/decode_cs_as_row", tuple(ops["q"].shape[:-1]) + (2,), xp
                ),
            )

        self._verify(ctx, out, ChecksumState(row=cs_as_row), outcome, backend)
        return outcome

    def _protect_cl_decode(
        self,
        ctx: SectionContext,
        state: _LayerState,
        ops: Dict[str, Optional[Any]],
        out: Any,
        backend: ArrayBackend,
    ) -> Optional[SectionOutcome]:
        xp = backend.namespace_for(out)
        cache = self._decode_cache(ops, "CL")
        x = ops["x"]
        ap = ops["ap"]                    # (B, H, 1, T)
        total_len = cache.length
        outcome = SectionOutcome(section="CL", layer_index=ctx.layer_index, step=ctx.step)
        if cache.cs_v_row is None or cache.cs_v_len != total_len - 1:
            raise RuntimeError(
                "decode CL protection needs contiguous incremental checksums: "
                f"cache covers {cache.cs_v_len if cache.cs_v_row is not None else 'no'} "
                f"of {total_len - 1} prior positions — run a protected prefill "
                "and keep the CL section enabled on every decode step"
            )

        with self._timed("CL/encode", backend):
            def build_rowcs() -> Any:
                self.dispatch_counts["gemm"] += 1
                return encode_per_head_row_checksums_of_weight(ops["w_v"], ctx.num_heads)

            rowcs_wv = self._cached_weight(
                ("CL/rowcs_wv", ctx.layer_index), (ctx.operands["w_v"],), build_rowcs
            )
        with self._timed("CL/update", backend):
            self.dispatch_counts["gemm"] += 1
            # Same einsum as the full-sequence chain, over one row — the
            # documented allocating exception (see _protect_cl).
            # reprolint: disable=WS001
            cs_v_new = xp.einsum("...sd,dhw->...hsw", x, rowcs_wv)  # (B, H, 1, 2)
            if ops.get("bias_v") is not None:
                def build_bias_terms() -> Tuple[Any, Any]:
                    bias_heads = xp.astype(
                        xp.asarray(ops["bias_v"]), xp.float64, copy=False
                    ).reshape(ctx.num_heads, ctx.head_dim)
                    _, v2 = checksum_weights(ctx.head_dim, xp=xp)
                    return (
                        xp.sum(bias_heads, axis=-1)[None, :, None],
                        xp.sum(bias_heads * v2, axis=-1)[None, :, None],
                    )

                term0, term1 = self._cached_weight(
                    ("CL/bias_v", ctx.layer_index),
                    (ctx.operands["bias_v"],), build_bias_terms,
                )
                cs_v_new[..., 0] += term0
                cs_v_new[..., 1] += term1
            # Slot the new row's checksum into its preallocated cache
            # position and carry the populated prefix through AP.
            cache.cs_v_row[:, :, total_len - 1:total_len, :] = cs_v_new
            cache.cs_v_len = total_len
            self.dispatch_counts["gemm"] += 1
            cs_cl_row = matmul_into(                                   # (B, H, 1, 2)
                xp, ap, cache.cs_v_row[:, :, :total_len, :],
                self._transient_buf(
                    "CL/decode_cs_cl_row", tuple(ap.shape[:-1]) + (2,), xp
                ),
            )

        self._verify(ctx, out, ChecksumState(row=cs_cl_row), outcome, backend)
        # Decode S_O carries rowcs(W_O) directly; nothing flows via cs_cl_col.
        state.cs_cl_col = None
        return outcome

    def _protect_o_decode(
        self,
        ctx: SectionContext,
        state: _LayerState,
        ops: Dict[str, Optional[Any]],
        out: Any,
        backend: ArrayBackend,
    ) -> Optional[SectionOutcome]:
        xp = backend.namespace_for(out)
        outcome = SectionOutcome(section="O", layer_index=ctx.layer_index, step=ctx.step)
        with self._timed("O/update", backend):
            def build_rowcs_wo() -> Any:
                self.dispatch_counts["gemm"] += 1
                return encode_row_checksums(ops["w_o"])                # (D, 2)

            rowcs_wo = self._cached_weight(
                ("O/rowcs_wo", ctx.layer_index), (ctx.operands["w_o"],), build_rowcs_wo
            )
            self.dispatch_counts["gemm"] += 1
            cs_o_row = matmul_into(                                    # (B, 1, 2)
                xp, ops["cl"], rowcs_wo,
                self._transient_buf(
                    "O/decode_cs_o_row", tuple(ops["cl"].shape[:-1]) + (2,), xp
                ),
            )
        self._verify(ctx, out, ChecksumState(row=cs_o_row), outcome, backend)
        return outcome

    # -- section S_CL -----------------------------------------------------------

    def _protect_cl(
        self,
        ctx: SectionContext,
        state: _LayerState,
        ops: Dict[str, Optional[Any]],
        out: Any,
        backend: ArrayBackend,
    ) -> Optional[SectionOutcome]:
        # At least one of CL/O is enabled (gated via _section_active); when
        # only O is, this boundary is visited solely to derive cs_cl_col.
        cl_enabled = state.enabled.get("CL", False)
        xp = backend.namespace_for(out)
        outcome = SectionOutcome(section="CL", layer_index=ctx.layer_index, step=ctx.step)

        cs_v_row = None
        if cl_enabled:
            # Per-head row checksums of V, derived from W_V without touching V:
            # encode rowcs(W_V) once *per weight version* and carry it through
            # the X W_V GEMM on every visit.
            with self._timed("CL/encode", backend):
                def build_rowcs() -> Any:
                    self.dispatch_counts["gemm"] += 1
                    return encode_per_head_row_checksums_of_weight(ops["w_v"], ctx.num_heads)

                # Identity keys on the pre-adoption array (see _protect_as).
                rowcs_wv = self._cached_weight(
                    ("CL/rowcs_wv", ctx.layer_index), (ctx.operands["w_v"],), build_rowcs
                )
            with self._timed("CL/update", backend):
                self.dispatch_counts["gemm"] += 1
                # Deliberately *not* workspace-backed: einsum with out= loses
                # NumPy's specialised inner loops (~4x slower at attention
                # dims) and Torch's einsum has no out= at all, so this one
                # intermediate allocates per visit — the documented exception
                # to the zero-allocation claim (see SectionCostModel.
                # checksum_workspace_slots).  The contraction itself must stay
                # an einsum: the per-GEMM reference computes it the same way,
                # which is what keeps repaired values bitwise identical.
                # reprolint: disable=WS001
                cs_v_row = xp.einsum("...sd,dhw->...hsw", ops["x"], rowcs_wv)  # (B, H, S, 2)
                if ops.get("bias_v") is not None:
                    def build_bias_terms() -> Tuple[Any, Any]:
                        bias_heads = xp.astype(
                            xp.asarray(ops["bias_v"]), xp.float64, copy=False
                        ).reshape(ctx.num_heads, ctx.head_dim)
                        _, v2 = checksum_weights(ctx.head_dim, xp=xp)
                        return (
                            xp.sum(bias_heads, axis=-1)[None, :, None],
                            xp.sum(bias_heads * v2, axis=-1)[None, :, None],
                        )

                    term0, term1 = self._cached_weight(
                        ("CL/bias_v", ctx.layer_index),
                        (ctx.operands["bias_v"],), build_bias_terms,
                    )
                    # The bias shift lands straight in the freshly computed
                    # einsum output — no defensive copy-then-mutate (the
                    # added values are identical either way).
                    cs_v_row[..., 0] += term0
                    cs_v_row[..., 1] += term1
                if ctx.phase == "prefill" and ops.get("kv_cache") is not None:
                    # Seed the cache's per-position V row checksums (bias
                    # included, matching what decode folds in per token).
                    cache = ops["kv_cache"]
                    prompt_len = cs_v_row.shape[-2]
                    _, cs_v_buf = cache.ensure_checksum_buffers(xp, ops["x"].shape[-1])
                    cs_v_buf[:, :, :prompt_len, :] = cs_v_row
                    cache.cs_v_len = prompt_len

        with self._timed("CL/encode", backend):
            ap = ops["ap"]
            self.dispatch_counts["gemm"] += 1
            cs_ap_col = encode_column_checksums(                               # (B, H, 2, S)
                ap, out=self._buf("CL/cs_ap_col", tuple(ap.shape[:-2]) + (2, ap.shape[-1]), xp)
            )
        with self._timed("CL/update", backend):
            self.dispatch_counts["gemm"] += 1
            cs_cl_col = matmul_into(                                           # (B, H, 2, dh)
                xp, cs_ap_col, ops["v"],
                self._transient_buf(
                    "CL/cs_cl_col", tuple(cs_ap_col.shape[:-1]) + (ops["v"].shape[-1],), xp
                ),
            )
            cs_cl_row = None
            if cl_enabled and cs_v_row is not None:
                # row(CL) = AP row(V): carry the row checksums of V through.
                self.dispatch_counts["gemm"] += 1
                cs_cl_row = matmul_into(                                       # (B, H, S, 2)
                    xp, ap, cs_v_row,
                    self._transient_buf("CL/cs_cl_row", tuple(ap.shape[:-1]) + (2,), xp),
                )

        checksums = ChecksumState(col=cs_cl_col, row=cs_cl_row)
        if cl_enabled:
            self._verify(ctx, out, checksums, outcome, backend)
            if (
                self.repair_operands
                and outcome.report is not None
                and outcome.report.corrected > 0
                and cs_v_row is not None
            ):
                with self._timed("CL/correct", backend):
                    v_report = check_rows(ops["v"], cs_v_row, thresholds=self.thresholds)
                outcome.operand_repairs = v_report.num_corrected
        # Pass the (possibly refreshed) column checksums of CL to section S_O.
        state.cs_cl_col = checksums.col
        return outcome

    # -- section S_O ------------------------------------------------------------

    def _protect_o(
        self,
        ctx: SectionContext,
        state: _LayerState,
        ops: Dict[str, Optional[Any]],
        out: Any,
        backend: ArrayBackend,
    ) -> Optional[SectionOutcome]:
        # Gating (O enabled and a CL checksum to carry) happened in
        # protect_section via _section_active.
        xp = backend.namespace_for(out)
        outcome = SectionOutcome(section="O", layer_index=ctx.layer_index, step=ctx.step)
        with self._timed("O/update", backend):
            # Merge through a reusable buffer of the moved layout
            # (B, 2, H, dh): no per-visit allocation, same values as the
            # helper's reshape-copy.
            *lead, h, two, dh = state.cs_cl_col.shape
            merge_buffer = self.workspace.request(
                "O/cs_cl_merged", tuple(lead) + (two, h, dh),
                getattr(state.cs_cl_col, "dtype", None), xp,
            )
            cs_cl_merged = merge_head_column_checksums(                        # (B, 2, D)
                state.cs_cl_col, out=merge_buffer
            )
            self.dispatch_counts["gemm"] += 1
            cs_o_col = matmul_into(
                xp, cs_cl_merged, ops["w_o"],
                self._transient_buf(
                    "O/cs_o_col", tuple(cs_cl_merged.shape[:-1]) + (ops["w_o"].shape[-1],), xp
                ),
            )
        self._verify(ctx, out, ChecksumState(col=cs_o_col), outcome, backend)
        return outcome

    # -- FFN sections S_FF1 / S_FF2 ---------------------------------------------
    #
    # The GELU between the two feed-forward GEMMs is nonlinear, so no checksum
    # can be carried across it: each FFN GEMM forms its own single-member
    # section, verified at its output.  S_FF1 runs column-side — encode
    # ``col(x)`` once (the one new data-side encoding per layer) and carry it
    # through ``W_up``; S_FF2 runs row-side against the per-weight-version
    # cached ``rowcs(W_down)``, so its steady-state cost is a single carry
    # GEMM.  Decode reuses the same chain unchanged: the FFN has no cross-
    # token state, so one decoded token is the training algebra at sequence
    # length 1 — O(1) per token by construction, no incremental cache state.
    #
    # No operand-repair pass: a single-GEMM section has no interior operands
    # produced by member GEMMs (``x`` / ``h`` are the section *inputs*), so a
    # boundary correction already repairs everything the section owns.  The
    # bias adds run *outside* the sections — the boundary matrices ``H`` and
    # ``FO`` are the raw GEMM outputs, exactly as attention's output-
    # projection bias sits outside :math:`S_O` — so no bias adjustment of the
    # carried checksums is needed.

    def _protect_ff1(
        self,
        ctx: SectionContext,
        state: _LayerState,
        ops: Dict[str, Optional[Any]],
        out: Any,
        backend: ArrayBackend,
    ) -> Optional[SectionOutcome]:
        xp = backend.namespace_for(out)
        x, w_up = ops["x"], ops["w_up"]
        lead = tuple(x.shape[:-2])
        outcome = SectionOutcome(section="FF1", layer_index=ctx.layer_index, step=ctx.step)
        with self._timed("FF1/encode", backend):
            self.dispatch_counts["gemm"] += 1
            cs_x = encode_column_checksums(
                x, out=self._buf("FF1/cs_x", lead + (2, x.shape[-1]), xp)
            )
        with self._timed("FF1/update", backend):
            self.dispatch_counts["gemm"] += 1
            cs_h = matmul_into(                                          # (B, 2, D_ff)
                xp, cs_x, w_up,
                self._transient_buf("FF1/col", lead + (2, w_up.shape[-1]), xp),
            )
        self._verify(ctx, out, ChecksumState(col=cs_h), outcome, backend)
        return outcome

    def _protect_ff2(
        self,
        ctx: SectionContext,
        state: _LayerState,
        ops: Dict[str, Optional[Any]],
        out: Any,
        backend: ArrayBackend,
    ) -> Optional[SectionOutcome]:
        xp = backend.namespace_for(out)
        h = ops["h"]
        outcome = SectionOutcome(section="FF2", layer_index=ctx.layer_index, step=ctx.step)
        with self._timed("FF2/encode", backend):
            def build_rowcs() -> Any:
                self.dispatch_counts["gemm"] += 1
                return encode_row_checksums(ops["w_down"])               # (D_ff, 2)

            # Identity keys on the pre-adoption array (see _protect_as).
            rowcs_wd = self._cached_weight(
                ("FF2/rowcs_w_down", ctx.layer_index),
                (ctx.operands["w_down"],), build_rowcs,
            )
        with self._timed("FF2/update", backend):
            self.dispatch_counts["gemm"] += 1
            cs_fo = matmul_into(                                         # (B, S, 2)
                xp, h, rowcs_wd,
                self._transient_buf("FF2/row", tuple(h.shape[:-1]) + (2,), xp),
            )
        self._verify(ctx, out, ChecksumState(row=cs_fo), outcome, backend)
        return outcome

    # -- batched verification (shared by deferred flush and the async worker) ----

    def _verify_batch(
        self, items: List[_DeferredCheck], timer_prefix: str = ""
    ) -> List[Tuple[_DeferredCheck, SectionOutcome]]:
        """Verify queued boundary matrices in one batched pass per group.

        Checks are grouped by (section, matrix shape, owning backend) and
        stacked along a new leading axis, so all layers of a step are verified
        with a single vectorised EEC-ABFT call per checksum side per group —
        the cross-layer batching of the fused design.  Stacking and detection
        run on each group's own backend.  Detection only: ``corrected`` stays
        0.  Deferred mode and the async worker both run exactly this code,
        which is what makes their detection decisions byte-identical.
        """
        pairs: List[Tuple[_DeferredCheck, SectionOutcome]] = []
        if not items:
            return pairs
        groups: Dict[tuple, List[_DeferredCheck]] = {}
        for item in items:
            # dtype is part of the key: stacking into a shared (reusable)
            # buffer must never silently downcast a mixed-precision batch the
            # way np.stack's promotion would have hidden.
            key = (item.section, tuple(item.matrix.shape),
                   getattr(item.matrix, "dtype", None), id(item.backend))
            groups.setdefault(key, []).append(item)

        for (section, _shape, _dtype, _backend_id), group in groups.items():
            xp = group[0].backend.namespace_for(group[0].matrix)
            with self._timed(f"{timer_prefix}{section}/detect", group[0].backend):
                self.dispatch_counts["detect"] += 1
                # Stacks go through the batch workspace: one reusable buffer
                # per (section, group shape), so the per-step batched pass is
                # allocation-free in steady state too.
                stacked = self._stack_batch(
                    f"{timer_prefix}stack/{section}/matrix",
                    [item.matrix for item in group], xp,
                )
                col_reports = row_reports = None
                if group[0].checksums.has_col():
                    col = self._stack_batch(
                        f"{timer_prefix}stack/{section}/col",
                        [item.checksums.col for item in group], xp,
                    )
                    col_reports = check_columns(
                        stacked, col, thresholds=self.thresholds, correct=False
                    )
                if group[0].checksums.has_row():
                    row = self._stack_batch(
                        f"{timer_prefix}stack/{section}/row",
                        [item.checksums.row for item in group], xp,
                    )
                    row_reports = check_rows(
                        stacked, row, thresholds=self.thresholds, correct=False
                    )
            for index, item in enumerate(group):
                report = MatrixCorrectionReport()
                dirty = None
                if col_reports is not None:
                    report.used_column_side = True
                    report.detected += int(col_reports.detected[index].sum())
                    report.aborted += int(col_reports.aborted[index].sum())
                    dirty = self._fold_request_dirty(
                        dirty, col_reports.detected[index] | col_reports.aborted[index]
                    )
                if row_reports is not None:
                    report.used_row_side = True
                    report.detected += int(row_reports.detected[index].sum())
                    report.aborted += int(row_reports.aborted[index].sum())
                    dirty = self._fold_request_dirty(
                        dirty, row_reports.detected[index] | row_reports.aborted[index]
                    )
                # Detection-only passes leave the matrix untouched, and a clean
                # pass proves it holds no extreme value: rescan only if flagged.
                if report.detected:
                    report.residual_extreme = int(
                        self.thresholds.is_extreme(item.matrix).sum())
                pairs.append((
                    item,
                    SectionOutcome(
                        section=item.section,
                        layer_index=item.layer_index,
                        step=item.step,
                        report=report,
                        deferred=True,
                        request_dirty=dirty,
                    ),
                ))
        return pairs

    # -- deferred flush ---------------------------------------------------------

    def flush(self) -> List[SectionOutcome]:
        """Verify every queued boundary matrix, synchronously, right now.

        In deferred mode this is the per-step batched pass (detection only;
        see the module docstring).  In async mode it is a convenience barrier:
        submit whatever the front buffer holds, then :meth:`drain`.
        """
        if self.verification_mode == "async":
            self.submit_step()
            return self.drain()
        items, self._queue = self._queue, []
        return [outcome for _, outcome in self._verify_batch(items)]

    # -- async mode -------------------------------------------------------------

    def submit_step(self) -> int:
        """Swap the front buffer and hand the snapshot to the worker thread.

        Blocks while ``max_pending_steps`` step batches are already in
        flight — the backpressure that bounds both memory growth and
        detection staleness.  Returns the number of work items submitted.
        """
        if self.verification_mode != "async":
            raise RuntimeError("submit_step() requires the 'async' verification mode")
        items, self._queue = self._queue, []
        if not items:
            return 0
        with self._cv:
            while self._inflight >= self.max_pending_steps and self._failure is None:
                self._cv.wait()
            # A pending worker failure surfaces here rather than after more
            # wasted submissions; the step's items are dropped with it.
            self._raise_failure_locked()
            self._epoch += 1
            self._inflight += 1
            self._inbox.append((self._epoch, items))
            self._ensure_worker_locked()
            self._cv.notify_all()
        return len(items)

    def harvest(self) -> List[SectionOutcome]:
        """Collect verification results completed so far, without blocking.

        Re-raises an exception the worker hit, instead of swallowing it.
        """
        with self._cv:
            self._raise_failure_locked()
            completed, self._completed = self._completed, []
        return completed

    def drain(self) -> List[SectionOutcome]:
        """Barrier: wait until every submitted step batch has been verified.

        Returns all completed outcomes (including ones finished before the
        call); re-raises any worker exception.
        """
        if self.verification_mode != "async":
            return []
        with self._cv:
            while self._inflight and self._failure is None:
                self._cv.wait()
            self._raise_failure_locked()
            completed, self._completed = self._completed, []
        return completed

    def _raise_failure_locked(self) -> None:
        if self._failure is not None:
            failure, self._failure = self._failure, None
            raise failure

    def _ensure_worker_locked(self) -> None:
        if self._worker is None or not self._worker.is_alive():
            self._shutdown = False
            self._discard_on_shutdown = False
            self._worker = threading.Thread(
                target=self._worker_main, name="protection-engine-verifier", daemon=True
            )
            self._worker.start()

    def _join_worker(self, discard: bool) -> None:
        worker = self._worker
        if worker is None:
            return
        with self._cv:
            self._shutdown = True
            self._discard_on_shutdown = discard
            self._cv.notify_all()
        worker.join(timeout=30.0)
        if worker.is_alive():  # pragma: no cover - only on a wedged batch
            raise RuntimeError("protection-engine verification worker did not shut down")
        with self._cv:
            self._worker = None
            self._shutdown = False

    def _worker_main(self) -> None:
        while True:
            with self._cv:
                while not self._inbox and not self._shutdown:
                    self._cv.wait()
                if self._shutdown and self._discard_on_shutdown:
                    # reset(): drop the remaining batches but keep the
                    # in-flight accounting sane for anyone mid-drain.
                    self._inflight -= len(self._inbox)
                    self._inbox.clear()
                    self._cv.notify_all()
                    return
                if not self._inbox:  # graceful shutdown, nothing left
                    return
                epoch, items = self._inbox.popleft()
            try:
                outcomes = self._process_batch(epoch, items)
            except BaseException as exc:  # propagated to the caller at next drain
                with self._cv:
                    self._failure = exc
                    self._inflight -= 1
                    self._cv.notify_all()
            else:
                with self._cv:
                    self._completed.extend(outcomes)
                    self._inflight -= 1
                    self._cv.notify_all()

    def _process_batch(self, epoch: int, items: List[_DeferredCheck]) -> List[SectionOutcome]:
        """Verify one submitted step batch and repair the dirty fault sites.

        Detection runs the exact deferred-mode batched pass.  Then, per step
        counter, the *earliest* dirty boundary in dataflow order — the fault
        site under the paper's single-transient-fault-per-step model — has
        its retained matrix repaired via EEC-ABFT on a copy (the live array
        was already consumed by the forward pass; repairing a copy keeps the
        result race-free for any reader still holding the original).  Dirty
        boundaries downstream of the fault site are propagation shadows: an
        extreme value that escaped its section corrupts everything after it,
        and the recovery for those is step re-execution (the trainer's
        ``stale_policy``), not more repairs.  Backpressure guarantees every
        batch verifies within the ``max_pending_steps`` staleness window, so
        the fault site is always eligible for repair.
        """
        pairs = self._verify_batch(items, timer_prefix="async/")
        with self._cv:
            lag = self._epoch - epoch
        earliest_dirty: Dict[int, Tuple[Tuple[int, int], _DeferredCheck, SectionOutcome]] = {}
        for item, outcome in pairs:
            outcome.lag_steps = lag
            report = outcome.report
            if report.detected or report.aborted or report.residual_extreme:
                outcome.stale = True
                rank = (item.layer_index, _SECTION_ORDER[item.section])
                if item.step not in earliest_dirty or rank < earliest_dirty[item.step][0]:
                    earliest_dirty[item.step] = (rank, item, outcome)
        for _rank, item, outcome in earliest_dirty.values():
            with self._timed(f"async/{item.section}/repair", item.backend):
                repaired = item.backend.copy(item.matrix)
                outcome.repair = correct_matrix(
                    repaired, item.checksums.copy(), thresholds=self.thresholds,
                    refresh_checksums=self.refresh_checksums,
                )
        return [outcome for _, outcome in pairs]
