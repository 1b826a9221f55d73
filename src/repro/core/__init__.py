"""ATTNChecker core: ABFT for the attention mechanism.

This package is the reproduction of the paper's primary contribution:

``thresholds``
    Numerical thresholds (T_near-INF, T_correct, detection tolerances).
``checksums``
    Checksum encoding (unweighted + weighted), propagation of checksums
    through GEMMs and bias additions, head split/merge of checksum blocks.
``eec_abft``
    The Extreme Error Correcting ABFT of Section 4.2 — per-vector detection,
    case analysis (finite / INF / NaN deltas), location and correction of
    INF, NaN and near-INF errors, vectorised over whole matrices.

The checksum/EEC-ABFT stack (``checksums``, ``eec_abft``, ``correction``,
``engine``) is **array-backend generic**: every kernel dispatches through
:mod:`repro.backend`, so the same code protects NumPy, CuPy or Torch arrays
natively, and ``ATTNCheckerConfig.array_backend`` selects (or pins) the
library per checker.
``hooks``
    The attention instrumentation protocol (:class:`AttentionHooks`,
    :class:`GemmContext`, :class:`SectionContext`, the section-boundary op
    map) — defined here, at the bottom of the stack, and re-exported by
    :mod:`repro.nn.attention`, so checkers are importable without the model
    layers.
``patterns``
    Error-pattern classification (0D / 1R / 1C / 2D) and error-type mixes,
    shared with the fault-propagation study.
``correction``
    Matrix-level correction strategies for deterministic, nondeterministic
    and mixed-type patterns (Section 4.3).
``sections``
    The protection-section registry: the paper's three attention sections
    S_AS, S_CL, S_O with checksum passing (Section 4.4), the whole-model
    extension covering the FFN GEMMs (``FF1`` / ``FF2``), the protection
    scopes (``attention`` / ``attention+ffn``) and the cost
    accounting for all of them.
``engine``
    :class:`ProtectionEngine` — the fused section-level checksum-passing
    mechanics: encode once per section, carry through every member GEMM, and
    verify in one batched pass per section.  Three verification modes:
    immediate (in-pass), deferred (one batched pass per step at the step
    boundary) and async (the batched pass runs on a worker thread off the
    training critical path, with bounded-staleness correction of the retained
    boundary matrices).
``attention_checker``
    :class:`ATTNChecker` — the attention hook that ties everything together
    and plugs into :class:`repro.nn.MultiHeadAttention`.  A thin policy layer
    (adaptive frequencies, thresholds, statistics) over a selectable backend:
    the fused ``engine`` (default) or the reference per-GEMM implementation
    (``ATTNCheckerConfig(backend="per_gemm")``).
``adaptive``
    Adaptive ABFT detection frequencies (Section 4.5): Poisson error model,
    fault coverage (FC), fault-coverage efficiency (FCE) and the greedy
    frequency optimiser of Algorithm 1.
"""

from repro.core.thresholds import ABFTThresholds
from repro.core.hooks import (
    FFN_SECTION_BOUNDARY_OPS,
    SECTION_BOUNDARY_OPS,
    AttentionHooks,
    AttentionOp,
    FeedForwardOp,
    GemmContext,
    SectionContext,
    block_boundary_ops,
    op_spec,
    registered_blocks,
)
from repro.core.checksums import (
    ChecksumState,
    checksum_weights,
    clear_checksum_weight_cache,
    encode_column_checksums,
    encode_row_checksums,
    merge_head_column_checksums,
    split_head_column_checksums,
    stacked_checksum_weights,
    update_column_checksums_through_gemm,
    update_row_checksums_through_gemm,
)
from repro.core.workspace import (
    ChecksumWorkspace,
    einsum_into,
    matmul_into,
    stack_into,
)
from repro.core.eec_abft import ColumnCheckReport, check_columns, check_rows
from repro.core.patterns import ErrorPattern, classify_error_pattern, classify_error_types
from repro.core.correction import MatrixCorrectionReport, correct_matrix
from repro.core.protected_gemm import (
    ProtectedGemmResult,
    ProtectedMatmul,
    protected_matmul,
)
from repro.core.sections import (
    PROTECT_SCOPES,
    PROTECTION_SECTIONS,
    SECTION_REGISTRY,
    ProtectionSection,
    SectionCostModel,
    sections_for_scope,
)
from repro.core.engine import ProtectionEngine, SectionOutcome, WeightEncodingCache
from repro.core.attention_checker import (
    CHECKER_BACKENDS,
    VERIFICATION_MODES,
    ATTNChecker,
    ATTNCheckerConfig,
    CheckerStats,
)
from repro.core.adaptive import (
    AdaptiveFrequencyOptimizer,
    ErrorRates,
    OperationVulnerability,
    SectionReliabilityModel,
    optimize_abft_frequencies,
)

__all__ = [
    "ABFTThresholds",
    "AttentionHooks",
    "AttentionOp",
    "FeedForwardOp",
    "GemmContext",
    "SectionContext",
    "SECTION_BOUNDARY_OPS",
    "FFN_SECTION_BOUNDARY_OPS",
    "block_boundary_ops",
    "op_spec",
    "registered_blocks",
    "ChecksumState",
    "ChecksumWorkspace",
    "checksum_weights",
    "stacked_checksum_weights",
    "clear_checksum_weight_cache",
    "matmul_into",
    "einsum_into",
    "stack_into",
    "WeightEncodingCache",
    "encode_column_checksums",
    "encode_row_checksums",
    "update_column_checksums_through_gemm",
    "update_row_checksums_through_gemm",
    "split_head_column_checksums",
    "merge_head_column_checksums",
    "check_columns",
    "check_rows",
    "ColumnCheckReport",
    "ErrorPattern",
    "classify_error_pattern",
    "classify_error_types",
    "correct_matrix",
    "MatrixCorrectionReport",
    "protected_matmul",
    "ProtectedMatmul",
    "ProtectedGemmResult",
    "ProtectionSection",
    "PROTECTION_SECTIONS",
    "SECTION_REGISTRY",
    "PROTECT_SCOPES",
    "sections_for_scope",
    "SectionCostModel",
    "ProtectionEngine",
    "SectionOutcome",
    "ATTNChecker",
    "ATTNCheckerConfig",
    "CheckerStats",
    "CHECKER_BACKENDS",
    "VERIFICATION_MODES",
    "ErrorRates",
    "OperationVulnerability",
    "SectionReliabilityModel",
    "AdaptiveFrequencyOptimizer",
    "optimize_abft_frequencies",
]
