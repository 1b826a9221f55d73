"""Standalone ABFT-protected GEMM.

ATTNChecker integrates ABFT into the attention dataflow through hooks, but the
underlying primitive — a matrix multiplication whose output is verified and
repaired against carried checksums — is useful on its own (it is the building
block the classic ABFT literature the paper extends provides).  This module
exposes it as a small public API:

>>> from repro.core.protected_gemm import protected_matmul
>>> result = protected_matmul(a, b)          # C = A @ B with both checksum sides
>>> result.output                             # the (repaired, if needed) product
>>> result.report.corrected                   # how many vectors were repaired

``fault_hook`` lets callers (tests, campaigns) corrupt the raw product before
verification, exactly like the attention-level injector does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.backend import namespace_of
from repro.core.checksums import (
    ChecksumState,
    encode_column_checksums,
    encode_row_checksums,
    update_column_checksums_through_gemm,
    update_row_checksums_through_gemm,
)
from repro.core.correction import MatrixCorrectionReport, correct_matrix
from repro.core.thresholds import ABFTThresholds

__all__ = [
    "ProtectedGemmResult",
    "protected_matmul",
    "ProtectedMatmul",
]


@dataclass
class ProtectedGemmResult:
    """Output of one protected GEMM."""

    output: Any
    checksums: ChecksumState
    report: MatrixCorrectionReport

    @property
    def clean(self) -> bool:
        """True when no inconsistency was observed."""
        return self.report.clean

    @property
    def fully_corrected(self) -> bool:
        """True when no extreme value survived verification."""
        return self.report.fully_corrected


class ProtectedMatmul:
    """Reusable ABFT-protected matmul with configurable checksum sides.

    Parameters
    ----------
    maintain_column / maintain_row:
        Which checksum sides to encode on the inputs and verify on the output.
        Column checksums cover 0D/1R error patterns, row checksums 0D/1C;
        enabling both gives the nondeterministic-pattern handling of
        Section 4.3.
    thresholds:
        EEC-ABFT thresholds (paper defaults).
    """

    def __init__(
        self,
        maintain_column: bool = True,
        maintain_row: bool = True,
        thresholds: Optional[ABFTThresholds] = None,
    ) -> None:
        if not maintain_column and not maintain_row:
            raise ValueError("at least one checksum side must be maintained")
        self.maintain_column = maintain_column
        self.maintain_row = maintain_row
        self.thresholds = thresholds or ABFTThresholds()

    def __call__(
        self,
        a: Any,
        b: Any,
        fault_hook: Optional[Callable[[Any], Any]] = None,
    ) -> ProtectedGemmResult:
        """Compute ``a @ b`` with checksum verification and correction.

        ``fault_hook`` receives the raw product and may corrupt it in place
        (returning the array to verify), emulating a transient compute fault.
        """
        xp = namespace_of(a)
        a = xp.astype(xp.asarray(a), xp.float64, copy=False)
        b = xp.astype(xp.asarray(b), xp.float64, copy=False)
        output = xp.matmul(a, b)
        if fault_hook is not None:
            output = fault_hook(output)

        col = None
        row = None
        if self.maintain_column:
            col = update_column_checksums_through_gemm(encode_column_checksums(a), b)
        if self.maintain_row:
            row = update_row_checksums_through_gemm(a, encode_row_checksums(b))
        checksums = ChecksumState(col=col, row=row)
        report = correct_matrix(output, checksums, thresholds=self.thresholds)
        return ProtectedGemmResult(output=output, checksums=checksums, report=report)


def protected_matmul(
    a: Any,
    b: Any,
    fault_hook: Optional[Callable[[Any], Any]] = None,
    thresholds: Optional[ABFTThresholds] = None,
    maintain_column: bool = True,
    maintain_row: bool = True,
) -> ProtectedGemmResult:
    """One-shot ABFT-protected matrix multiplication (see :class:`ProtectedMatmul`)."""
    gemm = ProtectedMatmul(
        maintain_column=maintain_column, maintain_row=maintain_row, thresholds=thresholds
    )
    return gemm(a, b, fault_hook=fault_hook)
