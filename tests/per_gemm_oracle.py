"""The per-GEMM checker mechanics, kept as the oracle of the fused engine.

:class:`PerGemmOracle` is an :class:`~repro.core.ATTNChecker` that ignores
its :class:`~repro.core.engine.ProtectionEngine` and does the checksum work
inside every GEMM hook instead: it encodes, carries and verifies at each of
the six attention GEMMs (and both FFN GEMMs), one Python dispatch per GEMM.
The checksum algebra is operation-for-operation that of the fused engine,
which makes the two byte-comparable: differential tests run the same fault
campaign through both and require identical decisions and outputs.

Statistics, frequency gating, ``last_reports`` and ``recent_outcomes`` are
the parent's, so the serving engine's repair-or-evict attribution reads the
oracle exactly as it reads the product checker.  The oracle verifies inline
(immediate mode only), follows the GEMM operands' array library (it has no
engine to pin) and does not time itself.

``CHECKERS`` maps the two names the differential tests and the committed
golden fixture use — ``"fused"`` and ``"per_gemm"`` — to checker classes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.backend import namespace_of
from repro.core import ATTNChecker, ATTNCheckerConfig
from repro.core.checksums import (
    ChecksumState,
    adjust_column_checksums_for_bias,
    checksum_weights,
    encode_column_checksums,
    encode_per_head_row_checksums_of_weight,
    encode_row_checksums,
    merge_head_column_checksums,
    split_head_column_checksums,
    update_column_checksums_through_gemm,
    update_column_checksums_with_appended_rows,
)
from repro.core.correction import MatrixCorrectionReport, correct_matrix
from repro.core.eec_abft import check_columns, check_rows
from repro.core.engine import SectionOutcome, request_dirty_from_report
from repro.core.hooks import AttentionOp, FeedForwardOp, GemmContext, SectionContext

__all__ = ["PerGemmOracle", "CHECKERS"]


class _PassState:
    """Checksums carried between the GEMMs of one (layer, block) pass."""

    __slots__ = ("enabled", "cs_x_col", "cs_q_col", "cs_k_col", "cs_v_row", "cs_cl_col")

    def __init__(self, enabled: Dict[str, bool]) -> None:
        self.enabled = enabled
        self.cs_x_col: Optional[Any] = None
        self.cs_q_col: Optional[Any] = None
        self.cs_k_col: Optional[Any] = None
        self.cs_v_row: Optional[Any] = None
        self.cs_cl_col: Optional[Any] = None


class PerGemmOracle(ATTNChecker):
    """Hook-per-GEMM reference checker (see the module docstring)."""

    def __init__(self, config: Optional[ATTNCheckerConfig] = None) -> None:
        super().__init__(config)
        if self.config.verification_mode != "immediate":
            raise ValueError("the per-GEMM oracle verifies inline: immediate mode only")
        self._states: Dict[int, _PassState] = {}

    # -- pass windows (the parent's frequency gating, no engine) ---------------

    def on_attention_start(self, layer_index: int, step: int) -> None:
        self._states[layer_index] = _PassState(self._section_enabled_this_pass())

    def on_attention_end(self, layer_index: int, step: int) -> None:
        self._states.pop(layer_index, None)

    def on_block_start(self, block: str, layer_index: int, step: int) -> None:
        if block == "attention":
            return
        names = self._sections_of_block(block)
        if names:
            self._states[layer_index] = _PassState(self._advance_enabled(names))

    def on_block_end(self, block: str, layer_index: int, step: int) -> None:
        if block != "attention" and self._sections_of_block(block):
            self._states.pop(layer_index, None)

    def reset_stats(self) -> None:
        super().reset_stats()
        self._states.clear()

    # -- dispatch ---------------------------------------------------------------

    def consumes_gemm_outputs(self) -> bool:
        return True

    def on_section_output(self, ctx: SectionContext, out: Any) -> Any:
        return out  # the boundary GEMM's own hook already verified it

    def on_gemm_output(self, ctx: GemmContext, out: Any) -> Any:
        state = self._states.get(ctx.layer_index)
        if state is None:  # hooks attached mid-pass; nothing to do safely
            return out
        op = ctx.op
        if op is FeedForwardOp.UP:
            # FFN sections are single-GEMM (GELU blocks checksum carrying),
            # so the whole chain runs at the boundary GEMM — identical for
            # training and decode.
            self._ff_up(ctx, state, out)
        elif op is FeedForwardOp.DOWN:
            self._ff_down(ctx, state, out)
        elif ctx.phase == "decode":
            # Decode is row-side only; XQ contributes nothing because no
            # column checksums of Q are carried at decode.
            if op is AttentionOp.XK:
                self._projection_decode(ctx, state)
            elif op is AttentionOp.XV:
                self._value_projection_decode(ctx, state)
            elif op is AttentionOp.QK:
                self._attention_scores_decode(ctx, state, out)
            elif op is AttentionOp.APV:
                self._context_layer_decode(ctx, state, out)
            elif op is AttentionOp.CLO:
                self._output_decode(ctx, state, out)
        elif op is AttentionOp.XQ:
            self._projection(ctx, state, which="q")
        elif op is AttentionOp.XK:
            self._projection(ctx, state, which="k")
        elif op is AttentionOp.XV:
            self._value_projection(ctx, state)
        elif op is AttentionOp.QK:
            self._attention_scores(ctx, state, out)
        elif op is AttentionOp.APV:
            self._context_layer(ctx, state, out)
        elif op is AttentionOp.CLO:
            self._output(ctx, state, out)
        return out

    def _verify(self, ctx: GemmContext, section: str, out: Any,
                checksums: ChecksumState) -> MatrixCorrectionReport:
        """Detect and correct one boundary; record it like the product checker.

        Every non-train verification is also wrapped in a
        :class:`SectionOutcome` carrying the per-request dirty mask, the same
        attribution the fused engine computes.
        """
        report = correct_matrix(
            out, checksums, thresholds=self.thresholds,
            refresh_checksums=self.config.refresh_checksums,
        )
        self.stats.sections[section].record(report)
        self.last_reports[section] = report
        if ctx.phase != "train":
            self.recent_outcomes.append(SectionOutcome(
                section=section, layer_index=ctx.layer_index, step=ctx.step,
                report=report, request_dirty=request_dirty_from_report(report),
            ))
        return report

    def _skip(self, section: str) -> None:
        self.stats.sections[section].checks_skipped += 1

    # -- section S_AS -----------------------------------------------------------

    def _projection(self, ctx: GemmContext, state: _PassState, which: str) -> None:
        """X x W_Q / X x W_K: derive column checksums of Q / K from those of X."""
        if not state.enabled.get("AS", False):
            return
        num_rows = ctx.a.shape[-2]
        if state.cs_x_col is None:
            state.cs_x_col = encode_column_checksums(ctx.a)
            if ctx.phase == "prefill" and ctx.kv_cache is not None:
                # Seed the cache's incremental input checksums so decode can
                # fold appended tokens in O(1) of the cached length.
                cache = ctx.kv_cache
                cs_x_buf, _ = cache.ensure_checksum_buffers(namespace_of(ctx.a), ctx.a.shape[-1])
                cs_x_buf[...] = state.cs_x_col
                cache.cs_x_len = num_rows
        cs = update_column_checksums_through_gemm(state.cs_x_col, ctx.b)
        if ctx.bias is not None:
            cs = adjust_column_checksums_for_bias(cs, ctx.bias, num_rows)
        if which == "q":
            state.cs_q_col = cs
        else:
            state.cs_k_col = cs

    def _attention_scores(self, ctx: GemmContext, state: _PassState, out: Any) -> None:
        """Q x K^T: pass checksums to AS, then detect & correct at the boundary."""
        if not state.enabled.get("AS", False):
            self._skip("AS")
            return
        if state.cs_q_col is None or state.cs_k_col is None:
            return
        xp = namespace_of(ctx.a)
        cs_q_ph = split_head_column_checksums(state.cs_q_col, ctx.num_heads)   # (B, H, 2, dh)
        cs_k_ph = split_head_column_checksums(state.cs_k_col, ctx.num_heads)
        # Column side of AS: col(AS) = col(Q) K^T.
        cs_as_col = xp.matmul(cs_q_ph, ctx.b)                                  # (B, H, 2, S)
        # Row side of AS: row(AS) = Q row(K^T) = Q col(K)^T.
        cs_as_row = xp.matmul(ctx.a, xp.swapaxes(cs_k_ph, -1, -2))              # (B, H, S, 2)
        report = self._verify(ctx, "AS", out, ChecksumState(col=cs_as_col, row=cs_as_row))
        if self.config.repair_operands and report.corrected > 0:
            q_report = check_columns(ctx.a, cs_q_ph, thresholds=self.thresholds)
            kt_report = check_rows(ctx.b, xp.swapaxes(cs_k_ph, -1, -2), thresholds=self.thresholds)
            self.stats.sections["AS"].operand_repairs += (
                q_report.num_corrected + kt_report.num_corrected
            )

    # -- section S_CL -----------------------------------------------------------

    @staticmethod
    def _value_row_checksums(ctx: GemmContext) -> Any:
        """Per-head row checksums of ``X W_V + b_V``, ``(B, H, S, 2)``."""
        num_heads, head_dim = ctx.num_heads, ctx.head_dim
        xp = namespace_of(ctx.a)
        rowcs_wv = encode_per_head_row_checksums_of_weight(ctx.b, num_heads)  # (D, H, 2)
        cs_v_row = xp.einsum("...sd,dhw->...hsw", ctx.a, rowcs_wv)
        if ctx.bias is not None:
            bias_heads = xp.astype(
                xp.asarray(ctx.bias), xp.float64, copy=False
            ).reshape(num_heads, head_dim)
            _, v2 = checksum_weights(head_dim, xp=xp)
            cs_v_row = xp.copy(cs_v_row)
            cs_v_row[..., 0] += xp.sum(bias_heads, axis=-1)[None, :, None]
            cs_v_row[..., 1] += xp.sum(bias_heads * v2, axis=-1)[None, :, None]
        return cs_v_row

    def _value_projection(self, ctx: GemmContext, state: _PassState) -> None:
        """X x W_V: derive per-head row checksums of V from those of W_V."""
        if not (state.enabled.get("CL", False) or state.enabled.get("O", False)):
            return
        state.cs_v_row = self._value_row_checksums(ctx)
        if ctx.phase == "prefill" and ctx.kv_cache is not None:
            # Seed the cache's per-position row checksums of V (bias folded
            # in), ready for per-token extension at decode.
            cache = ctx.kv_cache
            prompt_len = ctx.a.shape[-2]
            _, cs_v_buf = cache.ensure_checksum_buffers(namespace_of(ctx.a), ctx.a.shape[-1])
            cs_v_buf[:, :, :prompt_len, :] = state.cs_v_row
            cache.cs_v_len = prompt_len

    def _context_layer(self, ctx: GemmContext, state: _PassState, out: Any) -> None:
        """AP x V: encode AP, pass checksums to CL, detect & correct at the boundary."""
        cl_enabled = state.enabled.get("CL", False)
        if not (cl_enabled or state.enabled.get("O", False)):
            self._skip("CL")
            return
        xp = namespace_of(ctx.a)
        cs_ap_col = encode_column_checksums(ctx.a)                              # (B, H, 2, S)
        cs_cl_col = xp.matmul(cs_ap_col, ctx.b)                                 # (B, H, 2, dh)
        cs_cl_row = None
        if cl_enabled and state.cs_v_row is not None:
            # row(CL) = AP row(V): carry the per-head row checksums of V
            # through the AP x V GEMM.
            cs_cl_row = xp.matmul(ctx.a, state.cs_v_row)                        # (B, H, S, 2)
        checksums = ChecksumState(col=cs_cl_col, row=cs_cl_row)
        if cl_enabled:
            report = self._verify(ctx, "CL", out, checksums)
            if self.config.repair_operands and report.corrected > 0 and state.cs_v_row is not None:
                v_report = check_rows(ctx.b, state.cs_v_row, thresholds=self.thresholds)
                self.stats.sections["CL"].operand_repairs += v_report.num_corrected
        else:
            self._skip("CL")
        # Pass the (possibly refreshed) column checksums of CL to section S_O.
        state.cs_cl_col = checksums.col

    # -- section S_O ------------------------------------------------------------

    def _output(self, ctx: GemmContext, state: _PassState, out: Any) -> None:
        """CL x W_O: carry column checksums through and correct the output O."""
        if not state.enabled.get("O", False):
            self._skip("O")
            return
        if state.cs_cl_col is None:
            return
        cs_cl_merged = merge_head_column_checksums(state.cs_cl_col)            # (B, 2, D)
        cs_o_col = update_column_checksums_through_gemm(cs_cl_merged, ctx.b)    # (B, 2, D)
        self._verify(ctx, "O", out, ChecksumState(col=cs_o_col))

    # -- FFN sections S_FF1 / S_FF2 ----------------------------------------------

    def _ff_up(self, ctx: GemmContext, state: _PassState, out: Any) -> None:
        """x x W_up: encode col(x), carry through W_up, verify H column-side.

        ``H`` is the raw GEMM output (the bias add runs outside the section),
        so the carried checksums need no bias adjustment.
        """
        if not state.enabled.get("FF1", False):
            self._skip("FF1")
            return
        cs_h = update_column_checksums_through_gemm(encode_column_checksums(ctx.a), ctx.b)
        self._verify(ctx, "FF1", out, ChecksumState(col=cs_h))

    def _ff_down(self, ctx: GemmContext, state: _PassState, out: Any) -> None:
        """h x W_down: carry rowcs(W_down) through, verify FO row-side."""
        if not state.enabled.get("FF2", False):
            self._skip("FF2")
            return
        cs_fo = namespace_of(ctx.a).matmul(ctx.a, encode_row_checksums(ctx.b))  # (B, S, 2)
        self._verify(ctx, "FF2", out, ChecksumState(row=cs_fo))

    # -- decode (incremental, row-side only) -------------------------------------
    #
    # The cache's incremental input checksums ``cs_x`` fold in the new
    # token's row in O(1) of the cached length, per-position row checksums
    # of V extend by one slot, and each boundary verifies its row side only.

    @staticmethod
    def _decode_cache(ctx: GemmContext) -> Any:
        if ctx.kv_cache is None:
            raise RuntimeError(
                f"decode GEMM {ctx.op.value!r} fired without a KV cache in context"
            )
        return ctx.kv_cache

    def _projection_decode(self, ctx: GemmContext, state: _PassState) -> None:
        """X x W_K at decode: fold the new row into cs(X), derive col(K)."""
        if not state.enabled.get("AS", False):
            return
        cache = self._decode_cache(ctx)
        total_len = cache.length + 1  # this token's K row is appended later
        if cache.cs_x is None or cache.cs_x_len != total_len - 1:
            raise RuntimeError(
                f"decode AS protection needs contiguous incremental checksums: "
                f"cache covers {cache.cs_x_len} rows but the model is decoding "
                f"token {total_len}"
            )
        update_column_checksums_with_appended_rows(cache.cs_x, ctx.a, total_len - 1)
        cache.cs_x_len = total_len
        cs = update_column_checksums_through_gemm(cache.cs_x, ctx.b)
        if ctx.bias is not None:
            cs = adjust_column_checksums_for_bias(cs, ctx.bias, total_len)
        state.cs_k_col = cs

    def _attention_scores_decode(self, ctx: GemmContext, state: _PassState, out: Any) -> None:
        """q x K^T at decode: verify the new score row against row(AS)."""
        if not state.enabled.get("AS", False):
            self._skip("AS")
            return
        if state.cs_k_col is None:
            return
        xp = namespace_of(ctx.a)
        cs_k_ph = split_head_column_checksums(state.cs_k_col, ctx.num_heads)
        cs_as_row = xp.matmul(ctx.a, xp.swapaxes(cs_k_ph, -1, -2))  # (B, H, 1, 2)
        self._verify(ctx, "AS", out, ChecksumState(row=cs_as_row))

    def _value_projection_decode(self, ctx: GemmContext, state: _PassState) -> None:
        """X x W_V at decode: extend the cached row checksums of V by one slot."""
        if not state.enabled.get("CL", False):
            return
        cache = self._decode_cache(ctx)
        total_len = cache.length + 1  # this token's V row is appended later
        if cache.cs_v_row is None or cache.cs_v_len != total_len - 1:
            raise RuntimeError(
                f"decode CL protection needs contiguous incremental checksums: "
                f"cache covers {cache.cs_v_len} rows but the model is decoding "
                f"token {total_len}"
            )
        cache.cs_v_row[:, :, total_len - 1 : total_len, :] = self._value_row_checksums(ctx)
        cache.cs_v_len = total_len

    def _context_layer_decode(self, ctx: GemmContext, state: _PassState, out: Any) -> None:
        """ap x V at decode: verify the new context row against row(CL)."""
        if not state.enabled.get("CL", False):
            self._skip("CL")
            return
        cache = self._decode_cache(ctx)
        total_len = cache.length  # APV fires after the append
        if cache.cs_v_row is None or cache.cs_v_len != total_len:
            raise RuntimeError(
                f"decode CL protection needs contiguous incremental checksums: "
                f"cache covers {cache.cs_v_len} of {total_len} rows"
            )
        cs_cl_row = namespace_of(ctx.a).matmul(ctx.a, cache.cs_v_row[:, :, :total_len, :])
        self._verify(ctx, "CL", out, ChecksumState(row=cs_cl_row))

    def _output_decode(self, ctx: GemmContext, state: _PassState, out: Any) -> None:
        """cl x W_O at decode: verify the new output row against row(O)."""
        if not state.enabled.get("O", False):
            self._skip("O")
            return
        cs_o_row = namespace_of(ctx.a).matmul(ctx.a, encode_row_checksums(ctx.b))  # (B, 1, 2)
        self._verify(ctx, "O", out, ChecksumState(row=cs_o_row))


#: Checker class per name used by the differential tests and the golden file.
CHECKERS = {"fused": ATTNChecker, "per_gemm": PerGemmOracle}
