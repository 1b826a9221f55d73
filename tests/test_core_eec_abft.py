"""Unit tests for the EEC-ABFT detection / correction kernel."""

import dataclasses

import numpy as np
import pytest

from repro.core.checksums import (
    ChecksumState,
    checksum_weights,
    encode_column_checksums,
    encode_row_checksums,
)
from repro.core.correction import MatrixCorrectionReport, correct_matrix
from repro.core.eec_abft import ColumnCheckReport, check_columns, check_rows
from repro.core.thresholds import ABFTThresholds


@pytest.fixture
def rng():
    return np.random.default_rng(23)


@pytest.fixture
def thresholds():
    return ABFTThresholds()


def protected_matrix(rng, shape=(4, 8, 6)):
    m = rng.normal(size=shape)
    return m, encode_column_checksums(m), m.copy()


class TestCleanData:
    def test_no_false_positives(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng)
        report = check_columns(m, cs, thresholds)
        assert report.clean
        assert report.num_corrected == 0 and report.num_aborted == 0
        assert np.array_equal(m, ref)

    def test_no_false_positives_large_values(self, rng, thresholds):
        m = rng.normal(size=(2, 16, 8)) * 1e4
        report = check_columns(m, encode_column_checksums(m), thresholds)
        assert report.clean

    def test_no_false_positives_after_realistic_gemm(self, rng, thresholds):
        # Checksums carried through a GEMM differ from recomputed ones only by
        # round-off; detection must not fire.
        a = rng.normal(size=(8, 64, 32))
        b = rng.normal(size=(32, 48))
        c = a @ b
        carried = np.matmul(encode_column_checksums(a), b)
        report = check_columns(c, carried, thresholds)
        assert report.clean


class TestSingleErrors:
    @pytest.mark.parametrize(
        "inject",
        [np.inf, -np.inf, np.nan, 4.2e12, -7.7e13],
        ids=["+inf", "-inf", "nan", "+near_inf", "-near_inf"],
    )
    def test_extreme_single_error_restored(self, rng, thresholds, inject):
        m, cs, ref = protected_matrix(rng)
        m[1, 3, 2] = inject
        report = check_columns(m, cs, thresholds)
        assert report.num_detected == 1
        assert report.num_corrected == 1
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_numeric_single_error_restored(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng)
        m[2, 5, 1] += 37.5
        report = check_columns(m, cs, thresholds)
        assert report.num_corrected == 1
        assert np.allclose(m, ref, rtol=1e-7, atol=1e-9)

    def test_corrected_index_reported(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng, shape=(1, 8, 6))
        m[0, 5, 2] = np.inf
        report = check_columns(m, cs, thresholds)
        assert report.corrected_indices[0, 2] == 5

    def test_case_classification(self, rng, thresholds):
        m, cs, _ = protected_matrix(rng, shape=(1, 8, 6))
        m[0, 2, 0] = np.inf     # delta1 becomes inf  -> case 2
        m[0, 3, 1] = np.nan     # delta1 becomes nan  -> case 3
        m[0, 4, 2] += 11.0      # finite delta        -> case 1
        report = check_columns(m, cs, thresholds)
        assert report.case2[0, 0] and report.case3[0, 1] and report.case1[0, 2]

    def test_tiny_numeric_error_below_tolerance_ignored(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng)
        m[0, 0, 0] += 1e-12
        report = check_columns(m, cs, thresholds)
        assert report.num_corrected == 0


class TestPropagatedPatterns:
    def test_1r_pattern_corrected_by_column_checksums(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng, shape=(2, 3, 8, 6))
        m[0, 1, 4, :] = np.inf  # a whole row: one error per column
        report = check_columns(m, cs, thresholds)
        assert report.num_corrected == 6
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_1c_pattern_corrected_by_row_checksums(self, rng, thresholds):
        m = rng.normal(size=(2, 5, 7))
        rcs = encode_row_checksums(m)
        ref = m.copy()
        m[1, :, 3] = 9.9e11     # a whole column: one error per row
        report = check_rows(m, rcs, thresholds)
        assert report.num_corrected == 5
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_mixed_types_across_columns(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng, shape=(1, 10, 8))
        m[0, 1, 0] = np.inf
        m[0, 2, 1] = np.nan
        m[0, 3, 2] = -2.2e13
        m[0, 4, 3] += 55.0
        report = check_columns(m, cs, thresholds)
        assert report.num_corrected == 4
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_two_errors_in_one_vector_abort(self, rng, thresholds):
        m, cs, ref = protected_matrix(rng, shape=(1, 10, 4))
        m[0, 1, 2] = np.inf
        m[0, 7, 2] = np.nan
        report = check_columns(m, cs, thresholds)
        assert report.num_aborted == 1
        assert report.num_corrected == 0

    def test_consistent_corruption_reported_as_abort(self, rng, thresholds):
        # Checksums computed FROM the corrupted data are consistent with it;
        # extreme values must still be flagged (case 4) rather than silently
        # accepted.
        m = rng.normal(size=(1, 6, 5))
        m[0, 2, 3] = 5e12
        cs = encode_column_checksums(m)  # consistent with the corruption
        report = check_columns(m, cs, thresholds)
        assert report.num_detected >= 1
        assert report.num_aborted >= 1
        assert report.num_corrected == 0


class TestRowColumnEquivalence:
    def test_row_check_is_transposed_column_check(self, rng, thresholds):
        m = rng.normal(size=(3, 6, 9))
        rcs = encode_row_checksums(m)
        ref = m.copy()
        m[2, 4, 7] = np.nan
        report = check_rows(m, rcs, thresholds)
        assert report.num_corrected == 1
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)

    def test_row_check_corrects_in_place_through_view(self, rng, thresholds):
        # check_rows internally transposes; corrections must land in the
        # original array even though reshape of the transposed view copies.
        m = rng.normal(size=(2, 4, 5))
        rcs = encode_row_checksums(m)
        ref = m.copy()
        m[0, 2, 2] = np.inf
        check_rows(m, rcs, thresholds)
        assert np.isfinite(m).all()
        assert np.allclose(m, ref, rtol=1e-6, atol=1e-8)


class TestValidation:
    def test_shape_mismatch_raises(self, rng, thresholds):
        m = rng.normal(size=(4, 5))
        with pytest.raises(ValueError):
            check_columns(m, np.zeros((2, 4)), thresholds)

    def test_checksum_axis_must_be_two(self, rng, thresholds):
        m = rng.normal(size=(4, 5))
        with pytest.raises(ValueError):
            check_columns(m, np.zeros((3, 5)), thresholds)

    def test_detect_only_mode_leaves_data_untouched(self, rng, thresholds):
        m, cs, _ = protected_matrix(rng)
        m[0, 0, 0] = np.inf
        snapshot = m.copy()
        report = check_columns(m, cs, thresholds, correct=False)
        assert report.num_detected == 1
        assert np.array_equal(
            np.nan_to_num(m, nan=0.0, posinf=1.0, neginf=-1.0),
            np.nan_to_num(snapshot, nan=0.0, posinf=1.0, neginf=-1.0),
        )


class TestThresholds:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            ABFTThresholds(near_inf=1e4, correct=1e5)
        with pytest.raises(ValueError):
            ABFTThresholds(detect_rtol=0.0)
        with pytest.raises(ValueError):
            ABFTThresholds(index_rtol=0.9)

    def test_is_extreme_mask(self):
        th = ABFTThresholds()
        data = np.array([1.0, np.inf, np.nan, 2e10, 2e9])
        assert th.is_extreme(data).tolist() == [False, True, True, True, False]

    def test_detection_tolerance_scales_with_magnitude(self):
        th = ABFTThresholds()
        small = th.detection_tolerance(np.array(1.0))
        large = th.detection_tolerance(np.array(1e6))
        assert large > small

    def test_paper_default_values(self):
        th = ABFTThresholds()
        assert th.near_inf == 1e10 and th.correct == 1e5


def _report(n, detected=(), corrected=(), aborted=(), case1=(), case2=(), case3=(),
            indices=None):
    def mask(idx):
        m = np.zeros(n, dtype=bool)
        m[list(idx)] = True
        return m

    ci = np.full(n, -1, dtype=np.int64)
    for position, value in (indices or {}).items():
        ci[position] = value
    return ColumnCheckReport(
        detected=mask(detected),
        corrected=mask(corrected),
        aborted=mask(aborted),
        case1=mask(case1),
        case2=mask(case2),
        case3=mask(case3),
        corrected_indices=ci,
    )


class TestReportMerge:
    """Regression tests for ColumnCheckReport.merge.

    The original implementation combined ``aborted`` with ``&`` (so an abort
    raised by only one pass silently vanished) and discarded ``other``'s case
    masks and corrected indices outright.
    """

    def test_detected_and_corrected_are_or(self):
        a = _report(4, detected=(0,), corrected=(0,))
        b = _report(4, detected=(2,), corrected=(2,))
        merged = a.merge(b)
        assert merged.detected.tolist() == [True, False, True, False]
        assert merged.corrected.tolist() == [True, False, True, False]

    def test_abort_survives_when_neither_pass_corrects(self):
        # Regression: `aborted & other.aborted` dropped an abort reported by
        # only one side even though nothing repaired the vector.
        a = _report(3, detected=(1,), aborted=(1,))
        b = _report(3)
        merged = a.merge(b)
        assert merged.aborted.tolist() == [False, True, False]
        assert merged.num_aborted == 1

    def test_abort_cleared_by_orthogonal_correction(self):
        # A vector the column pass aborted on but the row pass repaired must
        # not be reported as aborted.
        a = _report(3, detected=(1,), aborted=(1,))
        b = _report(3, detected=(1,), corrected=(1,), indices={1: 5})
        merged = a.merge(b)
        assert merged.aborted.tolist() == [False, False, False]
        assert merged.corrected.tolist() == [False, True, False]

    def test_case_masks_merged_not_dropped(self):
        # Regression: other's case1/case2/case3 masks were discarded.
        a = _report(4, detected=(0,), case1=(0,))
        b = _report(4, detected=(2, 3), case2=(2,), case3=(3,))
        merged = a.merge(b)
        assert merged.case1.tolist() == [True, False, False, False]
        assert merged.case2.tolist() == [False, False, True, False]
        assert merged.case3.tolist() == [False, False, False, True]

    def test_corrected_indices_merged_not_dropped(self):
        # Regression: other's corrected_indices were discarded.
        a = _report(4, corrected=(0,), indices={0: 2})
        b = _report(4, corrected=(3,), indices={3: 7})
        merged = a.merge(b)
        assert merged.corrected_indices.tolist() == [2, -1, -1, 7]

    def test_self_index_wins_when_both_located(self):
        a = _report(2, corrected=(0,), indices={0: 1})
        b = _report(2, corrected=(0,), indices={0: 4})
        assert a.merge(b).corrected_indices.tolist() == [1, -1]

    def test_mismatched_shapes_concatenate_every_field(self):
        # Col pass over n=3 columns merged with a row pass over m=2 rows:
        # disjoint vector sets, everything concatenates.
        a = _report(3, detected=(1,), aborted=(1,), case2=(1,))
        b = _report(2, detected=(0,), corrected=(0,), case1=(0,), indices={0: 9})
        merged = a.merge(b)
        assert merged.detected.tolist() == [False, True, False, True, False]
        assert merged.corrected.tolist() == [False, False, False, True, False]
        assert merged.aborted.tolist() == [False, True, False, False, False]
        assert merged.case1.tolist() == [False, False, False, True, False]
        assert merged.case2.tolist() == [False, True, False, False, False]
        assert merged.corrected_indices.tolist() == [-1, -1, -1, 9, -1]

    def test_merge_of_real_col_and_row_passes(self, rng, thresholds):
        m = rng.normal(size=(5, 4))
        col = encode_column_checksums(m)
        row = encode_row_checksums(m)
        m[2, 1] = np.inf
        col_report = check_columns(m, col, thresholds)
        row_report = check_rows(m, row, thresholds)
        merged = col_report.merge(row_report)
        # 4 columns + 5 rows = 9 concatenated vectors.
        assert merged.detected.shape == (9,)
        assert merged.num_corrected >= 1


# ---------------------------------------------------------------------------
# Single-pass clean detection: equivalence with the every-pass formulation
# ---------------------------------------------------------------------------


def _oracle_check_columns(matrix, col_checksums, thresholds, correct=True):
    """``check_columns`` computing every detection quantity up front (the
    weighted checksum and the per-element extreme mask included), as it did
    before the clean path was cut to one sum and one max-abs pass."""
    *lead, m, n = matrix.shape
    flat = matrix.reshape(-1, m, n)
    flat_is_view = np.shares_memory(flat, matrix)
    cs = col_checksums.reshape(-1, 2, n)
    batch = flat.shape[0]
    report = ColumnCheckReport(
        *(np.zeros((batch, n), dtype=bool) for _ in range(6)),
        corrected_indices=np.full((batch, n), -1, dtype=np.int64),
    )
    _, v2 = checksum_weights(m, xp=np)
    flat64 = flat.astype(np.float64, copy=False)
    with np.errstate(invalid="ignore", over="ignore"):
        recomputed0 = np.sum(flat, axis=1, dtype=np.float64)
        recomputed1 = np.einsum("i,bij->bj", v2, flat64)
        delta1 = cs[:, 0, :] - recomputed0
        delta2 = cs[:, 1, :] - recomputed1
        extreme = thresholds.is_extreme(flat)
        n_extreme = np.sum(extreme, axis=1)
        tol = thresholds.detection_tolerance(cs[:, 0, :])
        finite_d1 = np.isfinite(delta1)
        abs_d1 = np.abs(delta1)
        numeric_mismatch = finite_d1 & (abs_d1 > tol)
        detected = numeric_mismatch | ~finite_d1 | (n_extreme > 0)
        report.detected[:] = detected
        if not detected.any():
            return _oracle_reshape(report, lead, n)

        case1 = detected & finite_d1
        report.case1[:] = case1
        report.case2[:] = detected & np.isinf(delta1)
        report.case3[:] = detected & np.isnan(delta1)
        consistent_corruption = (n_extreme > 0) & finite_d1 & (abs_d1 <= tol)
        aborted = (n_extreme > 1) | consistent_corruption
        safe_d1 = np.where(np.abs(delta1) > 0, delta1, 1.0)
        ratio = delta2 / safe_d1
        ratio_valid = np.isfinite(ratio)
        nearest = np.rint(ratio)
        ratio_is_integer = ratio_valid & (np.abs(ratio - nearest) <= 0.45)
        idx_from_checksum = np.clip(nearest.astype(np.int64, copy=False) - 1, 0, m - 1)
        in_range = ratio_valid & (nearest >= 1) & (nearest <= m)
        idx_from_search = np.argmax(extreme, axis=1)
        numeric_single = case1 & numeric_mismatch & (n_extreme == 0)
        numeric_locatable = numeric_single & in_range & ratio_is_integer
        aborted = aborted | (numeric_single & ~(in_range & ratio_is_integer))
        extreme_single = detected & (n_extreme == 1) & ~consistent_corruption
        use_checksum_idx = (extreme_single & case1 & np.isfinite(delta2)
                            & in_range & ratio_is_integer)
        idx_extreme = np.where(use_checksum_idx, idx_from_checksum, idx_from_search)

        if correct:
            b, c = np.nonzero(numeric_locatable & ~aborted)
            if b.shape[0]:
                rows = idx_from_checksum[b, c]
                corrupted = flat[b, rows, c]
                large = np.abs(corrupted) > thresholds.correct
                reconstructed = cs[b, 0, c] - (recomputed0[b, c] - corrupted)
                flat[b, rows, c] = np.where(
                    large, reconstructed, corrupted + delta1[b, c]).astype(flat.dtype)
                report.corrected[b, c] = True
                report.corrected_indices[b, c] = rows
            b, c = np.nonzero(extreme_single & ~aborted)
            if b.shape[0]:
                rows = idx_extreme[b, c]
                healthy = np.where(extreme, 0.0, flat.astype(np.float64, copy=False))
                sum_others = np.sum(healthy, axis=1, dtype=np.float64)[b, c] - np.where(
                    thresholds.is_extreme(flat[b, rows, c]), 0.0, flat[b, rows, c])
                flat[b, rows, c] = (cs[b, 0, c] - sum_others).astype(flat.dtype)
                report.corrected[b, c] = True
                report.corrected_indices[b, c] = rows
        report.aborted[:] = aborted

    if correct and not flat_is_view:
        matrix[...] = flat.reshape(matrix.shape)
    return _oracle_reshape(report, lead, n)


def _oracle_reshape(report, lead, n):
    shape = tuple(lead) + (n,)
    return ColumnCheckReport(*(getattr(report, f.name).reshape(shape)
                               for f in dataclasses.fields(ColumnCheckReport)))


def _oracle_check_rows(matrix, row_checksums, thresholds, correct=True):
    return _oracle_check_columns(np.swapaxes(matrix, -1, -2),
                                 np.swapaxes(row_checksums, -1, -2), thresholds, correct)


def _oracle_correct_matrix(matrix, checksums, thresholds):
    """``correct_matrix`` rescanning for extremes after every pass."""
    report = MatrixCorrectionReport()
    col_report = None
    if checksums.has_col():
        col_report = _oracle_check_columns(matrix, checksums.col, thresholds)
        report.used_column_side = True
        report.column_report = col_report
        report.detected += col_report.num_detected
        report.corrected += col_report.num_corrected
        report.aborted += col_report.num_aborted
    needs_row_side = False
    if checksums.has_row():
        if not checksums.has_col():
            needs_row_side = True
        else:
            residual = bool(thresholds.is_extreme(matrix).any())
            needs_row_side = not (col_report.num_corrected > 0
                                  and col_report.num_aborted == 0 and not residual)
    if needs_row_side:
        row_report = _oracle_check_rows(matrix, checksums.row, thresholds)
        report.used_row_side = True
        report.row_report = row_report
        report.detected += row_report.num_detected
        report.corrected += row_report.num_corrected
        report.aborted += row_report.num_aborted
        if checksums.has_col() and row_report.num_corrected > 0:
            checksums.col = encode_column_checksums(matrix)
            report.checksums_recomputed = True
    report.residual_extreme = int(thresholds.is_extreme(matrix).sum())
    return report


#: Faults placed in "vector coordinates" (element, vector) of the checked
#: side; the ``*_checksum`` kinds corrupt the maintained checksums instead.
INJECTIONS = [
    "none", "numeric", "nan", "+inf", "-inf", "near_inf", "two_extremes",
    "numeric_and_inf", "consistent", "nan_checksum", "inf_checksum",
    "inf_weighted_checksum",
]
SINGLE_VALUES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}
LEADS = [(), (3,), (2, 3)]


def _faulty_case(dtype, lead, injection, side):
    """A protected ``lead + (7, 5)`` matrix, its checksums and the injection.

    ``side`` is ``"col"``, ``"row"`` or ``"both"``; faults land on the
    column vectors for ``"col"``/``"both"`` and on the row vectors for
    ``"row"``.  Returns ``(matrix, col_checksums, row_checksums)``.
    """
    matrix = np.random.default_rng(len(lead)).normal(size=lead + (7, 5)).astype(dtype)
    vec = matrix if side != "row" else np.swapaxes(matrix, -1, -2)
    at = tuple(d - 1 for d in lead)
    # fp16 cannot hold a near-INF magnitude: it overflows to INF.
    near_inf = np.inf if dtype == np.float16 else 3e12
    row = encode_row_checksums(matrix) if side != "col" else None
    if injection == "consistent":
        # Checksums derived from the already-corrupted data (case 4).
        vec[at + (2, 1)] = near_inf
    col = encode_column_checksums(matrix) if side != "row" else None
    if injection == "numeric":
        vec[at + (2, 1)] += 50.0
    elif injection == "near_inf":
        vec[at + (2, 1)] = -near_inf
    elif injection in SINGLE_VALUES:
        vec[at + (2, 1)] = SINGLE_VALUES[injection]
    elif injection == "two_extremes":
        vec[at + (1, 3)] = np.inf
        vec[at + (4, 3)] = near_inf
    elif injection == "numeric_and_inf":
        vec[at + (0, 0)] += 50.0
        vec[at + (3, 2)] = -np.inf
    elif injection in ("nan_checksum", "inf_checksum"):
        cs = col if side != "row" else np.swapaxes(row, -1, -2)
        cs[at + (0, 1)] = np.nan if injection == "nan_checksum" else np.inf
    elif injection == "inf_weighted_checksum":
        # Only visible through the index ratio of a numeric fault beside it.
        cs = col if side != "row" else np.swapaxes(row, -1, -2)
        cs[at + (1, 4)] = -np.inf
        vec[at + (3, 4)] += 50.0
    return matrix, col, row


def _assert_reports_equal(new, old):
    for field in dataclasses.fields(ColumnCheckReport):
        a, b = getattr(new, field.name), getattr(old, field.name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name


class TestSinglePassDetectionEquivalence:
    @pytest.mark.parametrize("injection", INJECTIONS)
    @pytest.mark.parametrize("side", ["col", "row"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_check_matches_oracle(self, thresholds, dtype, side, injection):
        check, oracle = ((check_columns, _oracle_check_columns) if side == "col"
                         else (check_rows, _oracle_check_rows))
        flagged = 0
        for lead in LEADS:
            for correct in (True, False):
                matrix, col, row = _faulty_case(dtype, lead, injection, side)
                cs = col if side == "col" else row
                expected_matrix, expected_cs = matrix.copy(), cs.copy()
                with np.errstate(all="ignore"):
                    report = check(matrix, cs, thresholds, correct=correct)
                    expected = oracle(expected_matrix, expected_cs, thresholds, correct)
                _assert_reports_equal(report, expected)
                assert matrix.tobytes() == expected_matrix.tobytes()
                assert cs.tobytes() == expected_cs.tobytes()
                flagged += report.num_detected
        # Every injection but "none" must reach the flagged path.
        assert (flagged > 0) == (injection != "none")

    @pytest.mark.parametrize("injection", INJECTIONS)
    @pytest.mark.parametrize("side", ["col", "row", "both"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_correct_matrix_matches_oracle(self, thresholds, dtype, side, injection):
        for lead in LEADS:
            matrix, col, row = _faulty_case(dtype, lead, injection, side)
            state = ChecksumState(col=col, row=row)
            expected_matrix = matrix.copy()
            expected_state = state.copy()
            with np.errstate(all="ignore"):
                report = correct_matrix(matrix, state, thresholds)
                expected = _oracle_correct_matrix(expected_matrix, expected_state, thresholds)
            for name in ("detected", "corrected", "aborted", "used_column_side",
                         "used_row_side", "residual_extreme", "checksums_recomputed"):
                assert getattr(report, name) == getattr(expected, name), name
            for name in ("column_report", "row_report"):
                a, b = getattr(report, name), getattr(expected, name)
                assert (a is None) == (b is None), name
                if a is not None:
                    _assert_reports_equal(a, b)
            assert matrix.tobytes() == expected_matrix.tobytes()
            for name in ("col", "row"):
                a, b = getattr(state, name), getattr(expected_state, name)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.tobytes() == b.tobytes(), name
