"""Unit tests for IEEE-754 bit manipulation helpers."""

import numpy as np
import pytest

from repro.utils.floatbits import (
    EXPONENT_BITS,
    MANTISSA_BITS,
    bits_to_float,
    classify_value,
    flip_bit,
    flip_exponent_msb,
    float_to_bits,
    make_inf,
    make_nan,
    make_near_inf,
)


class TestBitViews:
    def test_roundtrip_float32(self):
        values = np.array([0.0, 1.0, -2.5, 3.14159], dtype=np.float32)
        assert np.array_equal(bits_to_float(float_to_bits(values), np.float32), values)

    def test_roundtrip_float64(self):
        values = np.array([0.0, 1.0, -2.5, 1e300], dtype=np.float64)
        assert np.array_equal(bits_to_float(float_to_bits(values), np.float64), values)

    def test_scalar_input_uses_requested_dtype(self):
        bits = float_to_bits(1.0, dtype=np.float32)
        assert bits.dtype == np.uint32

    def test_one_bit_pattern_of_one(self):
        # 1.0f has exponent 127 and zero mantissa: 0x3F800000.
        assert int(float_to_bits(np.float32(1.0))) == 0x3F800000


class TestFlipBit:
    def test_flip_sign_bit_negates(self):
        flipped = flip_bit(np.float32(3.5), 31, dtype=np.float32)
        assert float(flipped) == -3.5

    def test_flip_is_involution(self):
        value = np.float32(123.456)
        twice = flip_bit(flip_bit(value, 12), 12)
        assert float(twice) == pytest.approx(float(value))

    def test_flip_mantissa_bit_small_change(self):
        value = np.float32(1.0)
        flipped = flip_bit(value, 0)
        assert abs(float(flipped) - 1.0) < 1e-6
        assert float(flipped) != 1.0

    def test_out_of_range_bit_raises(self):
        with pytest.raises(ValueError):
            flip_bit(np.float32(1.0), 32)

    def test_array_input_flips_every_element(self):
        values = np.ones(5, dtype=np.float32)
        flipped = flip_bit(values, 31)
        assert np.all(flipped == -1.0)


class TestExponentFlip:
    def test_flip_exponent_msb_makes_huge_value(self):
        # 0.7 has biased exponent 126 (MSB clear); setting the MSB multiplies
        # the magnitude by 2^128, producing a huge but representable value.
        flipped = flip_exponent_msb(np.float32(0.7))
        assert np.isfinite(flipped)
        assert abs(float(flipped)) > 1e30

    def test_flip_exponent_msb_of_one_point_five_is_nan(self):
        # 1.5 sits at biased exponent 127: the flip lands on the all-ones
        # exponent with a non-zero mantissa, which IEEE-754 defines as NaN —
        # exactly the "one error type can transit to another" effect the
        # paper describes for bit-flips.
        assert np.isnan(flip_exponent_msb(np.float32(1.5)))

    def test_flip_exponent_msb_float64(self):
        flipped = flip_exponent_msb(np.float64(0.7), dtype=np.float64)
        assert abs(float(flipped)) > 1e300 or np.isinf(flipped)

    def test_exponent_bit_counts(self):
        assert EXPONENT_BITS[np.dtype(np.float32)] == 8
        assert MANTISSA_BITS[np.dtype(np.float32)] == 23
        assert EXPONENT_BITS[np.dtype(np.float64)] == 11
        assert MANTISSA_BITS[np.dtype(np.float64)] == 52


class TestValueFactories:
    def test_make_inf_signs(self):
        assert np.isposinf(make_inf(+1))
        assert np.isneginf(make_inf(-1))

    def test_make_nan(self):
        assert np.isnan(make_nan())

    def test_make_near_inf_is_finite_and_large(self):
        value = make_near_inf(1.7)
        assert np.isfinite(value)
        assert abs(float(value)) > 1e10

    def test_make_near_inf_zero_base_falls_back(self):
        value = make_near_inf(0.0)
        assert np.isfinite(value)
        assert abs(float(value)) > 1e10

    def test_make_near_inf_array(self):
        values = make_near_inf(np.array([1.0, -2.0, 0.5]))
        assert values.shape == (3,)
        assert np.all(np.isfinite(values))
        assert np.all(np.abs(values) > 1e10)


class TestClassification:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (1.0, "normal"),
            (float("inf"), "inf"),
            (float("nan"), "nan"),
            (1e12, "near_inf"),
            (-1e12, "near_inf"),
            (-5.0, "normal"),
        ],
    )
    def test_classify_value(self, value, expected):
        assert classify_value(value) == expected
