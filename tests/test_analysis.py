"""Unit tests for workload accounting and report rendering."""

import numpy as np
import pytest

from repro.analysis import (
    attention_workload,
    format_percent,
    format_table,
    gemm_ratio_table,
)
from repro.models import get_config


class TestWorkload:
    def test_table3_ratios_above_99_percent(self):
        table = gemm_ratio_table()
        assert set(table) == {"bert-base", "gpt2", "gpt-neo", "roberta"}
        for breakdown in table.values():
            assert breakdown.gemm_ratio > 0.99

    def test_breakdown_totals(self):
        breakdown = attention_workload(get_config("bert-base", size="paper"), batch_size=8)
        assert breakdown.total_flops == breakdown.gemm_flops + breakdown.other_flops
        assert breakdown.gemm_flops > breakdown.other_flops

    def test_ratio_stable_across_batch_sizes(self):
        config = get_config("gpt2", size="paper")
        r8 = attention_workload(config, batch_size=8).gemm_ratio
        r32 = attention_workload(config, batch_size=32).gemm_ratio
        assert r8 == pytest.approx(r32, rel=1e-6)

    def test_custom_model_list(self):
        table = gemm_ratio_table(model_names=("bert-small",))
        assert list(table) == ["bert-small"]


class TestReporting:
    def test_format_percent(self):
        assert format_percent(0.07) == "7.0%"
        assert format_percent(0.1234, digits=2) == "12.34%"
        assert format_percent(float("nan")) == "n/a"

    def test_format_table_alignment_and_content(self):
        text = format_table(["model", "overhead"], [["bert", 0.07], ["gpt2", 0.09]], title="Fig")
        lines = text.splitlines()
        assert lines[0] == "Fig"
        assert "model" in lines[1] and "overhead" in lines[1]
        assert "bert" in text and "gpt2" in text

    def test_format_table_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])
