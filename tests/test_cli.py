"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_is_accepted(self):
        args = build_parser().parse_args(["list"])
        assert args.experiment == "list"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.batch_size == 8 and args.model == "bert-base"

    def test_rate_list_parsed(self):
        args = build_parser().parse_args(["fig10", "--rates", "13", "20"])
        assert args.rates == [13, 20]

    def test_registry_covers_all_figures_and_tables(self):
        expected = {"quickstart", "train", "train_parallel", "serve", "backends",
                    "verification_modes", "table2", "table3",
                    "sec52", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}
        assert expected == set(EXPERIMENTS)

    def test_backend_flag_parsed(self):
        args = build_parser().parse_args(["quickstart", "--backend", "per_gemm"])
        assert args.backend == "per_gemm"
        assert build_parser().parse_args(["quickstart"]).backend == "fused"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quickstart", "--backend", "cuda"])

    def test_async_flag_parsed(self):
        args = build_parser().parse_args(["quickstart", "--async"])
        assert args.verification_mode == "async"
        assert build_parser().parse_args(["quickstart"]).verification_mode == "immediate"

    def test_model_array_backend_flag_parsed(self):
        args = build_parser().parse_args(["train", "--model-array-backend", "numpy"])
        assert args.model_array_backend == "numpy"
        assert build_parser().parse_args(["train"]).model_array_backend is None

    def test_unknown_model_array_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model-array-backend", "jax"])


class TestMain:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    @pytest.mark.parametrize("experiment", ["table3", "fig7", "fig8", "fig9", "fig11", "fig12"])
    def test_analytical_experiments_run(self, capsys, experiment):
        assert main([experiment]) == 0
        out = capsys.readouterr().out
        assert "—" in out  # the table title
        assert len(out.splitlines()) > 3

    def test_fig10_with_custom_rates(self, capsys):
        assert main(["fig10", "--rates", "13", "200"]) == 0
        out = capsys.readouterr().out
        assert "f_AS" in out and "200" in out

    def test_quickstart_corrects_a_fault(self, capsys):
        assert main(["quickstart", "--matrix", "AS", "--error-type", "inf"]) == 0
        out = capsys.readouterr().out
        assert "corrections          : " in out
        corrections = int(out.split("corrections          : ")[1].splitlines()[0])
        assert corrections >= 1
        assert "residual extremes    : 0" in out

    def test_quickstart_with_per_gemm_backend(self, capsys):
        assert main(["quickstart", "--backend", "per_gemm",
                     "--matrix", "AS", "--error-type", "inf"]) == 0
        out = capsys.readouterr().out
        assert "backend              : per_gemm" in out
        corrections = int(out.split("corrections          : ")[1].splitlines()[0])
        assert corrections >= 1

    def test_quickstart_with_async_verification(self, capsys):
        assert main(["quickstart", "--async", "--matrix", "AS", "--error-type", "inf"]) == 0
        out = capsys.readouterr().out
        assert "verification mode    : async" in out
        corrections = int(out.split("corrections          : ")[1].splitlines()[0])
        assert corrections >= 1
        stale = int(out.split("stale detections     : ")[1].splitlines()[0])
        assert stale >= 1

    def test_async_requires_fused_backend(self):
        with pytest.raises(ValueError):
            main(["quickstart", "--async", "--backend", "per_gemm"])

    def test_train_reports_zero_transfer_on_shared_backend(self, capsys):
        assert main(["train", "--steps", "2", "--model-array-backend", "numpy"]) == 0
        out = capsys.readouterr().out
        assert "model substrate numpy" in out
        assert "xfer total 0.000 ms (zero host round-trips)" in out
        assert len([l for l in out.splitlines() if l and l[0].isdigit()]) == 2

    def test_train_with_async_verification(self, capsys):
        assert main(["train", "--steps", "2", "--async"]) == 0
        out = capsys.readouterr().out
        assert "xfer total 0.000 ms" in out

    def test_quickstart_reports_model_substrate(self, capsys):
        assert main(["quickstart", "--model-array-backend", "numpy"]) == 0
        out = capsys.readouterr().out
        assert "model substrate      : numpy" in out

    def test_backends_experiment_reports_equivalence(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical on all 18 scenarios" in out
        assert "NO" not in out.split("identical")[-1]

    def test_verification_modes_experiment(self, capsys):
        assert main(["verification_modes"]) == 0
        out = capsys.readouterr().out
        assert "deferred/async detection decisions byte-identical" in out
        assert "async corrections match immediate" in out
        for mode in ("immediate", "deferred", "async"):
            assert mode in out

    def test_sec52_reports_full_coverage(self, capsys):
        assert main(["sec52", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "ALL extreme errors corrected" in out

    def test_table2_prints_propagation_rows(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "1R" in out and "1C" in out
