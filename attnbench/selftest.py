"""Self-test of the benchmark.

Run from the repository root::

    python -m pytest attnbench/selftest.py

Short in-process runs of every workload check that a run reports every metric
named in ``BENCHMARK.json`` with its unit and passes its own correctness
checks, that a deliberately broken program is caught, that the traced run's
spans nest across the data-parallel worker threads, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from spans import END, NAME, PARENT, START, THREAD, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYER_SELF = ("tensor.self_ms", "nn.forward_self_ms", "core.self_ms", "training.self_ms",
              "comm.self_ms", "serving.self_ms", "faults.self_ms", "other_ms")


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """``short_run(workload, trace)`` -> (result, record, tracer), cached."""
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[(workload, trace)] = bench.run(
                workload, seed=3, seconds=0.1, trace=trace, min_ops=4,
                trace_dir=tmp_path_factory.mktemp("trace"),
            )
        return cache[(workload, trace)]

    return get


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(short_run, workload, trace):
    result, record, _ = short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, record["failed_checks"]
    assert result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    assert record["host"]["nproc"] >= 1 and record["failed_frac"] == 0.0
    json.dumps(record)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_step_wall(short_run, workload):
    metrics = short_run(workload, True)[0]["metrics"]
    total = sum(metrics[name]["value"] for name in LAYER_SELF)
    assert total == pytest.approx(metrics["trace.step_ms"]["value"], rel=1e-9)


def test_bypassed_layers_read_zero(short_run):
    dp = short_run("train_dp2", True)[0]["metrics"]
    assert all(v["value"] == 0 for k, v in dp.items() if k.startswith("core."))
    assert dp["comm.calls_per_step"]["value"] > 0
    for workload in ("train_protected", "train_faults", "serve_kv"):
        metrics = short_run(workload, True)[0]["metrics"]
        assert all(v["value"] == 0 for k, v in metrics.items() if k.startswith("comm."))
        assert metrics["core.checksum_dispatches_per_step"]["value"] > 0
        assert metrics["backend.xfer_ms"]["value"] == 0


def test_fault_workload_corrects_every_flip(short_run):
    result, record, _ = short_run("train_faults", True)
    metrics = result["metrics"]
    assert metrics["faults.injections"]["value"] >= 1
    assert metrics["core.corrections"]["value"] >= metrics["faults.injections"]["value"]
    assert metrics["core.residual_extreme"]["value"] == 0


def test_broken_correction_is_counted_as_failures(monkeypatch):
    """Correcting a copy leaves every flip in place: the checks must notice."""
    import repro.core.engine as engine

    original = engine.correct_matrix
    monkeypatch.setattr(
        engine, "correct_matrix",
        lambda matrix, *args, **kwargs: original(matrix.copy(), *args, **kwargs),
    )
    result, record, _ = bench.run("train_faults", seed=3, seconds=0.1, trace=False, min_ops=8)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert record["failed_frac"] > 0


def test_spans_nest_across_worker_threads(monkeypatch, tmp_path):
    import workloads

    monkeypatch.setattr(workloads.TrainDP2, "workers", 2)
    result, _, tracer = bench.run("train_dp2", seed=3, seconds=0.1, trace=True, min_ops=4,
                                  trace_dir=tmp_path)
    metrics = result["metrics"]
    assert sum(metrics[name]["value"] for name in LAYER_SELF) == pytest.approx(
        metrics["trace.step_ms"]["value"], rel=1e-9)
    spans = tracer.spans
    main = spans[0][THREAD]
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            assert parent[START] <= span[START] and span[END] <= parent[END], span[NAME]
    by_thread = {}
    for span in spans:
        by_thread.setdefault(span[THREAD], []).append(span)
    for thread_spans in by_thread.values():
        stack = []
        for span in sorted(thread_spans, key=lambda s: (s[START], -s[END])):
            while stack and stack[-1][END] <= span[START]:
                stack.pop()
            assert not stack or span[END] <= stack[-1][END], "overlapping spans on one thread"
            stack.append(span)
    workers = [s for s in spans if s[THREAD] != main]
    assert workers, "no spans recorded on the worker threads"
    for span in workers:
        chain = [span]
        while chain[-1][PARENT] is not None:
            chain.append(chain[-1][PARENT])
        assert any(s[NAME] == "pool_task" for s in chain)
        assert any(s[NAME] == "DataParallelTrainer.train_step" for s in chain)
        assert chain[-1][THREAD] == main


def test_uninstall_restores_every_entry_point():
    from repro.nn.module import Module
    from repro.tensor import ops
    from repro.training import parallel, trainer

    before = (ops.gelu, Module.__dict__["__call__"], trainer.clip_gradients,
              parallel.clip_gradients)
    tracer = Tracer().install()
    assert ops.gelu is not before[0]
    tracer.uninstall()
    after = (ops.gelu, Module.__dict__["__call__"], trainer.clip_gradients,
             parallel.clip_gradients)
    assert after == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "attnbench").mkdir()
    for source in (ROOT / "attnbench").glob("*.py"):
        shutil.copy(source, tmp_path / "attnbench")
    proc = subprocess.run(
        [sys.executable, "attnbench/run.py", "--workload", "train_protected",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
