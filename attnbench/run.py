"""Run one benchmark workload and print its metrics as the last stdout line.

Usage, from the root of a checkout::

    python3 attnbench/run.py --workload train_protected --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics
named in ``BENCHMARK.json``.  ``--trace 1`` alternates untraced blocks with
blocks traced by spans around every layer's public entry points, prints the
per-layer metrics of the traced blocks, and writes their spans as a Chrome
trace under ``.attnbench/``.  The line before the result is a ``record:`` JSON object
with the host fingerprint, sample counts, failed checks and output digests.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

#: One BLAS thread per program thread, so ``program threads x BLAS threads
#: <= nproc`` holds on every workload.  It must be set before NumPy is
#: imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Set-ups per run; ``setup_s`` reports their median plus the import time.
SETUP_REPEATS = 3
#: A timed loop stops once its operations have been busy for ``--seconds``
#: and it has made ``min_ops`` of them; in any case after twice ``--seconds``
#: plus this many seconds of real time (untimed checks run in between).
OVERRUN_SECONDS = 40.0
SECTIONS = ("AS", "CL", "O", "FF1", "FF2")
PHASES = ("encode", "update", "detect", "correct")


def _should_stop(workload, start: float, first_op: int, seconds: float, min_ops: int) -> bool:
    if time.perf_counter() - start >= 2 * seconds + OVERRUN_SECONDS:
        return True
    busy = sum(workload.walls[first_op:])
    return busy >= seconds and workload.ops - first_op >= min_ops


def _timed_loop(workload, seconds: float, min_ops: int) -> None:
    start, first_op = time.perf_counter(), workload.ops
    while not _should_stop(workload, start, first_op, seconds, min_ops):
        workload.run_op()
        workload.check_op()


def _traced_loop(workload, seconds: float, min_ops: int, tracer):
    """Alternate untraced and traced blocks of ``workload.trace_block``
    operations, so that slow drift of the host's speed cancels out of the
    tracing overhead.  Returns the untraced and traced step samples and the
    program counters accumulated over the traced blocks."""
    untraced, traced = [], []
    deltas = defaultdict(float)
    start, first_op = time.perf_counter(), workload.ops
    while not _should_stop(workload, start, first_op, seconds, min_ops):
        first = len(workload.step_samples())
        for _ in range(workload.trace_block):
            workload.run_op()
            workload.check_op()
        untraced.extend(workload.step_samples()[first:])

        first = len(workload.step_samples())
        before = workload.counters()
        tracer.install()
        try:
            for _ in range(workload.trace_block):
                tracer.step = workload.ops
                with tracer.root():
                    workload.run_op()
                workload.check_op()
        finally:
            tracer.uninstall()
        for key, value in workload.counters().items():
            deltas[key] += value - before.get(key, 0.0)
        traced.extend(workload.step_samples()[first:])
    return untraced, traced, deltas


def _quantile_ms(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) * 1e3


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(program_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "program_threads": program_threads,
    }


def end_to_end(workload, setup_s: float, peak_rss_mb: float) -> dict:
    samples, tokens = workload.completed()
    busy = sum(workload.walls)
    steps, requests = workload.step_samples(), workload.request_samples()
    attempted = workload.attempted
    return {
        "samples_per_s": (samples / busy, "samples/s"),
        "tokens_per_s": (tokens / busy, "tokens/s"),
        "step_ms_p50": (_quantile_ms(steps, 50), "ms"),
        "step_ms_p90": (_quantile_ms(steps, 90), "ms"),
        "request_ms_p50": (_quantile_ms(requests, 50), "ms"),
        "request_ms_p90": (_quantile_ms(requests, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ok_frac": ((attempted - len(workload.failures)) / attempted, "ratio"),
    }


def per_layer(workload, tracer, deltas: dict, untraced_steps, traced_steps) -> dict:
    """Per-layer metrics of the traced phase, per root span (a step, or a
    served batch on ``serve_kv``)."""
    from spans import END, EXTRA, NAME, START, attribute

    roots = tracer.roots()
    units = len(roots)
    wall = sum(r[END] - r[START] for r in roots)
    self_s = attribute(tracer.spans)
    layer_s = defaultdict(float)
    for (layer, _name), seconds in self_s.items():
        layer_s[layer] += seconds
    count = defaultdict(int)
    inclusive = defaultdict(float)
    extra = defaultdict(float)
    for span in tracer.spans:
        count[span[NAME]] += 1
        inclusive[span[NAME]] += span[END] - span[START]
        extra[span[NAME]] += span[EXTRA]

    def ms(seconds):
        return 1e3 * seconds / units

    def ops(*names):
        return ms(sum(self_s.get(("tensor", f"ops.{n}"), 0.0) for n in names))

    def delta(key):
        return deltas.get(key, 0.0)

    def mean_ms(name):
        return 1e3 * inclusive[name] / count[name] if count[name] else 0.0

    timers = sum(v for k, v in deltas.items() if k.startswith("timer."))
    lookups = delta("core.cache_lookups")
    overlap, drain = delta("comm.overlap_s"), delta("comm.drain_s")
    decode_steps = delta("serving.decode_steps")
    comm_names = ("ProtectedCollective.contribute", "ProtectedCollective.finish")
    m = {
        "tensor.gelu_ms": (ops("gelu", "gelu_backward"), "ms"),
        "tensor.gemm_ms": (ops("batched_matmul", "matmul_backward"), "ms"),
        "tensor.softmax_ms": (ops("softmax", "softmax_backward"), "ms"),
        "tensor.layer_norm_ms": (ops("layer_norm", "layer_norm_backward"), "ms"),
        "tensor.backward_ms": (ms(inclusive["Tensor.backward"]), "ms"),
        "tensor.calls_per_step": (
            sum(c for n, c in count.items() if n.startswith("ops.")) / units, "count"),
        "tensor.self_ms": (ms(layer_s["tensor"]), "ms"),
        "nn.forward_self_ms": (ms(layer_s["nn"]), "ms"),
    }
    for section in SECTIONS:
        for phase in PHASES:
            m[f"core.{section}.{phase}_ms"] = (ms(delta(f"timer.{section}/{phase}")), "ms")
    m.update({
        "core.self_ms": (ms(layer_s["core"]), "ms"),
        "core.hook_self_ms": (ms(layer_s["core"] - timers), "ms"),
        "core.share_pct": (100.0 * layer_s["core"] / wall, "%"),
        "core.checksum_dispatches_per_step": (delta("core.dispatches") / units, "count"),
        "core.weight_cache_hit_ratio": (
            delta("core.cache_hits") / lookups if lookups else 0.0, "ratio"),
        "core.workspace_allocs_steady": (delta("core.workspace_allocs"), "count"),
        "core.detections": (delta("core.detections"), "count"),
        "core.corrections": (delta("core.corrections"), "count"),
        "core.residual_extreme": (delta("core.residual_extreme"), "count"),
        "training.optimizer_ms": (ms(self_s.get(("training", "AdamW.step"), 0.0)), "ms"),
        "training.clip_ms": (ms(self_s.get(("training", "clip_gradients"), 0.0)), "ms"),
        "training.step_self_ms": (ms(sum(
            s for (layer, name), s in self_s.items()
            if layer == "training" and name.endswith(("train_step", "pool_task")))), "ms"),
        "training.self_ms": (ms(layer_s["training"]), "ms"),
        "comm.contribute_ms": (ms(self_s.get(("comm", comm_names[0]), 0.0)), "ms"),
        "comm.finish_ms": (ms(self_s.get(("comm", comm_names[1]), 0.0)), "ms"),
        "comm.exposed_ms": (ms(drain), "ms"),
        "comm.overlap_efficiency": (
            overlap / (overlap + drain) if overlap + drain else 0.0, "ratio"),
        "comm.bytes_per_step": (extra[comm_names[0]] / units, "bytes"),
        "comm.calls_per_step": (sum(count[n] for n in comm_names) / units, "count"),
        "comm.retries": (delta("comm.retries"), "count"),
        "comm.self_ms": (ms(layer_s["comm"]), "ms"),
        "serving.prefill_ms": (mean_ms("prefill"), "ms"),
        "serving.decode_ms": (mean_ms("decode_step"), "ms"),
        "serving.verify_ms": (ms(delta("serving.verify_s")), "ms"),
        "serving.slot_util": (
            delta("serving.slot_steps") / (decode_steps * workload.batch_size)
            if decode_steps else 0.0, "ratio"),
        "serving.self_ms": (ms(layer_s["serving"]), "ms"),
        "faults.injections": (delta("faults.injections"), "count"),
        "faults.self_ms": (ms(layer_s["faults"]), "ms"),
        "backend.xfer_ms": (ms(delta("backend.xfer_s")), "ms"),
        "other_ms": (ms(layer_s["other"]), "ms"),
        "trace.step_ms": (ms(wall), "ms"),
        "trace.overhead_ms": (
            1e3 * (statistics.median(traced_steps) - statistics.median(untraced_steps)), "ms"),
        "trace.spans_per_step": (len(tracer.spans) / units, "count"),
    })
    return m


def run(name: str, seed: int, seconds: float, trace: bool, min_ops=None,
        trace_dir=None):
    """Set up, time and check one workload.

    Returns ``(result, record, tracer)``: the result line, the ``record:``
    line and, for a traced run, the tracer holding its spans.
    """
    from spans import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - PROCESS_START
    workload = WORKLOADS[name](seed)
    min_ops = workload.min_ops if min_ops is None else min_ops
    setups = []
    for _ in range(SETUP_REPEATS):
        # Free the previous instance first, so that set-up time and peak
        # memory do not depend on when the collector would have found it.
        workload.close()
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)
    gc.collect()

    tracer = None
    record = {"workload": name, "seed": seed, "host": fingerprint(workload.workers)}
    if not trace:
        _timed_loop(workload, seconds, min_ops)
        metrics = end_to_end(workload, setup_s, _peak_rss_mb())
    else:
        tracer = Tracer()
        untraced, traced, deltas = _traced_loop(workload, seconds, min_ops // 2, tracer)
        metrics = per_layer(workload, tracer, deltas, untraced, traced)
        out_dir = Path(trace_dir) if trace_dir is not None else ROOT / ".attnbench"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{name}-seed{seed}.json"
        tracer.write_chrome_trace(str(trace_path))
        record["trace_file"] = str(trace_path)
    workload.verify()
    workload.close()

    failed = len(workload.failures)
    record.update({
        "ops": workload.ops,
        "step_samples": len(workload.step_samples()),
        "request_samples": len(workload.request_samples()),
        "setup_runs_s": setups,
        "import_s": import_s,
        "failed_frac": failed / workload.attempted,
        "failed_checks": workload.failed_checks(),
        **workload.digest(),
    })
    result = {
        "correct": failed == 0,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import repro
        import workloads
    except ImportError as exc:
        print(f"attnbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"attnbench: imported repro from {repro.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    result, record, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
