"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public entry points of the ``repro`` layers from outside the
library (``install`` patches module and class attributes, ``uninstall``
restores them), records one span per call made inside one of the
benchmark's root spans (one per timed operation) and derives each layer's
self time.

A span is a list ``[name, layer, thread, step, start, end, parent, extra]``;
``parent`` is the enclosing span on the same thread or, for a task handed to a
``ThreadPoolExecutor``, the span that submitted it.  ``extra`` holds a
per-call quantity (the bytes handed to a collective ``contribute``).

Self time is attributed by wall-clock share: at every instant each thread's
innermost open span is a candidate, candidates that are ancestors of another
thread's candidate drop out (a coordinator waiting on its workers), and the
instant is split evenly among the rest.  On one thread this is the usual
"duration minus child spans"; with worker threads the per-layer self times
still add up to the wall time of the root spans.
"""

from __future__ import annotations

import concurrent.futures
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

NAME, LAYER, THREAD, STEP, START, END, PARENT, EXTRA = range(8)

#: ``repro.tensor.ops`` helpers called from inside other kernels; their time
#: stays with the calling kernel instead of becoming a span of its own.
_OPS_NOT_WRAPPED = ("unbroadcast", "one_hot")


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Index of the benchmark step in progress, stamped on every span.
        self.step = 0
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[list]:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        extra: Optional[Callable[..., float]] = None,
        parent: Optional[list] = None,
    ) -> Callable:
        """Return ``fn`` wrapped so that every call inside a root span
        records a span.

        ``parent`` is used only when the calling thread has no open span
        (the first span of a task running on a pool thread).  Calls with
        neither run untraced, so work the benchmark does between its timed
        operations never enters the trace.
        """
        spans = self.spans
        tracer = self
        clock = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = tracer._stack()
            owner = stack[-1] if stack else parent
            if owner is None:
                return fn(*args, **kwargs)  # outside every root span: not traced
            record = [name, layer, get_ident(), tracer.step, 0.0, 0.0, owner,
                      extra(*args, **kwargs) if extra is not None else 0.0]
            spans.append(record)
            stack.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def root(self, name: str = "step") -> "_RootSpan":
        """Context manager for the benchmark's own per-step span (layer ``other``)."""
        return _RootSpan(self, name)

    # -- patching ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, name: str, layer: str,
               extra: Optional[Callable[..., float]] = None) -> None:
        # An inherited method is wrapped on the subclass and deleted again on
        # uninstall; an own attribute is put back.
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, self.wrap(original, name, layer, extra))

    def install(self) -> "Tracer":
        """Wrap the public entry points of every traced layer."""
        from repro.comm.protected import ProtectedCollective
        from repro.core.attention_checker import ATTNChecker
        from repro.faults.injector import FaultInjector
        from repro.models.classification import CausalDecodingMixin
        from repro.nn.module import Module
        from repro.serving.engine import ServingEngine
        from repro.tensor import autograd, ops
        from repro.training import optimizer, parallel, trainer

        for op in ops.__all__:
            if op not in _OPS_NOT_WRAPPED:
                self._patch(ops, op, f"ops.{op}", "tensor")
        self._patch(autograd, "matmul", "ag.matmul", "tensor")
        self._patch(autograd.Tensor, "backward", "Tensor.backward", "tensor")
        self._patch(Module, "__call__", "Module.__call__", "nn")
        for method in ("on_section_output", "on_gemm_output", "end_step"):
            self._patch(ATTNChecker, method, f"ATTNChecker.{method}", "core")
        self._patch(FaultInjector, "on_gemm_output", "FaultInjector.on_gemm_output", "faults")
        self._patch(trainer.Trainer, "train_step", "Trainer.train_step", "training")
        self._patch(parallel.DataParallelTrainer, "train_step",
                    "DataParallelTrainer.train_step", "training")
        self._patch(optimizer.AdamW, "step", "AdamW.step", "training")
        # ``parallel`` imported clip_gradients by name, so both bindings move.
        self._patch(trainer, "clip_gradients", "clip_gradients", "training")
        self._patch(parallel, "clip_gradients", "clip_gradients", "training")
        self._patch(ProtectedCollective, "contribute", "ProtectedCollective.contribute",
                    "comm", extra=_contributed_bytes)
        self._patch(ProtectedCollective, "finish", "ProtectedCollective.finish", "comm")
        self._patch(CausalDecodingMixin, "prefill", "prefill", "serving")
        self._patch(CausalDecodingMixin, "decode_step", "decode_step", "serving")
        self._patch(ServingEngine, "run", "ServingEngine.run", "serving")

        submit = concurrent.futures.ThreadPoolExecutor.submit
        tracer = self

        def traced_submit(executor, fn, *args, **kwargs):
            task = tracer.wrap(fn, "pool_task", "training", parent=tracer.current())
            return submit(executor, task, *args, **kwargs)

        self._patches.append((concurrent.futures.ThreadPoolExecutor, "submit", submit, True))
        concurrent.futures.ThreadPoolExecutor.submit = traced_submit  # type: ignore[method-assign]
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------------------

    def roots(self) -> List[list]:
        return [s for s in self.spans if s[PARENT] is None]

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``)."""
        origin = min((s[START] for s in self.spans), default=0.0)
        ids = {id(s): i for i, s in enumerate(self.spans)}
        threads: Dict[int, int] = {}
        events = []
        for i, s in enumerate(self.spans):
            tid = threads.setdefault(s[THREAD], len(threads))
            parent = s[PARENT]
            events.append({
                "name": s[NAME], "cat": s[LAYER], "ph": "X", "pid": 0, "tid": tid,
                "ts": (s[START] - origin) * 1e6, "dur": (s[END] - s[START]) * 1e6,
                "args": {"id": i, "step": s[STEP],
                         "parent": None if parent is None else ids.get(id(parent))},
            })
        for ident, tid in threads.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                           "args": {"name": f"thread-{tid} ({ident})"}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.record = [name, "other", threading.get_ident(), tracer.step, 0.0, 0.0, None, 0.0]

    def __enter__(self) -> list:
        self.tracer.spans.append(self.record)
        self.tracer._stack().append(self.record)
        self.record[START] = time.perf_counter()
        return self.record

    def __exit__(self, *exc_info: Any) -> None:
        self.record[END] = time.perf_counter()
        self.tracer._stack().pop()


def _contributed_bytes(collective: Any, key: str, rank: int, arrays: Any) -> float:
    return float(sum(getattr(a, "nbytes", 0) for a in arrays))


def _innermost_segments(spans: List[list]) -> List[Tuple[float, float, list]]:
    """``(t0, t1, span)`` pieces of one thread's timeline, each naming the
    innermost open span; spans of one thread nest, so a stack suffices."""
    segments: List[Tuple[float, float, list]] = []
    stack: List[list] = []
    cursor = 0.0
    for span in sorted(spans, key=lambda s: (s[START], -s[END])):
        while stack and stack[-1][END] <= span[START]:
            top = stack.pop()
            segments.append((cursor, top[END], top))
            cursor = top[END]
        if stack:
            segments.append((cursor, span[START], stack[-1]))
        stack.append(span)
        cursor = span[START]
    while stack:
        top = stack.pop()
        segments.append((cursor, top[END], top))
        cursor = top[END]
    return [seg for seg in segments if seg[1] > seg[0]]


def attribute(spans: List[list]) -> Dict[Tuple[str, str], float]:
    """Wall-share self seconds per ``(layer, name)``; see the module docstring."""
    by_thread: Dict[int, List[list]] = defaultdict(list)
    for span in spans:
        by_thread[span[THREAD]].append(span)
    events: List[Tuple[float, int, int, Optional[list]]] = []
    for thread, thread_spans in by_thread.items():
        for t0, t1, span in _innermost_segments(thread_spans):
            events.append((t0, 1, thread, span))
            events.append((t1, 0, thread, None))
    # At equal times a segment's end (0) sorts before the next one's start (1).
    events.sort(key=lambda e: (e[0], e[1]))
    totals: Dict[Tuple[str, str], float] = defaultdict(float)
    active: Dict[int, list] = {}
    last = events[0][0] if events else 0.0
    for t, kind, thread, span in events:
        if active and t > last:
            _share(totals, list(active.values()), t - last)
        last = t
        if kind:
            active[thread] = span  # type: ignore[assignment]
        elif thread in active:
            del active[thread]
    return dict(totals)


def _share(totals: Dict[Tuple[str, str], float], candidates: List[list], dt: float) -> None:
    if len(candidates) > 1:
        ancestors = set()
        for span in candidates:
            parent = span[PARENT]
            while parent is not None:
                ancestors.add(id(parent))
                parent = parent[PARENT]
        candidates = [s for s in candidates if id(s) not in ancestors]
    part = dt / len(candidates)
    for span in candidates:
        totals[(span[LAYER], span[NAME])] += part
