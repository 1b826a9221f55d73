"""Gradient bucketing for the backward-overlapped protected all-reduce.

:class:`GradientBucketer` partitions a model's trainable parameters into
size-capped *buckets* in **reverse-registration order** — the order gradients
become available during backpropagation (the last-registered layers
back-propagate first) — so that a bucket's reduction can launch the moment
its last gradient lands while earlier layers are still back-propagating.
This is the classic DDP bucketing trick, applied to the checksum-protected
collective of :mod:`repro.comm.protected`.

Each bucket reduces as **one flat contiguous tensor**: :meth:`flatten` copies
the member gradients into a single flat buffer (gradients backward skipped
fill as zeros) and :meth:`unflatten` returns per-parameter reshaped views
into the reduced flat buffer.  Because the rank-ordered left fold of
:class:`~repro.comm.collective.ThreadCollective` is elementwise, reducing the
flat concatenation is **bit-identical** to reducing every member tensor
separately — the property that makes the trainer's weights independent of
bucket size, launch mode and worker count.

The protection story is unchanged in kind but bucket-granular in cost: the
:class:`~repro.comm.protected.ProtectedCollective` attaches one ``(1, 2)``
float64 checksum matrix per bucket (instead of one row per parameter
tensor), and a dirty verdict names a *bucket*, so ``stale_policy="reexecute"``
re-contributes only the dirty bucket's retained clean payloads.

Layering: this module sits in :mod:`repro.comm` — it operates on raw backend
arrays only (never autograd tensors) and imports nothing above
:mod:`repro.backend`, so the bucketed collective remains reusable under any
trainer.

Thread-safety / lock discipline: :class:`GradientBucketer` is immutable after
construction and :class:`BucketReadiness` is strictly per-rank (each virtual
rank is driven by exactly one worker thread at a time).  The only
worker-shared mutable state is :class:`BucketAccounting` — launch / retry
counters and the overlap timing accumulators — whose attributes
(``_launches``, ``_overlapped_launches``, ``_retries``, ``_bucket_seconds``,
``_overlap_seconds``, ``_drain_seconds``) are only touched while holding
``self._lock``; reprolint's TH001 rule checks this file.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import backend_of

__all__ = [
    "BucketSpec",
    "GradientBucketer",
    "BucketReadiness",
    "BucketAccounting",
]


@dataclass(frozen=True)
class BucketSpec:
    """Static description of one gradient bucket.

    Attributes
    ----------
    index:
        Bucket id, ``0 .. num_buckets - 1``.  Bucket 0 holds the
        *last-registered* parameters (first to finish in backward).
    param_indices:
        Positions of the member parameters in the model's registration-order
        parameter list, in reverse-registration order (flat-buffer order).
    offsets / sizes / shapes:
        Per-member slice geometry inside the flat buffer, aligned with
        ``param_indices``.
    total_size:
        Elements of the flat buffer.
    dtype:
        Canonical NumPy dtype shared by every member (buckets never mix
        dtypes — flattening across a dtype change would round member values).
    """

    index: int
    param_indices: Tuple[int, ...]
    offsets: Tuple[int, ...]
    sizes: Tuple[int, ...]
    shapes: Tuple[Tuple[int, ...], ...]
    total_size: int
    dtype: np.dtype

    @property
    def nbytes(self) -> int:
        return int(self.total_size) * int(self.dtype.itemsize)


class GradientBucketer:
    """Partition parameter arrays into size-capped flat reduction buckets.

    Parameters
    ----------
    arrays:
        The parameter arrays in **registration order** (what
        ``model.parameters()`` yields); only shapes/dtypes are read, and the
        partition walks them back-to-front so buckets fill in backward order.
    bucket_cap_mb:
        Soft size cap per bucket in MiB.  A bucket closes when adding the
        next parameter would exceed the cap — except that a single parameter
        larger than the cap still gets a (singleton) bucket of its own, so
        every parameter is always covered.  Buckets also close at dtype
        boundaries.
    """

    def __init__(self, arrays: Sequence[Any], bucket_cap_mb: float = 1.0) -> None:
        if not arrays:
            raise ValueError("cannot bucket an empty parameter list")
        if not bucket_cap_mb > 0:
            raise ValueError(f"bucket_cap_mb must be > 0, got {bucket_cap_mb}")
        self.bucket_cap_mb = float(bucket_cap_mb)
        cap_bytes = self.bucket_cap_mb * 2**20

        metas: List[Tuple[int, Tuple[int, ...], int, np.dtype]] = []
        for i, array in enumerate(arrays):
            dtype = np.dtype(backend_of(array).dtype_of(array))
            shape = tuple(int(s) for s in array.shape)
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            metas.append((i, shape, size, dtype))

        buckets: List[BucketSpec] = []
        current: List[Tuple[int, Tuple[int, ...], int, np.dtype]] = []
        current_bytes = 0.0

        def close_current() -> None:
            nonlocal current, current_bytes
            if not current:
                return
            offsets: List[int] = []
            offset = 0
            for _, _, size, _ in current:
                offsets.append(offset)
                offset += size
            buckets.append(
                BucketSpec(
                    index=len(buckets),
                    param_indices=tuple(i for i, _, _, _ in current),
                    offsets=tuple(offsets),
                    sizes=tuple(size for _, _, size, _ in current),
                    shapes=tuple(shape for _, shape, _, _ in current),
                    total_size=offset,
                    dtype=current[0][3],
                )
            )
            current = []
            current_bytes = 0.0

        # Reverse-registration walk: backward produces these gradients first.
        for meta in reversed(metas):
            _, _, size, dtype = meta
            nbytes = size * dtype.itemsize
            if current and (
                dtype != current[0][3] or current_bytes + nbytes > cap_bytes
            ):
                close_current()
            current.append(meta)
            current_bytes += nbytes
        close_current()

        self.buckets: Tuple[BucketSpec, ...] = tuple(buckets)
        self.num_params = len(metas)
        #: registration-order parameter index -> owning bucket id.
        self.param_to_bucket: Dict[int, int] = {
            pi: spec.index for spec in self.buckets for pi in spec.param_indices
        }

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GradientBucketer(params={self.num_params}, "
            f"buckets={self.num_buckets}, cap={self.bucket_cap_mb}MiB)"
        )

    # -- flat-buffer conversion ------------------------------------------------------

    def flatten(self, bucket: int, grads: Sequence[Optional[Any]], xp: Any) -> Any:
        """Copy bucket ``bucket``'s member gradients into one flat buffer.

        ``grads`` is the full registration-order gradient list (entries may
        be ``None`` for parameters the backward pass skipped — their slices
        fill with zeros).  The copy is a pure value-preserving
        concatenation, so the rank-ordered elementwise fold over the flat
        buffer is bit-identical to folding every member separately.
        """
        spec = self.buckets[bucket]
        flat = xp.empty((spec.total_size,), dtype=getattr(xp, spec.dtype.name))
        members = [grads[pi] for pi in spec.param_indices]
        if all(g is not None for g in members):
            # Common case: one C-level pass instead of a per-member slice
            # loop.  ``reshape`` is a view for the contiguous arrays backward
            # produces, so the only copy is the write into ``flat``.
            try:
                xp.concatenate([xp.reshape(g, (-1,)) for g in members], out=flat)
                return flat
            except TypeError:  # namespace without concatenate(out=) support
                pass
        for pi, offset, size in zip(spec.param_indices, spec.offsets, spec.sizes):
            grad = grads[pi]
            if grad is None:
                flat[offset : offset + size] = 0.0
            else:
                flat[offset : offset + size] = xp.reshape(grad, (-1,))
        return flat

    def unflatten(self, bucket: int, flat: Any) -> Dict[int, Any]:
        """Per-parameter reshaped views into a reduced flat bucket buffer.

        Returns ``{registration-order param index: view}``.  The views share
        the reduced buffer's memory — consumers (clipping, the optimizer)
        only read gradients.
        """
        spec = self.buckets[bucket]
        out: Dict[int, Any] = {}
        for pi, offset, size, shape in zip(
            spec.param_indices, spec.offsets, spec.sizes, spec.shapes
        ):
            out[pi] = flat[offset : offset + size].reshape(shape)
        return out

    def tracker(self) -> "BucketReadiness":
        """A fresh per-rank readiness tracker over this partition."""
        return BucketReadiness(self)


class BucketReadiness:
    """Per-rank gradient-readiness bookkeeping for one backward pass.

    Strictly single-threaded by construction: one virtual rank is driven by
    exactly one worker thread at a time, and each rank owns its own tracker.
    ``mark(param_index)`` records one landed gradient and returns the bucket
    id when it was the bucket's *last* missing member — the launch trigger of
    the overlapped trainer.
    """

    def __init__(self, bucketer: GradientBucketer) -> None:
        self._bucketer = bucketer
        self._remaining: List[int] = [len(s.param_indices) for s in bucketer.buckets]
        self._seen: set = set()

    def mark(self, param_index: int) -> Optional[int]:
        """Record ``param_index``'s gradient as accumulated.

        Returns the completed bucket id if this was the last pending member,
        else ``None``.  Marking the same parameter twice in one attempt is an
        error — it would mean a bucket launched on a half-accumulated
        gradient.
        """
        if param_index in self._seen:
            raise RuntimeError(
                f"parameter {param_index} marked ready twice in one backward pass"
            )
        self._seen.add(param_index)
        bucket = self._bucketer.param_to_bucket[param_index]
        self._remaining[bucket] -= 1
        if self._remaining[bucket] == 0:
            return bucket
        return None

    def pending(self) -> List[int]:
        """Bucket ids not yet complete, ascending — finalized with zero fills
        after backward (parameters the loss did not reach)."""
        return [i for i, left in enumerate(self._remaining) if left > 0]

    def reset(self) -> None:
        """Start a fresh attempt (a re-executed shard restarts readiness)."""
        self._remaining = [
            len(s.param_indices) for s in self._bucketer.buckets
        ]
        self._seen.clear()


class BucketAccounting:
    """Worker-shared launch / retry counters and overlap timing accumulators.

    Shared across every worker thread of the data-parallel trainer; all
    mutable attributes are touched only under ``self._lock`` (TH001).  The
    trainer folds :meth:`pop_step_seconds` into its timer registry between
    steps and exposes :meth:`counters` for the counter-verified tests.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Worker-shared accounting below: touch only under ``with self._lock``.
        self._launches = 0
        self._overlapped_launches = 0
        self._retries: Dict[int, int] = {}
        self._bucket_seconds = 0.0
        self._overlap_seconds = 0.0
        self._drain_seconds = 0.0

    def record_launch(self, rank: int, bucket: int, during_backward: bool) -> None:
        with self._lock:
            self._launches += 1
            if during_backward:
                self._overlapped_launches += 1

    def record_retry(self, bucket: int) -> None:
        with self._lock:
            self._retries[bucket] = self._retries.get(bucket, 0) + 1

    def add_bucket_seconds(self, seconds: float) -> None:
        """Flatten / unflatten bookkeeping time (the ``comm/bucket`` key)."""
        with self._lock:
            self._bucket_seconds += seconds

    def add_overlap_seconds(self, seconds: float) -> None:
        """Backward wall time with a reduction in flight (``comm/overlap``)."""
        with self._lock:
            self._overlap_seconds += seconds

    def add_drain_seconds(self, seconds: float) -> None:
        """Post-backward time draining bucket reductions (``comm/drain``)."""
        with self._lock:
            self._drain_seconds += seconds

    def counters(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "bucket_launches": self._launches,
                "overlapped_launches": self._overlapped_launches,
                "bucket_retries": dict(self._retries),
            }

    def pop_step_seconds(self) -> Dict[str, float]:
        """Return and zero the per-step timing accumulators."""
        with self._lock:
            out = {
                "bucket": self._bucket_seconds,
                "overlap": self._overlap_seconds,
                "drain": self._drain_seconds,
            }
            self._bucket_seconds = 0.0
            self._overlap_seconds = 0.0
            self._drain_seconds = 0.0
        return out
