"""Fault injection into attention GEMM outputs.

Faithful to the paper's methodology (Section 5.1, *Fault Injection*): faults
are injected via instrumentation into the *result matrix* of a GEMM, at a
randomly selected position, simulating a transient fault that occurred during
the computation.

* **INF** and **NaN** are injected by assignment;
* **near-INF** is injected by flipping the most significant exponent bit of
  the selected element — performed *in place* on the GEMM output buffer by
  viewing it through the owning array backend's integer dtype
  (:func:`repro.utils.floatbits.flip_exponent_msb_inplace`), so a
  device-resident CuPy/Torch output is corrupted without a host round-trip;
* **numeric** (a moderate value change) is provided additionally, to exercise
  the classic-ABFT code path and the benign-fault behaviour the prior work
  observed.

The flip-based fault family (``error_type="near_inf"``) is parameterised by
``flip_kind``, widening the paper's exponent-MSB model to the fuller
bit-upset taxonomy of "Why Attention Fails" and the ECC MBU patterns:
``"exponent_msb"`` (default — the paper's flip, bit-for-bit historical),
``"mantissa_lsb"`` (a ULP-sized, almost always benign upset),
``"adjacent_double_bit"`` (an MBU across the top two exponent bits) and
``"stuck_zero"`` (a stuck-at-0 cell).  Injections are counted per kind so
campaigns can report detection/correction rates for each mechanism.

Injectable targets cover the whole protected block set: the six attention
matrices plus the FFN boundaries ``H`` (``x·W_up``) and ``FO``
(``h·W_down``) once the model's feed-forward layers are instrumented.

The injector is an :class:`repro.nn.AttentionHooks`; register it *before* the
:class:`repro.core.ATTNChecker` so the checker sees the corrupted output,
exactly like a fault striking the kernel before ABFT detection runs.
"""

from __future__ import annotations

import enum
import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import backend_of
from repro.nn.attention import (
    AttentionHooks,
    AttentionOp,
    FeedForwardOp,
    GemmContext,
)
from repro.utils.floatbits import (
    FLIP_KINDS,
    NEAR_INF_MINIMUM_MAGNITUDE,
    apply_flip_kind,
    flip_exponent_msb,
    flip_exponent_msb_inplace,
    make_near_inf,
    near_inf_fallback,
)
from repro.utils.rng import new_rng

__all__ = [
    "ERROR_TYPES",
    "FLIP_KINDS",
    "TARGET_MATRICES",
    "FaultSpec",
    "InjectionRecord",
    "FaultInjector",
    "corrupt_scalar",
    "CollectiveFaultSpec",
    "CollectiveInjectionRecord",
    "CollectiveFaultInjector",
]

#: Error classes supported by the injector.
ERROR_TYPES: Tuple[str, ...] = ("inf", "nan", "near_inf", "numeric")

#: Injectable matrices and the GEMM that produces each of them: the paper's
#: Table 2 / Table 4 attention rows plus the FFN section boundaries of the
#: whole-model protection extension.
TARGET_MATRICES: Dict[str, enum.Enum] = {
    "Q": AttentionOp.XQ,
    "K": AttentionOp.XK,
    "V": AttentionOp.XV,
    "AS": AttentionOp.QK,
    "CL": AttentionOp.APV,
    "O": AttentionOp.CLO,
    "H": FeedForwardOp.UP,
    "FO": FeedForwardOp.DOWN,
}


@dataclass
class FaultSpec:
    """Description of one fault to inject.

    Attributes
    ----------
    matrix:
        Target matrix name (``"Q"``, ``"K"``, ``"V"``, ``"AS"``, ``"CL"``,
        ``"O"``, ``"H"``, ``"FO"``).
    error_type:
        ``"inf"``, ``"nan"``, ``"near_inf"`` or ``"numeric"``.
    layer_index:
        Attention layer to target (``None`` = first layer that executes).
    position:
        Flat index into the GEMM output to corrupt (``None`` = random).
    sign:
        Sign of injected INF (+1 / -1).
    numeric_delta:
        Magnitude added for ``"numeric"`` errors.
    flip_kind:
        Bit-level mechanism for the flip-based fault family
        (``error_type="near_inf"``): one of
        :data:`repro.utils.floatbits.FLIP_KINDS`.  The default
        ``"exponent_msb"`` is the paper's flip and reproduces the historical
        injector bit-for-bit; the other kinds produce whatever value the
        flipped bit pattern encodes (no near-INF floor is enforced — a
        mantissa-LSB upset is *supposed* to be benign).  Assignment-based
        error types require the default kind.
    """

    matrix: str
    error_type: str
    layer_index: Optional[int] = 0
    position: Optional[Tuple[int, ...]] = None
    sign: int = 1
    numeric_delta: float = 10.0
    flip_kind: str = "exponent_msb"

    def __post_init__(self) -> None:
        if self.matrix not in TARGET_MATRICES:
            raise KeyError(f"unknown target matrix {self.matrix!r}; expected one of {sorted(TARGET_MATRICES)}")
        if self.error_type not in ERROR_TYPES:
            raise KeyError(f"unknown error type {self.error_type!r}; expected one of {ERROR_TYPES}")
        if self.flip_kind not in FLIP_KINDS:
            raise KeyError(f"unknown flip kind {self.flip_kind!r}; expected one of {FLIP_KINDS}")
        if self.flip_kind != "exponent_msb" and self.error_type != "near_inf":
            raise ValueError(
                f"flip_kind {self.flip_kind!r} applies to the flip-based fault family "
                f"(error_type='near_inf'); {self.error_type!r} faults are injected by "
                "assignment and take no flip kind"
            )

    @property
    def op(self) -> enum.Enum:
        return TARGET_MATRICES[self.matrix]


def corrupt_scalar(
    error_type: str,
    original: float,
    dtype: np.dtype,
    sign: int = 1,
    numeric_delta: float = 10.0,
) -> float:
    """The corrupted replacement value for one scalar, per the paper's method.

    Shared by the attention-GEMM injector (host-scalar path) and the
    collective injector, so both campaigns inject identically-shaped errors.
    """
    if error_type == "inf":
        return float(np.inf if sign >= 0 else -np.inf)
    if error_type == "nan":
        return float(np.nan)
    if error_type == "near_inf":
        # Flip the most significant exponent bit in the arithmetic the
        # computation uses (see the near-INF discussion on FaultInjector).
        flip_dtype = (
            dtype
            if np.dtype(dtype) in (np.dtype(np.float32), np.dtype(np.float64))
            else np.float64
        )
        base = original if original != 0.0 and np.isfinite(original) else 1.0
        value = float(np.asarray(make_near_inf(base, dtype=flip_dtype)))
        return float(sign) * abs(value) if sign < 0 else value
    if error_type == "numeric":
        return float(original + sign * numeric_delta)
    raise KeyError(error_type)


@dataclass
class InjectionRecord:
    """Book-keeping of one performed injection."""

    spec: FaultSpec
    layer_index: int
    step: int
    position: Tuple[int, ...]
    original_value: float
    injected_value: float
    #: Bit-level mechanism that produced ``injected_value`` (the spec's
    #: ``flip_kind`` for flip-based faults, ``"exponent_msb"`` otherwise).
    flip_kind: str = "exponent_msb"
    #: Serving attribution: the request (batch/trial) identifier announced by
    #: the most recent :meth:`FaultInjector.begin_request`, ``None`` outside
    #: a request scope.
    request_id: Optional[object] = None
    #: Data-parallel attribution: the worker rank this injector was spawned
    #: for (:meth:`FaultInjector.spawn`), ``None`` on an unspawned injector.
    rank: Optional[int] = None


class FaultInjector(AttentionHooks):
    """Inject the faults described by one or more :class:`FaultSpec`.

    Parameters
    ----------
    specs:
        Faults to inject.  Each spec fires at most ``max_injections_per_spec``
        times (default once), so a typical campaign arms a fresh injector per
        trial.
    rng:
        Random generator for position selection.
    enabled:
        Start armed or disarmed.
    max_records:
        Retention bound on :attr:`records`.  The injector keeps the most
        recent ``max_records`` :class:`InjectionRecord` entries (older ones
        are evicted FIFO), so a long serving campaign that never resets the
        injector holds bounded memory; :attr:`num_injections` stays the
        *total* performed count regardless of eviction.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        rng: Optional[np.random.Generator] = None,
        max_injections_per_spec: int = 1,
        enabled: bool = True,
        value_dtype: Optional[np.dtype] = None,
        max_records: int = 1024,
        seed: Optional[int] = None,
        rank: Optional[int] = None,
    ) -> None:
        """``value_dtype`` overrides the floating format whose exponent layout
        the near-INF bit flip uses; by default the output array's own dtype is
        used.  Set it to ``numpy.float32`` when combining the injector with
        :class:`repro.faults.PrecisionSimulationHooks` so the injected
        magnitude matches the simulated training precision.

        ``seed`` makes the injector *spawnable*: :meth:`spawn` derives
        per-rank children whose position streams come from
        ``SeedSequence(seed, spawn_key=(rank,))`` — deterministic and
        rank-attributable no matter how worker threads interleave.  ``rng``
        and ``seed`` are mutually exclusive."""
        if not isinstance(max_records, int) or max_records < 1:
            raise ValueError(f"max_records must be a positive integer, got {max_records!r}")
        if rng is not None and seed is not None:
            raise ValueError("pass either rng or seed, not both")
        if rng is None:
            rng = new_rng() if seed is None else np.random.default_rng(np.random.SeedSequence(seed))
        self.specs: List[FaultSpec] = list(specs)
        self.rng = rng
        self.seed = seed
        self.rank = rank
        self.max_injections_per_spec = max_injections_per_spec
        self.enabled = enabled
        self.value_dtype = np.dtype(value_dtype) if value_dtype is not None else None
        self.max_records = max_records
        self.records: Deque[InjectionRecord] = deque(maxlen=max_records)
        self.total_injections = 0
        #: Total injections performed per bit-level mechanism (monotonic,
        #: like :attr:`num_injections`; cleared only by :meth:`reset`).
        self.injections_by_kind: Dict[str, int] = {kind: 0 for kind in FLIP_KINDS}
        self._request_id: Optional[object] = None
        self._fired_count: Dict[int, int] = {i: 0 for i in range(len(self.specs))}

    def spawn(self, rank: int) -> "FaultInjector":
        """Derive the deterministic per-rank child injector for ``rank``.

        The child shares this injector's specs and knobs but owns a private
        position stream derived via ``SeedSequence(seed, spawn_key=(rank,))``,
        and tags every record with ``rank`` — identical campaigns replay
        identically for any worker count, and every injection is
        rank-attributable.  Requires a ``seed``-constructed parent.
        """
        if self.seed is None:
            raise ValueError(
                "spawn() needs a seed-constructed injector (FaultInjector(..., seed=...)); "
                "an explicit-rng injector has no derivable per-rank streams"
            )
        if rank < 0:
            raise ValueError(f"rank must be >= 0, got {rank}")
        return FaultInjector(
            self.specs,
            rng=np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(rank,))),
            max_injections_per_spec=self.max_injections_per_spec,
            enabled=self.enabled,
            value_dtype=self.value_dtype,
            max_records=self.max_records,
            rank=rank,
        )

    # -- control ---------------------------------------------------------------------

    def arm(self) -> None:
        """(Re-)enable injection and reset the per-spec firing counters."""
        self.enabled = True
        self._fired_count = {i: 0 for i in range(len(self.specs))}

    def disarm(self) -> None:
        self.enabled = False

    def begin_request(self, request_id: Optional[object] = None) -> None:
        """Open a per-request injection scope (the serving lifecycle seam).

        Re-arms the per-spec firing counters — so a spec configured to fire
        once does so once *per request*, instead of carrying a stale
        already-fired state (or a half-spent budget) from the previous
        request — and tags every subsequent :class:`InjectionRecord` with
        ``request_id`` for per-request fault attribution.  Retained records
        and the armed/disarmed state are left untouched.
        """
        self._request_id = request_id
        self._fired_count = {i: 0 for i in range(len(self.specs))}

    def reset(self) -> None:
        self.records.clear()
        self.total_injections = 0
        self.injections_by_kind = {kind: 0 for kind in FLIP_KINDS}
        self._request_id = None
        self.arm()

    @property
    def num_injections(self) -> int:
        """Total injections performed — monotonic, unaffected by the
        ``max_records`` eviction of old :attr:`records` entries."""
        return self.total_injections

    # -- corruption --------------------------------------------------------------------

    def _corrupt_value(self, spec: FaultSpec, original: float, dtype: np.dtype) -> float:
        # The paper's method for near-INF: flip the most significant exponent
        # bit of the selected element, *in the arithmetic the computation
        # uses*.  On the paper's fp32 GPU training that lands a value within a
        # couple of orders of magnitude of the overflow threshold, which is
        # what makes near-INF faults accumulate into INF/NaN downstream; the
        # same relationship is preserved here by flipping in the output's own
        # dtype (float64 for the NumPy substrate).
        return corrupt_scalar(
            spec.error_type, original, dtype, sign=spec.sign, numeric_delta=spec.numeric_delta
        )

    def _inject_near_inf_inplace(self, spec: FaultSpec, out, position, original: float) -> Optional[float]:
        """Flip the exponent MSB of ``out[position]`` on its own buffer.

        Returns the injected value, or ``None`` when the in-place path does
        not apply (dtype override requested, non-flippable dtype, or a
        zero / non-finite original where the paper's method falls back to a
        representative near-INF constant) — the caller then uses the host
        scalar path, which computes the identical value by construction.
        """
        if self.value_dtype is not None:
            return None
        if original == 0.0 or not np.isfinite(original):
            return None
        backend = backend_of(out)
        dtype = backend.dtype_of(out)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            return None
        flip_exponent_msb_inplace(out, position, backend=backend)
        value = float(out[position])
        # Same fallback rule as make_near_inf (shared constants): a flip that
        # shrank the value is replaced by a representative near-INF constant
        # so campaigns always inject a genuine extreme.
        if not np.isfinite(value) or abs(value) < NEAR_INF_MINIMUM_MAGNITUDE or value == 0.0:
            out[position] = math.copysign(near_inf_fallback(dtype), original)
        if spec.sign < 0:
            out[position] = -abs(float(out[position]))
        return float(out[position])

    def on_gemm_output(self, ctx: GemmContext, out: np.ndarray) -> np.ndarray:
        if not self.enabled:
            return out
        for index, spec in enumerate(self.specs):
            if self._fired_count[index] >= self.max_injections_per_spec:
                continue
            if spec.op is not ctx.op:
                continue
            if spec.layer_index is not None and spec.layer_index != ctx.layer_index:
                continue
            if spec.position is not None:
                position = tuple(spec.position)
            else:
                flat = int(self.rng.integers(0, math.prod(out.shape)))
                position = tuple(int(i) for i in np.unravel_index(flat, tuple(out.shape)))
            original = float(out[position])
            injected = None
            if spec.error_type == "near_inf" and spec.flip_kind == "exponent_msb":
                injected = self._inject_near_inf_inplace(spec, out, position, original)
            if injected is None:
                dtype = self.value_dtype or backend_of(out).dtype_of(out)
                if spec.error_type == "near_inf" and spec.flip_kind != "exponent_msb":
                    # Widened flip taxonomy: inject the value the flipped bit
                    # pattern encodes, with no near-INF floor — a mantissa-LSB
                    # or stuck-at-zero upset is supposed to be mild/benign.
                    flip_dtype = (
                        dtype
                        if np.dtype(dtype) in (np.dtype(np.float32), np.dtype(np.float64))
                        else np.float64
                    )
                    injected = float(apply_flip_kind(spec.flip_kind, original, dtype=flip_dtype))
                else:
                    injected = self._corrupt_value(spec, original, dtype)
                out[position] = injected
            self._fired_count[index] += 1
            self.total_injections += 1
            self.injections_by_kind[spec.flip_kind] += 1
            self.records.append(
                InjectionRecord(
                    spec=spec,
                    layer_index=ctx.layer_index,
                    step=ctx.step,
                    position=position,
                    original_value=original,
                    injected_value=injected,
                    flip_kind=spec.flip_kind,
                    request_id=self._request_id,
                    rank=self.rank,
                )
            )
        return out


@dataclass
class CollectiveFaultSpec:
    """One fault to inject into a rank's all-reduce contribution.

    The corruption strikes the deposited *send buffer* of the targeted rank —
    after the sender computed its gradient checksums, before the reduction —
    which is exactly the in-or-between-collective-steps window the
    checksum-linearity invariant of
    :class:`repro.comm.ProtectedCollective` covers.

    Attributes
    ----------
    step:
        Training step (1-based, as announced by
        :meth:`CollectiveFaultInjector.begin_step`) at which to strike.
    rank:
        Contributing rank whose deposited payload is corrupted.
    array_index:
        Which gradient tensor of the contribution (``None`` = random).
    position:
        Flat index into the chosen tensor (``None`` = random).
    error_type / sign / numeric_delta:
        Same error classes as :class:`FaultSpec`.
    key_contains:
        Optional substring the rendezvous key must contain for the spec to
        fire.  The trainer contributes under one key per gradient bucket
        (``step{N}/bucket{k}``; the loss scalar rides the final bucket), so
        a spec with ``key_contains="bucket2"`` strikes exactly that bucket's
        send buffer — the lever the bucket-granular retry tests use.
        ``None`` fires on the rank's first contribution of the step.
    """

    step: int
    rank: int
    array_index: Optional[int] = None
    position: Optional[int] = None
    error_type: str = "near_inf"
    sign: int = 1
    numeric_delta: float = 10.0
    key_contains: Optional[str] = None

    def __post_init__(self) -> None:
        if self.error_type not in ERROR_TYPES:
            raise KeyError(
                f"unknown error type {self.error_type!r}; expected one of {ERROR_TYPES}"
            )
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")


@dataclass
class CollectiveInjectionRecord:
    """Book-keeping of one performed collective injection."""

    spec: CollectiveFaultSpec
    step: int
    rank: int
    key: str
    array_index: int
    position: Tuple[int, ...]
    original_value: float
    injected_value: float


class CollectiveFaultInjector:
    """Deterministic per-rank fault injection into collective contributions.

    Plugs into :class:`repro.comm.ThreadCollective`'s ``fault_hook`` seam
    (``hook(key, rank, arrays)``, invoked on the deposited copy of each
    contribution).  Each rank draws positions from its own generator, derived
    via ``SeedSequence(seed, spawn_key=(rank,))`` — the same spawning scheme
    as :meth:`FaultInjector.spawn` — so a campaign replays identically for
    any worker count and every record is rank-attributed.

    Each spec fires at most once, and only on the primary attempt of its step
    (re-executed reductions use ``...#retryN`` keys and are left clean,
    modelling a transient fault).
    """

    def __init__(self, specs: Sequence[CollectiveFaultSpec], seed: int = 0,
                 enabled: bool = True) -> None:
        self.specs: List[CollectiveFaultSpec] = list(specs)
        self.seed = int(seed)
        self.enabled = enabled
        self.records: List[CollectiveInjectionRecord] = []
        self._rngs: Dict[int, np.random.Generator] = {}
        self._lock = threading.Lock()
        # Guarded by _lock: hooks run concurrently on worker threads.
        self._step = 0
        self._fired: Dict[int, bool] = {i: False for i in range(len(self.specs))}

    def begin_step(self, step: int) -> None:
        """Announce the training step the next contributions belong to."""
        with self._lock:
            self._step = int(step)

    def _rng_for(self, rank: int) -> np.random.Generator:
        rng = self._rngs.get(rank)
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(rank,)))
            self._rngs[rank] = rng
        return rng

    @property
    def num_injections(self) -> int:
        return len(self.records)

    def __call__(self, key: str, rank: int, arrays: List[Any]) -> None:
        if not self.enabled or "#retry" in key:
            return
        with self._lock:
            step = self._step
            due = [
                (i, spec)
                for i, spec in enumerate(self.specs)
                if not self._fired[i]
                and spec.step == step
                and spec.rank == rank
                and (spec.key_contains is None or spec.key_contains in key)
            ]
            for i, _ in due:
                self._fired[i] = True
        for _, spec in due:
            rng = self._rng_for(rank)
            array_index = (
                spec.array_index
                if spec.array_index is not None
                else int(rng.integers(0, len(arrays)))
            )
            target = arrays[array_index]
            size = math.prod(target.shape)
            flat = (
                spec.position
                if spec.position is not None
                else int(rng.integers(0, size))
            )
            position = tuple(int(i) for i in np.unravel_index(flat, tuple(target.shape)))
            original = float(target[position])
            dtype = backend_of(target).dtype_of(target)
            injected = corrupt_scalar(
                spec.error_type, original, dtype,
                sign=spec.sign, numeric_delta=spec.numeric_delta,
            )
            target[position] = injected
            record = CollectiveInjectionRecord(
                spec=spec, step=step, rank=rank, key=key,
                array_index=array_index, position=position,
                original_value=original, injected_value=injected,
            )
            with self._lock:
                self.records.append(record)
