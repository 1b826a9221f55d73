"""Optimisers: SGD (with momentum) and AdamW.

AdamW is the optimiser used for the GLUE fine-tuning runs the paper evaluates;
SGD is provided for the unit tests and as a cheaper baseline.  Both operate on
the :class:`repro.nn.Parameter` leaves of a model and keep their moment /
velocity slots **on each parameter's owning array backend** — a device-resident
model's optimiser state never round-trips through host memory, and the update
itself runs through the backend's own array math.

``state_dict`` / ``load_state_dict`` likewise move values through the owning
backend: snapshots stay backend-native (the trainer's in-memory rollback
window keeps device state on device), and loading adopts foreign values (host
arrays from an on-disk checkpoint) back into each parameter's backend.

Optimizer-state integrity
-------------------------
AdamW additionally keeps a **float64 running checksum** over its moment
buffers: after every :meth:`AdamW.step` the per-slot sums of ``m`` and ``v``
are recorded, ``state_dict`` embeds them, and ``load_state_dict`` re-derives
the sums from the restored buffers and compares — a restore from a poisoned
snapshot (a bit flip striking a moment slot between save and restore) raises
:class:`OptimizerStateCorruption` instead of silently reinstalling the
corrupted state.  :meth:`AdamW.verify_moments` runs the same comparison
against the *live* buffers; :class:`repro.training.CheckpointManager` calls
it before every save so corruption never makes it into a checkpoint.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.backend import backend_of
from repro.nn.module import Parameter
from repro.utils.versioning import bump_weights_version

__all__ = ["Optimizer", "OptimizerStateCorruption", "SGD", "AdamW"]


class OptimizerStateCorruption(RuntimeError):
    """A float64 moment-buffer checksum mismatched its recorded value.

    Raised when the AdamW moment slots no longer sum to what the optimiser
    recorded after its last update — a silent corruption of optimizer state
    (the territory checkpoints and rollback snapshots would otherwise
    propagate instead of repair)."""


def _moment_sum(value: Any) -> float:
    """Float64 sum of one moment buffer, on the buffer's own backend.

    The reduction runs device-side (only the 0-d result crosses to host), so
    checksumming a device-resident optimiser costs no array round-trip.  A
    given backend's reduction is deterministic for a given buffer, and the
    recompute always runs on the same backend that recorded the sum, so the
    checksum comparison is equality, not a tolerance."""
    xp = np if type(value) is np.ndarray else backend_of(value).xp
    return float(xp.sum(value, dtype=xp.float64))


def _sums_match(recorded: float, recomputed: float) -> bool:
    """Exact checksum comparison; two NaN sums compare equal (a NaN moment
    is a non-trainable-state problem, not a storage-corruption one)."""
    if np.isnan(recorded) and np.isnan(recomputed):
        return True
    return recorded == recomputed


class Optimizer:
    """Base class: holds the parameter list and the common step/zero_grad API."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        """Apply one update to every parameter with a gradient.

        Contract for implementations: after mutating (or rebinding) any
        ``param.data``, call
        :func:`repro.utils.versioning.bump_weights_version` exactly once —
        the fused checker's weight-derived encoding caches key their
        validity on it.  An implementation that updates *in place* and
        skips the bump would silently serve stale checksums.
        """
        raise NotImplementedError

    # -- checkpointing ------------------------------------------------------------

    def _copy_slot(self, index: int, value: Any) -> Any:
        """A backend-native copy of one per-parameter state slot.

        Values foreign to the parameter's backend (host arrays loaded from an
        ``.npz`` checkpoint) are adopted first; native values are just deep
        copied, so snapshot/restore of a device-resident optimiser stays on
        the device.
        """
        backend = self.parameters[index].backend
        if not backend.is_backend_array(value):
            value = backend.asarray(value)
        return backend.copy(value)

    def state_dict(self) -> Dict[str, Any]:
        """Serialisable optimiser state (step count + per-parameter slots)."""
        return {"step_count": np.asarray(self.step_count)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.step_count = int(state.get("step_count", 0))


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[Any]] = [None] * len(self.parameters)

    def step(self) -> None:
        self.step_count += 1
        for i, p in enumerate(self.parameters):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = p.xp.zeros_like(p.data)
                velocity = self._velocity[i]
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            p.data = p.data - self.lr * grad
        # Weight-derived checksum encodings (rowcs(W_V), the fused [W_Q|W_K]
        # operand) are stale from here on.
        bump_weights_version()

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        for i, v in enumerate(self._velocity):
            if v is not None:
                state[f"velocity.{i}"] = self._copy_slot(i, v)
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        for i in range(len(self.parameters)):
            key = f"velocity.{i}"
            self._velocity[i] = self._copy_slot(i, state[key]) if key in state else None


class AdamW(Optimizer):
    """AdamW (decoupled weight decay), the standard fine-tuning optimiser."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 2e-5,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: List[Optional[Any]] = [None] * len(self.parameters)
        self._v: List[Optional[Any]] = [None] * len(self.parameters)
        # Float64 running checksum over the moment buffers: (sum(m), sum(v))
        # per slot, recorded right after each update writes the buffers.
        self._moment_sums: List[Optional[Tuple[float, float]]] = [None] * len(self.parameters)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bias_c1 = 1.0 - self.beta1**t
        bias_c2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.parameters):
            if p.grad is None:
                continue
            grad = p.grad
            if self._m[i] is None:
                self._m[i] = p.xp.zeros_like(p.data)
                self._v[i] = p.xp.zeros_like(p.data)
            m, v = self._m[i], self._v[i]
            # In place, but operation for operation the allocating formula
            #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            #   w = w - lr (m / c1 / (sqrt(v / c2) + eps) + wd w)
            # so weights and moments stay bit-identical to it.  The weights
            # are rebound, not written: a reference to the old array (a
            # rollback snapshot, a queued verification) never sees it change.
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            grad_sq = grad * grad
            grad_sq *= 1.0 - self.beta2
            v += grad_sq
            self._moment_sums[i] = (_moment_sum(m), _moment_sum(v))
            denom = p.xp.sqrt(v / bias_c2)
            denom += self.eps
            update = m / bias_c1
            update /= denom
            if self.weight_decay:
                update += self.weight_decay * p.data
            update *= self.lr
            p.data = p.data - update
        # Invalidate weight-derived checksum caches (see SGD.step).
        bump_weights_version()

    # -- moment-buffer integrity ----------------------------------------------------

    def verify_moments(self) -> None:
        """Recompute the float64 moment sums and compare to the running record.

        Raises :class:`OptimizerStateCorruption` on the first slot whose live
        ``m``/``v`` buffer no longer reproduces the sum recorded when
        :meth:`step` last wrote it.  O(state size) adds, no copies beyond the
        reduction — the cheap invariant check run before every checkpoint
        save and on stale-rollback restore.
        """
        for i in range(len(self.parameters)):
            if self._m[i] is None or self._moment_sums[i] is None:
                continue
            recorded_m, recorded_v = self._moment_sums[i]
            live_m, live_v = _moment_sum(self._m[i]), _moment_sum(self._v[i])
            if not (_sums_match(recorded_m, live_m) and _sums_match(recorded_v, live_v)):
                raise OptimizerStateCorruption(
                    f"AdamW moment buffers for parameter slot {i} do not reproduce "
                    f"their recorded float64 checksums "
                    f"(m: recorded {recorded_m!r}, live {live_m!r}; "
                    f"v: recorded {recorded_v!r}, live {live_v!r}) — optimizer "
                    "state was corrupted after the last update"
                )

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        for i in range(len(self.parameters)):
            if self._m[i] is not None:
                state[f"m.{i}"] = self._copy_slot(i, self._m[i])
                state[f"v.{i}"] = self._copy_slot(i, self._v[i])
                if self._moment_sums[i] is not None:
                    state[f"moment_checksum.{i}"] = np.asarray(
                        self._moment_sums[i], dtype=np.float64
                    )
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        for i in range(len(self.parameters)):
            self._m[i] = self._copy_slot(i, state[f"m.{i}"]) if f"m.{i}" in state else None
            self._v[i] = self._copy_slot(i, state[f"v.{i}"]) if f"v.{i}" in state else None
            self._moment_sums[i] = None
            if self._m[i] is None:
                continue
            sums = (_moment_sum(self._m[i]), _moment_sum(self._v[i]))
            key = f"moment_checksum.{i}"
            if key in state:
                recorded = np.asarray(state[key], dtype=np.float64)
                recorded_m, recorded_v = float(recorded[0]), float(recorded[1])
                if not (_sums_match(recorded_m, sums[0]) and _sums_match(recorded_v, sums[1])):
                    raise OptimizerStateCorruption(
                        f"restored AdamW moment buffers for parameter slot {i} do not "
                        f"reproduce the snapshot's float64 checksums "
                        f"(m: recorded {recorded_m!r}, restored {sums[0]!r}; "
                        f"v: recorded {recorded_v!r}, restored {sums[1]!r}) — the "
                        "snapshot was poisoned between save and restore"
                    )
                self._moment_sums[i] = (recorded_m, recorded_v)
            else:
                # Legacy snapshot without checksums: adopt the restored
                # buffers as the new ground truth.
                self._moment_sums[i] = sums
