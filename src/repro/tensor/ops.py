"""Stateless vectorised array kernels and their analytical gradients.

Every function here is a *pure, backend-generic* array kernel: no global
state, no autograd bookkeeping, and no hard-wired array library.  Kernels
dispatch through the namespace of the backend that owns their input
(:func:`repro.backend.namespace_of`), so the same code runs on NumPy host
arrays, CuPy device arrays or Torch tensors — whichever library the caller's
data lives in.  The autograd engine (:mod:`repro.tensor.autograd`) composes
these kernels into differentiable operations; the fault-injection and ABFT
machinery calls them directly on raw arrays.

Following the HPC-Python guides, every kernel is expressed with broadcasting
and whole-array operations — there are no Python-level loops over matrix
elements anywhere in this module.  On the NumPy backend each kernel executes
the exact operation sequence of the historical pure-NumPy implementation, so
results are bit-identical to earlier releases.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Tuple

import numpy as np

from repro.backend import namespace_of

__all__ = [
    "batched_matmul",
    "matmul_backward",
    "softmax",
    "softmax_backward",
    "log_softmax",
    "log_softmax_backward",
    "gelu",
    "gelu_backward",
    "relu",
    "relu_backward",
    "tanh",
    "tanh_backward",
    "layer_norm",
    "layer_norm_backward",
    "dropout_mask",
    "cross_entropy",
    "cross_entropy_backward",
    "one_hot",
    "unbroadcast",
]


# ---------------------------------------------------------------------------
# GEMM
# ---------------------------------------------------------------------------

def batched_matmul(a: Any, b: Any) -> Any:
    """Batched matrix multiplication ``a @ b`` with NumPy-style broadcasting.

    Shapes follow the ``matmul`` convention: the last two axes are the matrix
    dimensions and all leading axes broadcast.  This is the single kernel
    underlying all six GEMMs of the attention mechanism (Figure 1 of the
    paper), dispatched to the owning backend's GEMM library.
    """
    return namespace_of(a).matmul(a, b)


def matmul_backward(
    grad_out: Any, a: Any, b: Any
) -> Tuple[Any, Any]:
    """Gradients of ``c = a @ b`` w.r.t. ``a`` and ``b``.

    ``grad_a = grad_out @ b^T`` and ``grad_b = a^T @ grad_out``; broadcasting
    over leading batch axes is undone by summing (:func:`unbroadcast`).
    """
    xp = namespace_of(grad_out)
    grad_a = xp.matmul(grad_out, xp.swapaxes(b, -1, -2))
    grad_b = xp.matmul(xp.swapaxes(a, -1, -2), grad_out)
    return unbroadcast(grad_a, a.shape), unbroadcast(grad_b, b.shape)


def unbroadcast(grad: Any, shape: Tuple[int, ...]) -> Any:
    """Reduce ``grad`` so its shape matches ``shape`` after broadcasting.

    Sums over axes that were added or expanded by broadcasting.  Needed by
    every binary operation's backward pass.
    """
    shape = tuple(shape)
    if tuple(grad.shape) == shape:
        return grad
    xp = namespace_of(grad)
    # Sum over leading axes that broadcasting added.
    while grad.ndim > len(shape):
        grad = xp.sum(grad, axis=0)
    # Sum over axes that were size-1 in the original.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = xp.sum(grad, axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------

def softmax(x: Any, axis: int = -1) -> Any:
    """Numerically-stable softmax along ``axis``.

    NaN inputs propagate to NaN outputs (IEEE semantics); INF inputs produce
    the usual one-hot-at-infinity behaviour.  This matters for the error
    propagation study: the paper's Table 2 shows INF in the attention score
    becoming NaN after softmax (because ``inf - inf`` appears in the shifted
    exponent), and this kernel reproduces exactly that behaviour.
    """
    xp = namespace_of(x)
    shifted = x - xp.max(x, axis=axis, keepdims=True)
    e = xp.exp(shifted)
    return e / xp.sum(e, axis=axis, keepdims=True)


def softmax_backward(grad_out: Any, out: Any, axis: int = -1) -> Any:
    """Backward pass of softmax given its output ``out``."""
    xp = namespace_of(out)
    dot = xp.sum(grad_out * out, axis=axis, keepdims=True)
    return out * (grad_out - dot)


def log_softmax(x: Any, axis: int = -1) -> Any:
    """Numerically-stable ``log(softmax(x))``."""
    xp = namespace_of(x)
    shifted = x - xp.max(x, axis=axis, keepdims=True)
    return shifted - xp.log(xp.sum(xp.exp(shifted), axis=axis, keepdims=True))


def log_softmax_backward(grad_out: Any, out: Any, axis: int = -1) -> Any:
    """Backward pass of log-softmax given its output ``out`` (= log p)."""
    xp = namespace_of(out)
    softmax_out = xp.exp(out)
    return grad_out - softmax_out * xp.sum(grad_out, axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Any) -> Any:
    """GELU activation (tanh approximation, as used by BERT/GPT-2)."""
    xp = namespace_of(x)
    # ``x * x * x``, not ``x**3``: NumPy sends every power but 2 through the
    # generic ``pow`` loop, which costs several times the two multiplies.
    return 0.5 * x * (1.0 + xp.tanh(_GELU_C * (x + 0.044715 * (x * x * x))))


def gelu_backward(grad_out: Any, x: Any) -> Any:
    """Analytical gradient of the tanh-approximated GELU."""
    xp = namespace_of(x)
    x2 = x * x
    u = _GELU_C * (x + 0.044715 * (x2 * x))
    t = xp.tanh(u)
    du_dx = _GELU_C * (1.0 + 3 * 0.044715 * x2)
    return grad_out * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du_dx)


def relu(x: Any) -> Any:
    """Rectified linear unit."""
    return namespace_of(x).maximum(x, 0.0)


def relu_backward(grad_out: Any, x: Any) -> Any:
    """Gradient of ReLU."""
    return grad_out * (x > 0)


def tanh(x: Any) -> Any:
    """Hyperbolic tangent."""
    return namespace_of(x).tanh(x)


def tanh_backward(grad_out: Any, out: Any) -> Any:
    """Gradient of tanh given its output."""
    return grad_out * (1.0 - out**2)


# ---------------------------------------------------------------------------
# Layer normalisation
# ---------------------------------------------------------------------------

def layer_norm(
    x: Any,
    gamma: Any,
    beta: Any,
    eps: float = 1e-5,
) -> Tuple[Any, Any, Any]:
    """Layer normalisation over the last axis.

    Returns ``(out, x_hat, inv_std)`` where the last two are cached for the
    backward pass.  Uses the biased variance (NumPy's default) on every
    backend.
    """
    xp = namespace_of(x)
    mean = xp.mean(x, axis=-1, keepdims=True)
    var = xp.var(x, axis=-1, keepdims=True)
    inv_std = 1.0 / xp.sqrt(var + eps)
    x_hat = (x - mean) * inv_std
    out = gamma * x_hat + beta
    return out, x_hat, inv_std


def layer_norm_backward(
    grad_out: Any,
    x_hat: Any,
    inv_std: Any,
    gamma: Any,
) -> Tuple[Any, Any, Any]:
    """Gradients of layer norm w.r.t. input, gamma and beta."""
    xp = namespace_of(x_hat)
    d = x_hat.shape[-1]
    dgamma_axes = tuple(range(x_hat.ndim - 1))
    dgamma = xp.sum(grad_out * x_hat, axis=dgamma_axes)
    dbeta = xp.sum(grad_out, axis=dgamma_axes)
    dxhat = grad_out * gamma
    dx = (
        inv_std
        / d
        * (
            d * dxhat
            - xp.sum(dxhat, axis=-1, keepdims=True)
            - x_hat * xp.sum(dxhat * x_hat, axis=-1, keepdims=True)
        )
    )
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# Dropout / losses / misc
# ---------------------------------------------------------------------------

def dropout_mask(
    shape: Tuple[int, ...], p: float, rng: np.random.Generator, xp: Any = None
) -> Any:
    """Inverted-dropout mask: zeros with probability ``p``, else ``1/(1-p)``.

    The mask is drawn on the host from the caller's NumPy ``rng`` (so runs
    are reproducible independently of the compute backend) and adopted into
    ``xp``'s array type when a non-NumPy namespace is passed.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        mask = np.ones(shape, dtype=np.float64)
    else:
        keep = rng.random(shape) >= p
        mask = keep.astype(np.float64) / (1.0 - p)
    return mask if xp is None else xp.asarray(mask)


def one_hot(indices: Any, num_classes: int) -> Any:
    """One-hot encode integer ``indices`` into ``num_classes`` columns."""
    xp = namespace_of(indices)
    indices = xp.asarray(indices)
    if bool(xp.any(indices < 0)) or bool(xp.any(indices >= num_classes)):
        raise ValueError("index out of range for one_hot")
    out = xp.zeros(tuple(indices.shape) + (num_classes,), dtype=xp.float64)
    xp.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def cross_entropy(logits: Any, labels: Any) -> float:
    """Mean cross-entropy of ``logits`` (N, C) against integer ``labels`` (N,).

    Returns NaN if the logits contain NaN — this is precisely the
    "non-trainable state" signal the paper's vulnerability study keys on.
    """
    xp = namespace_of(logits)
    logp = log_softmax(logits, axis=-1)
    n = logits.shape[0]
    picked = logp[xp.arange(n), xp.asarray(labels)]
    return float(-xp.mean(picked))


def cross_entropy_backward(logits: Any, labels: Any) -> Any:
    """Gradient of mean cross-entropy w.r.t. the logits."""
    xp = namespace_of(logits)
    n = logits.shape[0]
    p = softmax(logits, axis=-1)
    grad = xp.copy(p)
    grad[xp.arange(n), xp.asarray(labels)] -= 1.0
    return grad / n
