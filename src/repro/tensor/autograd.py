"""A small reverse-mode automatic differentiation engine on pluggable array backends.

The engine provides everything the transformer models in :mod:`repro.models`
need — and nothing more:

* :class:`Tensor` wraps an array owned by one :class:`repro.backend.ArrayBackend`
  (NumPy by default; CuPy / Torch when the model substrate is built on them)
  and records the operation that produced it (its parents plus a backward
  closure).
* :func:`Tensor.backward` runs a topological sort of the recorded DAG and
  accumulates gradients into every tensor with ``requires_grad=True``.
* A library of differentiable operations (GEMM, softmax, GELU, layer norm,
  embedding lookup, dropout, reshaping) built on the pure backend-generic
  kernels in :mod:`repro.tensor.ops`.

Array backends
--------------
Every :class:`Tensor` carries the backend that owns its array (the same seam
:class:`repro.nn.attention.SectionContext` uses), and every operation
dispatches through that backend's ``xp`` namespace.  The rules that keep the
whole graph device-resident:

* children inherit the owning backend of their parents, so one adoption at the
  model boundary (parameters at init, token ids at the embedding lookup)
  carries through forward, backward and the optimizer update without host
  round-trips;
* the root gradient of :func:`Tensor.backward` is seeded with the owning
  namespace's ``ones_like`` — never host NumPy;
* host-side data (Python scalars, freshly drawn dropout masks, attention
  masks) is adopted into the owning backend exactly once, at the operation
  that consumes it.

On the NumPy backend every operation executes the identical op sequence of
the historical pure-NumPy engine, so results are byte-identical to earlier
releases (pinned by the seed-output goldens in the test suite).

ABFT / fault-injection integration
----------------------------------
:func:`matmul` accepts a ``forward_hook``: a callable receiving the raw GEMM
output array and returning the (possibly modified) array to use as the
operation result.  The backward pass of a matrix multiplication does not
depend on its output, so hooks may freely corrupt (fault injection) and repair
(ABFT correction) the forward value without invalidating gradients — this
mirrors how the paper instruments the CUDA GEMMs at the operation boundary.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import ArrayBackend, backend_of, namespace_of
from repro.tensor import ops

__all__ = [
    "Tensor",
    "GradHookHandle",
    "tensor",
    "no_grad",
    "is_grad_enabled",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "softmax",
    "log_softmax",
    "gelu",
    "relu",
    "tanh",
    "layer_norm",
    "dropout",
    "embedding",
    "reshape",
    "transpose",
    "concat",
    "split_heads",
    "merge_heads",
    "sum",
    "mean",
    "cross_entropy_loss",
]

ArrayLike = Union[float, int, np.ndarray, "Tensor", Any]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


class Tensor:
    """A backend-owned array with an autograd tape.

    Parameters
    ----------
    data:
        Array data.  Non-floating input is cast to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    parents:
        The tensors this one was computed from (internal).
    backward_fn:
        Closure mapping the output gradient to a tuple of parent gradients
        (internal).
    name:
        Optional human-readable tag used in error messages and by the fault
        tracer to identify matrices (e.g. ``"Q"``, ``"AS"``).
    backend:
        The :class:`repro.backend.ArrayBackend` owning ``data``.  ``None``
        (default) resolves it from ``data``'s type; foreign data passed with
        an explicit backend is adopted into that backend's array type.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_parents",
        "_backward_fn",
        "_post_accumulate_grad_hooks",
        "name",
        "backend",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[Callable[[Any], Tuple[Optional[Any], ...]]] = None,
        name: Optional[str] = None,
        backend: Optional[ArrayBackend] = None,
    ) -> None:
        if isinstance(data, Tensor):
            if backend is None:
                backend = data.backend
            data = data.data
        if backend is None:
            backend = backend_of(data)
        arr = data if backend.is_backend_array(data) else backend.asarray(data)
        if not np.issubdtype(backend.dtype_of(arr), np.floating):
            xp = backend.namespace_for(arr)
            arr = xp.astype(arr, xp.float64)
        self.data: Any = arr
        self.grad: Optional[Any] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = tuple(parents)
        self._backward_fn = backward_fn
        self._post_accumulate_grad_hooks: Optional[List[Callable[["Tensor"], None]]] = None
        self.name = name
        self.backend = backend

    # -- basic protocol -----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def ndim(self) -> int:
        return len(self.data.shape)

    @property
    def dtype(self) -> np.dtype:
        """Canonical NumPy dtype of the underlying array (on any backend)."""
        return self.backend.dtype_of(self.data)

    @property
    def size(self) -> int:
        return int(np.prod(self.data.shape, dtype=np.int64))

    @property
    def xp(self) -> Any:
        """The owning backend's function namespace, bound to this array."""
        return self.backend.namespace_for(self.data)

    def numpy(self) -> np.ndarray:
        """Export the underlying array to host NumPy (a d2h copy on device
        backends; the array itself on the NumPy reference)."""
        return self.backend.to_numpy(self.data)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name, backend=self.backend)

    def zero_grad(self) -> None:
        self.grad = None

    def register_post_accumulate_grad_hook(
        self, hook: Callable[["Tensor"], None]
    ) -> "GradHookHandle":
        """Register ``hook(tensor)`` to fire when this leaf's gradient lands.

        During :meth:`backward`, each reachable leaf with
        ``requires_grad=True`` accumulates its gradient exactly once (the
        graph walk pops every node a single time), and the hooks fire
        immediately after that accumulation — while backprop continues on
        nodes earlier in the graph.  This is the gradient-readiness seam the
        overlapped data-parallel trainer uses to launch a bucket's protected
        all-reduce the moment its last member gradient is complete.

        Hooks fire only on leaves the backward pass actually reached, in
        graph (reverse-topological) order.  Returns a removable handle.
        """
        if self._backward_fn is not None:
            raise ValueError(
                "post-accumulate gradient hooks only apply to leaf tensors"
            )
        if self._post_accumulate_grad_hooks is None:
            self._post_accumulate_grad_hooks = []
        self._post_accumulate_grad_hooks.append(hook)
        return GradHookHandle(self, hook)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # -- graph construction helpers ------------------------------------------

    @staticmethod
    def _wrap(value: ArrayLike, backend: Optional[ArrayBackend] = None) -> "Tensor":
        """Wrap a raw operand; host data adopts into ``backend`` when given.

        Scalars and host arrays meeting a device-resident tensor are adopted
        into its backend here, once, so the binary kernels never mix array
        libraries.  Host-resident backends recognise the NumPy wrap as already
        native, so the NumPy path performs no adoption call at all.
        """
        if isinstance(value, Tensor):
            return value
        if backend is None:
            return Tensor(np.asarray(value, dtype=np.float64))
        if backend.is_backend_array(value):
            # Raw operands wrap as float64, like the host path always did.
            xp = backend.namespace_for(value)
            return Tensor(xp.astype(value, xp.float64, copy=False), backend=backend)
        host = np.asarray(value, dtype=np.float64)
        if backend.is_backend_array(host):
            return Tensor(host, backend=backend)
        return Tensor(backend.asarray(host), backend=backend)

    @staticmethod
    def _wrap_pair(a: ArrayLike, b: ArrayLike) -> Tuple["Tensor", "Tensor"]:
        """Wrap both operands of a binary op, sharing the owning backend."""
        if isinstance(a, Tensor):
            return a, Tensor._wrap(b, backend=a.backend)
        if isinstance(b, Tensor):
            return Tensor._wrap(a, backend=b.backend), b
        return Tensor._wrap(a), Tensor._wrap(b)

    def _make_child(
        self,
        data: Any,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[Any], Tuple[Optional[Any], ...]],
        name: Optional[str] = None,
    ) -> "Tensor":
        backend = _owning_backend(parents, data)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data, requires_grad=False, name=name, backend=backend)
        return Tensor(
            data, requires_grad=True, parents=parents, backward_fn=backward_fn,
            name=name, backend=backend,
        )

    # -- operators -----------------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return sub(Tensor._wrap(other, backend=self.backend), self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return div(Tensor._wrap(other, backend=self.backend), self)

    def __neg__(self) -> "Tensor":
        return mul(self, -1.0)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return matmul(self, other)

    def reshape(self, *shape: int) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, *axes: int) -> "Tensor":
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return mean(self, axis=axis, keepdims=keepdims)

    # -- backward ------------------------------------------------------------

    def backward(self, grad: Optional[Any] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (appropriate for scalar losses), seeded on
        the owning backend so device-resident graphs stay device-resident.
        Gradients accumulate (+=) into every reachable tensor with
        ``requires_grad=True``, matching the PyTorch convention so gradient
        accumulation across micro-batches works naturally.
        """
        xp = self.xp
        if grad is None:
            grad = xp.ones_like(self.data)
        elif not self.backend.is_backend_array(grad):
            # Adopt through the device-bound namespace so an explicit host
            # gradient lands beside this tensor's data, not on the backend's
            # default device.
            grad = xp.asarray(grad)
        dtype = self.dtype
        target = dtype if np.issubdtype(dtype, np.floating) else np.dtype(np.float64)
        if self.backend.dtype_of(grad) != target:
            grad = xp.astype(grad, getattr(xp, target.name), copy=False)
        if tuple(grad.shape) != self.shape:
            raise ValueError(
                f"gradient shape {tuple(grad.shape)} does not match tensor shape {self.shape}"
            )

        grads = {id(self): grad}
        for node in reversed(_topological_order(self)):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward_fn is None:
                # Leaf tensor: accumulate.  Each node is popped exactly once
                # per backward, so the gradient is final here and the
                # post-accumulate hooks may act on it while earlier layers
                # are still back-propagating.
                node.grad = node_grad if node.grad is None else node.grad + node_grad
                if node._post_accumulate_grad_hooks:
                    for hook in tuple(node._post_accumulate_grad_hooks):
                        hook(node)
            if node._backward_fn is None:
                continue
            parent_grads = node._backward_fn(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad


def _topological_order(root: Tensor) -> List[Tensor]:
    """Every node reachable from ``root``, each after all of its parents.

    An iterative post-order DFS that visits parents in ``_parents`` order,
    so it yields the same order as the textbook recursive sort (and with it
    the same gradient accumulation order), without a depth limit and
    without a self-referencing closure whose reference cycle would keep the
    list, and every activation in it, alive until a cyclic GC pass.
    """
    topo: List[Tensor] = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for parent in parents:
            if id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                break
        else:
            stack.pop()
            topo.append(node)
    return topo


class GradHookHandle:
    """Removable registration of a post-accumulate gradient hook."""

    __slots__ = ("_tensor", "_hook")

    def __init__(self, tensor: Tensor, hook: Callable[[Tensor], None]) -> None:
        self._tensor = tensor
        self._hook = hook

    def remove(self) -> None:
        """Unregister the hook; safe to call more than once."""
        hooks = self._tensor._post_accumulate_grad_hooks
        if hooks is not None and self._hook in hooks:
            hooks.remove(self._hook)


def _owning_backend(parents: Sequence[Tensor], data: Any) -> ArrayBackend:
    """The backend a freshly computed array belongs to.

    The first parent whose backend natively owns ``data`` wins — this is what
    keeps a registered wrapper backend (a spy around NumPy, a pinned Torch
    instance) attached through an operation chain, since resolving by type
    alone would fall back to the base library's registry entry.
    """
    for parent in parents:
        if parent.backend.is_backend_array(data):
            return parent.backend
    return backend_of(data)


def tensor(
    data: ArrayLike,
    requires_grad: bool = False,
    name: Optional[str] = None,
    backend: Optional[ArrayBackend] = None,
) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad, name=name, backend=backend)


# ---------------------------------------------------------------------------
# Elementwise binary operations
# ---------------------------------------------------------------------------

def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise addition with broadcasting."""
    a, b = Tensor._wrap_pair(a, b)
    out = a.data + b.data

    def backward(grad):
        return ops.unbroadcast(grad, a.shape), ops.unbroadcast(grad, b.shape)

    return a._make_child(out, (a, b), backward)


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise subtraction with broadcasting."""
    a, b = Tensor._wrap_pair(a, b)
    out = a.data - b.data

    def backward(grad):
        return ops.unbroadcast(grad, a.shape), ops.unbroadcast(-grad, b.shape)

    return a._make_child(out, (a, b), backward)


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise multiplication with broadcasting."""
    a, b = Tensor._wrap_pair(a, b)
    out = a.data * b.data

    def backward(grad):
        return (
            ops.unbroadcast(grad * b.data, a.shape),
            ops.unbroadcast(grad * a.data, b.shape),
        )

    return a._make_child(out, (a, b), backward)


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise division with broadcasting."""
    a, b = Tensor._wrap_pair(a, b)
    out = a.data / b.data

    def backward(grad):
        return (
            ops.unbroadcast(grad / b.data, a.shape),
            ops.unbroadcast(-grad * a.data / (b.data**2), b.shape),
        )

    return a._make_child(out, (a, b), backward)


# ---------------------------------------------------------------------------
# GEMM
# ---------------------------------------------------------------------------

def matmul(
    a: ArrayLike,
    b: ArrayLike,
    forward_hook: Optional[Callable[[Any], Any]] = None,
    name: Optional[str] = None,
) -> Tensor:
    """Batched matrix multiplication ``a @ b`` with an optional forward hook.

    The hook receives the raw output array and must return the array to use
    as the operation's forward value.  Fault injectors corrupt the output
    here, and the ABFT executor detects/corrects it here — both without
    touching gradient computation, because the matmul backward only needs the
    *inputs*.
    """
    a, b = Tensor._wrap_pair(a, b)
    out = ops.batched_matmul(a.data, b.data)
    if forward_hook is not None:
        out = forward_hook(out)

    def backward(grad):
        return ops.matmul_backward(grad, a.data, b.data)

    return a._make_child(out, (a, b), backward, name=name)


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------

def softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    """Differentiable softmax along ``axis``."""
    x = Tensor._wrap(x)
    out = ops.softmax(x.data, axis=axis)

    def backward(grad):
        return (ops.softmax_backward(grad, out, axis=axis),)

    return x._make_child(out, (x,), backward)


def log_softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    """Differentiable log-softmax along ``axis``."""
    x = Tensor._wrap(x)
    out = ops.log_softmax(x.data, axis=axis)

    def backward(grad):
        return (ops.log_softmax_backward(grad, out, axis=axis),)

    return x._make_child(out, (x,), backward)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def gelu(x: ArrayLike) -> Tensor:
    """Differentiable GELU (tanh approximation)."""
    x = Tensor._wrap(x)
    out = ops.gelu(x.data)

    def backward(grad):
        return (ops.gelu_backward(grad, x.data),)

    return x._make_child(out, (x,), backward)


def relu(x: ArrayLike) -> Tensor:
    """Differentiable ReLU."""
    x = Tensor._wrap(x)
    out = ops.relu(x.data)

    def backward(grad):
        return (ops.relu_backward(grad, x.data),)

    return x._make_child(out, (x,), backward)


def tanh(x: ArrayLike) -> Tensor:
    """Differentiable tanh."""
    x = Tensor._wrap(x)
    out = ops.tanh(x.data)

    def backward(grad):
        return (ops.tanh_backward(grad, out),)

    return x._make_child(out, (x,), backward)


# ---------------------------------------------------------------------------
# Normalisation / regularisation
# ---------------------------------------------------------------------------

def layer_norm(x: ArrayLike, gamma: ArrayLike, beta: ArrayLike, eps: float = 1e-5) -> Tensor:
    """Differentiable layer normalisation over the last axis."""
    x = Tensor._wrap(x)
    gamma = Tensor._wrap(gamma, backend=x.backend)
    beta = Tensor._wrap(beta, backend=x.backend)
    out, x_hat, inv_std = ops.layer_norm(x.data, gamma.data, beta.data, eps=eps)

    def backward(grad):
        dx, dgamma, dbeta = ops.layer_norm_backward(grad, x_hat, inv_std, gamma.data)
        return dx, dgamma, dbeta

    return x._make_child(out, (x, gamma, beta), backward)


def dropout(x: ArrayLike, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Differentiable inverted dropout.

    In eval mode (``training=False``) or with ``p == 0`` this is the identity.
    The mask is drawn on the host from ``rng`` (backend-independent
    reproducibility) and adopted into the owning backend's array type.
    """
    x = Tensor._wrap(x)
    if not training or p == 0.0:
        return x
    mask = ops.dropout_mask(x.shape, p, rng, xp=x.xp)
    out = x.data * mask

    def backward(grad):
        return (grad * mask,)

    return x._make_child(out, (x,), backward)


# ---------------------------------------------------------------------------
# Embedding lookup
# ---------------------------------------------------------------------------

def embedding(weight: ArrayLike, indices: Any) -> Tensor:
    """Differentiable embedding lookup ``weight[indices]``.

    ``indices`` is a plain integer array (no gradient flows into it), adopted
    into the weight's backend once — the h2d crossing of the input batch on
    device substrates.  The gradient w.r.t. ``weight`` scatters the output
    gradient back to the looked-up rows.
    """
    weight = Tensor._wrap(weight)
    idx = indices if weight.backend.is_backend_array(indices) else np.asarray(indices)
    if not weight.backend.is_backend_array(idx):
        # The weight's device-bound namespace, so the ids land beside the
        # table (not on the backend's default device).
        idx = weight.xp.asarray(idx)
    out = weight.data[idx]

    def backward(grad):
        xp = weight.xp
        dw = xp.zeros_like(weight.data)
        xp.add_at(dw, idx.reshape(-1), grad.reshape(-1, weight.data.shape[-1]))
        return (dw,)

    return weight._make_child(out, (weight,), backward)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

def reshape(x: ArrayLike, shape: Sequence[int]) -> Tensor:
    """Differentiable reshape."""
    x = Tensor._wrap(x)
    original = x.shape
    out = x.data.reshape(shape)

    def backward(grad):
        return (grad.reshape(original),)

    return x._make_child(out, (x,), backward)


def transpose(x: ArrayLike, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Differentiable transpose / axis permutation."""
    x = Tensor._wrap(x)
    out = x.xp.transpose(x.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = tuple(int(i) for i in np.argsort(axes))

    def backward(grad):
        return (namespace_of(grad).transpose(grad, inverse),)

    return x._make_child(out, (x,), backward)


def concat(tensors: Iterable[ArrayLike], axis: int = -1) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    wrapped = [Tensor._wrap(t) for t in tensors]
    datas = [t.data for t in wrapped]
    out = wrapped[0].xp.concatenate(datas, axis=axis)
    sizes = [int(d.shape[axis]) for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        pieces = []
        for i in range(len(datas)):
            slicer = [slice(None)] * len(grad.shape)
            slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            pieces.append(grad[tuple(slicer)])
        return tuple(pieces)

    return wrapped[0]._make_child(out, tuple(wrapped), backward)


def split_heads(x: ArrayLike, num_heads: int) -> Tensor:
    """Reshape ``(B, S, D)`` into ``(B, H, S, D/H)`` for multi-head attention."""
    x = Tensor._wrap(x)
    b, s, d = x.shape
    if d % num_heads:
        raise ValueError(f"hidden size {d} not divisible by num_heads {num_heads}")
    return transpose(reshape(x, (b, s, num_heads, d // num_heads)), (0, 2, 1, 3))


def merge_heads(x: ArrayLike) -> Tensor:
    """Inverse of :func:`split_heads`: ``(B, H, S, Dh)`` back to ``(B, S, H*Dh)``."""
    x = Tensor._wrap(x)
    b, h, s, dh = x.shape
    return reshape(transpose(x, (0, 2, 1, 3)), (b, s, h * dh))


# ---------------------------------------------------------------------------
# Reductions / losses
# ---------------------------------------------------------------------------

def sum(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    """Differentiable sum reduction."""
    x = Tensor._wrap(x)
    xp = x.xp
    out = xp.sum(x.data, axis=axis, keepdims=keepdims)

    def backward(grad):
        gxp = namespace_of(grad)
        g = grad
        if axis is not None and not keepdims:
            g = gxp.expand_dims(g, axis=axis)
        return (gxp.copy(gxp.broadcast_to(g, x.shape)),)

    return x._make_child(xp.asarray(out), (x,), backward)


def mean(x: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    """Differentiable mean reduction."""
    x = Tensor._wrap(x)
    xp = x.xp
    out = xp.mean(x.data, axis=axis, keepdims=keepdims)
    if axis is None:
        count = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([x.shape[a] for a in axes]))

    def backward(grad):
        gxp = namespace_of(grad)
        g = grad
        if axis is not None and not keepdims:
            g = gxp.expand_dims(g, axis=axis)
        return (gxp.copy(gxp.broadcast_to(g, x.shape)) / count,)

    return x._make_child(xp.asarray(out), (x,), backward)


def cross_entropy_loss(logits: ArrayLike, labels: Any) -> Tensor:
    """Mean cross-entropy loss of ``logits`` (N, C) against int ``labels`` (N,).

    Implemented as a fused op (softmax + NLL) with the classic analytic
    gradient ``(softmax - onehot)/N`` for numerical stability.  The loss value
    is a host scalar (reading it is the one d2h sync of a device-resident
    training step, as in any real training loop's ``loss.item()``).
    """
    logits = Tensor._wrap(logits)
    if not logits.backend.is_backend_array(labels):
        labels = np.asarray(labels)
    loss_value = ops.cross_entropy(logits.data, labels)

    def backward(grad):
        g = float(np.asarray(grad))
        return (g * ops.cross_entropy_backward(logits.data, labels),)

    return logits._make_child(np.asarray(loss_value), (logits,), backward, name="loss")
