"""Reverse-mode automatic differentiation over numpy arrays.

The offline environment has no PyTorch, so this module provides the tensor
runtime the DGCNN is built on: a :class:`Tensor` records the operations that
produced it and :meth:`Tensor.backward` walks the tape in reverse
topological order, accumulating gradients.

Only the operations the DGCNN needs are implemented, each with an exact
(non-approximated) gradient.

Dtype policy
------------
The runtime computes in **float32** by default — half the memory traffic of
float64 and measurably faster on every dense kernel the DGCNN runs.  The
escape hatch back to float64 (for gradient checks, which need the extra
precision against central differences) is threefold:

* the ``REPRO_DTYPE`` environment variable (``float32`` / ``float64``),
  read once at import,
* :func:`set_default_dtype` to switch the process at runtime,
* :func:`dtype_scope` to switch temporarily (used by the test fixtures).

Every :class:`Tensor` is created in the active default dtype, so leaves
(parameters, batch features) fix the precision of the whole tape.

Inference can additionally run under :func:`no_grad`, which stops the tape
from being recorded at all — evaluation and scoring allocate no backward
closures and keep no intermediate arrays alive.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np
import scipy.sparse as sp

from repro.settings import setting

__all__ = [
    "Tensor",
    "Workspace",
    "spmm",
    "concat",
    "relu",
    "tanh",
    "sigmoid",
    "default_dtype",
    "set_default_dtype",
    "dtype_scope",
    "no_grad",
    "is_grad_enabled",
]

_DTYPES = {"float32": np.float32, "float64": np.float64}

_default_dtype: np.dtype = np.dtype(_DTYPES[setting("REPRO_DTYPE")])

_grad_enabled: bool = True


def default_dtype() -> np.dtype:
    """The dtype new tensors are created with (float32 unless overridden)."""
    return _default_dtype


def set_default_dtype(dtype) -> None:
    """Switch the runtime dtype (``np.float32`` / ``np.float64``)."""
    global _default_dtype
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported runtime dtype {dtype!r}")
    _default_dtype = resolved


@contextmanager
def dtype_scope(dtype) -> Iterator[None]:
    """Temporarily switch the runtime dtype (restores on exit)."""
    previous = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def is_grad_enabled() -> bool:
    return _grad_enabled


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording: ops return plain value tensors."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Workspace:
    """A small pool of reusable scratch arrays keyed by ``(shape, dtype)``.

    Layers use this to recycle their largest forward buffers (e.g. the
    im2col matrix of :func:`repro.nn.functional.conv1d`) across training
    steps instead of reallocating them every batch.  A buffer acquired
    while the tape is recording is handed back by the op's backward
    closure; when recording is off it is returned as soon as the forward
    value is computed.

    Buffers whose leading dimension varies batch to batch (anything sized
    by the stacked node count) go through :meth:`resident` instead: one
    named slot per trailing shape that grows monotonically and is
    recycled every step, so a shuffling training loop — where the exact
    node count never repeats — still allocates nothing in steady state.
    """

    __slots__ = ("_pool", "_resident")

    def __init__(self) -> None:
        self._pool: dict[tuple[tuple[int, ...], np.dtype], list[np.ndarray]] = {}
        self._resident: dict[tuple, np.ndarray] = {}

    def acquire(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised array of the requested shape (pooled if possible)."""
        key = (tuple(shape), np.dtype(dtype))
        bucket = self._pool.get(key)
        if bucket:
            return bucket.pop()
        return np.empty(shape, dtype=dtype)

    def release(self, array: np.ndarray) -> None:
        """Return *array* to the pool for a later :meth:`acquire`."""
        key = (array.shape, array.dtype)
        self._pool.setdefault(key, []).append(array)

    def resident(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A persistent named scratch slot, grown monotonically.

        Returns a C-contiguous uninitialised view of the requested shape
        over a slot keyed by ``(tag, shape[1:], dtype)``.  The same slot is
        handed out on every call, so the caller must be done with the
        previous lease before asking again — the pattern of a sequential
        train loop, where step ``t``'s tape is consumed before step
        ``t+1``'s forward begins.
        """
        key = (tag, tuple(shape[1:]), np.dtype(dtype))
        slot = self._resident.get(key)
        if slot is None or slot.shape[0] < shape[0]:
            # Grow geometrically: shuffled batches wiggle in node count,
            # and doubling keeps reallocation from recurring every epoch.
            rows = shape[0] if slot is None else max(shape[0], 2 * slot.shape[0])
            slot = np.empty((rows,) + tuple(shape[1:]), dtype=dtype)
            self._resident[key] = slot
        return slot[: shape[0]]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce *grad* back to *shape* after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were 1 in the original shape.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array with an autograd tape.

    Args:
        data: array-like payload (stored in the runtime default dtype
            unless an explicit ``dtype`` is given).
        requires_grad: participate in gradient computation.
        dtype: override the runtime default dtype for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _default_dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple["Tensor", ...] = ()

    # ------------------------------------------------------------- plumbing
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(
            data,
            requires_grad=_grad_enabled
            and any(p.requires_grad for p in parents),
        )
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # First contribution: materialize a private copy (one pass)
            # instead of zeros + add (two passes).
            if np.shape(grad) == self.data.shape:
                self.grad = np.array(grad, dtype=self.data.dtype)
                return
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """Like :meth:`_accumulate`, but *grad* ownership transfers to the
        tensor: a backward closure that freshly allocated *grad* hands it
        over without the defensive copy.  The caller must not reuse it."""
        if not self.requires_grad:
            return
        if (
            self.grad is None
            and grad.shape == self.data.shape
            and grad.dtype == self.data.dtype
        ):
            self.grad = grad
        else:
            self._accumulate(grad)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor (defaults to d(self)/d(self)=1)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        # Reverse topological order over the tape.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))

        # Seed, then walk consumers-before-producers; every closure
        # accumulates into its parents' ``.grad`` via ``_accumulate``, so by
        # the time a node is visited its gradient is complete.
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def item(self) -> float:
        return float(self.data)

    # ----------------------------------------------------------- arithmetic
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.shape)
            )

        return self._make(data, (self, other), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            # Both products are freshly allocated, so ownership transfers
            # (no defensive copy); skip the GEMM entirely for constants.
            if self.requires_grad:
                self._accumulate_owned(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate_owned(self.data.T @ grad)

        return self._make(data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------ reshaping
    def reshape(self, *shape: int) -> "Tensor":
        data = self.data.reshape(*shape)
        old_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(old_shape))

        return self._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes = axes or tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def gather_rows(
        self,
        indices: np.ndarray,
        unique: bool = False,
        out: np.ndarray | None = None,
    ) -> "Tensor":
        """Select rows; an index of ``-1`` yields a zero row (padding).

        Gradient scatters back additively into the selected rows.  Pass
        ``unique=True`` when the caller guarantees no index repeats (e.g.
        SortPooling, where every node row is taken at most once): the
        scatter then becomes a direct assignment instead of ``np.add.at``.
        An optional *out* destination (possibly a strided column slice of
        a shared buffer) receives the gather in place and becomes the
        result tensor's data.
        """
        indices = np.asarray(indices, dtype=np.int64)
        valid = indices >= 0
        if out is None:
            padded = np.zeros(
                (indices.shape[0],) + self.shape[1:], dtype=self.data.dtype
            )
        else:
            padded = out
            if not valid.all():
                padded[~valid] = 0.0
        padded[valid] = self.data[indices[valid]]

        def backward(grad: np.ndarray) -> None:
            out = np.zeros_like(self.data)
            if unique:
                out[indices[valid]] = grad[valid]
            else:
                np.add.at(out, indices[valid], grad[valid])
            self._accumulate_owned(out)

        return self._make(padded, (self,), backward)

    # ----------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ---------------------------------------------------------- activations
    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * (1.0 - data**2))

        return self._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * (self.data > 0))

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * data * (1.0 - data))

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(data, (self,), backward)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data)

        return self._make(data, (self,), backward)


def spmm(matrix: sp.spmatrix, tensor: Tensor) -> Tensor:
    """Sparse @ dense with gradient through the dense side.

    The sparse *matrix* is a constant (the normalized adjacency); only the
    node-feature tensor receives a gradient: ``d(A @ H)/dH = A.T @ grad``.
    """
    matrix = matrix.tocsr()
    data = matrix @ tensor.data

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate_owned(matrix.T @ grad)

    return Tensor._make(data, (tensor,), backward)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along *axis*; gradient splits back to the inputs."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            t._accumulate(grad[tuple(slicer)])

    return Tensor._make(data, tuple(tensors), backward)


def relu(t: Tensor) -> Tensor:
    return t.relu()


def tanh(t: Tensor) -> Tensor:
    return t.tanh()


def sigmoid(t: Tensor) -> Tensor:
    return t.sigmoid()
