"""Layer / module abstractions over the autograd tensors.

Parameters are created in the runtime default dtype (float32 unless
``REPRO_DTYPE``/:func:`repro.nn.set_default_dtype` says otherwise);
``load_state_dict`` casts incoming arrays to each parameter's dtype so
checkpoints round-trip across dtype modes.  A layer built with
``rng=None`` draws and allocates nothing: its weights are read-only
zero views, for a ``load_state_dict`` to replace.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import conv1d, dropout, graph_conv, linear
from repro.nn.tensor import Tensor, Workspace, default_dtype

__all__ = ["Module", "Linear", "Conv1d", "Dropout", "GraphConv"]


class Module:
    """Base class: parameter discovery and train/eval mode switching."""

    def parameters(self) -> list[Tensor]:
        """All trainable tensors of this module and its sub-modules."""
        params: list[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> None:
        self._set_mode(True)

    def eval(self) -> None:
        self._set_mode(False)

    def _set_mode(self, training: bool) -> None:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)
        if hasattr(self, "training"):
            self.training = training

    def state_dict(self) -> list[np.ndarray]:
        """Flat list of parameter arrays (load with :meth:`load_state_dict`)."""
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} arrays, model has {len(params)}"
            )
        # Validate every shape before assigning any: a mismatch half-way
        # through must not leave the model partially overwritten.
        for i, (param, data) in enumerate(zip(params, state)):
            if param.data.shape != np.asarray(data).shape:
                raise ValueError(
                    f"parameter {i}: shape mismatch "
                    f"{param.data.shape} vs {np.asarray(data).shape}"
                )
        for param, data in zip(params, state):
            param.data = np.asarray(data, dtype=param.data.dtype).copy()


#: The one element every placeholder weight views (itemsize <= 16).
_ZERO = bytes(16)


def _unset(*shape: int) -> np.ndarray:
    """Zero weights for a ``load_state_dict`` to replace: a read-only
    zero-stride view, so a large layer allocates nothing."""
    return np.ndarray(
        shape, default_dtype(), buffer=_ZERO, strides=(0,) * len(shape)
    )


def _glorot(rng: np.random.Generator | None, *shape: int) -> np.ndarray:
    if rng is None:
        return _unset(*shape)
    fan_in, fan_out = shape[-1], shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Linear(Module):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(
        self, in_features: int, out_features: int,
        rng: np.random.Generator | None,
    ):
        self.weight = Tensor(
            _glorot(rng, in_features, out_features), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Conv1d(Module):
    """Stride-1 1-D convolution layer over ``(batch, c_in, length)`` inputs.

    Keeps a private :class:`Workspace` so the im2col scratch buffer is
    recycled across training steps instead of reallocated per batch.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator | None,
    ):
        shape = (out_channels, in_channels, kernel_size)
        if rng is None:
            weight = _unset(*shape)
        else:
            scale = np.sqrt(2.0 / (in_channels * kernel_size))
            weight = rng.normal(0.0, scale, size=shape)
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self._workspace = Workspace()

    def __call__(self, x: Tensor) -> Tensor:
        return conv1d(x, self.weight, self.bias, workspace=self._workspace)


class Dropout(Module):
    """Inverted dropout with its own RNG stream."""

    def __init__(self, rate: float, rng: np.random.Generator):
        self.rate = rate
        self.rng = rng
        self.training = True

    def __call__(self, x: Tensor) -> Tensor:
        return dropout(x, self.rate, self.rng, training=self.training)


class GraphConv(Module):
    """DGCNN graph convolution (paper Eq. 4).

    Computes ``H' = tanh( D^-1 (A + I) H W )`` through the fused
    :func:`repro.nn.functional.graph_conv` kernel; the normalized operator
    ``D^-1 (A + I)`` is precomputed by the batcher and passed as a constant
    — ideally the batch's :class:`~repro.nn.sparse.SparseOp`
    (``GraphBatch.operator``), so layers share one operator per batch.
    ``workspace``/``out``/``feature_cols`` forward straight to the kernel
    (see :func:`repro.nn.functional.graph_conv`).
    """

    def __init__(
        self, in_channels: int, out_channels: int,
        rng: np.random.Generator | None,
    ):
        self.weight = Tensor(
            _glorot(rng, in_channels, out_channels), requires_grad=True
        )

    def __call__(
        self,
        norm_adj,
        h: Tensor,
        workspace: Workspace,
        out: np.ndarray | None = None,
        feature_cols: np.ndarray | None = None,
    ) -> Tensor:
        return graph_conv(
            norm_adj, h, self.weight,
            workspace=workspace, out=out, feature_cols=feature_cols,
        )
