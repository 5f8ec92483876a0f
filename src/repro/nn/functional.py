"""Neural-net operations beyond basic tensor arithmetic.

These are the pieces the DGCNN needs: 1-D convolution, max-pooling,
dropout, the fused graph-convolution kernel, segment/gather primitives for
per-graph reductions over stacked node matrices, and the softmax
cross-entropy loss.  Each is an autograd node with an exact gradient.

All ops compute in the dtype of their inputs (see the dtype policy in
:mod:`repro.nn.tensor`); scratch buffers can be recycled across training
steps through a :class:`repro.nn.tensor.Workspace`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, Workspace, is_grad_enabled

__all__ = [
    "conv1d",
    "linear",
    "max_pool1d",
    "dropout",
    "graph_conv",
    "gather_stack",
    "sortpool_conv",
    "stack_columns",
    "gather_rows",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "log_softmax",
    "softmax_cross_entropy",
    "softmax",
]


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: int = 1,
    workspace: Workspace | None = None,
) -> Tensor:
    """1-D convolution.

    Args:
        x: input of shape ``(batch, c_in, length)``.
        weight: kernel of shape ``(c_out, c_in, k)``.
        bias: per-channel bias of shape ``(c_out,)``.
        stride: kernel stride.
        workspace: optional buffer pool for the im2col matrix — the
            largest allocation of the op.  The buffer is released back to
            the pool by the backward pass (or immediately when the tape is
            not recording), so one buffer serves every step of a training
            loop.

    Returns:
        Tensor of shape ``(batch, c_out, (length - k) // stride + 1)``.
    """
    batch, c_in, length = x.shape
    c_out, c_in_w, k = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in}, weight {c_in_w}")
    t_out = (length - k) // stride + 1
    if t_out < 1:
        raise ValueError(
            f"kernel {k} with stride {stride} does not fit length {length}"
        )
    if c_in == 1 and stride == k and x.data.flags.c_contiguous:
        return _conv1d_flat(x, weight, bias, k, t_out)

    # im2col in channel-major layout: (c_in * k, batch * t_out).  One flat
    # GEMM then serves the whole batch — no per-example batched-GEMM loop,
    # and the weight/input gradients are single GEMMs too.
    dtype = x.data.dtype
    f_width = c_in * k
    if workspace is not None:
        cols = workspace.acquire((f_width, batch * t_out), dtype)
    else:
        cols = np.empty((f_width, batch * t_out), dtype=dtype)
    cols4 = cols.reshape(k, c_in, batch, t_out)
    for tap in range(k):
        segment = x.data[:, :, tap : tap + stride * t_out : stride]
        cols4[tap] = segment.transpose(1, 0, 2)
    w2 = weight.data.transpose(0, 2, 1).reshape(c_out, f_width)
    out_f = w2 @ cols  # (c_out, batch * t_out)
    out = np.ascontiguousarray(
        out_f.reshape(c_out, batch, t_out).transpose(1, 0, 2)
    )
    out += bias.data[None, :, None]

    recording = is_grad_enabled() and (
        x.requires_grad or weight.requires_grad or bias.requires_grad
    )
    if not recording:
        if workspace is not None:
            workspace.release(cols)

        def backward(grad: np.ndarray) -> None:  # pragma: no cover - no tape
            pass

        return Tensor._make(out, (x, weight, bias), backward)

    released = False

    def backward(grad: np.ndarray) -> None:
        # grad: (batch, c_out, t_out) -> channel-major (c_out, batch * t_out)
        nonlocal released
        g_f = np.ascontiguousarray(grad.transpose(1, 0, 2)).reshape(c_out, -1)
        if bias.requires_grad:
            bias._accumulate_owned(g_f.sum(axis=1))
        if weight.requires_grad:
            gw2 = g_f @ cols.T
            weight._accumulate_owned(
                gw2.reshape(c_out, k, c_in).transpose(0, 2, 1)
            )
        if x.requires_grad:
            gcols4 = (w2.T @ g_f).reshape(k, c_in, batch, t_out)
            gx = np.zeros_like(x.data)
            for tap in range(k):
                seg = gcols4[tap].transpose(1, 0, 2)
                gx[:, :, tap : tap + stride * t_out : stride] += seg
            x._accumulate_owned(gx)
        if workspace is not None and not released:
            released = True
            workspace.release(cols)

    return Tensor._make(out, (x, weight, bias), backward)


def _conv1d_flat(
    x: Tensor, weight: Tensor, bias: Tensor, k: int, t_out: int
) -> Tensor:
    """Single-channel, non-overlapping convolution as one flat GEMM.

    With ``c_in == 1`` and ``stride == k`` (the DGCNN's first convolution,
    whose kernel spans a whole node's feature row) every output position
    is an independent k-tap dot product, so the op *is* a dense layer:
    ``(batch * t_out, k) @ (k, c_out)``.  No im2col buffer, no batched
    GEMM loop, and both weight and input gradients are single GEMMs too.
    """
    batch = x.shape[0]
    c_out = weight.shape[0]
    length = x.shape[2]
    windows = x.data.reshape(batch, -1)[:, : t_out * k].reshape(-1, k)
    w2 = weight.data.reshape(c_out, k)
    out2 = windows @ w2.T  # (batch * t_out, c_out)
    out2 += bias.data[None, :]
    out = np.ascontiguousarray(
        out2.reshape(batch, t_out, c_out).transpose(0, 2, 1)
    )

    def backward(grad: np.ndarray) -> None:
        # grad: (batch, c_out, t_out) -> flat (batch * t_out, c_out)
        g2 = np.ascontiguousarray(grad.transpose(0, 2, 1)).reshape(-1, c_out)
        if bias.requires_grad:
            bias._accumulate_owned(g2.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate_owned((g2.T @ windows).reshape(c_out, 1, k))
        if x.requires_grad:
            gx_flat = g2 @ w2  # (batch * t_out, k)
            if t_out * k == length:
                gx = gx_flat.reshape(batch, 1, length)
            else:
                gx = np.zeros_like(x.data)
                gx.reshape(batch, -1)[:, : t_out * k] = gx_flat.reshape(
                    batch, -1
                )
            x._accumulate_owned(gx)

    return Tensor._make(out, (x, weight, bias), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused dense layer ``x @ W + b``.

    One tape node instead of two (matmul → add), with arithmetic and
    gradients identical bit for bit to the composed tensor ops: the
    forward is the same two ufunc/GEMM calls, and the backward produces
    ``dW = xᵀ grad``, ``db = grad.sum(axis=0)`` (what ``_unbroadcast``
    reduces the add gradient to for a 1-D bias) and ``dx = grad Wᵀ``.
    """
    if x.ndim != 2:
        raise ValueError(f"expected (batch, in_features) input, got {x.shape}")
    out = x.data @ weight.data + bias.data

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accumulate_owned(grad.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate_owned(x.data.T @ grad)
        if x.requires_grad:
            x._accumulate_owned(grad @ weight.data.T)

    return Tensor._make(out, (x, weight, bias), backward)


def max_pool1d(x: Tensor, size: int, stride: int | None = None) -> Tensor:
    """Max pooling over the last axis of a ``(batch, c, length)`` tensor."""
    stride = stride or size
    batch, channels, length = x.shape
    t_out = (length - size) // stride + 1
    if t_out < 1:
        raise ValueError(f"pool size {size} does not fit length {length}")

    if size == 2 and stride == 2:
        # The DGCNN's pool: a two-way elementwise maximum beats the
        # windows/argmax/take_along_axis machinery by an order of
        # magnitude at these shapes.  argmax breaks ties toward the first
        # tap, matched here by the strict comparison.
        first = x.data[:, :, 0 : 2 * t_out : 2]
        second = x.data[:, :, 1 : 2 * t_out : 2]
        out = np.maximum(first, second)
        arg = second > first
    else:
        windows = np.empty((batch, channels, t_out, size), dtype=x.data.dtype)
        for tap in range(size):
            windows[:, :, :, tap] = x.data[
                :, :, tap : tap + stride * t_out : stride
            ]
        arg = windows.argmax(axis=3)
        out = np.take_along_axis(windows, arg[..., None], axis=3)[..., 0]

    def backward(grad: np.ndarray) -> None:
        if size == 2 and stride == 2:
            # Each window routes its gradient to whichever tap won the max.
            # AND-ing the gradient's bit pattern with an all-ones/all-zeros
            # mask copies it exactly (a -0.0 gradient stays -0.0, a losing
            # tap gets +0.0, as a masked store into zeros would), and one
            # interleaving stack beats two masked stores into strided views.
            grad = np.asarray(grad, dtype=x.data.dtype)
            bits = np.dtype(f"u{grad.itemsize}")
            keep = arg.astype(bits)
            np.negative(keep, out=keep)  # True -> all ones
            pattern = grad.view(bits)
            pairs = np.stack((pattern & ~keep, pattern & keep), axis=-1)
            pairs = pairs.view(grad.dtype).reshape(batch, channels, 2 * t_out)
            if 2 * t_out == length:
                x._accumulate_owned(pairs)
            else:  # an odd length's last column feeds no window
                gx = np.zeros(x.data.shape, dtype=x.data.dtype)
                gx[:, :, : 2 * t_out] = pairs
                x._accumulate_owned(gx)
            return
        # Always C-ordered (zeros_like would inherit an F-ordered layout,
        # breaking the flat-index scatter below).
        gx = np.zeros(x.data.shape, dtype=x.data.dtype)
        if stride >= size:
            # Non-overlapping windows (the DGCNN case): every input
            # position feeds at most one window, so the scatter is a
            # direct flat-index assignment — no ufunc.at.
            offsets = (
                np.arange(batch)[:, None, None] * channels
                + np.arange(channels)[None, :, None]
            ) * length
            flat = offsets + np.arange(t_out)[None, None, :] * stride + arg
            gx.reshape(-1)[flat.reshape(-1)] = grad.reshape(-1)
        else:
            b_idx, c_idx, t_idx = np.meshgrid(
                np.arange(batch), np.arange(channels), np.arange(t_out),
                indexing="ij",
            )
            source = t_idx * stride + arg
            np.add.at(gx, (b_idx, c_idx, source), grad)
        x._accumulate_owned(gx)

    return Tensor._make(out, (x,), backward)


def dropout(
    x: Tensor, rate: float, rng: np.random.Generator, training: bool = True
) -> Tensor:
    """Inverted dropout: scales kept activations by ``1 / (1 - rate)``.

    The mask is drawn in float64 (so a given RNG state yields the same
    draw sequence regardless of runtime dtype) and cast to the input's
    dtype before use.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    mask = ((rng.random(x.shape) >= rate) / (1.0 - rate)).astype(
        x.data.dtype, copy=False
    )

    def backward(grad: np.ndarray) -> None:
        x._accumulate_owned(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def graph_conv(
    norm_adj,
    h: Tensor,
    weight: Tensor,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
    feature_cols: np.ndarray | None = None,
) -> Tensor:
    """Fused DGCNN graph convolution ``tanh( A (H W) )`` (paper Eq. 4).

    One autograd node instead of three (matmul → spmm → tanh), with the
    sparse products running through the sparse engine
    (:mod:`repro.nn.sparse`): passing a batch's operator
    (``GraphBatch.operator``) runs scipy's C kernels on its raw CSR arrays
    with no per-layer format conversion, and the backward transpose
    product never materializes ``A^T``.

    Args:
        norm_adj: the normalized operator — a
            :class:`~repro.nn.sparse.SparseOp` (cached forms reused) or
            any scipy sparse matrix (wrapped per call).
        h: ``(N, c_in)`` node features.
        weight: ``(c_in, c_out)`` layer weight.
        out: optional destination for the tanh output — e.g. a column
            slice of a preassembled ``H^{1:L}`` buffer (may be strided).
            When given, the returned tensor's data *is* this view.
        workspace: optional scratch pool; the ``H W`` product, the
            pre-activation and the backward's two scratch matrices then
            live in recycled :meth:`~repro.nn.tensor.Workspace.resident`
            slots, making steady-state steps allocation-free.
        feature_cols: optional ``(N, c)`` one-hot column indices proving
            ``h[i] == sum_j onehot(feature_cols[i, j])`` (the batcher's
            detected node-information structure): the ``H W`` product is
            then ``c`` row gathers of ``W`` instead of a GEMM.  Gradients
            are computed from the dense ``h`` as usual; results differ
            from the GEMM only in floating-point summation order.

    Bit-identical to the unfused scipy composition — the same kernels run
    in the same order (the ``feature_cols`` shortcut reorders the ``H W``
    summation and is opt-in).
    """
    from repro.nn.sparse import as_sparse_op

    op = as_sparse_op(norm_adj)
    n, c_out = h.shape[0], weight.shape[1]
    dtype = np.result_type(h.data.dtype, weight.data.dtype)
    if workspace is not None:
        hw_buf = workspace.resident("graph_conv.hw", (n, c_out), dtype)
        if feature_cols is not None:
            np.take(
                weight.data, feature_cols[:, 0], axis=0, out=hw_buf,
                mode="clip",
            )
            for j in range(1, feature_cols.shape[1]):
                hw_buf += weight.data[feature_cols[:, j]]
            hw = hw_buf
        else:
            hw = np.matmul(h.data, weight.data, out=hw_buf)
        z = op.matmul(
            hw, out=workspace.resident("graph_conv.z", (n, c_out), dtype)
        )
    elif feature_cols is not None:
        hw = weight.data[feature_cols[:, 0]].copy()
        for j in range(1, feature_cols.shape[1]):
            hw += weight.data[feature_cols[:, j]]
        z = op.matmul(hw)
    else:
        z = op.matmul(h.data @ weight.data)
    if out is None:
        # Without a destination the pre-activation is (or must become) a
        # private array; tanh runs in place on it.
        if workspace is not None:
            out_data = np.tanh(z)
        else:
            out_data = np.tanh(z, out=z)
    else:
        out_data = out
        np.tanh(z, out=out_data)

    def backward(grad: np.ndarray) -> None:
        # d tanh: g' = grad * (1 - out^2); then dH = (A^T g') W^T and
        # dW = H^T (A^T g').  One scratch array serves the whole chain.
        if workspace is not None:
            gt = workspace.resident(
                "graph_conv.gt", out_data.shape, out_data.dtype
            )
            np.multiply(out_data, out_data, out=gt)
        else:
            gt = np.multiply(out_data, out_data)
        np.subtract(1.0, gt, out=gt)
        np.multiply(grad, gt, out=gt)
        ga = op.matmul_t(
            gt,
            out=workspace.resident("graph_conv.ga", gt.shape, gt.dtype)
            if workspace is not None
            else None,
        )
        if weight.requires_grad:
            weight._accumulate_owned(h.data.T @ ga)
        if h.requires_grad:
            h._accumulate_owned(np.matmul(ga, weight.data.T))

    return Tensor._make(out_data, (h, weight), backward)


def gather_stack(
    tensors: list[Tensor], indices: np.ndarray, buffer: np.ndarray
) -> Tensor:
    """Row-gather several tensors into column blocks of one buffer.

    One autograd node computing ``concat([t[indices] for t in tensors],
    axis=1)`` with ``-1`` indices yielding zero rows — the SortPooling
    gather of the DGCNN, exploiting that gathering a concatenation equals
    concatenating the gathers.  The shared index masks are computed once
    (not per layer), rows are gathered with integer indexing (no strided
    boolean writes) and the result lives in the caller's *buffer*, so the
    ``H^{1:L}`` concatenation never materializes at node size.

    Indices must not repeat (SortPooling guarantees it): the gradient
    scatter is a direct assignment, and each input receives a freshly
    owned gradient array.
    """
    indices = np.asarray(indices, dtype=np.int64)
    valid_rows = np.nonzero(indices >= 0)[0]
    source_rows = indices[valid_rows]
    all_valid = valid_rows.shape[0] == indices.shape[0]
    widths = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + widths)
    if buffer.shape != (indices.shape[0], offsets[-1]):
        raise ValueError(
            f"buffer shape {buffer.shape} does not match "
            f"({indices.shape[0]}, {offsets[-1]})"
        )
    safe = indices if all_valid else np.maximum(indices, 0)
    for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
        buffer[:, start:stop] = t.data[safe]
    if not all_valid:
        buffer[indices < 0] = 0.0

    def backward(grad: np.ndarray) -> None:
        rows = grad if all_valid else grad[valid_rows]
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            out = np.zeros_like(t.data)
            out[source_rows] = rows[:, start:stop]
            t._accumulate_owned(out)

    return Tensor._make(buffer, tuple(tensors), backward)


def sortpool_conv(
    tensors: list[Tensor],
    indices: np.ndarray,
    weight: Tensor,
    bias: Tensor,
    k: int,
    workspace: Workspace | None = None,
) -> Tensor:
    """SortPooling gather fused with the node-wide first convolution.

    Equivalent to gathering the per-layer outputs into the pooled
    ``H^{1:L}`` matrix, reshaping to ``(B, 1, k * width)`` and running the
    stride-``width`` convolution — but the concatenation never
    materializes: each layer's gathered block multiplies its own column
    slice of the kernel and the partial products accumulate, so the op
    runs L narrow GEMMs over contiguous arrays instead of strided
    buffer writes plus one wide GEMM.  ``-1`` indices denote padding rows
    (graphs smaller than k): their outputs are exactly ``bias``, and no
    gradient flows through them — identical to the unfused composition up
    to BLAS summation order inside the GEMMs.
    """
    indices = np.asarray(indices, dtype=np.int64)
    rows = indices.shape[0]
    if rows % k:
        raise ValueError(f"{rows} pooled rows do not tile into k={k}")
    n_graphs = rows // k
    c_out = weight.shape[0]
    width = weight.shape[2]
    if weight.shape[1] != 1 or width != sum(t.shape[1] for t in tensors):
        raise ValueError(
            f"kernel {weight.shape} does not span layer widths "
            f"{[t.shape[1] for t in tensors]}"
        )
    valid_rows = np.nonzero(indices >= 0)[0]
    all_valid = valid_rows.shape[0] == rows
    source_rows = indices[valid_rows]
    safe = indices if all_valid else np.maximum(indices, 0)
    invalid_rows = None if all_valid else np.nonzero(indices < 0)[0]

    w2 = weight.data.reshape(c_out, width)
    dtype = np.result_type(tensors[0].data.dtype, w2.dtype)
    if workspace is not None:
        acc = workspace.resident("sortpool_conv.acc", (rows, c_out), dtype)
        part = workspace.resident("sortpool_conv.part", (rows, c_out), dtype)
    else:
        acc = np.empty((rows, c_out), dtype=dtype)
        part = np.empty((rows, c_out), dtype=dtype)
    # Contiguous per-layer kernel blocks: BLAS consumes them (and their
    # transposes) directly, where strided column slices of w2 would force
    # internal copies on every GEMM.
    kernel_blocks: list[np.ndarray] = []
    column = 0
    for t in tensors:
        c = t.shape[1]
        kernel_blocks.append(np.ascontiguousarray(w2[:, column : column + c]))
        column += c
    gathered: list[np.ndarray] = []
    for i, t in enumerate(tensors):
        c = t.shape[1]
        if workspace is not None:
            # mode="clip" skips per-element bounds checks (safe is already
            # clipped) — measurably faster than the default "raise" path.
            block = np.take(
                t.data, safe, axis=0, mode="clip",
                out=workspace.resident(f"sortpool_conv.g{i}", (rows, c), dtype),
            )
        else:
            block = t.data[safe]
        if invalid_rows is not None:
            # Zero padding rows so backward weight grads stay exact.
            block[invalid_rows] = 0.0
        gathered.append(block)
        if i == 0:
            np.matmul(block, kernel_blocks[i].T, out=acc)
        else:
            np.matmul(block, kernel_blocks[i].T, out=part)
            acc += part
    acc += bias.data[None, :]
    out = np.ascontiguousarray(acc.reshape(n_graphs, k, c_out).transpose(0, 2, 1))

    def backward(grad: np.ndarray) -> None:
        # grad: (B, c_out, k) -> row-major (B * k, c_out)
        g2 = np.ascontiguousarray(grad.transpose(0, 2, 1)).reshape(rows, c_out)
        if bias.requires_grad:
            bias._accumulate_owned(g2.sum(axis=0))
        if weight.requires_grad:
            gw2 = np.empty((c_out, width), dtype=g2.dtype)
            col = 0
            for block in gathered:
                c = block.shape[1]
                gw2[:, col : col + c] = g2.T @ block
                col += c
            weight._accumulate_owned(gw2.reshape(c_out, 1, width))
        for t, block, kernel_block in zip(tensors, gathered, kernel_blocks):
            if t.requires_grad:
                gp = g2 @ kernel_block  # (rows, c)
                scattered = np.zeros_like(t.data)
                if all_valid:
                    scattered[source_rows] = gp
                else:
                    scattered[source_rows] = gp[valid_rows]
                t._accumulate_owned(scattered)

    return Tensor._make(out, tuple(tensors) + (weight, bias), backward)


def stack_columns(tensors: list[Tensor], data: np.ndarray) -> Tensor:
    """Wrap a preassembled column-stacked buffer as an axis-1 concat node.

    *data* is a ``(N, sum(widths))`` buffer whose column blocks were
    written in place by the producers of *tensors* (each tensor's data is
    a view into it), so the forward pass is free — no
    :func:`repro.nn.tensor.concat` copy.  The gradient splits back to the
    inputs exactly like ``concat``'s.
    """
    sizes = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    if data.shape[1] != offsets[-1]:
        raise ValueError(
            f"buffer has {data.shape[1]} columns, tensors cover {offsets[-1]}"
        )

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            t._accumulate(grad[:, start:stop])

    return Tensor._make(data, tuple(tensors), backward)


def gather_rows(x: Tensor, indices: np.ndarray, unique: bool = False) -> Tensor:
    """Row gather with ``-1`` → zero-row padding (see ``Tensor.gather_rows``)."""
    return x.gather_rows(indices, unique=unique)


def _check_segment_args(
    x: Tensor, segment_ids: np.ndarray, n_segments: int
) -> np.ndarray:
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.shape != (x.shape[0],):
        raise ValueError(
            f"segment_ids shape {segment_ids.shape} does not match "
            f"{x.shape[0]} rows"
        )
    if segment_ids.size and (
        segment_ids.min() < 0 or segment_ids.max() >= n_segments
    ):
        raise ValueError("segment id out of range")
    return segment_ids


def segment_sum(x: Tensor, segment_ids: np.ndarray, n_segments: int) -> Tensor:
    """Sum rows of *x* into ``n_segments`` buckets given per-row ids.

    Gradient: each input row receives its segment's gradient.
    """
    segment_ids = _check_segment_args(x, segment_ids, n_segments)
    data = np.zeros((n_segments,) + x.shape[1:], dtype=x.data.dtype)
    np.add.at(data, segment_ids, x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad[segment_ids])

    return Tensor._make(data, (x,), backward)


def segment_mean(x: Tensor, segment_ids: np.ndarray, n_segments: int) -> Tensor:
    """Mean of rows per segment; empty segments yield zero rows."""
    segment_ids = _check_segment_args(x, segment_ids, n_segments)
    counts = np.bincount(segment_ids, minlength=n_segments).astype(x.data.dtype)
    safe = np.maximum(counts, 1.0)
    data = np.zeros((n_segments,) + x.shape[1:], dtype=x.data.dtype)
    np.add.at(data, segment_ids, x.data)
    data /= safe.reshape((-1,) + (1,) * (x.ndim - 1))

    def backward(grad: np.ndarray) -> None:
        scale = (1.0 / safe[segment_ids]).reshape((-1,) + (1,) * (x.ndim - 1))
        x._accumulate(grad[segment_ids] * scale)

    return Tensor._make(data, (x,), backward)


def segment_max(x: Tensor, segment_ids: np.ndarray, n_segments: int) -> Tensor:
    """Per-segment maximum of rows; empty segments yield zero rows.

    Gradient routes to every row attaining its segment's maximum (ties
    each receive the full gradient, matching the summed-subgradient
    convention of ``Tensor.relu``).
    """
    segment_ids = _check_segment_args(x, segment_ids, n_segments)
    data = np.full(
        (n_segments,) + x.shape[1:], -np.inf, dtype=x.data.dtype
    )
    np.maximum.at(data, segment_ids, x.data)
    empty = np.bincount(segment_ids, minlength=n_segments) == 0
    if empty.any():
        data[empty] = 0.0

    def backward(grad: np.ndarray) -> None:
        mask = x.data == data[segment_ids]
        x._accumulate(grad[segment_ids] * mask)

    return Tensor._make(data, (x,), backward)


def _log_softmax_data(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(x: Tensor) -> Tensor:
    """Numerically stable log-softmax over the last axis."""
    data = _log_softmax_data(x.data)
    probs = np.exp(data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - probs * grad.sum(axis=-1, keepdims=True))

    return Tensor._make(data, (x,), backward)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis (via exp of log-softmax for stability)."""
    return log_softmax(x).exp()


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``(batch, classes)`` logits and int labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError(
            f"expected (batch, classes) logits and (batch,) labels, got "
            f"{logits.shape} and {labels.shape}"
        )
    log_probs = _log_softmax_data(logits.data)
    batch = logits.shape[0]
    loss = -log_probs[np.arange(batch), labels].mean()
    probs = np.exp(log_probs)

    def backward(grad: np.ndarray) -> None:
        g = probs.copy()
        g[np.arange(batch), labels] -= 1.0
        logits._accumulate(grad * g / batch)

    return Tensor._make(np.asarray(loss), (logits,), backward)
