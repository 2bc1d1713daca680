"""Recorded tensor operations with their local gradient rules.

Binary pointwise ops require identical shapes; the only broadcast is the
explicit bias over the last axis of `add_bias` and `linear`. Shape bugs are
meant to raise, not to be papered over by numpy broadcasting.
"""

from __future__ import annotations

import numpy as np

from .tensor import MaskError, ShapeError, Tensor, tape_for


def _emit(op: str, inputs, out_values: np.ndarray, backward_fn) -> Tensor:
    out = Tensor(out_values)
    if (tape := tape_for(inputs)) is not None:
        tape.record(op, inputs, out, backward_fn)
    return out


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Collapse broadcast axes of ``g`` back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading axes broadcast as stacked matrices.

    Gradients: dA = dC @ B^T, dB = A^T @ dC (summed over broadcast axes),
    each only for an operand that is tracked when the product is recorded.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {list(a.shape)} @ {list(b.shape)}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {list(a.shape)} @ {list(b.shape)}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:  # incompatible stacked-batch axes
        raise ShapeError(f"matmul batch axes differ: {list(a.shape)} @ {list(b.shape)}") from exc
    ad, bd = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def back(g):
        ga = _sum_to_shape(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape) if need_a else None
        gb = _sum_to_shape(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape) if need_b else None
        return ga, gb

    return _emit("matmul", (a, b), out, back)


def sum_of_products(pairs) -> np.ndarray:
    """Sum a @ b over the (a, b) pairs, one product at a time and in order:
    the bits of a batched matmul's ``.sum(axis=0)`` without its stack of
    products."""
    pairs = iter(pairs)
    total = np.matmul(*next(pairs))
    prod = np.empty_like(total)
    for a, b in pairs:
        total += np.matmul(a, b, out=prod)
    return total


def transpose(x: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    inverse = tuple(np.argsort(axes))

    def back(g):
        return (np.transpose(g, inverse),)

    return _emit("transpose", (x,), np.transpose(x.data, axes), back)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"cannot reshape {list(x.shape)} to {list(shape)}")
    old = x.data.shape

    def back(g):
        return (g.reshape(old),)

    return _emit("reshape", (x,), x.data.reshape(shape), back)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    return _emit("concat", tensors, np.concatenate([t.data for t in tensors], axis=axis), back)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along ``axis``."""
    n = x.shape[axis]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice [{start}:{stop}) out of range for axis {axis} of {list(x.shape)}")
    shape = x.data.shape

    def back(g):
        full = np.zeros(shape)
        np.copyto(np.moveaxis(full, axis, 0)[start:stop], np.moveaxis(g, axis, 0))
        return (full,)

    sl = np.moveaxis(np.moveaxis(x.data, axis, 0)[start:stop], 0, axis)
    return _emit("slice_axis", (x,), np.ascontiguousarray(sl), back)


# ---------------------------------------------------------------------------
# pointwise

def _unary(body):
    """``body(x, out)`` writes into ``out``, which may be x itself; the form
    returned takes ``out=None`` to mean a new float64 array."""
    return lambda x, out=None: body(x, np.empty(np.shape(x)) if out is None else out)


@_unary
def _elu(x, y):
    # branchless: expm1(x) >= x for x <= 0, so max gives where(x > 0, ...)
    neg = np.minimum(x, 0.0, out=np.empty_like(y))
    return np.maximum(x, np.expm1(neg, out=neg), out=y)


# (forward of x, derivative from the output y), each with an ``out=`` form.
# Every derivative reads y alone, so a backward saves the output, never the
# input. For the ReLU, leaky ReLU and ELU, y > 0 exactly where x > 0.
UNARY = {
    "identity": (_unary(lambda x, y: np.positive(x, out=y)),
                 _unary(lambda y, d: np.copyto(d, 1.0) or d)),
    "sigmoid": (_unary(lambda x, y: np.divide(1.0, np.add(np.exp(np.negative(x, out=y), out=y), 1.0, out=y),
                                              out=y)),
                _unary(lambda y, d: np.multiply(y, np.subtract(1.0, y), out=d))),
    "tanh": (_unary(lambda x, y: np.tanh(x, out=y)),
             _unary(lambda y, d: np.subtract(1.0, np.multiply(y, y, out=d), out=d))),
    "relu": (_unary(lambda x, y: np.maximum(x, 0.0, out=y)),
             _unary(lambda y, d: np.greater(y, 0.0, out=d))),
    # the ELU's derivative expm1(x) + 1 is exp(x) up to rounding
    "elu": (_elu, _unary(lambda y, d: np.add(np.minimum(y, 0.0, out=d), 1.0, out=d))),
    # slope 0.2, as in the GAT paper (Velickovic et al. 2018); 0.2 * x >= x for x <= 0
    "leaky_relu": (_unary(lambda x, y: np.maximum(x, np.multiply(x, 0.2), out=y)),
                   _unary(lambda y, d: np.add(np.multiply(np.greater(y, 0.0, out=d), 0.8, out=d), 0.2, out=d))),
}

def elementwise(tag: str, x: Tensor) -> Tensor:
    """The :data:`UNARY` activation ``tag`` of ``x``; layers name their
    activation by one of these tags. The record's backward keeps only its
    output."""
    if tag not in UNARY:
        raise ValueError(f"unknown elementwise tag {tag!r}; known: {sorted(UNARY)}")
    fn, dfn = UNARY[tag]
    y = fn(x.data)
    return _emit(tag, (x,), y, lambda g: (g * dfn(y),))


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} requires identical shapes, got {list(a.shape)} vs {list(b.shape)}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    return _emit("add", (a, b), a.data + b.data, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)
    return _emit("sub", (a, b), a.data - b.data, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    ad, bd = a.data, b.data
    return _emit("mul", (a, b), ad * bd, lambda g: (g * bd, g * ad))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a 1-d bias over all leading axes (the declared broadcast op)."""
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: bias {list(b.shape)} does not match last axis of {list(x.shape)}")
    lead = tuple(range(x.ndim - 1))

    def back(g):
        return g, np.ascontiguousarray(g.sum(axis=lead)) if lead else g.copy()

    return _emit("add_bias", (x, b), x.data + b.data, back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one record that keeps its operands, not its output. It makes
    the calls of :func:`matmul` then :func:`add_bias`, so its output and every
    gradient have the bits of that two-record chain."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: input {list(x.shape)}, weights {list(w.shape)} "
                         f"and bias {list(b.shape)} do not chain")
    xd, wd = x.data, w.data
    need_x, need_w = x.requires_grad, w.requires_grad
    out = np.matmul(xd, wd)
    out += b.data
    lead = tuple(range(out.ndim - 1))

    def back(g):
        gx = _sum_to_shape(np.matmul(g, np.swapaxes(wd, -1, -2)), xd.shape) if need_x else None
        gw = _sum_to_shape(np.matmul(np.swapaxes(xd, -1, -2), g), wd.shape) if need_w else None
        return gx, gw, g.sum(axis=lead)

    return _emit("linear", (x, w, b), out, back)


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape

    def back(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _emit("sum_all", (x,), np.float64(x.data.sum()), back)


# ---------------------------------------------------------------------------
# structured ops

def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max-subtraction.

    -inf entries act as mask sentinels and come out exactly 0; a row of
    nothing but -inf has no valid target and raises MaskError.
    """
    if x.ndim < 2:
        raise ShapeError(f"softmax_rows needs >=2-d input, got {list(x.shape)}")
    m = x.data.max(axis=-1, keepdims=True)
    if np.isneginf(m).any():
        raise MaskError("softmax row is fully masked (all -inf)")
    e = np.exp(x.data - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _emit("softmax_rows", (x,), y, back)


_NORM_BLOCK = 512  # rows per block of the norm's backward; a multiple of 64 keeps the gemv's bits


def residual_norm(block: Tensor, x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """LN(block + x) over the last axis, then gain and bias, as one record that
    saves only the row means and 1/sigma, two [rows, 1] columns (Ba et al.
    2016, arXiv 1607.06450). Its backward rebuilds x-hat from ``block`` and
    ``x``, which the tape holds anyway, with the forward's own calls, and
    turns that buffer into the input gradient one block of rows at a time,
    so it adds one stream; it returns that one gradient for both."""
    h = x.shape[-1]
    if block.shape != x.shape or gain.shape != (h,) or bias.shape != (h,):
        raise ShapeError(f"residual_norm: block {list(block.shape)}, input {list(x.shape)}, "
                         f"gain {list(gain.shape)} and bias {list(bias.shape)} do not agree")
    bd, xd, gd = block.data, x.data, gain.data
    y = bd + xd  # centred and scaled in place into x-hat, then y over it
    rows = y.reshape(-1, h)
    mean_w = np.full(h, 1.0 / h)
    means = (rows @ mean_w)[:, None]
    rows -= means
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", rows, rows) / h + eps)[:, None]
    rows *= inv
    y *= gd
    y += bias.data

    def back(g):
        g = g.reshape(-1, h)  # a row-major copy when g is a transposed view
        rows = (bd + xd).reshape(-1, h)  # x-hat, rebuilt with the forward's calls
        rows -= means
        rows *= inv
        d_gain = np.einsum("ij,ij->j", g, rows)
        dx = np.empty_like(g[:_NORM_BLOCK])  # one block of the gradient of x-hat, g * gain
        for lo in range(0, len(rows), _NORM_BLOCK):  # x-hat becomes the input gradient
            sl = slice(lo, lo + _NORM_BLOCK)
            r, d = rows[sl], np.multiply(g[sl], gd, out=dx[:len(rows) - lo])
            r *= (np.einsum("ij,ij->i", d, r) / h)[:, None]
            r += (d @ mean_w)[:, None]
            np.multiply(np.subtract(d, r, out=r), inv[sl], out=r)
        return rows.reshape(xd.shape), rows.reshape(xd.shape), d_gain, g.sum(axis=0)

    return _emit("residual_norm", (block, x, gain, bias), y, back)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate); inference is identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs a seeded generator")
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def back(g):
        return (g * keep,)

    return _emit("dropout", (x,), x.data * keep, back)


def sample_nll(logits: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample negative log softmax probability of the true class, via
    max-stabilized log-sum-exp; returned with each row's log-sum-exp."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects [batch, classes] logits, got {list(logits.shape)}")
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {list(labels.shape)} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c}): {labels.min()}..{labels.max()}")
    m = logits.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=-1))
    return lse - logits[np.arange(n), labels], lse


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of :func:`sample_nll` over the batch."""
    nll, lse = sample_nll(logits.data, labels)
    n = len(nll)
    probs = np.exp(logits.data - lse[:, None])

    def back(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return (d * (float(g) / n),)

    return _emit("cross_entropy", (logits,), np.float64(nll.mean()), back)
