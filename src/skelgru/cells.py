"""Recurrent cells (vanilla, LSTM, GRU) in concatenated-weight form.

Each gate weight is one matrix [h, h+d] applied to the concatenation
[h_prev, x], matching the compact formulation. Steps accept a single
state vector [h] with input [d], or a stack of independent rows [R, h]
with [R, d]; the stacked form is what the model uses to run every
(sample, node) pair in one call. ``CellParams``, the three parameter
sets' shared base, checks every gate's shapes.

The update convention for the GRU is h = (1-z) * h_prev + z * h_new,
with z gating the candidate (some libraries swap the two terms).

``gru_sequence`` runs a whole GRU sequence as one tape record with a
hand-written backward through time (Appleyard et al. 2016, arXiv
1604.01946): the input halves of the three gate weights project each
step's input in one matmul, the z and r recurrent halves share one
matmul per step, and backward collects the gate pre-activation
gradients of all steps so the input, input-weight and bias gradients
each take one matmul or sum. Both step loops work in place in buffers
made once per call; the record saves only the gate activations and the
output states. ``gru_cell_step`` stays as the per-op reference it is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import ShapeError, Tensor, active_tape


class CellParams:
    """Base of the three cells' parameters. Subclasses list their gates as
    (weight, bias) pairs; every weight is [h, h+d] with d >= 1 and every
    bias [h], and the first weight sets h and d."""

    def __post_init__(self):
        h, d = self.hidden_size, self.input_size
        for w, b in self.gates:
            if d < 1 or w.shape != (h, h + d) or b.shape != (h,):
                raise ShapeError(f"gate {list(w.shape)} / {list(b.shape)} inconsistent with h={h}, d={d}")

    @property
    def hidden_size(self) -> int:
        return self.gates[0][0].shape[0]

    @property
    def input_size(self) -> int:
        return self.gates[0][0].shape[1] - self.hidden_size


@dataclass
class RNNCellParams(CellParams):
    """Vanilla cell: state update W_h/b_h plus output projection W_y/b_y."""

    w_h: Tensor
    b_h: Tensor
    w_y: Tensor
    b_y: Tensor
    phi: str = "tanh"
    psi: str = "identity"

    @property
    def gates(self):
        return ((self.w_h, self.b_h),)

    def __post_init__(self):
        super().__post_init__()
        o = self.w_y.shape[0]
        if self.w_y.shape != (o, self.hidden_size) or self.b_y.shape != (o,):
            raise ShapeError(f"W_y {list(self.w_y.shape)} / b_y {list(self.b_y.shape)} inconsistent")


@dataclass
class LSTMCellParams(CellParams):
    """Forget/input/candidate/output gates, all [h, h+d] with [h] biases."""

    w_f: Tensor
    b_f: Tensor
    w_i: Tensor
    b_i: Tensor
    w_c: Tensor
    b_c: Tensor
    w_o: Tensor
    b_o: Tensor

    @property
    def gates(self):
        return ((self.w_f, self.b_f), (self.w_i, self.b_i), (self.w_c, self.b_c), (self.w_o, self.b_o))


@dataclass
class GRUCellParams(CellParams):
    """Update gate z, reset gate r, candidate h; all [h, h+d] with [h] biases."""

    w_z: Tensor
    b_z: Tensor
    w_r: Tensor
    b_r: Tensor
    w_h: Tensor
    b_h: Tensor

    @property
    def gates(self):
        return ((self.w_z, self.b_z), (self.w_r, self.b_r), (self.w_h, self.b_h))


@dataclass
class HiddenState:
    """Recurrent state: h always, c only for LSTM cells."""

    h: Tensor
    c: Tensor | None = None


def _as_rows(t: Tensor) -> tuple[Tensor, bool]:
    """Lift a vector to a 1-row matrix; remember whether to squeeze back."""
    if t.ndim == 1:
        return ops.reshape(t, (1, t.shape[0])), True
    if t.ndim == 2:
        return t, False
    raise ShapeError(f"expected vector or row stack, got {list(t.shape)}")


def _from_rows(squeeze: bool, *rows: Tensor):
    """Undo _as_rows: drop each output's 1-row axis if the input was a vector."""
    rows = tuple(ops.reshape(t, (t.shape[-1],)) for t in rows) if squeeze else rows
    return rows if len(rows) > 1 else rows[0]


def _gate(w: Tensor, b: Tensor, h_rows: Tensor, x_rows: Tensor, act: str) -> Tensor:
    """act(W [h, x] + b) for row-stacked states, via [R, h+d] @ W^T."""
    hx = ops.concat((h_rows, x_rows), axis=-1)
    return ops.elementwise(act, ops.add_bias(ops.matmul(hx, ops.transpose(w)), b))


def _check_step_shapes(h: int, d: int, h_prev: Tensor, x: Tensor) -> None:
    if h_prev.ndim != x.ndim:
        raise ShapeError(f"state {list(h_prev.shape)} and input {list(x.shape)} rank mismatch")
    if h_prev.shape[-1] != h or x.shape[-1] != d:
        raise ShapeError(
            f"state {list(h_prev.shape)} / input {list(x.shape)} do not match h={h}, d={d}"
        )
    if h_prev.ndim == 2 and h_prev.shape[0] != x.shape[0]:
        raise ShapeError(f"row counts differ: {h_prev.shape[0]} vs {x.shape[0]}")


def rnn_cell_step(p: RNNCellParams, h_prev: Tensor, x: Tensor) -> tuple[Tensor, Tensor]:
    """h = phi(W_h [h_prev, x] + b_h); y = psi(W_y h + b_y)."""
    _check_step_shapes(p.hidden_size, p.input_size, h_prev, x)
    h_rows, squeeze = _as_rows(h_prev)
    x_rows, _ = _as_rows(x)
    h_new = _gate(p.w_h, p.b_h, h_rows, x_rows, p.phi)
    y = ops.elementwise(p.psi, ops.add_bias(ops.matmul(h_new, ops.transpose(p.w_y)), p.b_y))
    return _from_rows(squeeze, h_new, y)


def dense_forward(p: RNNCellParams, x: Tensor) -> tuple[Tensor, Tensor]:
    """The memoryless counterpart: the recurrent block of W_h is ignored,
    so h = phi(W_hx x + b_h) and y = psi(W_y h + b_y)."""
    h = p.hidden_size
    w_hx = ops.slice_axis(p.w_h, 1, h, h + p.input_size)
    x_rows, squeeze = _as_rows(x)
    h_new = ops.elementwise(p.phi, ops.add_bias(ops.matmul(x_rows, ops.transpose(w_hx)), p.b_h))
    y = ops.elementwise(p.psi, ops.add_bias(ops.matmul(h_new, ops.transpose(p.w_y)), p.b_y))
    return _from_rows(squeeze, h_new, y)


def lstm_cell_step(p: LSTMCellParams, h_prev: Tensor, c_prev: Tensor, x: Tensor) -> tuple[Tensor, Tensor]:
    """Gated memory update: forget/input gates mix c_prev with the tanh
    candidate, and the output gate scales tanh(c_new)."""
    _check_step_shapes(p.hidden_size, p.input_size, h_prev, x)
    if c_prev.shape != h_prev.shape:
        raise ShapeError(f"cell state {list(c_prev.shape)} != hidden {list(h_prev.shape)}")
    h_rows, squeeze = _as_rows(h_prev)
    c_rows, _ = _as_rows(c_prev)
    x_rows, _ = _as_rows(x)
    f = _gate(p.w_f, p.b_f, h_rows, x_rows, "sigmoid")
    i = _gate(p.w_i, p.b_i, h_rows, x_rows, "sigmoid")
    c_tilde = _gate(p.w_c, p.b_c, h_rows, x_rows, "tanh")
    c_new = ops.add(ops.mul(f, c_rows), ops.mul(i, c_tilde))
    o = _gate(p.w_o, p.b_o, h_rows, x_rows, "sigmoid")
    h_new = ops.mul(o, ops.elementwise("tanh", c_new))
    return _from_rows(squeeze, h_new, c_new)


def gru_cell_step(p: GRUCellParams, h_prev: Tensor, x: Tensor) -> Tensor:
    """z and r gates, reset-scaled candidate, then the convex update
    h = (1-z) * h_prev + z * h_new."""
    _check_step_shapes(p.hidden_size, p.input_size, h_prev, x)
    h_rows, squeeze = _as_rows(h_prev)
    x_rows, _ = _as_rows(x)
    z = _gate(p.w_z, p.b_z, h_rows, x_rows, "sigmoid")
    r = _gate(p.w_r, p.b_r, h_rows, x_rows, "sigmoid")
    h_tilde = _gate(p.w_h, p.b_h, ops.mul(r, h_rows), x_rows, "tanh")
    one_minus_z = ops.sub(Tensor(np.ones(z.shape)), z)
    h_new = ops.add(ops.mul(one_minus_z, h_rows), ops.mul(z, h_tilde))
    return _from_rows(squeeze, h_new)


def _sum_of_products(pairs) -> np.ndarray:
    """Sum a @ b over the (a, b) pairs, one product at a time and in order:
    the bits of a batched matmul's ``.sum(axis=0)`` without its stack of
    products."""
    pairs = iter(pairs)
    total = np.matmul(*next(pairs))
    prod = np.empty_like(total)
    for a, b in pairs:
        total += np.matmul(a, b, out=prod)
    return total


def gru_sequence(p: GRUCellParams, inputs: Tensor, h0: Tensor) -> Tensor:
    """Run the GRU along axis 0 of ``inputs`` ([T, d] with h0 [h], or
    [T, R, d] with h0 [R, h]) and return the stacked states [T, (R,) h].

    Each step's input is projected inside the loop, taped or not. Records
    one tape op over (inputs, h0, w_z, b_z, w_r, b_r, w_h, b_h) that saves
    only the output states and each step's z, r and candidate activations,
    written over its projection; untaped, every step reuses one gate slot.
    Backward writes the local factors z(1-z), r(1-r) and 1-h~^2 of all
    steps before its reverse loop, reads the previous states for the
    weight gradients from the saved output, and sums each weight gradient
    one step's product at a time.
    """
    if inputs.ndim not in (2, 3) or inputs.shape[0] < 1:
        raise ShapeError(f"gru_sequence expects [T, d] or [T, rows, d] inputs, got {list(inputs.shape)}")
    h, d = p.hidden_size, p.input_size
    _check_step_shapes(h, d, h0, inputs.data[0])
    t_len = inputs.shape[0]
    x = inputs.data.reshape(t_len, -1, d)
    rows = x.shape[1]
    # Work feature-major ([features, R] per step), so that the z, r and
    # candidate parts of a step's [3h, R] gate block are contiguous rows.
    x_fm = x.transpose(0, 2, 1)
    h_init = np.ascontiguousarray(h0.data.reshape(rows, h).T)
    w_x = np.concatenate([w.data[:, h:] for w in (p.w_z, p.w_r, p.w_h)])  # [3h, d]
    w_zr = np.concatenate([p.w_z.data[:, :h], p.w_r.data[:, :h]])  # [2h, h]
    w_hh = np.ascontiguousarray(p.w_h.data[:, :h])
    # a full [3h, R] bias block adds about three times faster than a column
    bias = np.concatenate([p.b_z.data, p.b_r.data, p.b_h.data])[:, None].repeat(rows, axis=1)

    ins = (inputs, h0, p.w_z, p.b_z, p.w_r, p.b_r, p.w_h, p.b_h)
    tape = active_tape()
    taped = tape is not None and any(t.requires_grad for t in ins)
    # Taped, each step's projection is overwritten by its activations
    # [z; r; h~], so this buffer and the output are all the record saves;
    # untaped, every step reuses one slot.
    gates = np.empty((t_len if taped else 1, 3 * h, rows))
    states = np.empty((t_len, rows, h))
    h_cur = h_init.copy()
    mm = np.empty((2 * h, rows))  # recurrent products, then z * h~
    tmp = np.empty((h, rows))
    for t in range(t_len):
        g = np.matmul(w_x, x_fm[t], out=gates[t if taped else 0])
        g += bias
        zr = g[:2 * h]
        zr += np.matmul(w_zr, h_cur, out=mm)
        np.exp(np.negative(zr, out=zr), out=zr)
        zr += 1.0
        np.divide(1.0, zr, out=zr)
        z, r, cand = g[:h], g[h:2 * h], g[2 * h:]
        cand += np.matmul(w_hh, np.multiply(r, h_cur, out=tmp), out=mm[:h])
        np.tanh(cand, out=cand)
        np.multiply(np.subtract(1.0, z, out=tmp), h_cur, out=tmp)
        np.add(tmp, np.multiply(z, cand, out=mm[:h]), out=h_cur)  # (1-z) h_prev + z h~
        states[t] = h_cur.T

    out = Tensor(states.reshape(inputs.shape[:-1] + (h,)))
    if not taped:
        return out

    def back(grad):
        grad_fm = grad.reshape(states.shape).transpose(0, 2, 1)
        h_prevs = states[:-1].transpose(0, 2, 1)  # feature-major views
        # local factors z(1-z), r(1-r) and 1-h~^2 of every step; the
        # reverse loop multiplies each step's upstream terms into them
        d_gates = np.empty_like(gates)
        zr, cand = gates[:, :2 * h], gates[:, 2 * h:]
        np.multiply(zr, np.subtract(1.0, zr, out=d_gates[:, :2 * h]), out=d_gates[:, :2 * h])
        np.subtract(1.0, np.multiply(cand, cand, out=d_gates[:, 2 * h:]), out=d_gates[:, 2 * h:])
        dh = np.zeros_like(h_init)
        dq = np.empty_like(h_init)
        tmp = np.empty_like(h_init)
        for t in reversed(range(t_len)):
            h_prev = h_prevs[t - 1] if t else h_init
            z, r, cand = gates[t, :h], gates[t, h:2 * h], gates[t, 2 * h:]
            dz, dr, dc = d_gates[t, :h], d_gates[t, h:2 * h], d_gates[t, 2 * h:]
            dh += grad_fm[t]
            dc *= np.multiply(dh, z, out=tmp)
            np.matmul(w_hh.T, dc, out=dq)
            dz *= np.multiply(np.subtract(cand, h_prev, out=tmp), dh, out=tmp)
            dr *= np.multiply(dq, h_prev, out=tmp)
            dh *= np.subtract(1.0, z, out=tmp)
            dh += np.multiply(dq, r, out=tmp)
            dh += np.matmul(w_zr.T, d_gates[t, :2 * h], out=tmp)

        d_x = np.matmul(d_gates.transpose(0, 2, 1), w_x).reshape(inputs.shape)
        d_wx = _sum_of_products(zip(d_gates, x))
        d_b = d_gates.sum(axis=(0, 2))
        # the previous states, row-major [R, h], are the saved output itself
        d_wzr = _sum_of_products(zip(d_gates[:, :2 * h], [h_init.T, *states[:-1]]))
        # r * h_prev, made one step at a time
        d_whh = _sum_of_products((d_gates[t, 2 * h:], np.multiply(gates[t, h:2 * h], h_prev, out=tmp).T)
                                 for t, h_prev in enumerate([h_init, *h_prevs]))
        d_w = [np.concatenate((rec, d_wx[k * h:(k + 1) * h]), axis=1)
               for k, rec in enumerate((d_wzr[:h], d_wzr[h:], d_whh))]
        d_h0 = np.ascontiguousarray(dh.T).reshape(h0.shape)
        return (d_x, d_h0, d_w[0], d_b[:h], d_w[1], d_b[h:2 * h], d_w[2], d_b[2 * h:])

    out.requires_grad = True
    tape.record("gru_sequence", ins, out, back)
    return out


def zero_state(kind: str, hidden_size: int, rows: int | None = None) -> HiddenState:
    """All-zero initial state; shaped [h] or [rows, h]."""
    shape = (hidden_size,) if rows is None else (rows, hidden_size)
    h = Tensor(np.zeros(shape))
    if kind == "lstm":
        return HiddenState(h, Tensor(np.zeros(shape)))
    return HiddenState(h)


def unroll(kind: str, params, inputs: Tensor, h0: HiddenState | None = None) -> Tensor:
    """Run a cell along axis 0 of ``inputs`` ([T, d] or [T, R, d]) and stack
    the hidden states ([T, h] or [T, R, h]). One tape spanning the call makes
    backward() differentiate through every step; the GRU runs as the single
    fused record of :func:`gru_sequence`.
    """
    if inputs.ndim not in (2, 3):
        raise ShapeError(f"unroll expects [T, d] or [T, rows, d] inputs, got {list(inputs.shape)}")
    t_len = inputs.shape[0]
    if t_len < 1:
        raise ShapeError("unroll needs at least one time step")
    if kind not in ("rnn", "lstm", "gru"):
        raise ValueError(f"unknown cell kind {kind!r}; known: ['gru', 'lstm', 'rnn']")
    rows = inputs.shape[1] if inputs.ndim == 3 else None
    if h0 is None:
        h0 = zero_state(kind, params.hidden_size, rows)
    if (h0.c is not None) != (kind == "lstm"):
        raise ShapeError("cell state c must be present exactly when kind is 'lstm'")
    if kind == "gru":
        return gru_sequence(params, inputs, h0.h)
    h, c = h0.h, h0.c
    states = []
    for t in range(t_len):
        x_t = ops.index_axis(inputs, 0, t)
        if kind == "rnn":
            h, _ = rnn_cell_step(params, h, x_t)
        else:
            h, c = lstm_cell_step(params, h, c, x_t)
        states.append(h)
    return ops.stack(states, axis=0)
