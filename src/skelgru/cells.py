"""Recurrent cells (vanilla, LSTM, GRU) in concatenated-weight form.

Each gate weight is one matrix [h, h+d] applied to the concatenation
[h_prev, x], matching the compact formulation. Steps accept a single
state vector [h] with input [d], or a stack of independent rows [R, h]
with [R, d]; the stacked form is what the model uses to run every
(sample, node) pair in one call. ``CellParams``, the three parameter
sets' shared base, checks every gate's shapes. The steps record op by op
and serve as references; only the GRU runs along a sequence, through
``gru_sequence``, which ``unroll`` starts from a zero state.

The update convention for the GRU is h = (1-z) * h_prev + z * h_new,
with z gating the candidate (some libraries swap the two terms).

``gru_sequence`` runs a whole GRU sequence as one tape record with a
hand-written backward through time (Appleyard et al. 2016, arXiv
1604.01946): the input halves of the three gate weights project each
step's input in one matmul, the z and r recurrent halves share one
matmul per step, and backward writes each step's gate pre-activation
gradients over that step's spent activations, so the input, input-weight
and bias gradients of all steps each take one matmul or sum. Both step
loops work in place in buffers made once per call; the record saves only
the gate activations and the output states. It takes the model's
[T, B, N, H] stream as it is; ``gru_cell_step`` is its per-op reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import ShapeError, Tensor, tape_for


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
    if h_prev.shape[:-1] != x.shape[:-1] or h_prev.shape[-1:] != (h,) or x.shape[-1:] != (d,):
        raise ShapeError(
            f"state {list(h_prev.shape)} / input {list(x.shape)} do not match [..., {h}] / [..., {d}]"
        )


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


def gru_sequence(p: GRUCellParams, inputs: Tensor, h0: Tensor) -> Tensor:
    """Run the GRU along axis 0 of ``inputs`` [T, ..., d] from h0 [..., h]
    and return the states [T, ..., h]; each position of the middle axes,
    such as a (sample, node) of the model's stream, is its own track.

    Each step's input is projected inside the loop, taped or not. Records
    one tape op over (inputs, h0, w_z, b_z, w_r, b_r, w_h, b_h) that saves
    only the output states and each step's z, r and candidate activations,
    written over its projection; untaped, every step reuses one gate slot.
    Backward writes each step's gate gradients over its spent z, r and h~,
    reads the previous states from the saved output and multiplies each
    step's r * h_prev, made in one [h, R] buffer, into its d_w_hh term in the
    loop. It sums each weight gradient in step order, so it adds the input
    gradient it returns, the [T, h, h] terms and [h, R] buffers.
    """
    if inputs.ndim < 2 or inputs.shape[0] < 1:
        raise ShapeError(f"gru_sequence expects [T, ..., d] inputs, got {list(inputs.shape)}")
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
    tape = tape_for(ins)
    # Taped, each step's projection is overwritten by its activations
    # [z; r; h~], so this buffer and the output are all the record saves;
    # untaped, every step reuses one slot.
    gates = np.empty((t_len if tape is not None else 1, 3 * h, rows))
    states = np.empty((t_len, rows, h))
    h_cur = h_init.copy()
    mm = np.empty((2 * h, rows))  # recurrent products, then z * h~
    tmp = np.empty((h, rows))
    for t in range(t_len):
        g = np.matmul(w_x, x_fm[t], out=gates[t if tape is not None else 0])
        g += bias
        zr = g[:2 * h]
        zr += np.matmul(w_zr, h_cur, out=mm)
        ops.UNARY["sigmoid"][0](zr, out=zr)
        z, r, cand = g[:h], g[h:2 * h], g[2 * h:]
        cand += np.matmul(w_hh, np.multiply(r, h_cur, out=tmp), out=mm[:h])
        ops.UNARY["tanh"][0](cand, out=cand)
        np.multiply(np.subtract(1.0, z, out=tmp), h_cur, out=tmp)
        np.add(tmp, np.multiply(z, cand, out=mm[:h]), out=h_cur)  # (1-z) h_prev + z h~
        states[t] = h_cur.T

    out = Tensor(states.reshape(inputs.shape[:-1] + (h,)))
    if tape is None:
        return out

    def back(grad):
        grad_fm = grad.reshape(states.shape).transpose(0, 2, 1)
        h_prevs = [h_init, *states[:-1].transpose(0, 2, 1)]  # feature-major views
        d_whh_terms = np.empty((t_len, h, h))  # each step's d_w_hh product, summed in step order
        dh = np.zeros_like(h_init)
        dq, tmp, up, rh = (np.empty_like(h_init) for _ in range(4))
        for t, h_prev in reversed(list(enumerate(h_prevs))):
            # each gate's gradient overwrites its spent activation: the local
            # factor z(1-z), r(1-r) or 1-h~^2 times the step's upstream term
            z, r, cand = gates[t, :h], gates[t, h:2 * h], gates[t, 2 * h:]
            np.multiply(r, h_prev, out=rh)
            dh += grad_fm[t]
            np.multiply(np.subtract(cand, h_prev, out=up), dh, out=up)  # dz's upstream term
            np.subtract(1.0, np.multiply(cand, cand, out=cand), out=cand)
            cand *= np.multiply(dh, z, out=tmp)
            np.matmul(cand, rh.T, out=d_whh_terms[t])
            np.matmul(w_hh.T, cand, out=dq)
            dh *= np.subtract(1.0, z, out=tmp)
            z *= tmp
            z *= up
            dh += np.multiply(dq, r, out=tmp)
            r *= np.subtract(1.0, r, out=up)
            r *= np.multiply(dq, h_prev, out=tmp)
            dh += np.matmul(w_zr.T, gates[t, :2 * h], out=tmp)

        d_gates = gates
        d_x = np.matmul(d_gates.transpose(0, 2, 1), w_x).reshape(inputs.shape)
        d_wx = ops.sum_of_products(zip(d_gates, x))
        d_b = d_gates.sum(axis=(0, 2))
        # the previous states, row-major [R, h], are the saved output itself
        d_wzr = ops.sum_of_products(zip(d_gates[:, :2 * h], [h_init.T, *states[:-1]]))
        d_whh = d_whh_terms.sum(axis=0)
        d_w = [np.concatenate((rec, d_wx[k * h:(k + 1) * h]), axis=1)
               for k, rec in enumerate((d_wzr[:h], d_wzr[h:], d_whh))]
        d_h0 = np.ascontiguousarray(dh.T).reshape(h0.shape)
        return (d_x, d_h0, d_w[0], d_b[:h], d_w[1], d_b[h:2 * h], d_w[2], d_b[2 * h:])

    tape.record("gru_sequence", ins, out, back)
    return out


def unroll(params: GRUCellParams, inputs: Tensor) -> Tensor:
    """Run the GRU over axis 0 of ``inputs`` [T, ..., d] from a zero state
    [..., h], as the one record of :func:`gru_sequence`, which checks the
    shapes."""
    return gru_sequence(params, inputs, Tensor(np.zeros(inputs.shape[1:-1] + (params.hidden_size,))))
