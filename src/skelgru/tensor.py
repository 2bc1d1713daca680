"""Dense float64 tensors and the tape that makes them differentiable.

Every operation in :mod:`skelgru.ops` computes its result eagerly with
numpy and, when a tape is active and an input is tracked, appends one
record holding the local gradient rule: :func:`tape_for` finds that
tape and :meth:`Tape.record` marks the output tracked. Replaying the
tape in reverse is reverse-mode differentiation. The cell steps record
op by op, and nothing runs them along a sequence. Six layers record one
op each with a hand-written backward: a whole GRU sequence over the
model's [T, B, N, H] stream (:func:`skelgru.cells.gru_sequence`), a
whole multi-head GAT layer (:func:`skelgru.graph.gat_forward`), a GCN layer
(:func:`skelgru.graph.gcn_forward`), a residual add with its layer
norm (:func:`skelgru.ops.residual_norm`), a matmul with its bias
(:func:`skelgru.ops.linear`) and temporal attention pooling of that
stream (:func:`skelgru.model.temporal_attention_pool`).

:func:`backward` consumes the tape as it sweeps it: each record is freed,
with its closure and its output's gradient, once it has run, so a step's
memory shrinks through backward instead of doubling, and only the leaves
keep a gradient afterwards.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the requested operation."""


class MaskError(ValueError):
    """A softmax row contained no unmasked (finite) entry."""


class TapeError(RuntimeError):
    """Backward pass invoked on an ill-formed tape or loss."""


_tensor_ids = itertools.count(1)


class Tensor:
    """A dense n-dimensional array of 64-bit floats, row-major.

    ``data`` is always a C-contiguous float64 ndarray. Outputs of recorded
    ops are treated as immutable; parameters (leaves) may be rewritten in
    place between training steps, which is how
    :func:`skelgru.training.adamw_step` updates them.

    ``grad`` starts as None. :func:`backward` clears it on every tracked
    input of the tape, then sets it on tracked leaves only (same shape as
    ``data``, possibly a read-only or shared view, so never write into
    it) and leaves it None on intermediate outputs. A training step's
    ``adamw_step`` applies each leaf's gradient and sets ``grad`` back to
    None, so a parameter holds a gradient only between its backward and
    its optimizer step.
    """

    __slots__ = ("data", "requires_grad", "grad", "tid")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if not (arr.flags["C_CONTIGUOUS"] and arr.flags["WRITEABLE"]):
            arr = arr.copy()  # keeps 0-d scalars 0-d, unlike ascontiguousarray
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.tid = next(_tensor_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(())[()] if self.data.ndim else self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flag}, id={self.tid})"


class Record:
    """One executed operation: output = op(inputs).

    ``backward_fn`` maps the output gradient to one gradient per input
    (None for inputs that need none); saved intermediates live in its
    closure. :func:`backward` calls it at most once and adopts the arrays
    it returns without a copy, so they may be views of the incoming
    gradient or of each other. It must therefore never write into its
    incoming gradient, nor into an array it has returned, nor into its
    inputs or its output, which others hold. Since it runs at most once,
    it may overwrite the arrays that only its own closure holds, such as
    spent activations, and use them as its workspace.
    """

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn

    def __repr__(self):
        ins = ",".join(str(t.tid) for t in self.inputs)
        return f"<{self.op} ({ins})->{self.output.tid}>"


_tape_stack = threading.local()


def _stack() -> list:
    if not hasattr(_tape_stack, "tapes"):
        _tape_stack.tapes = []
    return _tape_stack.tapes


def active_tape():
    stack = _stack()
    return stack[-1] if stack else None


def tape_for(inputs) -> Tape | None:
    """The tape an op over ``inputs`` records on: the active one, or None
    when there is none or no input is tracked. A tape with no records is
    falsy, so test the result with ``is not None``."""
    tape = active_tape()
    return tape if tape is not None and any(t.requires_grad for t in inputs) else None


class Tape:
    """Ordered log of recorded operations, single-owner.

    Records are appended in execution order, so every record's inputs were
    produced earlier or are leaves; a reverse sweep visits each record
    exactly once. Use as a context manager::

        with Tape() as tape:
            loss = ...
        backward(tape, loss)
    """

    __slots__ = ("records", "_output_ids")

    def __init__(self):
        self.records: list[Record] = []
        self._output_ids: set[int] = set()

    def record(self, op: str, inputs, output: Tensor, backward_fn):
        """Append ``output = op(inputs)`` and mark the output tracked."""
        assert output.tid not in self._output_ids, "tensor produced twice on one tape"
        output.requires_grad = True
        self._output_ids.add(output.tid)
        self.records.append(Record(op, tuple(inputs), output, backward_fn))

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _stack().pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.records)


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate ``grad`` on every tracked leaf reachable from ``loss``,
    consuming the tape.

    The loss must be a scalar produced on (or fed by) this tape. Records
    are popped in reverse and so freed, closure included, once they have
    run; a record whose output gradient never arrived is skipped. Each
    output's gradient is dropped once its record has used it, so the tape
    is empty afterwards and intermediate tensors end with ``grad`` None.
    The first gradient a tensor receives is adopted without a copy; later
    ones are added out of place, in sweep order. Tracked leaves (inputs no
    record on the tape produced) that never influence the loss end up
    with an all-zero gradient.
    """
    if loss.size != 1:
        raise TapeError(f"loss must be scalar, got shape {list(loss.shape)}")
    if not loss.requires_grad:
        raise TapeError("loss does not depend on any tracked tensor")
    records = tape.records
    if not records:
        raise TapeError("tape holds no records (was it already consumed by backward?)")

    leaves = {}
    for rec in records:
        for t in rec.inputs:
            if t.requires_grad:
                t.grad = None
                if t.tid not in tape._output_ids:
                    leaves[t.tid] = t
    loss.grad = np.ones_like(loss.data)

    while records:
        rec = records.pop()
        out = rec.output
        if out.grad is not None:
            grads = rec.backward_fn(out.grad)
            out.grad = None
            for t, g in zip(rec.inputs, grads):
                if g is None or not t.requires_grad:
                    continue
                if g.shape != t.data.shape:
                    raise TapeError(
                        f"gradient shape {list(g.shape)} != tensor shape "
                        f"{list(t.data.shape)} in op '{rec.op}'"
                    )
                t.grad = g if t.grad is None else t.grad + g
    for t in leaves.values():
        if t.grad is None:
            t.grad = np.zeros_like(t.data)


def first_invalid_record(tape: Tape) -> str | None:
    """Name the first record whose output holds NaN or an infinity, if any.
    -inf counts too: the model's masking sentinels stay inside its fused
    records, so no record on its tape emits one."""
    for rec in tape.records:
        if not np.isfinite(rec.output.data).all():
            return f"{rec.op}#{rec.output.tid}"
    return None
