"""Tensor, tape, and backward machinery."""

import numpy as np
import pytest

import oracles
from skelgru import ops
from skelgru.cells import GRUCellParams, gru_sequence
from skelgru.graph import GATLayerParams, chain_topology, gat_forward, gcn_forward
from skelgru.model import temporal_attention_pool
from skelgru.tensor import (
    MaskError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    active_tape,
    backward,
    first_invalid_record,
)


def test_tensor_is_contiguous_float64():
    t = Tensor(np.arange(6, dtype=np.int32).reshape(2, 3)[:, ::-1])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 3)
    assert t.data.ravel().tolist() == [2.0, 1.0, 0.0, 5.0, 4.0, 3.0]


def test_item_requires_scalar():
    assert Tensor(np.float64(3.5)).item() == 3.5
    with pytest.raises(ShapeError):
        Tensor(np.zeros(2)).item()


def test_tape_stack_nesting():
    assert active_tape() is None
    with Tape() as outer:
        assert active_tape() is outer
        with Tape() as inner:
            assert active_tape() is inner
        assert active_tape() is outer
    assert active_tape() is None


# every entry point that records, keyed by its record's op; each call takes
# a maker of inputs and an input x of shape [T=3, N=4, 4]
HAND_OFF = {
    "matmul": lambda p, x: ops.matmul(x, p(4, 2)),
    "linear": lambda p, x: ops.linear(x, p(4, 2), p(2)),
    "residual_norm": lambda p, x: ops.residual_norm(p(3, 4, 4), x, p(4), p(4), 1e-5),
    "gru_sequence": lambda p, x: gru_sequence(GRUCellParams(*(p(*s) for s in [(4, 8), (4,)] * 3)), x, p(4, 4)),
    "gcn_layer": lambda p, x: gcn_forward(p(4, 4), x, chain_topology(4)),
    "gat_layer": lambda p, x: gat_forward(GATLayerParams(2, [p(4, 2), p(4, 2)], [p(4), p(4)]), x,
                                          chain_topology(4)),
    "attention_pool": lambda p, x: temporal_attention_pool(p(16), p(1), p(2, 3, 4, 4), np.ones((3, 2), bool)),
}


@pytest.mark.parametrize("op", sorted(HAND_OFF))
def test_untracked_inputs_record_nothing(op):
    """Each entry point hands off to the tape alike: tracked inputs under a
    tape make exactly one record and a tracked output; untracked inputs
    under a tape, or tracked inputs with no tape, make neither."""
    def call(tracked):
        rng = np.random.default_rng(3)

        def p(*shape):
            return Tensor(rng.normal(0.0, 0.5, shape), requires_grad=tracked)

        return HAND_OFF[op](p, p(3, 4, 4))

    for tracked in (True, False):
        with Tape() as tape:
            out = call(tracked)
        assert [rec.op for rec in tape.records] == ([op] if tracked else [])
        assert out.requires_grad is tracked
    assert call(True).requires_grad is False


def test_backward_rejects_nonscalar_and_untracked_loss():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        y = ops.elementwise("identity", x)
    with pytest.raises(TapeError):
        backward(tape, y)
    with Tape() as tape2:
        z = ops.sum_all(Tensor([[1.0]]))
    with pytest.raises(TapeError):
        backward(tape2, z)


def test_backward_simple_chain():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = ops.sum_all(ops.mul(x, x))
    backward(tape, loss)
    assert np.allclose(x.grad, [2.0, -4.0, 6.0])


def test_backward_accumulates_fanout():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        y = ops.add(x, x)
        loss = ops.sum_all(y)
    backward(tape, loss)
    assert np.allclose(x.grad, [2.0])


def test_repeated_backward_does_not_accumulate_stale_grads():
    x = Tensor([1.0, 2.0], requires_grad=True)
    for _ in range(3):
        with Tape() as tape:
            loss = ops.sum_all(ops.mul(x, x))
        backward(tape, loss)
    assert np.allclose(x.grad, [2.0, 4.0])


def test_unused_leaf_gets_zero_grad():
    x = Tensor([1.0], requires_grad=True)
    unused = Tensor([5.0], requires_grad=True)
    with Tape() as tape:
        probe = ops.elementwise("identity", unused)
        loss = ops.sum_all(ops.mul(x, x))
    backward(tape, loss)
    assert probe.grad is None  # intermediate gradients are released
    assert np.allclose(unused.grad, [0.0])


def test_backward_consumes_the_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ops.mul(x, x)
        loss = ops.sum_all(y)
    backward(tape, loss)
    assert len(tape) == 0
    assert y.grad is None and loss.grad is None
    with pytest.raises(TapeError, match="no records"):
        backward(tape, loss)
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_skips_records_the_loss_never_reached():
    x = Tensor([1.0], requires_grad=True)
    two, three, five = Tensor([2.0]), Tensor([3.0]), Tensor([5.0])
    with Tape() as tape:
        ops.mul(x, three)
        loss = ops.sum_all(ops.mul(ops.mul(x, two), five))
        calls = []
        tape.records[0].backward_fn = lambda g: calls.append(g) or (g,)
    backward(tape, loss)
    assert calls == []
    assert np.array_equal(x.grad, [10.0])


def _leaf_grads_two_ways(leaves, f):
    """Leaf gradients of the scalar f() from the reference zero-fill sweep
    and from backward(), each on a freshly recorded tape."""
    with Tape() as tape:
        loss = f()
    oracles.backward_zero_fill_ref(tape, loss)
    want = [t.grad.copy() for t in leaves]
    with Tape() as tape:
        loss = f()
    backward(tape, loss)
    return want, [t.grad for t in leaves]


def test_backward_bitwise_matches_zero_fill_on_fan_out():
    """Adopted first gradients are shared: add hands one array to both
    operands. Were a later gradient added in place, or a backward to write
    into its incoming gradient, the sibling's gradient would change. Here
    x and u each feed add(t, t), a fused GRU, a fused GAT layer and more;
    every leaf gradient must equal the zero-fill sweep's bit for bit."""
    rng = np.random.default_rng(5)
    t_len, n, h, heads = 5, 4, 4, 2

    def p(*shape):
        return Tensor(rng.normal(0.0, 0.5, shape), requires_grad=True)

    x, h0, unused = p(t_len, n, h), p(n, h), p(3)
    gru = GRUCellParams(w_z=p(h, 2 * h), b_z=p(h), w_r=p(h, 2 * h), b_r=p(h),
                        w_h=p(h, 2 * h), b_h=p(h))
    gat = GATLayerParams(heads, [p(h, h // heads) for _ in range(heads)],
                         [p(2 * h // heads) for _ in range(heads)])
    topo = chain_topology(n)

    def f():
        u = ops.mul(x, Tensor(np.full(x.shape, 0.7)))
        seq, att = gru_sequence(gru, u, h0), gat_forward(gat, u, topo)
        side = ops.mul(seq, att)  # swept after `both`, which seq and att share
        both = ops.add(seq, att)
        terms = [
            side,
            ops.mul(both, ops.add(u, u)),
            ops.elementwise("tanh", both),
            ops.mul(gru_sequence(gru, x, h0), gat_forward(gat, x, topo)),
            ops.mul(ops.add(x, x), u),
        ]
        ops.elementwise("identity", unused)  # recorded, but never reaches the loss
        total = terms[0]
        for term in terms[1:]:
            total = ops.add(total, term)
        return ops.sum_all(total)

    leaves = [x, h0, gru.w_z, gru.b_z, gru.w_r, gru.b_r, gru.w_h, gru.b_h,
              *gat.w, *gat.a, unused]
    want, got = _leaf_grads_two_ways(leaves, f)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)
    assert not unused.grad.any()


@pytest.mark.parametrize(
    "op", ["gru_sequence", "gru_sequence_4d", "gat_layer", "gcn_layer", "residual_norm", "linear",
           "attention_pool"]
)
def test_fused_backward_never_writes_its_incoming_gradient(op):
    """The Record contract for the fused kernels that work in place: handed
    a read-only gradient, each backward must return the same bits as from
    a writable copy, on two records made from the same inputs; and it may
    overwrite only buffers its own closure holds, never its inputs' values
    or its output's. ``gru_sequence_4d`` runs the GRU on a [T, B, N, H]
    stream, as a model stage does."""
    rng = np.random.default_rng(11)
    t_len, n, h, heads = 5, 4, 4, 2

    def p(*shape):
        return Tensor(rng.normal(0.0, 0.5, shape), requires_grad=True)

    x = p(t_len, n, h)
    if op == "gru_sequence_4d":
        x = p(t_len, 3, n, h)
    if op.startswith("gru_sequence"):
        gru, h0 = GRUCellParams(p(h, 2 * h), p(h), p(h, 2 * h), p(h), p(h, 2 * h), p(h)), p(*x.shape[1:])
        build = lambda: gru_sequence(gru, x, h0)  # noqa: E731
    elif op == "gat_layer":
        gat = GATLayerParams(heads, [p(h, h // heads) for _ in range(heads)],
                             [p(2 * h // heads) for _ in range(heads)])
        build = lambda: gat_forward(gat, x, chain_topology(n))  # noqa: E731
    elif op == "gcn_layer":
        w = p(h, h)
        build = lambda: gcn_forward(w, x, chain_topology(n), act="elu")  # noqa: E731
    elif op == "residual_norm":
        block, gain, bias = p(t_len, n, h), p(h), p(h)
        build = lambda: ops.residual_norm(block, x, gain, bias, 1e-5)  # noqa: E731
    elif op == "linear":
        w, b = p(h, 3), p(3)
        build = lambda: ops.linear(x, w, b)  # noqa: E731
    else:
        h_final, attn_w, attn_b = p(t_len, 3, n, h), p(n * h), p(1)
        mask = np.ones((3, t_len), dtype=bool)
        mask[1, -1] = False
        build = lambda: temporal_attention_pool(attn_w, attn_b, h_final, mask)  # noqa: E731
    grad = rng.normal(0.0, 1.0, build().shape)
    frozen = grad.copy()
    frozen.setflags(write=False)
    results = []
    for incoming in (grad, frozen):
        with Tape() as tape:
            build()
        (rec,) = tape.records
        assert rec.op == op.removesuffix("_4d")
        seen = [t.data.copy() for t in (*rec.inputs, rec.output)]
        results.append(rec.backward_fn(incoming))
        assert all(np.array_equal(v, t.data) for v, t in zip(seen, (*rec.inputs, rec.output)))
    for want, got in zip(*results):
        assert (want is None) == (got is None)
        assert want is None or np.array_equal(want, got)
    assert np.array_equal(frozen, grad)


def test_first_invalid_record_names_nan_source():
    x = Tensor([1.0, -1.0], requires_grad=True)
    with Tape() as tape:
        a = ops.add(x, x)
        bad = ops.elementwise("identity", Tensor([np.nan, 0.0], requires_grad=True))
        ops.add(a, bad)
    name = first_invalid_record(tape)
    assert name is not None and name.startswith("identity#")


def test_first_invalid_record_names_neg_inf_source():
    """-inf is no exempt masking sentinel: no record on the model path
    emits it, so one that does is named like NaN or +inf."""
    x = Tensor([[0.0, 1.0]], requires_grad=True)
    with Tape() as tape:
        ops.elementwise("identity", x)
        out = ops.elementwise("identity", Tensor([[0.0, -np.inf]], requires_grad=True))
        ops.add(x, out)
    assert first_invalid_record(tape) == f"identity#{out.tid}"


def test_mask_error_is_value_error():
    assert issubclass(MaskError, ValueError)
    assert issubclass(ShapeError, ValueError)
