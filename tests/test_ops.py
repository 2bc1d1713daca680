"""Forward values and gradients of the recorded operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from skelgru import ops
from skelgru.gradcheck import finite_diff_check
from skelgru.tensor import MaskError, ShapeError, Tape, Tensor, backward, first_invalid_record

@pytest.fixture
def rng():
    """A generator of the test's own, so that no test's draws move another's inputs."""
    return np.random.default_rng(20240811)


def rand(rng, shape, scale=1.0):
    return Tensor(rng.normal(0.0, scale, shape), requires_grad=True)


# ---------------------------------------------------------------------------
# forward values

def test_matmul_matches_numpy_and_rejects_bad_shapes(rng):
    a, b = rand(rng, (3, 4)), rand(rng, (4, 5))
    assert np.allclose(ops.matmul(a, b).data, a.data @ b.data)
    with pytest.raises(ShapeError):
        ops.matmul(rand(rng, (3, 4)), rand(rng, (3, 5)))
    with pytest.raises(ShapeError):
        ops.matmul(rand(rng, (4,)), rand(rng, (4, 2)))


def test_matmul_stacked_batches(rng):
    a, b = rand(rng, (6, 3, 4)), rand(rng, (4, 2))
    out = ops.matmul(a, b)
    assert out.shape == (6, 3, 2)
    for i in range(6):
        assert np.allclose(out.data[i], a.data[i] @ b.data)


def test_binary_ops_reject_broadcasting(rng):
    with pytest.raises(ShapeError):
        ops.add(rand(rng, (3, 4)), rand(rng, (4,)))
    with pytest.raises(ShapeError):
        ops.mul(rand(rng, (3, 1)), rand(rng, (3, 4)))
    for op in (ops.add, ops.sub, ops.mul):  # operands numpy cannot broadcast either
        with pytest.raises(ShapeError, match=rf"{op.__name__} requires identical shapes, got \[3, 4\] vs \[2, 4\]"):
            op(rand(rng, (3, 4)), rand(rng, (2, 4)))


def test_binary_ops_record_under_their_own_names(rng):
    a, b = rand(rng, (2, 3)), rand(rng, (2, 3))
    with Tape() as tape:
        outs = [ops.add(a, b), ops.sub(a, b), ops.mul(a, b)]
    assert [rec.op for rec in tape.records] == ["add", "sub", "mul"]
    for out, want in zip(outs, (a.data + b.data, a.data - b.data, a.data * b.data)):
        assert np.array_equal(out.data, want)


def test_add_bias_broadcasts_over_leading_axes(rng):
    x, b = rand(rng, (2, 3, 4)), rand(rng, (4,))
    assert np.allclose(ops.add_bias(x, b).data, x.data + b.data)
    with pytest.raises(ShapeError):
        ops.add_bias(x, rand(rng, (3,)))


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 5, 4)])
def test_linear_matches_matmul_then_add_bias_bit_for_bit(shape, rng):
    """One linear record gives the output and every gradient of the matmul
    and add_bias records it replaces, bit for bit, with its input tracked
    or not, and rejects operands that do not chain."""
    w, b = rand(rng, (4, 3)), rand(rng, (3,))
    weights = Tensor(rng.normal(0.0, 1.0, shape[:-1] + (3,)))
    for x in (rand(rng, shape), Tensor(rng.normal(0.0, 1.0, shape))):
        results = []
        for f in (lambda: ops.add_bias(ops.matmul(x, w), b), lambda: ops.linear(x, w, b)):
            with Tape() as tape:
                out = f()
                loss = ops.sum_all(ops.mul(out, weights))
            backward(tape, loss)
            grads = [None if t.grad is None else t.grad.tobytes() for t in (x, w, b)]
            results.append([out.data.tobytes(), *grads])
        assert results[0] == results[1]
    for bad_w, bad_b in (((3, 3), (3,)), ((4, 3), (4,)), ((2, 4, 3), (3,))):
        with pytest.raises(ShapeError):
            ops.linear(rand(rng, shape), rand(rng, bad_w), rand(rng, bad_b))


def test_linear_names_nan_input_record(rng):
    x = rand(rng, (3, 4))
    x.data[2, 1] = np.nan
    with Tape() as tape:
        out = ops.linear(x, rand(rng, (4, 2)), rand(rng, (2,)))
    assert [rec.op for rec in tape.records] == ["linear"]
    assert first_invalid_record(tape) == f"linear#{out.tid}"


def test_activation_values():
    x = Tensor([-2.0, -0.5, 0.0, 0.5, 2.0])
    for tag in ("identity", "sigmoid", "tanh", "relu", "elu", "leaky_relu"):
        got = ops.elementwise(tag, x).data
        want = [oracles.act_s(tag, v) for v in x.data]
        assert np.allclose(got, want), tag


@pytest.mark.parametrize("tag", sorted(oracles.WHERE_ACTIVATIONS))
def test_branchless_activations_match_where_forms_bit_for_bit(tag):
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               1e-300, -1e-300, -745.2, -746.0, 710.0]
    x = np.concatenate([rng.normal(0.0, s, 4096) for s in (1e-3, 1.0, 300.0)] + [special])
    fn, dfn = ops.UNARY[tag]
    want_fn, want_dfn = oracles.WHERE_ACTIVATIONS[tag]
    y = fn(x)
    assert np.array_equal(y.view(np.int64), want_fn(x).view(np.int64))
    d, ref = dfn(y), want_dfn(x)
    assert np.array_equal(d.view(np.int64), oracles.WHERE_OUTPUT_DERIVATIVES[tag](y).view(np.int64))
    if tag == "leaky_relu":
        assert np.array_equal(d.view(np.int64), ref.view(np.int64))
    else:  # expm1(x) + 1 rounds apart from exp(x); relative gaps reach 1 where exp(x) is subnormal
        assert np.array_equal(np.isnan(d), np.isnan(ref))
        assert np.nanmax(np.abs(d - ref)) <= 2.0**-53


def test_elementwise_unknown_tag(rng):
    for tag in ("swish", "add", "sub", "mul"):  # the binary ops are not activations
        with pytest.raises(ValueError, match=f"unknown elementwise tag '{tag}'"):
            ops.elementwise(tag, rand(rng, (2,)))


def test_index_and_slice_axis(rng):
    x = rand(rng, (4, 3, 2))
    assert np.array_equal(ops.reshape(ops.slice_axis(x, 0, 2, 3), (3, 2)).data, x.data[2])
    assert np.allclose(ops.slice_axis(x, 1, 1, 3).data, x.data[:, 1:3])
    with pytest.raises(ShapeError):
        ops.slice_axis(x, 0, 4, 5)
    with pytest.raises(ShapeError):
        ops.slice_axis(x, 2, 1, 5)


def test_softmax_rows_matches_oracle_and_masks():
    x = Tensor([[1.0, 2.0, -np.inf], [0.0, 0.0, 0.0]])
    y = ops.softmax_rows(x)
    assert np.allclose(y.data[0], oracles.softmax_ref([1.0, 2.0, -np.inf]))
    assert y.data[0, 2] == 0.0
    assert np.allclose(y.data[1], [1 / 3] * 3)
    assert np.allclose(y.data.sum(axis=-1), 1.0)


def test_softmax_fully_masked_row_raises():
    with pytest.raises(MaskError):
        ops.softmax_rows(Tensor([[-np.inf, -np.inf]]))


def test_softmax_requires_2d():
    with pytest.raises(ShapeError):
        ops.softmax_rows(Tensor([1.0, 2.0]))


def test_residual_norm_matches_oracle(rng):
    block, x, g, b = rand(rng, (2, 5, 7)), rand(rng, (2, 5, 7), scale=3.0), rand(rng, (7,)), rand(rng, (7,))
    out = ops.residual_norm(block, x, g, b, eps=1e-5).data.reshape(-1, 7)
    for i, row in enumerate((block.data + x.data).reshape(-1, 7)):
        want = oracles.layer_norm_ref(row, g.data, b.data, 1e-5)
        assert np.abs(out[i] - want).max() <= 1e-12


def test_residual_norm_rejects_bad_shapes(rng):
    g, b = rand(rng, (7,)), rand(rng, (7,))
    for args in ((rand(rng, (3, 7)), rand(rng, (4, 7)), g, b),
                 (rand(rng, (3, 7)), rand(rng, (3, 7)), rand(rng, (6,)), b),
                 (rand(rng, (3, 7)), rand(rng, (3, 7)), g, rand(rng, (7, 1)))):
        with pytest.raises(ShapeError, match="residual_norm"):
            ops.residual_norm(*args, eps=1e-5)


def test_residual_norm_names_nan_input_record(rng):
    x = rand(rng, (3, 4))
    x.data[1, 2] = np.nan
    with Tape() as tape:
        out = ops.residual_norm(rand(rng, (3, 4)), x, rand(rng, (4,)), rand(rng, (4,)), eps=1e-5)
    assert first_invalid_record(tape) == f"residual_norm#{out.tid}"


def test_residual_norm_without_tape_records_nothing_and_keeps_bits(rng):
    block, x, g, b = rand(rng, (4, 3, 6)), rand(rng, (4, 3, 6)), rand(rng, (6,)), rand(rng, (6,))
    with Tape() as tape:
        taped = ops.residual_norm(block, x, g, b, eps=1e-5)
    assert [rec.op for rec in tape.records] == ["residual_norm"]
    untaped = ops.residual_norm(block, x, g, b, eps=1e-5)
    assert not untaped.requires_grad
    assert np.array_equal(untaped.data, taped.data)
    frozen = [Tensor(t.data) for t in (block, x, g, b)]
    with Tape() as tape:
        untracked = ops.residual_norm(*frozen, eps=1e-5)
    assert len(tape.records) == 0 and np.array_equal(untracked.data, taped.data)


@pytest.mark.parametrize("shape", [(3, 4), (32, 32, 9, 32), (32, 4, 17, 64)])
@pytest.mark.parametrize("transposed", [False, True])
def test_residual_norm_matches_saving_xhat_oracle_bit_for_bit(rng, shape, transposed):
    """The record that rebuilds x-hat in backward, and turns it into the
    input gradient one block of rows at a time, gives the output and the
    four gradients of the one that saved it (a desk and a deep stage's
    shapes among them). It does so also for an incoming gradient that is a
    view with its first two axes swapped, which the norm copies row-major
    first; ``attention_pool`` hands the last stage a C-contiguous one."""
    h = shape[-1]
    block, x, gain, bias = rand(rng, shape), rand(rng, shape, scale=3.0), rand(rng, (h,)), rand(rng, (h,))
    if transposed:
        g = rng.normal(0.0, 1.0, (shape[1], shape[0]) + shape[2:]).swapaxes(0, 1)
    else:
        g = rng.normal(0.0, 1.0, shape)
    results = []
    for fn in (oracles.residual_norm_saving_xhat_ref, ops.residual_norm):
        with Tape() as tape:
            out = fn(block, x, gain, bias, 1e-5)
        (rec,) = tape.records
        results.append([out.data, *rec.backward_fn(g)])
    for want, got in zip(*results):
        assert want.shape == got.shape and want.tobytes() == got.tobytes()


def test_taped_desk_residual_norm_holds_its_output_and_two_columns(rng):
    """On a desk stage's stream ([T=32, B=32, chain:9, H=32]) the taped
    record holds its output and the row means and 1/sigma, not x-hat (the
    record that saved x-hat held about twice its output)."""
    shape = (32, 32, 9, 32)
    block, x, gain, bias = rand(rng, shape), rand(rng, shape), rand(rng, (32,)), rand(rng, (32,))
    untaped = ops.residual_norm(block, x, gain, bias, 1e-5)
    tape = Tape()

    def forward():
        with tape:
            return ops.residual_norm(block, x, gain, bias, 1e-5)

    taped, held, _ = oracles.traced_streams(forward, 1)
    assert [rec.op for rec in tape.records] == ["residual_norm"]
    columns = 2 * 8 * (taped.size // 32)
    assert held <= 1.05 * (taped.data.nbytes + columns)
    assert np.array_equal(taped.data, untaped.data)


def test_cross_entropy_matches_oracle(rng):
    logits = rand(rng, (6, 4), scale=3.0)
    labels = np.array([0, 1, 2, 3, 1, 2])
    loss = ops.cross_entropy(logits, labels)
    assert np.isclose(loss.item(), oracles.cross_entropy_ref(logits.data, labels))


def test_cross_entropy_rejects_bad_labels(rng):
    with pytest.raises(ValueError, match="label out of range"):
        ops.cross_entropy(rand(rng, (2, 3)), np.array([0, 3]))


def test_dropout_inference_is_identity_object(rng):
    x = rand(rng, (4, 4))
    assert ops.dropout(x, 0.5, training=False) is x
    assert ops.dropout(x, 0.0, training=True) is x


def test_dropout_training_scales_survivors():
    x = Tensor(np.ones((1000,)), requires_grad=True)
    rng = np.random.default_rng(7)
    y = ops.dropout(x, 0.25, training=True, rng=rng)
    vals = set(np.round(y.data, 12))
    assert vals <= {0.0, np.round(1 / 0.75, 12)}
    assert abs((y.data == 0).mean() - 0.25) < 0.06


def test_dropout_validates_rate_and_rng(rng):
    with pytest.raises(ValueError):
        ops.dropout(rand(rng, (2,)), 1.0, training=True)
    with pytest.raises(ValueError):
        ops.dropout(rand(rng, (2,)), 0.5, training=True)


# ---------------------------------------------------------------------------
# gradients, each primitive against central differences

def check_grad(build, param, tol=1e-6):
    err = finite_diff_check(build, param, eps=1e-5)
    assert err <= tol, f"gradient error {err:.3e}"


def _matmul_record_grads(a, b):
    with Tape() as tape:
        out = ops.matmul(a, b)
    return tape.records[0].backward_fn(np.cos(out.data))


def test_grad_matmul(rng):
    a, b = rand(rng, (3, 4)), rand(rng, (4, 2))
    check_grad(lambda: ops.sum_all(ops.elementwise("tanh", ops.matmul(a, b))), a)
    check_grad(lambda: ops.sum_all(ops.elementwise("tanh", ops.matmul(a, b))), b)
    # an operand untracked when the product is recorded gets no gradient,
    # and the tracked one's is the same bits as when both are tracked
    for sa, sb in (((3, 4), (4, 2)), ((5, 3, 4), (4, 2)), ((3, 3), (5, 3, 2))):
        a = Tensor(rng.normal(0.0, 1.0, sa), requires_grad=True)
        b = Tensor(rng.normal(0.0, 1.0, sb), requires_grad=True)
        want = _matmul_record_grads(a, b)
        got_a, none_b = _matmul_record_grads(a, Tensor(b.data))
        none_a, got_b = _matmul_record_grads(Tensor(a.data), b)
        assert none_a is None and none_b is None
        assert np.array_equal(got_a, want[0]) and np.array_equal(got_b, want[1])


def test_grad_matmul_batched(rng):
    a, b = rand(rng, (5, 3, 4)), rand(rng, (4, 2))
    check_grad(lambda: ops.sum_all(ops.elementwise("tanh", ops.matmul(a, b))), b)
    check_grad(lambda: ops.sum_all(ops.elementwise("tanh", ops.matmul(a, b))), a)


def test_grad_unary_activations(rng):
    for tag in ("sigmoid", "tanh", "elu", "identity"):
        x = rand(rng, (3, 3))
        check_grad(lambda tag=tag, x=x: ops.sum_all(ops.elementwise(tag, x)), x)


def test_grad_leaky_relu_away_from_kink(rng):
    x = Tensor(rng.choice([-1.5, -0.7, 0.6, 1.4], size=(4, 4)), requires_grad=True)
    check_grad(lambda: ops.sum_all(ops.elementwise("leaky_relu", x)), x)


def test_grad_binary_and_scale(rng):
    a, b = rand(rng, (3, 2)), rand(rng, (3, 2))
    check_grad(lambda: ops.sum_all(ops.mul(ops.add(a, b), ops.sub(a, b))), a)
    check_grad(lambda: ops.sum_all(ops.mul(a, Tensor(np.full(a.shape, -1.7)))), a)


def test_grad_structural_ops(rng):
    x = rand(rng, (4, 3))
    check_grad(lambda: ops.sum_all(ops.elementwise("tanh", ops.transpose(x))), x)
    check_grad(lambda: ops.sum_all(ops.elementwise("tanh", ops.reshape(x, (2, 6)))), x)
    check_grad(lambda: ops.sum_all(ops.elementwise("tanh", ops.reshape(ops.slice_axis(x, 0, 1, 2), (3,)))), x)
    check_grad(lambda: ops.sum_all(ops.elementwise("tanh", ops.slice_axis(x, 1, 0, 2))), x)


def test_grad_concat_stack(rng):
    a, b = rand(rng, (2, 3)), rand(rng, (2, 3))
    check_grad(lambda: ops.sum_all(ops.elementwise("tanh", ops.concat((a, b), axis=1))), a)
    stacked = lambda: ops.concat([ops.reshape(t, (1, 2, 3)) for t in (a, b)], axis=0)  # noqa: E731
    check_grad(lambda: ops.sum_all(ops.elementwise("tanh", stacked())), b)


def test_grad_add_bias(rng):
    x, b = rand(rng, (3, 4)), rand(rng, (4,))
    check_grad(lambda: ops.sum_all(ops.elementwise("sigmoid", ops.add_bias(x, b))), b)


def test_grad_linear(rng):
    x, w, b = rand(rng, (2, 3, 4)), rand(rng, (4, 2)), rand(rng, (2,))
    for param in (x, w, b):
        check_grad(lambda: ops.sum_all(ops.elementwise("tanh", ops.linear(x, w, b))), param)


def test_grad_softmax_with_mask(rng):
    x = rand(rng, (3, 4))
    mask = Tensor(np.where(rng.random((3, 4)) < 0.3, -np.inf, 0.0))
    mask.data[:, 0] = 0.0  # keep every row alive
    w = rand(rng, (3, 4))

    def f():
        y = ops.softmax_rows(ops.add(x, mask))
        return ops.sum_all(ops.mul(y, w))

    check_grad(f, x)


def test_grad_residual_norm(rng):
    block, x, g, b = rand(rng, (2, 4, 6)), rand(rng, (2, 4, 6)), rand(rng, (6,)), rand(rng, (6,))
    w = rand(rng, (2, 4, 6))

    def f():
        return ops.sum_all(ops.mul(ops.residual_norm(block, x, g, b, eps=1e-5), w))

    for param in (block, x, g, b):
        check_grad(f, param)


def test_grad_cross_entropy(rng):
    logits = rand(rng, (5, 3))
    labels = np.array([0, 2, 1, 1, 0])
    check_grad(lambda: ops.cross_entropy(logits, labels), logits)


def test_grad_dropout_fixed_mask(rng):
    x = rand(rng, (6, 6))

    def f():
        rng = np.random.default_rng(123)  # same mask every call
        return ops.sum_all(ops.dropout(x, 0.4, training=True, rng=rng))

    check_grad(f, x)


# ---------------------------------------------------------------------------
# properties

@given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one(rows, cols, seed):
    rng = np.random.default_rng(seed)
    y = ops.softmax_rows(Tensor(rng.normal(0, 5, (rows, cols)))).data
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    assert (y >= 0).all()


@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_matmul_grad_accumulation_linear(m, n, seed):
    # loss = sum(A @ x) is linear in x, so grad is column sums of A
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(0, 1, (m, n)))
    x = Tensor(rng.normal(0, 1, (n, 1)), requires_grad=True)
    with Tape() as tape:
        loss = ops.sum_all(ops.matmul(a, x))
    backward(tape, loss)
    assert np.allclose(x.grad[:, 0], a.data.sum(axis=0), atol=1e-12)


@given(st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_dropout_preserves_scale_in_expectation(rate, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(np.ones((200, 50)))
    y = ops.dropout(x, rate, training=True, rng=rng)
    assert abs(y.data.mean() - 1.0) < 0.12
