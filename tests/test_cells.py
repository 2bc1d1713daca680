"""Recurrent cell steps and sequence unrolling."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from skelgru import ops
from skelgru.cells import (
    GRUCellParams,
    LSTMCellParams,
    RNNCellParams,
    dense_forward,
    gru_cell_step,
    gru_sequence,
    lstm_cell_step,
    rnn_cell_step,
    unroll,
)
from skelgru.gradcheck import finite_diff_check
from skelgru.tensor import ShapeError, Tape, Tensor, backward, first_invalid_record

@pytest.fixture
def rng():
    """A generator of the test's own, so that no test's draws move another's inputs."""
    return np.random.default_rng(20240813)


def rand(rng, shape, grad=False, scale=0.6):
    return Tensor(rng.normal(0.0, scale, shape), requires_grad=grad)


def zero_rnn(h, d, o=None, phi="tanh", psi="identity"):
    o = o or h
    return RNNCellParams(
        w_h=Tensor(np.zeros((h, h + d))), b_h=Tensor(np.zeros(h)),
        w_y=Tensor(np.zeros((o, h))), b_y=Tensor(np.zeros(o)),
        phi=phi, psi=psi,
    )


def rand_rnn(rng, h, d, o=None, grad=False):
    o = o or h
    return RNNCellParams(
        w_h=rand(rng, (h, h + d), grad), b_h=rand(rng, (h,), grad),
        w_y=rand(rng, (o, h), grad), b_y=rand(rng, (o,), grad),
    )


def zero_lstm(h, d):
    z = lambda s: Tensor(np.zeros(s))  # noqa: E731
    return LSTMCellParams(
        w_f=z((h, h + d)), b_f=z(h), w_i=z((h, h + d)), b_i=z(h),
        w_c=z((h, h + d)), b_c=z(h), w_o=z((h, h + d)), b_o=z(h),
    )


def rand_lstm(rng, h, d, grad=False):
    return LSTMCellParams(
        w_f=rand(rng, (h, h + d), grad), b_f=rand(rng, (h,), grad),
        w_i=rand(rng, (h, h + d), grad), b_i=rand(rng, (h,), grad),
        w_c=rand(rng, (h, h + d), grad), b_c=rand(rng, (h,), grad),
        w_o=rand(rng, (h, h + d), grad), b_o=rand(rng, (h,), grad),
    )


def zero_gru(h, d):
    z = lambda s: Tensor(np.zeros(s))  # noqa: E731
    return GRUCellParams(w_z=z((h, h + d)), b_z=z(h), w_r=z((h, h + d)), b_r=z(h),
                         w_h=z((h, h + d)), b_h=z(h))


def rand_gru(rng, h, d, grad=False, scale=0.6):
    return GRUCellParams(
        w_z=rand(rng, (h, h + d), grad, scale), b_z=rand(rng, (h,), grad, scale),
        w_r=rand(rng, (h, h + d), grad, scale), b_r=rand(rng, (h,), grad, scale),
        w_h=rand(rng, (h, h + d), grad, scale), b_h=rand(rng, (h,), grad, scale),
    )


# ---------------------------------------------------------------------------
# closed forms at zero parameters

def test_rnn_zero_params_tanh_gives_zero_state(rng):
    p = zero_rnn(3, 2)
    h, y = rnn_cell_step(p, rand(rng, (3,)), rand(rng, (2,)))
    assert np.array_equal(h.data, np.zeros(3))
    assert np.array_equal(y.data, np.zeros(3))


def test_rnn_bias_only_identity(rng):
    p = zero_rnn(3, 2, phi="identity")
    p.b_h.data[:] = [1.0, -2.0, 0.5]
    h, _ = rnn_cell_step(p, rand(rng, (3,)), rand(rng, (2,)))
    assert np.allclose(h.data, [1.0, -2.0, 0.5])


def test_lstm_zero_params_closed_form(rng):
    c_prev = np.array([1.0, -2.0, 4.0])
    h, c = lstm_cell_step(zero_lstm(3, 2), Tensor(np.zeros(3)), Tensor(c_prev), rand(rng, (2,)))
    assert np.allclose(c.data, 0.5 * c_prev, atol=1e-15)
    assert np.allclose(h.data, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)


def test_lstm_all_zero_stays_zero(rng):
    h, c = lstm_cell_step(zero_lstm(2, 2), Tensor(np.zeros(2)), Tensor(np.zeros(2)), rand(rng, (2,)))
    assert np.array_equal(h.data, np.zeros(2))
    assert np.array_equal(c.data, np.zeros(2))


def test_gru_zero_params_halves_state(rng):
    h_prev = np.array([2.0, -4.0])
    h = gru_cell_step(zero_gru(2, 3), Tensor(h_prev), rand(rng, (3,)))
    assert np.allclose(h.data, 0.5 * h_prev, atol=1e-15)


def test_gru_zero_state_stays_zero(rng):
    h = gru_cell_step(zero_gru(2, 3), Tensor(np.zeros(2)), rand(rng, (3,)))
    assert np.array_equal(h.data, np.zeros(2))


# ---------------------------------------------------------------------------
# oracle agreement

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_rnn_step_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    h_size, d, o = 4, 3, 2
    p = RNNCellParams(
        w_h=Tensor(rng.normal(0, 1, (h_size, h_size + d))), b_h=Tensor(rng.normal(0, 1, h_size)),
        w_y=Tensor(rng.normal(0, 1, (o, h_size))), b_y=Tensor(rng.normal(0, 1, o)),
        phi="tanh", psi="sigmoid",
    )
    h_prev, x = rng.normal(0, 1, h_size), rng.normal(0, 1, d)
    h, y = rnn_cell_step(p, Tensor(h_prev), Tensor(x))
    want_h, want_y = oracles.rnn_step_ref(
        p.w_h.data, p.b_h.data, p.w_y.data, p.b_y.data, "tanh", "sigmoid", h_prev, x
    )
    assert np.allclose(h.data, want_h, atol=1e-12)
    assert np.allclose(y.data, want_y, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_lstm_step_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    h_size, d = 3, 4
    mk = lambda *s: Tensor(rng.normal(0, 1, s))  # noqa: E731
    p = LSTMCellParams(
        w_f=mk(h_size, h_size + d), b_f=mk(h_size), w_i=mk(h_size, h_size + d), b_i=mk(h_size),
        w_c=mk(h_size, h_size + d), b_c=mk(h_size), w_o=mk(h_size, h_size + d), b_o=mk(h_size),
    )
    h_prev, c_prev, x = rng.normal(0, 1, h_size), rng.normal(0, 1, h_size), rng.normal(0, 1, d)
    h, c = lstm_cell_step(p, Tensor(h_prev), Tensor(c_prev), Tensor(x))
    ref = {k: getattr(p, k).data for k in ("w_f", "b_f", "w_i", "b_i", "w_c", "b_c", "w_o", "b_o")}
    want_h, want_c = oracles.lstm_step_ref(ref, h_prev, c_prev, x)
    assert np.allclose(h.data, want_h, atol=1e-12)
    assert np.allclose(c.data, want_c, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_gru_step_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    h_size, d = 4, 2
    mk = lambda *s: Tensor(rng.normal(0, 1, s))  # noqa: E731
    p = GRUCellParams(
        w_z=mk(h_size, h_size + d), b_z=mk(h_size), w_r=mk(h_size, h_size + d), b_r=mk(h_size),
        w_h=mk(h_size, h_size + d), b_h=mk(h_size),
    )
    h_prev, x = rng.normal(0, 1, h_size), rng.normal(0, 1, d)
    h = gru_cell_step(p, Tensor(h_prev), Tensor(x))
    ref = {k: getattr(p, k).data for k in ("w_z", "b_z", "w_r", "b_r", "w_h", "b_h")}
    want = oracles.gru_step_ref(ref, h_prev, x)
    assert np.allclose(h.data, want, atol=1e-12)


def test_dense_forward_matches_oracle_and_ignores_recurrent_block(rng):
    p = rand_rnn(rng, 4, 3, o=2)
    x = rand(rng, (3,))
    h, y = dense_forward(p, x)
    want_h, want_y = oracles.dense_ref(
        p.w_h.data, p.b_h.data, p.w_y.data, p.b_y.data, "tanh", "identity", x.data
    )
    assert np.allclose(h.data, want_h, atol=1e-12)
    assert np.allclose(y.data, want_y, atol=1e-12)

    # changing the recurrent block must not change the output
    p.w_h.data[:, :4] = 99.0
    h2, _ = dense_forward(p, x)
    assert np.array_equal(h.data, h2.data)


# ---------------------------------------------------------------------------
# row-stacked evaluation

def test_gru_row_stack_equals_per_row_loop(rng):
    p = rand_gru(rng, 3, 2)
    h_prev, x = rand(rng, (5, 3)), rand(rng, (5, 2))
    stacked = gru_cell_step(p, h_prev, x).data
    for r in range(5):
        single = gru_cell_step(p, Tensor(h_prev.data[r]), Tensor(x.data[r])).data
        assert np.allclose(stacked[r], single, atol=1e-14)


def test_lstm_row_stack_equals_per_row_loop(rng):
    p = rand_lstm(rng, 3, 2)
    h_prev, c_prev, x = rand(rng, (4, 3)), rand(rng, (4, 3)), rand(rng, (4, 2))
    h, c = lstm_cell_step(p, h_prev, c_prev, x)
    for r in range(4):
        hr, cr = lstm_cell_step(p, Tensor(h_prev.data[r]), Tensor(c_prev.data[r]), Tensor(x.data[r]))
        assert np.allclose(h.data[r], hr.data, atol=1e-14)
        assert np.allclose(c.data[r], cr.data, atol=1e-14)


def test_step_shape_validation(rng):
    p = rand_gru(rng, 3, 2)
    with pytest.raises(ShapeError):
        gru_cell_step(p, rand(rng, (4,)), rand(rng, (2,)))
    with pytest.raises(ShapeError):
        gru_cell_step(p, rand(rng, (3,)), rand(rng, (3,)))
    with pytest.raises(ShapeError):
        gru_cell_step(p, rand(rng, (5, 3)), rand(rng, (4, 2)))
    with pytest.raises(ShapeError):
        lstm_cell_step(rand_lstm(rng, 3, 2), rand(rng, (3,)), rand(rng, (2,)), rand(rng, (2,)))


CELL_GATES = {
    "rnn": (zero_rnn, (("w_h", "b_h"),)),
    "lstm": (zero_lstm, (("w_f", "b_f"), ("w_i", "b_i"), ("w_c", "b_c"), ("w_o", "b_o"))),
    "gru": (zero_gru, (("w_z", "b_z"), ("w_r", "b_r"), ("w_h", "b_h"))),
}


@pytest.mark.parametrize("kind", sorted(CELL_GATES))
def test_cell_params_reject_bad_gate_shapes(kind):
    make, gates = CELL_GATES[kind]
    h, d = 3, 2
    p = make(h, d)
    assert (p.hidden_size, p.input_size) == (h, d)
    z = lambda *shape: Tensor(np.zeros(shape))  # noqa: E731
    bad = [{w: z(h + 1, h + d)} for w, _ in gates]
    bad += [{b: z(h + 1)} for _, b in gates]
    bad.append({w: z(h, h) for w, _ in gates})  # input width 0
    if kind == "rnn":
        bad += [{"w_y": z(h, h + 1)}, {"b_y": z(h + 1)}]
    for fields in bad:
        with pytest.raises(ShapeError):
            dataclasses.replace(p, **fields)


# ---------------------------------------------------------------------------
# properties

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gru_update_is_convex_combination(seed):
    rng = np.random.default_rng(seed)
    h_size, d = 5, 3
    mk = lambda *s: Tensor(rng.normal(0, 2, s))  # noqa: E731
    p = GRUCellParams(w_z=mk(h_size, h_size + d), b_z=mk(h_size), w_r=mk(h_size, h_size + d),
                      b_r=mk(h_size), w_h=mk(h_size, h_size + d), b_h=mk(h_size))
    h_prev = rng.normal(0, 2, h_size)
    x = rng.normal(0, 2, d)
    ref = {k: getattr(p, k).data for k in ("w_z", "b_z", "w_r", "b_r", "w_h", "b_h")}
    hx = list(h_prev) + list(x)
    r = [oracles.sigmoid_s(v + b) for v, b in zip(oracles.matvec(ref["w_r"], hx), ref["b_r"])]
    rhx = [rk * hk for rk, hk in zip(r, h_prev)] + list(x)
    h_tilde = np.array([oracles.tanh_s(v + b) for v, b in zip(oracles.matvec(ref["w_h"], rhx), ref["b_h"])])
    h = gru_cell_step(p, Tensor(h_prev), Tensor(x)).data
    lo = np.minimum(h_prev, h_tilde) - 1e-12
    hi = np.maximum(h_prev, h_tilde) + 1e-12
    assert ((lo <= h) & (h <= hi)).all()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_lstm_ranges(seed):
    rng = np.random.default_rng(seed)
    p = rand_lstm(rng, 4, 3)
    h, c = lstm_cell_step(p, Tensor(rng.normal(0, 1, 4)), Tensor(rng.normal(0, 1, 4)),
                          Tensor(rng.normal(0, 1, 3)))
    assert (np.abs(h.data) < 1.0).all()  # |o|<1 and |tanh(c)|<1


# ---------------------------------------------------------------------------
# unrolling

def test_unroll_single_step_equals_cell_step(rng):
    p = rand_gru(rng, 3, 2)
    x = rand(rng, (1, 2))
    states = unroll(p, x)
    direct = gru_cell_step(p, Tensor(np.zeros(3)), Tensor(x.data[0]))
    assert np.allclose(states.data[0], direct.data, atol=1e-15)


def test_unroll_zero_gru_halves_every_step(rng):
    p = zero_gru(3, 2)
    v = np.array([8.0, -16.0, 4.0])
    states = gru_sequence(p, rand(rng, (5, 2)), Tensor(v))
    for t in range(5):
        assert np.allclose(states.data[t], v / 2.0 ** (t + 1), atol=1e-15)


def test_unroll_shapes(rng):
    t_len, rows, d, h_size = 4, 3, 2, 5
    p = rand_gru(rng, h_size, d)
    assert unroll(p, rand(rng, (t_len, rows, d))).shape == (t_len, rows, h_size)
    assert unroll(p, rand(rng, (t_len, d))).shape == (t_len, h_size)


def test_unroll_matches_manual_loop(rng):
    p = rand_gru(rng, 4, 3)
    xs = rand(rng, (6, 3))
    states = unroll(p, xs).data
    h = Tensor(np.zeros(4))
    for t in range(6):
        h = gru_cell_step(p, h, Tensor(xs.data[t]))
        assert np.allclose(states[t], h.data, atol=1e-14)


def test_unroll_validates(rng):
    p = rand_gru(rng, 3, 2)
    with pytest.raises(ShapeError):
        unroll(p, rand(rng, (0, 2)))
    with pytest.raises(ShapeError):
        unroll(p, rand(rng, (4,)))
    with pytest.raises(ShapeError):
        gru_sequence(p, rand(rng, (4, 2)), Tensor(np.zeros(4)))


def test_zero_state_shapes(rng):
    """Without h0, unroll starts from zeros shaped [h] or [R, h]."""
    p = rand_gru(rng, 4, 2)
    for shape in ((3, 2), (3, 5, 2)):
        xs = rand(rng, shape)
        h0 = Tensor(np.zeros(shape[1:-1] + (4,)))
        assert np.array_equal(unroll(p, xs).data, gru_sequence(p, xs, h0).data)


# ---------------------------------------------------------------------------
# BPTT gradients

def _steps(xs):
    """Each step's input of ``xs`` [T, ..., d], cut out along axis 0 by slice_axis."""
    return [ops.reshape(ops.slice_axis(xs, 0, t, t + 1), xs.shape[1:]) for t in range(xs.shape[0])]


def _stacked(states):
    """The states [T, ...] of one recurrence, joined by concat."""
    return ops.concat([ops.reshape(s, (1,) + s.shape) for s in states], axis=0)


def _per_op_sequence(kind, p, xs):
    """An RNN or LSTM cell run op by op along axis 0 of ``xs``, from zeros."""
    h = c = Tensor(np.zeros(xs.shape[1:-1] + (p.hidden_size,)))
    states = []
    for x_t in _steps(xs):
        if kind == "rnn":
            h, _ = rnn_cell_step(p, h, x_t)
        else:
            h, c = lstm_cell_step(p, h, c, x_t)
        states.append(h)
    return _stacked(states)


def test_bptt_gradient_wrt_first_input_20_steps(rng):
    p = rand_gru(rng, 3, 2)
    xs = rand(rng, (20, 2), grad=True)

    def f():
        states = unroll(p, xs)
        return ops.sum_all(ops.slice_axis(states, 0, 19, 20))

    assert finite_diff_check(f, xs) <= 1e-4


def test_bptt_gradient_wrt_params_all_kinds(rng):
    xs = rand(rng, (8, 2))
    for kind, params, leaf in (
        ("rnn", rand_rnn(rng, 3, 2, grad=True), "w_h"),
        ("lstm", rand_lstm(rng, 3, 2, grad=True), "w_c"),
        ("gru", rand_gru(rng, 3, 2, grad=True), "w_h"),
    ):
        def f(kind=kind, params=params):
            states = unroll(params, xs) if kind == "gru" else _per_op_sequence(kind, params, xs)
            return ops.sum_all(states)

        assert finite_diff_check(f, getattr(params, leaf)) <= 1e-4, kind


def test_bptt_credit_flows_to_early_inputs(rng):
    p = rand_gru(rng, 3, 2)
    xs = rand(rng, (10, 2), grad=True)
    with Tape() as tape:
        states = unroll(p, xs)
        loss = ops.sum_all(ops.slice_axis(states, 0, 9, 10))
    backward(tape, loss)
    assert np.abs(xs.grad[0]).max() > 0.0


# ---------------------------------------------------------------------------
# the fused sequence op against a per-op loop of gru_cell_step

GRU_LEAVES = ("w_z", "b_z", "w_r", "b_r", "w_h", "b_h")


def _gru_loop(p, xs, h0):
    h, states = h0, []
    for x_t in _steps(xs):
        h = gru_cell_step(p, h, x_t)
        states.append(h)
    return _stacked(states)


def _states_and_grads(run, p, xs, h0, weights):
    leaves = [xs, h0] + [getattr(p, k) for k in GRU_LEAVES]
    for leaf in leaves:
        leaf.grad = None
    with Tape() as tape:
        loss = ops.sum_all(ops.mul(run(p, xs, h0), weights))
    backward(tape, loss)
    return loss.data, [leaf.grad for leaf in leaves]


# the desk stage and the paper width, each with h = d
STAGE_SHAPES = ((32, 288, 32), (16, 68, 64))


@pytest.mark.parametrize("shape", [(7, 3), (6, 4, 3), *STAGE_SHAPES])
@pytest.mark.parametrize("track_h0", [True, False])
def test_gru_sequence_matches_cell_step_loop(shape, track_h0, rng):
    # stage shapes take weights at the model's init scale 1/sqrt(h + d); at
    # the default 0.6 their gates saturate, and the fused op and the per-op
    # loop already differ by up to 7e-12 in rounding alone
    stage = shape in STAGE_SHAPES
    h_size = shape[-1] if stage else 5
    p = rand_gru(rng, h_size, shape[-1], grad=True, scale=1.0 / np.sqrt(2 * h_size) if stage else 0.6)
    xs = rand(rng, shape, grad=True)
    h0 = rand(rng, shape[1:-1] + (h_size,), grad=track_h0)
    weights = rand(rng, shape[:-1] + (h_size,))
    assert np.abs(gru_sequence(p, xs, h0).data - _gru_loop(p, xs, h0).data).max() <= 1e-12
    loss, grads = _states_and_grads(gru_sequence, p, xs, h0, weights)
    want_loss, want = _states_and_grads(_gru_loop, p, xs, h0, weights)
    assert abs(loss - want_loss) <= 1e-12
    assert (grads[1] is None) == (not track_h0)
    for name, got, ref in zip(("inputs", "h0") + GRU_LEAVES, grads, want):
        if ref is not None:
            assert np.abs(got - ref).max() <= 1e-12, name


def test_gru_sequence_is_one_record(rng):
    p = rand_gru(rng, 3, 2, grad=True)
    with Tape() as tape:
        gru_sequence(p, rand(rng, (5, 4, 2)), rand(rng, (4, 3)))
    assert [rec.op for rec in tape.records] == ["gru_sequence"]


def test_gru_sequence_reads_the_stage_stream_as_rows(rng):
    """[T, B, N, d] inputs with h0 [B, N, h] give the [T, B*N, d] call's
    states and all eight gradients bit for bit, so the model hands the GRU
    its stream with no reshape record."""
    t_len, b, n, d, h_size = 5, 3, 4, 2, 3
    p = rand_gru(rng, h_size, d, grad=True)
    xs, h0 = rand(rng, (t_len, b, n, d), grad=True), rand(rng, (b, n, h_size), grad=True)
    weights = rand(rng, (t_len, b, n, h_size))
    xs_rows = Tensor(xs.data.reshape(t_len, b * n, d), requires_grad=True)
    h0_rows = Tensor(h0.data.reshape(b * n, h_size), requires_grad=True)
    weights_rows = Tensor(weights.data.reshape(t_len, b * n, h_size))
    states = gru_sequence(p, xs, h0).data
    assert states.shape == (t_len, b, n, h_size)
    assert np.array_equal(states.reshape(t_len, b * n, h_size), gru_sequence(p, xs_rows, h0_rows).data)
    _, grads = _states_and_grads(gru_sequence, p, xs, h0, weights)
    _, want = _states_and_grads(gru_sequence, p, xs_rows, h0_rows, weights_rows)
    for name, got, ref in zip(("inputs", "h0") + GRU_LEAVES, grads, want):
        assert np.array_equal(got.reshape(ref.shape), ref), name
    for bad_h0 in ((b * n, h_size), (n, b, h_size), (b, n, h_size + 1), (t_len, b, n, h_size)):
        with pytest.raises(ShapeError):
            gru_sequence(p, xs, rand(rng, bad_h0))


def test_gru_sequence_without_tape_records_nothing_and_keeps_bits(rng):
    p = rand_gru(rng, 3, 2, grad=True)
    xs, h0 = rand(rng, (5, 4, 2), grad=True), rand(rng, (4, 3))
    with Tape():
        taped = gru_sequence(p, xs, h0)
    untaped = gru_sequence(p, xs, h0)
    with Tape() as tape:
        untracked = gru_sequence(rand_gru(rng, 3, 2), rand(rng, (5, 4, 2)), h0)
    assert taped.requires_grad and not untaped.requires_grad
    assert len(tape) == 0 and not untracked.requires_grad
    assert np.array_equal(taped.data, untaped.data)


def test_gru_sequence_nan_names_fused_record(rng):
    p = rand_gru(rng, 3, 2, grad=True)
    xs = rand(rng, (5, 4, 2))
    xs.data[2, 1, 0] = np.nan
    with Tape() as tape:
        states = gru_sequence(p, xs, rand(rng, (4, 3)))
    assert first_invalid_record(tape) == f"gru_sequence#{states.tid}"


def test_desk_gru_sequence_backward_adds_under_one_and_a_half_streams(rng):
    """On a desk stage ([T=32, R=288, h=d=32]) the backward writes each step's
    gate gradients over that step's spent z, r and h~ and multiplies each
    step's r * h_prev into its d_w_hh term inside the loop, so its added
    peak is the input gradient it returns, the [T, h, h] stack of d_w_hh
    terms and [h, R] buffers: 1.34 streams. With a [T, h, R] stack of
    r * h_prev it added 2.2, with a separate three-stream gate gradient
    4.2, and with the [T, ., .] stacks of products too 5.45."""
    t_len, rows, h = STAGE_SHAPES[0]
    p = rand_gru(rng, h, h, grad=True, scale=1.0 / np.sqrt(2 * h))
    with Tape() as tape:
        states = gru_sequence(p, rand(rng, (t_len, rows, h), grad=True), rand(rng, (rows, h)))
    (rec,) = tape.records
    grad = rng.normal(0.0, 1.0, states.shape)
    _, _, added = oracles.traced_streams(lambda: rec.backward_fn(grad), states.data.nbytes)
    assert added <= 1.4
