"""End-to-end architecture: embedding, stages, pooling, head, loss."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from skelgru import model, ops
from skelgru.cells import GRUCellParams
from skelgru.config import load_run_config, model_config_from
from skelgru.gradcheck import finite_diff_check, model_gradient_report
from skelgru.graph import GATLayerParams, SkeletonTopology, chain_topology, gcn_forward
from skelgru.model import (
    ModelConfig,
    ModelParams,
    SequenceBatch,
    StageParams,
    classify,
    embed_input,
    init_model_params,
    model_forward,
    named_parameters,
    predict,
    residual_norm_stage,
    stage_forward,
    temporal_attention_pool,
    temporal_attention_weights,
    tiny_reference_config,
)
from skelgru.tensor import MaskError, ShapeError, Tape, TapeError, Tensor, backward, first_invalid_record

@pytest.fixture
def rng():
    """A generator of the test's own, so that no test's draws move another's inputs."""
    return np.random.default_rng(20240814)


def rand(rng, shape, grad=False, scale=0.8):
    return Tensor(rng.normal(0.0, scale, shape), requires_grad=grad)


def full_mask(b, t):
    return np.ones((b, t), dtype=bool)


def stream(x):
    """The [T, B, N, H] stream of the frames of ``x`` [B, T, N, H]: a transposed copy."""
    return Tensor(x.data.transpose(1, 0, 2, 3))


def random_batch(config, b=2, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(0, 1, (b, config.seq_len, config.n_nodes, config.input_dim))
    labels = rng.integers(0, config.classes, b)
    return SequenceBatch(Tensor(feats), full_mask(b, config.seq_len), labels)


def zero_gru(h):
    z = lambda s: Tensor(np.zeros(s), requires_grad=True)  # noqa: E731
    return GRUCellParams(w_z=z((h, 2 * h)), b_z=z(h), w_r=z((h, 2 * h)), b_r=z(h),
                         w_h=z((h, 2 * h)), b_h=z(h))


def zero_stage(h):
    return StageParams(
        gnn=Tensor(np.zeros((h, h)), requires_grad=True),
        gru=zero_gru(h),
        norm_gain=Tensor(np.ones(h), requires_grad=True),
        norm_bias=Tensor(np.zeros(h), requires_grad=True),
    )


# ---------------------------------------------------------------------------
# config validation

def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(stages=0)
    with pytest.raises(ValueError):
        ModelConfig(gnn_kind="sage")
    with pytest.raises(ValueError):
        ModelConfig(gnn_kind="gat", hidden=10, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(classes=1)
    with pytest.raises(ValueError):
        ModelConfig(input_dim=4)
    with pytest.raises(ValueError):
        ModelConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        ModelConfig(seq_len=0)
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="norm_epsilon"):
            ModelConfig(norm_epsilon=eps)


def test_config_derived_widths():
    c = ModelConfig(n_nodes=9, hidden=32, fc_width=0)
    assert c.flat_width == 288
    assert c.classifier_width == 144
    assert ModelConfig(fc_width=70).classifier_width == 70


def test_gcn_config_allows_any_heads():
    c = ModelConfig(gnn_kind="gcn", hidden=10, heads=4)
    assert c.hidden == 10


# ---------------------------------------------------------------------------
# batch validation

def test_batch_validation():
    feats = Tensor(np.zeros((2, 3, 4, 2)))
    with pytest.raises(MaskError, match="sample 1"):
        SequenceBatch(feats, np.array([[1, 1, 0], [0, 0, 0]], dtype=bool), np.array([0, 1]))
    with pytest.raises(ShapeError):
        SequenceBatch(feats, full_mask(2, 4), np.array([0, 1]))
    with pytest.raises(ShapeError):
        SequenceBatch(feats, full_mask(2, 3), np.array([0]))
    with pytest.raises(ValueError, match="negative label"):
        SequenceBatch(feats, full_mask(2, 3), np.array([0, -1]))


# ---------------------------------------------------------------------------
# embedding

def test_embed_zero_params_zero_output():
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=3, seq_len=2, n_nodes=2,
                         input_dim=2, classes=2)
    params = init_model_params(config)
    params.embed_w.data[:] = 0.0
    params.embed_b.data[:] = 0.0
    batch = random_batch(config)
    assert np.array_equal(embed_input(params, batch).data.transpose(1, 0, 2, 3), np.zeros((2, 2, 2, 3)))


def test_embed_identity_passes_coordinates():
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=2, seq_len=2, n_nodes=3,
                         input_dim=2, classes=2)
    params = init_model_params(config)
    params.embed_w.data[:] = np.eye(2)
    params.embed_b.data[:] = 0.0
    batch = random_batch(config)
    assert np.allclose(embed_input(params, batch).data.transpose(1, 0, 2, 3), batch.features.data)


def test_embed_matches_per_node_loop():
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=5, seq_len=3, n_nodes=4,
                         input_dim=3, classes=2)
    params = init_model_params(config, seed=3)
    batch = random_batch(config, b=2, seed=5)
    got = embed_input(params, batch).data.transpose(1, 0, 2, 3)
    for bi in range(2):
        for t in range(3):
            for v in range(4):
                want = batch.features.data[bi, t, v] @ params.embed_w.data + params.embed_b.data
                assert np.allclose(got[bi, t, v], want, atol=1e-14)


def _output_and_grads(f, leaves):
    """f()'s output and the gradients its leaves get from a fixed random
    weighting of it, on a fresh tape."""
    with Tape() as tape:
        out = f()
        weights = Tensor(np.random.default_rng(7).normal(0.0, 1.0, out.shape))
        loss = ops.sum_all(ops.mul(out, weights))
    backward(tape, loss)
    return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]


def test_embed_input_matches_per_op_chain_bit_for_bit():
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=5, seq_len=3, n_nodes=4,
                         input_dim=3, classes=2)
    params = init_model_params(config, seed=3)
    batch = random_batch(config, b=2, seed=5)
    leaves = [params.embed_w, params.embed_b]
    want = _output_and_grads(lambda: oracles.embed_per_op_ref(params, batch), leaves)
    assert _output_and_grads(lambda: embed_input(params, batch), leaves) == want


def test_taped_desk_embedding_holds_only_its_output_and_input():
    """A desk batch ([B=32, T=32, chain:9, d=2], H=32) embedded on the tape
    holds its output and the transposed features the weight gradient reads:
    no product apart from the output (the matmul and add_bias records it
    replaced held two)."""
    config = _desk_config()
    params = init_model_params(config, seed=0)
    batch = random_batch(config, b=32)
    untaped = embed_input(params, batch)
    tape = Tape()

    def forward():
        with tape:
            return embed_input(params, batch)

    taped, held, _ = oracles.traced_streams(forward, 1)
    assert [rec.op for rec in tape.records] == ["linear"]
    assert held <= 1.05 * (taped.data.nbytes + batch.features.data.nbytes)
    assert np.array_equal(taped.data, untaped.data)


# ---------------------------------------------------------------------------
# stages

def test_stage_forward_zero_gru_gives_zeros(rng):
    topo = chain_topology(3)
    stage = zero_stage(4)
    stage.gnn.data[:] = rng.normal(0, 1, (4, 4))
    out = stage_forward(stage, rand(rng, (5, 2, 3, 4)), topo)
    assert np.array_equal(out.data, np.zeros((5, 2, 3, 4)))


def test_stage_forward_single_step_closed_form(rng):
    # T=1: h = (1-z)*0 + z*tanh(W_h[r*0, x] + b_h) with gates from h_prev=0
    topo = chain_topology(2)
    h = 3
    stage = StageParams(
        gnn=Tensor(np.eye(h)),
        gru=GRUCellParams(
            w_z=rand(rng, (h, 2 * h)), b_z=rand(rng, (h,)), w_r=rand(rng, (h, 2 * h)), b_r=rand(rng, (h,)),
            w_h=rand(rng, (h, 2 * h)), b_h=rand(rng, (h,)),
        ),
        norm_gain=Tensor(np.ones(h)),
        norm_bias=Tensor(np.zeros(h)),
    )
    h_in = rand(rng, (1, 1, 2, h))
    out = stage_forward(stage, h_in, topo).data
    gcn = oracles.gcn_ref(topo.normalized_adjacency, h_in.data[0, 0], np.eye(h), "relu")
    for v in range(2):
        x = gcn[v]
        hx = [0.0] * h + list(x)
        z = [oracles.sigmoid_s(s + b) for s, b in zip(oracles.matvec(stage.gru.w_z.data, hx), stage.gru.b_z.data)]
        h_tilde = [oracles.tanh_s(s + b) for s, b in zip(oracles.matvec(stage.gru.w_h.data, hx), stage.gru.b_h.data)]
        want = [zk * gk for zk, gk in zip(z, h_tilde)]
        assert np.allclose(out[0, 0, v], want, atol=1e-12)


def test_stage_forward_gru_runs_along_time_per_node(rng):
    # node tracks are independent: changing node 1's frames must not
    # affect node 0's outputs when the graph has no edges
    topo = SkeletonTopology(2, ())
    stage = StageParams(
        gnn=Tensor(np.eye(3)), gru=zero_gru(3),
        norm_gain=Tensor(np.ones(3)), norm_bias=Tensor(np.zeros(3)),
    )
    stage.gru.w_h.data[:] = rng.normal(0, 1, (3, 6))
    stage.gru.w_z.data[:] = rng.normal(0, 1, (3, 6))
    base_in = rand(rng, (4, 1, 2, 3))
    base = stage_forward(stage, base_in, topo).data
    bumped = Tensor(base_in.data.copy())
    bumped.data[:, 0, 1, :] += 3.0
    out = stage_forward(stage, bumped, topo).data
    assert np.allclose(out[:, 0, 0], base[:, 0, 0], atol=1e-14)
    assert not np.allclose(out[:, 0, 1], base[:, 0, 1])


def test_residual_norm_zero_block_is_layer_norm_of_input(rng):
    topo = chain_topology(3)
    stage = zero_stage(4)
    h_in = rand(rng, (3, 2, 3, 4))
    out = residual_norm_stage(stage, h_in, topo, eps=1e-5).data
    for bi in range(2):
        for t in range(3):
            for v in range(3):
                want = oracles.layer_norm_ref(h_in.data[t, bi, v], np.ones(4), np.zeros(4), 1e-5)
                assert np.allclose(out[t, bi, v], want, atol=1e-12)


def test_residual_norm_constant_feature_zero_block_gives_bias():
    topo = chain_topology(2)
    stage = zero_stage(4)
    stage.norm_bias.data[:] = [1.0, -2.0, 0.5, 3.0]
    h_in = Tensor(np.full((2, 1, 2, 4), 7.3))
    out = residual_norm_stage(stage, h_in, topo, eps=1e-5).data
    assert np.allclose(out, np.broadcast_to(stage.norm_bias.data, out.shape), atol=1e-12)


def test_residual_path_carries_gradient_with_zero_block(rng):
    topo = chain_topology(2)
    stage = zero_stage(3)
    h_in = rand(rng, (2, 1, 2, 3), grad=True)
    with Tape() as tape:
        loss = ops.sum_all(ops.mul(residual_norm_stage(stage, h_in, topo, 1e-5),
                                   rand(rng, (2, 1, 2, 3))))
    backward(tape, loss)
    assert np.abs(h_in.grad).max() > 0.0


def test_stage_forward_rejects_bad_rank(rng):
    topo = chain_topology(2)
    with pytest.raises(ShapeError):
        stage_forward(zero_stage(3), rand(rng, (2, 2, 3)), topo)


# ---------------------------------------------------------------------------
# attention pooling

def test_attention_equal_scores_is_temporal_mean(rng):
    h_final = rand(rng, (2, 5, 3, 4))
    w = Tensor(np.zeros(12), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    pooled = temporal_attention_pool(w, b, stream(h_final), full_mask(2, 5)).data
    want = h_final.data.reshape(2, 5, 12).mean(axis=1)
    assert np.allclose(pooled, want, atol=1e-12)


def test_attention_single_frame_passes_through(rng):
    h_final = rand(rng, (3, 1, 2, 4))
    pooled = temporal_attention_pool(rand(rng, (8,)), rand(rng, (1,)), stream(h_final), full_mask(3, 1)).data
    assert np.allclose(pooled, h_final.data.reshape(3, 8), atol=1e-12)


def test_attention_saturates_at_20_logit_lead():
    b, t, n, h = 1, 3, 2, 2
    h_final = Tensor(np.zeros((b, t, n, h)))
    h_final.data[0, 1] = 1.0  # frame 1 gets score w . 1-vector = 20, others 0
    w = Tensor(np.full(n * h, 5.0))
    alpha = temporal_attention_weights(w, Tensor(np.zeros(1)), stream(h_final), full_mask(b, t)).data
    assert alpha[0, 1] >= 1.0 - 1e-8
    pooled = temporal_attention_pool(w, Tensor(np.zeros(1)), stream(h_final), full_mask(b, t)).data
    assert np.allclose(pooled[0], h_final.data[0, 1].reshape(-1), atol=1e-7)


def test_attention_masked_frames_get_zero_weight(rng):
    h_final = rand(rng, (2, 4, 2, 3))
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 0]], dtype=bool)
    alpha = temporal_attention_weights(rand(rng, (6,)), rand(rng, (1,)), stream(h_final), mask).data
    assert np.array_equal(alpha[~mask], np.zeros(3))
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


def test_attention_output_ignores_masked_frame_values(rng):
    w, b = rand(rng, (6,)), rand(rng, (1,))
    base = rand(rng, (1, 4, 2, 3))
    mask = np.array([[1, 1, 1, 0]], dtype=bool)
    pooled = temporal_attention_pool(w, b, stream(base), mask).data
    poked = Tensor(base.data.copy())
    poked.data[0, 3] = 1e6
    pooled2 = temporal_attention_pool(w, b, stream(poked), mask).data
    assert np.array_equal(pooled, pooled2)


def test_attention_fully_masked_sample_raises(rng):
    with pytest.raises(MaskError, match="sample 0"):
        temporal_attention_pool(rand(rng, (6,)), rand(rng, (1,)), stream(rand(rng, (1, 3, 2, 3))),
                                np.zeros((1, 3), dtype=bool))


def test_attention_weight_width_validated(rng):
    with pytest.raises(ShapeError):
        temporal_attention_pool(rand(rng, (5,)), rand(rng, (1,)), stream(rand(rng, (1, 3, 2, 3))), full_mask(1, 3))


def test_attention_pool_matches_per_op_chain_bit_for_bit(rng):
    """Output and all three gradients, with padded frames, equal the per-op
    chain's bit for bit on the model's [T, B, N, H] stream."""
    h_final = rand(rng, (5, 3, 2, 3), grad=True)
    w, b = rand(rng, (6,), grad=True), rand(rng, (1,), grad=True)
    mask = full_mask(3, 5)
    mask[1, -1] = mask[2, -2:] = False
    leaves = [h_final, w, b]
    want = _output_and_grads(
        lambda: oracles.attention_pool_per_op_ref(w, b, h_final, mask), leaves)
    got = _output_and_grads(
        lambda: temporal_attention_pool(w, b, h_final, mask), leaves)
    assert got == want


def test_attention_pool_is_one_record_and_names_itself(rng):
    h_final = rand(rng, (4, 2, 2, 3), grad=True)
    h_final.data[1, 0, 1, 2] = np.nan
    with Tape() as tape:
        pooled = temporal_attention_pool(rand(rng, (6,)), rand(rng, (1,)), h_final, full_mask(2, 4))
    assert [rec.op for rec in tape.records] == ["attention_pool"]
    assert first_invalid_record(tape) == f"attention_pool#{pooled.tid}"


def test_attention_pool_gradients_pass_finite_differences(rng):
    """attn_b's true gradient is zero by softmax shift invariance, so its
    numeric gradient is rounding noise, which the check counts as agreeing."""
    h_final = rand(rng, (4, 2, 3, 2), grad=True)
    w, b = rand(rng, (6,), grad=True), rand(rng, (1,), grad=True)
    mask = full_mask(2, 4)
    mask[0, -1] = False
    weights = rand(rng, (2, 6))

    def f():
        pooled = temporal_attention_pool(w, b, h_final, mask)
        return ops.sum_all(ops.mul(pooled, weights))

    assert finite_diff_check(f, h_final) <= 1e-6
    assert finite_diff_check(f, w) <= 1e-6
    assert finite_diff_check(f, b) <= 1e-6


def test_taped_pool_makes_no_copy_of_the_stream(rng):
    """Pooling a desk-shaped stream ([T=32, B=32, chain:9, H=32])
    on the tape holds the pooled rows and alpha, not the [B, T, N*H]
    transposed copy the per-op chain held."""
    t, b, n, h = 32, 32, 9, 32
    h_final = rand(rng, (t, b, n, h), grad=True)
    w, bias = rand(rng, (n * h,), grad=True), rand(rng, (1,), grad=True)
    mask = full_mask(b, t)
    mask[0, -4:] = False
    untaped = temporal_attention_pool(w, bias, h_final, mask)
    tape = Tape()

    def forward():
        with tape:
            return temporal_attention_pool(w, bias, h_final, mask)

    taped, held, _ = oracles.traced_streams(forward, 1)
    assert [rec.op for rec in tape.records] == ["attention_pool"]
    assert held <= 1.05 * (taped.data.nbytes + b * t * 8)
    assert np.array_equal(taped.data, untaped.data)


def test_pool_gradient_feeds_the_last_norm_without_a_copy(rng):
    """On a desk-shaped stream ([T=32, B=32, chain:9, H=32]) pooling's
    backward returns the frames' gradient C-contiguous in the stream's
    own layout, so the last stage's norm backward reads it in place.
    It turns its rebuilt x-hat into the gradient it returns one block of
    rows at a time, so it adds that one stream, a block of g * gain and
    [rows, 1] columns: 1.09 streams. With a second full buffer for the
    gradient it added 2.06; on a transposed gradient it adds a row-major
    copy too."""
    shape = (32, 32, 9, 32)
    h_final = rand(rng, shape, grad=True)
    w, bias = rand(rng, (9 * 32,), grad=True), rand(rng, (1,), grad=True)
    mask = full_mask(32, 32)
    mask[0, -4:] = False
    with Tape() as tape:
        pooled = temporal_attention_pool(w, bias, h_final, mask)
    (pool,) = tape.records
    d_h = pool.backward_fn(rng.normal(0.0, 1.0, pooled.shape))[0]
    assert d_h.shape == shape and d_h.flags["C_CONTIGUOUS"]
    block, x, gain, norm_bias = (rand(rng, s, grad=True) for s in (shape, shape, (32,), (32,)))
    with Tape() as tape:
        ops.residual_norm(block, x, gain, norm_bias, 1e-5)
    (norm,) = tape.records
    _, _, added = oracles.traced_streams(lambda: norm.backward_fn(d_h), x.data.nbytes)
    assert added <= 1.15


# ---------------------------------------------------------------------------
# classifier head

def test_classify_zero_weights_uniform_logits(rng):
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=4, seq_len=2, n_nodes=2,
                         input_dim=2, classes=5)
    params = init_model_params(config)
    for t in (params.fc1, params.fc2, params.out_w, params.out_b):
        t.data[:] = 0.0
    logits = classify(params, rand(rng, (3, 8)), training=False)
    assert np.array_equal(logits.data, np.zeros((3, 5)))


def test_classify_inference_deterministic(rng):
    config = tiny_reference_config()
    params = init_model_params(config, seed=1)
    pooled = rand(rng, (2, config.flat_width))
    a = classify(params, pooled, training=False).data
    b = classify(params, pooled, training=False).data
    assert np.array_equal(a, b)


def test_classify_matches_loop_oracle(rng):
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=2, seq_len=2, n_nodes=2,
                         input_dim=2, classes=3, fc_width=3)
    params = init_model_params(config, seed=9)
    pooled = rand(rng, (2, 4))
    got = classify(params, pooled, training=False).data
    for i in range(2):
        h1 = [oracles.act_s("relu", v) for v in oracles.matvec(params.fc1.data.T.tolist(), pooled.data[i])]
        h2 = [oracles.act_s("relu", v) for v in oracles.matvec(params.fc2.data.T.tolist(), h1)]
        want = np.array(oracles.matvec(params.out_w.data.T.tolist(), h2)) + params.out_b.data
        assert np.allclose(got[i], want, atol=1e-12)


def test_classify_training_dropout_differs_from_inference(rng):
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=8, seq_len=2, n_nodes=4,
                         input_dim=2, classes=4, dropout_rate=0.5)
    params = init_model_params(config, seed=2)
    pooled = rand(rng, (4, 32))
    trained = classify(params, pooled, training=True, rng=np.random.default_rng(0), dropout_rate=0.5).data
    plain = classify(params, pooled, training=False).data
    assert not np.allclose(trained, plain)


# ---------------------------------------------------------------------------
# full forward

def test_model_forward_hand_computed_trace():
    # K=1, T=1, N=1, H=2, C=2; every number recomputed with plain floats
    config = ModelConfig(stages=1, gnn_kind="gcn", heads=1, hidden=2, seq_len=1,
                         n_nodes=1, input_dim=2, classes=2, dropout_rate=0.0, fc_width=2)
    topo = SkeletonTopology(1, ())
    params = init_model_params(config)
    params.embed_w.data[:] = np.eye(2)
    params.embed_b.data[:] = [0.1, 0.2]
    stage = params.stages[0]
    stage.gnn.data[:] = [[1.0, 0.5], [-1.0, 2.0]]
    for t in (stage.gru.w_z, stage.gru.b_z, stage.gru.w_r, stage.gru.b_r, stage.gru.w_h):
        t.data[:] = 0.0
    stage.gru.b_h.data[:] = [0.2, -0.4]
    params.attn_w.data[:] = 0.0
    params.attn_b.data[:] = 0.0
    params.fc1.data[:] = np.eye(2)
    params.fc2.data[:] = np.eye(2)
    params.out_w.data[:] = [[1.0, -1.0], [0.5, 0.0]]
    params.out_b.data[:] = [0.05, -0.05]

    x = np.array([[[[0.3, -0.5]]]])
    batch = SequenceBatch(Tensor(x), full_mask(1, 1), np.array([0]))
    logits = model_forward(params, config, batch, topo, training=False).data[0]

    e = [0.3 + 0.1, -0.5 + 0.2]  # embed
    g = [e[0] * 1.0 + e[1] * -1.0, e[0] * 0.5 + e[1] * 2.0]  # gcn matmul
    g = [max(v, 0.0) for v in g]  # relu
    hbar = [0.5 * math.tanh(0.2), 0.5 * math.tanh(-0.4)]  # gru step from zero state
    r = [hbar[0] + e[0], hbar[1] + e[1]]  # residual
    mu = (r[0] + r[1]) / 2
    var = ((r[0] - mu) ** 2 + (r[1] - mu) ** 2) / 2
    normed = [(v - mu) / math.sqrt(var + 1e-5) for v in r]  # gain 1, bias 0
    h1 = [max(v, 0.0) for v in normed]  # fc1 = I, relu
    h2 = [max(v, 0.0) for v in h1]  # fc2 = I, relu
    want = [h2[0] * 1.0 + h2[1] * 0.5 + 0.05, h2[0] * -1.0 + h2[1] * 0.0 - 0.05]
    assert np.allclose(logits, want, atol=1e-12)
    assert g[1] == 0.0  # the relu actually clipped something in this trace


def test_model_forward_batch_rows_independent():
    config = tiny_reference_config()
    topo = chain_topology(config.n_nodes)
    params = init_model_params(config, seed=4)
    single = random_batch(config, b=1, seed=11)
    doubled = SequenceBatch(
        Tensor(np.repeat(single.features.data, 2, axis=0)),
        np.repeat(single.mask, 2, axis=0),
        np.repeat(single.labels, 2),
    )
    logits = model_forward(params, config, doubled, topo, training=False).data
    assert np.allclose(logits[0], logits[1], atol=1e-12)
    alone = model_forward(params, config, single, topo, training=False).data
    assert np.allclose(logits[0], alone[0], atol=1e-12)


def test_model_forward_validates_consistency():
    config = tiny_reference_config()
    params = init_model_params(config)
    batch = random_batch(config)
    with pytest.raises(ShapeError, match="topology"):
        model_forward(params, config, batch, chain_topology(5))
    bad = SequenceBatch(
        Tensor(np.zeros((1, config.seq_len + 1, config.n_nodes, 2))),
        full_mask(1, config.seq_len + 1), np.array([0]),
    )
    with pytest.raises(ShapeError, match="seq_len"):
        model_forward(params, config, bad, chain_topology(config.n_nodes))


def test_model_zero_blocks_reduce_to_repeated_layer_norm():
    config = ModelConfig(stages=3, gnn_kind="gcn", hidden=4, seq_len=2, n_nodes=2,
                         input_dim=2, classes=2, dropout_rate=0.0)
    topo = chain_topology(2)
    params = init_model_params(config, seed=6)
    for stage in params.stages:
        stage.gnn.data[:] = 0.0
        for g in ("w_z", "b_z", "w_r", "b_r", "w_h", "b_h"):
            getattr(stage.gru, g).data[:] = 0.0
        stage.norm_gain.data[:] = 1.0
        stage.norm_bias.data[:] = 0.0
    batch = random_batch(config, b=2, seed=13)
    h = embed_input(params, batch).data
    got = h.copy()
    for _ in range(3):
        flat = got.reshape(-1, 4)
        got = np.stack([
            oracles.layer_norm_ref(row, np.ones(4), np.zeros(4), config.norm_epsilon)
            for row in flat
        ]).reshape(h.shape)
    full = embed_input(params, batch)
    for stage in params.stages:
        full = residual_norm_stage(stage, full, topo, config.norm_epsilon)
    assert np.allclose(full.data, got, atol=1e-12)


# ---------------------------------------------------------------------------
# loss and prediction

def test_loss_uniform_logits_is_log_class_count():
    for c in (2, 5, 226):
        logits = Tensor(np.zeros((3, c)))
        loss = ops.cross_entropy(logits, np.zeros(3, dtype=int))
        assert abs(loss.item() - math.log(c)) <= 1e-12
    assert abs(ops.cross_entropy(Tensor(np.zeros((1, 226))), [0]).item() - 5.4205) < 5e-5


def test_loss_saturated_logit_is_near_zero():
    logits = Tensor(np.zeros((1, 4)))
    logits.data[0, 2] = 1000.0
    assert ops.cross_entropy(logits, np.array([2])).item() <= 1e-12


def test_loss_is_mean_of_per_sample_losses(rng):
    logits = rand(rng, (2, 5), scale=2.0)
    labels = np.array([3, 1])
    want = oracles.cross_entropy_ref(logits.data, labels)
    assert np.isclose(ops.cross_entropy(logits, labels).item(), want, atol=1e-12)


def test_predict_tie_breaks_to_lowest_index():
    idx, prob = predict(Tensor(np.zeros((1, 2))))
    assert idx[0] == 0 and np.isclose(prob[0], 0.5)


def test_predict_closed_form():
    idx, prob = predict(Tensor([[1.0, 3.0, 2.0]]))
    assert idx[0] == 1
    e = np.exp([1.0, 3.0, 2.0])
    assert np.isclose(prob[0], e[1] / e.sum(), atol=1e-12)


def test_predict_probability_bits_unchanged():
    """predict reads its probability from ops.softmax_rows; pinned to the
    bits of the max-shifted formula it used to compute on its own."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        data = rng.normal(0.0, 4.0, (7, 5))
        idx, prob = predict(Tensor(data))
        e = np.exp(data - data.max(axis=1, keepdims=True))
        assert np.array_equal(prob, e[np.arange(7), idx] / e.sum(axis=1))


def test_predict_shift_invariant(rng):
    logits = rand(rng, (4, 6))
    idx1, p1 = predict(logits)
    idx2, p2 = predict(Tensor(logits.data + 123.4))
    assert np.array_equal(idx1, idx2)
    assert np.allclose(p1, p2, atol=1e-9)


# ---------------------------------------------------------------------------
# gradients

def test_model_gradient_report_tiny_config():
    config = tiny_reference_config()
    report = model_gradient_report(config, chain_topology(config.n_nodes), seed=0)
    names = dict(named_parameters(init_model_params(config)))
    assert set(report) == set(names)
    worst = max(report.values())
    assert worst <= 1e-4, f"worst finite-difference error {worst:.3e}"


def test_end_to_end_gradient_single_param_spot_check():
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=3, seq_len=2, n_nodes=2,
                         input_dim=2, classes=2, dropout_rate=0.0)
    topo = chain_topology(2)
    params = init_model_params(config, seed=8)
    batch = random_batch(config, b=2, seed=21)

    def f():
        logits = model_forward(params, config, batch, topo, training=False)
        return ops.cross_entropy(logits, batch.labels)

    assert finite_diff_check(f, params.embed_w) <= 1e-4
    assert finite_diff_check(f, params.stages[0].gru.w_h) <= 1e-4
    assert finite_diff_check(f, params.attn_w) <= 1e-4


def _desk_config():
    cfg = load_run_config(Path(__file__).resolve().parents[1] / "configs" / "desk_scale.cfg")
    return model_config_from(cfg, 9)


def _desk_training_tape(config, params, batch):
    with Tape() as tape:
        logits = model_forward(params, config, batch, chain_topology(9), training=True,
                               rng=np.random.default_rng(11))
        loss = ops.cross_entropy(logits, batch.labels)
    return tape, loss


def test_desk_forward_record_count():
    """The desk model's inference-mode forward pass is 19 tape records:
    one ``linear`` embedding, four fused GRU records, four fused GAT
    layers, four fused residual norms, one ``attention_pool`` record that
    makes no transpose of the time-major stream, and the head. The GRU
    reads the [T, B, N, H] stream as it is: two reshape records around it
    added 2 per stage. A per-op GRU adds about 670 records per stage and a
    per-op GAT layer about 57; a batch-major stream with a separate add and
    layer norm adds 3 per stage; the per-op embedding, pooling and output
    layer added 12."""
    config = _desk_config()
    params = init_model_params(config, seed=0)
    with Tape() as tape:
        model_forward(params, config, random_batch(config, b=1), chain_topology(9))
    ops_ = [rec.op for rec in tape.records]
    counts = tuple(ops_.count(op) for op in ("gru_sequence", "gat_layer", "residual_norm",
                                             "layer_norm", "transpose", "reshape", "linear",
                                             "attention_pool"))
    assert (len(ops_), *counts) == (19, 4, 4, 4, 0, 0, 0, 2, 1)


def test_gcn_forward_record_count():
    """A one-stage GCN model's inference-mode forward pass is 10 tape
    records. Its stage is the fused GCN layer, the GRU and the residual
    norm: no reshape, matmul or activation record of its own (the per-op
    GCN layer was three records, and two reshapes wrapped the GRU). The
    only two matmuls are the head's bias-free layers."""
    config = dataclasses.replace(_desk_config(), gnn_kind="gcn", stages=1)
    params = init_model_params(config, seed=0)
    with Tape() as tape:
        model_forward(params, config, random_batch(config, b=1), chain_topology(9))
    ops_ = [rec.op for rec in tape.records]
    assert ops_[:5] == ["linear",  # the embedding
                        "gcn_layer", "gru_sequence", "residual_norm",
                        "attention_pool"]
    assert (len(ops_), ops_.count("gcn_layer"), ops_.count("matmul")) == (10, 1, 2)


def test_gcn_forwards_share_one_propagation_table(monkeypatch):
    """The GCN table is built once per topology, not once per stage of
    every forward: every stage reads the same read-only cached array."""
    config = dataclasses.replace(_desk_config(), gnn_kind="gcn", stages=3)
    params = init_model_params(config, seed=0)
    topo = chain_topology(9)
    built = []
    real = SkeletonTopology.adjacency
    monkeypatch.setattr(SkeletonTopology, "adjacency", lambda t: built.append(t) or real(t))
    seen = []

    def spy(w, h, t, **kw):
        seen.append(t.normalized_adjacency)
        return gcn_forward(w, h, t, **kw)

    monkeypatch.setattr(model, "gcn_forward", spy)
    batch = random_batch(config, b=1)
    for _ in range(2):
        model_forward(params, config, batch, topo)
    assert built == [topo] and len(seen) == 6
    assert all(adj is seen[0] for adj in seen)
    assert isinstance(seen[0], np.ndarray) and not seen[0].flags.writeable
    assert np.allclose(seen[0], oracles.normalized_adjacency_ref(9, topo.edges), atol=1e-14)


def test_desk_step_gradients_bitwise_match_zero_fill_reference():
    config = _desk_config()
    params = init_model_params(config, seed=0)
    batch = random_batch(config, b=2, seed=3)
    named = named_parameters(params)
    grads = []
    for sweep in (oracles.backward_zero_fill_ref, backward):
        sweep(*_desk_training_tape(config, params, batch))
        grads.append({name: t.grad.copy() for name, t in named})
    want, got = grads
    assert [k for k in want if not np.array_equal(want[k], got[k])] == []


def test_desk_step_backward_adds_little_memory():
    """backward frees each record once it has run, so on top of the
    forward's tape it holds little more than the gradients in flight (the
    zero-fill sweep it replaced added 83% of the forward here)."""
    config = _desk_config()
    params = init_model_params(config, seed=0)
    batch = random_batch(config, b=8, seed=1)

    def step():
        (tape, loss), forward, _ = oracles.traced_streams(
            lambda: _desk_training_tape(config, params, batch), 1)
        _, _, added = oracles.traced_streams(lambda: backward(tape, loss), 1)
        return tape, loss, forward, added

    (tape, loss, forward, added), _, _ = oracles.traced_streams(step, 1)
    assert added < 0.25 * forward, f"backward added {added} bytes over a {forward}-byte forward"
    assert len(tape) == 0
    with pytest.raises(TapeError):
        backward(tape, loss)


def test_desk_step_at_its_batch_peaks_at_twenty_eight_streams():
    """A desk training step at the recipe's batch (B=32, 4 GAT stages) peaks
    at the top of its backward, with the whole forward tape still held.
    In [T, B, N, H] streams, the tape holds 25.8: no GAT alpha or mask of
    positive pair scores, which backward rebuilds (27.5 with them). The
    backward adds 2.14 over it, set by the last stage's records: no
    [T, h, R] stack of r * h_prev in the GRU and no second full buffer in
    the norm (3.12 with both)."""
    config = _desk_config()
    params = init_model_params(config, seed=0)
    batch = random_batch(config, b=32, seed=1)
    stream = 8 * config.seq_len * 32 * config.n_nodes * config.hidden

    def step():
        (tape, loss), forward, _ = oracles.traced_streams(
            lambda: _desk_training_tape(config, params, batch), stream)
        _, _, added = oracles.traced_streams(lambda: backward(tape, loss), stream)
        return forward, added

    (forward, added), _, _ = oracles.traced_streams(step, 1)
    assert forward <= 26.0
    assert added <= 2.25
