"""End-to-end architecture: embedding, stages, pooling, head, loss."""

import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from skelgru import ops
from skelgru.cells import GRUCellParams
from skelgru.config import load_run_config, model_config_from
from skelgru.gradcheck import finite_diff_check
from skelgru.graph import GATLayerParams, SkeletonTopology, build_normalized_adjacency, chain_topology
from skelgru.model import (
    ModelConfig,
    ModelParams,
    SequenceBatch,
    StageParams,
    classify,
    cross_entropy_loss,
    embed_input,
    init_model_params,
    model_forward,
    model_gradient_report,
    named_parameters,
    predict,
    residual_norm_stage,
    stage_forward,
    temporal_attention_pool,
    temporal_attention_weights,
    tiny_reference_config,
)
from skelgru.tensor import MaskError, ShapeError, Tape, Tensor, backward

RNG = np.random.default_rng(20240814)


def rand(shape, grad=False, scale=0.8):
    return Tensor(RNG.normal(0.0, scale, shape), requires_grad=grad)


def full_mask(b, t):
    return np.ones((b, t), dtype=bool)


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
    assert np.array_equal(embed_input(params, batch).data, np.zeros((2, 2, 2, 3)))


def test_embed_identity_passes_coordinates():
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=2, seq_len=2, n_nodes=3,
                         input_dim=2, classes=2)
    params = init_model_params(config)
    params.embed_w.data[:] = np.eye(2)
    params.embed_b.data[:] = 0.0
    batch = random_batch(config)
    assert np.allclose(embed_input(params, batch).data, batch.features.data)


def test_embed_matches_per_node_loop():
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=5, seq_len=3, n_nodes=4,
                         input_dim=3, classes=2)
    params = init_model_params(config, seed=3)
    batch = random_batch(config, b=2, seed=5)
    got = embed_input(params, batch).data
    for bi in range(2):
        for t in range(3):
            for v in range(4):
                want = batch.features.data[bi, t, v] @ params.embed_w.data + params.embed_b.data
                assert np.allclose(got[bi, t, v], want, atol=1e-14)


# ---------------------------------------------------------------------------
# stages

def test_stage_forward_zero_gru_gives_zeros():
    topo = chain_topology(3)
    adj = build_normalized_adjacency(topo)
    stage = zero_stage(4)
    stage.gnn.data[:] = RNG.normal(0, 1, (4, 4))
    out = stage_forward(stage, rand((2, 5, 3, 4)), adj, topo)
    assert np.array_equal(out.data, np.zeros((2, 5, 3, 4)))


def test_stage_forward_single_step_closed_form():
    # T=1: h = (1-z)*0 + z*tanh(W_h[r*0, x] + b_h) with gates from h_prev=0
    topo = chain_topology(2)
    adj = build_normalized_adjacency(topo)
    h = 3
    stage = StageParams(
        gnn=Tensor(np.eye(h)),
        gru=GRUCellParams(
            w_z=rand((h, 2 * h)), b_z=rand((h,)), w_r=rand((h, 2 * h)), b_r=rand((h,)),
            w_h=rand((h, 2 * h)), b_h=rand((h,)),
        ),
        norm_gain=Tensor(np.ones(h)),
        norm_bias=Tensor(np.zeros(h)),
    )
    h_in = rand((1, 1, 2, h))
    out = stage_forward(stage, h_in, adj, topo).data
    gcn = oracles.gcn_ref(adj.matrix.data, h_in.data[0, 0], np.eye(h), "relu")
    for v in range(2):
        x = gcn[v]
        hx = [0.0] * h + list(x)
        z = [oracles.sigmoid_s(s + b) for s, b in zip(oracles.matvec(stage.gru.w_z.data, hx), stage.gru.b_z.data)]
        h_tilde = [oracles.tanh_s(s + b) for s, b in zip(oracles.matvec(stage.gru.w_h.data, hx), stage.gru.b_h.data)]
        want = [zk * gk for zk, gk in zip(z, h_tilde)]
        assert np.allclose(out[0, 0, v], want, atol=1e-12)


def test_stage_forward_gru_runs_along_time_per_node():
    # node tracks are independent: changing node 1's frames must not
    # affect node 0's outputs when the graph has no edges
    topo = SkeletonTopology(2, ())
    adj = build_normalized_adjacency(topo)
    stage = StageParams(
        gnn=Tensor(np.eye(3)), gru=zero_gru(3),
        norm_gain=Tensor(np.ones(3)), norm_bias=Tensor(np.zeros(3)),
    )
    stage.gru.w_h.data[:] = RNG.normal(0, 1, (3, 6))
    stage.gru.w_z.data[:] = RNG.normal(0, 1, (3, 6))
    base_in = rand((1, 4, 2, 3))
    base = stage_forward(stage, base_in, adj, topo).data
    bumped = Tensor(base_in.data.copy())
    bumped.data[0, :, 1, :] += 3.0
    out = stage_forward(stage, bumped, adj, topo).data
    assert np.allclose(out[0, :, 0], base[0, :, 0], atol=1e-14)
    assert not np.allclose(out[0, :, 1], base[0, :, 1])


def test_residual_norm_zero_block_is_layer_norm_of_input():
    topo = chain_topology(3)
    adj = build_normalized_adjacency(topo)
    stage = zero_stage(4)
    h_in = rand((2, 3, 3, 4))
    out = residual_norm_stage(stage, h_in, adj, topo, eps=1e-5).data
    for bi in range(2):
        for t in range(3):
            for v in range(3):
                want = oracles.layer_norm_ref(h_in.data[bi, t, v], np.ones(4), np.zeros(4), 1e-5)
                assert np.allclose(out[bi, t, v], want, atol=1e-12)


def test_residual_norm_constant_feature_zero_block_gives_bias():
    topo = chain_topology(2)
    adj = build_normalized_adjacency(topo)
    stage = zero_stage(4)
    stage.norm_bias.data[:] = [1.0, -2.0, 0.5, 3.0]
    h_in = Tensor(np.full((1, 2, 2, 4), 7.3))
    out = residual_norm_stage(stage, h_in, adj, topo, eps=1e-5).data
    assert np.allclose(out, np.broadcast_to(stage.norm_bias.data, out.shape), atol=1e-12)


def test_residual_path_carries_gradient_with_zero_block():
    topo = chain_topology(2)
    adj = build_normalized_adjacency(topo)
    stage = zero_stage(3)
    h_in = rand((1, 2, 2, 3), grad=True)
    with Tape() as tape:
        loss = ops.sum_all(ops.mul(residual_norm_stage(stage, h_in, adj, topo, 1e-5),
                                   rand((1, 2, 2, 3))))
    backward(tape, loss)
    assert np.abs(h_in.grad).max() > 0.0


def test_stage_forward_rejects_bad_rank():
    topo = chain_topology(2)
    adj = build_normalized_adjacency(topo)
    with pytest.raises(ShapeError):
        stage_forward(zero_stage(3), rand((2, 2, 3)), adj, topo)


# ---------------------------------------------------------------------------
# attention pooling

def test_attention_equal_scores_is_temporal_mean():
    h_final = rand((2, 5, 3, 4))
    w = Tensor(np.zeros(12), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    pooled = temporal_attention_pool(w, b, h_final, full_mask(2, 5)).data
    want = h_final.data.reshape(2, 5, 12).mean(axis=1)
    assert np.allclose(pooled, want, atol=1e-12)


def test_attention_single_frame_passes_through():
    h_final = rand((3, 1, 2, 4))
    pooled = temporal_attention_pool(rand((8,)), rand((1,)), h_final, full_mask(3, 1)).data
    assert np.allclose(pooled, h_final.data.reshape(3, 8), atol=1e-12)


def test_attention_saturates_at_20_logit_lead():
    b, t, n, h = 1, 3, 2, 2
    h_final = Tensor(np.zeros((b, t, n, h)))
    h_final.data[0, 1] = 1.0  # frame 1 gets score w . 1-vector = 20, others 0
    w = Tensor(np.full(n * h, 5.0))
    alpha = temporal_attention_weights(w, Tensor(np.zeros(1)), h_final, full_mask(b, t)).data
    assert alpha[0, 1] >= 1.0 - 1e-8
    pooled = temporal_attention_pool(w, Tensor(np.zeros(1)), h_final, full_mask(b, t)).data
    assert np.allclose(pooled[0], h_final.data[0, 1].reshape(-1), atol=1e-7)


def test_attention_masked_frames_get_zero_weight():
    h_final = rand((2, 4, 2, 3))
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 0]], dtype=bool)
    alpha = temporal_attention_weights(rand((6,)), rand((1,)), h_final, mask).data
    assert np.array_equal(alpha[~mask], np.zeros(3))
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


def test_attention_output_ignores_masked_frame_values():
    w, b = rand((6,)), rand((1,))
    base = rand((1, 4, 2, 3))
    mask = np.array([[1, 1, 1, 0]], dtype=bool)
    pooled = temporal_attention_pool(w, b, base, mask).data
    poked = Tensor(base.data.copy())
    poked.data[0, 3] = 1e6
    pooled2 = temporal_attention_pool(w, b, poked, mask).data
    assert np.array_equal(pooled, pooled2)


def test_attention_fully_masked_sample_raises():
    with pytest.raises(MaskError, match="sample 0"):
        temporal_attention_pool(rand((6,)), rand((1,)), rand((1, 3, 2, 3)),
                                np.zeros((1, 3), dtype=bool))


def test_attention_weight_width_validated():
    with pytest.raises(ShapeError):
        temporal_attention_pool(rand((5,)), rand((1,)), rand((1, 3, 2, 3)), full_mask(1, 3))


# ---------------------------------------------------------------------------
# classifier head

def test_classify_zero_weights_uniform_logits():
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=4, seq_len=2, n_nodes=2,
                         input_dim=2, classes=5)
    params = init_model_params(config)
    for t in (params.fc1, params.fc2, params.out_w, params.out_b):
        t.data[:] = 0.0
    logits = classify(params, rand((3, 8)), training=False)
    assert np.array_equal(logits.data, np.zeros((3, 5)))


def test_classify_inference_deterministic():
    config = tiny_reference_config()
    params = init_model_params(config, seed=1)
    pooled = rand((2, config.flat_width))
    a = classify(params, pooled, training=False).data
    b = classify(params, pooled, training=False).data
    assert np.array_equal(a, b)


def test_classify_matches_loop_oracle():
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=2, seq_len=2, n_nodes=2,
                         input_dim=2, classes=3, fc_width=3)
    params = init_model_params(config, seed=9)
    pooled = rand((2, 4))
    got = classify(params, pooled, training=False).data
    for i in range(2):
        h1 = [oracles.act_s("relu", v) for v in oracles.matvec(params.fc1.data.T.tolist(), pooled.data[i])]
        h2 = [oracles.act_s("relu", v) for v in oracles.matvec(params.fc2.data.T.tolist(), h1)]
        want = np.array(oracles.matvec(params.out_w.data.T.tolist(), h2)) + params.out_b.data
        assert np.allclose(got[i], want, atol=1e-12)


def test_classify_training_dropout_differs_from_inference():
    config = ModelConfig(stages=1, gnn_kind="gcn", hidden=8, seq_len=2, n_nodes=4,
                         input_dim=2, classes=4, dropout_rate=0.5)
    params = init_model_params(config, seed=2)
    pooled = rand((4, 32))
    rng = np.random.default_rng(0)
    trained = classify(params, pooled, training=True, rng=rng, dropout_rate=0.5).data
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
    adj = build_normalized_adjacency(topo)
    got = h.copy()
    for _ in range(3):
        flat = got.reshape(-1, 4)
        got = np.stack([
            oracles.layer_norm_ref(row, np.ones(4), np.zeros(4), config.norm_epsilon)
            for row in flat
        ]).reshape(h.shape)
    full = embed_input(params, batch)
    for stage in params.stages:
        full = residual_norm_stage(stage, full, adj, topo, config.norm_epsilon)
    assert np.allclose(full.data, got, atol=1e-12)


# ---------------------------------------------------------------------------
# loss and prediction

def test_loss_uniform_logits_is_log_class_count():
    for c in (2, 5, 226):
        logits = Tensor(np.zeros((3, c)))
        loss = cross_entropy_loss(logits, np.zeros(3, dtype=int))
        assert abs(loss.item() - math.log(c)) <= 1e-12
    assert abs(cross_entropy_loss(Tensor(np.zeros((1, 226))), [0]).item() - 5.4205) < 5e-5


def test_loss_saturated_logit_is_near_zero():
    logits = Tensor(np.zeros((1, 4)))
    logits.data[0, 2] = 1000.0
    assert cross_entropy_loss(logits, np.array([2])).item() <= 1e-12


def test_loss_is_mean_of_per_sample_losses():
    logits = rand((2, 5), scale=2.0)
    labels = np.array([3, 1])
    want = oracles.cross_entropy_ref(logits.data, labels)
    assert np.isclose(cross_entropy_loss(logits, labels).item(), want, atol=1e-12)


def test_predict_tie_breaks_to_lowest_index():
    idx, prob = predict(Tensor(np.zeros((1, 2))))
    assert idx[0] == 0 and np.isclose(prob[0], 0.5)


def test_predict_closed_form():
    idx, prob = predict(Tensor([[1.0, 3.0, 2.0]]))
    assert idx[0] == 1
    e = np.exp([1.0, 3.0, 2.0])
    assert np.isclose(prob[0], e[1] / e.sum(), atol=1e-12)


def test_predict_shift_invariant():
    logits = rand((4, 6))
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
        return cross_entropy_loss(logits, batch.labels)

    assert finite_diff_check(f, params.embed_w) <= 1e-4
    assert finite_diff_check(f, params.stages[0].gru.w_h) <= 1e-4
    assert finite_diff_check(f, params.attn_w) <= 1e-4


def test_desk_forward_record_count():
    """The desk model's inference-mode forward pass is 279 tape records,
    four of them the fused GRU; a per-op GRU adds about 670 per stage."""
    cfg = load_run_config(Path(__file__).resolve().parents[1] / "configs" / "desk_scale.cfg")
    config = model_config_from(cfg, 9)
    params = init_model_params(config, seed=0)
    with Tape() as tape:
        model_forward(params, config, random_batch(config, b=1), chain_topology(9))
    ops_ = [rec.op for rec in tape.records]
    assert (len(ops_), ops_.count("gru_sequence")) == (279, 4)
