"""Release gate: every shipped guarantee, one verdict line per criterion.

Each test prints a single PASS/FAIL line (shown live even under pytest's
capture) and then asserts, so `pytest tests/test_acceptance.py` both
reports and enforces all nine bars. The two training criteria run real
desk-scale jobs, so this file takes a few minutes.
"""

import json
import math
import time

import numpy as np

import oracles
from skelgru import cli, ops
from skelgru.cells import (
    GRUCellParams,
    LSTMCellParams,
    RNNCellParams,
    gru_cell_step,
    gru_sequence,
    lstm_cell_step,
    rnn_cell_step,
)
from skelgru.checkpoint import load_checkpoint, save_checkpoint
from skelgru.data import (
    DatasetManifest,
    SynthSpec,
    ingest,
    prepare_split,
    split,
    synthesize,
    write_dataset,
)
from skelgru.graph import (
    GATLayerParams,
    SkeletonTopology,
    chain_topology,
    gat_coefficients,
    gat_forward,
    gcn_forward,
)
from skelgru.model import (
    ModelConfig,
    SequenceBatch,
    init_model_params,
    model_forward,
    named_parameters,
    temporal_attention_pool,
    temporal_attention_weights,
)
from skelgru.seeding import derive_rng
from skelgru.tensor import Tape, Tensor, backward
from skelgru.training import (
    TrainPlan,
    adamw_step,
    init_adamw,
    per_class_metrics,
    train,
)


def _verdict(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_01_gradient_check_command(capsys):
    assert cli.PRIMITIVE_LIMIT == 1e-6
    assert cli.PARAM_LIMIT == 1e-4
    start = time.perf_counter()
    code = cli.main(["gradcheck"])
    elapsed = time.perf_counter() - start
    ok = code == 0 and elapsed < 60.0
    _verdict(
        capsys, 1, "gradient checks", ok,
        f"gradcheck exit {code}, primitives <= 1e-6, parameters <= 1e-4, {elapsed:.1f}s < 60s",
    )


def _random_edges(rng, n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]


def test_02_cell_and_attention_oracles(capsys):
    worst = 0.0
    for seed in range(100):
        rng = derive_rng(seed, "acceptance-cells")
        h_size, d = 4, 3
        h_prev = rng.normal(size=h_size)
        c_prev = rng.normal(size=h_size)
        x = rng.normal(size=d)

        def t(*shape):
            return Tensor(rng.normal(size=shape))

        rnn = RNNCellParams(t(h_size, h_size + d), t(h_size), t(2, h_size), t(2))
        h_new, y_new = rnn_cell_step(rnn, Tensor(h_prev), Tensor(x))
        h_ref, y_ref = oracles.rnn_step_ref(
            rnn.w_h.data.tolist(), rnn.b_h.data.tolist(),
            rnn.w_y.data.tolist(), rnn.b_y.data.tolist(),
            "tanh", "identity", h_prev.tolist(), x.tolist(),
        )
        worst = max(worst, np.abs(h_new.data - h_ref).max(), np.abs(y_new.data - y_ref).max())

        lstm = LSTMCellParams(
            t(h_size, h_size + d), t(h_size), t(h_size, h_size + d), t(h_size),
            t(h_size, h_size + d), t(h_size), t(h_size, h_size + d), t(h_size),
        )
        h2, c2 = lstm_cell_step(lstm, Tensor(h_prev), Tensor(c_prev), Tensor(x))
        h2_ref, c2_ref = oracles.lstm_step_ref(
            {k: getattr(lstm, k).data.tolist()
             for k in ("w_f", "b_f", "w_i", "b_i", "w_c", "b_c", "w_o", "b_o")},
            h_prev.tolist(), c_prev.tolist(), x.tolist(),
        )
        worst = max(worst, np.abs(h2.data - h2_ref).max(), np.abs(c2.data - c2_ref).max())

        gru = GRUCellParams(
            t(h_size, h_size + d), t(h_size), t(h_size, h_size + d), t(h_size),
            t(h_size, h_size + d), t(h_size),
        )
        h3 = gru_cell_step(gru, Tensor(h_prev), Tensor(x))
        h3_ref = oracles.gru_step_ref(
            {k: getattr(gru, k).data.tolist()
             for k in ("w_z", "b_z", "w_r", "b_r", "w_h", "b_h")},
            h_prev.tolist(), x.tolist(),
        )
        worst = max(worst, np.abs(h3.data - h3_ref).max())

        n = 5
        edges = _random_edges(rng, n)
        topo = SkeletonTopology(n, tuple(edges))
        feats = rng.normal(size=(n, 3))
        w = rng.normal(size=(3, 4))
        a = rng.normal(size=8)
        gat = GATLayerParams(heads=1, w=[Tensor(w)], a=[Tensor(a)])
        alpha = gat_coefficients(gat, 0, Tensor(feats), topo)
        alpha_ref, _ = oracles.gat_head_ref(w.tolist(), a.tolist(), feats.tolist(), n, edges)
        worst = max(worst, np.abs(alpha.data - alpha_ref).max())

    ok = worst <= 1e-12
    _verdict(
        capsys, 2, "scalar-loop oracle agreement", ok,
        f"rnn/lstm/gru steps and attention coefficients, 100 seeds, max |diff| {worst:.2e} <= 1e-12",
    )


def test_03_closed_form_anchors(capsys):
    worst = 0.0

    # All-zero GRU: z = sigmoid(0) = 1/2 and candidate tanh(0) = 0, so each
    # step exactly halves the state.
    h_size, d, t_len = 3, 2, 10
    zeros = lambda *shape: Tensor(np.zeros(shape))  # noqa: E731
    gru = GRUCellParams(
        zeros(h_size, h_size + d), zeros(h_size),
        zeros(h_size, h_size + d), zeros(h_size),
        zeros(h_size, h_size + d), zeros(h_size),
    )
    h0 = np.array([1.0, -4.0, 0.375])
    states = gru_sequence(gru, Tensor(np.zeros((t_len, d))), Tensor(h0))
    expected = np.stack([h0 / 2.0 ** (t + 1) for t in range(t_len)])
    worst = max(worst, np.abs(states.data - expected).max())

    gate = ops.elementwise("sigmoid", Tensor(np.zeros(4)))
    worst = max(worst, np.abs(gate.data - 0.5).max())

    for c in (2, 5, 226):
        labels = derive_rng(3, "anchor-labels", c).integers(0, c, size=4)
        loss = ops.cross_entropy(Tensor(np.zeros((4, c))), labels)
        worst = max(worst, abs(loss.item() - math.log(c)))

    # Equal attention scores: pooling must reduce to the mean of the
    # unmasked frame vectors.
    rng = derive_rng(3, "anchor-attn")
    b, t_len, n, h = 3, 6, 2, 4
    h_final = Tensor(rng.normal(size=(b, t_len, n, h)))
    mask = np.zeros((b, t_len), dtype=bool)
    for row, true_len in enumerate((6, 3, 1)):
        mask[row, :true_len] = True
    pooled = temporal_attention_pool(
        Tensor(np.zeros(n * h)), Tensor(np.zeros(1)), Tensor(h_final.data.transpose(1, 0, 2, 3)), mask
    )
    flat = h_final.data.reshape(b, t_len, n * h)
    means = np.stack([flat[i][mask[i]].mean(axis=0) for i in range(b)])
    worst = max(worst, np.abs(pooled.data - means).max())

    ok = worst <= 1e-12
    _verdict(
        capsys, 3, "closed-form anchors", ok,
        f"state halving, half gates, log-C loss, mean pooling, max |diff| {worst:.2e} <= 1e-12",
    )


def test_04_structural_invariants(capsys):
    rng = derive_rng(4, "acceptance-perm")
    n, d = 6, 4
    topo = SkeletonTopology(n, tuple(_random_edges(rng, n)) or ((0, 1),))
    feats = rng.normal(size=(n, d))
    gcn_w = Tensor(rng.normal(size=(d, d)))
    gat = GATLayerParams(
        heads=2,
        w=[Tensor(rng.normal(size=(d, 2))) for _ in range(2)],
        a=[Tensor(rng.normal(size=4)) for _ in range(2)],
    )
    base_gcn = gcn_forward(gcn_w, Tensor(feats), topo).data
    base_gat = gat_forward(gat, Tensor(feats), topo).data

    worst = 0.0
    for _ in range(50):
        perm = rng.permutation(n)
        p_topo = SkeletonTopology(n, tuple((int(perm[i]), int(perm[j])) for i, j in topo.edges))
        p_feats = np.empty_like(feats)
        p_feats[perm] = feats
        p_gcn = gcn_forward(gcn_w, Tensor(p_feats), p_topo).data
        p_gat = gat_forward(gat, Tensor(p_feats), p_topo).data
        worst = max(worst, np.abs(p_gcn[perm] - base_gcn).max(), np.abs(p_gat[perm] - base_gat).max())

    config = ModelConfig(stages=2, gnn_kind="gat", heads=2, hidden=4, seq_len=6,
                         n_nodes=3, input_dim=2, classes=3, dropout_rate=0.0)
    chain = chain_topology(config.n_nodes)
    params = init_model_params(config, seed=4)
    b, t_len = 3, config.seq_len
    mask = np.zeros((b, t_len), dtype=bool)
    for row, true_len in enumerate((6, 4, 2)):
        mask[row, :true_len] = True

    h_final = Tensor(rng.normal(size=(b, t_len, config.n_nodes, config.hidden)))
    alpha = temporal_attention_weights(
        params.attn_w, params.attn_b, Tensor(h_final.data.transpose(1, 0, 2, 3)), mask).data
    rows_ok = np.abs(alpha.sum(axis=1) - 1.0).max() <= 1e-12
    masked_zero = np.all(alpha[~mask] == 0.0)

    feats = rng.normal(size=(b, t_len, config.n_nodes, 2))
    logits = model_forward(params, config, SequenceBatch(Tensor(feats), mask, np.zeros(b, dtype=np.int64)), chain)
    bumped = feats.copy()
    bumped[~mask] += rng.normal(size=bumped[~mask].shape) * 10.0
    logits_bumped = model_forward(params, config, SequenceBatch(Tensor(bumped), mask, np.zeros(b, dtype=np.int64)), chain)
    immune = np.array_equal(logits.data, logits_bumped.data)

    ok = worst <= 1e-12 and rows_ok and masked_zero and immune
    _verdict(
        capsys, 4, "structural invariants", ok,
        "permutation equivariance over 50 relabelings "
        f"(max |diff| {worst:.2e} <= 1e-12), attention rows sum to 1, "
        f"masked weight zero: {masked_zero}, padded frames inert: {immune}",
    )


def test_05_per_class_metric_rows(capsys):
    cases = [
        ([[20, 0], [1, 5]], ("0.952381", "1.000000", "0.975610")),
        ([[3, 10], [0, 4]], ("1.000000", "0.230769", "0.375000")),
        ([[17, 1], [16, 20]], ("0.515152", "0.944444", "0.666667")),
    ]
    ok = True
    for confusion, (prec, rec, f1) in cases:
        row = per_class_metrics(np.array(confusion))[0]
        got = (f"{row.precision:.6f}", f"{row.recall:.6f}", f"{row.f1:.6f}")
        ok &= got == (prec, rec, f1)
    _verdict(
        capsys, 5, "metric table rows", ok,
        "precision/recall/f1 rows (0.952381, 1.000000, 0.975610), "
        "(1.000000, 0.230769, 0.375000), (0.515152, 0.944444, 0.666667) at 6 decimals",
    )


def test_06_optimizer_anchor(capsys):
    p = Tensor(np.array([0.25]), requires_grad=True)
    p.grad = np.array([1.0])
    named = [("p", p)]
    state = init_adamw(named, lr=1e-3, weight_decay=0.0)
    before = p.data.copy()
    adamw_step(state, named)
    # First step with g = 1: both moment estimates bias-correct to exactly
    # 1, so the update is lr / (1 + eps).
    expected_delta = -1e-3 * (1.0 / (np.sqrt(1.0) + 1e-8))
    anchor_err = abs(float(p.data[0] - before[0]) - expected_delta)

    rng = derive_rng(6, "acceptance-adamw")
    q = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    named_q = [("q", q)]
    state_q = init_adamw(named_q, lr=7e-3, weight_decay=0.0)
    ref_p = q.data.copy()
    ref_m = np.zeros_like(ref_p)
    ref_v = np.zeros_like(ref_p)
    bit_equal = True
    for step in range(1, 11):
        g = rng.normal(size=ref_p.shape)
        q.grad = g.copy()
        adamw_step(state_q, named_q)
        # Plain Adam, same arithmetic order, no decay term anywhere.
        ref_m = state_q.beta1 * ref_m + (1 - state_q.beta1) * g
        ref_v = state_q.beta2 * ref_v + (1 - state_q.beta2) * g * g
        m_hat = ref_m / (1 - state_q.beta1 ** step)
        v_hat = ref_v / (1 - state_q.beta2 ** step)
        ref_p = ref_p - 7e-3 * (m_hat / (np.sqrt(v_hat) + state_q.eps))
        bit_equal &= np.array_equal(q.data, ref_p)

    ok = anchor_err <= 1e-12 and bit_equal
    _verdict(
        capsys, 6, "optimizer anchor", ok,
        f"first-step delta matches hand value to {anchor_err:.2e} <= 1e-12, "
        f"zero-decay run bit-equals plain Adam over 10 steps: {bit_equal}",
    )


def _desk_run(out_dir):
    manifest = synthesize(SynthSpec())
    train_m, val_m, _ = split(manifest, (0.7, 0.15, 0.15), seed=0)
    config = ModelConfig(stages=4, gnn_kind="gat", heads=4, hidden=32, seq_len=32,
                         n_nodes=9, input_dim=2, classes=5, dropout_rate=0.3)
    topo = chain_topology(config.n_nodes)
    train_split = prepare_split(train_m, config.seq_len)
    val_split = prepare_split(val_m, config.seq_len)
    params = init_model_params(config, seed=0)
    state = init_adamw(named_parameters(params), lr=1e-3, weight_decay=1e-5)
    plan = TrainPlan(epochs=30, batch_size=32, seed=0)
    start = time.perf_counter()
    result = train(params, config, topo, train_split, val_split, plan, state, out_dir)
    wall = time.perf_counter() - start
    records = [json.loads(line) for line in (out_dir / "train_log.jsonl").read_text().splitlines()]
    return result, records, wall


def test_07_desk_scale_training(capsys, tmp_path):
    res1, rec1, wall1 = _desk_run(tmp_path / "run1")
    res2, rec2, wall2 = _desk_run(tmp_path / "run2")
    strip = lambda recs: [{k: v for k, v in r.items() if k != "wall_seconds"} for r in recs]  # noqa: E731
    logs_match = len(rec1) == 30 and strip(rec1) == strip(rec2)
    ckpt_match = (tmp_path / "run1" / "best.ckpt").read_bytes() == (tmp_path / "run2" / "best.ckpt").read_bytes()
    ok = res1.best_val_acc >= 0.95 and wall1 < 600 and wall2 < 600 and logs_match and ckpt_match
    _verdict(
        capsys, 7, "desk-scale training", ok,
        f"best val acc {res1.best_val_acc:.4f} >= 0.95, walls {wall1:.0f}s/{wall2:.0f}s < 600s, "
        f"rerun logs identical (timing aside): {logs_match}, checkpoints byte-equal: {ckpt_match}",
    )


def test_08_random_label_overfit(capsys):
    spec = SynthSpec(classes=5, samples_per_class=7, n_nodes=9, min_len=16,
                     max_len=16, noise_sigma=0.02, seed=0)
    manifest = DatasetManifest(samples=synthesize(spec).samples[:32], class_count=5)
    prepared = prepare_split(manifest, 16)
    labels = derive_rng(0, "overfit-labels").integers(0, 5, size=32)
    config = ModelConfig(stages=4, gnn_kind="gat", heads=4, hidden=16, seq_len=16,
                         n_nodes=9, input_dim=2, classes=5, dropout_rate=0.0)
    topo = chain_topology(config.n_nodes)
    params = init_model_params(config, seed=0)
    named = named_parameters(params)
    state = init_adamw(named, lr=3e-3, weight_decay=0.0)
    batch = SequenceBatch(Tensor(prepared.features), prepared.mask, labels)

    solved_at = None
    for step in range(1, 301):
        with Tape() as tape:
            logits = model_forward(params, config, batch, topo, training=True)
            loss = ops.cross_entropy(logits, labels)
            backward(tape, loss)
        adamw_step(state, named)
        if (logits.data.argmax(axis=1) == labels).all():
            solved_at = step
            break

    ok = solved_at is not None
    _verdict(
        capsys, 8, "random-label overfit", ok,
        "32 samples, labels drawn at random from 5 classes, 100% training "
        f"accuracy at step {solved_at} <= 300" if ok else "not memorized within 300 steps",
    )


def test_09_persistence_round_trips(capsys, tmp_path):
    config = ModelConfig(stages=2, gnn_kind="gat", heads=2, hidden=4, seq_len=8,
                         n_nodes=5, input_dim=2, classes=3, dropout_rate=0.1)
    topo = chain_topology(config.n_nodes)
    params = init_model_params(config, seed=9)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(params, config, ckpt, topology_hash=topo.canonical_hash())
    loaded, loaded_config, loaded_hash = load_checkpoint(ckpt)
    pairs = list(zip(sorted(named_parameters(params)), sorted(named_parameters(loaded))))
    tensors_exact = all(
        a_name == b_name and np.array_equal(a.data, b.data) and a.data.dtype == b.data.dtype
        for (a_name, a), (b_name, b) in pairs
    )
    resaved = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, loaded_config, resaved, topology_hash=loaded_hash)
    ckpt_ok = tensors_exact and loaded_config == config and ckpt.read_bytes() == resaved.read_bytes()

    manifest = synthesize(SynthSpec(classes=3, samples_per_class=4, n_nodes=5,
                                    min_len=6, max_len=9, noise_sigma=0.02, seed=7))
    first = tmp_path / "data.jsonl"
    write_dataset(manifest, first)
    reread = ingest(first, topo)
    records_ok = (
        reread.class_count == manifest.class_count
        and len(reread.samples) == len(manifest.samples)
        and all(
            a.id == b.id and a.label == b.label and np.array_equal(a.frames, b.frames)
            for a, b in zip(manifest.samples, reread.samples)
        )
    )
    second = tmp_path / "data2.jsonl"
    write_dataset(reread, second)
    data_ok = records_ok and first.read_bytes() == second.read_bytes()

    ok = ckpt_ok and data_ok
    _verdict(
        capsys, 9, "persistence round trips", ok,
        f"checkpoint save/load bit-exact and byte-stable: {ckpt_ok}, "
        f"dataset write/read preserves every record: {data_ok}",
    )
