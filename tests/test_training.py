import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from oracles import adamw_step_ref
from skelgru.config import load_run_config, model_config_from, synth_spec_from
from skelgru.data import DataFormatError, PreparedSplit, SynthSpec, prepare_split, split, synthesize
from skelgru.graph import chain_topology
from skelgru.model import (
    ModelConfig,
    init_model_params,
    named_parameters,
    tiny_reference_config,
)
from skelgru.tensor import Tensor
from skelgru.training import (
    AdamWState,
    ClassMetrics,
    EvalReport,
    NumericsError,
    OptimizerError,
    TrainPlan,
    TrainResult,
    adamw_step,
    eval_logits,
    evaluate,
    format_eval_report,
    init_adamw,
    per_class_metrics,
    retain_freed_memory,
    train,
)


def tensor_param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def step_with(state, named, grads):
    """Attach each named tensor's gradient from ``grads``, then take one step."""
    for name, tensor in named:
        tensor.grad = grads[name]
    adamw_step(state, named)


class TestAdamW:
    def test_first_step_anchor(self):
        p = tensor_param([2.0])
        named = [("p", p)]
        state = init_adamw(named, lr=1e-3, weight_decay=0.0)
        step_with(state, named, {"p": np.array([1.0])})
        delta = p.data[0] - 2.0
        ref, _, _ = adamw_step_ref(
            np.array([2.0]), np.array([1.0]), np.zeros(1), np.zeros(1),
            step=1, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0,
        )
        assert abs(p.data[0] - ref[0]) <= 1e-12
        assert abs(delta - (-9.99999990000e-4)) <= 1e-12
        assert state.step == 1

    def test_zero_grad_zero_decay_is_identity(self):
        p = tensor_param([[1.5, -2.5], [0.0, 3.25]])
        before = p.data.copy()
        named = [("p", p)]
        state = init_adamw(named, lr=1e-3)
        for _ in range(3):
            step_with(state, named, {"p": np.zeros((2, 2))})
        assert np.array_equal(p.data, before)

    def test_pure_decay_step(self):
        p = tensor_param([4.0])
        named = [("p", p)]
        state = init_adamw(named, lr=1e-3, weight_decay=1e-5)
        step_with(state, named, {"p": np.zeros(1)})
        assert abs(p.data[0] - 4.0 * (1.0 - 1e-8)) <= 1e-12

    def test_matches_oracle_over_many_steps(self):
        rng = np.random.default_rng(0)
        p = tensor_param(rng.normal(size=(3, 4)))
        ref_p = p.data.copy()
        m = np.zeros((3, 4))
        v = np.zeros((3, 4))
        named = [("w", p)]
        state = init_adamw(named, lr=2e-3, weight_decay=1e-4)
        for step in range(1, 21):
            g = rng.normal(size=(3, 4))
            step_with(state, named, {"w": g})
            ref_p, m, v = adamw_step_ref(
                ref_p, g, m, v, step, 2e-3, 0.9, 0.999, 1e-8, 1e-4
            )
            assert np.max(np.abs(p.data - ref_p)) <= 1e-12

    def test_zero_decay_bit_equals_plain_adam(self):
        rng = np.random.default_rng(7)
        p = tensor_param(rng.normal(size=(5,)))
        adam_p = p.data.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        named = [("w", p)]
        state = init_adamw(named, lr=1e-3, weight_decay=0.0)
        b1, b2 = 0.9, 0.999
        for step in range(1, 26):
            g = rng.normal(size=(5,))
            step_with(state, named, {"w": g})
            # textbook Adam, written independently of the implementation
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** step)
            v_hat = v / (1.0 - b2 ** step)
            adam_p = adam_p - 1e-3 * (m_hat / (np.sqrt(v_hat) + 1e-8))
            assert np.array_equal(p.data, adam_p)

    def test_missing_gradient_named(self):
        p = tensor_param([1.0])
        named = [("embed.w", p)]
        state = init_adamw(named, lr=1e-3)
        with pytest.raises(OptimizerError, match="embed.w"):
            adamw_step(state, named)  # tensor.grad is None

    def test_gradient_shape_mismatch(self):
        p = tensor_param([1.0, 2.0])
        named = [("p", p)]
        state = init_adamw(named, lr=1e-3)
        with pytest.raises(OptimizerError, match="shape"):
            step_with(state, named, {"p": np.zeros(3)})

    def test_non_finite_gradient_touches_nothing(self):
        named = [("c", tensor_param([1.0, 2.0])), ("b", tensor_param([3.0])),
                 ("a", tensor_param([-1.0]))]
        state = init_adamw(named, lr=1e-3, weight_decay=1e-4)
        step_with(state, named, {"a": np.ones(1), "b": np.ones(1), "c": np.ones(2)})
        before = [(t.data.copy(), state.m[k].copy(), state.v[k].copy()) for k, t in named]
        bad = {"a": np.ones(1), "b": np.array([np.inf]), "c": np.array([0.0, np.nan])}
        with pytest.raises(NumericsError, match="'b'"):  # first in sorted-name order
            step_with(state, named, bad)
        assert state.step == 1
        for (k, t), (p, m, v) in zip(named, before):
            assert np.array_equal(t.data, p)
            assert np.array_equal(state.m[k], m) and np.array_equal(state.v[k], v)

    def test_overflowing_update_touches_nothing(self):
        """A parameter at 1.5e308 pushed up by about lr = 1e308 would pass
        the float64 maximum: the step names it and writes nothing, not even
        the finite update of the parameter before it in sorted-name order."""
        named = [("w", tensor_param([1.5e308, 0.0])), ("a", tensor_param([1.0]))]
        state = init_adamw(named, lr=1e-3)
        step_with(state, named, {"w": np.array([-1.0, 1.0]), "a": np.ones(1)})
        state.lr = 1e308
        before = [(t.data.copy(), state.m[k].copy(), state.v[k].copy()) for k, t in named]
        with pytest.raises(NumericsError, match="update overflows parameter 'w' at optimizer step 2"):
            step_with(state, named, {"w": np.array([-1.0, 1.0]), "a": np.ones(1)})
        assert state.step == 1
        for (k, t), (p, m, v) in zip(named, before):
            assert np.array_equal(t.data, p)
            assert np.array_equal(state.m[k], m) and np.array_equal(state.v[k], v)

    def test_second_moment_overflow_touches_nothing(self):
        """g = 1e200 is finite, but g * g overflows v to inf, after which
        every update of that parameter is 0: the step names it and writes
        nothing, and the gradients stay attached."""
        named = [("w", tensor_param([1.0, 2.0])), ("a", tensor_param([1.0]))]
        state = init_adamw(named, lr=1e-3, weight_decay=1e-4)
        step_with(state, named, {"w": np.ones(2), "a": np.ones(1)})
        before = [(t.data.copy(), state.m[k].copy(), state.v[k].copy()) for k, t in named]
        for (_, t), g in zip(named, ([1e200, 1.0], [1.0])):
            t.grad = np.array(g)
        held = [t.grad for _, t in named]
        with pytest.raises(NumericsError,
                           match="overflows the second moment of parameter 'w' at optimizer step 2"):
            adamw_step(state, named)
        assert state.step == 1
        for (k, t), (p, m, v), g in zip(named, before, held):
            assert t.grad is g
            assert np.array_equal(t.data, p)
            assert np.array_equal(state.m[k], m) and np.array_equal(state.v[k], v)

    def test_step_writes_in_place_and_releases_read_gradients(self):
        rng = np.random.default_rng(5)
        named = [("w", tensor_param(rng.normal(size=(3, 2)))), ("b", tensor_param(rng.normal(size=2)))]
        state = init_adamw(named, lr=2e-3, weight_decay=1e-4)
        ref = {k: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for k, t in named}
        arrays = [(t.data, state.m[k], state.v[k]) for k, t in named]
        for step in (1, 2, 3):
            grads = {k: rng.normal(size=t.shape) for k, t in named}
            for k, t in named:
                t.grad = grads[k].copy()
            adamw_step(state, named)
            for (k, t), (p, m, v) in zip(named, arrays):
                assert t.grad is None
                assert t.data is p and state.m[k] is m and state.v[k] is v
                p0, m0, v0 = ref[k]
                ref[k] = adamw_step_ref(p0, grads[k], m0, v0, step, 2e-3, 0.9, 0.999, 1e-8, 1e-4)
                assert np.array_equal(p, ref[k][0])
                assert np.array_equal(m, ref[k][1]) and np.array_equal(v, ref[k][2])

    def test_failed_step_releases_nothing(self):
        named = [("a", tensor_param([1.0])), ("b", tensor_param([2.0]))]
        state = init_adamw(named, lr=1e-3)
        named[0][1].grad = np.array([np.nan])
        named[1][1].grad = np.array([1.0])
        held = [t.grad for _, t in named]
        data = [t.data for _, t in named]
        with pytest.raises(NumericsError, match="'a'"):
            adamw_step(state, named)
        named[0][1].grad = None
        held[0] = None
        with pytest.raises(OptimizerError, match="'a'"):
            adamw_step(state, named)
        assert state.step == 0
        for (_, t), g, d in zip(named, held, data):
            assert t.grad is g and t.data is d
        assert [t.data.tolist() for _, t in named] == [[1.0], [2.0]]

    def test_unregistered_parameter(self):
        p = tensor_param([1.0])
        state = init_adamw([], lr=1e-3)
        with pytest.raises(OptimizerError, match="not registered"):
            step_with(state, [("p", p)], {"p": np.zeros(1)})

    def test_moment_shapes_mirror_params(self):
        params = init_model_params(tiny_reference_config(), seed=0)
        named = named_parameters(params)
        state = init_adamw(named, lr=1e-3)
        for name, tensor in named:
            assert state.m[name].shape == tensor.shape
            assert state.v[name].shape == tensor.shape

    def test_state_validation(self):
        with pytest.raises(ValueError):
            AdamWState(lr=-1.0)
        with pytest.raises(ValueError):
            AdamWState(lr=1e-3, beta1=1.0)
        with pytest.raises(ValueError):
            AdamWState(lr=1e-3, eps=0.0)
        with pytest.raises(ValueError):
            AdamWState(lr=1e-3, weight_decay=-1e-5)
        for bad in ({"lr": np.nan}, {"lr": np.inf}, {"eps": np.nan}, {"eps": np.inf},
                    {"weight_decay": np.nan}, {"weight_decay": np.inf}):
            with pytest.raises(ValueError, match="finite"):
                AdamWState(**{"lr": 1e-3, **bad})

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            TrainPlan(epochs=0, batch_size=4)
        with pytest.raises(ValueError):
            TrainPlan(epochs=1, batch_size=0)
        with pytest.raises(ValueError):
            TrainPlan(epochs=1, batch_size=4, patience=-1)


class TestPerClassMetrics:
    def test_first_published_row(self):
        # tp=20, fp=1, fn=0: precision 20/21, recall 1
        conf = [[20, 0], [1, 5]]
        m = per_class_metrics(conf)[0]
        assert f"{m.precision:.6f}" == "0.952381"
        assert f"{m.recall:.6f}" == "1.000000"
        assert f"{m.f1:.6f}" == "0.975610"
        assert m.support == 20 and not m.zero_division

    def test_second_published_row(self):
        # tp=3, fp=0, fn=10: precision 1, recall 3/13
        conf = [[3, 10], [0, 4]]
        m = per_class_metrics(conf)[0]
        assert f"{m.precision:.6f}" == "1.000000"
        assert f"{m.recall:.6f}" == "0.230769"
        assert f"{m.f1:.6f}" == "0.375000"

    def test_third_published_row(self):
        # tp=17, fp=16, fn=1: precision 17/33, recall 17/18
        conf = [[17, 1], [16, 20]]
        m = per_class_metrics(conf)[0]
        assert f"{m.precision:.6f}" == "0.515152"
        assert f"{m.recall:.6f}" == "0.944444"
        assert f"{m.f1:.6f}" == "0.666667"

    def test_hand_three_class_fixture(self):
        conf = np.array([[3, 1, 0], [0, 4, 1], [2, 0, 5]])
        got = per_class_metrics(conf)

        def f1(p, r):
            return 2 * p * r / (p + r)

        assert got[0] == ClassMetrics(3 / 5, 3 / 4, f1(3 / 5, 3 / 4), 4)
        assert got[1] == ClassMetrics(4 / 5, 4 / 5, f1(4 / 5, 4 / 5), 5)
        assert got[2] == ClassMetrics(5 / 6, 5 / 7, f1(5 / 6, 5 / 7), 7)

    def test_zero_support_class_flagged(self):
        conf = [[0, 0], [0, 3]]
        got = per_class_metrics(conf)
        assert got[0] == ClassMetrics(0.0, 0.0, 0.0, 0, True)
        assert not got[1].zero_division

    def test_never_predicted_class_flagged(self):
        conf = [[0, 5], [0, 5]]
        got = per_class_metrics(conf)
        assert got[0].precision == 0.0 and got[0].zero_division
        assert got[0].support == 5

    def test_matches_pairwise_oracle(self):
        from oracles import precision_recall_f1_ref

        rng = np.random.default_rng(3)
        true = rng.integers(0, 4, size=60)
        pred = rng.integers(0, 4, size=60)
        conf = np.zeros((4, 4), dtype=np.int64)
        np.add.at(conf, (true, pred), 1)
        got = per_class_metrics(conf)
        for c, (m, (p, r, f1)) in enumerate(zip(got, precision_recall_f1_ref(true, pred, 4))):
            assert abs(m.precision - p) <= 1e-12
            assert abs(m.recall - r) <= 1e-12
            assert abs(m.f1 - f1) <= 1e-12
            assert m.support == int((true == c).sum())

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            per_class_metrics(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-negative"):
            per_class_metrics([[1, -1], [0, 1]])


class TestReportFormat:
    def report(self):
        conf = np.array([[3, 1, 0], [0, 4, 1], [2, 0, 5]])
        return EvalReport(conf)

    def test_ascending_order(self):
        lines = format_eval_report(self.report(), descending=False).splitlines()
        assert lines[0] == "accuracy 0.750000"
        assert lines[1] == "class precision recall f1 support"
        assert [l.split()[0] for l in lines[2:5]] == ["0", "2", "1"]
        tied = format_eval_report(EvalReport(np.eye(2, dtype=int)), descending=False).splitlines()
        assert [l.split()[0] for l in tied[2:4]] == ["0", "1"]  # equal f1: class index breaks the tie

    def test_f1_sort_descending(self):
        lines = format_eval_report(self.report()).splitlines()
        f1s = [float(l.split()[3]) for l in lines[2:5]]
        assert f1s == sorted(f1s, reverse=True)
        assert [l.split()[0] for l in lines[2:5]] == ["1", "2", "0"]
        tied = format_eval_report(EvalReport(np.eye(2, dtype=int))).splitlines()
        assert [l.split()[0] for l in tied[2:4]] == ["0", "1"]

    def test_zero_division_star(self):
        conf = np.array([[0, 0], [0, 3]])
        report = EvalReport(conf)
        text = format_eval_report(report)
        assert "0 0.000000 0.000000 0.000000 0 *" in text
        assert "zero-denominator" in text


def small_setup(classes=2, per_class=6, dropout=0.0, seed=0):
    config = ModelConfig(
        stages=1, gnn_kind="gcn", heads=1, hidden=4, seq_len=8,
        n_nodes=3, input_dim=2, classes=classes, dropout_rate=dropout,
    )
    topo = chain_topology(3)
    spec = SynthSpec(classes=classes, samples_per_class=per_class, n_nodes=3,
                     min_len=8, max_len=8, noise_sigma=0.01, seed=seed)
    manifest = synthesize(spec)
    tr, va, te = split(manifest, (0.6, 0.2, 0.2), seed=seed)
    prep = lambda m: prepare_split(m, config.seq_len)
    return config, topo, prep(tr), prep(va), prep(te)


class TestEvaluate:
    def test_constant_predictor_balanced_split(self):
        config, topo, tr, va, te = small_setup(per_class=8)
        params = init_model_params(config, seed=0)
        for _, tensor in named_parameters(params):
            tensor.data[...] = 0.0
        report = evaluate(params, config, topo, tr)
        # all-zero weights give identical logits, ties resolve to class 0
        assert report.confusion[:, 0].sum() == len(tr)
        assert report.accuracy == 0.5

    def test_confusion_totals_and_determinism(self):
        config, topo, tr, *_ = small_setup()
        params = init_model_params(config, seed=1)
        a = evaluate(params, config, topo, tr)
        b = evaluate(params, config, topo, tr, batch_size=3)
        assert a.confusion.sum() == len(tr)
        assert np.array_equal(a.confusion, b.confusion)
        assert a.accuracy == float(np.trace(a.confusion)) / len(tr)
        assert a.confusion.sum(axis=1).tolist() == np.bincount(tr.labels, minlength=2).tolist()

    def test_eval_logits_batch_size_invariant(self):
        config, topo, tr, *_ = small_setup()
        params = init_model_params(config, seed=2)
        full = eval_logits(params, config, topo, tr, batch_size=64)
        chunked = eval_logits(params, config, topo, tr, batch_size=1)
        assert np.allclose(full, chunked, atol=1e-12)

    def test_desk_logits_depend_on_the_batch_in_their_last_bits_only(self):
        """The BLAS kernels can give one sample's logits different last bits
        with the batch it lands in, so ``predict`` probabilities can too;
        on 64 desk samples at batch sizes 1, 7 and 64 they agree within
        1e-13 of the logits' scale and pick the same class."""
        cfg = load_run_config(Path(__file__).resolve().parents[1] / "configs" / "desk_scale.cfg")
        topo = chain_topology(9)
        config = model_config_from(cfg, topo.n_nodes)
        whole = prepare_split(synthesize(synth_spec_from(cfg)), config.seq_len)
        desk = PreparedSplit(whole.features[:64], whole.mask[:64], whole.labels[:64])
        params = init_model_params(config, seed=0)
        want = eval_logits(params, config, topo, desk, batch_size=64)
        for batch_size in (1, 7):
            got = eval_logits(params, config, topo, desk, batch_size=batch_size)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))

    def test_empty_split_rejected(self):
        """An empty split cannot be built, so ``evaluate`` never sees one."""
        _, _, tr, *_ = small_setup()
        with pytest.raises(DataFormatError, match="at least one sample"):
            PreparedSplit(tr.features[:0], tr.mask[:0], tr.labels[:0])


class TestTrainLoop:
    def test_lr_zero_is_identity(self, tmp_path):
        config, topo, tr, va, _ = small_setup(dropout=0.0)
        params = init_model_params(config, seed=0)
        before = {n: t.data.copy() for n, t in named_parameters(params)}
        plan = TrainPlan(epochs=3, batch_size=4, seed=0)
        state = init_adamw(named_parameters(params), lr=0.0)
        result = train(params, config, topo, tr, va, plan, state, tmp_path)
        for name, tensor in named_parameters(params):
            assert np.array_equal(tensor.data, before[name]), name
        losses = [r["train_loss"] for r in result.records]
        assert losses[0] == losses[1] == losses[2]
        vals = [r["val_loss"] for r in result.records]
        assert vals[0] == vals[1] == vals[2]

    def test_loss_decreases_with_learning(self, tmp_path):
        config, topo, tr, va, _ = small_setup()
        params = init_model_params(config, seed=0)
        plan = TrainPlan(epochs=12, batch_size=4, seed=0)
        state = init_adamw(named_parameters(params), lr=5e-3, weight_decay=1e-5)
        result = train(params, config, topo, tr, va, plan, state, tmp_path)
        assert result.records[-1]["train_loss"] < 0.6 * result.records[0]["train_loss"]

    def test_log_file_and_records(self, tmp_path):
        config, topo, tr, va, _ = small_setup()
        params = init_model_params(config, seed=0)
        plan = TrainPlan(epochs=2, batch_size=4, seed=0)
        state = init_adamw(named_parameters(params), lr=1e-3)
        result = train(params, config, topo, tr, va, plan, state, tmp_path)
        lines = (tmp_path / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for epoch, line in enumerate(lines):
            rec = json.loads(line)
            assert rec == result.records[epoch]
            assert set(rec) == {"epoch", "train_loss", "val_loss", "val_acc", "wall_seconds"}
            assert rec["epoch"] == epoch
        assert (tmp_path / "best.ckpt").exists()
        accs = [r["val_acc"] for r in result.records]
        assert result.best_val_acc == max(accs)
        assert result.best_epoch == accs.index(max(accs))

    def test_no_parameter_holds_a_gradient_after_train(self, tmp_path):
        config, topo, tr, va, _ = small_setup()
        params = init_model_params(config, seed=0)
        named = named_parameters(params)
        train(params, config, topo, tr, va, TrainPlan(epochs=2, batch_size=4, seed=0),
              init_adamw(named, lr=1e-3), tmp_path)
        assert [name for name, t in named if t.grad is not None] == []

    def test_rerun_reproduces_log_and_checkpoint(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            config, topo, tr, va, _ = small_setup(dropout=0.3)
            params = init_model_params(config, seed=0)
            plan = TrainPlan(epochs=3, batch_size=4, seed=5)
            state = init_adamw(named_parameters(params), lr=1e-3, weight_decay=1e-5)
            out = tmp_path / run
            train(params, config, topo, tr, va, plan, state, out)
            outs.append(out)
        logs = []
        for out in outs:
            recs = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
            for r in recs:
                r.pop("wall_seconds")
            logs.append(recs)
        assert logs[0] == logs[1]
        assert (outs[0] / "best.ckpt").read_bytes() == (outs[1] / "best.ckpt").read_bytes()

    def test_best_checkpoint_holds_best_epoch_params(self, tmp_path):
        from skelgru.checkpoint import load_checkpoint

        config, topo, tr, va, _ = small_setup()
        params = init_model_params(config, seed=0)
        plan = TrainPlan(epochs=4, batch_size=4, seed=0)
        state = init_adamw(named_parameters(params), lr=5e-3)
        result = train(params, config, topo, tr, va, plan, state, tmp_path)
        loaded, cfg, topo_hash = load_checkpoint(
            tmp_path / "best.ckpt", expected_config=config,
            expected_topology_hash=topo.canonical_hash(),
        )
        assert cfg == config and topo_hash == topo.canonical_hash()
        report = evaluate(loaded, config, topo, va)
        assert abs(report.accuracy - result.best_val_acc) <= 1e-12

    def test_patience_stops_early(self, tmp_path):
        config, topo, tr, va, _ = small_setup()
        params = init_model_params(config, seed=0)
        plan = TrainPlan(epochs=10, batch_size=4, seed=0, patience=2)
        state = init_adamw(named_parameters(params), lr=0.0)  # val_acc frozen
        result = train(params, config, topo, tr, va, plan, state, tmp_path)
        assert result.stopped_early
        assert len(result.records) == 3  # epoch 0 best, then patience 2
        assert result.best_epoch == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_tensor_name(self, tmp_path):
        config, topo, tr, va, _ = small_setup()
        params = init_model_params(config, seed=0)
        params.embed_w.data[...] = 1e308
        plan = TrainPlan(epochs=1, batch_size=4, seed=0)
        state = init_adamw(named_parameters(params), lr=1e-3)
        with pytest.raises(NumericsError, match="non-finite loss.*#"):
            train(params, config, topo, tr, va, plan, state, tmp_path)

    def test_empty_split_rejected(self):
        """An empty split cannot be built, so ``train`` never sees one."""
        _, _, tr, *_ = small_setup()
        with pytest.raises(DataFormatError, match="at least one sample"):
            PreparedSplit(tr.features[:0], tr.mask[:0], tr.labels[:0])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_retain_freed_memory_keeps_freed_pages_mapped():
    retain_freed_memory()

    def churn():
        arrays = [np.ones(1 << 20) for _ in range(8)]  # 8 x 8 MB, freed together
        del arrays

    churn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    churn()
    # glibc's defaults trim the freed top and fault about 4000 pages back in
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def _fresh_python(script: str) -> str:
    """Run ``script`` in a new interpreter on this checkout's sources and
    return what it printed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_EVAL_TWICE = textwrap.dedent("""
    import resource
    import numpy as np
    from skelgru.data import PreparedSplit
    from skelgru.graph import chain_topology
    from skelgru.model import ModelConfig, init_model_params
    from skelgru.training import eval_logits
    config = ModelConfig(stages=4, heads=4, hidden=32, seq_len=32, n_nodes=9, classes=5)
    rng = np.random.default_rng(0)
    batch = PreparedSplit(rng.normal(size=(32, 32, 9, 2)), np.ones((32, 32), bool),
                          rng.integers(0, 5, 32))
    params = init_model_params(config, seed=0)
    eval_logits(params, config, chain_topology(9), batch, batch_size=32)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    eval_logits(params, config, chain_topology(9), batch, batch_size=32)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_eval_logits_runs_on_the_retained_heap_in_a_fresh_process():
    # a fresh interpreter, because any earlier train call or test in this
    # process has already set the policy
    # with glibc's defaults a desk batch faults about 12k freed pages back in
    assert int(_fresh_python(_EVAL_TWICE)) < 200


_TRAIN_STEPS = textwrap.dedent("""
    import json, sys, tempfile
    import numpy as np
    from skelgru import training
    from skelgru.data import PreparedSplit
    from skelgru.graph import resolve_topology
    from skelgru.model import ModelConfig, init_model_params, named_parameters
    # the paper's head widths, where the parameters weigh as much as a few
    # tape streams: 9 MB, most of it in fc1.w
    config = ModelConfig(stages=4, gnn_kind="gcn", hidden=64, seq_len=32, n_nodes=17, classes=226)
    rng = np.random.default_rng(0)
    def part(n):
        return PreparedSplit(rng.normal(size=(n, 32, 17, 2)), np.ones((n, 32), bool),
                             rng.integers(0, 226, n))
    params = init_model_params(config, seed=0)
    named = named_parameters(params)
    def peak():  # ru_maxrss would carry the peak of the process that spawned this one
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))
    readings = []
    step = training.adamw_step
    def recorded(*args):
        step(*args)
        readings.append(peak())
    training.adamw_step = recorded
    with tempfile.TemporaryDirectory() as out:
        training.train(params, config, resolve_topology("upper17"), part(24), part(4),
                       training.TrainPlan(epochs=1, batch_size=4), training.init_adamw(named, lr=1e-3),
                       out)
    json.dump({"readings": readings, "params": sum(t.data.nbytes for _, t in named)}, sys.stdout)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/status"),
                    reason="the heap placed is glibc's, the peak read is Linux's VmHWM")
def test_training_steps_reuse_the_heap_in_a_fresh_process():
    """Each step writes the parameters and moments where they are and
    releases its gradients, so no step pins a copy of the parameters in
    the heap its tape freed. Swapping new arrays in and keeping the
    gradients until the next backward grew this peak by 25-30 MB over
    six steps, about three copies of the 9 MB of parameters (glibc 2.36);
    what is left, 1-5 MB, is the heap settling once around small
    allocations of the first step."""
    got = json.loads(_fresh_python(_TRAIN_STEPS))
    first, *_, last = got["readings"]
    assert len(got["readings"]) == 6
    assert last - first < got["params"], f"peak grew {last - first} bytes after the first step"
