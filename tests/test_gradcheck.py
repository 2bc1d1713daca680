"""The finite-difference checker itself, and the gate built on it."""

import dataclasses

import numpy as np
import pytest

from skelgru import ops
from skelgru.gradcheck import (
    NondeterministicFunctionError,
    finite_diff_check,
    finite_diff_report,
    gate_rows,
)
from skelgru.data import PreparedSplit
from skelgru.graph import GATLayerParams, SkeletonTopology, chain_topology, gat_forward
from skelgru.model import init_model_params, model_forward, tiny_reference_config
from skelgru.tensor import Tape, Tensor


def test_quadratic_passes():
    x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
    err = finite_diff_check(lambda: ops.sum_all(ops.mul(x, x)), x)
    assert err <= 1e-8


def test_unused_param_has_zero_gradient():
    x = Tensor([1.0], requires_grad=True)
    unused = Tensor([3.0], requires_grad=True)
    err = finite_diff_check(lambda: ops.sum_all(ops.mul(x, x)), unused)
    assert err <= 1e-8


def test_constant_function_passes():
    p = Tensor([2.0], requires_grad=True)
    c = Tensor([1.0, 2.0])
    err = finite_diff_check(lambda: ops.sum_all(c), p)
    assert err == 0.0


def test_eps_range_enforced():
    x = Tensor([1.0], requires_grad=True)
    f = lambda: ops.sum_all(x)  # noqa: E731
    with pytest.raises(ValueError):
        finite_diff_check(f, x, eps=1e-8)
    with pytest.raises(ValueError):
        finite_diff_check(f, x, eps=1e-2)


def test_nondeterministic_forward_detected():
    # distinct coordinate values: two masks agree on the sum only if equal
    x = Tensor(np.arange(1.0, 51.0), requires_grad=True)
    rng = np.random.default_rng(0)  # shared generator: each call draws new masks

    def f():
        return ops.sum_all(ops.dropout(x, 0.5, training=True, rng=rng))

    with pytest.raises(NondeterministicFunctionError):
        finite_diff_check(f, x)


def test_wrong_gradient_is_flagged():
    # sum(x * stop(x)) where stop() hides one factor from the tape:
    # analytic grad is x, true derivative is 2x, so the check must fail.
    x = Tensor([1.0, 2.0], requires_grad=True)

    def f():
        frozen = Tensor(x.data.copy())
        return ops.sum_all(ops.mul(x, frozen))

    err = finite_diff_check(f, x)
    assert err > 0.3


@pytest.mark.parametrize("seed", range(4))
def test_true_zero_gradient_reads_as_agreement(seed):
    """Every pair score of a row shares a sign, so the self half of the
    scorer a[0] has a true gradient of 0 (softmax is shift-invariant); its
    central difference is rounding noise, which must not read as a failure."""
    rng = np.random.default_rng(seed)

    def t(loc, *shape):
        return Tensor(rng.normal(loc, 1.0, size=shape), requires_grad=True)

    star = SkeletonTopology(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    gat = GATLayerParams(2, [t(1.0, 3, 2) for _ in range(2)], [t(2.0, 4) for _ in range(2)])
    h, weights = t(2.0, 6, 5, 3), Tensor(rng.normal(0.0, 10.0, size=(6, 5, 4)))
    err = finite_diff_check(lambda: ops.sum_all(ops.mul(gat_forward(gat, h, star), weights)), gat.a[0])
    assert err <= 1e-6


def test_wrong_gradient_above_rounding_is_flagged():
    """Gradients wrong by more than central differences' rounding (under 1e-8
    of a loss near 10) still fail: 1e-6 where the true gradient is 0, and a
    relative 1e-5 where it is not."""
    z = Tensor([0.0], requires_grad=True)
    y = Tensor([1.0, -2.0], requires_grad=True)
    tilt = Tensor([1e-6])

    def f():
        # the loss is z**2 + (1 + 1e-5) * sum(y**2) + 10; the tape sees 1e-6 * z + sum(y**2)
        hidden = Tensor(float(z.data @ z.data - tilt.data @ z.data + 1e-5 * y.data @ y.data + 10.0))
        return ops.add(ops.add(ops.sum_all(ops.mul(z, tilt)), ops.sum_all(ops.mul(y, y))), hidden)

    report = finite_diff_report(f, [("z", z), ("y", y)])
    assert report["z"] > 0.3
    assert report["y"] > 1e-6


@pytest.fixture(scope="module")
def gate_labels():
    return [label for label, _, _ in gate_rows(0)]


@pytest.mark.parametrize("gnn_kind", ["gat", "gcn"])
def test_gate_checks_every_op_a_training_step_records(gnn_kind, gate_labels):
    config = dataclasses.replace(tiny_reference_config(), gnn_kind=gnn_kind, dropout_rate=0.3)
    params = init_model_params(config, seed=0)
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(2, config.seq_len, config.n_nodes, config.input_dim))
    batch = PreparedSplit(feats, np.ones((2, config.seq_len), dtype=bool), np.array([0, 2]))
    with Tape() as tape:
        logits = model_forward(params, config, batch, chain_topology(config.n_nodes), training=True,
                               rng=np.random.default_rng(7))
        ops.cross_entropy(logits, batch.labels)
    recorded = {rec.op for rec in tape.records}
    assert {"linear", "attention_pool", f"{gnn_kind}_layer", "dropout"} <= recorded
    unchecked = {op for op in recorded if not any(label.startswith(f"primitive {op}") for label in gate_labels)}
    assert not unchecked, f"ops with no gradcheck row: {sorted(unchecked)}"


def test_report_covers_all_params():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([[0.5], [0.25]], requires_grad=True)

    def f():
        return ops.sum_all(ops.matmul(ops.reshape(a, (1, 2)), b))

    report = finite_diff_report(f, [("a", a), ("b", b)])
    assert set(report) == {"a", "b"}
    assert all(v <= 1e-8 for v in report.values())
