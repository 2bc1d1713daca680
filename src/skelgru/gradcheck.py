"""Central-difference verification of tape gradients, and the gate that
``skelgru gradcheck`` runs with it: one row per checked input of each
differentiable building block, then one per parameter of the tiny model.

The numeric route perturbs one parameter coordinate at a time and never
touches the tape, so it stays independent of the analytic path it checks.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from . import ops
from .cells import GRUCellParams, gru_sequence
from .graph import GATLayerParams, SkeletonTopology, chain_topology, gat_forward, gcn_forward
from .model import (ModelConfig, SequenceBatch, init_model_params, model_forward, named_parameters,
                    temporal_attention_pool, tiny_reference_config)
from .seeding import derive_rng
from .tensor import Tape, Tensor, backward

PRIMITIVE_LIMIT = 1e-6
PARAM_LIMIT = 1e-4

# One forward pass rounds at every op and every summed term, so its value may
# be off by several machine epsilons of |f|: up to 10 on a star GAT layer's
# weighted sum over 300 random draws. 32 leaves room for longer chains.
_ROUNDING = 32 * np.finfo(np.float64).eps


class NondeterministicFunctionError(RuntimeError):
    """Two identical forward passes disagreed; finite differences need a pure f."""


def _analytic_gradients(f: Callable[[], Tensor], params: list[Tensor]) -> list[np.ndarray]:
    with Tape() as tape:
        loss = f()
    if not loss.requires_grad:
        # f ignores every tracked parameter; the true gradient is zero.
        return [np.zeros_like(p.data) for p in params]
    backward(tape, loss)
    return [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]


def _check_deterministic(f: Callable[[], Tensor]) -> float:
    a = float(f().data)
    b = float(f().data)
    if a != b:
        raise NondeterministicFunctionError(
            f"forward pass is not deterministic: {a!r} vs {b!r} (is dropout still enabled?)"
        )
    return a


def _numeric_max_error(f, param: Tensor, analytic: np.ndarray, eps: float) -> float:
    """Max relative error over the coordinates whose analytic and numeric
    gradients differ by more than the difference quotient's own rounding;
    below it they agree as far as central differences can tell, which keeps
    a true zero gradient from reading rounding noise as a failure."""
    flat = param.data.reshape(-1)
    aflat = analytic.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f().data)
        flat[i] = orig - eps
        fm = float(f().data)
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * eps)
        gap = abs(aflat[i] - numeric)
        if gap > _ROUNDING * max(abs(fp), abs(fm)) / eps:
            worst = max(worst, gap / max(abs(aflat[i]), abs(numeric), 1e-8))
    return worst


def finite_diff_check(f: Callable[[], Tensor], param: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients of ``f`` and central differences.

    ``f`` takes no arguments, reads ``param`` (and anything else) by closure,
    and must be deterministic. Only ``param``'s coordinates are perturbed.
    """
    return finite_diff_report(f, [("", param)], eps)[""]


def finite_diff_report(
    f: Callable[[], Tensor],
    named_params: Iterable[tuple[str, Tensor]],
    eps: float = 1e-5,
) -> dict[str, float]:
    """Per-parameter max relative errors, sharing one analytic backward pass."""
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    named = list(named_params)
    analytic = _analytic_gradients(f, [p for _, p in named])
    _check_deterministic(f)
    return {
        name: _numeric_max_error(f, param, grad, eps)
        for (name, param), grad in zip(named, analytic)
    }


def _primitive_table(seed: int) -> list[tuple[str, Callable[[], Tensor], Tensor]]:
    """(label, f, leaf) for each checked input of each differentiable building
    block. Inputs are drawn in row order, so a row appended at the end leaves
    every earlier row's inputs as they were."""
    rng = derive_rng(seed, "gradcheck-prims")

    def t(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def weighted(y, w):
        return ops.sum_all(ops.mul(y, w))

    a, b = t(3, 4), t(4, 2)
    x = Tensor(rng.normal(size=(4, 5)) + np.where(rng.normal(size=(4, 5)) > 0, 2.0, -2.0),
               requires_grad=True)
    u, v = t(3, 3), t(3, 3)
    h, bias = t(4, 6), t(6)
    logits, weights = t(3, 4), t(3, 4)
    mask = np.zeros((3, 4))
    mask[0, 2] = -np.inf
    rn_x, rn_block, gain, rn_b, rn_weights = t(4, 6), t(4, 6), t(6), t(6), t(4, 6)
    ce_logits = t(5, 3)
    labels = rng.integers(0, 3, size=5)
    drop_x = t(4, 5)
    gru = GRUCellParams(t(3, 5), t(3), t(3, 5), t(3), t(3, 5), t(3))
    seq_x, seq_h0, seq_weights = t(4, 2, 2), t(2, 3), t(4, 2, 3)
    star = SkeletonTopology(5, ((0, 1), (0, 2), (0, 3)))  # degree-3 node 0, isolated node 4
    gat = GATLayerParams(2, [t(3, 2) for _ in range(2)], [t(4) for _ in range(2)])
    gat_h, gat_weights = t(2, 3, 5, 3), t(2, 3, 5, 4)
    gcn_h, gcn_w, gcn_weights = t(2, 3, 5, 3), t(3, 4), t(2, 3, 5, 4)
    lin_x, lin_w, lin_b, lin_weights = t(2, 3, 4), t(4, 5), t(5), t(2, 3, 5)
    pool_h, attn_w, attn_b, pool_weights = t(4, 2, 3, 2), t(6), t(1), t(2, 6)  # [T, B, N, H]
    pool_mask = np.ones((2, 4), dtype=bool)
    pool_mask[0, -1] = False

    def rows(prefix, f, /, **leaves):
        return [(f"{prefix}_{name}", f, leaf) for name, leaf in leaves.items()]

    return [
        ("matmul", lambda: ops.sum_all(ops.matmul(a, b)), a),
        *[(name, lambda name=name: ops.sum_all(ops.elementwise(name, x)), x)
          for name in ("sigmoid", "tanh", "relu", "elu", "leaky_relu")],
        ("mul", lambda: ops.sum_all(ops.mul(u, v)), v),
        ("add_bias", lambda: ops.sum_all(ops.elementwise("tanh", ops.add_bias(h, bias))), bias),
        ("softmax_rows", lambda: weighted(ops.softmax_rows(ops.add(logits, Tensor(mask))), weights), logits),
        *rows("residual_norm", lambda: weighted(ops.residual_norm(rn_block, rn_x, gain, rn_b, 1e-5), rn_weights),
              x=rn_x, block=rn_block, gain=gain),
        ("cross_entropy", lambda: ops.cross_entropy(ce_logits, labels), ce_logits),
        ("dropout", lambda: ops.sum_all(ops.dropout(
            drop_x, 0.4, training=True, rng=derive_rng(seed, "gradcheck-drop"))), drop_x),
        *rows("gru_sequence", lambda: weighted(gru_sequence(gru, seq_x, seq_h0), seq_weights),
              x=seq_x, h0=seq_h0, w_h=gru.w_h),
        *rows("gat_layer", lambda: weighted(gat_forward(gat, gat_h, star), gat_weights),
              h=gat_h, w=gat.w[1], a=gat.a[0]),
        *rows("gcn_layer", lambda: weighted(gcn_forward(gcn_w, gcn_h, star, act="elu"), gcn_weights),
              h=gcn_h, w=gcn_w),
        *rows("linear", lambda: weighted(ops.linear(lin_x, lin_w, lin_b), lin_weights), x=lin_x, w=lin_w),
        *rows("attention_pool", lambda: weighted(temporal_attention_pool(
            attn_w, attn_b, pool_h, pool_mask, time_major=True), pool_weights), h=pool_h, w=attn_w),
    ]


def model_gradient_report(
    config: ModelConfig,
    topo: SkeletonTopology,
    seed: int = 0,
    eps: float = 1e-4,
) -> dict[str, float]:
    """Finite-difference error per parameter for the whole model's loss.

    Builds a random batch (with one padded frame so the masking path is
    exercised), runs the forward with dropout off, and compares tape
    gradients against central differences coordinate by coordinate, with
    the default step at the top of the legal range.
    """
    params = init_model_params(config, seed)
    rng = derive_rng(seed, "gradcheck-batch")
    b = 2
    feats = rng.normal(0.0, 1.0, (b, config.seq_len, config.n_nodes, config.input_dim))
    mask = np.ones((b, config.seq_len), dtype=bool)
    if config.seq_len > 1:
        mask[-1, -1] = False
        feats[-1, -1] = 0.0
    labels = rng.integers(0, config.classes, size=b)
    batch = SequenceBatch(Tensor(feats), mask, labels)

    def f():
        logits = model_forward(params, config, batch, topo, training=False)
        return ops.cross_entropy(logits, batch.labels)

    return finite_diff_report(f, named_parameters(params), eps=eps)


def gate_rows(seed: int) -> list[tuple[str, float, float]]:
    """(label, error, limit) for every row of ``skelgru gradcheck``: each
    primitive in table order, then each tiny-model parameter by name."""
    rows = [(f"primitive {label}", finite_diff_check(f, leaf), PRIMITIVE_LIMIT)
            for label, f, leaf in _primitive_table(seed)]
    config = tiny_reference_config()
    report = model_gradient_report(config, chain_topology(config.n_nodes), seed=seed)
    return rows + [(f"param {name}", report[name], PARAM_LIMIT) for name in sorted(report)]
