"""The full classifier: embed, stacked residual graph-recurrent stages,
temporal attention pooling, dense head.

Batches are [batch B, frames T, nodes N, features]; the stream between
embedding and pooling is time-major, [T, B, N, H]. Each stage runs the
spatial layer per frame, then a shared-weight GRU along t per (sample,
node), which reads the stream as it is; a fused residual layer norm
closes the stage. Pooling flattens each frame to one N*H vector, scores
it with a shared linear map, and softmaxes the scores over real frames
only.

The embedding and the head's output layer are each one ``linear`` record,
which keeps its operands but no product, and pooling is one
``attention_pool`` record, which reads the stream through a view and keeps
only the attention weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .cells import GRUCellParams, unroll
from .graph import GATLayerParams, SkeletonTopology, gat_forward, gcn_forward
from .seeding import derive_rng
from .tensor import MaskError, ShapeError, Tensor, tape_for

GNN_KINDS = ("gcn", "gat")


@dataclass
class ModelConfig:
    """Architecture hyperparameters; widths must chain consistently."""

    stages: int = 16
    gnn_kind: str = "gat"
    heads: int = 8
    hidden: int = 64
    seq_len: int = 32
    n_nodes: int = 17
    input_dim: int = 2
    classes: int = 226
    dropout_rate: float = 0.3
    norm_epsilon: float = 1e-5
    fc_width: int = 0  # 0 means n_nodes*hidden // 2

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError(f"stages must be >= 1, got {self.stages}")
        if self.gnn_kind not in GNN_KINDS:
            raise ValueError(f"gnn_kind must be one of {list(GNN_KINDS)}, got {self.gnn_kind!r}")
        if self.gnn_kind == "gat":
            if self.heads < 1 or self.hidden % self.heads:
                raise ValueError(
                    f"hidden ({self.hidden}) must be divisible by heads ({self.heads})"
                )
        if self.classes < 2:
            raise ValueError(f"classes must be >= 2, got {self.classes}")
        if self.seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {self.seq_len}")
        if self.input_dim not in (2, 3):
            raise ValueError(f"input_dim must be 2 or 3, got {self.input_dim}")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not 0 < self.norm_epsilon < np.inf:  # NaN fails this test
            raise ValueError(f"norm_epsilon must be finite and positive, got {self.norm_epsilon}")
        if self.fc_width < 0:
            raise ValueError(f"fc_width must be >= 0, got {self.fc_width}")

    @property
    def flat_width(self) -> int:
        """Width of one flattened frame: n_nodes * hidden."""
        return self.n_nodes * self.hidden

    @property
    def classifier_width(self) -> int:
        return self.fc_width if self.fc_width else max(1, self.flat_width // 2)


@dataclass
class StageParams:
    """One residual stage: spatial layer, per-node GRU, norm affine."""

    gnn: Tensor | GATLayerParams  # GCN weight [H, H] or GAT parameters
    gru: GRUCellParams
    norm_gain: Tensor
    norm_bias: Tensor


@dataclass
class ModelParams:
    embed_w: Tensor
    embed_b: Tensor
    stages: list[StageParams]
    attn_w: Tensor  # [n_nodes*hidden]
    attn_b: Tensor  # scalar score offset, stored as a 1-element tensor
    fc1: Tensor  # [n_nodes*hidden, F], no bias
    fc2: Tensor  # [F, F], no bias
    out_w: Tensor  # [F, classes]
    out_b: Tensor  # [classes]


@dataclass
class SequenceBatch:
    """Padded batch: features [B, T, N, d], frame mask [B, T], labels [B]."""

    features: Tensor
    mask: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 4:
            raise ShapeError(f"features must be [B,T,N,d], got {list(self.features.shape)}")
        b, t = self.features.shape[:2]
        if self.mask.shape != (b, t):
            raise ShapeError(f"mask {list(self.mask.shape)} does not match frames [{b},{t}]")
        if self.labels.shape != (b,):
            raise ShapeError(f"labels {list(self.labels.shape)} do not match batch {b}")
        if not self.mask.any(axis=1).all():
            bad = int(np.flatnonzero(~self.mask.any(axis=1))[0])
            raise MaskError(f"sample {bad} has no unmasked frames")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError(f"negative label {self.labels.min()}")

    @property
    def size(self) -> int:
        return self.features.shape[0]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def init_model_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Fan-based uniform init for matrices, zeros for biases, unit norm gain."""
    rng = derive_rng(seed, "init")
    h = config.hidden
    stages = []
    for _ in range(config.stages):
        if config.gnn_kind == "gcn":
            gnn = _glorot(rng, h, h, (h, h))
        else:
            d_head = h // config.heads
            gnn = GATLayerParams(
                heads=config.heads,
                w=[_glorot(rng, h, d_head, (h, d_head)) for _ in range(config.heads)],
                a=[_glorot(rng, 2 * d_head, 1, (2 * d_head,)) for _ in range(config.heads)],
            )
        gru = GRUCellParams(
            w_z=_glorot(rng, 2 * h, h, (h, 2 * h)), b_z=_zeros(h),
            w_r=_glorot(rng, 2 * h, h, (h, 2 * h)), b_r=_zeros(h),
            w_h=_glorot(rng, 2 * h, h, (h, 2 * h)), b_h=_zeros(h),
        )
        stages.append(StageParams(
            gnn=gnn, gru=gru,
            norm_gain=Tensor(np.ones(h), requires_grad=True),
            norm_bias=_zeros(h),
        ))
    flat = config.flat_width
    fc = config.classifier_width
    return ModelParams(
        embed_w=_glorot(rng, config.input_dim, h, (config.input_dim, h)),
        embed_b=_zeros(h),
        stages=stages,
        attn_w=_glorot(rng, flat, 1, (flat,)),
        attn_b=_zeros(1),
        fc1=_glorot(rng, flat, fc, (flat, fc)),
        fc2=_glorot(rng, fc, fc, (fc, fc)),
        out_w=_glorot(rng, fc, config.classes, (fc, config.classes)),
        out_b=_zeros(config.classes),
    )


def named_parameters(params: ModelParams) -> list[tuple[str, Tensor]]:
    """Stable (name, tensor) listing; zero-padded stage ids keep sorted order
    equal to construction order."""
    out = [("embed.w", params.embed_w), ("embed.b", params.embed_b)]
    for i, stage in enumerate(params.stages):
        tag = f"stage{i:02d}"
        if isinstance(stage.gnn, Tensor):
            out.append((f"{tag}.gcn.w", stage.gnn))
        else:
            for k in range(stage.gnn.heads):
                out.append((f"{tag}.gat.h{k}.w", stage.gnn.w[k]))
                out.append((f"{tag}.gat.h{k}.a", stage.gnn.a[k]))
        for gate in ("w_z", "b_z", "w_r", "b_r", "w_h", "b_h"):
            out.append((f"{tag}.gru.{gate}", getattr(stage.gru, gate)))
        out.append((f"{tag}.norm.gain", stage.norm_gain))
        out.append((f"{tag}.norm.bias", stage.norm_bias))
    out += [
        ("attn.w", params.attn_w), ("attn.b", params.attn_b),
        ("fc1.w", params.fc1), ("fc2.w", params.fc2),
        ("out.w", params.out_w), ("out.b", params.out_b),
    ]
    return out


def embed_input(params: ModelParams, batch: SequenceBatch) -> Tensor:
    """Shared per-node linear map d -> H into the stream [T, B, N, H], one
    ``linear`` record; the untracked features are transposed first, so the
    bias sums a contiguous gradient."""
    frames = ops.transpose(batch.features, (1, 0, 2, 3))
    return ops.linear(frames, params.embed_w, params.embed_b)


def stage_forward(stage: StageParams, h_in: Tensor, topo: SkeletonTopology) -> Tensor:
    """Spatial layer per frame, then a GRU along t per (sample, node).

    The GRU weights are shared across nodes; each of the B*N node tracks
    is an independent sequence of length T.
    """
    if h_in.ndim != 4:
        raise ShapeError(f"stage input must be [T,B,N,H], got {list(h_in.shape)}")
    if isinstance(stage.gnn, Tensor):
        spatial = gcn_forward(stage.gnn, h_in, topo, act="relu")
    else:
        spatial = gat_forward(stage.gnn, h_in, topo, act="elu")
    assert spatial.shape == h_in.shape
    return unroll(stage.gru, spatial)


def residual_norm_stage(stage: StageParams, h_in: Tensor, topo: SkeletonTopology, eps: float) -> Tensor:
    """Norm(block(x) + x), normalized over the feature axis per node per frame."""
    block = stage_forward(stage, h_in, topo)
    return ops.residual_norm(block, h_in, stage.norm_gain, stage.norm_bias, eps)


def _frames_and_weights(
    attn_w: Tensor, attn_b: Tensor, h_final: Tensor, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The frames of the stream ``h_final`` [T, B, N, H] as a [B, T, N*H]
    view, never a copy, and their attention weights alpha [B, T]: a softmax
    over unmasked frames only. It makes the numpy calls of the per-op chain
    (score matmul, bias, mask add, softmax)."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=1).all():
        bad = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise MaskError(f"sample {bad} has no unmasked frames")
    t, b, n, h = h_final.shape
    if attn_w.shape != (n * h,):
        raise ShapeError(f"attention weights {list(attn_w.shape)} do not match frame width {n * h}")
    if mask.shape != (b, t):
        raise ShapeError(f"mask {list(mask.shape)} does not match frames [{b},{t}]")
    frames = h_final.data.reshape(t, b, n * h).transpose(1, 0, 2)
    scores = np.matmul(frames, attn_w.data.reshape(n * h, 1)) + attn_b.data
    masked = scores.reshape(b, t) + np.where(mask, 0.0, -np.inf)
    e = np.exp(masked - masked.max(axis=-1, keepdims=True))
    return frames, e / e.sum(axis=-1, keepdims=True)


def temporal_attention_weights(
    attn_w: Tensor, attn_b: Tensor, h_final: Tensor, mask: np.ndarray
) -> Tensor:
    """Per-frame attention weights [B, T] of the stream ``h_final`` [T, B, N, H],
    untaped: softmax over unmasked frames only."""
    return Tensor(_frames_and_weights(attn_w, attn_b, h_final, mask)[1])


def temporal_attention_pool(
    attn_w: Tensor, attn_b: Tensor, h_final: Tensor, mask: np.ndarray
) -> Tensor:
    """Attention-weighted sum of the N*H-flattened frames of the stream
    ``h_final`` [T, B, N, H]; masked frames get exactly zero weight.

    One ``attention_pool`` record over (h_final, attn_w, attn_b) that keeps
    alpha and reads the frames through a view, so no copy of the stream is
    made. Its backward makes the per-op chain's numpy calls in that chain's
    order and adds the frames' two gradients (through the weighted sum, then
    through the scores) as its tape did, so every gradient has its bits,
    straight into a C-contiguous array in ``h_final``'s own layout; besides
    that array it adds one sample's [T, N*H] slab.
    """
    frames, alpha = _frames_and_weights(attn_w, attn_b, h_final, mask)
    b, t, width = frames.shape
    alpha3 = alpha.reshape(b, 1, t)
    out = Tensor(np.matmul(alpha3, frames).reshape(b, width))
    ins = (h_final, attn_w, attn_b)
    tape = tape_for(ins)
    if tape is None:
        return out
    w_col = attn_w.data.reshape(width, 1)

    def back(grad):
        g = grad.reshape(b, 1, width)
        d_alpha = np.matmul(g, np.swapaxes(frames, -1, -2)).reshape(b, t)
        # the chain's k=1 matmuls, written into h_final's layout a sample at a time
        d_h = np.empty(h_final.shape)
        d_frames = d_h.reshape(t, b, width).transpose(1, 0, 2)
        np.matmul(np.swapaxes(alpha3, -1, -2), g, out=d_frames)
        d_scores = alpha * (d_alpha - (d_alpha * alpha).sum(axis=-1, keepdims=True))
        d_scores = d_scores.reshape(b, t, 1)
        slab = np.empty((t, width))
        for frames_i, scores_i in zip(d_frames, d_scores):
            frames_i += np.matmul(scores_i, np.swapaxes(w_col, -1, -2), out=slab)
        d_w = np.matmul(np.swapaxes(frames, -1, -2), d_scores).sum(axis=0).reshape(width)
        return d_h, d_w, d_scores.sum(axis=(0, 1))

    tape.record("attention_pool", ins, out, back)
    return out


def classify(
    params: ModelParams,
    pooled: Tensor,
    training: bool = False,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.3,
) -> Tensor:
    """Two bias-free dense layers with activation and dropout, then the
    linear output map; returns raw logits."""
    h1 = ops.dropout(ops.elementwise("relu", ops.matmul(pooled, params.fc1)), dropout_rate, training, rng)
    h2 = ops.dropout(ops.elementwise("relu", ops.matmul(h1, params.fc2)), dropout_rate, training, rng)
    return ops.linear(h2, params.out_w, params.out_b)


def model_forward(
    params: ModelParams,
    config: ModelConfig,
    batch: SequenceBatch,
    topo: SkeletonTopology,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Embed, run all residual stages, pool over time, classify.

    Call under one Tape to make backward() differentiate the whole model.
    """
    b, t, n, d = batch.features.shape
    if n != config.n_nodes or d != config.input_dim:
        raise ShapeError(
            f"batch frames [{n} nodes x {d}] do not match config "
            f"[{config.n_nodes} x {config.input_dim}]"
        )
    if t != config.seq_len:
        raise ShapeError(f"batch has {t} frames, config.seq_len is {config.seq_len}")
    if topo.n_nodes != config.n_nodes:
        raise ShapeError(f"topology has {topo.n_nodes} nodes, config expects {config.n_nodes}")
    h = embed_input(params, batch)
    assert h.shape == (t, b, n, config.hidden)
    for stage in params.stages:
        h = residual_norm_stage(stage, h, topo, config.norm_epsilon)
        assert h.shape == (t, b, n, config.hidden)
    pooled = temporal_attention_pool(params.attn_w, params.attn_b, h, batch.mask)
    assert pooled.shape == (b, config.flat_width)
    logits = classify(params, pooled, training, rng, config.dropout_rate)
    assert logits.shape == (b, config.classes)
    return logits


def predict(logits: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Per sample: (argmax class, softmax probability at it); ties go to the
    lowest class index."""
    data = logits.data
    if data.ndim != 2:
        raise ShapeError(f"predict expects [B, C] logits, got {list(data.shape)}")
    idx = data.argmax(axis=1)  # argmax returns the first (lowest) max index
    return idx, ops.softmax_rows(logits).data[np.arange(len(idx)), idx]


def tiny_reference_config() -> ModelConfig:
    """Small widths used by the end-to-end gradient check."""
    return ModelConfig(
        stages=2, gnn_kind="gat", heads=2, hidden=4, seq_len=3,
        n_nodes=3, input_dim=2, classes=3, dropout_rate=0.0,
    )

