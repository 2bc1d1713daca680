"""Spatial layers over a fixed skeleton graph.

Two per-frame layers share one topology: a degree-normalized graph
convolution (propagation through D^-1/2 (A+I) D^-1/2) and a multi-head
attention layer whose coefficients are a masked softmax over each node's
closed neighborhood. Both accept a single frame [N, d] or a stack of
frames [..., N, d] and treat leading axes as independent graphs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .tensor import ShapeError, Tensor


class TopologyError(ValueError):
    """The node/edge description violates the skeleton-graph invariants."""


@dataclass(frozen=True)
class SkeletonTopology:
    """Fixed joint graph shared by every frame: N nodes, undirected edges.

    Self-loops are forbidden here; normalization adds them. Edges are
    stored canonically as sorted pairs.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n_nodes < 1:
            raise TopologyError(f"n_nodes must be positive, got {self.n_nodes}")
        canon = []
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise TopologyError(f"self-loop on node {i}")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise TopologyError(f"edge ({i},{j}) outside [0, {self.n_nodes})")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise TopologyError(f"duplicate edge {pair}")
            seen.add(pair)
            canon.append(pair)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        if self.names is not None and len(self.names) != self.n_nodes:
            raise TopologyError(
                f"{len(self.names)} names for {self.n_nodes} nodes"
            )

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_nodes, self.n_nodes))
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1.0
        return a

    def closed_neighborhood(self) -> np.ndarray:
        """Boolean [N, N]: adjacency plus the diagonal."""
        m = self.adjacency().astype(bool)
        np.fill_diagonal(m, True)
        return m

    def canonical_hash(self) -> str:
        text = f"{self.n_nodes}|" + ",".join(f"{i}-{j}" for i, j in self.edges)
        return hashlib.sha256(text.encode()).hexdigest()


def chain_topology(n_nodes: int) -> SkeletonTopology:
    return SkeletonTopology(n_nodes, tuple((i, i + 1) for i in range(n_nodes - 1)))


_UPPER17_NAMES = (
    "nose", "left_eye", "right_eye", "left_ear", "right_ear",
    "neck", "left_shoulder", "right_shoulder",
    "left_elbow", "right_elbow", "left_wrist", "right_wrist",
    "left_thumb", "right_thumb", "left_index", "right_index",
    "torso",
)

_UPPER17_EDGES = (
    (0, 1), (0, 2), (1, 3), (2, 4), (0, 5),
    (5, 6), (5, 7), (6, 8), (8, 10), (7, 9), (9, 11),
    (10, 12), (10, 14), (11, 13), (11, 15),
    (5, 16),
)


def default_17_topology() -> SkeletonTopology:
    """17 upper-body keypoints (head, arms, hands, torso); the shipped default."""
    return SkeletonTopology(17, _UPPER17_EDGES, _UPPER17_NAMES)


def write_topology_file(topo: SkeletonTopology, path) -> None:
    lines = [f"n_nodes {topo.n_nodes}"]
    lines += [f"edge {i} {j}" for i, j in topo.edges]
    if topo.names is not None:
        lines += [f"name {i} {n}" for i, n in enumerate(topo.names)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_topology_file(path) -> SkeletonTopology:
    n_nodes = None
    edges = []
    names = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "n_nodes" and len(parts) == 2:
                    n_nodes = int(parts[1])
                elif parts[0] == "edge" and len(parts) == 3:
                    edges.append((int(parts[1]), int(parts[2])))
                elif parts[0] == "name" and len(parts) == 3:
                    names[int(parts[1])] = parts[2]
                else:
                    raise ValueError
            except ValueError:
                raise TopologyError(f"{path}:{lineno}: cannot parse {line!r}") from None
    if n_nodes is None:
        raise TopologyError(f"{path}: missing n_nodes line")
    name_tuple = None
    if names:
        name_tuple = tuple(names.get(i, f"node{i}") for i in range(n_nodes))
    return SkeletonTopology(n_nodes, tuple(edges), name_tuple)


def resolve_topology(spec: str) -> SkeletonTopology:
    """Accepts 'upper17', 'chain:<n>', or a topology file path."""
    if spec == "upper17":
        return default_17_topology()
    if spec.startswith("chain:"):
        return chain_topology(int(spec.split(":", 1)[1]))
    return read_topology_file(spec)


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Precomputed D^-1/2 (A+I) D^-1/2, constant across frames and batches."""

    matrix: Tensor


def build_normalized_adjacency(topo: SkeletonTopology) -> NormalizedAdjacency:
    a_hat = topo.adjacency() + np.eye(topo.n_nodes)
    d_hat = a_hat.sum(axis=1)  # degree plus one; isolated nodes get 1
    inv_sqrt = 1.0 / np.sqrt(d_hat)
    norm = a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]
    return NormalizedAdjacency(Tensor(norm))


def gcn_forward(adj: NormalizedAdjacency, h: Tensor, w: Tensor, act: str = "relu") -> Tensor:
    """act(adj @ h @ w); leading axes of ``h`` are independent frames."""
    return ops.elementwise(act, ops.matmul(ops.matmul(adj.matrix, h), w))


@dataclass
class GATLayerParams:
    """Per-head projection W [d_in, d_head] and scorer a [2*d_head].

    Head outputs are concatenated, so heads * d_head is the layer width.
    """

    heads: int
    w: list[Tensor]
    a: list[Tensor]

    def __post_init__(self):
        if self.heads != len(self.w) or self.heads != len(self.a):
            raise ShapeError(
                f"{self.heads} heads but {len(self.w)} W / {len(self.a)} a tensors"
            )
        for w_k, a_k in zip(self.w, self.a):
            if a_k.shape != (2 * w_k.shape[1],):
                raise ShapeError(
                    f"scorer {list(a_k.shape)} does not match projection {list(w_k.shape)}"
                )

    @property
    def d_head(self) -> int:
        return self.w[0].shape[1]


def _neighborhood_mask_add(topo: SkeletonTopology, lead_shape: tuple[int, ...]) -> Tensor:
    """Additive mask: 0 inside each closed neighborhood, -inf outside."""
    mask = np.where(topo.closed_neighborhood(), 0.0, -np.inf)
    return Tensor(np.broadcast_to(mask, lead_shape + mask.shape))


def _head_scores(params: GATLayerParams, head: int, h: Tensor, topo: SkeletonTopology):
    """Projection P = h @ W and masked attention rows for one head."""
    w_k, a_k = params.w[head], params.a[head]
    d_head = params.d_head
    proj = ops.matmul(h, w_k)  # [..., N, d_head]
    a_self = ops.reshape(ops.slice_axis(a_k, 0, 0, d_head), (d_head, 1))
    a_other = ops.reshape(ops.slice_axis(a_k, 0, d_head, 2 * d_head), (d_head, 1))
    scores_self = ops.reshape(ops.matmul(proj, a_self), proj.shape[:-1])
    scores_other = ops.reshape(ops.matmul(proj, a_other), proj.shape[:-1])
    logits = ops.elementwise("leaky_relu", ops.outer_add(scores_self, scores_other))
    masked = ops.add(logits, _neighborhood_mask_add(topo, logits.shape[:-2]))
    return proj, ops.softmax_rows(masked)


def gat_coefficients(params: GATLayerParams, head: int, h: Tensor, topo: SkeletonTopology) -> Tensor:
    """Attention matrix for one head: row v holds the weights over v's
    closed neighborhood (softmax of leaky-relu pair scores), zero elsewhere."""
    if not 0 <= head < params.heads:
        raise ShapeError(f"head {head} out of range for {params.heads} heads")
    _, alpha = _head_scores(params, head, h, topo)
    return alpha


def gat_forward(params: GATLayerParams, h: Tensor, topo: SkeletonTopology, act: str = "elu") -> Tensor:
    """Per head, each node becomes the attention-weighted sum of projected
    closed-neighborhood features; heads are concatenated, then activated."""
    per_head = []
    for k in range(params.heads):
        proj, alpha = _head_scores(params, k, h, topo)
        per_head.append(ops.matmul(alpha, proj))
    return ops.elementwise(act, ops.concat(per_head, axis=-1))
