"""Spatial layers over a fixed skeleton graph.

Two per-frame layers share one topology: a degree-normalized graph
convolution (propagation through D^-1/2 (A+I) D^-1/2) and a multi-head
attention layer whose coefficients are a masked softmax over each node's
closed neighborhood. Both accept a single frame [N, d] or a stack of
frames [..., N, d] and treat leading axes as independent graphs.

Each layer is one tape record with a hand-written backward. The
convolution (Kipf & Welling 2017, arXiv 1609.02907) keeps only its
output and recomputes the cheap adj @ h product in backward. The
attention layer (Velickovic et al. 2018, arXiv 1710.10903) projects all
heads in one matmul and scores them in one block-diagonal matmul,
feature-major with the frames last, over a padded table of each node's
closed neighborhood; it too keeps only its output, and its backward
repeats the projection and the attention weights rather than keep them
(Chen et al. 2016, arXiv 1604.06174). Each layer reads its table from
the topology, which builds it once: the convolution's propagation table
and the padded neighborhoods.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ops
from .tensor import ShapeError, Tensor, tape_for


class TopologyError(ValueError):
    """The node/edge description violates the skeleton-graph invariants;
    ``edge`` is the position of the offending edge, when one is."""

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


@dataclass(frozen=True)
class SkeletonTopology:
    """Fixed joint graph shared by every frame: N nodes, undirected edges.
    That is all the layers read, so joints have indices and no names.

    Self-loops are forbidden here; normalization adds them. Edges are
    stored canonically as sorted pairs.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_nodes < 1:
            raise TopologyError(f"n_nodes must be positive, got {self.n_nodes}")
        canon = []
        seen = set()
        for k, (i, j) in enumerate(self.edges):
            if i == j:
                raise TopologyError(f"self-loop on node {i}", k)
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise TopologyError(f"edge ({i},{j}) outside [0, {self.n_nodes})", k)
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise TopologyError(f"duplicate edge {pair}", k)
            seen.add(pair)
            canon.append(pair)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_nodes, self.n_nodes))
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1.0
        return a

    @cached_property
    def neighbor_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed neighborhoods padded to the largest closed degree D:
        nbr[v, j] is v's j-th neighbor (v itself in slot 0, and in the
        padding), and pad[v, j] marks the padding."""
        rows = [[v] + [i + j - v for i, j in self.edges if v in (i, j)] for v in range(self.n_nodes)]
        width = max(map(len, rows))
        nbr = np.array([row + [v] * (width - len(row)) for v, row in enumerate(rows)])
        return nbr, np.arange(width) >= np.array(list(map(len, rows)))[:, None]

    @cached_property
    def normalized_adjacency(self) -> np.ndarray:
        """The GCN's propagation table D^-1/2 (A+I) D^-1/2 [N, N], built once
        and shared by every forward on this topology, so read-only."""
        a_hat = self.adjacency() + np.eye(self.n_nodes)
        inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))  # degree plus one; isolated nodes get 1
        table = a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]
        table.setflags(write=False)
        return table

    def canonical_hash(self) -> str:
        text = f"{self.n_nodes}|" + ",".join(f"{i}-{j}" for i, j in self.edges)
        return hashlib.sha256(text.encode()).hexdigest()


def chain_topology(n_nodes: int) -> SkeletonTopology:
    return SkeletonTopology(n_nodes, tuple((i, i + 1) for i in range(n_nodes - 1)))


_UPPER17_EDGES = (
    (0, 1), (0, 2), (1, 3), (2, 4), (0, 5),
    (5, 6), (5, 7), (6, 8), (8, 10), (7, 9), (9, 11),
    (10, 12), (10, 14), (11, 13), (11, 15),
    (5, 16),
)


def default_17_topology() -> SkeletonTopology:
    """17 upper-body keypoints (head, arms, hands, torso); the shipped default.
    Joints by index: 0 nose; 1-4 left eye, right eye, left ear, right ear;
    5 neck; 6-15 shoulder, elbow, wrist, thumb, index finger, each left then
    right; 16 torso."""
    return SkeletonTopology(17, _UPPER17_EDGES)


def read_topology_file(path) -> SkeletonTopology:
    """Parse a topology file: one ``n_nodes <N>`` line, ``edge <i> <j>``
    lines and ``#`` comments, in any order. Any other line, and a fault of
    the graph, names its line as ``<path>:<line>``."""
    n_nodes = n_nodes_line = None
    edges, edge_lines = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if parts[0] == "n_nodes" and n_nodes is not None:
                    raise TopologyError(f"{path}:{lineno}: second n_nodes line {line!r}")
                try:
                    if parts[0] == "n_nodes" and len(parts) == 2:
                        n_nodes, n_nodes_line = int(parts[1]), lineno
                    elif parts[0] == "edge" and len(parts) == 3:
                        edges.append((int(parts[1]), int(parts[2])))
                        edge_lines.append(lineno)
                    else:
                        raise ValueError
                except ValueError:
                    raise TopologyError(f"{path}:{lineno}: cannot parse {line!r}") from None
    except UnicodeDecodeError as exc:
        raise TopologyError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if n_nodes is None:
        raise TopologyError(f"{path}: missing n_nodes line")
    try:
        return SkeletonTopology(n_nodes, tuple(edges))
    except TopologyError as exc:  # a fault with no edge is the node count's
        line = n_nodes_line if exc.edge is None else edge_lines[exc.edge]
        raise TopologyError(f"{path}:{line}: {exc}") from None


def resolve_topology(spec: str) -> SkeletonTopology:
    """Accepts 'upper17', 'chain:<n>' with a whole number n >= 1, or a
    topology file path."""
    if spec == "upper17":
        return default_17_topology()
    if spec.startswith("chain:"):
        n = spec[len("chain:"):]
        if not n.isdecimal() or int(n) < 1:
            raise ValueError(f"topology {spec!r}: chain:<n> needs a whole number n >= 1")
        return chain_topology(int(n))
    return read_topology_file(spec)


def gcn_forward(w: Tensor, h: Tensor, topo: SkeletonTopology, act: str = "relu") -> Tensor:
    """act(adj @ h @ w) for the topology's read-only propagation table
    ``topo.normalized_adjacency``; leading axes of ``h`` are independent
    frames. Records one tape op over (h, w) whose backward keeps only the
    output, which gives the activation's derivative, and recomputes adj @ h
    with the forward's call, so every gradient has the bits of the per-op
    product chain. It sums the weight gradient one frame's product at a
    time, so it adds two streams of h's size at most.
    """
    if act not in ops.UNARY:
        raise ValueError(f"unknown activation {act!r}; known: {sorted(ops.UNARY)}")
    n = topo.n_nodes
    if h.ndim < 2 or w.ndim != 2 or h.shape[-2:] != (n, w.shape[0]):
        raise ShapeError(f"GCN input {list(h.shape)} and weights {list(w.shape)} "
                         f"do not chain over {n} nodes")
    adj = topo.normalized_adjacency
    fn, dfn = ops.UNARY[act]
    pre = np.matmul(np.matmul(adj, h.data), w.data)
    out = Tensor(fn(pre, out=pre))
    tape = tape_for((h, w))
    if tape is None:
        return out
    hd, wd = h.data, w.data
    d_in, d_out = wd.shape

    def back(grad):
        d = dfn(out.data)
        d *= grad
        # frame by frame, so no [frames, d_in, d_out] stack of products is made
        d_w = ops.sum_of_products(zip(np.swapaxes(np.matmul(adj, hd), -1, -2).reshape(-1, d_in, n),
                                      d.reshape(-1, n, d_out)))
        d = np.matmul(d, wd.T)
        return np.matmul(adj.T, d), d_w

    tape.record("gcn_layer", (h, w), out, back)
    return out


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
        for w_k, a_k in zip(self.w, self.a):  # heads are fused, so all share one shape
            if w_k.shape != self.w[0].shape or a_k.shape != (2 * w_k.shape[1],):
                raise ShapeError(f"projection {list(w_k.shape)} / scorer {list(a_k.shape)} "
                                 f"do not match head 0's projection {list(self.w[0].shape)}")


def _attend(params: GATLayerParams, h: Tensor, topo: SkeletonTopology):
    """All heads' attention, feature-major with the M frames last: W_cat
    [d_in, K*d], the block-diagonal scorer [2K, K*d], the input view
    [N, d_in, M], projections P [N, K*d, M], and over the D padded neighbor
    slots the weights alpha [N, D, K, M] and the boolean mask of positive
    pair scores, from which the leaky-ReLU slopes are rebuilt."""
    n, (d_in, d), k = topo.n_nodes, params.w[0].shape, params.heads
    if h.ndim < 2 or h.shape[-2:] != (n, d_in):
        raise ShapeError(f"GAT input {list(h.shape)} does not match [..., {n}, {d_in}]")
    nbr, pad = topo.neighbor_slots
    w_cat = np.concatenate([w.data for w in params.w], axis=1)
    scorer = np.zeros((2, k, k, d))  # [self; neighbor] row per head, on that head's columns
    scorer[:, range(k), range(k)] = np.stack([a.data.reshape(2, d) for a in params.a], axis=1)
    scorer = scorer.reshape(2 * k, k * d)
    ht = h.data.reshape(-1, n, d_in).transpose(1, 2, 0)
    p = np.matmul(w_cat.T, ht)
    s = np.matmul(scorer, p)  # [N, 2K, M]
    e = s[:, None, :k] + s[nbr, k:]
    pos = e > 0
    ops.UNARY["leaky_relu"][0](e, out=e)
    e[pad] = -np.inf
    e -= e.max(axis=1, keepdims=True)  # the softmax, in place: e becomes alpha
    alpha = np.exp(e, out=e)
    alpha /= alpha.sum(axis=1, keepdims=True)
    return w_cat, scorer, ht, p, alpha, pos


def gat_coefficients(params: GATLayerParams, head: int, h: Tensor, topo: SkeletonTopology) -> Tensor:
    """Untaped attention matrix [..., N, N] for one head: row v holds the
    weights over v's closed neighborhood (softmax of leaky-relu pair
    scores), zero elsewhere."""
    if not 0 <= head < params.heads:
        raise ShapeError(f"head {head} out of range for {params.heads} heads")
    alpha = _attend(params, h, topo)[4][:, :, head].transpose(2, 0, 1)  # [M, N, D]
    n, nbr = topo.n_nodes, topo.neighbor_slots[0]
    dense = np.zeros((alpha.shape[0], n, n))
    np.add.at(dense, (slice(None), np.arange(n)[:, None], nbr), alpha)  # pad slots add 0
    return Tensor(dense.reshape(h.shape[:-1] + (n,)))


def gat_forward(params: GATLayerParams, h: Tensor, topo: SkeletonTopology, act: str = "elu") -> Tensor:
    """Per head, each node becomes the attention-weighted sum of projected
    closed-neighborhood features; heads are concatenated, then activated.
    Records one tape op over (h, w_0..w_{K-1}, a_0..a_{K-1}) that keeps only
    its output, which gives the activation's derivative, as the GCN record
    does. Backward rebuilds the projection P, alpha and the mask of positive
    pair scores with the forward's own calls, and so with the same bits.
    Taped or not, it returns the same bits. The softmax and activation run
    in place. Backward adds the rebuilt P, alpha and mask and the gradients
    of the output, of alpha and of P, with the output's gradient in two
    layouts for a moment: four streams at most.
    """
    if act not in ops.UNARY:
        raise ValueError(f"unknown activation {act!r}; known: {sorted(ops.UNARY)}")
    fn, dfn = ops.UNARY[act]
    p, alpha, pos = _attend(params, h, topo)[3:]
    nbr, pad = topo.neighbor_slots
    (n, kd, m), k = p.shape, params.heads
    p4 = p.reshape(n, k, -1, m)
    # One (node, slot, neighbor) pair at a time: every operand and product
    # is a contiguous [K, d, M] slab, and the [N, D, K*d, M] gather never exists.
    pairs = [(v, j, nbr[v, j]) for v, j in zip(*np.nonzero(~pad))]
    slab = np.empty_like(p4[0])
    z = np.zeros_like(p4)
    for v, j, u in pairs:
        z[v] += np.multiply(alpha[v, j, :, None], p4[u], out=slab)
    ins = (h, *params.w, *params.a)
    tape = tape_for(ins)
    del p, p4, alpha, pos  # backward rebuilds them
    x = np.ascontiguousarray(z.reshape(n, kd, m).transpose(2, 0, 1))  # [M, N, K*d]
    del z
    out = Tensor(fn(x, out=x).reshape(h.shape[:-1] + (kd,)))
    if tape is None:
        return out

    def back(grad):
        # the forward's own calls, so alpha, the mask and P have its bits
        w_cat, scorer, ht, p, alpha, pos = _attend(params, h, topo)
        p4 = p.reshape(n, k, -1, m)
        dx = dfn(out.data.reshape(m, n, kd))
        dx *= grad.reshape(m, n, kd)
        dz = np.ascontiguousarray(dx.transpose(1, 2, 0)).reshape(p4.shape)
        del dx
        d_alpha, d_p = np.zeros_like(alpha), np.zeros_like(dz)
        slab = np.empty_like(dz[0])
        for v, j, u in pairs:
            d_alpha[v, j] = np.multiply(dz[v], p4[u], out=slab).sum(axis=1)
            d_p[u] += np.multiply(alpha[v, j, :, None], dz[v], out=slab)
        del dz
        d_e = d_alpha - (alpha * d_alpha).sum(axis=1, keepdims=True)
        d_e *= alpha * ops.UNARY["leaky_relu"][1](pos, out=d_alpha)  # d_alpha is spent
        d_s = np.concatenate((d_e.sum(axis=1), np.zeros((n, k, m))), axis=1)
        for v, j, u in pairs:
            d_s[u, k:] += d_e[v, j]
        d_a = np.einsum("nskm,nkcm->skc", d_s.reshape(n, 2, k, m), p4)
        del p, p4
        d_p = d_p.reshape(n, kd, m)
        d_p += np.matmul(scorer.T, d_s)
        d_w = np.matmul(ht, d_p.transpose(0, 2, 1)).sum(axis=0).reshape(-1, k, kd // k)
        d_h = np.matmul(w_cat, d_p).transpose(2, 0, 1).reshape(h.shape)
        return (d_h, *(d_w[:, i] for i in range(k)), *(d_a[:, i].ravel() for i in range(k)))

    tape.record("gat_layer", ins, out, back)
    return out
