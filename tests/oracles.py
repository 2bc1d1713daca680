"""Loop-based reference implementations used to cross-check the package.

Everything here is plain Python over numpy scalars: explicit index loops,
no tape, no vectorized shortcuts shared with the code under test. Slow on
purpose; these are oracles, not implementations.
"""

import math
import tracemalloc

import numpy as np


def sigmoid_s(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def tanh_s(x: float) -> float:
    return math.tanh(x)


def act_s(tag: str, x: float) -> float:
    if tag == "identity":
        return x
    if tag == "relu":
        return x if x > 0 else 0.0
    if tag == "elu":
        return x if x > 0 else math.expm1(x)
    if tag == "tanh":
        return tanh_s(x)
    if tag == "sigmoid":
        return sigmoid_s(x)
    if tag == "leaky_relu":
        return x if x > 0 else 0.2 * x
    raise ValueError(tag)


def matvec(w, v):
    """w [m, n] @ v [n] with explicit loops."""
    m, n = len(w), len(v)
    out = [0.0] * m
    for i in range(m):
        s = 0.0
        for j in range(n):
            s += w[i][j] * v[j]
        out[i] = s
    return out


def normalized_adjacency_ref(n_nodes, edges):
    a = [[0.0] * n_nodes for _ in range(n_nodes)]
    for i, j in edges:
        a[i][j] = a[j][i] = 1.0
    for i in range(n_nodes):
        a[i][i] = 1.0
    deg = [sum(row) for row in a]
    out = [[0.0] * n_nodes for _ in range(n_nodes)]
    for i in range(n_nodes):
        for j in range(n_nodes):
            if a[i][j]:
                out[i][j] = a[i][j] / math.sqrt(deg[i] * deg[j])
    return np.array(out)


def gcn_ref(norm_adj, feats, weight, act_tag):
    """act(norm_adj @ feats @ weight), all loops."""
    n = len(norm_adj)
    d_in = len(feats[0])
    d_out = len(weight[0])
    mixed = [[0.0] * d_in for _ in range(n)]
    for v in range(n):
        for j in range(d_in):
            s = 0.0
            for u in range(n):
                s += norm_adj[v][u] * feats[u][j]
            mixed[v][j] = s
    out = [[0.0] * d_out for _ in range(n)]
    for v in range(n):
        for k in range(d_out):
            s = 0.0
            for j in range(d_in):
                s += mixed[v][j] * weight[j][k]
            out[v][k] = act_s(act_tag, s)
    return np.array(out)


def gat_head_ref(weight, scorer, feats, n_nodes, edges, slope=0.2):
    """One attention head: returns (alpha [N, N], out [N, d_head])."""
    closed = [set([v]) for v in range(n_nodes)]
    for i, j in edges:
        closed[i].add(j)
        closed[j].add(i)
    d_head = len(weight[0])
    proj = [matvec(list(map(list, zip(*weight))), feats[v]) for v in range(n_nodes)]
    # proj[v] = feats[v] @ weight, computed as weight^T applied to feats[v]
    a_self, a_other = scorer[:d_head], scorer[d_head:]
    alpha = [[0.0] * n_nodes for _ in range(n_nodes)]
    out = [[0.0] * d_head for _ in range(n_nodes)]
    for v in range(n_nodes):
        logits = {}
        for u in closed[v]:
            s = 0.0
            for k in range(d_head):
                s += a_self[k] * proj[v][k] + a_other[k] * proj[u][k]
            logits[u] = s if s > 0 else slope * s
        mx = max(logits.values())
        total = sum(math.exp(e - mx) for e in logits.values())
        for u, e in logits.items():
            alpha[v][u] = math.exp(e - mx) / total
        for k in range(d_head):
            out[v][k] = sum(alpha[v][u] * proj[u][k] for u in closed[v])
    return np.array(alpha), np.array(out)


def rnn_step_ref(w_h, b_h, w_y, b_y, phi, psi, h_prev, x):
    hx = list(h_prev) + list(x)
    h = [act_s(phi, z + b) for z, b in zip(matvec(w_h, hx), b_h)]
    y = [act_s(psi, z + b) for z, b in zip(matvec(w_y, h), b_y)]
    return np.array(h), np.array(y)


def lstm_step_ref(params, h_prev, c_prev, x):
    """params: dict with w_f/b_f/w_i/b_i/w_c/b_c/w_o/b_o as nested lists."""
    hx = list(h_prev) + list(x)
    f = [sigmoid_s(z + b) for z, b in zip(matvec(params["w_f"], hx), params["b_f"])]
    i = [sigmoid_s(z + b) for z, b in zip(matvec(params["w_i"], hx), params["b_i"])]
    c_tilde = [tanh_s(z + b) for z, b in zip(matvec(params["w_c"], hx), params["b_c"])]
    o = [sigmoid_s(z + b) for z, b in zip(matvec(params["w_o"], hx), params["b_o"])]
    c = [fk * ck + ik * gk for fk, ck, ik, gk in zip(f, c_prev, i, c_tilde)]
    h = [ok * tanh_s(ck) for ok, ck in zip(o, c)]
    return np.array(h), np.array(c)


def gru_step_ref(params, h_prev, x):
    """params: dict with w_z/b_z/w_r/b_r/w_h/b_h as nested lists."""
    hx = list(h_prev) + list(x)
    z = [sigmoid_s(v + b) for v, b in zip(matvec(params["w_z"], hx), params["b_z"])]
    r = [sigmoid_s(v + b) for v, b in zip(matvec(params["w_r"], hx), params["b_r"])]
    rhx = [rk * hk for rk, hk in zip(r, h_prev)] + list(x)
    h_tilde = [tanh_s(v + b) for v, b in zip(matvec(params["w_h"], rhx), params["b_h"])]
    return np.array([(1 - zk) * hk + zk * gk for zk, hk, gk in zip(z, h_prev, h_tilde)])


def dense_ref(w_h, b_h, w_y, b_y, phi, psi, x):
    """Feedforward contrast: only the input block of w_h is used."""
    h_size = len(w_h)
    w_hx = [row[h_size:] for row in w_h]
    h = [act_s(phi, z + b) for z, b in zip(matvec(w_hx, x), b_h)]
    y = [act_s(psi, z + b) for z, b in zip(matvec(w_y, h), b_y)]
    return np.array(h), np.array(y)


def layer_norm_ref(x_row, gain, bias, eps):
    n = len(x_row)
    mu = sum(x_row) / n
    var = sum((v - mu) ** 2 for v in x_row) / n
    return np.array([
        gain[i] * (x_row[i] - mu) / math.sqrt(var + eps) + bias[i] for i in range(n)
    ])


def softmax_ref(row):
    finite = [v for v in row if v != -math.inf]
    mx = max(finite)
    exps = [math.exp(v - mx) if v != -math.inf else 0.0 for v in row]
    total = sum(exps)
    return np.array([e / total for e in exps])


def cross_entropy_ref(logits, labels):
    total = 0.0
    for row, lab in zip(logits, labels):
        mx = max(row)
        lse = mx + math.log(sum(math.exp(v - mx) for v in row))
        total += lse - row[lab]
    return total / len(labels)


def adamw_step_ref(p, g, m, v, step, lr, beta1, beta2, eps, weight_decay):
    """One decoupled-weight-decay update on scalars/arrays; returns new p, m, v."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    m_hat = m / (1 - beta1**step)
    v_hat = v / (1 - beta2**step)
    p = p - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p)
    return p, m, v


def precision_recall_f1_ref(true, pred, n_classes):
    """Per-class rows computed straight from pair counts."""
    rows = []
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(true, pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(true, pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(true, pred) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        rows.append((prec, rec, f1))
    return rows


def backward_zero_fill_ref(tape, loss):
    """The eager reverse sweep that the consuming ``tensor.backward``
    replaced: zero-fill a gradient buffer for every record output and
    tracked input, then run every record and add each gradient in place.
    It leaves the tape and every intermediate gradient in place."""
    for rec in tape.records:
        rec.output.grad = np.zeros_like(rec.output.data)
        for t in rec.inputs:
            if t.requires_grad:
                t.grad = np.zeros_like(t.data)
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape.records):
        grads = rec.backward_fn(rec.output.grad)
        for t, g in zip(rec.inputs, grads):
            if g is not None and t.requires_grad:
                assert g.shape == t.data.shape, rec.op
                t.grad += g


# The branching numpy forms ``ops.UNARY`` used for its ELU and leaky ReLU
# before it went branchless: (forward, derivative of x) per tag. The
# branchless forwards must give these bit for bit.
WHERE_ACTIVATIONS = {
    "elu": (
        lambda x: np.where(x > 0, x, np.expm1(np.minimum(x, 0.0))),
        lambda x: np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0))),
    ),
    "leaky_relu": (
        lambda x: np.where(x > 0, x, 0.2 * x),
        lambda x: np.where(x > 0, 1.0, 0.2),
    ),
}

# The same derivatives written as functions of the output y, as
# ``ops.UNARY`` computes them; for the ELU, y + 1 = expm1(x) + 1.
WHERE_OUTPUT_DERIVATIVES = {
    "elu": lambda y: np.where(y > 0, 1.0, y + 1.0),
    "leaky_relu": lambda y: np.where(y > 0, 1.0, 0.2),
}


def embed_per_op_ref(params, batch):
    """The embedding as the per-op chain ``model.embed_input`` recorded
    before it became one ``linear`` record: transpose, matmul, add_bias."""
    from skelgru import ops

    frames = ops.transpose(batch.features, (1, 0, 2, 3))
    return ops.add_bias(ops.matmul(frames, params.embed_w), params.embed_b)


def attention_pool_per_op_ref(attn_w, attn_b, h_final, mask):
    """Temporal attention pooling of the [T, B, N, H] stream ``h_final`` as
    the per-op chain that ``model.temporal_attention_pool`` recorded before
    it became one ``attention_pool`` record: a transposed copy of the
    stream, the score matmul, bias, mask add and softmax, and the weighted
    matmul."""
    from skelgru import ops
    from skelgru.tensor import Tensor

    h_final = ops.transpose(h_final, (1, 0, 2, 3))
    b, t, n, h = h_final.shape
    flat = ops.reshape(h_final, (b, t, n * h))
    scores = ops.add_bias(ops.matmul(flat, ops.reshape(attn_w, (n * h, 1))), attn_b)
    masked = ops.add(ops.reshape(scores, (b, t)), Tensor(np.where(mask, 0.0, -np.inf)))
    alpha = ops.softmax_rows(masked)
    pooled = ops.matmul(ops.reshape(alpha, (b, 1, t)), flat)
    return ops.reshape(pooled, (b, n * h))


def residual_norm_saving_xhat_ref(block, x, gain, bias, eps):
    """``ops.residual_norm`` as it was before its backward rebuilt x-hat: the
    record saves x-hat itself, and y is a new array whenever a tape is
    active. The rebuilt form must give this output and these four
    gradients bit for bit."""
    from skelgru import ops
    from skelgru.tensor import active_tape

    h = x.shape[-1]
    xhat = block.data + x.data  # centred and scaled in place
    rows = xhat.reshape(-1, h)
    mean_w = np.full(h, 1.0 / h)
    rows -= (rows @ mean_w)[:, None]
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", rows, rows) / h + eps)[:, None]
    rows *= inv
    taped = active_tape() is not None and any(t.requires_grad for t in (block, x, gain, bias))
    y = np.multiply(xhat, gain.data, out=None if taped else xhat)
    y += bias.data

    def back(g):
        g = g.reshape(-1, h)
        dx = g * gain.data
        dx -= rows * (np.einsum("ij,ij->i", dx, rows) / h)[:, None] + (dx @ mean_w)[:, None]
        dx *= inv
        return dx.reshape(xhat.shape), dx.reshape(xhat.shape), np.einsum("ij,ij->j", g, rows), g.sum(axis=0)

    return ops._emit("residual_norm", (block, x, gain, bias), y, back)


def traced_streams(call, stream_bytes):
    """Run ``call()`` under tracemalloc and return its result, the bytes it
    left allocated and the peak it added over the bytes allocated before it,
    both in units of ``stream_bytes``. Inside an enclosing ``traced_streams``
    call it measures against that trace, so freeing what the enclosing call
    allocated earlier lowers what this call adds; the enclosing call's peak
    then starts again from this call's."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        if not outer:
            tracemalloc.stop()
    return result, (now - before) / stream_bytes, (peak - before) / stream_bytes
