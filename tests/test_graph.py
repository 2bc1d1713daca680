"""Topology handling and the two spatial layers."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from skelgru import ops
from skelgru.graph import (
    GATLayerParams,
    SkeletonTopology,
    TopologyError,
    chain_topology,
    default_17_topology,
    gat_coefficients,
    gat_forward,
    gcn_forward,
    read_topology_file,
    resolve_topology,
)
from skelgru.cells import RNNCellParams, dense_forward
from skelgru.tensor import ShapeError, Tape, Tensor, backward, first_invalid_record


@pytest.fixture
def rng():
    """A generator of the test's own, so that no test's draws move another's inputs."""
    return np.random.default_rng(20240812)


def rand(rng, shape, grad=False):
    return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=grad)


def topology_text(topo):
    """The topology file format that :func:`read_topology_file` parses."""
    lines = [f"n_nodes {topo.n_nodes}", *(f"edge {i} {j}" for i, j in topo.edges)]
    return "\n".join(lines) + "\n"


def closed_neighborhood(topo):
    """Boolean [N, N]: adjacency plus the diagonal."""
    return topo.adjacency().astype(bool) | np.eye(topo.n_nodes, dtype=bool)


def random_gat_params(rng, d_in, d_head, heads=1, grad=False):
    return GATLayerParams(
        heads=heads,
        w=[rand(rng, (d_in, d_head), grad) for _ in range(heads)],
        a=[rand(rng, (2 * d_head,), grad) for _ in range(heads)],
    )


# ---------------------------------------------------------------------------
# topology

def test_topology_rejects_self_loops_bounds_duplicates():
    with pytest.raises(TopologyError):
        SkeletonTopology(3, ((1, 1),))
    with pytest.raises(TopologyError):
        SkeletonTopology(3, ((0, 3),))
    with pytest.raises(TopologyError):
        SkeletonTopology(3, ((0, 1), (1, 0)))
    with pytest.raises(TopologyError):
        SkeletonTopology(0, ())


def test_adjacency_symmetric_binary():
    topo = SkeletonTopology(4, ((0, 1), (2, 1)))
    a = topo.adjacency()
    assert np.array_equal(a, a.T)
    assert set(np.unique(a)) <= {0.0, 1.0}
    assert a[0, 1] == a[1, 2] == 1.0 and a[0, 2] == 0.0
    assert np.trace(a) == 0.0


def test_default_topology_is_17_node_tree():
    topo = default_17_topology()
    assert topo.n_nodes == 17
    assert len(topo.edges) == 16
    deg = topo.adjacency().sum(axis=0)
    assert (deg >= 1).all()  # connected enough: no isolated joints


def test_canonical_hash_ignores_edge_order_and_direction():
    a = SkeletonTopology(3, ((0, 1), (1, 2)))
    b = SkeletonTopology(3, ((2, 1), (0, 1)))
    c = SkeletonTopology(3, ((0, 2), (0, 1)))
    assert a.canonical_hash() == b.canonical_hash()
    assert a.canonical_hash() != c.canonical_hash()


def test_topology_file_round_trip(tmp_path):
    topo = default_17_topology()
    path = tmp_path / "topo.txt"
    path.write_text(topology_text(topo), encoding="utf-8")
    back = read_topology_file(path)
    assert back == topo
    assert back.canonical_hash() == topo.canonical_hash()


def test_topology_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n_nodes 3\nedge 0 zero\n")
    with pytest.raises(TopologyError, match=":2:"):
        read_topology_file(path)
    path.write_text("edge 0 1\n")
    with pytest.raises(TopologyError, match="missing n_nodes"):
        read_topology_file(path)
    path.write_bytes(b"n_nodes 3\n# \xff\n")
    with pytest.raises(TopologyError, match=r"bad\.txt:2: not UTF-8"):
        read_topology_file(path)


def test_topology_file_second_n_nodes_line_is_an_error(tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("n_nodes 3\nedge 0 1\nn_nodes 4\n")
    with pytest.raises(TopologyError, match=r"twice\.txt:3: second n_nodes line"):
        read_topology_file(path)


@pytest.mark.parametrize("text, message", [
    ("n_nodes 2\nedge 0 1\nname 0 head\n", r"faulty\.txt:3: cannot parse 'name 0 head'"),
    ("n_nodes 3\nedge 0 1\nedge 1 0\n", r"faulty\.txt:3: duplicate edge \(0, 1\)"),
    ("n_nodes 3\n# a loop\nedge 2 2\n", r"faulty\.txt:3: self-loop on node 2"),
    ("edge 0 3\nn_nodes 3\n", r"faulty\.txt:1: edge \(0,3\) outside \[0, 3\)"),
    ("edge 0 1\n\nn_nodes 0\n", r"faulty\.txt:3: n_nodes must be positive, got 0"),
], ids=["name line", "duplicate edge", "self-loop", "edge outside the nodes", "no nodes"])
def test_topology_file_faults_name_their_line(tmp_path, text, message):
    path = tmp_path / "faulty.txt"
    path.write_text(text)
    with pytest.raises(TopologyError, match=message):
        read_topology_file(path)


def test_resolve_topology_specs(tmp_path):
    assert resolve_topology("upper17").n_nodes == 17
    assert resolve_topology("chain:5").edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    path = tmp_path / "t.txt"
    path.write_text(topology_text(chain_topology(3)), encoding="utf-8")
    assert resolve_topology(str(path)).n_nodes == 3


# ---------------------------------------------------------------------------
# normalized adjacency

def test_normalized_adjacency_examples():
    single = SkeletonTopology(1, ()).normalized_adjacency
    assert np.array_equal(single, [[1.0]])

    pair = SkeletonTopology(2, ((0, 1),)).normalized_adjacency
    assert np.allclose(pair, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    path = chain_topology(3).normalized_adjacency
    assert np.isclose(path[0, 1], 1.0 / np.sqrt(6.0))
    assert np.isclose(path[0, 1], 0.40825, atol=5e-6)


def test_normalized_adjacency_isolated_node():
    m = SkeletonTopology(3, ((0, 1),)).normalized_adjacency
    assert m[2, 2] == 1.0
    assert m[2, 0] == m[2, 1] == 0.0


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_normalized_adjacency_matches_oracle(n, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = rng.random(len(pairs)) < 0.4
    edges = tuple(p for p, t in zip(pairs, take) if t)
    got = SkeletonTopology(n, edges).normalized_adjacency
    want = oracles.normalized_adjacency_ref(n, edges)
    assert np.allclose(got, want, atol=1e-14)
    assert np.array_equal(got, got.T)
    assert (got >= 0).all()


# ---------------------------------------------------------------------------
# GCN

def test_gcn_identity_adjacency_passes_features_through(rng):
    h = rand(rng, (3, 4))
    out = gcn_forward(Tensor(np.eye(4)), h, SkeletonTopology(3, ()), act="identity")
    assert np.allclose(out.data, h.data)


def test_gcn_two_node_complete_example():
    out = gcn_forward(Tensor(np.eye(2)), Tensor(np.eye(2)), SkeletonTopology(2, ((0, 1),)), act="identity")
    assert np.allclose(out.data, [[0.5, 0.5], [0.5, 0.5]])


def test_gcn_zero_weights_zero_output(rng):
    out = gcn_forward(Tensor(np.zeros((3, 2))), rand(rng, (4, 3)), chain_topology(4), act="relu")
    assert np.array_equal(out.data, np.zeros((4, 2)))


def test_gcn_matches_loop_oracle(rng):
    topo = chain_topology(5)
    h, w = rand(rng, (5, 3)), rand(rng, (3, 4))
    for act in ("identity", "relu", "elu"):
        got = gcn_forward(w, h, topo, act=act).data
        want = oracles.gcn_ref(topo.normalized_adjacency, h.data, w.data, act)
        assert np.allclose(got, want, atol=1e-12)


def test_gcn_on_stacked_frames_equals_per_frame(rng):
    topo = chain_topology(4)
    frames = rand(rng, (6, 4, 3))
    w = rand(rng, (3, 5))
    batched = gcn_forward(w, frames, topo, act="relu").data
    for t in range(6):
        single = gcn_forward(w, Tensor(frames.data[t]), topo, act="relu").data
        assert np.allclose(batched[t], single, atol=1e-14)


def test_gcn_with_identity_adjacency_is_the_feedforward_case(rng):
    # edgeless graph + identity activation reduces the spatial layer to a
    # plain dense transform of each node feature
    n, d, h_size = 3, 4, 5
    w = rand(rng, (d, h_size))
    feats = rand(rng, (n, d))
    spatial = gcn_forward(w, feats, SkeletonTopology(n, ()), act="tanh").data

    p = RNNCellParams(
        w_h=Tensor(np.concatenate([np.zeros((h_size, h_size)), w.data.T], axis=1)),
        b_h=Tensor(np.zeros(h_size)),
        w_y=Tensor(np.eye(h_size)),
        b_y=Tensor(np.zeros(h_size)),
        phi="tanh",
        psi="identity",
    )
    for v in range(n):
        hv, _ = dense_forward(p, Tensor(feats.data[v]))
        assert np.allclose(spatial[v], hv.data, atol=1e-14)


def test_spatial_layers_reject_unknown_activation(rng):
    topo = chain_topology(3)
    h = rand(rng, (3, 2))
    for act in ("gelu", "add"):  # "add" is an op, but not an activation
        with pytest.raises(ValueError, match=f"'{act}'"):
            gcn_forward(rand(rng, (2, 2)), h, topo, act=act)
    with pytest.raises(ValueError, match="'gelu'"):
        gat_forward(random_gat_params(rng, 2, 2), h, topo, act="gelu")


@pytest.mark.parametrize("shape", [(4, 3), (2, 3, 4, 3)])
@pytest.mark.parametrize("act", sorted(ops.UNARY))
def test_gcn_layer_matches_per_op_composition_bit_for_bit(act, shape, rng):
    """One gcn_layer record gives the output and the h and w gradients of
    the matmul, matmul, activation records it replaces, bit for bit."""
    topo = chain_topology(4)
    adj = Tensor(topo.normalized_adjacency)
    h, w = rand(rng, shape, grad=True), rand(rng, (3, 5), grad=True)
    weights = rand(rng, shape[:-1] + (5,))
    results = []
    for layer in (lambda: gcn_forward(w, h, topo, act),
                  lambda: ops.elementwise(act, ops.matmul(ops.matmul(adj, h), w))):
        with Tape() as tape:
            out = layer()
            loss = ops.sum_all(ops.mul(out, weights))
        backward(tape, loss)
        results.append((out.data, h.grad, w.grad))
    for want, got in zip(*results):
        assert np.array_equal(want, got)


def test_gcn_layer_is_one_record_over_h_and_w(rng):
    topo = chain_topology(4)
    h, w = rand(rng, (2, 3, 4, 3), grad=True), rand(rng, (3, 2), grad=True)
    with Tape() as tape:
        out = gcn_forward(w, h, topo)
        untracked = gcn_forward(rand(rng, (3, 2)), rand(rng, (4, 3)), topo)
    (rec,) = tape.records
    assert (rec.op, rec.inputs, rec.output) == ("gcn_layer", (h, w), out)
    assert not untracked.requires_grad


def test_gcn_rejects_mismatched_shapes_naming_the_node_count(rng):
    for h_shape, w_shape in (((5, 3), (3, 2)), ((4, 3), (2, 2)), ((3,), (3, 2)), ((4, 3), (3,))):
        msg = f"GCN input {list(h_shape)} and weights {list(w_shape)} do not chain over 4 nodes"
        with pytest.raises(ShapeError, match=re.escape(msg)):
            gcn_forward(rand(rng, w_shape), rand(rng, h_shape), chain_topology(4))


def test_gcn_layer_nan_names_fused_record(rng):
    h = rand(rng, (2, 4, 3))
    h.data[1, 2, 0] = np.nan
    with Tape() as tape:
        out = gcn_forward(rand(rng, (3, 2), grad=True), h, chain_topology(4))
    assert first_invalid_record(tape) == f"gcn_layer#{out.tid}"


def test_taped_paper_width_gcn_layer_holds_only_its_output():
    """One paper-width layer ([T=32, B=4, upper17, H=64]) on the tape holds
    its output and nothing else: no product adj @ h, no pre-activation."""
    rng = np.random.default_rng(1609)
    topo = default_17_topology()
    h = Tensor(rng.normal(0, 1, (32, 4, 17, 64)), requires_grad=True)
    w = Tensor(rng.normal(0, 0.1, (64, 64)), requires_grad=True)
    untaped = gcn_forward(w, h, topo)
    tape = Tape()

    def forward():
        with tape:
            return gcn_forward(w, h, topo)

    taped, held, _ = oracles.traced_streams(forward, h.data.nbytes)
    assert len(tape.records) == 1
    assert held <= 1.05
    assert np.array_equal(taped.data, untaped.data)


def test_paper_width_gcn_backward_makes_no_stack_of_products():
    """The backward of one paper-width layer ([T=32, B=4, upper17, H=64])
    sums the weight gradient one frame's product at a time, so its added
    peak is two streams: the derivative and one product of the input
    gradient. The [frames, H, H] stack of products alone is 3.8 streams."""
    rng = np.random.default_rng(1609)
    h = Tensor(rng.normal(0, 1, (32, 4, 17, 64)), requires_grad=True)
    w = Tensor(rng.normal(0, 0.1, (64, 64)), requires_grad=True)
    with Tape() as tape:
        out = gcn_forward(w, h, default_17_topology())
    (rec,) = tape.records
    grad = rng.normal(0.0, 1.0, out.shape)
    _, _, added = oracles.traced_streams(lambda: rec.backward_fn(grad), out.data.nbytes)
    assert added <= 2.1


# ---------------------------------------------------------------------------
# GAT

def test_gat_uniform_alpha_on_identical_features(rng):
    topo = chain_topology(4)
    params = random_gat_params(rng, 3, 2)
    h = Tensor(np.tile([0.3, -1.2, 0.7], (4, 1)))
    alpha = gat_coefficients(params, 0, h, topo).data
    closed = closed_neighborhood(topo)
    for v in range(4):
        k = closed[v].sum()
        assert np.allclose(alpha[v][closed[v]], 1.0 / k, atol=1e-12)
        assert np.array_equal(alpha[v][~closed[v]], np.zeros(4 - k))


def test_gat_isolated_node_attends_to_itself(rng):
    topo = SkeletonTopology(3, ((0, 1),))
    alpha = gat_coefficients(random_gat_params(rng, 2, 3), 0, rand(rng, (3, 2)), topo).data
    assert alpha[2, 2] == 1.0
    assert alpha[2, 0] == alpha[2, 1] == 0.0


def test_gat_rows_sum_to_one_and_mask_is_exact(rng):
    topo = default_17_topology()
    alpha = gat_coefficients(random_gat_params(rng, 3, 4), 0, rand(rng, (17, 3)), topo).data
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    outside = ~closed_neighborhood(topo)
    assert np.array_equal(alpha[outside], np.zeros(outside.sum()))


def test_gat_star_matches_loop_oracle(rng):
    topo = SkeletonTopology(4, ((0, 1), (0, 2), (0, 3)))
    params = random_gat_params(rng, 3, 2)
    h = rand(rng, (4, 3))
    alpha = gat_coefficients(params, 0, h, topo).data
    out = gat_forward(params, h, topo, act="identity").data
    want_alpha, want_out = oracles.gat_head_ref(
        params.w[0].data, params.a[0].data, h.data, 4, topo.edges
    )
    assert np.allclose(alpha, want_alpha, atol=1e-12)
    assert np.allclose(out, want_out, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gat_multi_head_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    topo = chain_topology(5)
    heads = 2
    params = GATLayerParams(
        heads=heads,
        w=[Tensor(rng.normal(0, 1, (3, 2))) for _ in range(heads)],
        a=[Tensor(rng.normal(0, 1, (4,))) for _ in range(heads)],
    )
    h = rng.normal(0, 1, (5, 3))
    got = gat_forward(params, Tensor(h), topo, act="elu").data
    pieces = []
    for k in range(heads):
        _, out_k = oracles.gat_head_ref(params.w[k].data, params.a[k].data, h, 5, topo.edges)
        pieces.append(out_k)
    want = np.vectorize(lambda v: oracles.act_s("elu", v))(np.concatenate(pieces, axis=1))
    assert np.allclose(got, want, atol=1e-12)


def test_gat_constant_shift_with_zero_weights_gives_uniform_alpha(rng):
    topo = chain_topology(4)
    params = GATLayerParams(heads=1, w=[Tensor(np.zeros((3, 2)))], a=[rand(rng, (4,))])
    h = Tensor(rand(rng, (4, 3)).data + 7.5)
    alpha = gat_coefficients(params, 0, h, topo).data
    closed = closed_neighborhood(topo)
    for v in range(4):
        assert np.allclose(alpha[v][closed[v]], 1.0 / closed[v].sum(), atol=1e-15)


def test_gat_isolated_node_is_pure_self_transform(rng):
    topo = SkeletonTopology(2, ())
    params = random_gat_params(rng, 3, 2)
    h = rand(rng, (2, 3))
    out = gat_forward(params, h, topo, act="identity").data
    assert np.allclose(out[0], h.data[0] @ params.w[0].data, atol=1e-14)


def test_gat_identical_features_complete_graph_identical_rows(rng):
    topo = SkeletonTopology(3, ((0, 1), (0, 2), (1, 2)))
    params = random_gat_params(rng, 2, 2, heads=2)
    h = Tensor(np.tile([1.1, -0.4], (3, 1)))
    out = gat_forward(params, h, topo, act="elu").data
    assert np.allclose(out[0], out[1]) and np.allclose(out[1], out[2])


def test_gat_head_index_validated(rng):
    with pytest.raises(ShapeError):
        gat_coefficients(random_gat_params(rng, 2, 2), 1, rand(rng, (3, 2)), chain_topology(3))


def test_gat_params_shape_validation(rng):
    with pytest.raises(ShapeError):
        GATLayerParams(heads=2, w=[rand(rng, (3, 2))], a=[rand(rng, (4,)), rand(rng, (4,))])
    with pytest.raises(ShapeError):
        GATLayerParams(heads=1, w=[rand(rng, (3, 2))], a=[rand(rng, (3,))])
    with pytest.raises(ShapeError, match="head 0"):
        GATLayerParams(heads=2, w=[rand(rng, (3, 2)), rand(rng, (3, 3))], a=[rand(rng, (4,)), rand(rng, (6,))])


def test_gat_on_stacked_frames_equals_per_frame(rng):
    topo = chain_topology(4)
    params = random_gat_params(rng, 3, 2, heads=2)
    frames = rand(rng, (5, 4, 3))
    batched = gat_forward(params, frames, topo, act="elu").data
    for t in range(5):
        single = gat_forward(params, Tensor(frames.data[t]), topo, act="elu").data
        assert np.allclose(batched[t], single, atol=1e-14)


def test_neighbor_slots_pad_to_largest_closed_degree():
    nbr, pad = SkeletonTopology(4, ((0, 1), (0, 2))).neighbor_slots
    assert nbr.tolist() == [[0, 1, 2], [1, 0, 1], [2, 0, 2], [3, 3, 3]]
    assert pad.tolist() == [[False] * 3, [False, False, True], [False, False, True], [False, True, True]]
    assert chain_topology(9).neighbor_slots[0].shape == (9, 3)
    assert default_17_topology().neighbor_slots[0].shape == (17, 5)


def _random_edges(rng, n):
    return tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4)


@given(st.integers(1, 7), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_gat_stacked_frames_on_random_topologies_match_oracle(n, heads, seed):
    rng = np.random.default_rng(seed)
    topo = SkeletonTopology(n, _random_edges(rng, n))  # may leave nodes isolated
    params = GATLayerParams(
        heads=heads,
        w=[Tensor(rng.normal(0, 1, (3, 2))) for _ in range(heads)],
        a=[Tensor(rng.normal(0, 1, (4,))) for _ in range(heads)],
    )
    h = rng.normal(0, 1, (2, 3, n, 3))
    got = gat_forward(params, Tensor(h), topo, act="elu").data
    alpha0 = gat_coefficients(params, 0, Tensor(h), topo).data
    assert got.shape == (2, 3, n, 2 * heads) and alpha0.shape == (2, 3, n, n)
    for b in range(2):
        for t in range(3):
            refs = [oracles.gat_head_ref(w.data, a.data, h[b, t], n, topo.edges)
                    for w, a in zip(params.w, params.a)]
            want = np.vectorize(lambda v: oracles.act_s("elu", v))(
                np.concatenate([out for _, out in refs], axis=1))
            assert np.abs(got[b, t] - want).max() <= 1e-12
            assert np.abs(alpha0[b, t] - refs[0][0]).max() <= 1e-12


def test_gat_layer_is_one_record(rng):
    params = random_gat_params(rng, 3, 2, heads=2, grad=True)
    with Tape() as tape:
        gat_forward(params, rand(rng, (2, 3, 4, 3)), chain_topology(4))
        gat_forward(params, rand(rng, (4, 3)), chain_topology(4))
    assert [rec.op for rec in tape.records] == ["gat_layer", "gat_layer"]


def test_gat_layer_without_tape_records_nothing_and_keeps_bits(rng):
    topo = SkeletonTopology(5, ((0, 1), (0, 2), (0, 3)))
    params = random_gat_params(rng, 3, 2, heads=2, grad=True)
    h = rand(rng, (2, 3, 5, 3), grad=True)
    with Tape():
        taped = gat_forward(params, h, topo)
    untaped = gat_forward(params, h, topo)
    with Tape() as tape:
        untracked = gat_forward(random_gat_params(rng, 3, 2, heads=2), rand(rng, (2, 3, 5, 3)), topo)
    assert taped.requires_grad and not untaped.requires_grad
    assert len(tape.records) == 0 and not untracked.requires_grad
    assert np.array_equal(taped.data, untaped.data)


def _desk_gat_layer(grad):
    """A desk-shaped layer's parameters and input ([B=32, T=32, chain:9,
    H=32], 4 heads) and its topology."""
    rng = np.random.default_rng(1710)
    topo, heads, (b, t, n, hid) = chain_topology(9), 4, (32, 32, 9, 32)
    params = GATLayerParams(
        heads=heads,
        w=[Tensor(rng.normal(0, 0.3, (hid, hid // heads)), requires_grad=grad) for _ in range(heads)],
        a=[Tensor(rng.normal(0, 0.3, (2 * hid // heads,)), requires_grad=grad) for _ in range(heads)],
    )
    return params, Tensor(rng.normal(0, 1, (b, t, n, hid)), requires_grad=grad), topo


def test_taped_desk_gat_layer_holds_only_its_output():
    """One desk-shaped layer ([B=32, T=32, chain:9, H=32], 4 heads) on the
    tape holds its output alone, as the GCN record does: no alpha and no
    mask of positive pair scores (which held 1.43 times the output's
    bytes with it), no projection P and no pre-activation, all of which
    backward rebuilds; its output has the untaped bits."""
    params, h, topo = _desk_gat_layer(grad=True)
    untaped = gat_forward(params, h, topo)
    tape = Tape()

    def forward():
        with tape:
            return gat_forward(params, h, topo)

    taped, held, _ = oracles.traced_streams(forward, untaped.data.nbytes)
    assert len(tape.records) == 1
    assert held <= 1.05
    assert np.array_equal(taped.data, untaped.data)


def test_desk_gat_backward_adds_four_streams_at_most():
    """The backward of one desk-shaped layer rebuilds P, alpha and the mask
    with the forward's own calls, and holds them beside the output's
    gradient, in two layouts for a moment, and the gradients of alpha and
    of P: 3.94 streams. Keeping alpha and the mask on the tape instead put
    it at 3.51."""
    params, h, topo = _desk_gat_layer(grad=True)
    with Tape() as tape:
        out = gat_forward(params, h, topo)
    (rec,) = tape.records
    grad = np.random.default_rng(1711).normal(0.0, 1.0, out.shape)
    _, _, added = oracles.traced_streams(lambda: rec.backward_fn(grad), out.data.nbytes)
    assert added <= 4.0


def test_untaped_desk_gat_forward_transient():
    """With no tape, one desk-shaped layer ([B=32, T=32, chain:9, H=32], 4
    heads) holds at most the projection P, the output before its layout
    copy, alpha with its mask and one pair slab at once: 2.55 streams. The
    softmax and the ELU run in place; out of place they put the peak at
    three streams."""
    params, h, topo = _desk_gat_layer(grad=False)
    out, held, added = oracles.traced_streams(lambda: gat_forward(params, h, topo), h.data.nbytes)
    assert not out.requires_grad
    assert held <= 1.01
    assert added <= 2.6


def test_gat_layer_nan_names_fused_record(rng):
    params = random_gat_params(rng, 3, 2, heads=2, grad=True)
    h = rand(rng, (2, 4, 3))
    h.data[1, 2, 0] = np.nan
    with Tape() as tape:
        out = gat_forward(params, h, chain_topology(4))
    assert first_invalid_record(tape) == f"gat_layer#{out.tid}"


def test_gat_rejects_input_that_does_not_match_topology_or_projection(rng):
    params = random_gat_params(rng, 3, 2)
    with pytest.raises(ShapeError):
        gat_forward(params, rand(rng, (5, 3)), chain_topology(4))
    with pytest.raises(ShapeError):
        gat_forward(params, rand(rng, (4, 2)), chain_topology(4))


# ---------------------------------------------------------------------------
# permutation equivariance

def permute_topology(topo, perm):
    return SkeletonTopology(topo.n_nodes, tuple((int(perm[i]), int(perm[j])) for i, j in topo.edges))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_gcn_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    topo = chain_topology(6)
    perm = rng.permutation(6)
    h = rng.normal(0, 1, (6, 3))
    w = Tensor(rng.normal(0, 1, (3, 4)))
    base = gcn_forward(w, Tensor(h), topo, act="relu").data
    ptopo = permute_topology(topo, perm)
    ph = np.empty_like(h)
    ph[perm] = h  # node i moves to slot perm[i]
    permuted = gcn_forward(w, Tensor(ph), ptopo, act="relu").data
    assert np.allclose(permuted[perm], base, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_gat_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    topo = SkeletonTopology(5, ((0, 1), (1, 2), (1, 3), (3, 4)))
    perm = rng.permutation(5)
    h = rng.normal(0, 1, (5, 3))
    params = GATLayerParams(
        heads=2,
        w=[Tensor(rng.normal(0, 1, (3, 2))) for _ in range(2)],
        a=[Tensor(rng.normal(0, 1, (4,))) for _ in range(2)],
    )
    base = gat_forward(params, Tensor(h), topo, act="elu").data
    ph = np.empty_like(h)
    ph[perm] = h
    permuted = gat_forward(params, Tensor(ph), permute_topology(topo, perm), act="elu").data
    assert np.allclose(permuted[perm], base, atol=1e-12)


# ---------------------------------------------------------------------------
# gradients through the spatial layers

def test_gcn_gradients_pass_finite_differences(rng):
    from skelgru.gradcheck import finite_diff_check

    topo = chain_topology(4)
    h = rand(rng, (4, 3), grad=True)
    w = rand(rng, (3, 2), grad=True)
    f = lambda: ops.sum_all(gcn_forward(w, h, topo, act="elu"))  # noqa: E731
    assert finite_diff_check(f, h) <= 1e-6
    assert finite_diff_check(f, w) <= 1e-6


def test_gcn_gradients_on_stacked_frames_pass_finite_differences(rng):
    from skelgru.gradcheck import finite_diff_check

    topo = default_17_topology()
    h = rand(rng, (2, 3, 17, 4), grad=True)
    w = rand(rng, (4, 3), grad=True)
    weights = rand(rng, (2, 3, 17, 3))
    for act in ("tanh", "elu"):
        f = lambda act=act: ops.sum_all(ops.mul(gcn_forward(w, h, topo, act=act), weights))  # noqa: E731
        assert finite_diff_check(f, h) <= 1e-6
        assert finite_diff_check(f, w) <= 1e-6


def test_gat_gradients_pass_finite_differences(rng):
    from skelgru.gradcheck import finite_diff_check

    topo = chain_topology(4)
    params = random_gat_params(rng, 3, 2, heads=2, grad=True)
    h = rand(rng, (4, 3), grad=True)
    f = lambda: ops.sum_all(gat_forward(params, h, topo, act="elu"))  # noqa: E731
    assert finite_diff_check(f, h) <= 1e-6
    assert finite_diff_check(f, params.w[0]) <= 1e-6
    assert finite_diff_check(f, params.a[1]) <= 1e-6


def test_gat_gradients_at_model_scale_pass_finite_differences():
    """upper17 with 8 heads: every input of the fused record is checked."""
    from skelgru.gradcheck import finite_diff_check

    rng = np.random.default_rng(1710)
    topo = default_17_topology()
    params = GATLayerParams(
        heads=8,
        w=[Tensor(rng.normal(0, 0.5, (8, 2)), requires_grad=True) for _ in range(8)],
        a=[Tensor(rng.normal(0, 1, (4,)), requires_grad=True) for _ in range(8)],
    )
    h = Tensor(rng.normal(0, 1, (2, 17, 8)), requires_grad=True)
    weights = Tensor(rng.normal(0, 1, (2, 17, 16)))
    f = lambda: ops.sum_all(ops.mul(gat_forward(params, h, topo, act="elu"), weights))  # noqa: E731
    for leaf in (h, *params.w, *params.a):
        assert finite_diff_check(f, leaf) <= 1e-6
