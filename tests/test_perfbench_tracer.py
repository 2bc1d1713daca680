"""The benchmark's tracer (perfbench/tracer.py) still fits the program.

The tracer wraps functions of ``skelgru`` by attribute substitution, so a
rename or a moved call in ``src/`` can break ``perfbench/run.py --trace 1``
or silently stop charging a layer. This test loads the tracer without
writing anything under ``perfbench/`` and runs an evaluation and a training
forward pass of a tiny GAT and a tiny GCN under it.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from skelgru import ops, training
from skelgru.data import PreparedSplit
from skelgru.graph import chain_topology
from skelgru.model import init_model_params, tiny_reference_config
from skelgru.tensor import Tape

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("gnn", ["gat", "gcn"])
def test_tracer_wraps_every_layer_the_model_uses(tracer_module, gnn):
    config = dataclasses.replace(tiny_reference_config(), gnn_kind=gnn)
    topo = chain_topology(config.n_nodes)
    params = init_model_params(config, seed=0)
    rng = np.random.default_rng(0)
    batch = PreparedSplit(
        rng.normal(size=(2, config.seq_len, config.n_nodes, config.input_dim)),
        np.ones((2, config.seq_len), dtype=bool),
        np.array([0, 2]),
    )
    wrapped = [*tracer_module.LAYERS.values(), *tracer_module.CALLS.values(),
               (training, "backward")]
    originals = [getattr(module, attr) for module, attr in wrapped]

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not f for (m, a), f in zip(wrapped, originals))
        with Tape():
            logits = training.model_forward(params, config, batch, topo, training=False)
            ops.cross_entropy(logits, batch.labels)
        assert tracer.step_batch == {}
        with Tape():  # positional, as the tracer reads the batch at args[2] and training at args[4]
            logits = training.model_forward(params, config, batch, topo, True, np.random.default_rng(3))
            ops.cross_entropy(logits, batch.labels)
        assert tracer.step_batch == {(None, 0): 2}
    finally:
        tracer.uninstall()

    assert all(getattr(m, a) is f for (m, a), f in zip(wrapped, originals))
    unused = {"gat": "graph.gcn_forward", "gcn": "graph.gat_forward"}[gnn]
    opened = {span.name for span in tracer.spans}
    assert set(tracer_module.LAYERS) - {unused} <= opened
    assert unused not in opened
    assert not tracer.exceptions
