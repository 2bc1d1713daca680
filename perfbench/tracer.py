"""Per-layer attribution for the traced benchmark run.

The tracer replaces public functions of the program with timing wrappers
by attribute substitution in this process; nothing in ``src/`` knows it
exists. Each wrapped call becomes a span (name, start, end, parent, unit,
step). Tape records are charged to the innermost wrapped call that was
open when they were appended, by reading ``len(tape.records)`` at every
span boundary. When ``tensor.backward`` is entered, each record's
``backward_fn`` is wrapped so that backward time is charged to the layer
that recorded it. Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict

from skelgru import checkpoint, config, data, model, ops, tensor, training

# Layers whose forward self time, backward time and tape records are
# attributed per step. Name -> (module holding the reference the program
# calls, attribute). ``skelgru.model`` imports gat_forward, gcn_forward and
# unroll by name, so those wrappers go on ``skelgru.model``.
LAYERS = {
    "model.embed_input": (model, "embed_input"),
    "model.residual_norm_stage": (model, "residual_norm_stage"),
    "graph.gat_forward": (model, "gat_forward"),
    "graph.gcn_forward": (model, "gcn_forward"),
    "cells.unroll": (model, "unroll"),
    "model.temporal_attention_pool": (model, "temporal_attention_pool"),
    "model.classify": (model, "classify"),
    "ops.cross_entropy": (ops, "cross_entropy"),
}

# Whole calls, timed but not split into layers.
CALLS = {
    "model.model_forward": (training, "model_forward"),
    "training.eval_logits": (training, "eval_logits"),
    "training.adamw_step": (training, "adamw_step"),
    "checkpoint.save_checkpoint": (training, "save_checkpoint"),
    "checkpoint.load_checkpoint": (checkpoint, "load_checkpoint"),
    "data.ingest": (data, "ingest"),
    "data.prepare_split": (data, "prepare_split"),
    "data.synthesize": (data, "synthesize"),
    "config.load_run_config": (config, "load_run_config"),
}

COUNTED_OPS = ("matmul", "transpose", "concat", "add_bias", "mul")


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "step")

    def __init__(self, name, start, parent, unit, step):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.unit = unit
        self.step = step


class StepTape:
    """What one training step put on its tape, charged to layers."""

    def __init__(self):
        self.records = Counter()  # layer -> records
        self.bytes = Counter()  # layer -> bytes of record outputs
        self.ops = Counter()  # op name -> records
        self.bwd_s = defaultdict(float)  # layer -> seconds in backward_fn
        self.backward_total_s = 0.0
        self.tracer_s = 0.0  # the tracer's own time charging and wrapping records


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`.

    The benchmark marks units of work (a set-up, a ``training.train``
    call, a predict request) with :meth:`begin_unit`/:meth:`end_unit`.
    Inside a train unit a step starts when ``model_forward`` is called
    with ``training=True`` and ends when ``adamw_step`` returns.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.exceptions = Counter()
        self.tapes: dict[tuple, StepTape] = {}
        self.step_batch: dict[tuple, int] = {}
        self._open: list[int] = []
        self._undo: list[tuple] = []
        self._unit = None
        self._step = None
        self._next_step = 0
        self._tape = None
        self._owner: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name, (module, attr) in {**LAYERS, **CALLS}.items():
            self._wrap(module, attr, name)
        real_backward = training.backward
        self._undo.append((training, "backward", real_backward))
        training.backward = lambda tape, loss: self._backward(real_backward, tape, loss)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, module, attr, name) -> None:
        original = getattr(module, attr)
        if name == "model.model_forward":
            def wrapper(*args, **kwargs):
                if kwargs.get("training", args[4] if len(args) > 4 else False):
                    self._step = (self._unit, self._next_step)
                    self._next_step += 1
                    self.step_batch[self._step] = args[2].size
                return self._call(name, original, args, kwargs)
        elif name == "training.adamw_step":
            def wrapper(*args, **kwargs):
                try:
                    return self._call(name, original, args, kwargs)
                finally:
                    self._step = None
        else:
            def wrapper(*args, **kwargs):
                return self._call(name, original, args, kwargs)
        self._undo.append((module, attr, original))
        setattr(module, attr, wrapper)

    # -- units ------------------------------------------------------------

    def begin_unit(self, unit: str) -> None:
        self._unit = unit
        self._next_step = 0
        self._begin("unit:" + unit.split("-")[0])

    def end_unit(self) -> None:
        self._end()
        self._unit = None

    # -- spans ------------------------------------------------------------

    def _begin(self, name: str) -> None:
        self._flush()
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append(Span(name, time.perf_counter(), parent, self._unit, self._step))

    def _end(self) -> None:
        self._flush()
        self.spans[self._open.pop()].end = time.perf_counter()

    def _call(self, name, fn, args, kwargs):
        self._begin(name)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.exceptions[name] += 1
            raise
        finally:
            self._end()

    def _flush(self) -> None:
        """Charge records appended since the last span boundary to the
        innermost open span."""
        tape = tensor.active_tape()
        if tape is None:
            return
        if tape is not self._tape:
            self._tape, self._owner = tape, []
        owner = self.spans[self._open[-1]].name if self._open else None
        self._owner.extend([owner] * (len(tape.records) - len(self._owner)))

    def _backward(self, real_backward, tape, loss):
        self._begin("tensor.backward")  # charges any unclaimed records
        started = time.perf_counter()
        st = StepTape()
        for rec, layer in zip(tape.records, self._owner):
            st.records[layer] += 1
            st.bytes[layer] += rec.output.data.nbytes
            st.ops[rec.op] += 1
            rec.backward_fn = _timed(rec.backward_fn, layer, st.bwd_s)
        self.tapes[self._step] = st
        st.tracer_s = time.perf_counter() - started
        started = time.perf_counter()
        try:
            return real_backward(tape, loss)
        except BaseException:
            self.exceptions["tensor.backward"] += 1
            raise
        finally:
            st.backward_total_s = time.perf_counter() - started
            self._tape, self._owner = None, []
            self._end()

    # -- output -----------------------------------------------------------

    def _self_seconds(self) -> list[float]:
        """A span's duration minus the part its child spans cover."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def dump(self) -> dict:
        """Spans aggregated per (unit, step, name), with self times."""
        agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self._self_seconds()):
            row = agg[(span.unit, span.step[1] if span.step else None, span.name)]
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += own
        return {
            "spans": [{"unit": u, "step": s, "name": n, **row} for (u, s, n), row in agg.items()],
            "tapes": {f"{k[0]}/{k[1]}": {"records": dict(v.records), "bytes": dict(v.bytes),
                                         "ops": dict(v.ops), "bwd_s": dict(v.bwd_s),
                                         "backward_total_s": v.backward_total_s,
                                         "tracer_s": v.tracer_s}
                      for k, v in self.tapes.items()},
            "exceptions": dict(self.exceptions),
        }

    def layer_metrics(self, ingest_samples: int, checkpoint_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the run, per step (training) or per request.

        Times are medians over steps or requests; tape counts come from
        full-batch steps, which must all agree exactly. Per-call metrics
        (``training.*``, ``checkpoint.*``) are medians over calls, and
        ``data.*``/``config.*`` are per set-up or per request.
        """
        per_call = defaultdict(list)
        per_unit = defaultdict(Counter)  # unit -> name -> seconds
        calls = defaultdict(Counter)  # unit -> name -> calls
        ops_ = defaultdict(lambda: {"start": math.inf, "end": -math.inf, "self": Counter()})
        for span, own in zip(self.spans, self._self_seconds()):
            total = span.end - span.start
            unit = span.unit or ""
            per_call[span.name].append(total)
            per_unit[unit][span.name] += total
            calls[unit][span.name] += 1
            key = span.step or (unit if unit.startswith("request") else None)
            if key is not None:
                op = ops_[key]
                op["start"] = min(op["start"], span.start)
                op["end"] = max(op["end"], span.end)
                op["self"][span.name] += own

        def unit_median(name):
            return _median([c[name] for c in per_unit.values() if name in c])

        def op_median(value):
            return _median([value(key, op) for key, op in ops_.items()])

        empty = StepTape()

        def bwd(key):
            return self.tapes.get(key, empty)

        def step_s(key, op):
            """Wall time of a step or request, less the tracer's own
            charging and wrapping of tape records before backward."""
            return op["end"] - op["start"] - bwd(key).tracer_s

        def unattributed(key, op):
            accounted = sum(op["self"][name] for name in (*LAYERS, "training.adamw_step",
                                                           "data.ingest", "data.prepare_split"))
            return step_s(key, op) - accounted - bwd(key).backward_total_s

        m = {
            "tensor.backward.total_s": op_median(lambda k, op: bwd(k).backward_total_s),
            "tensor.backward.self_s": op_median(
                lambda k, op: bwd(k).backward_total_s - sum(bwd(k).bwd_s.values())),
            "trace.step_s": op_median(step_s),
            "unattributed_s": op_median(unattributed),
            "unattributed_share": op_median(lambda k, op: unattributed(k, op) / step_s(k, op)),
        }
        counts = self._full_step_counts()
        m["tensor.tape.records"] = sum(counts.records.values())
        m["tensor.tape.bytes"] = sum(counts.bytes.values())
        for layer in LAYERS:
            prefix = layer + (".self_" if layer == "model.residual_norm_stage" else ".")
            m[prefix + "fwd_s"] = op_median(lambda k, op: op["self"][layer])
            m[prefix + "bwd_s"] = op_median(lambda k, op: bwd(k).bwd_s[layer])
            m[prefix + "records"] = counts.records[layer]
            m[prefix + "bytes"] = counts.bytes[layer]
        for name in COUNTED_OPS:
            m[f"ops.{name}.records"] = counts.ops[name]
        for name in ("training.adamw_step", "training.eval_logits",
                     "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
            m[name + ".s"] = _median(per_call[name])
        m["checkpoint.save_checkpoint.calls"] = _median(
            [calls[u]["checkpoint.save_checkpoint"] for u in calls if u.startswith("train")])
        m["checkpoint.save_checkpoint.bytes"] = checkpoint_bytes
        for name in ("data.ingest", "data.prepare_split", "data.synthesize",
                     "config.load_run_config"):
            m[name + ".s"] = unit_median(name)
        m["data.ingest.samples"] = ingest_samples
        m["trace.exceptions"] = sum(self.exceptions.values())
        return m

    def _full_steps(self) -> list[tuple]:
        if not self.step_batch:
            return []
        full = max(self.step_batch.values())
        return [k for k, size in self.step_batch.items() if size == full and k in self.tapes]

    def _full_step_counts(self) -> StepTape:
        steps = self._full_steps()
        return self.tapes[steps[0]] if steps else StepTape()

    def count_mismatch(self) -> str | None:
        """Tape counts must repeat exactly across the full-batch steps of a run."""
        steps = self._full_steps()
        for key in steps[1:]:
            a, b = self.tapes[steps[0]], self.tapes[key]
            if (a.records, a.bytes, a.ops) != (b.records, b.bytes, b.ops):
                return f"tape counts of step {key} differ from step {steps[0]}"
        return None


def _timed(fn, layer, acc):
    def run(g):
        started = time.perf_counter()
        out = fn(g)
        acc[layer] += time.perf_counter() - started
        return out
    return run


def _median(values, default=0.0):
    return statistics.median(values) if values else default
