"""The three benchmark workloads: set-up, the timed closed loop, and the
output checks.

Every workload is a closed loop with one client in one process. The
program only ever sees files the benchmark generated from the workload
seed: a dataset written with ``data.write_dataset`` and, for inference,
a checkpoint written with ``checkpoint.save_checkpoint``.

Program functions are called through their modules (``data.ingest``,
``training.train``, ...) so that the tracer's wrappers apply. The checks
at the end run after the tracer is removed and use the same calls.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from skelgru import checkpoint, config, data, graph, model, training
from skelgru.seeding import derive_rng
from skelgru.tensor import Tensor

SETUP_SHARE = 0.15  # share of the run spent repeating the set-up, for setup_s
TRAIN_EPOCHS = 2  # epochs per training.train call; the loss must fall across them
REQUEST_SAMPLES = 32  # samples per predict request file
REQUEST_FILES = 10  # distinct request files, cycled through in order

WORKLOADS = {
    "train-desk-gat": ("train", "configs/desk_scale.cfg", []),
    "train-deep-gcn": ("train", "configs/paper_scale.cfg", [
        "model.gnn=gcn", "train.batch_size=4", "synth.nodes=17",
        "synth.classes=2", "synth.samples_per_class=8",
    ]),
    "infer-desk-gat": ("infer", "configs/desk_scale.cfg", [  # 5 synthetic classes
        f"synth.samples_per_class={REQUEST_SAMPLES * REQUEST_FILES // 5}",
    ]),
}


@dataclass
class Outcome:
    """What one run measured and which of its operations failed."""

    setup_s: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)  # per epoch or per request
    samples_per_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    ingest_samples: int = 0  # per set-up (train) or per request (infer)
    checkpoint_bytes: int = 0  # size of best.ckpt (train)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def run_workload(name: str, root: Path, work: Path, seed: int, seconds: float, tracer) -> Outcome:
    kind, cfg_file, overrides = WORKLOADS[name]
    overrides = [f"seed={seed}", *overrides]
    runner = _run_train if kind == "train" else _run_infer
    return runner(root / cfg_file, overrides, work, seconds, tracer)


class SetUps:
    """The set-up, timed once before the loop and repeated between its
    operations.

    ``setup_s`` is the median of all repeats. Spreading them over the run
    lets them sample the same stretch of a shared machine's varying speed
    as the operations do, instead of the first few seconds only. Repeats
    after the first work in a directory of their own, removed after each.
    """

    def __init__(self, out: Outcome, tracer, setup, cfg_path: Path, overrides: list[str], work: Path):
        self.out, self.tracer, self.setup = out, tracer, setup
        self.cfg_path, self.overrides, self.work = cfg_path, overrides, work
        self.started = time.perf_counter()
        self.first = self._once(work / "setup-0")

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def catch_up(self) -> None:
        """Repeat the set-up until repeats fill SETUP_SHARE of the run so far."""
        while sum(self.out.setup_s) < SETUP_SHARE * self.elapsed():
            where = self.work / f"setup-{len(self.out.setup_s)}"
            self._once(where)
            shutil.rmtree(where)

    def _once(self, where: Path):
        self.tracer.begin_unit(where.name)
        started = time.perf_counter()
        result = self.setup(self.cfg_path, self.overrides, where)
        self.out.setup_s.append(time.perf_counter() - started)
        self.tracer.end_unit()
        return result


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainSetup:
    cfg: dict
    topo: graph.SkeletonTopology
    mc: model.ModelConfig
    train: data.PreparedSplit
    val: data.PreparedSplit
    params: model.ModelParams
    state: training.AdamWState


def _fresh_state(cfg: dict, mc: model.ModelConfig):
    params = model.init_model_params(mc, seed=cfg["seed"])
    state = training.init_adamw(
        model.named_parameters(params),
        lr=cfg["optim.lr"],
        weight_decay=cfg["optim.weight_decay"],
        beta1=cfg["optim.beta1"],
        beta2=cfg["optim.beta2"],
        eps=cfg["optim.eps"],
    )
    return params, state


def _setup_train(cfg_path: Path, overrides: list[str], work: Path) -> TrainSetup:
    cfg = config.load_run_config(cfg_path, overrides + [
        f"data.dir={work / 'data'}", f"out.dir={work / 'out'}", f"train.epochs={TRAIN_EPOCHS}",
    ])
    manifest = data.synthesize(config.synth_spec_from(cfg))
    data_dir = Path(cfg["data.dir"])
    data_dir.mkdir(parents=True)
    for part in data.split(manifest, config.split_fractions_from(cfg), seed=cfg["seed"]):
        data.write_dataset(part, data_dir / f"{part.split_tag}.jsonl")
    topo = graph.resolve_topology(cfg["data.topology"])
    mc = config.model_config_from(cfg, topo.n_nodes)
    splits = {}
    for tag in ("train", "val"):
        part = data.ingest(data_dir / f"{tag}.jsonl", topo, class_count=mc.classes)
        splits[tag] = data.prepare_split(part, mc.seq_len, cfg["data.normalize"])
    params, state = _fresh_state(cfg, mc)
    return TrainSetup(cfg, topo, mc, splits["train"], splits["val"], params, state)


def _run_train(cfg_path, overrides, work, seconds, tracer) -> Outcome:
    out = Outcome()
    setups = SetUps(out, tracer, _setup_train, cfg_path, overrides, work)
    s = setups.first
    plan = config.train_plan_from(s.cfg)
    out_dir = Path(s.cfg["out.dir"])
    ckpt = out_dir / "best.ckpt"
    per_call_rate = []
    first = None  # (losses per epoch, checkpoint digest) of the first call
    call, wall = 0, 0.0
    untime_steps = _time_steps(out.op_ms)
    while True:
        if call:  # repeat the set-up; start another call only if it should end in time
            setups.catch_up()
            if setups.elapsed() + wall >= seconds:
                break
        params, state = _fresh_state(s.cfg, s.mc) if call else (s.params, s.state)
        out.attempted += plan.epochs
        tracer.begin_unit(f"train-{call}")
        started = time.perf_counter()
        try:
            result = training.train(params, s.mc, s.topo, s.train, s.val, plan, state, out_dir)
        except Exception as exc:  # an operation that raises counts as failed
            tracer.end_unit()
            out.fail(plan.epochs, f"train call {call}: {type(exc).__name__}: {exc}")
            call += 1
            continue
        finally:
            wall = time.perf_counter() - started
        tracer.end_unit()
        per_call_rate.append(len(s.train) * plan.epochs / wall)
        out.checkpoint_bytes = ckpt.stat().st_size
        run = ([(r["train_loss"], r["val_loss"], r["val_acc"]) for r in result.records],
               hashlib.sha256(ckpt.read_bytes()).hexdigest())
        first = first or run
        bad = _bad_epochs(result.records, plan.epochs, run, first)
        if bad:
            out.fail(len(bad), f"train call {call}: " + "; ".join(sorted(set(bad.values()))))
        call += 1
    untime_steps()
    tracer.uninstall()  # the output checks below are not measured
    out.samples_per_s = statistics.median(per_call_rate) if per_call_rate else 0.0
    out.ingest_samples = len(s.train) + len(s.val)
    if first is not None:
        try:
            trained, _, _ = checkpoint.load_checkpoint(
                ckpt, expected_config=s.mc, expected_topology_hash=s.topo.canonical_hash()
            )
        except checkpoint.CheckpointError as exc:
            out.fail(1, f"best.ckpt does not load: {exc}")
        else:
            init = dict(model.named_parameters(model.init_model_params(s.mc, seed=s.cfg["seed"])))
            if all(np.array_equal(t.data, init[name].data)
                   for name, t in model.named_parameters(trained)):
                out.fail(1, "best.ckpt holds the initial parameters")
    return out


def _time_steps(step_ms: list[float]):
    """Time every training step into ``step_ms``; returns the undo.

    A step runs from the last ``model_forward`` call before an
    ``adamw_step`` to that step's return: forward, loss, backward and
    AdamW. The program logs only epoch times, and a run holds too few
    epochs for a steady p90, so the two calls are wrapped here.
    """
    forward, adamw_step = training.model_forward, training.adamw_step
    started = 0.0

    def timed_forward(*args, **kwargs):
        nonlocal started
        started = time.perf_counter()
        return forward(*args, **kwargs)

    def timed_adamw_step(*args, **kwargs):
        result = adamw_step(*args, **kwargs)
        step_ms.append((time.perf_counter() - started) * 1e3)
        return result

    def undo():
        training.model_forward, training.adamw_step = forward, adamw_step

    training.model_forward, training.adamw_step = timed_forward, timed_adamw_step
    return undo


def _bad_epochs(records: list[dict], epochs: int, run, first) -> dict[int, str]:
    """Epochs of one training.train call that fail an output check, with why.

    Every loss must be finite, the last epoch's train_loss must be below
    the first's, and a call must repeat the first call's losses and
    checkpoint bytes exactly (each call trains the same init on the same
    data with the same seed).
    """
    if len(records) != epochs:
        return {i: f"{len(records)} epoch records" for i in range(epochs)}
    bad = {}
    for i, r in enumerate(records):
        if not (math.isfinite(r["train_loss"]) and math.isfinite(r["val_loss"])):
            bad[i] = "non-finite loss"
        elif run[0][i] != first[0][i]:
            bad[i] = "losses differ from the first call"
    if not records[-1]["train_loss"] < records[0]["train_loss"]:
        bad.setdefault(epochs - 1, "train_loss did not fall")
    if run[1] != first[1]:
        bad.setdefault(epochs - 1, "best.ckpt differs from the first call")
    return bad


# ---------------------------------------------------------------------------
# inference

@dataclass
class InferSetup:
    cfg: dict
    topo: graph.SkeletonTopology
    mc: model.ModelConfig
    params: model.ModelParams
    requests: list[tuple[Path, list[str]]]  # request file and its sample ids


def _setup_infer(cfg_path: Path, overrides: list[str], work: Path) -> InferSetup:
    cfg = config.load_run_config(cfg_path, overrides + [
        f"data.dir={work / 'data'}", f"out.dir={work / 'out'}",
    ])
    manifest = data.synthesize(config.synth_spec_from(cfg))
    order = derive_rng(cfg["seed"], "bench-requests").permutation(len(manifest))
    data_dir = Path(cfg["data.dir"])
    data_dir.mkdir(parents=True)
    requests = []
    for k in range(REQUEST_FILES):
        picked = [manifest.samples[i] for i in order[k * REQUEST_SAMPLES:(k + 1) * REQUEST_SAMPLES]]
        path = data_dir / f"request-{k:02d}.jsonl"
        data.write_dataset(data.DatasetManifest(picked, manifest.class_count), path)
        requests.append((path, [p.id for p in picked]))
    topo = graph.resolve_topology(cfg["data.topology"])
    mc = config.model_config_from(cfg, topo.n_nodes)
    ckpt = Path(cfg["out.dir"]) / "serving.ckpt"
    ckpt.parent.mkdir(parents=True)
    checkpoint.save_checkpoint(model.init_model_params(mc, seed=cfg["seed"]), mc, ckpt,
                               topology_hash=topo.canonical_hash())
    params, loaded, _ = checkpoint.load_checkpoint(ckpt, expected_topology_hash=topo.canonical_hash())
    return InferSetup(cfg, topo, loaded, params, requests)


def _predict(s: InferSetup, path: Path):
    """One request, as ``skelgru predict`` serves it."""
    prepared = data.prepare_split(data.ingest(path, s.topo), s.mc.seq_len, s.cfg["data.normalize"])
    logits = training.eval_logits(s.params, s.mc, s.topo, prepared,
                                  batch_size=s.cfg["train.batch_size"])
    classes, probs = model.predict(Tensor(logits))
    return prepared.ids, logits, classes, probs


def _run_infer(cfg_path, overrides, work, seconds, tracer) -> Outcome:
    out = Outcome()
    setups = SetUps(out, tracer, _setup_infer, cfg_path, overrides, work)
    s = setups.first
    first_logits: dict[int, np.ndarray] = {}
    samples, serving_s = 0, 0.0  # serving_s: wall time inside requests
    while out.attempted == 0 or setups.elapsed() < seconds:
        setups.catch_up()
        k = out.attempted % len(s.requests)
        path, ids = s.requests[k]
        out.attempted += 1
        tracer.begin_unit(f"request-{out.attempted - 1}")
        started = time.perf_counter()
        try:
            got_ids, logits, classes, probs = _predict(s, path)
        except Exception as exc:  # an operation that raises counts as failed
            tracer.end_unit()
            out.fail(1, f"request {path.name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            request_s = time.perf_counter() - started
            serving_s += request_s
        out.op_ms.append(request_s * 1e3)
        tracer.end_unit()
        samples += len(got_ids)
        why = _bad_response(s.mc.classes, ids, got_ids, logits, classes, probs)
        if why is None and not np.array_equal(first_logits.setdefault(k, logits), logits):
            why = "logits differ from the first response to the same file"
        if why:
            out.fail(1, f"request {path.name}: {why}")
    tracer.uninstall()  # the output checks below are not measured
    out.samples_per_s = samples / serving_s
    out.ingest_samples = REQUEST_SAMPLES

    # Concatenated per-request logits must equal one eval_logits pass over
    # the same samples (request size equals the batch size, so the batches
    # line up and the arithmetic is identical).
    answered = sorted(first_logits)
    if not answered:
        return out
    everything = data.DatasetManifest(
        [sample for k in answered for sample in data.ingest(s.requests[k][0], s.topo).samples],
        s.mc.classes,
    )
    one_pass = training.eval_logits(
        s.params, s.mc, s.topo,
        data.prepare_split(everything, s.mc.seq_len, s.cfg["data.normalize"]),
        batch_size=s.cfg["train.batch_size"],
    )
    if not np.array_equal(one_pass, np.concatenate([first_logits[k] for k in answered])):
        out.fail(1, "per-request logits differ from one eval_logits pass over the same samples")
    return out


def _bad_response(classes: int, ids, got_ids, logits, predicted, probs) -> str | None:
    """Every sample answered, in order, with a class in range and a
    probability in (0, 1] that are the argmax and softmax of its logits."""
    if list(got_ids) != list(ids):
        return "sample ids differ from the request file"
    if len(predicted) != len(ids) or len(probs) != len(ids):
        return f"{len(predicted)} predictions for {len(ids)} samples"
    if not ((predicted >= 0) & (predicted < classes)).all():
        return "class out of range"
    if not ((probs > 0) & (probs <= 1)).all():
        return "probability outside (0, 1]"
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    softmax_at_class = e[np.arange(len(e)), predicted] / e.sum(axis=1)
    if not (predicted == logits.argmax(axis=1)).all() or not np.allclose(
        probs, softmax_at_class, rtol=1e-12, atol=0.0
    ):
        return "class or probability disagrees with the logits"
    return None
