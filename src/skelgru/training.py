"""AdamW optimization, the epoch loop, and evaluation metrics."""

from __future__ import annotations

import ctypes
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ops
from .checkpoint import save_checkpoint
from .data import PreparedSplit
from .graph import SkeletonTopology
from .model import ModelConfig, ModelParams, SequenceBatch, model_forward, named_parameters
from .tensor import Tape, Tensor, backward, first_invalid_record
from .seeding import derive_rng


class OptimizerError(RuntimeError):
    """A parameter is missing its gradient at step time."""


class NumericsError(RuntimeError):
    """Training produced a non-finite loss, gradient, parameter or validation logit."""


# glibc mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def retain_freed_memory() -> None:
    """Keep the memory a training step or an inference call frees mapped.

    glibc by default returns the heap's free top to the kernel and maps
    large arrays apart, so each call faults the last one's freed pages in
    again: 85k-175k minor faults per two-epoch desk training call, 8k-12k
    (18-20 ms) per 32-sample desk batch. Fixed thresholds (arrays up to 32 MB
    from the heap, no trim below 1 GB of free top) keep them mapped at the
    same peak RSS. ``train`` and ``eval_logits`` call this; it acts once per
    process, as repeating it per call slowed training. No-op without glibc.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):
        return
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class AdamWState:
    """Decoupled-weight-decay Adam moments, keyed by parameter name."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not 0 <= self.lr < np.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValueError(f"betas must be in [0, 1), got ({self.beta1}, {self.beta2})")
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")


def init_adamw(
    named: list[tuple[str, Tensor]], lr: float, weight_decay: float = 0.0, **kwargs
) -> AdamWState:
    state = AdamWState(lr=lr, weight_decay=weight_decay, **kwargs)
    for name, tensor in named:
        state.m[name] = np.zeros(tensor.shape)
        state.v[name] = np.zeros(tensor.shape)
    return state


def adamw_step(
    state: AdamWState,
    named: list[tuple[str, Tensor]],
    grads: dict[str, np.ndarray] | None = None,
) -> None:
    """One update over every named parameter.

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p); the
    decay term never passes through the adaptive scaling. Gradients come
    from each tensor's .grad unless an explicit dict is supplied. A
    missing, misshapen or unregistered gradient raises OptimizerError,
    naming the first such parameter in sorted-name order. Every new value
    is then computed apart and checked before any is written: a non-finite
    gradient, or an update that overflows a parameter, raises
    NumericsError naming the first such parameter. Either error leaves the
    parameters, the moments and the step count untouched.
    """
    checked = []
    for name, tensor in sorted(named):
        g = grads.get(name) if grads is not None else tensor.grad
        if g is None:
            raise OptimizerError(f"parameter {name!r} has no gradient")
        if g.shape != tensor.shape:
            raise OptimizerError(
                f"parameter {name!r}: gradient shape {list(g.shape)} != {list(tensor.shape)}"
            )
        if name not in state.m:
            raise OptimizerError(f"parameter {name!r} not registered in optimizer state")
        checked.append((name, tensor, g))
    t = state.step + 1
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    # each parameter's temporaries share one buffer; its new moments and
    # values are made apart and swapped in once all are known to be finite
    scratch = np.empty(max((g.size for _, _, g in checked), default=0))
    updated = []
    with np.errstate(over="ignore", invalid="ignore"):  # each new value is checked
        for name, tensor, g in checked:
            buf = scratch[:g.size].reshape(g.shape)
            m = state.m[name] * state.beta1
            m += np.multiply(g, 1.0 - state.beta1, out=buf)
            v = state.v[name] * state.beta2
            v += np.multiply(np.multiply(g, 1.0 - state.beta2, out=buf), g, out=buf)
            new = m / bc1
            new /= np.add(np.sqrt(np.divide(v, bc2, out=buf), out=buf), state.eps, out=buf)
            if state.weight_decay:
                new += np.multiply(tensor.data, state.weight_decay, out=buf)
            new *= state.lr
            np.subtract(tensor.data, new, out=new)
            if not np.isfinite(new).all():  # as it always is after a non-finite gradient
                what = "update overflows" if np.isfinite(g).all() else "non-finite gradient for"
                raise NumericsError(f"{what} parameter {name!r} at optimizer step {t}")
            updated.append((name, tensor, m, v, new))
    state.step = t
    for name, tensor, m, v, new in updated:
        state.m[name], state.v[name], tensor.data = m, v, new


# ---------------------------------------------------------------------------
# plans and reports

@dataclass(frozen=True)
class TrainPlan:
    epochs: int
    batch_size: int
    seed: int = 0
    patience: int = 0  # 0 disables early stopping

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    zero_division: bool = False


@dataclass
class EvalReport:
    """An evaluation, held as its confusion counts; the metrics derive from them."""

    confusion: np.ndarray  # [C, C], rows = true class, columns = predicted

    def __post_init__(self):
        self.confusion = np.asarray(self.confusion, dtype=np.int64)
        c = self.confusion.shape[0]
        if self.confusion.shape != (c, c):
            raise ValueError(f"confusion must be square, got {list(self.confusion.shape)}")

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.confusion)) / int(self.confusion.sum())

    @property
    def per_class(self) -> list[ClassMetrics]:
        return per_class_metrics(self.confusion)


def per_class_metrics(confusion: np.ndarray) -> list[ClassMetrics]:
    """Precision, recall, F1 and support per class from a count matrix.

    Zero-denominator cases (no predictions, or no true instances, or
    p + r = 0) yield 0.0 with the zero_division flag set instead of NaN.
    """
    conf = np.asarray(confusion)
    if conf.ndim != 2 or conf.shape[0] != conf.shape[1]:
        raise ValueError(f"confusion must be square, got {list(conf.shape)}")
    if (conf < 0).any():
        raise ValueError("confusion counts must be non-negative")
    out = []
    for c in range(conf.shape[0]):
        tp = float(conf[c, c])
        pred = float(conf[:, c].sum())
        true = float(conf[c, :].sum())
        flagged = False
        if pred > 0:
            precision = tp / pred
        else:
            precision, flagged = 0.0, True
        if true > 0:
            recall = tp / true
        else:
            recall, flagged = 0.0, True
        if precision + recall > 0:
            f1 = 2.0 * precision * recall / (precision + recall)
        else:
            f1, flagged = 0.0, True
        out.append(ClassMetrics(precision, recall, f1, int(true), flagged))
    return out


def format_eval_report(report: EvalReport, sort: str = "class") -> str:
    """Plain-text table: class, precision, recall, f1, support.

    sort is 'class' (ascending index), 'f1' (descending score), or
    'f1_asc' (ascending score); score ties break by class index.
    """
    if sort not in ("class", "f1", "f1_asc"):
        raise ValueError(f"sort must be 'class', 'f1' or 'f1_asc', got {sort!r}")
    rows = list(enumerate(report.per_class))
    if sort == "f1":
        rows.sort(key=lambda kv: (-kv[1].f1, kv[0]))
    elif sort == "f1_asc":
        rows.sort(key=lambda kv: (kv[1].f1, kv[0]))
    lines = [f"accuracy {report.accuracy:.6f}", "class precision recall f1 support"]
    for idx, m in rows:
        star = " *" if m.zero_division else ""
        lines.append(
            f"{idx} {m.precision:.6f} {m.recall:.6f} {m.f1:.6f} {m.support}{star}"
        )
    if any(m.zero_division for _, m in rows):
        lines.append("* zero-denominator metric reported as 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evaluation

def _batch_slices(total: int, batch_size: int):
    for start in range(0, total, batch_size):
        yield slice(start, min(start + batch_size, total))


def eval_logits(
    params: ModelParams,
    config: ModelConfig,
    topo: SkeletonTopology,
    split: PreparedSplit,
    batch_size: int = 64,
) -> np.ndarray:
    """Forward the whole split with dropout off and no gradient tape."""
    retain_freed_memory()
    chunks = []
    for sl in _batch_slices(len(split), batch_size):
        batch = SequenceBatch(
            Tensor(split.features[sl]), split.mask[sl], split.labels[sl]
        )
        chunks.append(model_forward(params, config, batch, topo, training=False).data)
    return np.concatenate(chunks, axis=0)


def evaluate(
    params: ModelParams,
    config: ModelConfig,
    topo: SkeletonTopology,
    split: PreparedSplit,
    batch_size: int = 64,
) -> EvalReport:
    """Deterministic full-split evaluation; ties go to the lower class index."""
    if len(split) == 0:
        raise ValueError("cannot evaluate an empty split")
    logits = eval_logits(params, config, topo, split, batch_size)
    preds = logits.argmax(axis=1)
    conf = np.zeros((config.classes, config.classes), dtype=np.int64)
    np.add.at(conf, (split.labels, preds), 1)
    return EvalReport(conf)


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    records: list[dict]
    best_epoch: int
    best_val_acc: float
    checkpoint_path: str
    log_path: str
    stopped_early: bool = False


def train(
    params: ModelParams,
    config: ModelConfig,
    topo: SkeletonTopology,
    train_split: PreparedSplit,
    val_split: PreparedSplit,
    plan: TrainPlan,
    state: AdamWState,
    out_dir,
) -> TrainResult:
    """Epoch loop: seeded shuffle, minibatch forward/backward, AdamW step.

    Writes one structured log record per epoch (epoch, train_loss,
    val_loss, val_acc, wall_seconds) to out_dir/train_log.jsonl and keeps
    the best-validation-accuracy parameters in out_dir/best.ckpt. A
    non-finite loss aborts with the first offending tensor named, a
    non-finite gradient or an overflowing update with its parameter named
    (by adamw_step), and non-finite validation logits with the epoch named,
    before that epoch's log record or checkpoint is written.
    """
    if len(train_split) == 0 or len(val_split) == 0:
        raise ValueError("train and validation splits must be non-empty")
    retain_freed_memory()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "train_log.jsonl"
    ckpt_path = out / "best.ckpt"
    named = named_parameters(params)
    topo_hash = topo.canonical_hash()

    records: list[dict] = []
    best_acc = -1.0
    best_epoch = -1
    stopped = False
    with open(log_path, "w", encoding="utf-8") as log:
        for epoch in range(plan.epochs):
            started = time.perf_counter()
            order = derive_rng(plan.seed, "shuffle", epoch).permutation(len(train_split))
            # per-sample running losses, keyed by dataset position so the
            # epoch mean does not depend on the shuffle order
            sample_losses = np.zeros(len(train_split))
            for step, sl in enumerate(_batch_slices(len(train_split), plan.batch_size)):
                idx = order[sl]
                batch = SequenceBatch(
                    Tensor(train_split.features[idx]),
                    train_split.mask[idx],
                    train_split.labels[idx],
                )
                drop_rng = derive_rng(plan.seed, "dropout", epoch, step)
                with Tape() as tape:
                    logits = model_forward(
                        params, config, batch, topo, training=True, rng=drop_rng
                    )
                    loss = ops.cross_entropy(logits, batch.labels)
                    value = loss.item()
                    if not np.isfinite(value):
                        bad = first_invalid_record(tape) or "loss"
                        raise NumericsError(
                            f"non-finite loss {value} at epoch {epoch} step {step}; "
                            f"first non-finite tensor: {bad}"
                        )
                    backward(tape, loss)
                adamw_step(state, named)
                sample_losses[idx] = ops.sample_nll(logits.data, batch.labels)[0]

            val_logits = eval_logits(params, config, topo, val_split, plan.batch_size)
            if not np.isfinite(val_logits).all():
                raise NumericsError(f"non-finite validation logits at epoch {epoch}")
            val_loss = float(ops.sample_nll(val_logits, val_split.labels)[0].mean())
            val_acc = float((val_logits.argmax(axis=1) == val_split.labels).mean())
            record = {
                "epoch": epoch,
                "train_loss": float(sample_losses.mean()),
                "val_loss": val_loss,
                "val_acc": val_acc,
                "wall_seconds": time.perf_counter() - started,
            }
            records.append(record)
            log.write(json.dumps(record) + "\n")
            log.flush()

            if val_acc > best_acc:
                best_acc = val_acc
                best_epoch = epoch
                save_checkpoint(params, config, ckpt_path, topology_hash=topo_hash)
            elif plan.patience and epoch - best_epoch >= plan.patience:
                stopped = True
                break

    return TrainResult(
        records=records,
        best_epoch=best_epoch,
        best_val_acc=best_acc,
        checkpoint_path=str(ckpt_path),
        log_path=str(log_path),
        stopped_early=stopped,
    )
