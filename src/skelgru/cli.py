"""Command-line surface: synth, train, eval, predict, gradcheck."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .config import (
    _MODEL_FIELDS,
    ConfigError,
    adamw_state_from,
    load_run_config,
    model_config_from,
    serialize_config,
    split_fractions_from,
    synth_spec_from,
    train_plan_from,
)
from .data import (
    DataFormatError,
    PreprocessError,
    ingest,
    prepare_split,
    split,
    synthesize,
    write_dataset,
)
from .gradcheck import PARAM_LIMIT, PRIMITIVE_LIMIT, gate_rows
from .graph import TopologyError, resolve_topology
from .model import init_model_params, named_parameters, predict
from .tensor import Tensor
from .training import (
    NumericsError,
    eval_logits,
    evaluate,
    format_eval_report,
    train,
)

EXIT_OK = 0
EXIT_FAIL = 1  # generic failure, including a failed gradient check
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _echo_config(cfg: dict, path: Path) -> None:
    path.write_text(serialize_config(cfg), encoding="utf-8")


def _commented_config(cfg: dict) -> str:
    return "".join(f"# {line}\n" for line in serialize_config(cfg).splitlines())


def _class_counts(manifest) -> str:
    counts = np.bincount(manifest.labels(), minlength=manifest.class_count)
    return ", ".join(f"class {c}: {n}" for c, n in enumerate(counts.tolist()))


def cmd_synth(cfg: dict, args) -> int:
    spec = synth_spec_from(cfg)
    manifest = synthesize(spec)
    parts = split(manifest, split_fractions_from(cfg), seed=cfg["seed"])
    data_dir = Path(cfg["data.dir"])
    data_dir.mkdir(parents=True, exist_ok=True)
    for part in parts:
        target = data_dir / f"{part.split_tag}.jsonl"
        write_dataset(part, target)
        print(f"{part.split_tag}: {len(part)} samples -> {target} ({_class_counts(part)})")
    _echo_config(cfg, data_dir / "synth_config.cfg")
    return EXIT_OK


def _prepared(path, topo, model_config, cfg: dict, class_count: int | None = None):
    """Ingest and preprocess one dataset file."""
    manifest = ingest(path, topo, class_count=class_count)
    return prepare_split(manifest, model_config.seq_len, cfg["data.normalize"])


def _load_params(cfg: dict, model_config, topo):
    init_path = cfg["train.init_checkpoint"]
    if init_path:
        params, _, _ = load_checkpoint(
            init_path,
            expected_config=model_config,
            expected_topology_hash=topo.canonical_hash(),
        )
        return params
    return init_model_params(model_config, seed=cfg["seed"])


def cmd_train(cfg: dict, args) -> int:
    topo = resolve_topology(cfg["data.topology"])
    model_config = model_config_from(cfg, topo.n_nodes)
    data_dir = Path(cfg["data.dir"])
    splits = {tag: _prepared(data_dir / f"{tag}.jsonl", topo, model_config, cfg, model_config.classes)
              for tag in ("train", "val")}
    params = _load_params(cfg, model_config, topo)
    state = adamw_state_from(cfg, named_parameters(params))
    plan = train_plan_from(cfg)
    out_dir = Path(cfg["out.dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(cfg, out_dir / "run_config.cfg")
    result = train(params, model_config, topo, splits["train"], splits["val"], plan, state, out_dir)
    for rec in result.records:
        print(
            f"epoch {rec['epoch']:3d}  train_loss {rec['train_loss']:.6f}  "
            f"val_loss {rec['val_loss']:.6f}  val_acc {rec['val_acc']:.6f}  "
            f"({rec['wall_seconds']:.2f}s)"
        )
    if result.stopped_early:
        print(f"early stop after {len(result.records)} epochs (patience {plan.patience})")
    print(f"best val_acc {result.best_val_acc:.6f} at epoch {result.best_epoch}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"log: {result.log_path}")
    return EXIT_OK


def _load_for_inference(cfg: dict, checkpoint_arg: str | None):
    topo = resolve_topology(cfg["data.topology"])
    ckpt = checkpoint_arg or str(Path(cfg["out.dir"]) / "best.ckpt")
    params, model_config, _ = load_checkpoint(
        ckpt, expected_topology_hash=topo.canonical_hash()
    )
    # the echoed config states the model that runs, not a conflicting --set
    cfg.update({key: getattr(model_config, name) for key, name in _MODEL_FIELDS.items()})
    return topo, params, model_config


def cmd_eval(cfg: dict, args) -> int:
    topo, params, model_config = _load_for_inference(cfg, args.checkpoint)
    prepared = _prepared(Path(cfg["data.dir"]) / f"{args.split}.jsonl", topo, model_config, cfg,
                         model_config.classes)
    report = evaluate(params, model_config, topo, prepared, batch_size=cfg["train.batch_size"])
    text = format_eval_report(report, descending=args.sort == "desc")
    out_path = Path(args.out) if args.out else Path(cfg["out.dir"]) / f"eval_{args.split}.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(text + "\n" + _commented_config(cfg), encoding="utf-8")
    print(text, end="")
    print(f"report: {out_path}")
    return EXIT_OK


def cmd_predict(cfg: dict, args) -> int:
    topo, params, model_config = _load_for_inference(cfg, args.checkpoint)
    prepared = _prepared(args.input, topo, model_config, cfg)
    logits = eval_logits(
        params, model_config, topo, prepared, batch_size=cfg["train.batch_size"]
    )
    classes, probs = predict(Tensor(logits))
    lines = [
        json.dumps({"id": sid, "class": int(c), "probability": float(p)})
        for sid, c, p in zip(prepared.ids, classes, probs)
    ]
    if args.out:
        Path(args.out).write_text(_commented_config(cfg) + "\n".join(lines) + "\n", encoding="utf-8")
        print(f"predictions: {args.out}")
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def cmd_gradcheck(cfg: dict, args) -> int:
    rows = gate_rows(cfg["seed"])
    width = max(len(label) for label, _, _ in rows)  # one error column for every line
    failed = False
    for label, err, limit in rows:
        ok = err <= limit
        failed |= not ok
        print(f"{label:<{width}} {err:.3e} {'ok' if ok else 'FAIL'}")

    def worst(kind: str, limit: float) -> str:
        label, err, _ = max((row for row in rows if row[2] == limit), key=lambda row: row[1])
        return f"max {kind} error {err:.3e} ({label.split(' ', 1)[1]}, limit {limit:g})"

    verdict = "FAIL" if failed else "PASS"
    print(f"gradcheck {verdict}: {worst('primitive', PRIMITIVE_LIMIT)}; {worst('parameter', PARAM_LIMIT)}")
    return EXIT_FAIL if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelgru",
        description="Graph-recurrent skeleton sequence classifier.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run config file (flat dotted keys)")
    common.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one config value (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[common], help="generate a synthetic dataset")
    sub.add_parser("train", parents=[common], help="train a model")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", help="checkpoint path (default <out.dir>/best.ckpt)")
    p_eval.add_argument("--split", default="test", choices=("train", "val", "test"))
    p_eval.add_argument("--sort", default="desc", choices=("desc", "asc"),
                        help="per-class table order by f1")
    p_eval.add_argument("--out", help="report file (default <out.dir>/eval_<split>.txt)")

    p_pred = sub.add_parser("predict", parents=[common], help="classify a dataset file")
    p_pred.add_argument("input", help="line-delimited samples to classify")
    p_pred.add_argument("--checkpoint", help="checkpoint path (default <out.dir>/best.ckpt)")
    p_pred.add_argument("--out", help="write records here instead of stdout")

    sub.add_parser("gradcheck", parents=[common],
                   help="verify gradients on the tiny reference model")
    return parser


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "gradcheck": cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, args.set)
        return COMMANDS[args.command](cfg, args)
    except NumericsError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataFormatError, PreprocessError, CheckpointError, TopologyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
