"""Command-line surface: synth, train, eval, predict, gradcheck."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import ops
from .cells import GRUCellParams, gru_sequence
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
from .gradcheck import finite_diff_check
from .graph import (GATLayerParams, SkeletonTopology, TopologyError, build_normalized_adjacency,
                    chain_topology, gat_forward, gcn_forward, resolve_topology)
from .model import (
    init_model_params,
    model_gradient_report,
    named_parameters,
    predict,
    tiny_reference_config,
)
from .seeding import derive_rng
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

PRIMITIVE_LIMIT = 1e-6
PARAM_LIMIT = 1e-4


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
    splits = {}
    for tag in ("train", "val"):
        manifest = ingest(data_dir / f"{tag}.jsonl", topo, class_count=model_config.classes)
        splits[tag] = prepare_split(manifest, model_config.seq_len, cfg["data.normalize"])
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
    manifest = ingest(
        Path(cfg["data.dir"]) / f"{args.split}.jsonl", topo, class_count=model_config.classes
    )
    prepared = prepare_split(manifest, model_config.seq_len, cfg["data.normalize"])
    report = evaluate(params, model_config, topo, prepared, batch_size=cfg["train.batch_size"])
    text = format_eval_report(report, sort="f1" if args.sort == "desc" else "f1_asc")
    out_path = Path(args.out) if args.out else Path(cfg["out.dir"]) / f"eval_{args.split}.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(text + "\n" + _commented_config(cfg), encoding="utf-8")
    print(text, end="")
    print(f"report: {out_path}")
    return EXIT_OK


def cmd_predict(cfg: dict, args) -> int:
    topo, params, model_config = _load_for_inference(cfg, args.checkpoint)
    manifest = ingest(args.input, topo)
    if len(manifest) == 0:
        raise DataFormatError(f"{args.input}: no samples to predict")
    prepared = prepare_split(manifest, model_config.seq_len, cfg["data.normalize"])
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


def _primitive_checks(seed: int) -> list[tuple[str, float]]:
    """Finite-difference checks for each differentiable building block."""
    rng = derive_rng(seed, "gradcheck-prims")

    def t(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    results = []

    a, b = t(3, 4), t(4, 2)
    results.append(("matmul", finite_diff_check(lambda: ops.sum_all(ops.matmul(a, b)), a)))

    x = Tensor(rng.normal(size=(4, 5)) + np.where(rng.normal(size=(4, 5)) > 0, 2.0, -2.0),
               requires_grad=True)
    for name in ("sigmoid", "tanh", "relu", "elu", "leaky_relu"):
        results.append((name, finite_diff_check(
            lambda name=name: ops.sum_all(ops.elementwise(name, x)), x)))

    u, v = t(3, 3), t(3, 3)
    results.append(("mul", finite_diff_check(lambda: ops.sum_all(ops.mul(u, v)), v)))

    h, bias = t(4, 6), t(6)
    results.append(("add_bias", finite_diff_check(
        lambda: ops.sum_all(ops.elementwise("tanh", ops.add_bias(h, bias))), bias)))

    logits = t(3, 4)
    mask = np.zeros((3, 4))
    mask[0, 2] = -np.inf
    mask_t = Tensor(mask)
    weights = t(3, 4)
    results.append(("softmax_rows", finite_diff_check(
        lambda: ops.sum_all(ops.mul(ops.softmax_rows(ops.add(logits, mask_t)), weights)),
        logits)))

    rn_x, rn_block, gain, rn_b, rn_weights = t(4, 6), t(4, 6), t(6), t(6), t(4, 6)
    for name, leaf in (("x", rn_x), ("block", rn_block), ("gain", gain)):
        results.append((f"residual_norm_{name}", finite_diff_check(
            lambda: ops.sum_all(ops.mul(ops.residual_norm(rn_block, rn_x, gain, rn_b, 1e-5),
                                        rn_weights)), leaf)))

    ce_logits = t(5, 3)
    labels = rng.integers(0, 3, size=5)
    results.append(("cross_entropy", finite_diff_check(
        lambda: ops.cross_entropy(ce_logits, labels), ce_logits)))

    drop_x = t(4, 5)
    results.append(("dropout", finite_diff_check(
        lambda: ops.sum_all(ops.dropout(
            drop_x, 0.4, training=True, rng=derive_rng(seed, "gradcheck-drop"))),
        drop_x)))

    gru = GRUCellParams(t(3, 5), t(3), t(3, 5), t(3), t(3, 5), t(3))
    seq_x, seq_h0, seq_weights = t(4, 2, 2), t(2, 3), t(4, 2, 3)
    for name, leaf in (("x", seq_x), ("h0", seq_h0), ("w_h", gru.w_h)):
        results.append((f"gru_sequence_{name}", finite_diff_check(
            lambda: ops.sum_all(ops.mul(gru_sequence(gru, seq_x, seq_h0), seq_weights)),
            leaf)))

    star = SkeletonTopology(5, ((0, 1), (0, 2), (0, 3)))  # degree-3 node 0, isolated node 4
    gat = GATLayerParams(2, [t(3, 2) for _ in range(2)], [t(4) for _ in range(2)])
    gat_h, gat_weights = t(2, 3, 5, 3), t(2, 3, 5, 4)
    for name, leaf in (("h", gat_h), ("w", gat.w[1]), ("a", gat.a[0])):
        results.append((f"gat_layer_{name}", finite_diff_check(
            lambda: ops.sum_all(ops.mul(gat_forward(gat, gat_h, star), gat_weights)), leaf)))

    # drawn last, so that every row above keeps its inputs
    adj, gcn_h, gcn_w, gcn_weights = build_normalized_adjacency(star), t(2, 3, 5, 3), t(3, 4), t(2, 3, 5, 4)
    for name, leaf in (("h", gcn_h), ("w", gcn_w)):
        results.append((f"gcn_layer_{name}", finite_diff_check(
            lambda: ops.sum_all(ops.mul(gcn_forward(adj, gcn_h, gcn_w, act="elu"), gcn_weights)), leaf)))

    return results


def cmd_gradcheck(cfg: dict, args) -> int:
    seed = cfg["seed"]
    prim = _primitive_checks(seed)
    config = tiny_reference_config()
    report = model_gradient_report(config, chain_topology(config.n_nodes), seed=seed)
    rows = [(f"primitive {name}", err, PRIMITIVE_LIMIT) for name, err in prim]
    rows += [(f"param {name}", report[name], PARAM_LIMIT) for name in sorted(report)]
    width = max(len(label) for label, _, _ in rows)  # one error column for every line
    failed = False
    for label, err, limit in rows:
        ok = err <= limit
        failed |= not ok
        print(f"{label:<{width}} {err:.3e} {'ok' if ok else 'FAIL'}")

    worst_prim = max(prim, key=lambda kv: kv[1])
    worst_param = max(report.items(), key=lambda kv: kv[1])
    verdict = "FAIL" if failed else "PASS"
    print(
        f"gradcheck {verdict}: max primitive error {worst_prim[1]:.3e} "
        f"({worst_prim[0]}, limit {PRIMITIVE_LIMIT:g}); "
        f"max parameter error {worst_param[1]:.3e} "
        f"({worst_param[0]}, limit {PARAM_LIMIT:g})"
    )
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
