"""Flat dotted-key run configuration shared by all CLI commands.

File format: one `key = value` per line, '#' comments and blank lines
ignored. Values are typed by their defaults (int, float, or string) and
the full table round-trips through serialize_config unchanged. The text
codec is the one checkpoints use for their config block.
"""

from __future__ import annotations

from .checkpoint import format_fields, parse_fields, parse_value
from .data import SynthSpec
from .model import ModelConfig
from .training import TrainPlan


class ConfigError(ValueError):
    """Unknown key, malformed line, or badly typed value."""


# Keys mirror the published training recipe (16 stages, 8 heads, batch 64,
# lr 1e-3, wd 1e-5, 100 epochs); the shipped example configs override these
# with desk-scale values so runs finish in minutes.
DEFAULTS: dict[str, int | float | str] = {
    "seed": 0,
    "model.stages": 16,
    "model.gnn": "gat",
    "model.heads": 8,
    "model.hidden": 64,
    "model.seq_len": 32,
    "model.input_dim": 2,
    "model.classes": 226,
    "model.dropout": 0.3,
    "model.norm_eps": 1e-5,
    "model.fc_width": 0,
    "optim.lr": 1e-3,
    "optim.weight_decay": 1e-5,
    "optim.beta1": 0.9,
    "optim.beta2": 0.999,
    "optim.eps": 1e-8,
    "train.epochs": 100,
    "train.batch_size": 64,
    "train.patience": 0,
    "train.init_checkpoint": "",
    "data.topology": "upper17",
    "data.dir": "data",
    "data.normalize": "bbox",
    "synth.classes": 5,
    "synth.samples_per_class": 40,
    "synth.nodes": 9,
    "synth.min_len": 24,
    "synth.max_len": 32,
    "synth.noise": 0.02,
    "split.train": 0.7,
    "split.val": 0.15,
    "split.test": 0.15,
    "out.dir": "runs/latest",
}


_KINDS = {key: type(value) for key, value in DEFAULTS.items()}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    return parse_fields(text, _KINDS, ConfigError, source)


def load_run_config(path=None, overrides: list[str] | None = None) -> dict:
    """Defaults, then file values, then 'key=value' override strings."""
    cfg = dict(DEFAULTS)
    if path is not None:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise ConfigError(f"{path}:{line}: not UTF-8 text: {exc.reason}") from None
        cfg.update(parse_config_text(text, source=str(path)))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"override: unknown key {key!r}")
        cfg[key] = parse_value(key, raw, _KINDS[key], ConfigError)
    return cfg


def serialize_config(cfg: dict) -> str:
    unknown = set(cfg) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    return format_fields(cfg)


def model_config_from(cfg: dict, n_nodes: int) -> ModelConfig:
    """Build the model shape; n_nodes comes from the resolved topology."""
    return ModelConfig(
        stages=cfg["model.stages"],
        gnn_kind=cfg["model.gnn"],
        heads=cfg["model.heads"],
        hidden=cfg["model.hidden"],
        seq_len=cfg["model.seq_len"],
        n_nodes=n_nodes,
        input_dim=cfg["model.input_dim"],
        classes=cfg["model.classes"],
        dropout_rate=cfg["model.dropout"],
        norm_epsilon=cfg["model.norm_eps"],
        fc_width=cfg["model.fc_width"],
    )


def synth_spec_from(cfg: dict) -> SynthSpec:
    return SynthSpec(
        classes=cfg["synth.classes"],
        samples_per_class=cfg["synth.samples_per_class"],
        n_nodes=cfg["synth.nodes"],
        min_len=cfg["synth.min_len"],
        max_len=cfg["synth.max_len"],
        noise_sigma=cfg["synth.noise"],
        seed=cfg["seed"],
    )


def train_plan_from(cfg: dict) -> TrainPlan:
    return TrainPlan(
        epochs=cfg["train.epochs"],
        batch_size=cfg["train.batch_size"],
        seed=cfg["seed"],
        patience=cfg["train.patience"],
    )


def split_fractions_from(cfg: dict) -> tuple[float, float, float]:
    return (cfg["split.train"], cfg["split.val"], cfg["split.test"])
