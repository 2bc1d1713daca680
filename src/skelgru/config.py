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
from .training import AdamWState, TrainPlan, init_adamw


class ConfigError(ValueError):
    """Unknown key, malformed line, or badly typed value."""


# Defaults follow the published recipe. Each model.*, synth.* and AdamW
# moment key takes the default of the dataclass field it maps to; the other
# keys (lr 1e-3, wd 1e-5, 100 epochs, batch 64) hold theirs here. The shipped
# configs override them with desk-scale values so runs finish in minutes.
_MODEL_FIELDS = {
    "model.stages": "stages", "model.gnn": "gnn_kind", "model.heads": "heads",
    "model.hidden": "hidden", "model.seq_len": "seq_len", "model.input_dim": "input_dim",
    "model.classes": "classes", "model.dropout": "dropout_rate",
    "model.norm_eps": "norm_epsilon", "model.fc_width": "fc_width",
}
_ADAMW_FIELDS = {"optim.beta1": "beta1", "optim.beta2": "beta2", "optim.eps": "eps"}
_SYNTH_FIELDS = {
    "synth.classes": "classes", "synth.samples_per_class": "samples_per_class",
    "synth.nodes": "n_nodes", "synth.min_len": "min_len", "synth.max_len": "max_len",
    "synth.noise": "noise_sigma",
}


def _field_defaults(cls, table: dict[str, str]) -> dict:
    return {key: getattr(cls, name) for key, name in table.items()}


DEFAULTS: dict[str, int | float | str] = {
    "seed": 0,
    **_field_defaults(ModelConfig, _MODEL_FIELDS),
    "optim.lr": 1e-3,
    "optim.weight_decay": 1e-5,
    **_field_defaults(AdamWState, _ADAMW_FIELDS),
    "train.epochs": 100,
    "train.batch_size": 64,
    "train.patience": 0,
    "train.init_checkpoint": "",
    "data.topology": "upper17",
    "data.dir": "data",
    "data.normalize": "bbox",
    **_field_defaults(SynthSpec, _SYNTH_FIELDS),
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
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read run config: {exc.strerror}") from None
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
    """Build the model shape; n_nodes comes from the resolved topology.
    Preprocessing always yields (x, y), so a run takes input_dim 2 only."""
    if cfg["model.input_dim"] != 2:
        raise ConfigError(f"model.input_dim must be 2, the (x, y) that preprocessing yields, "
                          f"got {cfg['model.input_dim']}")
    return ModelConfig(n_nodes=n_nodes, **{name: cfg[key] for key, name in _MODEL_FIELDS.items()})


def synth_spec_from(cfg: dict) -> SynthSpec:
    return SynthSpec(seed=cfg["seed"], **{name: cfg[key] for key, name in _SYNTH_FIELDS.items()})


def adamw_state_from(cfg: dict, named) -> AdamWState:
    return init_adamw(named, lr=cfg["optim.lr"], weight_decay=cfg["optim.weight_decay"],
                      **{name: cfg[key] for key, name in _ADAMW_FIELDS.items()})


def train_plan_from(cfg: dict) -> TrainPlan:
    return TrainPlan(
        epochs=cfg["train.epochs"],
        batch_size=cfg["train.batch_size"],
        seed=cfg["seed"],
        patience=cfg["train.patience"],
    )


def split_fractions_from(cfg: dict) -> tuple[float, float, float]:
    return (cfg["split.train"], cfg["split.val"], cfg["split.test"])
