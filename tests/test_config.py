import pytest

from skelgru.config import (
    DEFAULTS,
    ConfigError,
    load_run_config,
    model_config_from,
    parse_config_text,
    serialize_config,
    split_fractions_from,
    synth_spec_from,
    train_plan_from,
)
from skelgru.data import SynthSpec
from skelgru.model import ModelConfig
from skelgru.training import AdamWState


class TestParsing:
    def test_defaults_are_flat_dotted_keys(self):
        assert all(isinstance(v, (int, float, str)) for v in DEFAULTS.values())
        assert "model.stages" in DEFAULTS and "optim.lr" in DEFAULTS

    def test_parse_overrides_defaults(self):
        cfg = load_run_config(None, ["model.stages=4", "optim.lr=0.01"])
        assert cfg["model.stages"] == 4
        assert cfg["optim.lr"] == 0.01
        assert cfg["model.hidden"] == DEFAULTS["model.hidden"]

    def test_comments_and_blanks_skipped(self):
        got = parse_config_text("# comment\n\nseed = 9\n")
        assert got == {"seed": 9}

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=":2: unknown key"):
            parse_config_text("seed = 1\nbogus.key = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("seed 1\n")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config_text("model.stages = four\n")
        with pytest.raises(ConfigError, match="number"):
            parse_config_text("optim.lr = fast\n")

    def test_int_key_rejects_float_literal(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config_text("train.epochs = 2.5\n")

    def test_string_values_kept_verbatim(self):
        got = parse_config_text("data.topology = chain:9\n")
        assert got["data.topology"] == "chain:9"

    def test_quoted_string_value_loses_its_quotes(self):
        # the codec checkpoints use for their config block, where strings are quoted
        assert parse_config_text("model.gnn = 'gcn'\n") == {"model.gnn": "gcn"}

    def test_empty_string_value(self):
        got = parse_config_text("train.init_checkpoint =\n")
        assert got["train.init_checkpoint"] == ""

    def test_file_then_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model.stages = 8\nseed = 3\n")
        cfg = load_run_config(path, ["model.stages=2"])
        assert cfg["model.stages"] == 2  # flag beats file
        assert cfg["seed"] == 3  # file beats default

    def test_bad_override_format(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_run_config(None, ["model.stages"])
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(None, ["bogus=1"])


class TestRoundTrip:
    def test_serialize_parse_round_trip(self):
        cfg = load_run_config(None, ["optim.lr=0.005", "data.topology=chain:4"])
        text = serialize_config(cfg)
        assert parse_config_text(text) == cfg

    def test_serialize_is_sorted_and_complete(self):
        lines = serialize_config(dict(DEFAULTS)).splitlines()
        keys = [l.split(" = ")[0] for l in lines]
        assert keys == sorted(DEFAULTS)

    def test_serialize_rejects_unknown(self):
        bad = dict(DEFAULTS)
        bad["nope"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            serialize_config(bad)

    def test_double_round_trip_stable(self):
        cfg = load_run_config(None, [])
        once = serialize_config(cfg)
        twice = serialize_config(parse_config_text(once))
        assert once == twice


class TestBuilders:
    def test_model_config_wiring(self):
        cfg = load_run_config(None, ["model.stages=4", "model.hidden=32",
                                     "model.classes=5", "model.gnn=gcn"])
        mc = model_config_from(cfg, n_nodes=9)
        assert (mc.stages, mc.hidden, mc.classes, mc.gnn_kind) == (4, 32, 5, "gcn")
        assert mc.n_nodes == 9
        assert mc.seq_len == cfg["model.seq_len"]

    def test_model_config_validation_propagates(self):
        cfg = load_run_config(None, ["model.stages=0"])
        with pytest.raises(ValueError):
            model_config_from(cfg, n_nodes=9)

    def test_synth_spec_uses_global_seed(self):
        cfg = load_run_config(None, ["seed=42", "synth.classes=3"])
        spec = synth_spec_from(cfg)
        assert spec.seed == 42 and spec.classes == 3
        assert spec.n_nodes == cfg["synth.nodes"]

    def test_cli_defaults_are_library_defaults(self):
        cfg = load_run_config()
        assert model_config_from(cfg, 17) == ModelConfig()
        assert synth_spec_from(cfg) == SynthSpec()
        optim = (cfg["optim.beta1"], cfg["optim.beta2"], cfg["optim.eps"])
        assert optim == (AdamWState.beta1, AdamWState.beta2, AdamWState.eps)

    def test_train_plan_wiring(self):
        cfg = load_run_config(None, ["train.epochs=5", "train.batch_size=16",
                                     "train.patience=2", "seed=7"])
        plan = train_plan_from(cfg)
        assert (plan.epochs, plan.batch_size, plan.patience, plan.seed) == (5, 16, 2, 7)

    def test_split_fractions(self):
        cfg = load_run_config(None, ["split.train=0.5", "split.val=0.25", "split.test=0.25"])
        assert split_fractions_from(cfg) == (0.5, 0.25, 0.25)

    def test_shipped_configs_parse(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        for name in ("desk_scale.cfg", "paper_scale.cfg"):
            cfg = load_run_config(root / name)
            assert set(cfg) == set(DEFAULTS)
