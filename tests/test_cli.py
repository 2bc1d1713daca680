import hashlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skelgru
from skelgru import training

from skelgru.checkpoint import MAGIC, save_checkpoint
from skelgru.cli import EXIT_CONFIG, EXIT_DATA, EXIT_FAIL, EXIT_NUMERIC, EXIT_OK, main
from skelgru.config import load_run_config, model_config_from
from skelgru.graph import chain_topology
from skelgru.model import init_model_params, named_parameters


def tiny_overrides(tmp_path, **extra):
    """Small everything: 2 classes, 3 nodes, 8 frames, 1 GCN stage."""
    base = {
        "seed": 0,
        "model.stages": 1,
        "model.gnn": "gcn",
        "model.heads": 1,
        "model.hidden": 4,
        "model.seq_len": 8,
        "model.classes": 2,
        "model.dropout": 0.0,
        "optim.lr": 0.005,
        "train.epochs": 2,
        "train.batch_size": 16,
        "data.topology": "chain:3",
        "data.dir": str(tmp_path / "data"),
        "out.dir": str(tmp_path / "run"),
        "synth.classes": 2,
        "synth.samples_per_class": 10,
        "synth.nodes": 3,
        "synth.min_len": 8,
        "synth.max_len": 8,
        "synth.noise": 0.01,
    }
    base.update(extra)
    return [f"--set={k}={v}" for k, v in base.items()]


def run(*argv):
    return main(list(argv))


def synth_and_train(tmp_path, **extra):
    args = tiny_overrides(tmp_path, **extra)
    assert run("synth", *args) == EXIT_OK
    assert run("train", *args) == EXIT_OK
    return args


class TestSynth:
    def test_writes_three_files_and_counts(self, tmp_path, capsys):
        assert run("synth", *tiny_overrides(tmp_path)) == EXIT_OK
        data = tmp_path / "data"
        for tag in ("train", "val", "test"):
            assert (data / f"{tag}.jsonl").exists()
        assert (data / "synth_config.cfg").exists()
        out = capsys.readouterr().out
        # 2 classes x 10, per class: val floor(1.5)=1, test 1, remainder 8 to train
        assert "train: 16 samples" in out
        assert "class 0: 8" in out

    def test_same_seed_byte_identical_files(self, tmp_path):
        a = tiny_overrides(tmp_path / "a")
        b = tiny_overrides(tmp_path / "b")
        assert run("synth", *a) == EXIT_OK
        assert run("synth", *b) == EXIT_OK
        for tag in ("train", "val", "test"):
            assert (tmp_path / "a/data" / f"{tag}.jsonl").read_bytes() == \
                   (tmp_path / "b/data" / f"{tag}.jsonl").read_bytes()

    def test_single_class_is_config_error(self, tmp_path):
        code = run("synth", *tiny_overrides(tmp_path, **{"synth.classes": 1}))
        assert code == EXIT_CONFIG

    @pytest.mark.filterwarnings("ignore:some class has fewer than 3 samples")
    @pytest.mark.parametrize("per_class", [1, 3])
    def test_empty_split_is_config_error_writing_nothing(self, tmp_path, capsys, per_class):
        """2 classes of 1 sample split unstratified, and of 3 stratified,
        both give every class floor(0.15 n) = 0 val samples."""
        data = tmp_path / "data"
        data.mkdir()
        assert run("synth", *tiny_overrides(tmp_path, **{"synth.samples_per_class": per_class})) == EXIT_CONFIG
        assert f"the val split of {2 * per_class} samples" in capsys.readouterr().err
        assert list(data.iterdir()) == []


class TestTrain:
    def test_writes_log_checkpoint_and_config_echo(self, tmp_path, capsys):
        synth_and_train(tmp_path)
        out_dir = tmp_path / "run"
        assert (out_dir / "best.ckpt").exists()
        assert (out_dir / "run_config.cfg").exists()
        lines = (out_dir / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"epoch", "train_loss", "val_loss", "val_acc", "wall_seconds"}
        stdout = capsys.readouterr().out
        assert "best val_acc" in stdout

    def test_lr_zero_gives_flat_loss_curve(self, tmp_path):
        args = tiny_overrides(tmp_path, **{"optim.lr": 0.0, "train.epochs": 3})
        assert run("synth", *args) == EXIT_OK
        assert run("train", *args) == EXIT_OK
        recs = [json.loads(l) for l in
                (tmp_path / "run/train_log.jsonl").read_text().splitlines()]
        losses = {r["train_loss"] for r in recs}
        assert len(losses) == 1

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert run("train", *tiny_overrides(tmp_path)) == EXIT_DATA

    def test_empty_val_split_is_data_error_naming_its_file(self, tmp_path, capsys):
        args = tiny_overrides(tmp_path)
        assert run("synth", *args) == EXIT_OK
        (tmp_path / "data/val.jsonl").write_text("")
        assert run("train", *args) == EXIT_DATA
        assert f"data error: {tmp_path / 'data' / 'val.jsonl'}: no samples" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_invalid_model_shape_is_config_error(self, tmp_path):
        args = tiny_overrides(tmp_path, **{"model.stages": 0})
        assert run("synth", *args) == EXIT_OK
        assert run("train", *args) == EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [("optim.lr", "nan"), ("optim.eps", "inf"),
                                            ("model.norm_eps", "nan")])
    def test_non_finite_setting_is_config_error_before_any_step(self, tmp_path, capsys, key, value):
        args = tiny_overrides(tmp_path, **{key: value})
        assert run("synth", *args) == EXIT_OK
        assert run("train", *args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "must be finite" in err and f"got {value}" in err
        assert not (tmp_path / "run/train_log.jsonl").exists()  # train() opens it first

    def test_input_dim_other_than_two_is_config_error_before_any_output(self, tmp_path, capsys):
        args = tiny_overrides(tmp_path, **{"model.input_dim": 3})
        assert run("synth", *args) == EXIT_OK
        capsys.readouterr()
        assert run("train", *args) == EXIT_CONFIG
        assert "config error: model.input_dim must be 2" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()  # no run_config.cfg, no emptied train_log.jsonl

    def test_duplicate_id_and_out_of_range_label_name_their_line(self, tmp_path, capsys):
        args = tiny_overrides(tmp_path)
        assert run("synth", *args) == EXIT_OK
        train_file = tmp_path / "data/train.jsonl"
        lines = train_file.read_text().splitlines()
        first = json.loads(lines[0])
        for bad, fault in ((dict(first), f"duplicate sample id {first['id']!r}"),
                           (dict(first, id="far", label=2), "sample 'far': label 2 outside [0, 2)")):
            train_file.write_text("\n".join([*lines[:3], json.dumps(bad), *lines[3:]]) + "\n")
            capsys.readouterr()
            assert run("train", *args) == EXIT_DATA
            assert f"data error: {train_file}:4: {fault}" in capsys.readouterr().err

    def test_resume_from_compatible_checkpoint(self, tmp_path):
        args = synth_and_train(tmp_path)
        ckpt = tmp_path / "run/best.ckpt"
        resumed = tiny_overrides(
            tmp_path, **{"train.init_checkpoint": str(ckpt), "train.epochs": 1,
                         "out.dir": str(tmp_path / "run2")}
        )
        assert run("train", *resumed) == EXIT_OK

    def test_resume_with_wrong_topology_is_data_error(self, tmp_path, capsys):
        args = tiny_overrides(tmp_path)
        assert run("synth", *args) == EXIT_OK
        cfg = load_run_config(None, [a.removeprefix("--set=") for a in args])
        mc = model_config_from(cfg, n_nodes=3)
        params = init_model_params(mc, seed=0)
        alien = tmp_path / "alien.ckpt"
        save_checkpoint(params, mc, alien,
                        topology_hash=chain_topology(4).canonical_hash())
        resumed = tiny_overrides(tmp_path, **{"train.init_checkpoint": str(alien)})
        assert run("train", *resumed) == EXIT_DATA
        assert "topology" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_is_numeric_error(self, tmp_path, capsys):
        args = tiny_overrides(tmp_path)
        assert run("synth", *args) == EXIT_OK
        cfg = load_run_config(None, [a.removeprefix("--set=") for a in args])
        mc = model_config_from(cfg, n_nodes=3)
        params = init_model_params(mc, seed=0)
        params.embed_w.data[...] = 1e308
        hot = tmp_path / "hot.ckpt"
        save_checkpoint(params, mc, hot,
                        topology_hash=chain_topology(3).canonical_hash())
        resumed = tiny_overrides(tmp_path, **{"train.init_checkpoint": str(hot)})
        assert run("train", *resumed) == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err


    def test_non_finite_gradient_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        args = tiny_overrides(tmp_path)
        assert run("synth", *args) == EXIT_OK
        real_backward = training.backward

        def poisoned_backward(tape, loss):  # every gradient NaN, the loss finite
            tracked = [t for rec in tape.records for t in rec.inputs if t.requires_grad]
            real_backward(tape, loss)
            for t in tracked:
                if t.grad is not None:
                    t.grad = np.full(t.shape, np.nan)

        monkeypatch.setattr(training, "backward", poisoned_backward)
        assert run("train", *args) == EXIT_NUMERIC
        assert "non-finite gradient for parameter" in capsys.readouterr().err
        assert not (tmp_path / "run/best.ckpt").exists()


    def test_second_moment_overflow_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        args = tiny_overrides(tmp_path)
        assert run("synth", *args) == EXIT_OK
        real_backward = training.backward

        def huge_backward(tape, loss):  # every gradient finite, its square not
            tracked = [t for rec in tape.records for t in rec.inputs if t.requires_grad]
            real_backward(tape, loss)
            for t in tracked:
                if t.grad is not None:
                    t.grad = np.full(t.shape, 1e200)

        monkeypatch.setattr(training, "backward", huge_backward)
        assert run("train", *args) == EXIT_NUMERIC
        assert "overflows the second moment of parameter" in capsys.readouterr().err
        assert not (tmp_path / "run/best.ckpt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_is_numeric_error_before_log_or_checkpoint(self, tmp_path, capsys):
        """One step at lr 1e308 leaves parameters near 1e308: finite, so the
        optimizer passes them, but the validation forward overflows. The
        epoch must neither log NaN (not JSON) nor save a checkpoint."""
        args = tiny_overrides(tmp_path, **{"optim.lr": 1e308, "train.epochs": 1})
        assert run("synth", *args) == EXIT_OK
        assert run("train", *args) == EXIT_NUMERIC
        assert "non-finite validation logits at epoch 0" in capsys.readouterr().err
        assert not (tmp_path / "run/best.ckpt").exists()

        def refuse(token):
            raise ValueError(f"{token} in train_log.jsonl")

        for line in (tmp_path / "run/train_log.jsonl").read_text().splitlines():
            json.loads(line, parse_constant=refuse)


class TestEval:
    def test_report_matches_training_log(self, tmp_path, capsys):
        args = synth_and_train(tmp_path)
        capsys.readouterr()
        assert run("eval", "--split", "val", *args) == EXIT_OK
        out = capsys.readouterr().out
        report_path = tmp_path / "run/eval_val.txt"
        assert report_path.exists()
        text = report_path.read_text()
        assert text.splitlines()[0].startswith("accuracy ")
        assert "# model.stages = 1" in text  # config echoed into the artifact
        recs = [json.loads(l) for l in
                (tmp_path / "run/train_log.jsonl").read_text().splitlines()]
        best = max(r["val_acc"] for r in recs)
        got = float(text.splitlines()[0].split()[1])
        assert abs(got - round(best, 6)) <= 5e-7
        assert "accuracy" in out

    def test_sort_orders_mirror_each_other(self, tmp_path, capsys):
        # constant predictor gives distinct per-class f1, so the orders
        # are strict mirrors (ties would legitimately break mirroring)
        args = synth_and_train(tmp_path)
        cfg = load_run_config(None, [a.removeprefix("--set=") for a in args])
        mc = model_config_from(cfg, n_nodes=3)
        params = init_model_params(mc, seed=0)
        for _, tensor in named_parameters(params):
            tensor.data[...] = 0.0
        zero = tmp_path / "zero.ckpt"
        save_checkpoint(params, mc, zero,
                        topology_hash=chain_topology(3).canonical_hash())
        capsys.readouterr()
        desc_file = tmp_path / "desc.txt"
        asc_file = tmp_path / "asc.txt"
        assert run("eval", "--split", "val", "--sort", "desc", "--checkpoint", str(zero),
                   "--out", str(desc_file), *args) == EXIT_OK
        assert run("eval", "--split", "val", "--sort", "asc", "--checkpoint", str(zero),
                   "--out", str(asc_file), *args) == EXIT_OK

        def rows(path):
            lines = path.read_text().splitlines()
            out = []
            for line in lines[2:]:
                if not line or line.startswith(("#", "*")):
                    break
                out.append(line)
            return out

        d, a = rows(desc_file), rows(asc_file)
        assert d[-1] == a[0]
        assert d[0] == a[-1]

    def test_eval_and_predict_echo_the_checkpoint_model_not_a_conflicting_override(self, tmp_path):
        args = synth_and_train(tmp_path)  # a 1-stage, 4-wide model
        conflicting = [*args, "--set=model.hidden=8", "--set=model.stages=9"]
        preds = tmp_path / "preds.jsonl"
        assert run("eval", "--split", "val", *conflicting) == EXIT_OK
        assert run("predict", str(tmp_path / "data/val.jsonl"), "--out", str(preds), *conflicting) == EXIT_OK
        for echoed in (tmp_path / "run/eval_val.txt", preds):
            text = echoed.read_text()
            assert "# model.hidden = 4" in text and "# model.stages = 1" in text

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        args = tiny_overrides(tmp_path)
        assert run("synth", *args) == EXIT_OK
        assert run("eval", *args) == EXIT_DATA

    def test_empty_split_is_data_error(self, tmp_path):
        args = synth_and_train(tmp_path)
        (tmp_path / "data/test.jsonl").write_text("")
        assert run("eval", "--split", "test", *args) == EXIT_DATA


class TestPredict:
    def test_duplicate_rows_identical_predictions(self, tmp_path, capsys):
        args = synth_and_train(tmp_path)
        val_line = (tmp_path / "data/val.jsonl").read_text().splitlines()[0]
        rec = json.loads(val_line)
        dup = dict(rec, id="copy")
        probe = tmp_path / "probe.jsonl"
        probe.write_text(json.dumps(rec) + "\n" + json.dumps(dup) + "\n")
        capsys.readouterr()
        assert run("predict", str(probe), *args) == EXIT_OK
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()
               if l.startswith("{")]
        assert len(out) == 2
        assert out[0]["class"] == out[1]["class"]
        assert out[0]["probability"] == out[1]["probability"]

    def test_zero_weight_checkpoint_uniform_probability(self, tmp_path, capsys):
        args = synth_and_train(tmp_path)
        cfg = load_run_config(None, [a.removeprefix("--set=") for a in args])
        mc = model_config_from(cfg, n_nodes=3)
        params = init_model_params(mc, seed=0)
        for _, tensor in named_parameters(params):
            tensor.data[...] = 0.0
        zero = tmp_path / "zero.ckpt"
        save_checkpoint(params, mc, zero,
                        topology_hash=chain_topology(3).canonical_hash())
        capsys.readouterr()
        assert run("predict", str(tmp_path / "data/val.jsonl"),
                   "--checkpoint", str(zero), *args) == EXIT_OK
        recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()
                if l.startswith("{")]
        assert recs and all(abs(r["probability"] - 0.5) <= 1e-12 for r in recs)
        assert all(r["class"] == 0 for r in recs)  # tie -> lowest index

    def test_matches_eval_decisions(self, tmp_path, capsys):
        from skelgru.checkpoint import load_checkpoint
        from skelgru.data import ingest, prepare_split
        from skelgru.training import eval_logits

        args = synth_and_train(tmp_path)
        capsys.readouterr()
        assert run("predict", str(tmp_path / "data/val.jsonl"), *args) == EXIT_OK
        got = {r["id"]: r["class"] for r in
               (json.loads(l) for l in capsys.readouterr().out.splitlines()
                if l.startswith("{"))}
        topo = chain_topology(3)
        params, mc, _ = load_checkpoint(tmp_path / "run/best.ckpt")
        prepared = prepare_split(ingest(tmp_path / "data/val.jsonl", topo), mc.seq_len)
        want = eval_logits(params, mc, topo, prepared).argmax(axis=1)
        assert [got[i] for i in prepared.ids] == want.tolist()

    def test_out_file_echoes_config(self, tmp_path):
        args = synth_and_train(tmp_path)
        out_file = tmp_path / "preds.jsonl"
        assert run("predict", str(tmp_path / "data/val.jsonl"),
                   "--out", str(out_file), *args) == EXIT_OK
        text = out_file.read_text()
        assert text.startswith("# ")
        assert "# seed = 0" in text

    def test_malformed_input_is_data_error(self, tmp_path):
        args = synth_and_train(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert run("predict", str(bad), *args) == EXIT_DATA

    def test_overflowing_coordinates_and_non_integer_labels_are_data_errors(self, tmp_path, capsys):
        args = synth_and_train(tmp_path)
        rec = json.loads((tmp_path / "data/val.jsonl").read_text().splitlines()[0])
        far = [[[1e308 if v == 0 else -1e308, y, c] for v, (_, y, c) in enumerate(frame)]
               for frame in rec["frames"]]
        cases = [(dict(rec, frames=far), f"sample {rec['id']!r}: bounding box does not normalize")]
        cases += [(dict(rec, label=label), f":1: label {label!r} is not an integer")
                  for label in (1.5, True, "1")]
        flagged = json.loads(json.dumps(rec["frames"]))
        flagged[0][1][0] = True  # numpy alone would read it as 1.0
        cases.append((dict(rec, frames=flagged), f":1: sample {rec['id']!r}: boolean coordinate"))
        # numpy alone would parse "0.5" as 0.5; beside an integer beyond
        # int64 the frames convert to an object array, not a string one
        for far_int in (None, 10**30):
            quoted = json.loads(json.dumps(rec["frames"]))
            quoted[0][1][0] = "0.5"
            if far_int is not None:
                quoted[0][2][0] = far_int
            cases.append((dict(rec, frames=quoted), f":1: sample {rec['id']!r}: string coordinate"))
        bad = tmp_path / "bad.jsonl"
        for case, message in cases:
            bad.write_text(json.dumps(case) + "\n")
            capsys.readouterr()
            assert run("predict", str(bad), *args) == EXIT_DATA
            captured = capsys.readouterr()
            assert message in captured.err and not captured.out
        big = json.loads(json.dumps(rec["frames"]))
        big[0][1][0] = 10**30  # a JSON integer beyond int64 that a float holds
        bad.write_text(json.dumps(dict(rec, frames=big)) + "\n")
        assert run("predict", str(bad), *args) == EXIT_OK

    def test_integer_coordinate_beyond_float_range_is_data_error(self, tmp_path, capsys):
        args = synth_and_train(tmp_path)
        rec = json.loads((tmp_path / "data/val.jsonl").read_text().splitlines()[0])
        rec["frames"][0][1][0] = 10**400  # a JSON integer, which no float holds
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n" + json.dumps(rec) + "\n")
        capsys.readouterr()
        assert run("predict", str(bad), *args) == EXIT_DATA
        captured = capsys.readouterr()
        assert f"{bad}:2: int too large to convert to float" in captured.err
        assert "Traceback" not in captured.err and not captured.out

    def test_label_beyond_int64_is_data_error(self, tmp_path, capsys):
        args = synth_and_train(tmp_path)
        rec = json.loads((tmp_path / "data/val.jsonl").read_text().splitlines()[0])
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(rec) + "\n" + json.dumps(dict(rec, id="far", label=10**30)) + "\n")
        capsys.readouterr()
        assert run("predict", str(bad), *args) == EXIT_DATA
        captured = capsys.readouterr()
        assert f"{bad}:2: sample 'far': label {10**30} does not fit in int64" in captured.err
        assert "Traceback" not in captured.err and not captured.out


def test_undecodable_inputs_are_data_errors_but_run_configs_stay_config_errors(tmp_path, capsys):
    args = synth_and_train(tmp_path)
    dataset = tmp_path / "utf16.jsonl"
    dataset.write_bytes(b"\xff\xfe" + (tmp_path / "data/val.jsonl").read_bytes())
    assert run("predict", str(dataset), *args) == EXIT_DATA

    topo_file = tmp_path / "topo.txt"
    topo_file.write_bytes(b"n_nodes 3\nedge 0 1\n# \xff\n")
    assert run("eval", "--split", "val", *args, f"--set=data.topology={topo_file}") == EXIT_DATA

    body = bytearray((tmp_path / "run/best.ckpt").read_bytes()[:-32])
    body[len(MAGIC) + 2 + 4] = 0xFF  # first byte of the config block
    ckpt = tmp_path / "bad_block.ckpt"
    ckpt.write_bytes(bytes(body) + hashlib.sha256(body).digest())
    assert run("eval", "--split", "val", "--checkpoint", str(ckpt), *args) == EXIT_DATA

    run_config = tmp_path / "run.cfg"
    run_config.write_bytes(b"seed = 0\n# \xff\n")
    capsys.readouterr()
    assert run("eval", "--split", "val", "--config", str(run_config), *args) == EXIT_CONFIG
    assert f"config error: {run_config}:2: not UTF-8 text: invalid start byte" in capsys.readouterr().err


def test_missing_or_unreadable_run_config_is_config_error(tmp_path, capsys):
    for path in (tmp_path / "nonexistent.cfg", tmp_path):  # a directory cannot be read either
        capsys.readouterr()
        assert run("train", "--config", str(path)) == EXIT_CONFIG
        assert f"config error: {path}: cannot read run config" in capsys.readouterr().err


def test_topology_faults_exit_with_their_code_and_name_where(tmp_path, capsys):
    """Each fault of a topology file exits 3 naming its line, and each malformed
    ``chain:<n>`` exits 2 naming the spec; ``train`` resolves the topology first,
    so either way it writes nothing."""
    topo_file = tmp_path / "topo.txt"
    file_faults = (
        (b"n_nodes 3\nedge 0 1\nname 0 head\n", ":3: cannot parse 'name 0 head'"),
        (b"n_nodes 3\nedge 0 one\n", ":2: cannot parse 'edge 0 one'"),
        (b"n_nodes 3\nedge 0 1\nn_nodes 4\n", ":3: second n_nodes line 'n_nodes 4'"),
        (b"# none\nn_nodes 0\n", ":2: n_nodes must be positive, got 0"),
        (b"n_nodes 3\nedge 1 1\n", ":2: self-loop on node 1"),
        (b"n_nodes 3\nedge 0 1\nedge 1 2\nedge 1 0\n", ":4: duplicate edge (0, 1)"),
        (b"n_nodes 3\nedge 0 3\n", ":2: edge (0,3) outside [0, 3)"),
        (b"n_nodes 3\n# \xff\n", ": not UTF-8 text"),
    )
    cases = [(str(topo_file), body, EXIT_DATA, f"data error: {topo_file}{where}") for body, where in file_faults]
    cases += [(spec, None, EXIT_CONFIG, f"config error: topology '{spec}'")
              for spec in ("chain:0", "chain:-2", "chain:abc")]
    for spec, body, code, message in cases:
        if body is not None:
            topo_file.write_bytes(body)
        capsys.readouterr()
        assert run("train", *tiny_overrides(tmp_path, **{"data.topology": spec})) == code, message
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err and not captured.out
        assert not (tmp_path / "run").exists()


class TestGradcheck:
    def test_passes_and_prints_verdict(self, capsys):
        assert run("gradcheck") == EXIT_OK
        out = capsys.readouterr().out
        assert "gradcheck PASS" in out
        assert "max parameter error" in out
        assert "primitive gcn_layer_h " in out and "primitive gcn_layer_w " in out

    def test_repeated_runs_identical_output(self, capsys):
        assert run("gradcheck") == EXIT_OK
        first = capsys.readouterr().out
        assert run("gradcheck") == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_error_column_is_aligned(self, capsys):
        assert run("gradcheck") == EXIT_OK
        rows = [line.rsplit(" ", 2) for line in capsys.readouterr().out.splitlines()
                if line.startswith(("primitive ", "param "))]
        labels = [label.rstrip() for label, _, _ in rows]
        assert "primitive residual_norm_block" in labels  # the longest primitive name
        assert {len(label) for label, _, _ in rows} == {max(map(len, labels))}


def test_python_dash_m_passes_exit_codes_through():
    """``python -m skelgru`` exits with ``main``'s code, as the console script does."""
    src = str(Path(skelgru.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv, code in ((["gradcheck"], EXIT_OK), (["gradcheck", "--set", "no.such_key=1"], EXIT_CONFIG)):
        proc = subprocess.run([sys.executable, "-m", "skelgru", *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == code, proc.stderr
    assert "unknown key 'no.such_key'" in proc.stderr


def test_each_module_imports_alone():
    # pytest imports modules in an order that can hide an import cycle, so
    # each one is imported first thing in a fresh interpreter
    names = ["skelgru"] + [f"skelgru.{m.name}" for m in pkgutil.iter_modules(skelgru.__path__)
                           if m.name != "__main__"]
    assert len(names) == 13
    src = str(Path(skelgru.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for name in names:
        proc = subprocess.run([sys.executable, "-c", f"import {name}"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, f"import {name} failed:\n{proc.stderr}"
