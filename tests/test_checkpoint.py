import dataclasses
import errno
import hashlib
import struct

import numpy as np
import pytest

import oracles
from skelgru import checkpoint
from skelgru.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from skelgru.graph import chain_topology
from skelgru.model import ModelConfig, init_model_params, named_parameters, tiny_reference_config


def resign(body: bytes) -> bytes:
    """Re-append a valid trailing digest after surgery on the body."""
    return body + hashlib.sha256(body).digest()


BLOCK_AT = len(MAGIC) + 2  # the config block's u32 length follows magic and version


def config_block(path) -> str:
    body = path.read_bytes()
    (n,) = struct.unpack("<I", body[BLOCK_AT:BLOCK_AT + 4])
    return body[BLOCK_AT + 4:BLOCK_AT + 4 + n].decode("utf-8")


def with_config_block(path, edit):
    """A re-signed copy of the checkpoint whose config block is edit(block)."""
    body = path.read_bytes()[:-32]
    old = config_block(path).encode("utf-8")
    new = edit(old.decode("utf-8")).encode("utf-8")
    rest = body[BLOCK_AT + 4 + len(old):]
    bad = path.with_name("tampered.ckpt")
    bad.write_bytes(resign(body[:BLOCK_AT] + struct.pack("<I", len(new)) + new + rest))
    return bad


@pytest.fixture
def saved(tmp_path):
    config = tiny_reference_config()
    params = init_model_params(config, seed=11)
    path = tmp_path / "model.ckpt"
    topo = chain_topology(config.n_nodes)
    save_checkpoint(params, config, path, topology_hash=topo.canonical_hash())
    return params, config, path, topo


class TestRoundTrip:
    def test_bit_exact(self, saved):
        params, config, path, topo = saved
        loaded, cfg2, topo_hash = load_checkpoint(path)
        assert cfg2 == config
        assert topo_hash == topo.canonical_hash()
        orig = dict(named_parameters(params))
        back = dict(named_parameters(loaded))
        assert orig.keys() == back.keys()
        for name in orig:
            a, b = orig[name].data, back[name].data
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, b), name
            assert a.tobytes() == b.tobytes(), name

    def test_expected_config_accepts_match(self, saved):
        _, config, path, topo = saved
        load_checkpoint(path, expected_config=config,
                        expected_topology_hash=topo.canonical_hash())

    def test_save_is_deterministic(self, saved, tmp_path):
        params, config, path, topo = saved
        again = tmp_path / "again.ckpt"
        save_checkpoint(params, config, again, topology_hash=topo.canonical_hash())
        assert path.read_bytes() == again.read_bytes()

    def test_loaded_params_are_trainable(self, saved):
        _, _, path, _ = saved
        loaded, _, _ = load_checkpoint(path)
        assert all(t.requires_grad for _, t in named_parameters(loaded))

    def test_save_holds_no_copy_of_the_parameters(self, tmp_path):
        # the paper's head widths: 8.3 MB of parameters, most in fc1.w
        config = ModelConfig(stages=1, gnn_kind="gcn", hidden=64, n_nodes=17, classes=226)
        params = init_model_params(config, seed=0)
        size = sum(t.data.nbytes for _, t in named_parameters(params))
        _, _, peak = oracles.traced_streams(
            lambda: save_checkpoint(params, config, tmp_path / "wide.ckpt"), 1)
        assert peak < size, f"a save of {size} parameter bytes allocated {peak}"
        loaded, _, _ = load_checkpoint(tmp_path / "wide.ckpt")
        assert all(np.array_equal(t.data, dict(named_parameters(params))[k].data)
                   for k, t in named_parameters(loaded))


class TestCorruption:
    def test_truncated_header(self, saved, tmp_path):
        _, _, path, _ = saved
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(bad)

    def test_truncated_tail_fails_checksum(self, saved, tmp_path):
        _, _, path, _ = saved
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CheckpointError, match="checksum|truncated"):
            load_checkpoint(bad)

    def test_flipped_payload_byte(self, saved, tmp_path):
        _, _, path, _ = saved
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(bad)

    def test_wrong_magic(self, saved, tmp_path):
        _, _, path, _ = saved
        body = path.read_bytes()[:-32]
        body = b"NOTCKP" + body[len(MAGIC):]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(resign(body))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(bad)

    def test_unsupported_version(self, saved, tmp_path):
        _, _, path, _ = saved
        body = bytearray(path.read_bytes()[:-32])
        body[len(MAGIC):len(MAGIC) + 2] = struct.pack("<H", 99)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(resign(bytes(body)))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("field", ["config block", "topology hash", "tensor name"])
    def test_undecodable_text_field(self, saved, tmp_path, field):
        _, _, path, _ = saved
        body = bytearray(path.read_bytes()[:-32])
        (n_block,) = struct.unpack_from("<I", body, BLOCK_AT)
        hash_at = BLOCK_AT + 4 + n_block
        (n_hash,) = struct.unpack_from("<I", body, hash_at)
        # each field's first byte: past its u32 (or, for the first name, the
        # tensor count and the u16 name length)
        first = {"config block": BLOCK_AT + 4, "topology hash": hash_at + 4,
                 "tensor name": hash_at + 4 + n_hash + 4 + 2}[field]
        body[first] = 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(resign(bytes(body)))
        with pytest.raises(CheckpointError, match=rf"bad\.ckpt: {field} is not UTF-8"):
            load_checkpoint(bad)

    def test_shape_mismatch_via_config_surgery(self, saved, tmp_path):
        # bump hidden width in the stored config so tensors no longer fit
        _, _, path, _ = saved
        body = path.read_bytes()[:-32]
        assert body.count(b"hidden = 4") == 1
        body = body.replace(b"hidden = 4", b"hidden = 8")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(resign(body))
        with pytest.raises(CheckpointError, match="has shape"):
            load_checkpoint(bad)


class TestCompatibility:
    def test_class_count_mismatch_names_both(self, saved):
        _, config, path, _ = saved
        other = dataclasses.replace(config, classes=5)
        with pytest.raises(CheckpointError, match="3 classes.*5"):
            load_checkpoint(path, expected_config=other)

    def test_other_field_mismatch(self, saved):
        _, config, path, _ = saved
        other = dataclasses.replace(config, stages=4)
        with pytest.raises(CheckpointError, match="does not match"):
            load_checkpoint(path, expected_config=other)

    def test_topology_mismatch(self, saved):
        _, _, path, _ = saved
        with pytest.raises(CheckpointError, match="topology"):
            load_checkpoint(path, expected_topology_hash="deadbeef")

    def test_empty_stored_hash_skips_check(self, saved, tmp_path):
        params, config, _, _ = saved
        path = tmp_path / "nohash.ckpt"
        save_checkpoint(params, config, path)
        load_checkpoint(path, expected_topology_hash="anything")


class TestConfigCodec:
    def test_round_trip(self, saved):
        _, config, path, _ = saved
        assert load_checkpoint(path)[1] == config

    def test_all_fields_present(self, saved):
        _, config, path, _ = saved
        text = config_block(path)
        for f in dataclasses.fields(config):
            assert f.name in text

    def test_block_text_is_pinned(self, saved):
        # v1 bytes: sorted fields, strings as Python literals
        _, _, path, _ = saved
        assert config_block(path) == (
            "classes = 3\ndropout_rate = 0.0\nfc_width = 0\ngnn_kind = 'gat'\n"
            "heads = 2\nhidden = 4\ninput_dim = 2\nn_nodes = 3\n"
            "norm_epsilon = 1e-05\nseq_len = 3\nstages = 2\n"
        )

    def test_missing_field_rejected(self, saved):
        _, _, path, _ = saved
        bad = with_config_block(path, lambda text: "\n".join(
            l for l in text.splitlines() if not l.startswith("hidden")))
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(bad)

    def test_unknown_field_rejected(self, saved):
        _, _, path, _ = saved
        bad = with_config_block(path, lambda text: text + "bogus = 1\n")
        with pytest.raises(CheckpointError, match="unknown key 'bogus'"):
            load_checkpoint(bad)

    def test_unparseable_value_rejected(self, saved):
        _, _, path, _ = saved
        bad = with_config_block(path, lambda text: text.replace("stages = 2", "stages = two"))
        with pytest.raises(CheckpointError, match="cannot parse"):
            load_checkpoint(bad)

    def test_invalid_value_rejected(self, saved):
        _, _, path, _ = saved
        bad = with_config_block(path, lambda text: text.replace("stages = 2", "stages = 0"))
        with pytest.raises(CheckpointError, match="stages must be >= 1"):
            load_checkpoint(bad)

    def test_float_fields_survive(self, tmp_path):
        config = dataclasses.replace(
            tiny_reference_config(), norm_epsilon=1.5e-7, dropout_rate=0.125
        )
        path = tmp_path / "floats.ckpt"
        save_checkpoint(init_model_params(config), config, path)
        back = load_checkpoint(path)[1]
        assert back.norm_epsilon == 1.5e-7
        assert back.dropout_rate == 0.125


class _DiskFull:
    """A file whose writes stop with ENOSPC once ``room`` bytes are written."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, data):
        if len(data) > self.room:
            self.fh.write(data[:self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestAtomicSave:
    def test_failed_save_keeps_previous_checkpoint(self, saved, tmp_path, monkeypatch):
        params, config, path, topo = saved
        before = path.read_bytes()
        monkeypatch.setattr(checkpoint, "open",
                            lambda *a, **k: _DiskFull(open(*a, **k), room=1000), raising=False)
        for p in params.stages[0].gru.w_h, params.embed_w:
            p.data += 1.0
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(params, config, path, topology_hash=topo.canonical_hash())
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        loaded, _, _ = load_checkpoint(path)
        orig = dict(named_parameters(init_model_params(config, seed=11)))
        for name, tensor in named_parameters(loaded):
            assert tensor.data.tobytes() == orig[name].data.tobytes(), name
