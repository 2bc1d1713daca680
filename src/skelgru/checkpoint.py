"""Binary checkpoint persistence for model parameters.

Layout (all integers little-endian):

    magic  b"SKGRU\\x00"
    u16    format version (currently 1)
    u32    config block length, then that many bytes of utf-8
           "key = value" lines (sorted keys, one per field, strings
           quoted: gnn_kind = 'gat')
    u32    topology hash length, then that many utf-8 bytes
    u32    tensor count, then per tensor:
        u16  name length, utf-8 name
        u8   ndim
        u32  per dimension
        f64  row-major payload (little-endian)
    32 bytes sha256 over everything above

Round-trips are bit-exact: float64 payloads are written raw, never
through a decimal representation. A save replaces the file atomically.
The config block's ``key = value`` codec is shared with run configs; it
lives here, below both ``config.py`` and ``training.py`` in import order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import struct
import typing

import numpy as np

from .model import ModelConfig, ModelParams, init_model_params, named_parameters

MAGIC = b"SKGRU\x00"
VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint file is corrupt, truncated, or incompatible."""


# ---------------------------------------------------------------------------
# typed "key = value" text, shared by the config block and run configs

def parse_value(key: str, raw: str, kind: type, error: type[ValueError]):
    """Type one raw value as ``kind`` (int, float or str). A string loses
    one pair of enclosing quotes, so quoted and bare strings read alike."""
    raw = raw.strip()
    if kind is str:
        if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
            return raw[1:-1]
        return raw
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise error(f"{key}: cannot parse {raw!r} as {noun}") from None


def parse_fields(text: str, kinds: dict[str, type], error: type[ValueError], source: str) -> dict:
    """Read 'key = value' lines, skipping blanks and '#' comments; every
    key must be in ``kinds``, which types its value. Faults raise ``error``."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in kinds:
            raise error(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = parse_value(key, raw, kinds[key], error)
    return values


def format_fields(values: dict, quote_strings: bool = False) -> str:
    """One 'key = value' line per key, sorted; strings are written bare, or
    as Python literals with ``quote_strings`` (the checkpoint's v1 form)."""
    return "".join(
        f"{key} = {value!r}\n" if quote_strings and isinstance(value, str) else f"{key} = {value}\n"
        for key, value in sorted(values.items())
    )


_CONFIG_KINDS = typing.get_type_hints(ModelConfig)


def save_checkpoint(params: ModelParams, config: ModelConfig, path, topology_hash: str = "") -> None:
    """Write params and config; topology_hash pins the skeleton layout.

    Each part goes straight to the file and into a running sha256, and
    each payload from the parameter's own buffer, so a save holds no copy
    of the parameters.
    """
    cfg = format_fields(dataclasses.asdict(config), quote_strings=True).encode("utf-8")
    topo = topology_hash.encode("utf-8")
    named = sorted(named_parameters(params))
    digest = hashlib.sha256()
    # Write a sibling temp file and rename it over ``path``, so that a crash
    # or a failed write leaves the previous checkpoint whole.
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            def put(part) -> None:
                digest.update(part)
                fh.write(part)

            put(MAGIC + struct.pack("<H", VERSION))
            put(struct.pack("<I", len(cfg)) + cfg)
            put(struct.pack("<I", len(topo)) + topo)
            put(struct.pack("<I", len(named)))
            for name, tensor in named:
                encoded = name.encode("utf-8")
                arr = np.ascontiguousarray(tensor.data, dtype="<f8")
                put(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded,
                                arr.ndim, *arr.shape))
                put(memoryview(arr).cast("B"))
            fh.write(digest.digest())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def text(self, fmt: str, what: str) -> str:
        """A UTF-8 string whose byte length comes first, packed as ``fmt``."""
        try:
            return self.take(self.unpack(fmt)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.path}: {what} is not UTF-8: {exc.reason}") from None


def load_checkpoint(
    path,
    expected_config: ModelConfig | None = None,
    expected_topology_hash: str | None = None,
) -> tuple[ModelParams, ModelConfig, str]:
    """Read a checkpoint back; returns (params, config, topology_hash).

    When expected_config is given, every field must match; a class-count
    mismatch is reported with both values since it is the common way to
    point a checkpoint at the wrong dataset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 32:
        raise CheckpointError(f"{path}: truncated checkpoint")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt file)")
    r = _Reader(body, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version = r.unpack("<H")
    if version != VERSION:
        raise CheckpointError(f"{path}: format version {version}, supported {VERSION}")
    block = r.text("<I", "config block")
    values = parse_fields(block, _CONFIG_KINDS, CheckpointError, f"{path} config block")
    missing = _CONFIG_KINDS.keys() - values.keys()
    if missing:
        raise CheckpointError(f"{path}: config block missing fields: {sorted(missing)}")
    try:
        config = ModelConfig(**values)
    except ValueError as exc:
        raise CheckpointError(f"{path}: config block: {exc}") from None
    topo_hash = r.text("<I", "topology hash")

    if expected_config is not None:
        if config.classes != expected_config.classes:
            raise CheckpointError(
                f"{path}: checkpoint trained with {config.classes} classes, "
                f"current config has {expected_config.classes}"
            )
        if config != expected_config:
            raise CheckpointError(f"{path}: checkpoint config does not match current config")
    if expected_topology_hash is not None and topo_hash and topo_hash != expected_topology_hash:
        raise CheckpointError(f"{path}: checkpoint topology does not match current topology")

    params = init_model_params(config, seed=0)
    named = dict(named_parameters(params))
    count = r.unpack("<I")
    if count != len(named):
        raise CheckpointError(
            f"{path}: checkpoint has {count} tensors, model expects {len(named)}"
        )
    for _ in range(count):
        name = r.text("<H", "tensor name")
        if name not in named:
            raise CheckpointError(f"{path}: unknown parameter {name!r}")
        ndim = r.unpack("<B")
        shape = tuple(r.unpack("<I") for _ in range(ndim))
        target = named[name]
        if shape != target.shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {list(shape)}, "
                f"model expects {list(target.shape)}"
        )
        payload = r.take(int(np.prod(shape, dtype=np.int64)) * 8)
        target.data[...] = np.frombuffer(payload, dtype="<f8").reshape(shape)
    if r.pos != len(body):
        raise CheckpointError(f"{path}: trailing bytes after tensor table")
    return params, config, topo_hash
