"""Keypoint-sequence ingestion, preprocessing, synthesis, and splitting.

The on-disk dataset format is one JSON record per line:

    {"id": "sample-001", "label": 3, "frames": [[[x, y, c], ...N], ...T]}

Frames carry a confidence channel c that preprocessing drops; the model
only ever sees (x, y). The synthetic generator emits the same format, so
the training pipeline is identical for real and generated data.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .graph import SkeletonTopology, read_lines
from .seeding import derive_rng


class DataFormatError(ValueError):
    """A dataset file or record violates the line-delimited contract."""


class PreprocessError(ValueError):
    """A sequence cannot be normalized (degenerate geometry)."""


@dataclass
class KeypointSequence:
    """One sample: raw frames [T_raw, N, 3] of (x, y, confidence)."""

    id: str
    label: int
    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames)
        # a float64 cast parses "0.5"; an object array (an int beyond int64) may hold strings too
        if frames.dtype.kind in "SU" or (frames.dtype == object and any(isinstance(v, str) for v in frames.flat)):
            raise DataFormatError(f"sample {self.id!r}: string coordinate")
        self.frames = frames.astype(np.float64, copy=False)
        if self.frames.ndim != 3 or self.frames.shape[2] != 3:
            raise DataFormatError(
                f"sample {self.id!r}: frames must be [T, N, 3], got {list(self.frames.shape)}"
            )
        if self.frames.shape[0] < 1:
            raise DataFormatError(f"sample {self.id!r}: empty frame sequence")
        if not np.isfinite(self.frames).all():
            raise DataFormatError(f"sample {self.id!r}: non-finite coordinate")
        if self.label < 0:
            raise DataFormatError(f"sample {self.id!r}: negative label {self.label}")
        if self.label > np.iinfo(np.int64).max:
            raise DataFormatError(f"sample {self.id!r}: label {self.label} does not fit in int64")

    @property
    def n_nodes(self) -> int:
        return self.frames.shape[1]


@dataclass
class DatasetManifest:
    """A set of samples plus the class universe they index into."""

    samples: list[KeypointSequence]
    class_count: int
    split_tag: str = "all"

    def __post_init__(self):
        if self.class_count < 1:
            raise DataFormatError(f"class_count must be positive, got {self.class_count}")
        seen = set()
        for s in self.samples:
            if s.id in seen:
                raise DataFormatError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)
            if s.label >= self.class_count:
                raise DataFormatError(
                    f"sample {s.id!r}: label {s.label} outside [0, {self.class_count})"
                )

    def __len__(self) -> int:
        return len(self.samples)

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)


@dataclass(frozen=True)
class SynthSpec:
    """Parametric gesture families over a chain skeleton."""

    classes: int = 5
    samples_per_class: int = 40
    n_nodes: int = 9
    min_len: int = 24
    max_len: int = 32
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError(f"classes must be >= 2, got {self.classes}")
        if self.samples_per_class < 1:
            raise ValueError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if self.n_nodes < 2:
            raise ValueError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError(f"bad length range [{self.min_len}, {self.max_len}]")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


# ---------------------------------------------------------------------------
# file format

def ingest(path, topo: SkeletonTopology, class_count: int | None = None) -> DatasetManifest:
    """Read a line-delimited dataset, validating against the topology.

    class_count defaults to max(label)+1 over the file; pass it explicitly
    when the file may not mention every class. A file with no records is
    a DataFormatError.
    """
    samples, ids = [], set()
    for lineno, line in read_lines(path, DataFormatError):
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict) or not {"id", "label", "frames"} <= set(rec):
                raise DataFormatError("record needs id, label, frames")
            label = rec["label"]
            if isinstance(label, bool) or not isinstance(label, int):
                raise DataFormatError(f"label {label!r} is not an integer")
            seq = KeypointSequence(str(rec["id"]), label, rec["frames"])
            # numpy reads a JSON true/false as 1.0/0.0; only a line that spells one needs the walk
            if ("true" in line or "false" in line) and any(
                    isinstance(v, bool) for frame in rec["frames"] for joint in frame for v in joint):
                raise DataFormatError(f"sample {seq.id!r}: boolean coordinate")
            if seq.n_nodes != topo.n_nodes:
                raise DataFormatError(f"sample {seq.id!r} has {seq.n_nodes} nodes, topology has {topo.n_nodes}")
            if seq.id in ids:
                raise DataFormatError(f"duplicate sample id {seq.id!r}")
            if class_count is not None and seq.label >= class_count:
                raise DataFormatError(f"sample {seq.id!r}: label {seq.label} outside [0, {class_count})")
        except (TypeError, ValueError, OverflowError, RecursionError) as exc:
            # a JSON fault, or a line nested past the recursion limit, is no record at all
            invalid = "invalid record: " if isinstance(exc, (json.JSONDecodeError, RecursionError)) else ""
            raise DataFormatError(f"{path}:{lineno}: {invalid}{exc}") from None
        ids.add(seq.id)
        samples.append(seq)
    if not samples:
        raise DataFormatError(f"{path}: no samples")
    return DatasetManifest(samples, class_count if class_count else max(s.label for s in samples) + 1)


def write_dataset(manifest: DatasetManifest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in manifest.samples:
            rec = {"id": s.id, "label": int(s.label), "frames": s.frames.tolist()}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# preprocessing

def preprocess(
    seq: KeypointSequence, target_t: int, normalize: str = "bbox"
) -> tuple[np.ndarray, np.ndarray]:
    """Drop confidence, normalize, fit to target_t frames.

    Returns (features [target_t, N, 2], mask [target_t]). bbox mode maps
    the sequence's spatial bounding box onto [-1, 1] per axis (an axis
    with zero extent is centered at 0; both extents zero is an error).
    Longer sequences are subsampled at uniform stride, shorter ones are
    zero-padded at the end with mask false.
    """
    if target_t < 1:
        raise ValueError(f"target_t must be >= 1, got {target_t}")
    if normalize not in ("bbox", "none"):
        raise ValueError(f"normalize must be 'bbox' or 'none', got {normalize!r}")
    coords = seq.frames[:, :, :2].copy()

    if normalize == "bbox":
        lo = coords.reshape(-1, 2).min(axis=0)
        hi = coords.reshape(-1, 2).max(axis=0)
        with np.errstate(all="ignore"):  # a non-finite result is caught below
            extent = hi - lo
            if (extent == 0).all():
                raise PreprocessError(
                    f"sample {seq.id!r}: degenerate bounding box (all joints coincident)"
                )
            center = (hi + lo) / 2.0
            half = np.where(extent > 0, extent / 2.0, 1.0)
            coords = (coords - center) / half
        if not (np.isfinite(extent).all() and np.isfinite(coords).all()):
            raise PreprocessError(f"sample {seq.id!r}: bounding box does not normalize to finite coordinates")

    t_raw = coords.shape[0]
    if t_raw > target_t:
        idx = (np.arange(target_t) * t_raw) // target_t  # floor(k*T_raw/target_t)
        coords = coords[idx]
        mask = np.ones(target_t, dtype=bool)
    elif t_raw < target_t:
        pad = np.zeros((target_t - t_raw, coords.shape[1], 2))
        coords = np.concatenate([coords, pad], axis=0)
        mask = np.arange(target_t) < t_raw
    else:
        mask = np.ones(target_t, dtype=bool)
    return coords, mask


@dataclass
class PreparedSplit:
    """Padded model-ready samples, a whole split or one batch of it:
    features [S, T, N, d], frame mask [S, T], labels [S], at least one
    sample. ``split[idx]`` takes a slice or an index array."""

    features: np.ndarray
    mask: np.ndarray
    labels: np.ndarray
    ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 4:
            raise DataFormatError(f"features must be [S,T,N,d], got {list(self.features.shape)}")
        s, t = self.features.shape[:2]
        if self.mask.shape != (s, t) or self.labels.shape != (s,):
            raise DataFormatError(f"mask {list(self.mask.shape)} and labels {list(self.labels.shape)} "
                                  f"do not match features [{s},{t}]")
        if self.ids and len(self.ids) != s:
            raise DataFormatError("ids do not match sample count")
        if s == 0:
            raise DataFormatError("a split needs at least one sample")
        if self.labels.min() < 0:
            raise DataFormatError(f"negative label {self.labels.min()}")

    def __getitem__(self, idx) -> PreparedSplit:
        ids = list(np.asarray(self.ids, dtype=object)[idx]) if self.ids else []
        return PreparedSplit(self.features[idx], self.mask[idx], self.labels[idx], ids)

    # perfbench's tracer reads a training batch's ``size``; its workloads take ``len()``
    @property
    def size(self) -> int:
        return len(self)

    def __len__(self) -> int:
        return self.features.shape[0]


def prepare_split(manifest: DatasetManifest, target_t: int, normalize: str = "bbox") -> PreparedSplit:
    """Preprocess every sample and stack into model-ready arrays."""
    feats, masks, labels, ids = [], [], [], []
    for s in manifest.samples:
        f, m = preprocess(s, target_t, normalize)
        feats.append(f)
        masks.append(m)
        labels.append(s.label)
        ids.append(s.id)
    if not feats:
        raise DataFormatError("cannot prepare an empty manifest")
    return PreparedSplit(np.stack(feats), np.stack(masks), np.array(labels), ids)


# ---------------------------------------------------------------------------
# synthesis

# Reference clock for trajectory phase: frame k is at time k / REF_FRAMES
# regardless of sequence length, so same-class samples of different lengths
# trace the same curve frame-for-frame (shorter ones are prefixes). With a
# preprocessing target_T >= max_len this alignment survives preprocessing
# exactly, which is what makes the families nearest-centroid separable.
REF_FRAMES = 32.0


def _class_family(c: int, n_classes: int) -> dict:
    """Deterministic trajectory parameters for one class.

    Classes differ by oscillation frequency, global phase, and a per-node
    amplitude envelope; the envelope survives any temporal resampling, the
    frequency and phase separate classes across frames. Together they keep
    any two classes far apart relative to the per-sample jitter and to
    noise_sigma <= 0.05.
    """
    return {
        "freq": 1.0 + 0.7 * c,
        "phase": 2.0 * np.pi * c / n_classes,
        "env_waves": c + 1,
        "env_shift": 0.9 * c,
    }


def _trajectory(fam: dict, n_nodes: int, t_len: int, phase_jit: float, amp_jit: float) -> np.ndarray:
    """Noiseless frames [t_len, n_nodes, 2] for one sample."""
    k = np.arange(t_len)
    v = np.arange(n_nodes)
    base_y = 2.0 * v / max(n_nodes - 1, 1) - 1.0  # chain laid out vertically
    env = 0.15 + 0.25 * (0.5 + 0.5 * np.cos(2.0 * np.pi * v * fam["env_waves"] / n_nodes + fam["env_shift"]))
    arg = 2.0 * np.pi * fam["freq"] * k[:, None] / REF_FRAMES + fam["phase"] + phase_jit
    amp = env[None, :] * amp_jit
    x = amp * np.sin(arg)
    y = base_y[None, :] + 0.5 * amp * np.cos(arg)
    return np.stack([x, y], axis=2)


def synthesize(spec: SynthSpec) -> DatasetManifest:
    """Generate a balanced labeled dataset; pure function of the spec."""
    samples = []
    for c in range(spec.classes):
        fam = _class_family(c, spec.classes)
        for k in range(spec.samples_per_class):
            rng = derive_rng(spec.seed, "synth", c, k)
            t_len = int(rng.integers(spec.min_len, spec.max_len + 1))
            phase_jit = rng.uniform(-0.3, 0.3)
            amp_jit = rng.uniform(0.9, 1.1)
            coords = _trajectory(fam, spec.n_nodes, t_len, phase_jit, amp_jit)
            coords = coords + rng.normal(0.0, spec.noise_sigma, coords.shape)
            frames = np.concatenate([coords, np.ones((t_len, spec.n_nodes, 1))], axis=2)
            samples.append(KeypointSequence(f"synth-{c:03d}-{k:04d}", c, frames))
    return DatasetManifest(samples, spec.classes)


# ---------------------------------------------------------------------------
# splitting

def split(
    manifest: DatasetManifest, fractions: tuple[float, float, float], seed: int = 0
) -> tuple[DatasetManifest, DatasetManifest, DatasetManifest]:
    """Seeded shuffle then partition into train/val/test.

    Sizes use floor for val and test with the remainder going to train.
    Stratified per label when every class has at least 3 samples;
    otherwise falls back to one unstratified shuffle with a warning. A
    split that would leave any part empty raises ValueError.
    """
    if len(fractions) != 3 or not all(f > 0 for f in fractions):
        raise ValueError(f"fractions must be three positive numbers, got {fractions}")
    if not abs(sum(fractions) - 1.0) <= 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    rng = derive_rng(seed, "split")
    labels = manifest.labels()
    counts = np.bincount(labels, minlength=manifest.class_count)
    present = counts[counts > 0]
    groups: list[np.ndarray]
    if present.size and (present >= 3).all():
        groups = [np.flatnonzero(labels == c) for c in range(manifest.class_count) if counts[c]]
    else:
        warnings.warn(
            "some class has fewer than 3 samples; splitting without stratification",
            stacklevel=2,
        )
        groups = [np.arange(len(manifest))]
    parts: tuple[list, list, list] = ([], [], [])
    for idx in groups:
        idx = rng.permutation(idx)
        n = idx.size
        n_val = int(np.floor(fractions[1] * n))
        n_test = int(np.floor(fractions[2] * n))
        n_train = n - n_val - n_test
        parts[0].extend(idx[:n_train])
        parts[1].extend(idx[n_train:n_train + n_val])
        parts[2].extend(idx[n_train + n_val:])
    out = []
    for tag, chosen in zip(("train", "val", "test"), parts):
        if not chosen:
            raise ValueError(f"the {tag} split of {len(manifest)} samples at fractions {fractions} would be empty")
        chosen = sorted(chosen)  # file order within each split
        out.append(DatasetManifest([manifest.samples[i] for i in chosen],
                                   manifest.class_count, split_tag=tag))
    return tuple(out)
