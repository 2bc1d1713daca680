import json
import warnings

import numpy as np
import pytest

from skelgru.data import (
    DataFormatError,
    DatasetManifest,
    KeypointSequence,
    PreprocessError,
    SynthSpec,
    ingest,
    prepare_split,
    preprocess,
    split,
    synthesize,
    write_dataset,
)
from skelgru.graph import chain_topology


def seq(id_, label, frames):
    return KeypointSequence(id_, label, np.asarray(frames, dtype=np.float64))


def toy_frames(t, n, fill=0.0):
    f = np.full((t, n, 3), fill)
    f[:, :, 0] = np.arange(t)[:, None]  # non-degenerate x
    f[:, :, 2] = 1.0
    return f


class TestSequenceValidation:
    def test_wrong_rank_rejected(self):
        with pytest.raises(DataFormatError, match="\\[T, N, 3\\]"):
            seq("a", 0, np.zeros((2, 3)))

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(DataFormatError):
            seq("a", 0, np.zeros((2, 3, 2)))

    def test_empty_sequence_rejected(self):
        with pytest.raises(DataFormatError, match="empty"):
            seq("a", 0, np.zeros((0, 3, 3)))

    def test_non_finite_rejected(self):
        f = toy_frames(2, 3)
        f[1, 1, 0] = np.nan
        with pytest.raises(DataFormatError, match="non-finite"):
            seq("a", 0, f)

    def test_negative_label_rejected(self):
        with pytest.raises(DataFormatError, match="negative label"):
            seq("a", -1, toy_frames(2, 3))

    def test_manifest_rejects_duplicate_ids(self):
        s = seq("dup", 0, toy_frames(2, 3))
        with pytest.raises(DataFormatError, match="duplicate"):
            DatasetManifest([s, seq("dup", 0, toy_frames(2, 3))], 1)

    def test_manifest_rejects_label_out_of_range(self):
        with pytest.raises(DataFormatError, match="outside"):
            DatasetManifest([seq("a", 5, toy_frames(2, 3))], 5)

    def test_manifest_labels_vector(self):
        m = DatasetManifest([seq("a", 1, toy_frames(2, 3)), seq("b", 0, toy_frames(2, 3))], 2)
        assert m.labels().tolist() == [1, 0]
        assert len(m) == 2


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        topo = chain_topology(3)
        m = DatasetManifest(
            [seq("a", 0, toy_frames(4, 3, fill=0.25)), seq("b", 1, toy_frames(2, 3))], 2
        )
        path = tmp_path / "data.jsonl"
        write_dataset(m, path)
        back = ingest(path, topo)
        assert back.class_count == 2
        assert [s.id for s in back.samples] == ["a", "b"]
        for orig, got in zip(m.samples, back.samples):
            assert np.array_equal(orig.frames, got.frames)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        good = json.dumps({"id": "a", "label": 0, "frames": toy_frames(1, 2).tolist()})
        path.write_text(good + "\n{not json\n")
        with pytest.raises(DataFormatError, match=r":2: invalid record"):
            ingest(path, chain_topology(2))

    def test_missing_key_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "label": 0}\n')
        with pytest.raises(DataFormatError, match=r":1: record needs"):
            ingest(path, chain_topology(2))

    def test_node_count_mismatch(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rec = {"id": "a", "label": 0, "frames": toy_frames(2, 4).tolist()}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(DataFormatError, match="has 4 nodes.*topology has 2"):
            ingest(path, chain_topology(2))

    def test_label_above_declared_class_count(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rec = {"id": "a", "label": 7, "frames": toy_frames(2, 2).tolist()}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(DataFormatError, match="outside"):
            ingest(path, chain_topology(2), class_count=3)

    @pytest.mark.parametrize("label", [1.5, 1.0, True, "1", None])
    def test_label_that_is_not_an_integer_reports_line(self, tmp_path, label):
        path = tmp_path / "data.jsonl"
        good = {"id": "a", "label": 0, "frames": toy_frames(1, 2).tolist()}
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, label=label)) + "\n")
        with pytest.raises(DataFormatError, match=rf":2: label {label!r} is not an integer"):
            ingest(path, chain_topology(2))

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rec = {"id": "a", "label": 0, "frames": toy_frames(1, 2).tolist()}
        path.write_bytes(b"\xff\xfe" + json.dumps(rec).encode() + b"\n")
        with pytest.raises(DataFormatError, match=r"data\.jsonl: not UTF-8"):
            ingest(path, chain_topology(2))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rec = {"id": "a", "label": 0, "frames": toy_frames(1, 2).tolist()}
        path.write_text("\n" + json.dumps(rec) + "\n\n")
        assert len(ingest(path, chain_topology(2))) == 1

    def test_empty_file_warns_and_returns_empty(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("")
        with pytest.warns(UserWarning, match="no records"):
            m = ingest(path, chain_topology(2))
        assert len(m) == 0

    def test_class_count_inferred_from_max_label(self, tmp_path):
        path = tmp_path / "data.jsonl"
        recs = [
            {"id": "a", "label": 4, "frames": toy_frames(1, 2).tolist()},
            {"id": "b", "label": 1, "frames": toy_frames(1, 2).tolist()},
        ]
        path.write_text("\n".join(json.dumps(r) for r in recs))
        assert ingest(path, chain_topology(2)).class_count == 5


class TestPreprocess:
    def test_confidence_dropped(self):
        f, _ = preprocess(seq("a", 0, toy_frames(3, 2)), 3, normalize="none")
        assert f.shape == (3, 2, 2)

    def test_bbox_maps_to_unit_square(self):
        frames = np.zeros((1, 2, 3))
        frames[0, 0, :2] = (0.0, 0.0)
        frames[0, 1, :2] = (2.0, 4.0)
        f, _ = preprocess(seq("a", 0, frames), 1)
        assert np.allclose(f[0, 0], (-1.0, -1.0))
        assert np.allclose(f[0, 1], (1.0, 1.0))

    def test_bbox_shared_across_frames(self):
        # min/max taken over the whole sequence, not per frame
        frames = np.zeros((2, 1, 3))
        frames[0, 0, :2] = (0.0, 0.0)
        frames[1, 0, :2] = (4.0, 2.0)
        f, _ = preprocess(seq("a", 0, frames), 2)
        assert np.allclose(f[0, 0], (-1.0, -1.0))
        assert np.allclose(f[1, 0], (1.0, 1.0))

    def test_single_flat_axis_centered(self):
        frames = np.zeros((2, 2, 3))
        frames[:, :, 0] = 5.0  # x constant everywhere
        frames[0, 1, 1] = 2.0
        f, _ = preprocess(seq("a", 0, frames), 2)
        assert np.all(f[:, :, 0] == 0.0)
        assert f[:, :, 1].min() == -1.0 and f[:, :, 1].max() == 1.0

    def test_fully_degenerate_bbox_rejected(self):
        frames = np.ones((3, 2, 3))
        with pytest.raises(PreprocessError, match="degenerate"):
            preprocess(seq("a", 0, frames), 3)

    @pytest.mark.parametrize("x", [(1e308, -1e308), (1e308, 1e308), (0.0, 5e-324)])
    def test_bbox_that_does_not_normalize_rejected_naming_the_sample(self, x):
        # an infinite x extent; a zero x extent whose centre (hi + lo) / 2
        # overflows; an x extent whose half rounds to 0
        frames = toy_frames(2, 2)
        frames[:, 0, 0], frames[:, 1, 0] = x
        frames[0, 0, 1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreprocessError, match="sample 'far': bounding box does not normalize"):
                preprocess(seq("far", 0, frames), 2)

    def test_degenerate_ok_without_normalization(self):
        frames = np.ones((3, 2, 3))
        f, m = preprocess(seq("a", 0, frames), 3, normalize="none")
        assert np.all(f == 1.0) and m.all()

    def test_subsample_uniform_stride(self):
        frames = toy_frames(8, 1)
        f, m = preprocess(seq("a", 0, frames), 4, normalize="none")
        assert f[:, 0, 0].tolist() == [0.0, 2.0, 4.0, 6.0]
        assert m.all()

    def test_subsample_floor_indices(self):
        frames = toy_frames(5, 1)
        f, _ = preprocess(seq("a", 0, frames), 3, normalize="none")
        # floor(k * 5 / 3) for k = 0, 1, 2
        assert f[:, 0, 0].tolist() == [0.0, 1.0, 3.0]

    def test_pad_suffix_with_false_mask(self):
        frames = toy_frames(2, 2)
        f, m = preprocess(seq("a", 0, frames), 5, normalize="none")
        assert m.tolist() == [True, True, False, False, False]
        assert np.all(f[2:] == 0.0)
        assert np.array_equal(f[:2], frames[:, :, :2])

    def test_exact_length_unchanged(self):
        frames = toy_frames(4, 2)
        f, m = preprocess(seq("a", 0, frames), 4, normalize="none")
        assert np.array_equal(f, frames[:, :, :2])
        assert m.all()

    @pytest.mark.parametrize("t_raw,target", [(3, 7), (7, 3), (5, 5)])
    def test_mask_count_is_min(self, t_raw, target):
        _, m = preprocess(seq("a", 0, toy_frames(t_raw, 2)), target, normalize="none")
        assert m.sum() == min(t_raw, target)

    def test_bad_arguments(self):
        s = seq("a", 0, toy_frames(2, 2))
        with pytest.raises(ValueError, match="target_t"):
            preprocess(s, 0)
        with pytest.raises(ValueError, match="normalize"):
            preprocess(s, 2, normalize="zscore")

    def test_prepare_split_stacks(self):
        m = DatasetManifest(
            [seq("a", 1, toy_frames(3, 2)), seq("b", 0, toy_frames(6, 2))], 2
        )
        ps = prepare_split(m, 4, normalize="none")
        assert ps.features.shape == (2, 4, 2, 2)
        assert ps.mask.shape == (2, 4)
        assert ps.labels.tolist() == [1, 0]
        assert ps.ids == ["a", "b"]
        assert len(ps) == 2

    def test_prepare_split_empty_rejected(self):
        with pytest.raises(DataFormatError, match="empty"):
            prepare_split(DatasetManifest([], 1), 4)


class TestSynthesize:
    SPEC = SynthSpec(classes=3, samples_per_class=5, n_nodes=4, min_len=6, max_len=10, seed=7)

    def test_deterministic(self):
        a, b = synthesize(self.SPEC), synthesize(self.SPEC)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.id == sb.id and np.array_equal(sa.frames, sb.frames)

    def test_balanced_and_labeled(self):
        m = synthesize(self.SPEC)
        assert len(m) == 15 and m.class_count == 3
        assert np.bincount(m.labels()).tolist() == [5, 5, 5]

    def test_shapes_and_confidence(self):
        for s in synthesize(self.SPEC).samples:
            assert 6 <= s.frames.shape[0] <= 10
            assert s.n_nodes == 4
            assert np.all(s.frames[:, :, 2] == 1.0)

    def test_unique_ids(self):
        ids = [s.id for s in synthesize(self.SPEC).samples]
        assert len(set(ids)) == len(ids)

    def test_lengths_vary_across_samples(self):
        spec = SynthSpec(classes=2, samples_per_class=20, n_nodes=3,
                         min_len=6, max_len=30, seed=0)
        lengths = {s.frames.shape[0] for s in synthesize(spec).samples}
        assert len(lengths) > 5

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(classes=1)
        with pytest.raises(ValueError):
            SynthSpec(min_len=10, max_len=5)
        with pytest.raises(ValueError):
            SynthSpec(noise_sigma=-0.1)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_nearest_centroid_separates_classes(self, noise):
        spec = SynthSpec(classes=5, samples_per_class=12, n_nodes=9,
                         min_len=24, max_len=32, noise_sigma=noise, seed=3)
        ps = prepare_split(synthesize(spec), 32)
        flat = ps.features.reshape(len(ps), -1)
        centroids = np.stack([flat[ps.labels == c].mean(axis=0) for c in range(5)])
        d = ((flat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(d.argmin(axis=1), ps.labels)


class TestSplit:
    def balanced(self, classes=5, per_class=40):
        samples = [
            seq(f"c{c}k{k}", c, toy_frames(3, 2))
            for c in range(classes)
            for k in range(per_class)
        ]
        return DatasetManifest(samples, classes)

    def test_sizes_floor_remainder_to_train(self):
        tr, va, te = split(self.balanced(), (0.7, 0.15, 0.15), seed=0)
        assert (len(tr), len(va), len(te)) == (140, 30, 30)
        assert (tr.split_tag, va.split_tag, te.split_tag) == ("train", "val", "test")

    def test_stratified_per_class_counts(self):
        tr, va, te = split(self.balanced(), (0.7, 0.15, 0.15), seed=0)
        for part, want in ((tr, 28), (va, 6), (te, 6)):
            assert np.bincount(part.labels(), minlength=5).tolist() == [want] * 5

    def test_disjoint_union(self):
        m = self.balanced(classes=3, per_class=7)
        tr, va, te = split(m, (0.5, 0.25, 0.25), seed=1)
        all_ids = [s.id for part in (tr, va, te) for s in part.samples]
        assert len(all_ids) == len(m)
        assert set(all_ids) == {s.id for s in m.samples}

    def test_deterministic_in_seed(self):
        m = self.balanced(classes=3, per_class=10)
        a = split(m, (0.6, 0.2, 0.2), seed=5)
        b = split(m, (0.6, 0.2, 0.2), seed=5)
        c = split(m, (0.6, 0.2, 0.2), seed=6)
        for pa, pb in zip(a, b):
            assert [s.id for s in pa.samples] == [s.id for s in pb.samples]
        assert any(
            [s.id for s in pa.samples] != [s.id for s in pc.samples]
            for pa, pc in zip(a, c)
        )

    def test_small_class_falls_back_unstratified(self):
        samples = [seq(f"a{k}", 0, toy_frames(2, 2)) for k in range(8)]
        samples += [seq("b0", 1, toy_frames(2, 2)), seq("b1", 1, toy_frames(2, 2))]
        m = DatasetManifest(samples, 2)
        with pytest.warns(UserWarning, match="stratification"):
            tr, va, te = split(m, (0.6, 0.2, 0.2), seed=0)
        assert len(tr) + len(va) + len(te) == 10
        assert (len(va), len(te)) == (2, 2)

    def test_fraction_validation(self):
        m = self.balanced(classes=2, per_class=5)
        with pytest.raises(ValueError, match="positive"):
            split(m, (0.8, 0.2, 0.0))
        with pytest.raises(ValueError, match="sum to 1"):
            split(m, (0.7, 0.2, 0.2))
