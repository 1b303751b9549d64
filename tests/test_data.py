import math

import numpy as np
import pytest

from cclearn.data import (
    Dataset,
    SynthConfig,
    generate_blobs,
    load_table,
    make_batches,
    rotation_matrix,
    save_table,
    split_dataset,
)
from cclearn.errors import TableParseError

SMALL = dict(num_classes=3, input_dim=5, samples_per_class=12, spread=4.0, class_std=1.0)


class TestGenerateBlobs:
    def test_identity_map_makes_domains_bitwise_equal(self):
        config = SynthConfig(
            **SMALL, rotation_angle=0.0, translation=0.0, scale=1.0,
            source_noise_std=0.3, target_noise_std=0.3, seed=7,
        )
        src = generate_blobs(config, "source")
        tgt = generate_blobs(config, "target")
        np.testing.assert_array_equal(src.features, tgt.features)
        np.testing.assert_array_equal(src.labels, tgt.labels)

    def test_per_class_counts_respected(self):
        config = SynthConfig(num_classes=2, input_dim=3, samples_per_class=(10, 20), seed=0)
        ds = generate_blobs(config, "source")
        assert (ds.labels == 0).sum() == 10
        assert (ds.labels == 1).sum() == 20
        assert len(ds) == 30

    def test_seeded_determinism(self):
        config = SynthConfig(**SMALL, seed=5)
        a = generate_blobs(config, "target")
        b = generate_blobs(config, "target")
        np.testing.assert_array_equal(a.features, b.features)

    def test_different_seed_differs(self):
        a = generate_blobs(SynthConfig(**SMALL, seed=1), "source")
        b = generate_blobs(SynthConfig(**SMALL, seed=2), "source")
        assert not np.array_equal(a.features, b.features)

    def test_shift_moves_target(self):
        config = SynthConfig(**SMALL, rotation_angle=0.5, translation=2.0, scale=1.3, seed=3)
        src = generate_blobs(config, "source")
        tgt = generate_blobs(config, "target")
        assert not np.allclose(src.features, tgt.features)

    def test_invalid_config_and_domain(self):
        with pytest.raises(ValueError):
            generate_blobs(SynthConfig(num_classes=1), "source")
        with pytest.raises(ValueError):
            generate_blobs(SynthConfig(scale=0.0), "source")
        with pytest.raises(ValueError):
            generate_blobs(SynthConfig(), "validation")

    def test_explicit_translation_vector(self):
        config = SynthConfig(
            num_classes=2, input_dim=3, samples_per_class=4, seed=0,
            rotation_angle=0.0, scale=1.0, translation=(1.0, -2.0, 0.5),
            target_noise_std=0.0,
        )
        src = generate_blobs(config, "source")
        tgt = generate_blobs(config, "target")
        np.testing.assert_allclose(tgt.features - src.features,
                                   np.tile([1.0, -2.0, 0.5], (8, 1)), atol=1e-12)


class TestRotationMatrix:
    def test_orthogonal(self):
        for dim in (2, 5, 16):
            rot = rotation_matrix(dim, 0.7, [0, 1])
            np.testing.assert_allclose(rot @ rot.T, np.eye(dim), atol=1e-12)

    def test_zero_angle_is_exact_identity(self):
        rot = rotation_matrix(8, 0.0, [3, 4])
        np.testing.assert_array_equal(rot, np.eye(8))

    def test_per_plane_angles(self):
        rot = rotation_matrix(4, (0.3, 0.9), [0, 0])
        np.testing.assert_allclose(rot @ rot.T, np.eye(4), atol=1e-12)
        with pytest.raises(ValueError):
            rotation_matrix(4, (0.3,), [0, 0])


class TestMakeBatches:
    def make_ds(self, n):
        return Dataset(np.arange(n, dtype=float)[:, None], np.zeros(n, dtype=int), "source", 2)

    def test_undersized_dataset_single_batch(self):
        batches = make_batches(self.make_ds(10), 32)
        assert len(batches) == 1 and len(batches[0]) == 10

    def test_exact_chunks_without_shuffle(self):
        batches = make_batches(self.make_ds(64), 32, shuffle=False)
        np.testing.assert_array_equal(batches[0], np.arange(32))
        np.testing.assert_array_equal(batches[1], np.arange(32, 64))

    def test_seeded_shuffle_deterministic(self):
        a = make_batches(self.make_ds(50), 8, seed=3, shuffle=True)
        b = make_batches(self.make_ds(50), 8, seed=3, shuffle=True)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_partition_property(self):
        batches = make_batches(self.make_ds(37), 5, seed=1, shuffle=True)
        joined = np.concatenate(batches)
        assert sorted(joined.tolist()) == list(range(37))

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            make_batches(self.make_ds(5), 0)


class TestSplitDataset:
    def test_sizes_and_partition(self):
        ds = generate_blobs(SynthConfig(num_classes=2, input_dim=3, samples_per_class=50, seed=0), "source")
        tr, va, te = split_dataset(ds, seed=0)
        assert (len(tr), len(va), len(te)) == (70, 10, 20)
        total = np.vstack([tr.features, va.features, te.features])
        assert total.shape[0] == 100
        merged = np.sort(total.sum(axis=1))
        np.testing.assert_allclose(merged, np.sort(ds.features.sum(axis=1)), atol=1e-12)

    def test_deterministic(self):
        ds = generate_blobs(SynthConfig(num_classes=2, input_dim=3, samples_per_class=30, seed=1), "source")
        a = split_dataset(ds, seed=9)
        b = split_dataset(ds, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)

    def test_bad_fractions(self):
        ds = generate_blobs(SynthConfig(num_classes=2, input_dim=3, samples_per_class=30, seed=1), "source")
        with pytest.raises(ValueError):
            split_dataset(ds, fractions=(0.5, 0.4), seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, fractions=(0.999, 0.0005, 0.0005), seed=0)


class TestDataset:
    @pytest.mark.parametrize("labels", [
        np.array([0.5, 1.7, 2.9]), np.array([0.0, 1.0, 2.0]), np.array([True, False, True]),
        [0.0, 1.0, 2.0],
    ])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="integers"):
            Dataset(np.ones((3, 2)), labels, "s", 3)

    @pytest.mark.parametrize("labels", [
        np.array([0, 1, 3]), np.array([0, -1, 2]), np.array([0, 1]), np.array([[0], [1], [2]]),
    ])
    def test_bad_integer_labels_rejected(self, labels):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), labels, "s", 3)

    def test_integer_labels_become_int64(self):
        ds = Dataset(np.ones((3, 2)), np.array([0, 2, 1], dtype=np.uint8), "s", 3)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 2, 1]
        assert Dataset(np.ones((2, 2)), [1, 0], "s", 2).labels.dtype == np.int64

class TestTableIO:
    def test_round_trip_exact(self, tmp_path):
        tricky = np.array(
            [[0.1, 1.0 / 3.0, math.pi], [1e-300, -1.5e222, 4.9e-324], [0.0, -0.0, 2.0**-1074]]
        )
        ds = Dataset(tricky, np.array([0, 1, 2]), "target", 3)
        path = tmp_path / "t.csv"
        save_table(ds, path)
        loaded = load_table(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.domain == "target"
        assert loaded.num_classes == 3

    def test_header_schema(self, tmp_path):
        ds = generate_blobs(SynthConfig(num_classes=2, input_dim=3, samples_per_class=2, seed=0), "source")
        path = tmp_path / "d.csv"
        save_table(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "f0,f1,f2,label,domain"

    def test_three_row_file(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("f0,f1,label,domain\n1,2,0,source\n3,4,1,source\n5,6,0,source\n")
        ds = load_table(path)
        assert len(ds) == 3
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_label_at_num_classes_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label,domain\n1,2,0,source\n3,4,2,source\n")
        with pytest.raises(TableParseError, match="line 3"):
            load_table(path, num_classes=2)

    def test_label_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("f0,label,domain\n1,0,source\n2,99999999999999999999,source\n")
        with pytest.raises(TableParseError, match="big.csv: line 3"):
            load_table(path)

    def test_field_over_the_csv_size_limit_names_line(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text('f0,label,domain\n1,0,source\n2,0,"' + "s" * 140000 + '"\n')
        with pytest.raises(TableParseError, match="long.csv: line 3: field larger"):
            load_table(path)

    @pytest.mark.parametrize("newline", ["\r\n", "\n"])
    def test_errors_name_the_physical_line_of_a_multi_line_record(self, tmp_path, newline):
        path = tmp_path / "multi.csv"
        rows = ['1,0,"a\r\nb"', '2,0,"a\r\nb"', 'xx,0,"a\r\nb"']
        path.write_bytes(newline.join(["f0,label,domain", *rows, ""]).encode())
        with pytest.raises(TableParseError, match="multi.csv: line 6: non-numeric"):
            load_table(path)

    def test_header_only_is_no_samples(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label,domain\n")
        with pytest.raises(TableParseError, match="no samples"):
            load_table(path)

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = tmp_path / "nn.csv"
        path.write_text("f0,f1,label,domain\n1,2,0,source\nx,4,1,source\n")
        with pytest.raises(TableParseError, match="line 3"):
            load_table(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,label,domain\n1,2,0,source\n")
        with pytest.raises(TableParseError, match="line 1"):
            load_table(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("f0,f1,label,domain\n1,2,0,source\n1,2,0\n")
        with pytest.raises(TableParseError, match="line 3"):
            load_table(path)

    def test_mixed_domains_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,label,domain\n1,0,source\n2,0,target\n")
        with pytest.raises(TableParseError, match="line 3"):
            load_table(path)

    def test_truly_empty_file(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("")
        with pytest.raises(TableParseError, match="empty"):
            load_table(path)

    def test_blob_table_round_trip(self, tmp_path):
        ds = generate_blobs(SynthConfig(num_classes=3, input_dim=4, samples_per_class=7, seed=2), "target")
        save_table(ds, tmp_path / "b.csv")
        loaded = load_table(tmp_path / "b.csv")
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.domain == "target"
