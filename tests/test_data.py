import math

import numpy as np
import pytest

from cclearn.data import (
    _NOISE_ROWS,
    Dataset,
    SynthConfig,
    generate_blobs,
    generate_domains,
    load_table,
    make_batches,
    rotation_planes,
    save_table,
    split_dataset,
)
from cclearn.errors import TableParseError
from reference import generate_domains_expression, rotation_matrix_givens

SMALL = dict(num_classes=3, input_dim=5, samples_per_class=12, spread=4.0, class_std=1.0)


class TestGenerateBlobs:
    """``generate_blobs``' own contract: one element of ``generate_domains``."""

    def test_each_domain_is_the_element_of_generate_domains(self):
        config = SynthConfig(**SMALL, seed=4)
        for domain, ds in zip(("source", "target"), generate_domains(config)):
            got = generate_blobs(config, domain)
            assert got.domain == ds.domain == domain
            assert got.features.tobytes() == ds.features.tobytes(), domain
            assert got.labels.tobytes() == ds.labels.tobytes(), domain

    def test_an_unknown_domain_is_refused(self):
        with pytest.raises(ValueError, match="domain must be 'source' or 'target'"):
            generate_blobs(SynthConfig(), "validation")


class TestGenerateDomains:
    @pytest.mark.parametrize("overrides", [
        {},
        dict(samples_per_class=1, num_classes=2),  # the fewest rows a config allows
        dict(samples_per_class=(_NOISE_ROWS - 3, 1, 1)),
        dict(samples_per_class=(_NOISE_ROWS - 2, 1, 1)),
        dict(samples_per_class=(_NOISE_ROWS - 1, 1, 1)),
        dict(samples_per_class=(_NOISE_ROWS + 5, 2, _NOISE_ROWS - 1)),
        dict(input_dim=6, rotation_angle=(0.1, -0.7, 2.0), source_noise_std=0.4),
        dict(translation=(1.0, -2.0, 0.5, 0.0, 3.25), scale=0.75, seed=5),
        dict(source_noise_std=0.0, target_noise_std=0.0),
        dict(target_noise_std=0.0, translation=0.0, samples_per_class=(3, 1, 9)),
    ])
    def test_bit_equal_to_the_whole_array_expressions(self, overrides):
        config = SynthConfig(**dict(SMALL, **overrides))
        for ds, domain in zip(generate_domains(config), ("source", "target")):
            features, labels = generate_domains_expression(config, domain)
            assert ds.domain == domain
            assert ds.features.tobytes() == features.tobytes(), domain
            assert ds.labels.tobytes() == labels.tobytes(), domain

    def test_a_noise_block_of_one_row(self, monkeypatch):
        config = SynthConfig(**SMALL, source_noise_std=0.2)
        monkeypatch.setattr("cclearn.data._NOISE_ROWS", 1)
        for ds, domain in zip(generate_domains(config), ("source", "target")):
            assert ds.features.tobytes() == generate_domains_expression(config, domain)[0].tobytes()

    @pytest.mark.parametrize("overrides", [dict(seed=7), dict(samples_per_class=(_NOISE_ROWS, 3, 4))])
    def test_trivial_map_gives_equal_domains(self, overrides):
        config = SynthConfig(**dict(SMALL, **overrides), rotation_angle=0.0, translation=0.0,
                             scale=1.0, source_noise_std=0.3, target_noise_std=0.3)
        source, target = generate_domains(config)
        assert source.features.tobytes() == target.features.tobytes()
        assert source.labels.tobytes() == target.labels.tobytes()

    def test_per_class_counts_respected(self):
        config = SynthConfig(num_classes=2, input_dim=3, samples_per_class=(10, 20), seed=0)
        for ds in generate_domains(config):
            assert (ds.labels == 0).sum() == 10
            assert (ds.labels == 1).sum() == 20
            assert len(ds) == 30

    def test_seeded_determinism(self):
        config = SynthConfig(**SMALL, seed=5)
        for a, b in zip(generate_domains(config), generate_domains(config)):
            np.testing.assert_array_equal(a.features, b.features)

    def test_different_seed_differs(self):
        for a, b in zip(generate_domains(SynthConfig(**SMALL, seed=1)),
                        generate_domains(SynthConfig(**SMALL, seed=2))):
            assert not np.array_equal(a.features, b.features)

    def test_shift_moves_target(self):
        config = SynthConfig(**SMALL, rotation_angle=0.5, translation=2.0, scale=1.3, seed=3)
        src, tgt = generate_domains(config)
        assert not np.allclose(src.features, tgt.features)

    def test_invalid_config_refused(self):
        with pytest.raises(ValueError):
            generate_domains(SynthConfig(num_classes=1))
        with pytest.raises(ValueError):
            generate_domains(SynthConfig(scale=0.0))

    def test_explicit_translation_vector(self):
        config = SynthConfig(
            num_classes=2, input_dim=3, samples_per_class=4, seed=0,
            rotation_angle=0.0, scale=1.0, translation=(1.0, -2.0, 0.5),
            target_noise_std=0.0,
        )
        src, tgt = generate_domains(config)
        np.testing.assert_allclose(tgt.features - src.features,
                                   np.tile([1.0, -2.0, 0.5], (8, 1)), atol=1e-12)


def dense_rotation(dim, i, j, cos, sin):
    """The D x D matrix of the planes ``rotation_planes`` returns."""
    rot = np.eye(dim)
    rot[i, i] = rot[j, j] = cos
    rot[j, i], rot[i, j] = sin, -sin
    return rot


class TestRotationPlanes:
    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 17])
    def test_disjoint_pairs_leave_an_odd_axis_fixed(self, dim):
        i, j, cos, sin = rotation_planes(dim, 0.7, [0, 1])
        assert len(i) == len(j) == len(cos) == len(sin) == dim // 2
        assert len(set(i.tolist()) | set(j.tolist())) == 2 * (dim // 2)
        assert set(i.tolist()) | set(j.tolist()) <= set(range(dim))
        assert cos.tolist() == [math.cos(0.7)] * (dim // 2) and sin.tolist() == [math.sin(0.7)] * (dim // 2)

    def test_zero_angle_leaves_every_axis(self):
        _, _, cos, sin = rotation_planes(8, 0.0, [3, 4])
        assert cos.tolist() == [1.0] * 4 and sin.tolist() == [0.0] * 4

    def test_per_plane_angles(self):
        _, _, cos, sin = rotation_planes(4, (0.3, 0.9), [0, 0])
        assert cos.tolist() == [math.cos(0.3), math.cos(0.9)]
        assert sin.tolist() == [math.sin(0.3), math.sin(0.9)]
        with pytest.raises(ValueError, match="need 2 rotation angles"):
            rotation_planes(4, (0.3,), [0, 0])

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 17, 64])
    def test_every_value_of_the_dense_givens_product(self, dim):
        # values, not bytes: the dense product may give a zero entry the other sign
        for seed in range(5):
            key = [seed, 12, 0]
            per_plane = [0.1 + 0.7 * p for p in range(dim // 2)]
            for angles in (0.0, 0.35, -2.0, math.pi, per_plane):
                assert np.array_equal(dense_rotation(dim, *rotation_planes(dim, angles, key)),
                                      rotation_matrix_givens(dim, angles, key)), (seed, angles)


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
        ds = generate_domains(SynthConfig(num_classes=2, input_dim=3, samples_per_class=50, seed=0))[0]
        tr, va, te = split_dataset(ds, seed=0)
        assert (len(tr), len(va), len(te)) == (70, 10, 20)
        total = np.vstack([tr.features, va.features, te.features])
        assert total.shape[0] == 100
        merged = np.sort(total.sum(axis=1))
        np.testing.assert_allclose(merged, np.sort(ds.features.sum(axis=1)), atol=1e-12)

    def test_deterministic(self):
        ds = generate_domains(SynthConfig(num_classes=2, input_dim=3, samples_per_class=30, seed=1))[0]
        a = split_dataset(ds, seed=9)
        b = split_dataset(ds, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)

    def test_a_table_too_small_to_split_is_refused(self):
        ds = Dataset(np.zeros((5, 3)), np.arange(5) % 2, "source", 2)  # floor(0.1 * 5) = 0
        with pytest.raises(ValueError, match=r"split sizes \[3, 0, 2\] leave an empty part for N=5"):
            split_dataset(ds, seed=0)


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
        ds = generate_domains(SynthConfig(num_classes=2, input_dim=3, samples_per_class=2, seed=0))[0]
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

    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"f0,label,domain\r\n1,0,source\r\n2,0,caf\xe9\r\n")
        with pytest.raises(TableParseError, match="latin.csv: line 3: byte 8 is not UTF-8"):
            load_table(path)

    def test_a_lone_carriage_return_ends_a_line(self, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"f0,label,domain\r1,0,source\r2,1,source\r")
        assert load_table(path).labels.tolist() == [0, 1]
        path.write_bytes(b"f0,label,domain\r1,0,source\rx,1,source\r")
        with pytest.raises(TableParseError, match="cr.csv: line 3: non-numeric"):
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
        ds = generate_domains(SynthConfig(num_classes=3, input_dim=4, samples_per_class=7, seed=2))[1]
        save_table(ds, tmp_path / "b.csv")
        loaded = load_table(tmp_path / "b.csv")
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.domain == "target"
