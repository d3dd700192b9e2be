"""Loaders, dequantization, bits-per-dim, and the synthetic 2-D families."""

import json
import struct

import numpy as np
import pytest

from nads.data import (
    Dataset,
    SyntheticSpec,
    dequantize,
    load_data_manifest,
    load_idx,
    load_points_csv,
    make_synthetic,
    read_idx,
    save_idx,
    save_points_csv,
)
from nads.errors import ConfigError, DataError, UsageError


def idx_bytes(dims, payload):
    magic = 0x00000800 | len(dims)
    return struct.pack(">I", magic) + struct.pack(f">{len(dims)}I", *dims) + bytes(payload)


class TestIdx:
    def test_hand_crafted_two_image_fixture(self, tmp_path):
        # 2 images of 2x2 with bytes 0..7
        path = tmp_path / "tiny.idx"
        path.write_bytes(struct.pack(">I", 0x00000803) + struct.pack(">3I", 2, 2, 2) + bytes(range(8)))
        d = load_idx(path)
        assert d.x.shape == (2, 1, 2, 2)
        assert d.domain == "discrete"
        np.testing.assert_array_equal(d.x.ravel(), np.arange(8))

    def test_zero_count_header_rejected(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(struct.pack(">I", 0x00000803) + struct.pack(">3I", 0, 2, 2))
        with pytest.raises(DataError):
            load_idx(path)

    def test_roundtrip_write_read_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 1, 4, 3)).astype(np.float64)
        path = tmp_path / "rt.idx"
        save_idx(path, images)
        back = load_idx(path)
        np.testing.assert_array_equal(back.x, images)

    def test_bad_magic_and_truncation(self, tmp_path):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(struct.pack(">I", 0x12345678) + b"\x00" * 8)
        with pytest.raises(DataError, match="magic"):
            read_idx(bad)
        trunc = tmp_path / "trunc.idx"
        trunc.write_bytes(struct.pack(">I", 0x00000803) + struct.pack(">3I", 2, 2, 2) + b"\x00")
        with pytest.raises(DataError):
            read_idx(trunc)

    def test_label_file_reads_raw_but_not_as_images(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(idx_bytes((4,), [1, 2, 3, 4]))
        np.testing.assert_array_equal(read_idx(path), [1, 2, 3, 4])
        with pytest.raises(DataError):
            load_idx(path)

    def test_save_rejects_out_of_range(self, tmp_path):
        with pytest.raises(DataError):
            save_idx(tmp_path / "x.idx", np.full((1, 2, 2), 300.0))


class TestDatasetValidation:
    def test_domain_checks(self):
        with pytest.raises(DataError):
            Dataset(np.full((1, 1, 1, 1), 0.5), "discrete")
        with pytest.raises(DataError):
            Dataset(np.full((1, 1, 1, 1), 300.0), "discrete")
        with pytest.raises(DataError):
            Dataset(np.zeros((0, 1, 1, 1)))
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        x = np.zeros((3, 2, 1, 1))
        x[1, 0] = bad
        with pytest.raises(DataError, match="non-finite"):
            Dataset(x)

class TestDequantize:
    def test_bounds_per_byte_value(self):
        lo = Dataset(np.zeros((4, 1, 2, 2)), "discrete")
        out = dequantize(lo, seed=1)
        assert out.domain == "continuous"
        assert out.x.min() >= 0.0 and out.x.max() < 1.0 / 256.0
        hi = Dataset(np.full((4, 1, 2, 2), 255.0), "discrete")
        out_hi = dequantize(hi, seed=1)
        assert out_hi.x.min() >= 255.0 / 256.0 and out_hi.x.max() < 1.0

    def test_mean_matches_uniform_noise_model(self):
        n = 100_000
        d = Dataset(np.full((n, 1, 1, 1), 128.0), "discrete")
        out = dequantize(d, seed=2)
        want = 128.5 / 256.0
        # std of the mean of n uniform(0,1)/256 draws
        se = (1.0 / 256.0) / np.sqrt(12.0 * n)
        assert abs(out.x.mean() - want) < 3 * se

    def test_preserves_order_elementwise(self):
        base = np.arange(8).reshape(2, 1, 2, 2).astype(np.float64)
        d = Dataset(base * 30, "discrete")
        out = dequantize(d, seed=3)
        flat_in = d.x.ravel()
        flat_out = out.x.ravel()
        for i in range(len(flat_in)):
            for j in range(len(flat_in)):
                if flat_in[i] < flat_in[j]:
                    assert flat_out[i] < flat_out[j]

    def test_continuous_input_rejected(self):
        d = Dataset(np.zeros((2, 1, 1, 1)), "continuous")
        with pytest.raises(UsageError):
            dequantize(d, seed=0)

    def test_deterministic(self):
        d = Dataset(np.full((3, 1, 2, 2), 9.0), "discrete")
        np.testing.assert_array_equal(dequantize(d, 5).x, dequantize(d, 5).x)


class TestSynthetic:
    def test_single_gaussian_moments(self):
        d = make_synthetic(SyntheticSpec("gaussian_mixture", count=100_000, seed=1))
        pts = d.x.reshape(-1, 2)
        assert abs(pts.mean()) < 0.02
        np.testing.assert_allclose(pts.std(axis=0), 1.0, atol=0.02)

    def test_deterministic_given_seed(self):
        a = make_synthetic(SyntheticSpec("two_moons", count=100, seed=9))
        b = make_synthetic(SyntheticSpec("two_moons", count=100, seed=9))
        np.testing.assert_array_equal(a.x, b.x)
        c = make_synthetic(SyntheticSpec("two_moons", count=100, seed=10))
        assert not np.array_equal(a.x, c.x)

    def test_two_moons_geometry_envelope(self):
        d = make_synthetic(SyntheticSpec("two_moons", count=20_000, seed=2,
                                         params={"radius": 1.0}))
        pts = d.x.reshape(-1, 2)
        pts = pts - pts.mean(axis=0)
        assert np.linalg.norm(pts, axis=1).max() < 1.5

    def test_two_moons_shape_and_domain(self):
        d = make_synthetic(SyntheticSpec("two_moons", count=64, seed=3))
        assert d.x.shape == (64, 1, 1, 2)
        assert d.domain == "continuous"

    def test_rings_radii(self):
        d = make_synthetic(SyntheticSpec("rings", count=20_000, seed=4,
                                         params={"radius": 2.0, "noise": 0.01}))
        r = np.linalg.norm(d.x.reshape(-1, 2), axis=1)
        # two rings at 1.0 and 2.0 with bounded jitter
        inner = r[r < 1.5]
        outer = r[r >= 1.5]
        assert abs(inner.mean() - 1.0) < 0.05
        assert abs(outer.mean() - 2.0) < 0.05

    def test_shifted_gaussian(self):
        d = make_synthetic(SyntheticSpec("shifted_gaussian", count=50_000, seed=5,
                                         params={"shift": [4.0, -2.0], "sigma": 0.5}))
        pts = d.x.reshape(-1, 2)
        np.testing.assert_allclose(pts.mean(axis=0), [4.0, -2.0], atol=0.02)
        np.testing.assert_allclose(pts.std(axis=0), 0.5, atol=0.02)

    def test_mixture_weights_and_validation(self):
        spec = SyntheticSpec("gaussian_mixture", count=50_000, seed=6,
                             params={"means": [[-3, 0], [3, 0]], "sigmas": [0.1, 0.1],
                                     "weights": [0.25, 0.75]})
        pts = make_synthetic(spec).x.reshape(-1, 2)
        right = (pts[:, 0] > 0).mean()
        assert right == pytest.approx(0.75, abs=0.01)
        with pytest.raises(ConfigError):
            make_synthetic(SyntheticSpec("gaussian_mixture", count=10, seed=0,
                                         params={"means": [[0, 0]], "sigmas": [1, 2]}))

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            make_synthetic(SyntheticSpec("spiral", count=10, seed=0))

    def test_count_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec("two_moons", count=0, seed=0)


class TestCsvAndManifest:
    def test_points_roundtrip(self, tmp_path):
        d = make_synthetic(SyntheticSpec("two_moons", count=50, seed=8))
        path = tmp_path / "pts.csv"
        save_points_csv(path, d)
        assert path.read_text().splitlines()[0] == "x0,x1"
        back = load_points_csv(path)
        np.testing.assert_array_equal(back.x, d.x)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x0,x1\n")
        with pytest.raises(DataError):
            load_points_csv(path)

    @pytest.mark.parametrize("body, line", [
        ("x0,x1\n1.0,2.0\n3.0\n", 3),
        ("1.0,2.0\n3.0,4.0,5.0\n", 2),
        ("x0,x1\n1.0,oops\n", 2),
        ("x0,x1\n1.0,2.0\n\n", 3),
    ], ids=["short-row", "long-row", "non-numeric", "blank-line"])
    def test_malformed_row_names_its_line(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(DataError, match=f"line {line} "):
            load_points_csv(path)

    def test_manifest_loads_splits(self, tmp_path):
        train = make_synthetic(SyntheticSpec("two_moons", count=30, seed=1))
        ood = make_synthetic(SyntheticSpec("shifted_gaussian", count=20, seed=2,
                                           params={"shift": [4, 4]}))
        save_points_csv(tmp_path / "train.csv", train)
        save_points_csv(tmp_path / "ood.csv", ood)
        manifest = tmp_path / "data.json"
        manifest.write_text(json.dumps({
            "name": "toy", "format": "csv",
            "splits": {"train": "train.csv", "ood": "ood.csv"},
        }))
        out = load_data_manifest(manifest)
        assert set(out) == {"train", "ood"}
        assert out["train"].num_samples == 30
        assert out["ood"].split == "ood"

    def test_manifest_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_data_manifest(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "csv", "splits": {"train": "nope.csv"}}))
        with pytest.raises(ConfigError):
            load_data_manifest(bad)
