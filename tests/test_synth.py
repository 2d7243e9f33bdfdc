"""Synthetic data generation and the GCLD on-disk format."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from gcl_lab.errors import ConfigError, FormatError, InvalidDimsError
from gcl_lab.synth import (
    DatasetManifest,
    dataset_to_arrays,
    generate_dataset,
    modality_projections,
    read_dataset,
    record_dtype,
    write_dataset,
)

from oracles import oracle_gcld_records, oracle_write_gcld


class TestGeneration:
    def test_deterministic(self):
        a, ma = generate_dataset(n_pairs=50, k=4, d_in=16, sigma=0.1, seed=7)
        b, mb = generate_dataset(n_pairs=50, k=4, d_in=16, sigma=0.1, seed=7)
        assert ma == mb
        for pa, pb in zip(a, b):
            assert pa.concept_id == pb.concept_id
            assert np.array_equal(pa.x_img, pb.x_img)
            assert np.array_equal(pa.x_txt, pb.x_txt)

    def test_seeds_differ(self):
        a, _ = generate_dataset(n_pairs=10, k=4, d_in=16, sigma=0.1, seed=1)
        b, _ = generate_dataset(n_pairs=10, k=4, d_in=16, sigma=0.1, seed=2)
        assert not np.array_equal(a[0].x_img, b[0].x_img)

    def test_features_are_float32(self):
        pairs, _ = generate_dataset(n_pairs=4, k=2, d_in=8, sigma=0.5, seed=3)
        assert pairs[0].x_img.dtype == np.float32
        assert pairs[0].x_txt.dtype == np.float32

    def test_noiseless_pairs_are_exact_projections(self):
        pairs, _ = generate_dataset(n_pairs=6, k=3, d_in=12, sigma=0.0, seed=11)
        a_img, a_txt = modality_projections(k=3, d_in=12, seed=11)
        # sigma=0: recovered latents from the two modalities coincide exactly
        for p in pairs:
            z_img = a_img.T @ p.x_img.astype(np.float64)
            z_txt = a_txt.T @ p.x_txt.astype(np.float64)
            np.testing.assert_allclose(z_img, z_txt, atol=1e-6)
            assert np.linalg.norm(z_img) == pytest.approx(1.0, abs=1e-6)

    def test_projections_have_orthonormal_columns(self):
        a_img, a_txt = modality_projections(k=5, d_in=20, seed=9)
        np.testing.assert_allclose(a_img.T @ a_img, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(a_txt.T @ a_txt, np.eye(5), atol=1e-12)

    def test_within_pair_latent_agreement_beats_across(self):
        pairs, _ = generate_dataset(n_pairs=1000, k=8, d_in=32, sigma=0.1, seed=7)
        a_img, a_txt = modality_projections(k=8, d_in=32, seed=7)
        z_img = np.stack([a_img.T @ p.x_img.astype(np.float64) for p in pairs])
        z_txt = np.stack([a_txt.T @ p.x_txt.astype(np.float64) for p in pairs])
        z_img /= np.linalg.norm(z_img, axis=1, keepdims=True)
        z_txt /= np.linalg.norm(z_txt, axis=1, keepdims=True)
        agreement = z_img @ z_txt.T
        n = len(pairs)
        within = float(np.mean(np.diagonal(agreement)))
        across = float((agreement.sum() - np.trace(agreement)) / (n * n - n))
        assert within > across

    def test_duplication_assigns_concepts_in_blocks(self):
        pairs, manifest = generate_dataset(n_pairs=12, k=2, d_in=8, sigma=0.1, seed=5, duplication=3)
        assert manifest.duplication == 3
        assert [p.concept_id for p in pairs] == [p // 3 for p in range(12)]
        # same concept, fresh noise: views differ but share the latent
        assert not np.array_equal(pairs[0].x_img, pairs[1].x_img)

    def test_duplicated_views_share_latent_at_sigma_zero(self):
        pairs, _ = generate_dataset(n_pairs=8, k=2, d_in=8, sigma=0.0, seed=5, duplication=2)
        assert np.array_equal(pairs[0].x_img, pairs[1].x_img)

    def test_nearest_mean_probe_is_perfect_at_sigma_zero(self):
        # linear probe stand-in: nearest class-mean in feature space,
        # trained on view 0 and evaluated on held-out view 1
        pairs, _ = generate_dataset(n_pairs=80, k=4, d_in=16, sigma=0.0, seed=13, duplication=2)
        ids, x_img, _ = dataset_to_arrays(pairs)
        train = x_img[0::2]
        test = x_img[1::2]
        labels = ids[0::2]
        scores = test @ train.T
        predicted = labels[np.argmax(scores, axis=1)]
        accuracy = float(np.mean(predicted == ids[1::2]))
        assert accuracy >= 0.99

    def test_probe_degrades_with_large_sigma(self):
        pairs, _ = generate_dataset(n_pairs=80, k=4, d_in=16, sigma=3.0, seed=13, duplication=2)
        ids, x_img, _ = dataset_to_arrays(pairs)
        scores = x_img[1::2] @ x_img[0::2].T
        predicted = ids[0::2][np.argmax(scores, axis=1)]
        accuracy = float(np.mean(predicted == ids[1::2]))
        assert accuracy < 0.9

    def test_validation_errors(self):
        with pytest.raises(InvalidDimsError):
            generate_dataset(n_pairs=4, k=9, d_in=8, sigma=0.1, seed=0)
        with pytest.raises(ConfigError):
            generate_dataset(n_pairs=1, k=2, d_in=8, sigma=0.1, seed=0)
        with pytest.raises(ConfigError):
            generate_dataset(n_pairs=4, k=2, d_in=8, sigma=-0.5, seed=0)
        with pytest.raises(ConfigError):
            generate_dataset(n_pairs=5, k=2, d_in=8, sigma=0.1, seed=0, duplication=2)
        with pytest.raises(ConfigError):
            generate_dataset(n_pairs=4, k=2, d_in=8, sigma=0.1, seed=0, split="test")


class TestFileFormat:
    def test_round_trip_identity(self, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=20, k=3, d_in=10, sigma=0.2, seed=21, duplication=2, split="eval")
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        back_pairs, back_manifest = read_dataset(path)
        assert back_manifest == manifest
        assert len(back_pairs) == len(pairs)
        for a, b in zip(pairs, back_pairs):
            assert a.concept_id == b.concept_id
            assert np.array_equal(a.x_img, b.x_img)
            assert np.array_equal(a.x_txt, b.x_txt)

    def test_strided_records_write_the_same_bytes(self, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=10, k=2, d_in=6, sigma=0.1, seed=4)
        strided = np.repeat(pairs, 2)[::2]
        assert not strided.flags.c_contiguous
        write_dataset(pairs, manifest, tmp_path / "a.gcld")
        write_dataset(strided, manifest, tmp_path / "b.gcld")
        assert (tmp_path / "a.gcld").read_bytes() == (tmp_path / "b.gcld").read_bytes()

    def test_identical_args_give_byte_identical_files(self, tmp_path):
        for name in ("a.gcld", "b.gcld"):
            pairs, manifest = generate_dataset(n_pairs=10, k=2, d_in=6, sigma=0.1, seed=4)
            write_dataset(pairs, manifest, tmp_path / name)
        assert (tmp_path / "a.gcld").read_bytes() == (tmp_path / "b.gcld").read_bytes()

    def test_sidecar_written(self, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=4, k=2, d_in=6, sigma=0.1, seed=4)
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        sidecar = (tmp_path / "data.gcld.json").read_text()
        assert '"n_pairs": 4' in sidecar

    def test_read_without_sidecar_uses_defaults(self, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=4, k=2, d_in=6, sigma=0.1, seed=4, duplication=2)
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        (tmp_path / "data.gcld.json").unlink()
        _, back = read_dataset(path)
        assert back.split == "train"
        assert back.duplication == 1

    def test_corrupted_magic(self, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=4, k=2, d_in=6, sigma=0.1, seed=4)
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc_info:
            read_dataset(path)
        assert exc_info.value.offset == 0

    def test_missing_record_reports_offset(self, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=10, k=2, d_in=6, sigma=0.1, seed=4)
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        blob = path.read_bytes()
        record_size = 4 + 6 * 4 * 2
        truncated = blob[: len(blob) - record_size]
        path.write_bytes(truncated)
        (tmp_path / "data.gcld.json").unlink()
        with pytest.raises(FormatError) as exc_info:
            read_dataset(path)
        assert exc_info.value.offset == len(truncated)

    def test_trailing_garbage_rejected(self, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=4, k=2, d_in=6, sigma=0.1, seed=4)
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "data.gcld"
        path.write_bytes(b"GCLD\x01")
        with pytest.raises(FormatError) as exc_info:
            read_dataset(path)
        assert exc_info.value.offset == 5

    def test_sidecar_disagreement_rejected(self, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=4, k=2, d_in=6, sigma=0.1, seed=4)
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        sidecar_path = tmp_path / "data.gcld.json"
        text = sidecar_path.read_text().replace('"seed": 4', '"seed": 5')
        sidecar_path.write_text(text)
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_dataset(tmp_path / "absent.gcld")


class TestArrays:
    def test_dataset_to_arrays_shapes_and_dtype(self):
        pairs, _ = generate_dataset(n_pairs=6, k=2, d_in=5, sigma=0.1, seed=2)
        ids, x_img, x_txt = dataset_to_arrays(pairs)
        assert ids.shape == (6,)
        assert x_img.shape == (6, 5)
        assert x_txt.dtype == np.float64
        assert list(ids) == [0, 1, 2, 3, 4, 5]


class TestSharedWorld:
    def test_default_projection_seed_is_sample_seed(self):
        _, manifest = generate_dataset(n_pairs=4, k=2, d_in=6, sigma=0.1, seed=7)
        assert manifest.projection_seed == 7

    def test_explicit_same_seed_matches_default_exactly(self):
        pairs_a, _ = generate_dataset(n_pairs=8, k=3, d_in=10, sigma=0.2, seed=5)
        pairs_b, _ = generate_dataset(n_pairs=8, k=3, d_in=10, sigma=0.2, seed=5, projection_seed=5)
        for a, b in zip(pairs_a, pairs_b):
            assert np.array_equal(a.x_img, b.x_img)
            assert np.array_equal(a.x_txt, b.x_txt)

    def test_shared_world_uses_same_projections(self):
        # Two noiseless datasets with different sample seeds but one
        # projection seed must both be exact images under that world's
        # projections: A.T @ x recovers a unit latent.
        a_img, a_txt = modality_projections(k=3, d_in=9, seed=42)
        for sample_seed in (100, 200):
            pairs, manifest = generate_dataset(
                n_pairs=4, k=3, d_in=9, sigma=0.0, seed=sample_seed, projection_seed=42
            )
            assert manifest.projection_seed == 42
            for pair in pairs:
                z_img = a_img.T @ pair.x_img.astype(np.float64)
                z_txt = a_txt.T @ pair.x_txt.astype(np.float64)
                np.testing.assert_allclose(np.linalg.norm(z_img), 1.0, atol=1e-6)
                np.testing.assert_allclose(z_img, z_txt, atol=1e-6)
                np.testing.assert_allclose(a_img @ z_img, pair.x_img.astype(np.float64), atol=1e-6)

    def test_different_sample_seeds_give_different_concepts(self):
        pairs_a, _ = generate_dataset(n_pairs=4, k=3, d_in=9, sigma=0.0, seed=100, projection_seed=42)
        pairs_b, _ = generate_dataset(n_pairs=4, k=3, d_in=9, sigma=0.0, seed=200, projection_seed=42)
        assert not np.allclose(pairs_a[0].x_img, pairs_b[0].x_img)

    def test_projection_seed_round_trips_through_files(self, tmp_path):
        pairs, manifest = generate_dataset(
            n_pairs=4, k=2, d_in=6, sigma=0.1, seed=3, projection_seed=99
        )
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        _, loaded = read_dataset(path)
        assert loaded.projection_seed == 99
        assert loaded == manifest

    def test_missing_sidecar_defaults_projection_to_sample_seed(self, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=4, k=2, d_in=6, sigma=0.1, seed=3)
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        (tmp_path / "data.gcld.json").unlink()
        _, loaded = read_dataset(path)
        assert loaded.projection_seed == 3


ORACLE_CASES = {
    "dup1": dict(n_pairs=12, k=3, d_in=8, sigma=0.1, seed=4),
    "dup2": dict(n_pairs=12, k=3, d_in=8, sigma=0.1, seed=4, duplication=2),
    "dup3": dict(n_pairs=12, k=3, d_in=8, sigma=0.1, seed=4, duplication=3),
    "sigma0": dict(n_pairs=10, k=2, d_in=6, sigma=0.0, seed=5, duplication=2),
    "k1": dict(n_pairs=10, k=1, d_in=6, sigma=0.3, seed=6),
    "k_eq_d_in": dict(n_pairs=10, k=6, d_in=6, sigma=0.3, seed=7),
    "shared_world": dict(n_pairs=10, k=3, d_in=9, sigma=0.2, seed=100, projection_seed=42),
    "reference_scale": dict(n_pairs=5000, k=8, d_in=32, sigma=0.1, seed=0),
    "concept_blocks_dup2": dict(n_pairs=2 * 4099, k=3, d_in=8, sigma=0.1, seed=8, duplication=2),
}


class TestRecordByRecordOracle:
    """The record array must keep the bytes of the per-pair generator and writer."""

    @pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_files_match_the_oracle_writer(self, case, tmp_path):
        pairs, manifest = generate_dataset(**case)
        write_dataset(pairs, manifest, tmp_path / "array.gcld")
        records = oracle_gcld_records(**case)
        path = tmp_path / "oracle.gcld"
        oracle_write_gcld(records, case["d_in"], case["k"], case["sigma"], case["seed"], path)
        assert (tmp_path / "array.gcld").read_bytes() == path.read_bytes()

    def test_reads_a_file_of_the_oracle_writer(self, tmp_path):
        case = ORACLE_CASES["dup3"]
        records = oracle_gcld_records(**case)
        path = tmp_path / "oracle.gcld"
        oracle_write_gcld(records, case["d_in"], case["k"], case["sigma"], case["seed"], path)
        pairs, manifest = read_dataset(path)
        assert manifest == DatasetManifest(
            n_pairs=12, d_in=8, k=3, sigma=float(np.float32(0.1)), seed=4, projection_seed=4
        )
        assert pairs.dtype == record_dtype(8)
        assert [int(p.concept_id) for p in pairs] == [r[0] for r in records]
        assert np.array_equal(pairs.x_img, np.stack([r[1] for r in records]))
        assert np.array_equal(pairs.x_txt, np.stack([r[2] for r in records]))


class TestLoudFailures:
    @pytest.mark.parametrize(
        "sidecar",
        [b"{not json", b"\xff\xfe\x00garbage", b"[1, 2, 3]"],
        ids=["invalid_json", "invalid_utf8", "not_an_object"],
    )
    def test_bad_sidecar_is_a_format_error(self, sidecar, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=4, k=2, d_in=6, sigma=0.1, seed=4)
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        (tmp_path / "data.gcld.json").write_bytes(sidecar)
        with pytest.raises(FormatError, match="sidecar"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("split", "bogus", "split must be one of"),
            ("duplication", "many", "duplication must be an int"),
            ("projection_seed", [1], "projection_seed must be an int or null"),
            ("sigma", 9.0, "sigma=9.0 disagrees"),
        ],
        ids=["split", "duplication", "projection_seed", "sigma"],
    )
    def test_sidecar_field_out_of_contract(self, field, value, message, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=4, k=2, d_in=6, sigma=0.1, seed=4)
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        sidecar_path = tmp_path / "data.gcld.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar[field] = value
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(FormatError, match=message):
            read_dataset(path)

    def test_sidecar_sigma_may_be_the_unrounded_value(self, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=4, k=2, d_in=6, sigma=0.1, seed=4)
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        sidecar_path = tmp_path / "data.gcld.json"
        sidecar = json.loads(sidecar_path.read_text())
        assert sidecar["sigma"] != 0.1  # stored as the float32 value
        sidecar["sigma"] = 0.1
        sidecar_path.write_text(json.dumps(sidecar))
        assert read_dataset(path)[1] == manifest

    def test_huge_header_d_in_is_a_format_error(self, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=4, k=2, d_in=6, sigma=0.1, seed=4)
        path = tmp_path / "data.gcld"
        write_dataset(pairs, manifest, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 6, 0xFFFFFFF0)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="d_in=4294967280") as exc_info:
            read_dataset(path)
        assert exc_info.value.offset == 6

    def test_write_rejects_foreign_dtype(self, tmp_path):
        pairs, manifest = generate_dataset(n_pairs=4, k=2, d_in=6, sigma=0.1, seed=4)
        wrong_width, _ = generate_dataset(n_pairs=4, k=2, d_in=5, sigma=0.1, seed=4)
        float64_features = np.zeros(
            4, dtype=[("concept_id", "<u4"), ("x_img", "<f8", (6,)), ("x_txt", "<f8", (6,))]
        )
        for bad in (wrong_width, float64_features, pairs[:3], list(pairs)):
            with pytest.raises(ConfigError):
                write_dataset(bad, manifest, tmp_path / "data.gcld")
        assert not (tmp_path / "data.gcld").exists()
