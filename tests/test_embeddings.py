"""Vector primitive contracts: normalization and fusion."""

from __future__ import annotations

import numpy as np
import pytest

from gcl_lab.embeddings import fuse_sum_rows, l2_normalize, normalize_rows
from gcl_lab.errors import ShapeMismatchError, ZeroVectorError

from oracles import unit_rows


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_already_unit(self):
        np.testing.assert_allclose(l2_normalize(np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 0.0])

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            l2_normalize(np.zeros(2))

    def test_direction_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.standard_normal(5) * 10.0
            u = l2_normalize(v)
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(u * np.linalg.norm(v), v, atol=1e-9)

    def test_rowwise_matches_per_row(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((6, 4))
        out = normalize_rows(rows)[0]
        for j in range(6):
            np.testing.assert_allclose(out[j], l2_normalize(rows[j]))


class TestFuseSum:
    def test_symmetric_sum_renormalized(self):
        fused = fuse_sum_rows(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(fused, [[0.70710678, 0.70710678]], atol=1e-8)

    def test_raw_sum(self):
        fused = fuse_sum_rows(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), renormalize=False)
        np.testing.assert_allclose(fused, [[2.0, 0.0]])

    def test_antipodal_raises(self):
        # One antipodal pair among ordinary rows: its zero-norm sum cannot be renormalized.
        image = np.array([[1.0, 0.0], [0.0, 1.0]])
        text = np.array([[0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(ZeroVectorError, match="row 1"):
            fuse_sum_rows(image, text)

    def test_renormalized_output_is_unit(self):
        rng = np.random.default_rng(21)
        fused = fuse_sum_rows(unit_rows(rng, 25, 6), unit_rows(rng, 25, 6))
        np.testing.assert_allclose(np.linalg.norm(fused, axis=1), 1.0, atol=1e-9)

    def test_rowwise_matches_scalar(self):
        rng = np.random.default_rng(2)
        imgs = unit_rows(rng, 5, 4)
        txts = unit_rows(rng, 5, 4)
        rows = fuse_sum_rows(imgs, txts)
        for j in range(5):
            np.testing.assert_allclose(rows[j], l2_normalize(imgs[j] + txts[j]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            fuse_sum_rows(np.eye(2), np.eye(3)[:, :2])
