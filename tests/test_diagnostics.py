"""Gap-table and PCA tests against numpy's eigendecomposition as oracle."""

import numpy as np
import pytest

from gcl_lab.diagnostics import GapReport, PcaProjection, modality_gap_table, pca_2d
from gcl_lab.embeddings import MODALITIES, Modality
from gcl_lab.errors import (
    BatchTooSmallError,
    DegenerateDataError,
    InvalidDimsError,
    MissingModalityError,
    ShapeMismatchError,
)

from oracles import unit_rows


def three_modality_samples(rng, n=20, d=6, spread=0.2):
    """Samples clustered around three separated directions on the sphere."""
    centers = unit_rows(rng, 3, d)
    out = {}
    for modality, center in zip(MODALITIES, centers):
        rows = center + spread * rng.standard_normal((n, d))
        out[modality] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return out


def pca_oracle(matrix):
    """Top-2 eigenpairs of the covariance via numpy's dense solver."""
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / matrix.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return eigvals[order[:2]], eigvecs[:, order[:2]].T, float(np.trace(cov))


class TestGapTable:
    def test_mean_directions_are_unit(self):
        rng = np.random.default_rng(0)
        report = modality_gap_table(three_modality_samples(rng))
        for m in MODALITIES:
            assert np.linalg.norm(report.mean_directions[m]) == pytest.approx(1.0, abs=1e-12)
            assert report.sample_counts[m] == 20

    def test_cosine_matrix_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(1)
        report = modality_gap_table(three_modality_samples(rng))
        np.testing.assert_allclose(report.pairwise_cosine, report.pairwise_cosine.T, atol=1e-9)
        np.testing.assert_allclose(np.diag(report.pairwise_cosine), 1.0, atol=1e-9)
        assert np.all(report.pairwise_cosine >= -1.0) and np.all(report.pairwise_cosine <= 1.0)

    def test_hand_computed_two_cluster_cosine(self):
        # Image samples on +x, text samples on +y, fused on (1,1)/sqrt(2):
        # the mean directions are exactly those vectors.
        samples = {
            Modality.IMAGE: np.array([[1.0, 0.0], [1.0, 0.0]]),
            Modality.TEXT: np.array([[0.0, 1.0], [0.0, 1.0]]),
            Modality.FUSED: np.array([[np.sqrt(0.5), np.sqrt(0.5)]]),
        }
        report = modality_gap_table(samples)
        i, t, f = (MODALITIES.index(m) for m in MODALITIES)
        assert report.pairwise_cosine[i, t] == pytest.approx(0.0, abs=1e-12)
        assert report.pairwise_cosine[i, f] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert report.min_cross_modality_cosine() == pytest.approx(0.0, abs=1e-12)

    def test_raw_means_differ_from_directions(self):
        # Spread-out samples have a raw mean well inside the sphere; the
        # direction is that mean pushed back to unit norm.
        samples = {
            Modality.IMAGE: np.array([[1.0, 0.0], [0.0, 1.0]]),
            Modality.TEXT: np.array([[0.0, 1.0]]),
            Modality.FUSED: np.array([[1.0, 0.0]]),
        }
        report = modality_gap_table(samples)
        np.testing.assert_allclose(report.raw_means[Modality.IMAGE], [0.5, 0.5])
        np.testing.assert_allclose(
            report.mean_directions[Modality.IMAGE], [np.sqrt(0.5), np.sqrt(0.5)]
        )

    def test_missing_modality_raises(self):
        rng = np.random.default_rng(2)
        samples = three_modality_samples(rng)
        del samples[Modality.FUSED]
        with pytest.raises(MissingModalityError, match="fused"):
            modality_gap_table(samples)

    def test_mapping_order_and_row_lists(self):
        # Blocks are read in canonical modality order whatever the mapping's
        # order, and any 2-D array-like is accepted.
        rng = np.random.default_rng(3)
        samples = three_modality_samples(rng, n=4)
        reordered = {m: samples[m].tolist() for m in reversed(MODALITIES)}
        report_lists = modality_gap_table(reordered)
        report_arrays = modality_gap_table(samples)
        for m in MODALITIES:
            assert np.array_equal(report_lists.mean_directions[m], report_arrays.mean_directions[m])
        assert np.array_equal(report_lists.pairwise_cosine, report_arrays.pairwise_cosine)

    def test_mismatched_dims_rejected(self):
        samples = {
            Modality.IMAGE: np.array([[1.0, 0.0]]),
            Modality.TEXT: np.array([[1.0, 0.0, 0.0]]),
            Modality.FUSED: np.array([[1.0, 0.0]]),
        }
        with pytest.raises(ShapeMismatchError):
            modality_gap_table(samples)

    def test_json_contains_norms_and_min_cosine(self):
        rng = np.random.default_rng(4)
        report = modality_gap_table(three_modality_samples(rng))
        d = report.to_json_dict()
        assert set(d["raw_mean_norms"]) == {"image", "text", "fused"}
        assert 0.0 < d["raw_mean_norms"]["image"] <= 1.0 + 1e-12
        assert d["min_cross_modality_cosine"] == pytest.approx(report.min_cross_modality_cosine())


def tagged(matrix):
    """Wrap untagged rows for pca_2d by assigning all to one modality."""
    return {Modality.IMAGE: matrix}


class TestPca:
    def test_matches_eigendecomposition_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            matrix = rng.standard_normal((30, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
            proj = pca_2d(tagged(matrix))
            eigvals, eigvecs, trace = pca_oracle(matrix)
            for i in range(2):
                # Directions match up to sign; ratios match exactly.
                assert abs(float(proj.components[i] @ eigvecs[i])) == pytest.approx(1.0, abs=1e-6)
                assert proj.explained_variance_ratio[i] == pytest.approx(
                    eigvals[i] / trace, abs=1e-9
                )

    def test_components_orthonormal(self):
        rng = np.random.default_rng(5)
        proj = pca_2d(tagged(rng.standard_normal((25, 4))))
        gram = proj.components @ proj.components.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-8)

    def test_ratios_non_increasing_and_bounded(self):
        for seed in range(10):
            rng = np.random.default_rng(600 + seed)
            proj = pca_2d(tagged(rng.standard_normal((15, 6))))
            r = proj.explained_variance_ratio
            assert r[0] >= r[1] >= 0.0
            assert r.sum() <= 1.0 + 1e-12

    def test_projection_equals_centered_data_times_components(self):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((12, 5))
        proj = pca_2d(tagged(matrix))
        centered = matrix - matrix.mean(axis=0)
        np.testing.assert_allclose(proj.projected, centered @ proj.components.T, atol=1e-12)

    def test_rank_one_data(self):
        # All samples on one line: first ratio 1, second exactly 0, and the
        # second component completes an orthonormal basis.
        direction = np.array([0.6, 0.8, 0.0])
        matrix = np.outer(np.array([-2.0, -1.0, 1.0, 2.0]), direction)
        proj = pca_2d(tagged(matrix))
        assert proj.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)
        assert proj.explained_variance_ratio[1] == pytest.approx(0.0, abs=1e-12)
        assert abs(float(proj.components[0] @ direction)) == pytest.approx(1.0, abs=1e-9)
        assert float(proj.components[0] @ proj.components[1]) == pytest.approx(0.0, abs=1e-8)

    def test_isotropic_two_dimensional(self):
        # Four points on the axes: covariance is a multiple of the identity,
        # so each component explains exactly half the variance.
        matrix = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        proj = pca_2d(tagged(matrix))
        np.testing.assert_allclose(proj.explained_variance_ratio, [0.5, 0.5], atol=1e-9)
        gram = proj.components @ proj.components.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-8)

    def test_planted_two_cluster_direction(self):
        # Two clusters at +/-u: the first principal direction must span the
        # same line as the difference of cluster means, within 1e-3 radians.
        for seed in range(5):
            rng = np.random.default_rng(700 + seed)
            u = unit_rows(rng, 1, 8)[0]
            cluster_a = u + 1e-4 * rng.standard_normal((40, 8))
            cluster_b = -u + 1e-4 * rng.standard_normal((40, 8))
            matrix = np.vstack([cluster_a, cluster_b])
            proj = pca_2d(tagged(matrix))
            mean_diff = cluster_a.mean(axis=0) - cluster_b.mean(axis=0)
            mean_diff /= np.linalg.norm(mean_diff)
            angle = np.arccos(min(1.0, abs(float(proj.components[0] @ mean_diff))))
            assert angle < 1e-3

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        proj = pca_2d(tagged(rng.standard_normal((20, 4))))
        for component in proj.components:
            assert component[int(np.argmax(np.abs(component)))] > 0

    def test_order_invariance(self):
        # PCA of the same point set must not depend on sample order (up to
        # the per-row pairing of projections).
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((18, 5))
        perm = rng.permutation(18)
        proj_a = pca_2d(tagged(matrix))
        proj_b = pca_2d(tagged(matrix[perm]))
        np.testing.assert_allclose(proj_a.components, proj_b.components, atol=1e-8)
        np.testing.assert_allclose(proj_a.projected[perm], proj_b.projected, atol=1e-8)

    def test_too_few_samples(self):
        with pytest.raises(BatchTooSmallError):
            pca_2d(tagged(np.eye(2)))

    def test_dimension_too_small(self):
        with pytest.raises(InvalidDimsError):
            pca_2d(tagged(np.array([[1.0], [2.0], [3.0]])))

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            pca_2d(tagged(np.ones((5, 3))))

    def test_csv_one_row_per_sample(self):
        rng = np.random.default_rng(9)
        samples = three_modality_samples(rng, n=3, d=4)
        proj = pca_2d(samples)
        lines = proj.to_csv().strip().split("\n")
        assert lines[0] == "x,y,modality"
        assert len(lines) == 10
        assert lines[1].endswith(",image")
        assert lines[-1].endswith(",fused")

    def test_mapping_input_keeps_tags_and_shapes(self):
        rng = np.random.default_rng(10)
        proj = pca_2d(tagged(rng.standard_normal((10, 3))))
        assert proj.modalities == [Modality.IMAGE] * 10
        assert proj.components.shape == (2, 3) and proj.projected.shape == (10, 2)

    def test_gap_visible_in_projection(self):
        # Three well-separated modality clusters stay separated after the
        # 2-D projection: cluster centroids in the plane are distinct.
        rng = np.random.default_rng(11)
        samples = three_modality_samples(rng, n=30, d=6, spread=0.05)
        proj = pca_2d(samples)
        centroids = []
        for m in MODALITIES:
            mask = np.array([t is m for t in proj.modalities])
            centroids.append(proj.projected[mask].mean(axis=0))
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(centroids[i] - centroids[j]) > 0.1
