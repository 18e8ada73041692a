"""PCA fitting against an independent eigendecomposition reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samhead.pca import PcaError, PcaProjector, fit_pca


def reference_pca(samples, d):
    """Straightforward covariance eigendecomposition, kept separate on purpose."""
    X = np.asarray(samples, dtype=np.float64)
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (X.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    idx = np.argsort(eigvals)[::-1][:d]
    basis = eigvecs[:, idx].T.copy()
    for row in basis:
        nonzero = np.flatnonzero(np.abs(row) > 1e-12)
        if nonzero.size and row[nonzero[0]] < 0:
            row *= -1.0
    return mean, basis, np.maximum(eigvals[idx], 0.0)


@pytest.fixture
def gaussian_samples():
    rng = np.random.default_rng(42)
    # Anisotropic cloud: distinct spectrum so ordering is unambiguous.
    scales = np.array([9.0, 4.0, 2.0, 0.7, 0.2, 0.05])
    return rng.normal(size=(400, 6)) * scales + rng.normal(size=6)


class TestFit:
    def test_matches_reference_decomposition(self, gaussian_samples):
        proj, energy = fit_pca(gaussian_samples, components=4)
        mean, basis, eigvals = reference_pca(gaussian_samples, 4)
        _, _, all_eigvals = reference_pca(gaussian_samples, 6)
        np.testing.assert_allclose(proj.mean, mean, atol=1e-12)
        np.testing.assert_allclose(proj.basis, basis, atol=1e-9)
        assert energy == pytest.approx(eigvals.sum() / all_eigvals.sum(), abs=1e-12)

    def test_basis_orthonormal(self, gaussian_samples):
        proj, _ = fit_pca(gaussian_samples, components=5)
        gram = proj.basis @ proj.basis.T
        assert np.abs(gram - np.eye(5)).max() < 1e-6

    def test_sign_convention(self, gaussian_samples):
        proj, _ = fit_pca(gaussian_samples, components=6)
        for row in proj.basis:
            nonzero = row[np.abs(row) > 1e-12]
            assert nonzero[0] > 0

    def test_energy_monotone_in_components(self, gaussian_samples):
        energies = [fit_pca(gaussian_samples, components=d)[1] for d in range(1, 7)]
        assert all(b >= a for a, b in zip(energies, energies[1:]))
        assert energies[-1] == pytest.approx(1.0)

    def test_rank_one_data_recovered_exactly(self):
        rng = np.random.default_rng(0)
        direction = rng.normal(size=8)
        direction /= np.linalg.norm(direction)
        coeffs = rng.normal(size=(100, 1)) * 5.0
        offset = rng.normal(size=8)
        X = offset + coeffs * direction
        proj, energy = fit_pca(X, components=1)
        reconstructed = proj.project(X) @ proj.basis + proj.mean
        np.testing.assert_allclose(reconstructed, X, atol=1e-9)
        assert energy == pytest.approx(1.0)

    def test_rank_shortfall_raises(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2)) @ rng.normal(size=(2, 7))
        with pytest.raises(PcaError, match="requested 5 components but the sample rank is 2"):
            fit_pca(X, components=5)
        proj, _ = fit_pca(X, components=2)
        assert proj.output_dim == 2

    def test_constant_data_raises(self):
        X = np.full((10, 4), 3.25)
        with pytest.raises(PcaError, match="requested 1 components but the sample rank is 0"):
            fit_pca(X, components=1)

    def test_argument_validation(self, gaussian_samples):
        with pytest.raises(PcaError):
            fit_pca(gaussian_samples, components=0)
        with pytest.raises(PcaError):
            fit_pca(gaussian_samples, components=7)
        with pytest.raises(PcaError):
            fit_pca(gaussian_samples[:1], components=1)
        with pytest.raises(PcaError):
            fit_pca(gaussian_samples.reshape(-1), components=1)


class TestProjector:
    def test_identity(self):
        proj = PcaProjector(mean=np.zeros(5), basis=np.eye(5))
        assert proj.input_dim == proj.output_dim == 5
        v = np.arange(5.0)
        np.testing.assert_array_equal(proj.project(v), v)

    def test_projection_centers_then_rotates(self):
        basis = np.array([[0.0, 1.0], [1.0, 0.0]])
        proj = PcaProjector(mean=np.array([1.0, 2.0]), basis=basis)
        np.testing.assert_allclose(proj.project(np.array([3.0, 5.0])), [3.0, 2.0])

    def test_dimension_mismatch_rejected(self):
        proj = PcaProjector(mean=np.zeros(4), basis=np.eye(4)[:2])
        with pytest.raises(PcaError):
            proj.project(np.zeros(5))

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(PcaError):
            PcaProjector(mean=np.zeros(2), basis=np.array([[1.0, 1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PcaError):
            PcaProjector(mean=np.zeros(3), basis=np.eye(2))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 5))
def test_projection_never_expands_distances(seed, d):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 5)) * rng.uniform(0.1, 4.0, size=5)
    proj, _ = fit_pca(X, components=d)
    a, b = X[:30], X[30:]
    original = np.linalg.norm(a - b, axis=1)
    projected = np.linalg.norm(proj.project(a) - proj.project(b), axis=1)
    assert np.all(projected <= original + 1e-9)
    if d == 5:
        np.testing.assert_allclose(projected, original, atol=1e-9)
