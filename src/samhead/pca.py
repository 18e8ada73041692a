"""PCA projectors used to unify per-cell feature dimension across scale bins.

A fit must reach the asked-for rank: samples whose rank is below the
requested component count, constant samples included, are a ``PcaError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


class PcaError(DataError):
    pass


@dataclass
class PcaProjector:
    """Mean-centering linear projector with an orthonormal basis.

    ``basis`` is (d, D): row k is the k-th principal direction.
    """

    mean: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.basis = np.asarray(self.basis, dtype=np.float64)
        if self.basis.ndim != 2 or self.mean.ndim != 1:
            raise PcaError("projector basis must be 2-D and mean 1-D")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.basis).all()):
            raise PcaError("projector mean and basis must be finite")
        d, dim = self.basis.shape
        if self.mean.shape[0] != dim:
            raise PcaError(
                f"projector shape mismatch: basis {self.basis.shape}, mean {self.mean.shape}"
            )
        gram = self.basis @ self.basis.T
        if not np.allclose(gram, np.eye(d), atol=1e-6):
            raise PcaError("projector basis rows are not orthonormal")

    @property
    def input_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def output_dim(self) -> int:
        return self.basis.shape[0]

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape[-1] != self.input_dim:
            raise PcaError(f"expected vectors of dim {self.input_dim}, got {v.shape[-1]}")
        return (v - self.mean) @ self.basis.T


def fit_pca(samples: np.ndarray, components: int) -> tuple[PcaProjector, float]:
    """Fit a ``components``-dim projector by eigendecomposition of the sample covariance.

    Returns the projector and its energy, the fraction of total variance the
    kept components capture.  Components are ordered by decreasing
    eigenvalue and signed so that each row's first nonzero entry is
    positive.  Samples of rank below ``components`` raise PcaError.
    """
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2:
        raise PcaError(f"samples must be 2-D, got shape {X.shape}")
    n, dim = X.shape
    if n < 2:
        raise PcaError(f"need at least 2 samples to fit, got {n}")
    if not (1 <= components <= dim):
        raise PcaError(f"components must be in [1, {dim}], got {components}")

    mean = X.mean(axis=0)
    Xc = X - mean
    cov = (Xc.T @ Xc) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]

    rank = int(np.sum(eigvals > eigvals[0] * 1e-12))  # 0 for constant samples
    if rank < components:
        raise PcaError(f"requested {components} components but the sample rank is {rank}")

    basis = eigvecs[:, :components].T.copy()
    for row in basis:
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    energy = float(eigvals[:components].sum() / eigvals.sum())
    return PcaProjector(mean=mean, basis=basis), energy
