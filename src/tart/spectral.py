"""Graph Laplacians and eigenvector positional features.

Positional features for tokenization come from the symmetric normalized
Laplacian of the symmetrized graph: eigenvectors of the d_p smallest
nonzero eigenvalues, with a deterministic sign convention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ComputationalGraph

TRIVIAL_EIGENVALUE_TOL = 1e-9
SIGN_PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class SpectralFeatures:
    """Per-node positional components.

    P is N x d_p; padded columns (when the graph has fewer informative
    eigenpairs than d_p) are exactly zero, with eigenvalue NaN.
    """
    P: np.ndarray
    eigenvalues: np.ndarray

    @property
    def is_padded(self) -> np.ndarray:
        # a chosen eigenvalue is finite, since lap_features rejects a non-finite matrix
        return np.isnan(self.eigenvalues)


def build_normalized_laplacian(graph: ComputationalGraph) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2} on the symmetrized adjacency.

    Rows and columns of isolated nodes are entirely zero (including the
    diagonal), so isolated nodes contribute a zero eigenvalue each.
    """
    pairs = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
    a = np.zeros((graph.num_nodes, graph.num_nodes), dtype=np.float64)
    a[pairs.ravel(), pairs[:, ::-1].ravel()] = 1.0
    degree = a.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    lap = -inv_sqrt[:, None] * a * inv_sqrt[None, :]
    lap[nonzero, nonzero] += 1.0
    return lap


def lap_features(lap: np.ndarray, d_p: int) -> SpectralFeatures:
    """Eigenvectors of the d_p smallest non-trivial eigenvalues of a symmetric matrix.

    Trivial eigenpairs (|lambda| < 1e-9, one per connected component of
    the Laplacian) are discarded. Each chosen column is flipped so that its
    first entry above SIGN_PIVOT_TOL, by node index, is positive. Missing
    columns are zero-padded and never flipped, so they hold +0.0 only.
    """
    lap = np.asarray(lap, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {lap.shape}")
    # NaN fails every comparison, so it would slip through the symmetry check
    if not np.isfinite(lap).all():
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(lap - lap.T), initial=0.0) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    n = lap.shape[0]
    eigenvalues, eigenvectors = np.linalg.eigh(lap)

    selectable = np.flatnonzero(np.abs(eigenvalues) >= TRIVIAL_EIGENVALUE_TOL)
    chosen = selectable[:d_p]

    p = np.zeros((n, d_p), dtype=np.float64)
    values = np.full(d_p, np.nan)
    if chosen.size:
        live = eigenvectors[:, chosen]
        pivot = live[np.argmax(np.abs(live) > SIGN_PIVOT_TOL, axis=0), np.arange(chosen.size)]
        p[:, : chosen.size] = np.where(pivot < -SIGN_PIVOT_TOL, -live, live)
        values[: chosen.size] = eigenvalues[chosen]
    return SpectralFeatures(P=p, eigenvalues=values)
