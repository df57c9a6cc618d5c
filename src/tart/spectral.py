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
    eigenpairs than d_p) are exactly zero, with eigenvalue NaN and
    is_padded True.
    """
    P: np.ndarray
    eigenvalues: np.ndarray
    is_padded: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.P.shape[0]


def symmetrized_adjacency(graph: ComputationalGraph) -> np.ndarray:
    n = graph.num_nodes
    a = np.zeros((n, n), dtype=np.float64)
    for u, v in graph.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def build_normalized_laplacian(graph: ComputationalGraph) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2} on the symmetrized adjacency.

    Rows and columns of isolated nodes are entirely zero (including the
    diagonal), so isolated nodes contribute a zero eigenvalue each.
    """
    a = symmetrized_adjacency(graph)
    degree = a.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    lap = -inv_sqrt[:, None] * a * inv_sqrt[None, :]
    lap[nonzero, nonzero] += 1.0
    return lap


def _apply_sign_convention(vectors: np.ndarray) -> np.ndarray:
    """Fix the arbitrary sign of each eigenvector column.

    Each column is flipped so that its first entry above SIGN_PIVOT_TOL
    (by node index) is positive.
    """
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > SIGN_PIVOT_TOL)
        if idx.size and col[idx[0]] < 0:
            out[:, j] = -col
    return out


def lap_features(lap: np.ndarray, d_p: int) -> SpectralFeatures:
    """Eigenvectors of the d_p smallest non-trivial eigenvalues of a symmetric matrix.

    Trivial eigenpairs (|lambda| < 1e-9, one per connected component of
    the Laplacian) are discarded. Missing columns are zero-padded.
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
    padded = np.ones(d_p, dtype=bool)
    if chosen.size:
        p[:, : chosen.size] = eigenvectors[:, chosen]
        values[: chosen.size] = eigenvalues[chosen]
        padded[: chosen.size] = False
    p = _apply_sign_convention(p)
    return SpectralFeatures(P=p, eigenvalues=values, is_padded=padded)

