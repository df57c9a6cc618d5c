"""Graph Laplacians and eigenvector positional features, a stack of graphs at a time.

Positional features for tokenization come from the symmetric normalized
Laplacian of the symmetrized graph: eigenvectors of the d_p smallest
nonzero eigenvalues, with a deterministic sign convention. Graphs of one size
share one (b, n, n) array and one eigensolver call; one graph or one matrix
gives its arrays without the batch axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import ComputationalGraph

TRIVIAL_EIGENVALUE_TOL = 1e-9
SIGN_PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class SpectralFeatures:
    """Per-node positional components, with the leading axes of the matrices they came from.

    P is (..., N, d_p); padded columns (when a graph has fewer informative
    eigenpairs than d_p) are exactly zero, with eigenvalue NaN.
    """
    P: np.ndarray
    eigenvalues: np.ndarray

    @property
    def is_padded(self) -> np.ndarray:
        # a chosen eigenvalue is finite, since lap_features rejects a non-finite matrix
        return np.isnan(self.eigenvalues)


def edge_keys(graphs, n: int) -> np.ndarray:
    """Flat index (i * n + u) * n + v of each edge (u, v) of the i-th of n-node graphs."""
    return np.fromiter(((i * n + u) * n + v for i, g in enumerate(graphs) for u, v in g.edges),
                       np.intp)


def build_normalized_laplacian(graphs, keys=None) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2} on the symmetrized adjacency: (n, n) for one
    graph, (b, n, n) for a sequence of b graphs of n nodes each.

    Rows and columns of isolated nodes are entirely zero (including the
    diagonal), so isolated nodes contribute a zero eigenvalue each. keys, in
    any order, are the graphs' edge_keys, from a caller that needs them too.
    """
    one = isinstance(graphs, ComputationalGraph)
    stack = [graphs] if one else list(graphs)
    sizes = {g.num_nodes for g in stack}
    if len(sizes) != 1:
        raise ValueError(f"a stack needs graphs of one node count, got {sorted(sizes)}")
    n = sizes.pop()
    a = np.zeros((len(stack), n, n))
    a.reshape(-1)[edge_keys(stack, n) if keys is None else keys] = 1.0
    a += a.swapaxes(1, 2)  # a DAG never holds both (u, v) and (v, u), so entries stay 0 or 1
    degree = np.add.reduce(a, axis=2)
    nonzero = degree > 0
    # an isolated node's row and column of a are zero, so its inv_sqrt of 1 never shows
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, 1.0))
    lap = -inv_sqrt[:, :, None] * a * inv_sqrt[:, None, :]
    diagonal = lap.reshape(len(stack), n * n)[:, ::n + 1]
    np.add(diagonal, 1.0, out=diagonal, where=nonzero)
    return lap[0] if one else lap


def lap_features(lap: np.ndarray, d_p: int) -> SpectralFeatures:
    """Eigenvectors of the d_p smallest non-trivial eigenvalues of each symmetric
    matrix in lap: one (n, n) matrix, or a stack of them along leading axes.

    Trivial eigenpairs (|lambda| < 1e-9, one per connected component of
    the Laplacian) are discarded. Each chosen column is flipped so that its
    first entry above SIGN_PIVOT_TOL, by node index, is positive. Missing
    columns are zero-padded and never flipped, so they hold +0.0 only.
    """
    lap = np.asarray(lap, dtype=np.float64)
    if lap.ndim < 2 or not 0 < lap.shape[-1] == lap.shape[-2]:
        raise ValueError(f"expected non-empty square matrices, got shape {lap.shape}")
    # NaN fails every comparison, so it would slip through the symmetry check
    if not np.logical_and.reduce(np.isfinite(lap), axis=None):
        raise ValueError("matrix has non-finite entries")
    if np.maximum.reduce(np.abs(lap - lap.swapaxes(-1, -2)), axis=None, initial=0.0) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    n = lap.shape[-1]
    eigenvalues, eigenvectors = np.linalg.eigh(lap.reshape(math.prod(lap.shape[:-2]), n, n))

    # a matrix's k-th non-trivial eigenpair goes to slot k - 1, if that is below d_p
    selectable = np.abs(eigenvalues) >= TRIVIAL_EIGENVALUE_TOL
    slot = np.add.accumulate(selectable, axis=1, dtype=np.intp) - 1
    take = selectable & (slot < d_p)
    matrix, column = take.nonzero()
    slot = slot[take]
    live = eigenvectors[matrix, :, column]  # one chosen eigenvector per row
    pivot = live[np.arange(len(live)), (np.abs(live) > SIGN_PIVOT_TOL).argmax(axis=1)]
    np.negative(live, out=live, where=(pivot < -SIGN_PIVOT_TOL)[:, None])

    p = np.zeros((len(eigenvalues), n, d_p))
    p[matrix, :, slot] = live
    values = np.empty((len(eigenvalues), d_p))
    values.fill(np.nan)
    values[matrix, slot] = eigenvalues[take]
    return SpectralFeatures(P=p.reshape(lap.shape[:-1] + (d_p,)),
                            eigenvalues=values.reshape(lap.shape[:-2] + (d_p,)))
