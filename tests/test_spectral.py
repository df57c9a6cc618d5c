import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tart import graphs as gc
from tart import spectral as sp
from tests.test_graphs import random_valid_graph


def jacobi_eigh(a, sweeps=100):
    """Independent reference eigensolver: cyclic Jacobi rotations.

    Deliberately separate from the library path so the two can be
    compared; returns (eigenvalues ascending, eigenvectors as columns).
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < 1e-14:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-18:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))
    return np.diag(a)[order], v[:, order]


def reference_sign_convention(vectors):
    """Column-by-column form of lap_features' sign rule, kept as a bitwise reference."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > sp.SIGN_PIVOT_TOL)
        if idx.size and col[idx[0]] < 0:
            out[:, j] = -col
    return out


def reference_laplacian(graph):
    """Per-graph body of build_normalized_laplacian before it took stacks, kept as a
    bitwise reference."""
    pairs = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
    a = np.zeros((graph.num_nodes, graph.num_nodes))
    a[pairs.ravel(), pairs[:, ::-1].ravel()] = 1.0
    degree = a.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    lap = -inv_sqrt[:, None] * a * inv_sqrt[None, :]
    lap[nonzero, nonzero] += 1.0
    return lap


def reference_lap_features(lap, d_p):
    """Per-matrix body of lap_features before it took stacks, kept as a bitwise reference:
    (P, eigenvalues) of one matrix."""
    eigenvalues, eigenvectors = np.linalg.eigh(lap)
    chosen = np.flatnonzero(np.abs(eigenvalues) >= sp.TRIVIAL_EIGENVALUE_TOL)[:d_p]
    p = np.zeros((lap.shape[0], d_p))
    values = np.full(d_p, np.nan)
    p[:, :chosen.size] = reference_sign_convention(eigenvectors[:, chosen])
    values[:chosen.size] = eigenvalues[chosen]
    return p, values


@st.composite
def dags_with_isolated_nodes(draw):
    """DAGs on up to 12 nodes, where edges join only the first `linked` nodes before
    a relabeling, so the rest are isolated and may take any index, 0 included."""
    n = draw(st.integers(1, 12))
    linked = draw(st.integers(1, n))
    pairs = [(i, j) for i in range(linked) for j in range(i + 1, linked)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    label = draw(st.permutations(range(n)))
    return gc.make_graph(n, [1] * n, [(label[u], label[v]) for u, v in chosen])


@st.composite
def same_size_dags(draw, max_graphs=8):
    """One to max_graphs DAGs with one node count, as a stacked call takes them."""
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    graphs = []
    for _ in range(draw(st.integers(1, max_graphs))):
        order = draw(st.permutations(range(n)))
        rank = {node: k for k, node in enumerate(order)}
        # keep only pairs that go forward in a random order, so the graph is acyclic
        forward = [(u, v) for u, v in pairs if rank[u] < rank[v]]
        edges = draw(st.lists(st.sampled_from(forward), unique=True)) if forward else []
        graphs.append(gc.make_graph(n, [1] * n, edges))
    return graphs


def path_graph(n):
    return gc.make_graph(n, [1] * n, [(i, i + 1) for i in range(n - 1)])


class TestLaplacian:
    def test_path3_eigenvalues(self):
        lap = sp.build_normalized_laplacian(path_graph(3))
        values = np.sort(np.linalg.eigvalsh(lap))
        assert np.allclose(values, [0.0, 1.0, 2.0], atol=1e-8)

    def test_single_node(self):
        lap = sp.build_normalized_laplacian(path_graph(1))
        assert lap.shape == (1, 1)
        assert lap[0, 0] == 0.0

    def test_triangle_eigenvalues(self):
        g = gc.make_graph(3, [1, 1, 1], [(0, 1), (0, 2), (1, 2)])
        lap = sp.build_normalized_laplacian(g)
        values = np.sort(np.linalg.eigvalsh(lap))
        assert np.allclose(values, [0.0, 1.5, 1.5], atol=1e-8)

    def test_isolated_node_row_zero(self):
        g = gc.make_graph(3, [1, 1, 1], [(0, 1)])
        lap = sp.build_normalized_laplacian(g)
        assert np.all(lap[2] == 0.0)
        assert np.all(lap[:, 2] == 0.0)

    def test_matches_edge_loop_reference(self):
        # the adjacency once built one edge at a time; the Laplacian must keep its bits
        rng = np.random.default_rng(12)
        for _ in range(50):
            g = random_valid_graph(rng)
            a = np.zeros((g.num_nodes, g.num_nodes))
            for u, v in g.edges:
                a[u, v] = a[v, u] = 1.0
            degree = a.sum(axis=1)
            inv_sqrt = np.where(degree > 0, 1.0 / np.sqrt(np.maximum(degree, 1.0)), 0.0)
            ref = -inv_sqrt[:, None] * a * inv_sqrt[None, :]
            ref[degree > 0, degree > 0] += 1.0
            assert sp.build_normalized_laplacian(g).tobytes() == ref.tobytes()

    @given(graphs=same_size_dags())
    @settings(max_examples=100, deadline=None)
    def test_stack_matches_per_graph_reference(self, graphs):
        stack = sp.build_normalized_laplacian(graphs)
        assert stack.shape == (len(graphs),) + (graphs[0].num_nodes,) * 2
        assert stack.tobytes() == np.stack([reference_laplacian(g) for g in graphs]).tobytes()
        one = sp.build_normalized_laplacian(graphs[0])
        assert one.tobytes() == reference_laplacian(graphs[0]).tobytes()

    def test_mixed_node_counts_rejected(self):
        with pytest.raises(ValueError, match=r"one node count, got \[2, 3\]"):
            sp.build_normalized_laplacian([path_graph(2), path_graph(3), path_graph(2)])
        with pytest.raises(ValueError, match="one node count"):
            sp.build_normalized_laplacian([])

    def test_symmetric_spectrum_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_valid_graph(rng)
            lap = sp.build_normalized_laplacian(g)
            assert np.allclose(lap, lap.T)
            values = np.linalg.eigvalsh(lap)
            assert values.min() >= -1e-10
            assert values.max() <= 2.0 + 1e-10

    def test_eigenvalues_invariant_under_relabeling(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_valid_graph(rng, max_nodes=10)
            perm = rng.permutation(g.num_nodes)
            inv = np.argsort(perm)
            relabeled = gc.make_graph(
                g.num_nodes, [g.node_ops[inv[i]] for i in range(g.num_nodes)],
                [(int(perm[u]), int(perm[v])) for u, v in g.edges])
            a = np.sort(np.linalg.eigvalsh(sp.build_normalized_laplacian(g)))
            b = np.sort(np.linalg.eigvalsh(sp.build_normalized_laplacian(relabeled)))
            assert np.allclose(a, b, atol=1e-8)


class TestLapFeatures:
    def test_path3_columns(self):
        lap = sp.build_normalized_laplacian(path_graph(3))
        feats = sp.lap_features(lap, 3)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert np.allclose(feats.P[:, 0], [inv_sqrt2, 0.0, -inv_sqrt2], atol=1e-8)
        assert feats.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)
        assert feats.eigenvalues[1] == pytest.approx(2.0, abs=1e-8)
        assert feats.is_padded[2]
        assert np.all(feats.P[:, 2] == 0.0)

    def test_two_node_path(self):
        lap = sp.build_normalized_laplacian(path_graph(2))
        feats = sp.lap_features(lap, 3)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert np.allclose(feats.P[0], [inv_sqrt2, 0.0, 0.0], atol=1e-8)
        assert np.allclose(feats.P[1], [-inv_sqrt2, 0.0, 0.0], atol=1e-8)

    def test_triangle_degenerate_projector(self):
        g = gc.make_graph(3, [1, 1, 1], [(0, 1), (0, 2), (1, 2)])
        lap = sp.build_normalized_laplacian(g)
        feats = sp.lap_features(lap, 3)
        # the lambda=1.5 eigenspace is 2-dimensional; only the projector is unique
        basis = feats.P[:, :2]
        projector = basis @ basis.T
        _, vectors = jacobi_eigh(lap)
        ref = vectors[:, 1:] @ vectors[:, 1:].T
        assert np.allclose(projector, ref, atol=1e-8)

    def test_residual_and_orthonormality_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            g = random_valid_graph(rng)
            lap = sp.build_normalized_laplacian(g)
            feats = sp.lap_features(lap, 3)
            for j in range(3):
                if feats.is_padded[j]:
                    assert np.all(feats.P[:, j] == 0.0)
                    continue
                p = feats.P[:, j]
                lam = feats.eigenvalues[j]
                assert np.linalg.norm(lap @ p - lam * p) <= 1e-8
            live = feats.P[:, ~feats.is_padded]
            gram = live.T @ live
            assert np.max(np.abs(gram - np.eye(gram.shape[0])), initial=0.0) <= 1e-8

    def test_relabeling_row_permutation(self):
        # connected graphs with simple spectrum: rows permute with the nodes,
        # up to per-column sign when the convention pivot moves
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 10:
            g = random_valid_graph(rng, max_nodes=8)
            lap = sp.build_normalized_laplacian(g)
            values = np.linalg.eigvalsh(lap)
            if (len(values) < 2 or np.min(np.diff(values)) < 1e-6
                    or np.sum(np.abs(values) < 1e-9) != 1):
                continue
            perm = rng.permutation(g.num_nodes)
            inv = np.argsort(perm)
            relabeled = gc.make_graph(
                g.num_nodes,
                [g.node_ops[inv[i]] for i in range(g.num_nodes)],
                [(int(perm[u]), int(perm[v])) for u, v in g.edges])
            feats = sp.lap_features(lap, 3)
            feats2 = sp.lap_features(sp.build_normalized_laplacian(relabeled), 3)
            for j in range(3):
                if feats.is_padded[j]:
                    continue
                moved = np.empty_like(feats.P[:, j])
                moved[perm] = feats.P[:, j]
                same = np.allclose(moved, feats2.P[:, j], atol=1e-8)
                flipped = np.allclose(moved, -feats2.P[:, j], atol=1e-8)
                assert same or flipped
            checked += 1

    @given(g=dags_with_isolated_nodes(), d_p=st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_sign_convention_first_entry_positive(self, g, d_p):
        lap = sp.build_normalized_laplacian(g)
        feats = sp.lap_features(lap, d_p)
        values, vectors = np.linalg.eigh(lap)
        chosen = np.flatnonzero(np.abs(values) >= sp.TRIVIAL_EIGENVALUE_TOL)[:d_p]
        unsigned = np.zeros((g.num_nodes, d_p))
        unsigned[:, :chosen.size] = vectors[:, chosen]
        assert feats.P.tobytes() == reference_sign_convention(unsigned).tobytes()
        for j in range(d_p):
            col = feats.P[:, j]
            above = np.flatnonzero(np.abs(col) > sp.SIGN_PIVOT_TOL)
            if above.size:
                assert col[above[0]] > 0
            else:
                assert col.tobytes() == unsigned[:, j].tobytes()
        assert not np.signbit(feats.P[:, feats.is_padded]).any()

    @given(graphs=same_size_dags(), d_p=st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_stack_matches_per_matrix_calls(self, graphs, d_p):
        stack = sp.build_normalized_laplacian(graphs)
        feats = sp.lap_features(stack, d_p)
        assert feats.P.shape == stack.shape[:2] + (d_p,)
        assert feats.eigenvalues.shape == (len(graphs), d_p)
        for lap, p, values in zip(stack, feats.P, feats.eigenvalues, strict=True):
            one = sp.lap_features(lap, d_p)
            ref_p, ref_values = reference_lap_features(lap, d_p)
            assert p.tobytes() == one.P.tobytes() == ref_p.tobytes()
            assert values.tobytes() == one.eigenvalues.tobytes() == ref_values.tobytes()

    def test_general_symmetric_stack_matches_per_matrix_calls(self):
        # negative eigenvalues put the trivial ones mid-spectrum; leading axes may be several
        rng = np.random.default_rng(41)
        m = rng.normal(size=(2, 3, 5, 5))
        m = m + m.swapaxes(-1, -2)
        values, vectors = np.linalg.eigh(m)
        kept = np.where(np.abs(values) < 1.0, 0.0, values)
        m = (vectors * kept[..., None, :]) @ vectors.swapaxes(-1, -2)
        m = (m + m.swapaxes(-1, -2)) / 2
        feats = sp.lap_features(m, 4)
        assert feats.P.shape == (2, 3, 5, 4) and feats.eigenvalues.shape == (2, 3, 4)
        for index in np.ndindex(2, 3):
            ref_p, ref_values = reference_lap_features(m[index], 4)
            assert feats.P[index].tobytes() == ref_p.tobytes()
            assert feats.eigenvalues[index].tobytes() == ref_values.tobytes()

    @pytest.mark.parametrize("fault,message", [("asymmetric", "not symmetric"),
                                               ("nan", "non-finite"), ("inf", "non-finite")])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_bad_slice_anywhere_in_stack_rejected(self, fault, message, where):
        stack = sp.build_normalized_laplacian([path_graph(4)] * 5)
        stack[where, 1, 2] = {"asymmetric": 0.5, "nan": np.nan, "inf": np.inf}[fault]
        with pytest.raises(ValueError, match=message):
            sp.lap_features(stack, 2)
        with pytest.raises(ValueError, match=message):
            sp.lap_features(stack[where], 2)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 3, 2), (0, 0), (2, 0, 0)])
    def test_non_square_or_empty_rejected(self, shape):
        with pytest.raises(ValueError, match="non-empty square matrices"):
            sp.lap_features(np.zeros(shape), 2)

    @pytest.mark.parametrize("matrix", [np.array([[0.0, 1.0], [0.5, 0.0]]),
                                        np.full((3, 3), np.nan), np.full((3, 3), np.inf)],
                             ids=["asymmetric", "nan", "inf"])
    def test_asymmetric_matrix_rejected(self, matrix):
        with pytest.raises(ValueError, match="not symmetric|non-finite"):
            sp.lap_features(matrix, 2)


class TestJacobiOracle:
    def test_library_matches_jacobi_on_small_matrices(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4):
            for _ in range(25):
                m = rng.normal(size=(n, n))
                m = (m + m.T) / 2.0
                ref_values, _ = jacobi_eigh(m)
                lib_values = np.linalg.eigvalsh(m)
                assert np.allclose(np.sort(lib_values), ref_values, atol=1e-8)
                feats = sp.lap_features(m, n)
                live = ~feats.is_padded
                # no eigenvalue of these matrices is trivial, so every one is compared
                assert live.all()
                assert np.allclose(feats.eigenvalues[live],
                                   ref_values[:live.sum()], atol=1e-8)

