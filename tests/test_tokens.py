import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tart import graphs as gc
from tart import spectral as sp
from tart import tokens as tk
from tests.test_graphs import random_valid_graph
from tests.test_spectral import (dags_with_isolated_nodes, reference_lap_features,
                                 reference_laplacian)


def reference_tokenize_lap(graph, d_p):
    """Per-graph body of tokenize_lap before it took stacks, on the per-graph spectral
    references, kept as a bitwise reference."""
    P, _ = reference_lap_features(reference_laplacian(graph), d_p)
    pairs = np.array(sorted(graph.edges), dtype=np.intp).reshape(-1, 2)
    edges = np.zeros((len(pairs), tk.token_width(d_p)), dtype=np.float64)
    edges[:, 0] = 1.0
    edges[:, 1:1 + d_p] = P[pairs[:, 0]]
    edges[:, 1 + d_p:1 + 2 * d_p] = P[pairs[:, 1]]
    edges[:, -4] = 1.0
    edges[:, -2:] = pairs
    nodes = np.zeros((graph.num_nodes, tk.token_width(d_p)), dtype=np.float64)
    nodes[:, 0] = np.asarray(graph.node_ops) / gc.NUM_PRIMITIVES
    nodes[:, 1:1 + d_p] = P
    nodes[:, 1 + d_p:1 + 2 * d_p] = P
    nodes[:, -4:] = (0.0, 1.0, -1.0, -1.0)
    return np.concatenate([nodes, edges])


def assert_same_bits(matrix, reference):
    assert matrix.dtype == reference.dtype and matrix.shape == reference.shape
    assert matrix.tobytes() == reference.tobytes()
    assert np.array_equal(np.signbit(matrix), np.signbit(reference))


@st.composite
def mixed_graphs(draw):
    """A graph with any ops: one node, no edges, isolated nodes, or up to 12 nodes."""
    g = draw(st.one_of(dags_with_isolated_nodes(),
                       st.integers(1, 12).map(lambda n: gc.make_graph(n, [1] * n, []))))
    ops = draw(st.lists(st.integers(1, gc.NUM_PRIMITIVES),
                        min_size=g.num_nodes, max_size=g.num_nodes))
    return gc.make_graph(g.num_nodes, ops, g.edges)


def lap_features(g, d_p=3):
    return sp.lap_features(sp.build_normalized_laplacian(g), d_p)


def lap_tokens(g, d_p=3):
    return tk.tokenize_graph(g, "tart", d_p)


def graph_row_kinds(g):
    """Row kinds read off the graph: node indices, then its sorted edges."""
    return tuple(("node", i) for i in range(g.num_nodes)) + tuple(
        ("edge", u, v) for u, v in sorted(g.edges))


class TestLapLayout:
    def test_shape_formula(self):
        g = gc.make_graph(5, [1, 4, 4, 7, 15],
                          [(0, 1), (1, 2), (1, 3), (2, 4)])
        tm = lap_tokens(g)
        assert tm.shape == (9, 11)  # (N+M) x (1 + 2*d_p + 4)

    def test_two_node_path_rows(self):
        g = gc.make_graph(2, [1, 2], [(0, 1)])
        tm = lap_tokens(g)
        s = 1.0 / np.sqrt(2.0)
        node0 = [1 / 15, s, 0, 0, s, 0, 0, 0, 1, -1, -1]
        edge = [1.0, s, 0, 0, -s, 0, 0, 1, 0, 0, 1]
        assert np.allclose(tm[0], node0, atol=1e-8)
        assert np.allclose(tm[2], edge, atol=1e-8)

    def test_single_node(self):
        g = gc.make_graph(1, [6], [])
        tm = lap_tokens(g)
        expected = [6 / 15, 0, 0, 0, 0, 0, 0, 0, 1, -1, -1]
        assert tm.shape == (1, 11)
        assert np.allclose(tm[0], expected)

    def test_node_rows_duplicate_positional_block(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_valid_graph(rng)
            tm = lap_tokens(g)
            n = g.num_nodes
            assert np.array_equal(tm[:n, 1:4], tm[:n, 4:7])

    def test_edge_rows_copy_endpoint_features(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_valid_graph(rng)
            feats = lap_features(g)
            tm = tk.tokenize_graph(g, "tart", 3)
            for row, (u, v) in zip(tm[g.num_nodes:], sorted(g.edges), strict=True):
                assert np.array_equal(row[1:4], feats.P[u])
                assert np.array_equal(row[4:7], feats.P[v])
                assert np.array_equal(row[-4:], [1, 0, u, v])

    def test_edge_rows_lexicographic(self):
        g = gc.make_graph(3, [1, 1, 1], [(1, 2), (0, 2), (0, 1)])
        tm = lap_tokens(g)
        assert tm[3:, -2:].tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_width_identity_random_d_p(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d_p = int(rng.integers(0, 9))
            g = random_valid_graph(rng)
            tm = lap_tokens(g, d_p=d_p)
            assert tm.shape[1] == 1 + 2 * d_p + 4
            assert len(tm) == g.num_nodes + g.num_edges


class TestStackedTokenizer:
    @given(graphs=st.lists(mixed_graphs(), min_size=1, max_size=30), d_p=st.integers(0, 14))
    @settings(max_examples=150, deadline=None)
    def test_mixed_batch_matches_per_graph_reference(self, graphs, d_p):
        # d_p up to 14 exceeds every graph's non-trivial eigenpairs (at most 11 here)
        mats = tk.tokenize_many(graphs, "tart", d_p=d_p)
        assert len(mats) == len(graphs)
        for g, m in zip(graphs, mats, strict=True):
            assert_same_bits(m, reference_tokenize_lap(g, d_p))
        assert_same_bits(tk.tokenize_lap([graphs[0]], d_p)[0],
                         reference_tokenize_lap(graphs[0], d_p))
        assert_same_bits(tk.tokenize_graph(graphs[-1], "tart", d_p=d_p),
                         reference_tokenize_lap(graphs[-1], d_p))

    def test_tokenize_lap_on_a_stack_keeps_input_order(self):
        graphs = [gc.make_graph(4, [1, 2, 3, 4], edges)
                  for edges in ([(0, 1), (2, 3)], [], [(3, 0), (0, 1), (1, 2)], [(2, 1)])]
        mats = tk.tokenize_lap(graphs, 2)
        assert isinstance(mats, list) and len(mats) == 4
        for g, m in zip(graphs, mats, strict=True):
            assert_same_bits(m, reference_tokenize_lap(g, 2))

    def test_tokenize_lap_rejects_mixed_node_counts(self):
        with pytest.raises(ValueError, match="one node count"):
            tk.tokenize_lap([gc.make_graph(2, [1, 2], [(0, 1)]), gc.make_graph(3, [1] * 3, [])], 3)

    def test_stacks_stay_within_the_cap(self, monkeypatch):
        # whole splits and files arrive in one call; no stack may outgrow STACK_CAP
        shapes = []
        original = sp.lap_features

        def recording(lap, d_p):
            shapes.append(lap.shape)
            return original(lap, d_p)

        monkeypatch.setattr(sp, "lap_features", recording)
        rng = np.random.default_rng(8)
        graphs = [random_valid_graph(rng, max_nodes=6) for _ in range(80)]
        graphs += [gc.make_graph(6, rng.integers(1, 16, size=6),
                                 [(i, j) for i in range(6) for j in range(i + 1, 6)
                                  if rng.random() < 0.4]) for _ in range(600)]
        order = rng.permutation(len(graphs))
        graphs = [graphs[i] for i in order]
        mats = tk.tokenize_many(graphs, "tart")
        # the 600-odd six-node graphs fill whole stacks; every graph is in exactly one
        assert max(shape[0] for shape in shapes) == tk.STACK_CAP
        assert sum(shape[0] for shape in shapes) == len(graphs)
        for g, m in zip(graphs, mats, strict=True):
            assert_same_bits(m, reference_tokenize_lap(g, tk.DEFAULT_D_P))


class TestNodeOnly:
    def test_row_count_is_n(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_valid_graph(rng)
            tm = tk.tokenize_graph(g, "pure")
            assert len(tm) == g.num_nodes

    def test_edge_blind(self):
        a = gc.make_graph(3, [1, 2, 3], [(0, 1), (1, 2)])
        b = gc.make_graph(3, [1, 2, 3], [(0, 2)])
        assert np.array_equal(tk.tokenize_graph(a, "pure"),
                              tk.tokenize_graph(b, "pure"))

    def test_feature_column(self):
        g = gc.make_graph(3, [1, 2, 3], [(0, 1), (1, 2)])
        tm = tk.tokenize_graph(g, "pure")
        assert np.allclose(tm[:, 0], [1 / 15, 2 / 15, 3 / 15])

    @pytest.mark.parametrize("d_p", range(9))
    def test_tart_node_rows_without_positional_columns(self, d_p):
        rng = np.random.default_rng(40 + d_p)
        for _ in range(10):
            g = random_valid_graph(rng)
            pure = tk.tokenize_graph(g, "pure")
            tart_nodes = lap_tokens(g, d_p=d_p)[:g.num_nodes]
            assert pure.shape == (g.num_nodes, tk.token_width(0))
            assert np.array_equal(pure, tart_nodes[:, [0, -4, -3, -2, -1]])


@pytest.mark.parametrize("mode,d_p", [
    ("pure", 7), ("pure", True), ("tart", True), ("tart", 2.5), ("tart", -1), ("tart", "3")])
def test_ignored_or_bad_d_p_rejected(mode, d_p):
    g = gc.make_graph(3, [1, 2, 3], [(0, 1)])
    with pytest.raises(tk.TokenizerError, match="d_p"):
        tk.tokenize_many([g], mode, d_p=d_p)
    if mode == "tart":
        with pytest.raises(tk.TokenizerError, match="d_p"):
            tk.tokenize_lap([g], d_p)


@pytest.mark.parametrize("tokenize", [tk.tokenize_graph])
def test_unknown_mode_rejected(tokenize):
    with pytest.raises(tk.TokenizerError, match="unknown tokenization mode: 'bogus'"):
        tokenize(gc.make_graph(3, [1, 2, 3], [(0, 1)]), "bogus")


class TestIdentifierRoundTrip:
    def test_decode_matches_row_kinds(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g = random_valid_graph(rng)
            assert tk.decode_row_kinds(lap_tokens(g)) == graph_row_kinds(g)
            assert (tk.decode_row_kinds(tk.tokenize_graph(g, "pure"))
                    == graph_row_kinds(g)[:g.num_nodes])


class TestPadBatch:
    def test_basic_padding(self):
        g1 = gc.make_graph(5, [1] * 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        g2 = gc.make_graph(5, [1] * 5, [])
        batch = tk.pad_batch([lap_tokens(g1), lap_tokens(g2)], 12)
        assert batch.tokens.shape == (2, 12, 11)
        assert batch.mask.sum(axis=1).tolist() == [9, 5]

    def test_padded_rows_exactly_zero(self):
        g = gc.make_graph(2, [1, 2], [(0, 1)])
        batch = tk.pad_batch([lap_tokens(g)], 10)
        assert np.all(batch.tokens[0, 3:] == 0.0)

    def test_row_overflow(self):
        g = gc.make_graph(5, [1] * 5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        with pytest.raises(tk.TokenizerError, match="matrix 0: 15 rows exceed R_max=12"):
            tk.pad_batch([lap_tokens(g)], 12)

    def test_width_mismatch(self):
        g = gc.make_graph(2, [1, 2], [(0, 1)])
        with pytest.raises(tk.TokenizerError, match="matrix 1 has width 9, expected 11"):
            tk.pad_batch([lap_tokens(g, d_p=3), lap_tokens(g, d_p=2)], 12)


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(33)
        graphs = [random_valid_graph(rng) for _ in range(5)]
        graphs.append(gc.make_graph(4, [1, 2, 3, 4], []))  # edgeless: node tags only
        entries = [(f"g{i}", lap_tokens(g)) for i, g in enumerate(graphs)]
        path = tmp_path / "tokens.bin"
        tk.write_token_file(path, entries)
        loaded = tk.read_token_file(path)
        assert len(loaded) == 6
        for g, (rec_id, tm), (lid, data, tags) in zip(graphs, entries, loaded):
            assert rec_id == lid
            assert np.array_equal(tm, data)
            assert tags == bytes([0] * g.num_nodes + [1] * g.num_edges)

    @pytest.mark.parametrize("mode", tk.MODES)
    def test_tokenize_many_round_trip(self, tmp_path, mode):
        rng = np.random.default_rng(34)
        graphs = [random_valid_graph(rng) for _ in range(8)]
        mats = tk.tokenize_many(graphs, mode)
        path = tmp_path / "tokens.bin"
        tk.write_token_file(path, [(f"g{i}", m) for i, m in enumerate(mats)])
        loaded = tk.read_token_file(path)
        assert [rec_id for rec_id, _, _ in loaded] == [f"g{i}" for i in range(8)]
        for m, (_, data, _) in zip(mats, loaded, strict=True):
            assert data.dtype == m.dtype and data.shape == m.shape
            assert data.tobytes() == m.tobytes()

    def test_header_layout(self, tmp_path):
        g = gc.make_graph(2, [1, 2], [(0, 1)])
        path = tmp_path / "tokens.bin"
        tk.write_token_file(path, [("a", lap_tokens(g))])
        blob = path.read_bytes()
        assert blob[:4] == b"TART"
        assert int.from_bytes(blob[4:8], "little") == 1  # version
        assert int.from_bytes(blob[8:12], "little") == 1  # count

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(tk.TokenizerError):
            tk.read_token_file(path)


@pytest.fixture(scope="module")
def small_dump(tmp_path_factory):
    rng = np.random.default_rng(5)
    graphs = [random_valid_graph(rng, max_nodes=5) for _ in range(3)]
    path = tmp_path_factory.mktemp("dump") / "tokens.bin"
    tk.write_token_file(path, [(f"g{i}", lap_tokens(g, d_p=1)) for i, g in enumerate(graphs)])
    return path


def read_bytes(path, blob):
    path.write_bytes(blob)
    return tk.read_token_file(path)


class TestMalformedDump:
    @pytest.mark.parametrize("cut", [14, 30])
    def test_cut_short_says_truncated(self, small_dump, cut):
        with pytest.raises(tk.TokenizerError, match="truncated"):
            read_bytes(small_dump.with_name("cut.bin"), small_dump.read_bytes()[:cut])

    def test_last_bytes_missing_says_truncated(self, small_dump):
        with pytest.raises(tk.TokenizerError, match="truncated"):
            read_bytes(small_dump.with_name("cut.bin"), small_dump.read_bytes()[:-3])

    @given(cut=st.integers(min_value=0))
    @settings(max_examples=100, deadline=None)
    def test_truncated_dump(self, small_dump, cut):
        blob = small_dump.read_bytes()
        with pytest.raises(tk.TokenizerError):
            read_bytes(small_dump.with_name("cut.bin"), blob[:cut % len(blob)])

    @given(extra=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_appended_bytes(self, small_dump, extra):
        with pytest.raises(tk.TokenizerError, match="trailing"):
            read_bytes(small_dump.with_name("long.bin"), small_dump.read_bytes() + extra)

    @given(position=st.integers(min_value=0), value=st.integers(min_value=1, max_value=255))
    @settings(max_examples=200, deadline=None)
    def test_single_byte_corruption(self, small_dump, position, value):
        blob = bytearray(small_dump.read_bytes())
        blob[position % len(blob)] ^= value
        try:
            loaded = read_bytes(small_dump.with_name("flip.bin"), bytes(blob))
        except tk.TokenizerError:
            return
        assert len(loaded) == 3
        for _, data, tags in loaded:
            assert data.shape[0] == len(tags)


class TestSizeReduction:
    def test_sparsity_condition_implies_reduction(self):
        # (N+M)*11 < N*15 + N*N exactly when M < N*(15+N)/11 - N
        records = gc.generate_synthetic(100, 16, 0.3, 0.0, seed=4)
        for rec in records:
            tm = lap_tokens(rec.graph)
            n, m = rec.graph.num_nodes, rec.graph.num_edges
            if m < n * (15 + n) / 11 - n:
                assert tm.size < tk.one_hot_element_count(rec.graph)
            else:
                assert tm.size >= tk.one_hot_element_count(rec.graph)

    def test_corpus_reduction_on_sparse_graphs(self):
        records = gc.generate_synthetic(100, 16, 0.1, 0.0, seed=4)
        token_total = sum(lap_tokens(r.graph).size for r in records)
        onehot_total = sum(tk.one_hot_element_count(r.graph) for r in records)
        assert token_total < onehot_total
