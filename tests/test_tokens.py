import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tart import graphs as gc
from tart import spectral as sp
from tart import tokens as tk
from tests.test_graphs import random_valid_graph


def lap_features(g, d_p=3):
    return sp.lap_features(sp.build_normalized_laplacian(g), d_p)


def lap_tokens(g, d_p=3):
    return tk.tokenize_lap(g, lap_features(g, d_p))


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
            tm = tk.tokenize_lap(g, feats)
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

    def test_feature_graph_mismatch(self):
        g = gc.make_graph(3, [1, 1, 1], [(0, 1)])
        other = lap_features(gc.make_graph(2, [1, 1], [(0, 1)]))
        with pytest.raises(tk.TokenizerError, match="spectral features cover 2 nodes, graph has 3"):
            tk.tokenize_lap(g, other)


class TestNodeOnly:
    def test_row_count_is_n(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_valid_graph(rng)
            tm = tk.tokenize_node_only(g)
            assert len(tm) == g.num_nodes

    def test_edge_blind(self):
        a = gc.make_graph(3, [1, 2, 3], [(0, 1), (1, 2)])
        b = gc.make_graph(3, [1, 2, 3], [(0, 2)])
        assert np.array_equal(tk.tokenize_node_only(a),
                              tk.tokenize_node_only(b))

    def test_feature_column(self):
        g = gc.make_graph(3, [1, 2, 3], [(0, 1), (1, 2)])
        tm = tk.tokenize_node_only(g)
        assert np.allclose(tm[:, 0], [1 / 15, 2 / 15, 3 / 15])

    @pytest.mark.parametrize("d_p", range(9))
    def test_tart_node_rows_without_positional_columns(self, d_p):
        rng = np.random.default_rng(40 + d_p)
        for _ in range(10):
            g = random_valid_graph(rng)
            pure = tk.tokenize_graph(g, "pure", d_p=d_p)
            tart_nodes = lap_tokens(g, d_p=d_p)[:g.num_nodes]
            assert pure.shape == (g.num_nodes, tk.token_width(0))
            assert np.array_equal(pure, tart_nodes[:, [0, -4, -3, -2, -1]])


@pytest.mark.parametrize("mode", tk.MODES)
def test_token_rows_is_the_tokenized_row_count(mode):
    rng = np.random.default_rng(21)
    graphs = [random_valid_graph(rng) for _ in range(30)] + [gc.make_graph(3, [1, 2, 3], [])]
    for g in graphs:
        assert tk.token_rows(g, mode) == len(tk.tokenize_graph(g, mode, d_p=2))


@pytest.mark.parametrize("count_rows", [tk.token_rows, tk.tokenize_graph])
def test_unknown_mode_rejected(count_rows):
    with pytest.raises(tk.TokenizerError, match="unknown tokenization mode: 'bogus'"):
        count_rows(gc.make_graph(3, [1, 2, 3], [(0, 1)]), "bogus")


class TestIdentifierRoundTrip:
    def test_decode_matches_row_kinds(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g = random_valid_graph(rng)
            assert tk.decode_row_kinds(lap_tokens(g)) == graph_row_kinds(g)
            assert (tk.decode_row_kinds(tk.tokenize_node_only(g))
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
        mats = tk.tokenize_many(graphs, mode, d_p=2)
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
