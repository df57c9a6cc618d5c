import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tart import graphs as gc


def random_valid_graph(rng, max_nodes=12):
    n = int(rng.integers(1, max_nodes + 1))
    ops = rng.integers(1, 16, size=n)
    perm = rng.permutation(n)
    edges = [(int(perm[i]), int(perm[j]))
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    return gc.make_graph(n, ops, edges)


class TestValidateGraph:
    def test_linear_chain(self):
        g = gc.make_graph(3, [1, 2, 3], [(0, 1), (1, 2)])
        assert g.topo_order == (0, 1, 2)

    def test_two_cycle(self):
        with pytest.raises(gc.InvalidSpec, match="graph contains a cycle"):
            gc.make_graph(2, [1, 1], [(0, 1), (1, 0)])

    def test_op_code_out_of_range(self):
        with pytest.raises(gc.InvalidSpec, match="node 1: op code 16"):
            gc.make_graph(2, [1, 16], [(0, 1)])

    def test_self_loop(self):
        with pytest.raises(gc.InvalidSpec, match=r"edge \(0, 0\): endpoint out of range"):
            gc.make_graph(2, [1, 2], [(0, 0)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(gc.InvalidSpec, match=r"edge \(0, 5\): endpoint out of range"):
            gc.make_graph(2, [1, 2], [(0, 5)])

    def test_duplicate_edge(self):
        with pytest.raises(gc.InvalidSpec, match=r"edge \(0, 1\) appears more than once"):
            gc.make_graph(3, [1, 2, 3], [(0, 1), (0, 1)])

    # int() would truncate each float, so 2.9 nodes would quietly become 2
    @pytest.mark.parametrize("num_nodes,node_ops,edges",
                             [(2.9, [1, 2], [(0, 1)]), (2, [1.9, 2], [(0, 1)]),
                              (2, [1, 2], [(0, 1.7)])],
                             ids=["num_nodes", "node_ops", "edges"])
    def test_non_integer_field_rejected(self, num_nodes, node_ops, edges):
        with pytest.raises(gc.InvalidSpec):
            gc.make_graph(num_nodes, node_ops, edges)

    def test_topo_order_respects_edges(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_valid_graph(rng)
            position = {node: i for i, node in enumerate(g.topo_order)}
            for u, v in g.edges:
                assert position[u] < position[v]


CHAIN = gc.make_graph(3, [3, 3, 3], [(0, 1), (1, 2)])

# values no graph field may take: out of range, not an integer, or not a pair
BAD_VALUES = st.sampled_from([-1, True, np.bool_(False), 0.5, 2.0, float("nan"), None, [],
                              [0, 0.5], [0, 1, 2]])


def mostly(strategy):
    """strategy, but one draw in twenty a bad value instead."""
    return st.integers(0, 19).flatmap(lambda k: BAD_VALUES if k == 10 else strategy)


@st.composite
def graph_fields(draw):
    """make_graph arguments: small ints, with a bad value in any place now and then.

    Edges repeat, form cycles and leave the node range often enough that every
    graph fault and many valid graphs show up in a few hundred examples.
    """
    n = draw(st.integers(2, 6))
    edge = mostly(st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True))
    return (draw(mostly(st.just(n))),
            draw(mostly(st.lists(mostly(st.integers(1, 15)), min_size=n, max_size=n))),
            draw(mostly(st.lists(edge, min_size=n // 2, max_size=8))))


class TestCheckedOnConstruction:
    """Every graph is checked when built, `dataclasses.replace` copies included."""

    def test_replace_making_a_cycle(self):
        with pytest.raises(gc.InvalidSpec, match="graph contains a cycle"):
            replace(CHAIN, edges=((0, 1), (1, 2), (2, 0)))

    @pytest.mark.parametrize("edge", [(0, -1), (1, 1)])
    def test_replace_with_bad_edge(self, edge):
        with pytest.raises(gc.InvalidSpec, match="endpoint out of range or self-loop"):
            replace(CHAIN, edges=(edge,))

    def test_replace_with_bad_op_code(self):
        with pytest.raises(gc.InvalidSpec, match="node 1: op code 99"):
            replace(CHAIN, node_ops=(3, 99, 3))

    def test_topo_order_cannot_be_passed(self):
        with pytest.raises(ValueError):
            replace(CHAIN, topo_order=(2, 1, 0))
        with pytest.raises(TypeError):
            gc.ComputationalGraph(3, (3, 3, 3), (), topo_order=(2, 1, 0))

    def test_renumbered_chain_gets_its_own_order(self):
        # the chain 2 -> 1 -> 0: a topological order copied from 0 -> 1 -> 2 would give 1
        renumbered = replace(CHAIN, edges=((2, 1), (1, 0)))
        assert renumbered.topo_order == (2, 1, 0)
        assert gc.longest_path_length(renumbered) == 2
        targets = gc.synthetic_targets(renumbered, 0.0, np.random.default_rng(0))
        assert targets.clean_acc == 1.0

    @pytest.mark.parametrize("num_nodes,node_ops,edges", [
        (True, (3,), ()), (1, (True,), ()), (2, (3, 3), ((False, True),)),
        (np.bool_(True), (3,), ()), (1, (np.bool_(True),), ()),
        (2, (3, 3), ((np.bool_(False), np.bool_(True)),)),
        (2.0, (3, 3), ()), (2, (3, 3.0), ()), (2, (1, 2), ((0, 1.5),)),
        (2, (3, 3), ((0, 1, 1),)), (2, (3, 3), ((0,),)), (2, (3, 3), (0,)),
        (2, (3, 3), None), (2, None, ()),
    ], ids=["num_nodes=True", "op=True", "edge=bools", "num_nodes=np.bool_", "op=np.bool_",
            "edge=np.bool_", "num_nodes=2.0", "op=3.0", "edge=(0,1.5)", "edge=triple",
            "edge=single", "edge=int", "edges=None", "node_ops=None"])
    def test_wrong_field_type_is_invalid_spec(self, num_nodes, node_ops, edges):
        with pytest.raises(gc.InvalidSpec):
            gc.ComputationalGraph(num_nodes, node_ops, edges)

    @given(fields=graph_fields())
    @settings(max_examples=300, deadline=None)
    def test_any_fields_build_a_valid_graph_or_fail_as_graph_error(self, fields):
        try:
            g = gc.make_graph(*fields)
        except gc.GraphError:
            return
        assert sorted(g.topo_order) == list(range(g.num_nodes))
        position = {node: i for i, node in enumerate(g.topo_order)}
        for u, v in g.edges:
            assert position[u] < position[v]


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        records = []
        for k in range(10):
            g = random_valid_graph(rng)
            targets = gc.PerformanceRecord(0.1 * k, 0.2, 0.3, 0.1 * k)
            records.append(gc.LabeledGraph(graph=g, targets=targets, id=f"r{k}"))
        path = tmp_path / "d.jsonl"
        gc.write_dataset(records, path)
        loaded = gc.read_dataset(path)
        assert len(loaded) == 10
        for a, b in zip(records, loaded):
            assert a.id == b.id
            assert a.graph.node_ops == b.graph.node_ops
            assert a.graph.edges == b.graph.edges
            assert a.targets == b.targets

    def test_target_names_are_the_record_fields(self):
        # as_array, JSONL and the model head all read targets in TARGET_NAMES order
        assert gc.TARGET_NAMES == tuple(f.name for f in fields(gc.PerformanceRecord))

    def test_unlabeled_record(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "num_nodes": 1, "node_ops": [3], "edges": []}\n')
        (rec,) = gc.read_dataset(path)
        assert rec.targets is None

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        good = '{"id": "a", "num_nodes": 1, "node_ops": [3], "edges": []}'
        path.write_text(good.replace('"a"', '"x"') + "\n" + good.replace('"a"', '"y"')
                        + "\n{not json\n")
        with pytest.raises(gc.ParseError) as exc:
            gc.read_dataset(path)
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("bad_line", [b'{"id": "\xff"}', b"[" * 100_000],
                             ids=["invalid-utf8", "deep-nesting"])
    def test_undecodable_line_number(self, tmp_path, bad_line):
        # invalid UTF-8, and nesting too deep for the json module's recursion
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"id": "a", "num_nodes": 1, "node_ops": [3], "edges": []}\n'
                         + bad_line + b"\n")
        with pytest.raises(gc.ParseError) as exc:
            gc.read_dataset(path)
        assert exc.value.line_no == 2

    def test_cyclic_record_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "c", "num_nodes": 2, "node_ops": [1, 1], '
                        '"edges": [[0, 1], [1, 0]]}\n')
        with pytest.raises(gc.ValidationError) as exc:
            gc.read_dataset(path)
        assert isinstance(exc.value.cause, gc.InvalidSpec)
        assert "cycle" in str(exc.value.cause)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        line = '{"id": "a", "num_nodes": 1, "node_ops": [3], "edges": []}\n'
        path.write_text(line + line)
        with pytest.raises(gc.ValidationError):
            gc.read_dataset(path)


GOOD_RECORD = {"id": "a", "num_nodes": 3, "node_ops": [3, 4, 1], "edges": [[0, 1], [1, 2]],
               "targets": {"clean_acc": 0.5, "noisy_acc": 0.4, "inference_speed": 1,
                           "convergence_speed": 0.5}}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def with_field(path, value):
    """GOOD_RECORD with the field at path (a tuple of keys and indices) set to value."""
    record = json.loads(json.dumps(GOOD_RECORD))
    *parents, last = path
    target = record
    for key in parents:
        target = target[key]
    target[last] = value
    return record


def read_lines(tmp_path, lines):
    """read_dataset over a file of the given lines (str, or bytes written as they are)."""
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"".join((line if isinstance(line, bytes) else line.encode("utf-8"))
                              + b"\n" for line in lines))
    return gc.read_dataset(path)


# graph fields that must be JSON integers, and target fields that must be JSON numbers
INTEGER_FIELDS = [("num_nodes",), ("node_ops", 1), ("edges", 0, 1)]
NUMBER_FIELDS = [("targets", name) for name in gc.TARGET_NAMES]


class TestRecordTypes:
    def test_good_record_reads(self, tmp_path):
        (rec,) = read_lines(tmp_path, [json.dumps(GOOD_RECORD)])
        assert rec.graph.node_ops == (3, 4, 1) and rec.graph.edges == ((0, 1), (1, 2))
        assert rec.targets.inference_speed == 1.0

    @pytest.mark.parametrize("path,value", [
        (("num_nodes",), 2.7), (("num_nodes",), 3.0), (("num_nodes",), True),
        (("node_ops", 1), 4.9), (("node_ops", 0), "3"), (("edges", 1), [1, 2.5]),
        (("edges", 0), [0, 1.5]), (("edges", 0), [False, True]),
        (("targets", "clean_acc"), True), (("targets", "noisy_acc"), "0.4"),
        (("targets", "clean_acc"), None), (("targets", "clean_acc"), 10 ** 400),
        (("id",), 7), (("id",), ["a"]),
    ], ids=["num_nodes=2.7", "num_nodes=3.0", "num_nodes=true", "op=4.9", "op='3'",
            "edge=[1,2.5]", "edge=[0,1.5]", "edge=[false,true]", "clean_acc=true",
            "noisy_acc='0.4'", "clean_acc=null", "clean_acc=10**400", "id=7", "id=['a']"])
    def test_wrong_type_is_a_parse_error(self, tmp_path, path, value):
        with pytest.raises(gc.ParseError) as exc:
            read_lines(tmp_path, [json.dumps(with_field(path, value))])
        assert exc.value.line_no == 1

    @given(field=st.sampled_from(INTEGER_FIELDS),
           value=JSON_VALUES.filter(lambda v: type(v) is not int))
    @settings(max_examples=150, deadline=None)
    def test_non_integer_graph_field_is_a_parse_error(self, tmp_path_factory, field, value):
        with pytest.raises(gc.ParseError):
            read_lines(tmp_path_factory.mktemp("d"), [json.dumps(with_field(field, value))])

    @given(field=st.sampled_from(NUMBER_FIELDS),
           value=JSON_VALUES.filter(lambda v: type(v) not in (int, float)))
    @settings(max_examples=150, deadline=None)
    def test_non_numeric_target_is_a_parse_error(self, tmp_path_factory, field, value):
        with pytest.raises(gc.ParseError):
            read_lines(tmp_path_factory.mktemp("d"), [json.dumps(with_field(field, value))])

    @given(lines=st.lists(st.one_of(
        st.text(max_size=20),
        st.binary(max_size=20),
        JSON_VALUES.map(json.dumps),
        st.tuples(st.sampled_from(INTEGER_FIELDS + NUMBER_FIELDS + [("id",), ("edges",)]),
                  JSON_VALUES).map(lambda fv: json.dumps(with_field(*fv)))),
        min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_any_line_reads_or_fails_as_bad_input(self, tmp_path_factory, lines):
        # ParseError and ValidationError are the reader's two documented failures (CLI exit 2)
        try:
            read_lines(tmp_path_factory.mktemp("d"), lines)
        except (gc.ParseError, gc.ValidationError):
            pass


class TestSplit:
    def _records(self, n=1000):
        g = gc.make_graph(2, [1, 2], [(0, 1)])
        t = gc.PerformanceRecord(0.0, 0.0, 0.0, 0.0)
        return [gc.LabeledGraph(graph=g, targets=t, id=f"r{k}") for k in range(n)]

    def test_500_500(self):
        split = gc.split_dataset(self._records(1000), 500, seed=0)
        assert len(split.train) == 500
        assert len(split.test) == 500
        assert {r.id for r in split.train}.isdisjoint({r.id for r in split.test})

    def test_deterministic(self):
        records = self._records(100)
        a = gc.split_dataset(records, 60, seed=5)
        b = gc.split_dataset(records, 60, seed=5)
        assert [r.id for r in a.train] == [r.id for r in b.train]
        assert [r.id for r in a.test] == [r.id for r in b.test]

    def test_not_enough(self):
        with pytest.raises(gc.InvalidSpec,
                           match="requested 1001 train records, only 1000 available"):
            gc.split_dataset(self._records(1000), 1001, seed=0)

    @pytest.mark.parametrize("n_train,seed,named", [
        (-1, 0, "n_train"), (True, 0, "n_train"), (2.5, 0, "n_train"), ("3", 0, "n_train"),
        (3, -1, "seed"), (3, True, "seed"), (3, 1.5, "seed")])
    def test_invalid_size_or_seed(self, n_train, seed, named):
        with pytest.raises(gc.InvalidSpec, match=named):
            gc.split_dataset(self._records(10), n_train, seed)


class TestSynthetic:
    def test_chain_oracle_value(self):
        # 4-node chain, all ops = 3, no noise: depth term 1, cheap-op term 1
        g = gc.make_graph(4, [3, 3, 3, 3], [(0, 1), (1, 2), (2, 3)])
        t = gc.synthetic_targets(g, 0.0, np.random.default_rng(0))
        assert t.clean_acc == pytest.approx(1.0, abs=1e-12)
        assert t.convergence_speed == t.clean_acc

    def test_edgeless_graph(self):
        g = gc.make_graph(3, [7, 7, 7], [])
        t = gc.synthetic_targets(g, 0.0, np.random.default_rng(0))
        assert gc.longest_path_length(g) == 0
        assert t.inference_speed == pytest.approx(1.0, abs=1e-12)

    def test_noisy_penalty(self):
        # half the ops are code 1: noisy_acc = clean_acc - 0.1 * 0.5
        g = gc.make_graph(2, [1, 9], [(0, 1)])
        t = gc.synthetic_targets(g, 0.0, np.random.default_rng(0))
        assert t.noisy_acc == pytest.approx(t.clean_acc - 0.05, abs=1e-12)

    def test_deterministic_regeneration(self):
        a = gc.generate_synthetic(20, 10, 0.4, 0.05, seed=9)
        b = gc.generate_synthetic(20, 10, 0.4, 0.05, seed=9)
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_all_generated_graphs_valid(self):
        for rec in gc.generate_synthetic(50, 12, 0.5, 0.0, seed=1):
            assert np.all(np.isfinite(rec.targets.as_array()))

    @pytest.mark.parametrize("kwargs", [
        dict(count=0, max_nodes=8, edge_density=0.5, noise_sigma=0.0),
        dict(count=5, max_nodes=1, edge_density=0.5, noise_sigma=0.0),
        dict(count=5, max_nodes=8, edge_density=0.0, noise_sigma=0.0),
        dict(count=5, max_nodes=8, edge_density=1.5, noise_sigma=0.0),
        dict(count=5, max_nodes=8, edge_density=0.5, noise_sigma=-1.0),
        dict(count=5, max_nodes=8, edge_density=0.5, noise_sigma=float("nan")),
        dict(count=5, max_nodes=8, edge_density=0.5, noise_sigma=float("inf")),
        dict(count=True, max_nodes=8, edge_density=0.5, noise_sigma=0.0),
        dict(count=2.5, max_nodes=8, edge_density=0.5, noise_sigma=0.0),
        dict(count=5, max_nodes=8.0, edge_density=0.5, noise_sigma=0.0),
        dict(count=5, max_nodes=8, edge_density=0.5, noise_sigma=0.0, seed=-1),
        dict(count=5, max_nodes=8, edge_density=0.5, noise_sigma=0.0, seed=1.5),
    ])
    def test_invalid_spec(self, kwargs):
        with pytest.raises(gc.InvalidSpec):
            gc.generate_synthetic(**{"seed": 0, **kwargs})
