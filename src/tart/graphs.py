"""Computational-graph data model, JSONL serialization, splitting, and synthetic data.

A computational graph is a DAG whose nodes carry one of 15 operator
primitive codes and whose edges describe forward activation flow. A graph
is checked when it is built, `dataclasses.replace` copies included, so
every instance is valid; a graph stores no topological order. Graphs share
one tuple per edge (u, v), so a parsed record holds no copy of its edges' pairs.
Datasets are stored as JSONL, one labeled graph per line; read_dataset raises
ParseError for any faulty line, naming the line and, once parsed, the record id.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

NUM_PRIMITIVES = 15

TARGET_NAMES = ("clean_acc", "noisy_acc", "inference_speed", "convergence_speed")


class GraphError(ValueError):
    """Base class for graph-core failures."""


class ParseError(GraphError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class InvalidSpec(GraphError):
    pass


def _as_int(value, what: str) -> int:
    """A Python or numpy integer as an int; a bool, float or string is an error."""
    if type(value) is int:  # fast path: the JSONL reader and most callers pass plain ints
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_int(value, what: str, minimum: int, error=InvalidSpec) -> int:
    """value as a Python int of at least minimum; anything else raises error."""
    try:
        value = _as_int(value, what)
    except TypeError as exc:
        raise error(str(exc)) from exc
    if value < minimum:
        raise error(f"{what} must be >= {minimum}, got {value}")
    return value


def check_float(value, what: str, interval: str, error=InvalidSpec) -> float:
    """value as a finite Python float inside interval, written like "[0, 1)" or
    "(0, inf)"; a bool, string or anything else that is not a real number raises error."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{what} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int past float's range; reported like an inf
        value = math.inf
    low, high, open_low, open_high = _interval(interval)
    above = value > low if open_low else value >= low
    below = value < high if open_high else value <= high
    if not (math.isfinite(value) and above and below):
        raise error(f"{what} must be a finite number in {interval}, got {value!r}")
    return value


@cache
def _interval(interval: str) -> tuple:
    """(low, high, low is open, high is open) of an interval written like "[0, 1)"."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    return low, high, interval[0] == "(", interval[-1] == ")"


# The one tuple every graph holds for an edge (u, v): at most 2**16 pairs, about 6.3 MB,
# so every pair of a graph of <= 256 nodes fits. A graph that could overfill it adds none.
EDGE_CACHE_SIZE = 2**16
_edge_cache = {}


@dataclass(frozen=True, slots=True)
class ComputationalGraph:
    """A valid DAG: fields are converted to ints and checked on construction."""
    num_nodes: int
    node_ops: tuple
    edges: tuple

    def __post_init__(self):
        try:
            n = _as_int(self.num_nodes, "num_nodes")
            ops = tuple(_as_int(c, "op code") for c in self.node_ops)
            edges = tuple((_as_int(u, "edge endpoint"), _as_int(v, "edge endpoint"))
                          for u, v in self.edges)
        except (TypeError, ValueError) as exc:
            raise InvalidSpec(f"graph fields must be integers and edges pairs: {exc}") from exc
        if n < 1:
            raise InvalidSpec(f"num_nodes must be >= 1, got {n}")
        if len(ops) != n:
            raise InvalidSpec(f"node_ops has length {len(ops)}, expected {n}")
        for i, code in enumerate(ops):
            if not 1 <= code <= NUM_PRIMITIVES:
                raise InvalidSpec(f"node {i}: op code {code!r} outside [1, {NUM_PRIMITIVES}]")
        seen = set()
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvalidSpec(f"edge ({u}, {v}): endpoint out of range or self-loop")
            if e in seen:
                raise InvalidSpec(f"edge ({u}, {v}) appears more than once")
            seen.add(e)
        object.__setattr__(self, "num_nodes", n)
        object.__setattr__(self, "node_ops", ops)
        _topological_order(n, edges)  # raises on a cycle
        grow = len(_edge_cache) + len(edges) <= EDGE_CACHE_SIZE
        edges = tuple(map(_edge_cache.setdefault if grow else _edge_cache.get, edges, edges))
        object.__setattr__(self, "edges", edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, slots=True)
class PerformanceRecord:
    clean_acc: float
    noisy_acc: float
    inference_speed: float
    convergence_speed: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in TARGET_NAMES], dtype=np.float64)


@dataclass(frozen=True, slots=True)
class LabeledGraph:
    graph: ComputationalGraph
    targets: Optional[PerformanceRecord]
    id: str


@dataclass(frozen=True, slots=True)
class DatasetSplit:
    train: tuple
    test: tuple


def _topological_order(num_nodes: int, edges) -> tuple:
    """Kahn's algorithm; raises InvalidSpec if no full order exists."""
    indegree = [0] * num_nodes
    adjacency = [[] for _ in range(num_nodes)]
    for u, v in edges:
        adjacency[u].append(v)
        indegree[v] += 1
    frontier = [i for i in range(num_nodes) if indegree[i] == 0]
    order = []
    while frontier:
        node = frontier.pop()
        order.append(node)
        for succ in adjacency[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                frontier.append(succ)
    if len(order) != num_nodes:
        raise InvalidSpec("graph contains a cycle; no topological order exists")
    return tuple(order)


def make_graph(num_nodes: int, node_ops, edges) -> ComputationalGraph:
    """A checked graph from plain sequences of integers (Python or numpy)."""
    return ComputationalGraph(num_nodes, node_ops, edges)


def longest_path_length(graph: ComputationalGraph) -> int:
    """Longest directed path, counted in edges (0 for an edgeless graph)."""
    depth = [0] * graph.num_nodes  # edges on the longest path ending at each node
    succs = [[] for _ in range(graph.num_nodes)]
    for u, v in graph.edges:
        succs[u].append(v)
    for node in _topological_order(graph.num_nodes, graph.edges):
        for succ in succs[node]:
            if depth[succ] <= depth[node]:
                depth[succ] = depth[node] + 1
    return max(depth)


# -- JSONL serialization ------------------------------------------------------

def _record_to_dict(rec: LabeledGraph) -> dict:
    d = {
        "id": rec.id,
        "num_nodes": rec.graph.num_nodes,
        "node_ops": rec.graph.node_ops,  # json writes a tuple as a list
        "edges": rec.graph.edges,
    }
    if rec.targets is not None:
        d["targets"] = {name: getattr(rec.targets, name) for name in TARGET_NAMES}
    return d


def _record_from_dict(d, line_no: int) -> LabeledGraph:
    where = "malformed record"
    try:
        if not isinstance(d, dict):
            raise TypeError(f"a record must be a JSON object, got {type(d).__name__}")
        rec_id = d["id"]
        if not isinstance(rec_id, str):
            raise TypeError(f"id must be a string, got {rec_id!r}")
        where = f"record {rec_id!r}"
        graph = ComputationalGraph(d["num_nodes"], d["node_ops"], d["edges"])
        targets = None
        if "targets" in d:
            where = f"record {rec_id!r}: malformed targets"
            fields = d["targets"]
            if not isinstance(fields, dict):
                raise TypeError(f"targets must be a JSON object, got {type(fields).__name__}")
            targets = PerformanceRecord(**{name: check_float(fields[name], name, "(-inf, inf)")
                                           for name in TARGET_NAMES})
    except (KeyError, TypeError, ValueError) as exc:
        fault = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ParseError(line_no, f"{where}: {fault}") from exc
    return LabeledGraph(graph=graph, targets=targets, id=rec_id)


def write_dataset(records: Iterable[LabeledGraph], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(_record_to_dict(rec)) + "\n")


def read_dataset(path) -> list:
    """The labeled graphs of a JSONL file; any faulty line raises ParseError(line_no)."""
    records = []
    first_line = {}
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                d = json.loads(line)
            # ValueError covers bad UTF-8, bad JSON and an integer past Python's digit limit;
            # json.loads raises RecursionError on too deeply nested arrays or objects
            except (ValueError, RecursionError) as exc:
                raise ParseError(line_no, str(exc)) from exc
            rec = _record_from_dict(d, line_no)
            first = first_line.setdefault(rec.id, line_no)
            if first != line_no:
                raise ParseError(line_no, f"record {rec.id!r}: duplicate id, first on line {first}")
            records.append(rec)
    return records


def split_dataset(records: Sequence[LabeledGraph], n_train: int, seed: int) -> DatasetSplit:
    """Deterministic shuffled split: first n_train shuffled records train, rest test."""
    n_train = check_int(n_train, "n_train", 0)
    seed = check_int(seed, "seed", 0)
    if n_train > len(records):
        raise InvalidSpec(f"requested {n_train} train records, only {len(records)} available")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(records))
    shuffled = [records[i] for i in perm]
    return DatasetSplit(train=tuple(shuffled[:n_train]), test=tuple(shuffled[n_train:]))


# -- Synthetic generation -----------------------------------------------------

def synthetic_targets(graph: ComputationalGraph, noise_sigma: float, rng) -> PerformanceRecord:
    """Closed-form labels used by the synthetic generator.

    clean_acc rewards long critical paths and cheap ops (codes <= 5);
    noisy_acc penalizes the fraction of code-1 nodes on top of clean_acc;
    inference_speed decreases with edge count; convergence_speed mirrors
    clean_acc exactly. Each of the first three gets independent
    Normal(0, noise_sigma) noise.
    """
    n = graph.num_nodes
    lp = longest_path_length(graph)
    depth_term = lp / (n - 1) if n > 1 else 0.0
    cheap_frac = sum(code <= 5 for code in graph.node_ops) / n
    code1_frac = graph.node_ops.count(1) / n
    m_max = n * (n - 1) / 2
    edge_frac = graph.num_edges / m_max if m_max > 0 else 0.0

    eps = rng.normal(0.0, noise_sigma, size=3) if noise_sigma > 0 else np.zeros(3)
    clean = 0.5 * depth_term + 0.5 * cheap_frac + eps[0]
    noisy = clean - 0.1 * code1_frac + eps[1]
    inference = 1.0 - edge_frac + eps[2]
    return PerformanceRecord(
        clean_acc=float(clean),
        noisy_acc=float(noisy),
        inference_speed=float(inference),
        convergence_speed=float(clean),
    )


def iter_synthetic(count: int, max_nodes: int, edge_density: float,
                   noise_sigma: float, seed: int) -> Iterator[LabeledGraph]:
    """Check the arguments, then return an iterator over `count` random labeled DAGs.

    Edges are drawn between positions of a random node permutation
    (lower to higher position, each pair kept with probability
    edge_density), which guarantees acyclicity after relabeling.
    """
    count = check_int(count, "count", 1)
    max_nodes = check_int(max_nodes, "max_nodes", 2)
    edge_density = check_float(edge_density, "edge_density", "(0, 1]")
    noise_sigma = check_float(noise_sigma, "noise_sigma", "[0, inf)")
    seed = check_int(seed, "seed", 0)

    def records():
        rng = np.random.default_rng(seed)
        width = len(str(count))
        upper = {}  # node count -> positions (i, j), i < j, in row-major order
        for k in range(count):
            n = int(rng.integers(2, max_nodes + 1))
            ops = rng.integers(1, NUM_PRIMITIVES + 1, size=(n,))  # an int size costs an np.prod
            perm = rng.permutation(n)
            if n not in upper:
                upper[n] = np.triu_indices(n, 1)
            i, j = upper[n]
            # one draw per pair, in the order of a loop over i, then j
            kept = rng.random(len(i)) < edge_density
            edges = list(zip(perm[i[kept]].tolist(), perm[j[kept]].tolist()))
            graph = make_graph(n, ops.tolist(), edges)
            targets = synthetic_targets(graph, noise_sigma, rng)
            yield LabeledGraph(graph=graph, targets=targets, id=f"g{k:0{width}d}")

    return records()


def generate_synthetic(count: int, max_nodes: int, edge_density: float,
                       noise_sigma: float, seed: int) -> list:
    """The records of iter_synthetic as a list."""
    return list(iter_synthetic(count, max_nodes, edge_density, noise_sigma, seed))
