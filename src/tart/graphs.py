"""Computational-graph data model, JSONL serialization, splitting, and synthetic data.

A computational graph is a DAG whose nodes carry one of 15 operator
primitive codes and whose edges describe forward activation flow. A graph
is checked when it is built, `dataclasses.replace` copies included, so
every instance is valid and carries its own topological order.
Datasets are stored as JSONL, one labeled graph per line.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

NUM_PRIMITIVES = 15

TARGET_NAMES = ("clean_acc", "noisy_acc", "inference_speed", "convergence_speed")


class GraphError(ValueError):
    """Base class for graph-core failures."""


class ParseError(GraphError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class ValidationError(GraphError):
    def __init__(self, record_id: str, cause: GraphError):
        self.record_id = record_id
        self.cause = cause
        super().__init__(f"record {record_id!r}: {cause}")


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


@dataclass(frozen=True)
class ComputationalGraph:
    """A valid DAG: fields are converted to ints and checked on construction."""
    num_nodes: int
    node_ops: tuple
    edges: tuple
    topo_order: tuple = field(init=False)

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
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvalidSpec(f"edge ({u}, {v}): endpoint out of range or self-loop")
            if (u, v) in seen:
                raise InvalidSpec(f"edge ({u}, {v}) appears more than once")
            seen.add((u, v))
        object.__setattr__(self, "num_nodes", n)
        object.__setattr__(self, "node_ops", ops)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "topo_order", _topological_order(n, edges))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PerformanceRecord:
    clean_acc: float
    noisy_acc: float
    inference_speed: float
    convergence_speed: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in TARGET_NAMES], dtype=np.float64)


@dataclass(frozen=True)
class LabeledGraph:
    graph: ComputationalGraph
    targets: Optional[PerformanceRecord]
    id: str


@dataclass(frozen=True)
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
    dist = [0] * graph.num_nodes
    preds = [[] for _ in range(graph.num_nodes)]
    for u, v in graph.edges:
        preds[v].append(u)
    for node in graph.topo_order:
        if preds[node]:
            dist[node] = 1 + max(dist[p] for p in preds[node])
    return max(dist) if dist else 0


# -- JSONL serialization ------------------------------------------------------

def _record_to_dict(rec: LabeledGraph) -> dict:
    d = {
        "id": rec.id,
        "num_nodes": rec.graph.num_nodes,
        "node_ops": list(rec.graph.node_ops),
        "edges": [list(e) for e in rec.graph.edges],
    }
    if rec.targets is not None:
        d["targets"] = {name: getattr(rec.targets, name) for name in TARGET_NAMES}
    return d


def _json_number(value, what: str) -> float:
    """A JSON number as a float; a bool or string is an error, never coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def _record_from_dict(d: dict, line_no: int) -> LabeledGraph:
    try:
        rec_id = d["id"]
        if not isinstance(rec_id, str):
            raise TypeError(f"id must be a string, got {rec_id!r}")
        num_nodes = _as_int(d["num_nodes"], "num_nodes")
        node_ops = tuple(_as_int(c, "op code") for c in d["node_ops"])
        edges = tuple((_as_int(u, "edge endpoint"), _as_int(v, "edge endpoint"))
                      for u, v in d["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(line_no, f"malformed record: {exc}") from exc
    try:
        graph = ComputationalGraph(num_nodes, node_ops, edges)
    except GraphError as exc:
        raise ValidationError(rec_id, exc) from exc
    targets = None
    if "targets" in d:
        try:
            t = d["targets"]
            targets = PerformanceRecord(**{name: _json_number(t[name], name)
                                           for name in TARGET_NAMES})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(line_no, f"malformed targets: {exc}") from exc
        if not np.all(np.isfinite(targets.as_array())):
            raise ValidationError(rec_id, InvalidSpec("non-finite target value"))
    return LabeledGraph(graph=graph, targets=targets, id=rec_id)


def write_dataset(records: Sequence[LabeledGraph], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(_record_to_dict(rec)) + "\n")


def read_dataset(path) -> list:
    records = []
    ids = set()
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                d = json.loads(line)
            # json.loads raises RecursionError on too deeply nested arrays or objects
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise ParseError(line_no, str(exc)) from exc
            rec = _record_from_dict(d, line_no)
            if rec.id in ids:
                raise ValidationError(rec.id, InvalidSpec("duplicate id in dataset"))
            ids.add(rec.id)
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
    ops = np.asarray(graph.node_ops)
    lp = longest_path_length(graph)
    depth_term = lp / (n - 1) if n > 1 else 0.0
    cheap_frac = float(np.mean(ops <= 5))
    code1_frac = float(np.mean(ops == 1))
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


def generate_synthetic(count: int, max_nodes: int, edge_density: float,
                       noise_sigma: float, seed: int) -> list:
    """Generate `count` random labeled DAGs.

    Edges are drawn between positions of a random node permutation
    (lower to higher position, each pair kept with probability
    edge_density), which guarantees acyclicity after relabeling.
    """
    count = check_int(count, "count", 1)
    max_nodes = check_int(max_nodes, "max_nodes", 2)
    if not (0.0 < edge_density <= 1.0):
        raise InvalidSpec(f"edge_density must be in (0, 1], got {edge_density}")
    if not 0.0 <= noise_sigma < np.inf:
        raise InvalidSpec(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    seed = check_int(seed, "seed", 0)

    rng = np.random.default_rng(seed)
    width = len(str(count))
    records = []
    for k in range(count):
        n = int(rng.integers(2, max_nodes + 1))
        ops = rng.integers(1, NUM_PRIMITIVES + 1, size=n)
        perm = rng.permutation(n)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < edge_density:
                    edges.append((int(perm[i]), int(perm[j])))
        graph = make_graph(n, ops, edges)
        targets = synthetic_targets(graph, noise_sigma, rng)
        records.append(LabeledGraph(graph=graph, targets=targets, id=f"g{k:0{width}d}"))
    return records
