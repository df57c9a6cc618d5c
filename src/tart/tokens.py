"""Token-matrix assembly, batching with padding masks, and the binary dump format.

A tokenized graph is a plain (R, C) float64 array. In "tart" mode it is
(N+M) x (1 + 2*d_p + 4): node rows first (feature scalar, positional block
duplicated, identifier [0,1,-1,-1]), then edge rows in lexicographic (u,v)
order (constant feature 1.0, the two endpoint positional blocks, identifier
[1,0,u,v]). The node-only "pure" variant is N x 5: the node rows without
positional blocks, so it takes no d_p. "tart" tokens are made a stack at a
time: graphs of one node count share one Laplacian array, one eigensolver
call and one row assembly (tokenize_lap), at most STACK_CAP graphs per stack.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from . import spectral
from .graphs import NUM_PRIMITIVES, ComputationalGraph, check_int

DEFAULT_D_P = 3
STACK_CAP = 256  # graphs per tokenize_lap call in tokenize_many
MODES = ("tart", "pure")  # node+edge rows with positional features; node rows only
IDENTIFIER_WIDTH = 4
NODE_IDENTIFIER = np.array([0.0, 1.0, -1.0, -1.0])  # is_edge, is_node, u, v of every node row

TOKEN_MAGIC = b"TART"
TOKEN_FORMAT_VERSION = 1
TAG_NODE, TAG_EDGE = 0, 1


class TokenizerError(ValueError):
    pass


def token_width(d_p: int) -> int:
    return 1 + 2 * d_p + IDENTIFIER_WIDTH


@dataclass(frozen=True)
class PaddedBatch:
    tokens: np.ndarray  # B x R_max x C
    mask: np.ndarray    # B x R_max, True = real token


def _node_rows(ops: np.ndarray, P: np.ndarray) -> np.ndarray:
    """One row per node: op code / 15, the node's positional row twice, [0, 1, -1, -1]."""
    d_p = P.shape[1]
    rows = np.empty((len(ops), token_width(d_p)), dtype=np.float64)  # every column is set
    np.divide(ops, NUM_PRIMITIVES, out=rows[:, 0])
    rows[:, 1:1 + d_p] = P
    rows[:, 1 + d_p:1 + 2 * d_p] = P
    rows[:, -4:] = NODE_IDENTIFIER
    return rows


def tokenize_lap(graphs, d_p: int) -> list:
    """Node+edge token matrices with d_p Laplacian positional features, in input order, of
    a sequence of graphs of one node count: one Laplacian stack, one eigensolver call."""
    d_p = check_int(d_p, "d_p", 0, TokenizerError)
    stack = list(graphs)
    # looked up on the module, so wrappers installed there (such as a tracer) see the calls
    P = spectral.lap_features(spectral.build_normalized_laplacian(stack), d_p).P
    b, n = P.shape[:2]
    P = P.reshape(b * n, d_p)
    nodes = _node_rows(np.fromiter(chain.from_iterable(g.node_ops for g in stack), np.intp), P)
    # one sort over (graph, u, v): each graph's edges in lexicographic order, graph by graph
    keys = spectral.edge_keys(stack, n)
    keys.sort()
    tail, v = np.divmod(keys, n)
    u = tail % n  # tail = graph * n + u, the row of u in P and in nodes
    edges = nodes[tail]  # u's positional block is already in place
    edges[:, 0] = 1.0
    edges[:, 1 + d_p:1 + 2 * d_p] = P[tail - u + v]
    edges[:, -4] = 1.0
    edges[:, -3] = 0.0
    edges[:, -2] = u
    edges[:, -1] = v
    ends = accumulate(g.num_edges for g in stack)
    return [np.concatenate([nodes[i * n:(i + 1) * n], edges[end - g.num_edges:end]])
            for i, (g, end) in enumerate(zip(stack, ends))]


def decode_row_kinds(matrix: np.ndarray) -> tuple:
    """Recover row kinds from the trailing identifier columns alone."""
    kinds = []
    node_index = 0
    for row in matrix:
        is_edge, is_node, a, b = row[-4:]
        if is_node == 1.0 and is_edge == 0.0 and a == -1.0 and b == -1.0:
            kinds.append(("node", node_index))
            node_index += 1
        elif is_edge == 1.0 and is_node == 0.0:
            kinds.append(("edge", int(a), int(b)))
        else:
            raise TokenizerError(f"unrecognized identifier columns: {row[-4:]}")
    return tuple(kinds)


def tokenize_graph(graph: ComputationalGraph, mode: str, d_p: int | None = None) -> np.ndarray:
    """The token matrix of one graph: tokenize_many of a one-graph list."""
    return tokenize_many([graph], mode, d_p)[0]


def token_rows(graph: ComputationalGraph, mode: str) -> int:
    """Row count of tokenize_graph(graph, mode), read off the graph without tokenizing it."""
    if mode not in MODES:
        raise TokenizerError(f"unknown tokenization mode: {mode!r}")
    return graph.num_nodes + graph.num_edges if mode == "tart" else graph.num_nodes


def tokenize_many(graphs, mode: str, d_p: int | None = None) -> list:
    """Token matrices of a sequence of graphs, in input order: 'tart' (d_p positional
    features, DEFAULT_D_P if None) or 'pure' (node rows only, so a d_p other than None
    or 0 raises). 'tart' tokenizes the graphs of one node count together, in one
    tokenize_lap call per STACK_CAP of them, so a stack's arrays stay bounded."""
    graphs = list(graphs)
    if mode == "pure":
        if d_p is not None and check_int(d_p, "d_p", 0, TokenizerError) != 0:
            raise TokenizerError(f"pure tokens carry no positional features, got d_p={d_p}")
        return [_node_rows(np.asarray(g.node_ops), np.zeros((g.num_nodes, 0))) for g in graphs]
    if mode != "tart":
        raise TokenizerError(f"unknown tokenization mode: {mode!r}")
    d_p = DEFAULT_D_P if d_p is None else d_p  # tokenize_lap checks it
    by_size = {}
    for i, g in enumerate(graphs):
        by_size.setdefault(g.num_nodes, []).append(i)
    out = [None] * len(graphs)
    for idx in by_size.values():
        for part in (idx[start:start + STACK_CAP] for start in range(0, len(idx), STACK_CAP)):
            for i, matrix in zip(part, tokenize_lap([graphs[i] for i in part], d_p)):
                out[i] = matrix
    return out


def pad_batch(matrices, r_max: int) -> PaddedBatch:
    """Zero-pad token matrices to a common row count with a validity mask."""
    if not matrices:
        raise TokenizerError("empty batch")
    width = matrices[0].shape[1]
    for i, m in enumerate(matrices):
        if m.shape[1] != width:
            raise TokenizerError(f"matrix {i} has width {m.shape[1]}, expected {width}")
        if len(m) > r_max:
            raise TokenizerError(f"matrix {i}: {len(m)} rows exceed R_max={r_max}")
    batch = np.zeros((len(matrices), r_max, width), dtype=np.float64)
    mask = np.zeros((len(matrices), r_max), dtype=bool)
    for i, m in enumerate(matrices):
        batch[i, : len(m)] = m
        mask[i, : len(m)] = True
    return PaddedBatch(tokens=batch, mask=mask)


def one_hot_element_count(graph: ComputationalGraph) -> int:
    """Element count of the baseline one-hot encoding: N x 15 features plus N x N adjacency."""
    n = graph.num_nodes
    return n * NUM_PRIMITIVES + n * n


# -- Binary dump format -------------------------------------------------------

def _row_tags(matrix: np.ndarray) -> bytes:
    is_edge = matrix[:, -IDENTIFIER_WIDTH] == 1.0
    return np.where(is_edge, TAG_EDGE, TAG_NODE).astype(np.uint8).tobytes()


def write_token_file(path, entries) -> None:
    """Write (id, token matrix) pairs as the little-endian binary token dump."""
    entries = list(entries)
    with open(path, "wb") as fh:
        fh.write(TOKEN_MAGIC)
        fh.write(struct.pack("<II", TOKEN_FORMAT_VERSION, len(entries)))
        for rec_id, matrix in entries:
            id_bytes = rec_id.encode("utf-8")
            fh.write(struct.pack("<I", len(id_bytes)))
            fh.write(id_bytes)
            fh.write(struct.pack("<II", *matrix.shape))
            fh.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
            fh.write(_row_tags(matrix))


def read_token_file(path) -> list:
    """Read the binary token dump back as (id, data array, tag bytes) triples.

    A dump that is cut short, carries bytes past its last record, or whose
    row tags disagree with its identifier columns raises TokenizerError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != TOKEN_MAGIC:
        raise TokenizerError("bad magic in token file")
    offset = 4

    def take(size: int, what: str) -> bytes:
        nonlocal offset
        if size > len(blob) - offset:
            raise TokenizerError(f"token file truncated: {what} needs {size} bytes at "
                                 f"offset {offset}, {len(blob) - offset} left")
        offset += size
        return blob[offset - size:offset]

    version, count = struct.unpack("<II", take(8, "header"))
    if version != TOKEN_FORMAT_VERSION:
        raise TokenizerError(f"unsupported token file version {version}")
    out = []
    for k in range(count):
        (id_len,) = struct.unpack("<I", take(4, f"record {k} id length"))
        try:
            rec_id = take(id_len, f"record {k} id").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TokenizerError(f"record {k}: id is not UTF-8: {exc}") from exc
        rows, cols = struct.unpack("<II", take(8, f"record {k} shape"))
        if cols < token_width(0) or (cols - token_width(0)) % 2:
            raise TokenizerError(f"record {k}: {cols} columns is not a token width")
        data = np.frombuffer(take(rows * cols * 8, f"record {k} tokens"), dtype="<f8")
        data = data.reshape(rows, cols).astype(np.float64)
        tags = take(rows, f"record {k} row tags")
        if tags != _row_tags(data):
            raise TokenizerError(f"record {k}: row tags disagree with the identifier columns")
        out.append((rec_id, data, tags))
    if offset != len(blob):
        raise TokenizerError(f"{len(blob) - offset} trailing bytes after the {count} "
                             "records in token file")
    return out
