"""Walk through tokenizing one small architecture graph, step by step.

Run: python3 demos/tokenization_walkthrough.py
"""
import numpy as np

import tart

np.set_printoptions(precision=4, suppress=True, linewidth=120)

# A 5-node graph: ops are primitive codes in 1..15, edges are forward flow.
g = tart.make_graph(5, [1, 4, 4, 7, 15], [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
print("graph: 5 nodes, 5 edges, longest path", tart.graphs.longest_path_length(g), "edges")

# Step 1: the symmetric normalized Laplacian of the symmetrized graph.
lap = tart.build_normalized_laplacian(g)
print("\nnormalized Laplacian:\n", lap)
print("eigenvalues (all in [0, 2]):", np.linalg.eigvalsh(lap).round(4))

# Step 2: positional features. The constant (eigenvalue ~0) eigenvector is
# dropped; the next 3 eigenvectors become per-node positional components.
feats = tart.lap_features(lap, 3)
print("\npositional features P (one row per node):\n", feats.P)
print("their eigenvalues:", feats.eigenvalues.round(4))

# Step 3: the token matrix, a plain array. One row per node, then one per edge:
#   [feature | P-block | P-block | is_edge, is_node, u, v]
# Node rows carry op_code/15 and duplicate their P row; edge rows carry a
# constant 1.0 feature and the two endpoint P rows.
tm = tart.tokenize_graph(g, "tart")
rows, width = tm.shape
print(f"\ntoken matrix: {rows} x {width}  (rows = N+M, width = 1 + 2*3 + 4)")
print(tm)
# The identifier columns alone say what each row is.
print("row kinds:", tart.tokens.decode_row_kinds(tm))

# The node-only baseline ("pure" mode) keeps just the node rows, without P blocks:
#   [op_code/15 | 0, 1, -1, -1]
# so two graphs with the same ops but different edges tokenize identically.
nm = tart.tokenize_graph(g, "pure")
print(f"\nnode-only baseline: {nm.shape[0]} x {nm.shape[1]}")
print(nm)

# Step 4: batching. Matrices of different sizes are zero-padded to a shared
# row count with a mask marking real tokens; the encoder attends and pools
# only over masked-true rows.
other = tart.make_graph(2, [3, 9], [(0, 1)])
batch = tart.pad_batch([tm, tart.tokenize_graph(other, "tart")], r_max=12)
print("\nbatch tensor:", batch.tokens.shape, " real tokens per graph:", batch.mask.sum(axis=1))
