"""Acceptance suite: one test per release criterion, each printing PASS on success.

Run with `pytest tests/test_acceptance.py -v -s`. A5 trains 10 small models
(2 modes x 5 seeds) and takes a few minutes; everything else is fast.
"""
import time

import numpy as np
import pytest

import tart
from tart import cli
from tart import graphs as gc
from tart import model as md
from tart import spectral as sp
from tart import tokens as tk
from tart.harness import TrainConfig, compare_modes, kendall_tau_b
from tart.model import EncoderConfig

from tests.test_harness import brute_force_tau_b
from tests.test_model import (UNIT_STATS, finite_difference_check, random_batch,
                              tiny_config)
from tests.test_spectral import jacobi_eigh, path_graph
from tests.test_tokens import graph_row_kinds


def random_graph(rng, max_nodes, density=0.3):
    n = int(rng.integers(1, max_nodes + 1))
    ops = rng.integers(1, 16, size=n)
    perm = rng.permutation(n)
    edges = [(int(perm[i]), int(perm[j]))
             for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return gc.make_graph(n, ops, edges)


def test_a1_token_layout_1000_graphs():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(1000):
        g = random_graph(rng, 64, density=0.1)
        tm = tk.tokenize_graph(g, "tart", d_p=3)
        assert tm.shape[0] == g.num_nodes + g.num_edges
        assert tm.shape[1] == 1 + 2 * 3 + 4
        assert tk.decode_row_kinds(tm) == graph_row_kinds(g)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"A1 runtime {elapsed:.1f}s exceeds 10s"
    print(f"\nA1 token layout: PASS ({elapsed:.1f}s)")


def test_a2_spectral_correctness():
    # hand case first, against the independent Jacobi eigensolver
    lap3 = sp.build_normalized_laplacian(path_graph(3))
    ref_values, _ = jacobi_eigh(lap3)
    assert np.allclose(ref_values, [0.0, 1.0, 2.0], atol=1e-8)
    assert np.allclose(np.sort(np.linalg.eigvalsh(lap3)), [0.0, 1.0, 2.0], atol=1e-8)

    rng = np.random.default_rng(102)
    for _ in range(200):
        g = random_graph(rng, 24)
        lap = sp.build_normalized_laplacian(g)
        feats = sp.lap_features(lap, 3)
        for j in range(3):
            if feats.is_padded[j]:
                continue
            p = feats.P[:, j]
            assert np.linalg.norm(lap @ p - feats.eigenvalues[j] * p) <= 1e-8
        live = feats.P[:, ~feats.is_padded]
        gram = live.T @ live
        if gram.size:
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-8
    print("\nA2 spectral correctness: PASS")


def test_a3_kendall_tau_oracle():
    assert kendall_tau_b([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6, abs=1e-12)
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 201))
        x = np.round(rng.normal(size=n) * 3) / 3  # quantized: ties occur
        y = np.round(rng.normal(size=n) * 3) / 3
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert kendall_tau_b(x, y) == brute_force_tau_b(list(x), list(y))
        checked += 1
    print("\nA3 Kendall-Tau oracle: PASS")


def test_a4_gradient_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(104)
    worst = 0.0
    for trial in range(2):
        cfg = tiny_config(n_layer=2, d_model=16, n_heads=2, d_ff=24)
        model = md.init_model(cfg, seed=trial)
        tokens, mask = random_batch(rng, b=4, r=6)
        targets = rng.normal(size=(4, 4))
        worst = max(worst, finite_difference_check(
            model, tokens, mask, targets, UNIT_STATS, n_coords=120, seed=trial))
    elapsed = time.monotonic() - start
    assert worst <= 1e-6, f"max relative gradient error {worst:.2e}"
    assert elapsed < 60.0, f"A4 runtime {elapsed:.1f}s exceeds 60s"
    print(f"\nA4 gradient fidelity: PASS (max rel err {worst:.1e}, {elapsed:.1f}s)")


# A5 settings: fixed by the criterion (corpus size/shape, model size, epochs,
# seeds); batch size, learning rate, d_ff, and dropout are free and were
# chosen by a small sweep.
A5_MODEL = EncoderConfig(n_layer=2, d_model=32, n_heads=4, d_ff=256, dropout_p=0.0)


@pytest.mark.slow
def test_a5_desk_scale_tokenizer_advantage():
    start = time.monotonic()
    records = tart.generate_synthetic(400, 16, 0.3, 0.02, seed=42)
    split = tart.split_dataset(records, 200, seed=0)

    cfg = TrainConfig(epochs=30, batch_size=16, seed=100, model=A5_MODEL, mode="tart",
                      lr=2e-3, eval_each_epoch=False)
    comparison = compare_modes(split, cfg, n_trials=5)
    elapsed = time.monotonic() - start
    tart_tau = comparison.tart.mean_tau
    pure_tau = comparison.pure.mean_tau

    assert tart_tau["clean_acc"] >= 0.5, f"clean_acc tau {tart_tau['clean_acc']:.3f} < 0.5"
    assert tart_tau["inference_speed"] >= 0.5, \
        f"inference_speed tau {tart_tau['inference_speed']:.3f} < 0.5"
    assert tart_tau["inference_speed"] > pure_tau["inference_speed"], \
        "tokenized mode should beat the edge-blind baseline on inference_speed"
    assert elapsed < 900.0, f"A5 runtime {elapsed:.0f}s exceeds 15 min"
    print(f"\nA5 desk-scale comparison: PASS ({elapsed:.0f}s)\n"
          f"   tart: {tart_tau}\n   pure: {pure_tau}")


def test_a6_baseline_edge_blindness():
    records = tart.generate_synthetic(40, 10, 0.4, 0.02, seed=7)
    rewired = [tart.LabeledGraph(
        graph=tart.make_graph(r.graph.num_nodes, r.graph.node_ops, []),
        targets=r.targets, id=r.id) for r in records]
    split = tart.split_dataset(records, 30, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=8, seed=0, lr=1e-3, mode="pure",
                      model=EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=16,
                                          dropout_p=0.0, mode="pure"))
    model, _ = tart.train_predictor(split, cfg)
    from tart.harness import predict
    a = predict(model, [r.graph for r in records], "pure")
    b = predict(model, [r.graph for r in rewired], "pure")
    assert np.array_equal(a, b), "node-only predictions must ignore edges bitwise"
    print("\nA6 baseline edge-blindness: PASS")


def test_a7_compare_determinism(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    gc.write_dataset(gc.generate_synthetic(20, 8, 0.4, 0.05, seed=5), data)
    config = tmp_path / "tiny.cfg"
    config.write_text("model.n_layer = 1\nmodel.d_model = 8\nmodel.n_heads = 2\n"
                      "model.d_ff = 16\nmodel.dropout = 0.0\ntrain.epochs = 1\n"
                      "train.batch_size = 8\n")
    outputs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"{tag}.csv"
        code = cli.main(["compare", "--config", str(config), "--data", str(data),
                         "--trials", "2", "--seed", "3", "--out-csv", str(csv_path)])
        capsys.readouterr()
        assert code == 0
        outputs.append(csv_path.read_bytes())
    assert outputs[0] == outputs[1], "compare outputs must be byte-identical"
    print("\nA7 compare determinism: PASS")


def test_a8_mask_invariance():
    rng = np.random.default_rng(108)
    model = md.init_model(tiny_config(), seed=4)
    tokens, mask = random_batch(rng, b=3, r=5, holes=False)
    preds = md.encoder_forward(model, tokens, mask)
    padded_tokens = np.concatenate([tokens, np.zeros((3, 6, 11))], axis=1)
    padded_mask = np.concatenate([mask, np.zeros((3, 6), dtype=bool)], axis=1)
    preds_padded = md.encoder_forward(model, padded_tokens, padded_mask)
    deviation = np.max(np.abs(preds.value - preds_padded.value))
    assert deviation <= 1e-12, f"padding changed predictions by {deviation:.2e}"
    print(f"\nA8 mask invariance: PASS (max deviation {deviation:.1e})")
