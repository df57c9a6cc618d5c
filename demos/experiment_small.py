"""Small end-to-end experiment: tokenized transformer vs node-only baseline.

Generates a synthetic labeled corpus, trains both modes at equal budget, and
prints per-target Kendall-Tau. The inference_speed target depends only on
edge count, which the node-only encoding cannot see, so the tokenized mode
should win it clearly. Takes about a minute.

Run: python3 demos/experiment_small.py
"""
import tart
from tart.harness import TrainConfig, compare_modes
from tart.model import EncoderConfig

records = tart.generate_synthetic(count=200, max_nodes=12, edge_density=0.3,
                                  noise_sigma=0.02, seed=1)
split = tart.split_dataset(records, n_train=100, seed=0)
print(f"corpus: {len(split.train)} train / {len(split.test)} test graphs")

encoder = EncoderConfig(n_layer=2, d_model=32, n_heads=4, d_ff=128, dropout_p=0.0)
cfg = TrainConfig(epochs=20, batch_size=16, seed=0, model=encoder, mode="tart", lr=2e-3,
                  eval_each_epoch=False)
comparison = compare_modes(split, cfg, n_trials=2)
print(comparison.to_text())
