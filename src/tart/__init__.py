"""TART: token-based architecture transformer for performance prediction.

Turns neural-architecture computational graphs into token matrices with
Laplacian-eigenvector positional features, trains a transformer-encoder
regressor on them, and scores predictions by Kendall-Tau rank correlation.
"""

from .graphs import (ComputationalGraph, DatasetSplit, LabeledGraph,
                     PerformanceRecord, generate_synthetic, make_graph,
                     read_dataset, split_dataset, write_dataset)
from .spectral import SpectralFeatures, build_normalized_laplacian, lap_features
from .tokens import PaddedBatch, pad_batch, tokenize_graph, tokenize_lap, tokenize_many
from .model import (EncoderConfig, PredictorModel, adam_init, adam_step,
                    encoder_forward, init_model, load_model, loss_mse,
                    parameter_count, save_model)
from .harness import (Comparison, EvalReport, TrainConfig, compare_modes,
                      evaluate_predictor, kendall_tau_b, run_experiment,
                      train_predictor)

__version__ = "0.1.0"
