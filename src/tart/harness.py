"""Training loop, Kendall-Tau evaluation, and multi-seed experiment orchestration."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import TARGET_NAMES, DatasetSplit, check_int
from .model import (EncoderConfig, PredictorModel, adam_init, adam_step,
                    backward_pass, compute_target_stats, encoder_forward, init_model)
from .tokens import pad_batch, token_rows, tokenize_many

# Published reference results on DeepNets-1M (30-epoch rows); printed for
# context only, never asserted: this artifact does not reproduce them.
REFERENCE_TAU_30_EPOCHS = {
    "pure": {"clean_acc": 0.210, "noisy_acc": 0.137,
             "inference_speed": 0.893, "convergence_speed": 0.210},
    "tart": {"clean_acc": 0.266, "noisy_acc": 0.307,
             "inference_speed": 0.885, "convergence_speed": 0.266},
}


PREDICT_BATCH_SIZE = 64


class HarnessError(ValueError):
    pass


class DegenerateInput(HarnessError):
    pass


def _tied_pairs(*columns) -> int:
    """Pairs of items equal in every column; the columns are sorted together, so ties are runs."""
    run_starts = np.zeros(columns[0].size, dtype=bool)
    run_starts[0] = True
    for column in columns:
        run_starts[1:] |= column[1:] != column[:-1]
    runs = np.diff(np.flatnonzero(np.append(run_starts, True)))
    return int(np.sum(runs * (runs - 1) // 2))


def _inversions(ranks: np.ndarray, n_ranks: int) -> int:
    """Pairs i < j with ranks[i] > ranks[j] (ranks in [0, n_ranks)), by a bottom-up merge sort.

    At each width, every right block is merged into the left block before it:
    an item of the right block inverts with every item of its left block that
    is larger. Keys offset by the block pair's index keep all left blocks in one
    sorted array, so each level is one vectorized search and one sort.
    """
    n = ranks.size
    position = np.arange(n)
    inversions = 0
    width = 1
    while width < n:
        pair = position // (2 * width)
        in_right = (position // width) % 2 == 1
        keys = pair * n_ranks + ranks
        left = keys[~in_right]
        left_end = np.searchsorted(left, (pair[in_right] + 1) * n_ranks, "left")
        first_larger = np.searchsorted(left, keys[in_right], "right")
        inversions += int(np.sum(left_end - first_larger))
        keys.sort()
        ranks = keys - pair * n_ranks
        width *= 2
    return inversions


def kendall_tau_b(x, y) -> float:
    """Tie-corrected Kendall rank correlation, in O(n log n) (Knight 1966).

    tau_b = (C - D) / sqrt((C + D + Tx) * (C + D + Ty)) over all pairs
    i < j, where Tx/Ty count pairs tied only in x/only in y; pairs tied
    in both are dropped. Sorted by (x, y), the pairs tied in x, and in both,
    are the pairs inside runs; D is the number of inversions left in y.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise HarnessError(f"shapes {x.shape} and {y.shape}")
    n = x.size
    if n < 2:
        raise DegenerateInput("need at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise HarnessError("tau needs finite values; got NaN or inf")
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    y_sorted = np.sort(y)
    all_pairs = n * (n - 1) // 2
    tied_x = _tied_pairs(xs)
    tied_y = _tied_pairs(y_sorted)
    if tied_x == all_pairs:
        raise DegenerateInput("all x values tied")
    if tied_y == all_pairs:
        raise DegenerateInput("all y values tied")
    tied_both = _tied_pairs(xs, ys)
    # equal values share a rank, so only strictly larger earlier values count as inversions
    discordant = _inversions(np.searchsorted(y_sorted, ys), n)
    concordant = all_pairs - tied_x - tied_y + tied_both - discordant
    tied_x_only = tied_x - tied_both
    tied_y_only = tied_y - tied_both
    # np.sqrt rejects a Python int past int64 (n near 1e5); float() rounds the exact
    # product once, as numpy's int64 -> float64 conversion does for smaller ones
    return (concordant - discordant) / np.sqrt(float(
        (concordant + discordant + tied_x_only) * (concordant + discordant + tied_y_only)))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    model: EncoderConfig = field(default_factory=EncoderConfig)
    mode: str = "tart"  # must restate model.mode, the tokenizer the encoder is built for
    lr: float = 1e-3
    eval_each_epoch: bool = True

    def __post_init__(self):
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               check_int(getattr(self, name), name, minimum, HarnessError))
        if not 0.0 < self.lr < np.inf:
            raise HarnessError(f"lr must be a positive finite number, got {self.lr}")
        if self.mode != self.model.mode:
            raise HarnessError(f"mode {self.mode!r} != model.mode {self.model.mode!r}")


def _targets_matrix(records) -> np.ndarray:
    return np.stack([r.targets.as_array() for r in records])


def tau_table(predictions: np.ndarray, targets: np.ndarray) -> dict:
    """Per-target Kendall-Tau between prediction and ground-truth columns."""
    return {name: float(kendall_tau_b(predictions[:, j], targets[:, j]))
            for j, name in enumerate(TARGET_NAMES)}


def _forward_by_length(model: PredictorModel, items, rows, batch_size: int,
                       tokenize) -> np.ndarray:
    """Eval-mode predictions for items, in input order.

    Items are stable-sorted by token row count and cut into batches of
    batch_size; tokenize turns one batch of items into token matrices just
    before it runs, and the batch is padded to its own longest matrix. Memory
    is bounded by the batch, not by the number of items.
    """
    order = np.argsort(rows, kind="stable")
    out = np.empty((len(items), len(TARGET_NAMES)))
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        mats = tokenize([items[i] for i in idx])
        batch = pad_batch(mats, max(len(m) for m in mats))
        out[idx] = encoder_forward(model, batch.tokens, batch.mask, train=False).value
    return out


def predict(model: PredictorModel, graphs, mode: str,
            batch_size: int = PREDICT_BATCH_SIZE) -> np.ndarray:
    """Eval-mode predictions in input order; mode must restate model.config.mode.

    Graphs run in batches of similar size (see _forward_by_length), each
    tokenized only when it is about to run.
    """
    if mode != model.config.mode:
        raise HarnessError(f"model reads {model.config.mode!r} tokens, not {mode!r}")
    batch_size = check_int(batch_size, "batch_size", 1, HarnessError)
    graphs = list(graphs)
    if not graphs:
        raise HarnessError("no graphs to predict")
    return _forward_by_length(
        model, graphs, [token_rows(g, mode) for g in graphs], batch_size,
        lambda batch: tokenize_many(batch, mode, d_p=model.config.d_p))


def train_predictor(split: DatasetSplit, cfg: TrainConfig):
    """Train on split.train; returns (model, history).

    history is one dict per epoch with mean train loss and, when the test
    split is labeled and eval_each_epoch is set, per-target test tau.
    Fully deterministic under cfg.seed; test labels never influence the
    trained parameters.
    """
    if not split.train:
        raise HarnessError("empty training split")
    if any(r.targets is None for r in split.train):
        raise HarnessError("training split contains unlabeled records")

    train_mats = tokenize_many([r.graph for r in split.train], cfg.mode, d_p=cfg.model.d_p)
    train_targets = _targets_matrix(split.train)
    target_stats = compute_target_stats(train_targets)

    model = init_model(cfg.model, seed=cfg.seed)
    state = adam_init(model)
    rng = np.random.default_rng(cfg.seed)

    eval_each_epoch = (cfg.eval_each_epoch and bool(split.test)
                       and all(r.targets is not None for r in split.test))
    if eval_each_epoch:
        test_targets = _targets_matrix(split.test)
        test_mats = tokenize_many([r.graph for r in split.test], cfg.mode, d_p=cfg.model.d_p)

    history = []
    step = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(train_mats))
        losses = []
        for start in range(0, len(perm), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            mats = [train_mats[i] for i in idx]
            batch = pad_batch(mats, max(len(m) for m in mats))
            loss, grads = backward_pass(
                model, batch.tokens, batch.mask, train_targets[idx], target_stats,
                train=True, dropout_seed=cfg.seed * 1_000_003 + step)
            adam_step(model, grads, state, lr=cfg.lr)
            losses.append(loss)
            step += 1
        entry = {"epoch": epoch + 1, "loss": float(np.mean(losses))}
        if eval_each_epoch:
            # the batches predict() would run, from matrices tokenized once
            preds = _forward_by_length(model, test_mats, [len(m) for m in test_mats],
                                       PREDICT_BATCH_SIZE, list)
            entry["tau"] = tau_table(preds, test_targets)
        history.append(entry)
    return model, history


def evaluate_predictor(model: PredictorModel, test) -> dict:
    """Per-target tau of a trained model on labeled test records (no weight updates)."""
    if not test:
        raise HarnessError("empty test set")
    if any(r.targets is None for r in test):
        raise HarnessError("test set contains unlabeled records")
    preds = predict(model, [r.graph for r in test], model.config.mode)
    return tau_table(preds, _targets_matrix(test))


@dataclass
class EvalReport:
    per_seed: list          # [{"seed": int, "tau": {target: value}}, ...]
    mean_tau: dict          # target -> mean over seeds


def run_experiment(split: DatasetSplit, cfg: TrainConfig, n_trials: int = 5,
                   base_seed: int = 0) -> EvalReport:
    """Train n_trials models with consecutive seeds and average per-target tau."""
    n_trials = check_int(n_trials, "n_trials", 1, HarnessError)
    base_seed = check_int(base_seed, "base_seed", 0, HarnessError)
    per_seed = []
    for trial in range(n_trials):
        seed = base_seed + trial
        trial_cfg = replace(cfg, seed=seed, eval_each_epoch=False)
        model, _ = train_predictor(split, trial_cfg)
        tau = evaluate_predictor(model, split.test)
        per_seed.append({"seed": seed, "tau": tau})
    mean_tau = {name: float(np.mean([t["tau"][name] for t in per_seed]))
                for name in TARGET_NAMES}
    return EvalReport(per_seed=per_seed, mean_tau=mean_tau)


@dataclass
class Comparison:
    pure: EvalReport
    tart: EvalReport

    def to_csv(self) -> str:
        """Long format: one (target, mode, seed, tau) row per trial and target."""
        lines = ["target,mode,seed,tau"]
        for mode, report in (("pure", self.pure), ("tart", self.tart)):
            for trial in report.per_seed:
                for name in TARGET_NAMES:
                    lines.append(f"{name},{mode},{trial['seed']},{trial['tau'][name]:.10f}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = f"{'target':<20}{'pure':>10}{'tart':>10}{'tart-pure':>12}"
        lines = [header, "-" * len(header)]
        for name in TARGET_NAMES:
            p = self.pure.mean_tau[name]
            t = self.tart.mean_tau[name]
            lines.append(f"{name:<20}{p:>10.4f}{t:>10.4f}{t - p:>12.4f}")
        lines.append("")
        lines.append("Reference (published DeepNets-1M results at 30 epochs; "
                     "not reproduced by this synthetic benchmark):")
        for mode in ("pure", "tart"):
            ref = REFERENCE_TAU_30_EPOCHS[mode]
            vals = "  ".join(f"{k}={v:.3f}" for k, v in ref.items())
            lines.append(f"  {mode}: {vals}")
        return "\n".join(lines) + "\n"


def compare_modes(split: DatasetSplit, cfg_pure: TrainConfig, cfg_tart: TrainConfig,
                  n_trials: int = 5, base_seed: int = 0) -> Comparison:
    """Side-by-side node-only (pure) baseline versus tart tokenization at equal budget."""
    if cfg_pure.epochs != cfg_tart.epochs:
        raise HarnessError("compare requires equal epochs in both configs")
    pure = run_experiment(split, cfg_pure, n_trials=n_trials, base_seed=base_seed)
    tart = run_experiment(split, cfg_tart, n_trials=n_trials, base_seed=base_seed)
    return Comparison(pure=pure, tart=tart)
