"""Training loop, Kendall-Tau evaluation, and multi-seed experiment orchestration."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .graphs import TARGET_NAMES, DatasetSplit
from .model import (EncoderConfig, PredictorModel, adam_init, adam_step,
                    backward_pass, compute_target_stats, encoder_forward, init_model)
from .tokens import pad_batch, tokenize_many

# Published reference results on DeepNets-1M (30-epoch rows); printed for
# context only, never asserted: this artifact does not reproduce them.
REFERENCE_TAU_30_EPOCHS = {
    "pure": {"clean_acc": 0.210, "noisy_acc": 0.137,
             "inference_speed": 0.893, "convergence_speed": 0.210},
    "tart": {"clean_acc": 0.266, "noisy_acc": 0.307,
             "inference_speed": 0.885, "convergence_speed": 0.266},
}


class HarnessError(ValueError):
    pass


class LengthMismatch(HarnessError):
    pass


class DegenerateInput(HarnessError):
    pass


def kendall_tau_b(x, y) -> float:
    """Tie-corrected Kendall rank correlation.

    tau_b = (C - D) / sqrt((C + D + Tx) * (C + D + Ty)) over all pairs
    i < j, where Tx/Ty count pairs tied only in x/only in y; pairs tied
    in both are dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"shapes {x.shape} and {y.shape}")
    n = x.size
    if n < 2:
        raise DegenerateInput("need at least 2 observations")
    iu = np.triu_indices(n, k=1)
    sx = np.sign(x[:, None] - x[None, :])[iu]
    sy = np.sign(y[:, None] - y[None, :])[iu]
    if np.all(sx == 0):
        raise DegenerateInput("all x values tied")
    if np.all(sy == 0):
        raise DegenerateInput("all y values tied")
    prod = sx * sy
    concordant = int(np.sum(prod > 0))
    discordant = int(np.sum(prod < 0))
    tied_x_only = int(np.sum((sx == 0) & (sy != 0)))
    tied_y_only = int(np.sum((sy == 0) & (sx != 0)))
    return (concordant - discordant) / np.sqrt(
        (concordant + discordant + tied_x_only) * (concordant + discordant + tied_y_only))


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    model: EncoderConfig = field(default_factory=EncoderConfig)
    mode: str = "tart"  # must restate model.mode, the tokenizer the encoder is built for
    lr: float = 1e-4
    eval_each_epoch: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise HarnessError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise HarnessError(f"batch_size must be >= 1, got {self.batch_size}")
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


def predict(model: PredictorModel, graphs, mode: str, batch_size: int = 64) -> np.ndarray:
    """Eval-mode predictions in input order; mode must restate model.config.mode."""
    if mode != model.config.mode:
        raise HarnessError(f"model reads {model.config.mode!r} tokens, not {mode!r}")
    mats = tokenize_many(graphs, mode, d_p=model.config.d_p)
    if not mats:
        raise HarnessError("no graphs to predict")
    r_max = max(tm.num_rows for tm in mats)
    rows = []
    for start in range(0, len(mats), batch_size):
        batch = pad_batch(mats[start:start + batch_size], r_max)
        preds = encoder_forward(model, batch.tokens, batch.mask, train=False)
        rows.append(preds.value)
    return np.concatenate(rows, axis=0)


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

    r_max = max(tm.num_rows for tm in train_mats)
    model = init_model(cfg.model, seed=cfg.seed)
    state = adam_init(model)
    rng = np.random.default_rng(cfg.seed)

    test_labeled = bool(split.test) and all(r.targets is not None for r in split.test)
    test_targets = _targets_matrix(split.test) if test_labeled else None

    history = []
    step = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(train_mats))
        losses = []
        for start in range(0, len(perm), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            batch = pad_batch([train_mats[i] for i in idx], r_max)
            loss, grads = backward_pass(
                model, batch.tokens, batch.mask, train_targets[idx], target_stats,
                train=True, dropout_seed=cfg.seed * 1_000_003 + step)
            adam_step(model, grads, state, lr=cfg.lr)
            losses.append(loss)
            step += 1
        entry = {"epoch": epoch + 1, "loss": float(np.mean(losses))}
        if test_labeled and cfg.eval_each_epoch:
            preds = predict(model, [r.graph for r in split.test], cfg.mode)
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
    mode: str
    per_seed: list          # [{"seed": int, "tau": {target: value}}, ...]
    mean_tau: dict          # target -> mean over seeds
    config_echo: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def run_experiment(split: DatasetSplit, cfg: TrainConfig, n_trials: int = 5,
                   base_seed: int = 0) -> EvalReport:
    """Train n_trials models with consecutive seeds and average per-target tau."""
    if n_trials < 1:
        raise HarnessError(f"n_trials must be >= 1, got {n_trials}")
    per_seed = []
    for trial in range(n_trials):
        seed = base_seed + trial
        trial_cfg = replace(cfg, seed=seed, eval_each_epoch=False)
        model, _ = train_predictor(split, trial_cfg)
        tau = evaluate_predictor(model, split.test)
        per_seed.append({"seed": seed, "tau": tau})
    mean_tau = {name: float(np.mean([t["tau"][name] for t in per_seed]))
                for name in TARGET_NAMES}
    echo = asdict(cfg)
    echo["n_trials"] = n_trials
    echo["base_seed"] = base_seed
    return EvalReport(mode=cfg.mode, per_seed=per_seed, mean_tau=mean_tau, config_echo=echo)


@dataclass
class Comparison:
    pure: EvalReport
    tart: EvalReport

    def long_rows(self) -> list:
        """(target, mode, seed, tau) rows for CSV export."""
        rows = []
        for slot, report in (("pure", self.pure), ("tart", self.tart)):
            for trial in report.per_seed:
                for name in TARGET_NAMES:
                    rows.append((name, slot, trial["seed"], trial["tau"][name]))
        return rows

    def to_csv(self) -> str:
        lines = ["target,mode,seed,tau"]
        for target, mode, seed, tau in self.long_rows():
            lines.append(f"{target},{mode},{seed},{tau:.10f}")
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
