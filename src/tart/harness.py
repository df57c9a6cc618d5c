"""Training loop, Kendall-Tau evaluation, and multi-seed experiment orchestration."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import no_tape
from .graphs import TARGET_NAMES, DatasetSplit, check_float, check_int
from .model import (EncoderConfig, PredictorModel, StatsDegenerate, adam_init, adam_step,
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
        raise StatsDegenerate("need at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise HarnessError("tau needs finite values; got NaN or inf")
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    y_sorted = np.sort(y)
    all_pairs = n * (n - 1) // 2
    tied_x = _tied_pairs(xs)
    tied_y = _tied_pairs(y_sorted)
    if tied_x == all_pairs:
        raise StatsDegenerate("all x values tied")
    if tied_y == all_pairs:
        raise StatsDegenerate("all y values tied")
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
    mode: str = "tart"  # a checked restatement of model.mode; nothing reads it but the check
    lr: float = 1e-3
    eval_each_epoch: bool = True

    def __post_init__(self):
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               check_int(getattr(self, name), name, minimum, HarnessError))
        object.__setattr__(self, "lr", check_float(self.lr, "lr", "(0, inf)", HarnessError))
        if self.mode != self.model.mode:
            raise HarnessError(f"mode {self.mode!r} != model.mode {self.model.mode!r}")


def _targets_matrix(records) -> np.ndarray:
    return np.stack([r.targets.as_array() for r in records])


def tau_table(predictions: np.ndarray, targets: np.ndarray) -> dict:
    """Per-target Kendall-Tau between prediction and ground-truth columns."""
    return {name: float(kendall_tau_b(predictions[:, j], targets[:, j]))
            for j, name in enumerate(TARGET_NAMES)}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _forward_by_length(model: PredictorModel, items, rows, batch_size: int,
                       tokenize) -> np.ndarray:
    """Eval-mode predictions for items, in input order.

    Items are stable-sorted by token row count and cut into batches of
    batch_size; tokenize turns one batch of items into token matrices just
    before it runs, and the batch is padded to its own longest matrix. The
    batches run on up to one thread per usable CPU, each batch exactly as it
    would run alone, so the output does not depend on the thread count. The
    encoder's numpy and BLAS calls release the GIL; about 60% of
    tokenization, its Python and small numpy calls, holds it (see README).
    One batch or one CPU runs inline and starts no thread. Memory is bounded
    by threads x batch, not by the number of items. The first failing batch
    in sorted order raises, and batches not yet started are cancelled.
    """
    order = np.argsort(rows, kind="stable")
    out = np.empty((len(items), len(TARGET_NAMES)))
    batches = [order[start:start + batch_size] for start in range(0, len(order), batch_size)]

    def run(idx):
        mats = tokenize([items[i] for i in idx])
        batch = pad_batch(mats, max(len(m) for m in mats))
        with no_tape():
            out[idx] = encoder_forward(model, batch.tokens, batch.mask, train=False).value

    workers = min(len(batches), _usable_cpus())
    if workers == 1:
        for idx in batches:
            run(idx)
    else:
        # map yields in submission order, so the error is the serial run's, and on an
        # error it cancels the batches still queued; leaving the with block joins the threads
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, batches))
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

    train_mats = tokenize_many([r.graph for r in split.train], cfg.model.mode, d_p=cfg.model.d_p)
    train_targets = _targets_matrix(split.train)
    target_stats = compute_target_stats(train_targets)

    model = init_model(cfg.model, seed=cfg.seed)
    state = adam_init(model)
    rng = np.random.default_rng(cfg.seed)

    eval_each_epoch = (cfg.eval_each_epoch and bool(split.test)
                       and all(r.targets is not None for r in split.test))
    if eval_each_epoch:
        test_targets = _targets_matrix(split.test)
        test_mats = tokenize_many([r.graph for r in split.test], cfg.model.mode, d_p=cfg.model.d_p)

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
                dropout_seed=cfg.seed * 1_000_003 + step)
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

    @property
    def mean_tau(self) -> dict:  # target -> mean over seeds
        return {name: float(np.mean([t["tau"][name] for t in self.per_seed]))
                for name in TARGET_NAMES}


def run_experiment(split: DatasetSplit, cfg: TrainConfig, n_trials: int = 5) -> EvalReport:
    """Train n_trials models, on seeds cfg.seed, cfg.seed + 1, ..., and record each one's tau."""
    n_trials = check_int(n_trials, "n_trials", 1, HarnessError)
    per_seed = []
    for seed in range(cfg.seed, cfg.seed + n_trials):
        model, _ = train_predictor(split, replace(cfg, seed=seed, eval_each_epoch=False))
        per_seed.append({"seed": seed, "tau": evaluate_predictor(model, split.test)})
    return EvalReport(per_seed=per_seed)


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


def compare_modes(split: DatasetSplit, cfg: TrainConfig, n_trials: int = 5) -> Comparison:
    """Side-by-side node-only (pure) baseline versus tart tokenization at equal budget.

    cfg is the tart run; the pure run is cfg in pure mode, on the same seeds.
    """
    if cfg.model.mode != "tart":
        raise HarnessError(f"compare needs a tart config, got a {cfg.model.mode!r} one")
    pure = replace(cfg, mode="pure", model=replace(cfg.model, mode="pure"))
    return Comparison(pure=run_experiment(split, pure, n_trials=n_trials),
                      tart=run_experiment(split, cfg, n_trials=n_trials))
