"""Transformer-encoder regressor: config, forward pass, loss, Adam, checkpoints.

Pre-layer-norm encoder blocks (masked multi-head self-attention +
feed-forward with the tanh form of GELU, both residual), mean pooling over
real tokens, and a single linear head mapping to the four performance
targets. The encoder runs on packed rows: a batch's real token rows are
gathered into one (T, ·) array, so projections, layer norms, the
feed-forward net, residual adds and pooling never touch padding. Attention's
score, softmax and context matmuls run on block-diagonal rows: the batch's
samples are packed, first-fit decreasing, into as few rows of the longest
sample's length as they fit, and a boolean block-diagonal mask lets each
query see only its own sample's keys (Krell et al., arXiv:2107.02027); the
softmax exponentiates only the pairs it lets through.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import TARGET_NAMES, check_float, check_int
from .tokens import DEFAULT_D_P, MODES, token_width

MODEL_MAGIC = b"TARTMDL"
MODEL_FORMAT_VERSION = 5

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ModelError(ValueError):
    pass


class StatsDegenerate(ModelError):
    """Statistics that are undefined on the data: a zero std or a tau over all-tied values."""


class VersionMismatch(ModelError):
    pass


class CorruptFile(ModelError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder shape and the tokenizer it reads; `config.DEFAULTS` reads these defaults."""
    n_layer: int = 2
    d_model: int = 32
    n_heads: int = 4
    d_ff: int = 128
    dropout_p: float = 0.1
    mode: str = "tart"  # the tokenizer the encoder reads: one of tokens.MODES
    d_p: int = DEFAULT_D_P  # tart's positional width; 0 for pure, whose rows carry none

    @property
    def input_width(self) -> int:
        return token_width(self.d_p)

    def __post_init__(self):
        for name in ("n_layer", "d_model", "n_heads", "d_ff", "d_p"):
            minimum = 0 if name == "d_p" else 1
            object.__setattr__(self, name, check_int(getattr(self, name), name, minimum,
                                                     ModelError))
        if self.d_model % self.n_heads != 0:
            raise ModelError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        object.__setattr__(self, "dropout_p",
                           check_float(self.dropout_p, "dropout_p", "[0, 1)", ModelError))
        if self.mode not in MODES:
            raise ModelError(f"unknown tokenizer mode: {self.mode!r}")
        if self.mode == "pure":
            # d_p changes nothing a pure model computes, so equal models get equal headers
            object.__setattr__(self, "d_p", 0)


@dataclass
class PredictorModel:
    config: EncoderConfig
    params: dict  # name -> Tensor


def parameter_shapes(config: EncoderConfig) -> dict:
    """Name -> shape of every encoder parameter, in checkpoint order."""
    d, ff, t = config.d_model, config.d_ff, len(TARGET_NAMES)
    shapes = {"input_proj.w": (config.input_width, d), "input_proj.b": (d,)}
    for i in range(config.n_layer):
        for part in "qkvo":
            shapes[f"layer{i}.attn.w{part}"] = (d, d)
            shapes[f"layer{i}.attn.b{part}"] = (d,)
        for norm in ("ln1", "ln2"):
            shapes[f"layer{i}.{norm}.g"] = (d,)
            shapes[f"layer{i}.{norm}.b"] = (d,)
        shapes.update({f"layer{i}.ffn.w1": (d, ff), f"layer{i}.ffn.b1": (ff,),
                       f"layer{i}.ffn.w2": (ff, d), f"layer{i}.ffn.b2": (d,)})
    shapes.update({"head.w": (d, t), "head.b": (t,)})
    return shapes


def parameter_count(config: EncoderConfig) -> int:
    """Closed-form parameter total for a config."""
    c, d, ff, t = config.input_width, config.d_model, config.d_ff, len(TARGET_NAMES)
    per_layer = 4 * (d * d + d) + 4 * d + (d * ff + ff) + (ff * d + d)
    return (c * d + d) + config.n_layer * per_layer + (d * t + t)


def _init_matrix(rng, fan_in: int, fan_out: int) -> np.ndarray:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_in, fan_out))


def init_model(config: EncoderConfig, seed: int) -> PredictorModel:
    """Matrices drawn in checkpoint order; layer-norm gains 1, every other vector 0."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in parameter_shapes(config).items():
        if len(shape) == 2:
            params[name] = Tensor(_init_matrix(rng, *shape))
        else:
            params[name] = Tensor(np.full(shape, 1.0 if name.endswith(".g") else 0.0))
    return PredictorModel(config=config, params=params)


def pack_rows(counts: np.ndarray):
    """Pack samples of counts[b] tokens into attention rows of capacity counts.max().

    First-fit decreasing: longest sample first (ties in sample order), each into
    the first row with room for all its tokens, so a sample's tokens stay
    contiguous in one row. Returns (owner, slots): owner (rows, R) names each
    slot's sample, -1 for padding, and slots holds the flat slot of every packed
    (T, ·) row, samples in order.
    """
    sizes = counts.tolist()
    capacity = max(sizes)
    firsts = list(accumulate(sizes, initial=0))  # each sample's first packed row
    shift = [0] * len(sizes)  # slot minus packed row, the same for all of a sample's rows
    fill = []  # tokens placed so far in each open row
    for b in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        row = next((i for i, used in enumerate(fill) if used + sizes[b] <= capacity), len(fill))
        if row == len(fill):
            fill.append(0)
        shift[b] = row * capacity + fill[row] - firsts[b]
        fill[row] += sizes[b]
    slots = np.arange(firsts[-1]) + np.repeat(shift, counts)
    owner = np.full(len(fill) * capacity, -1)
    owner[slots] = np.repeat(np.arange(len(sizes)), counts)
    return owner.reshape(len(fill), capacity), slots


def _attention(x: Tensor, slots, attend, pairs: np.ndarray, p: dict,
               prefix: str, config: EncoderConfig, drop_rng) -> Tensor:
    """Self-attention over packed rows x (T, D) in the attention rows that
    `pairs` (rows, 1, R, R) lays out; `pairs` marks the (query, key) pairs of
    one sample, and dropout draws for those alone. q, k and v come from one
    fused projection, scattered once to `slots` (None when x's rows fill the
    attention rows in order). The boolean mask `attend`, shaped like `pairs`,
    lets a query see only its own sample's keys (a padding query sees its
    row's padding); it is None when every pair is attended."""
    rows, _, r, _ = pairs.shape
    d = x.shape[1]
    h = config.n_heads
    dh = d // h
    c = 1.0 / np.sqrt(dh)  # in q's weights, so the (rows, H, R, R) scores need no scale
    w = ad.concat([ad.scale(p[f"{prefix}.wq"], c), p[f"{prefix}.wk"], p[f"{prefix}.wv"]])
    b = ad.concat([ad.scale(p[f"{prefix}.bq"], c), p[f"{prefix}.bk"], p[f"{prefix}.bv"]])
    qkv = ad.linear(x, w, b)
    if slots is not None:
        qkv = ad.scatter_rows(qkv, slots, rows * r)
    q, k, v = ad.unstack(ad.transpose(ad.reshape(qkv, (rows, r, 3, h, dh)), (2, 0, 3, 1, 4)))

    probs = ad.softmax_masked(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), attend)
    if drop_rng is not None:
        probs = ad.dropout(probs, config.dropout_p, drop_rng, where=pairs)
    ctx = ad.reshape(ad.transpose(ad.matmul(probs, v), (0, 2, 1, 3)), (rows * r, d))
    if slots is not None:
        ctx = ad.gather_rows(ctx, slots)
    return ad.linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def encoder_forward(model: PredictorModel, tokens: np.ndarray, mask: np.ndarray,
                    train: bool = False, dropout_seed: int = 0) -> Tensor:
    """Predict targets for a padded batch.

    tokens: B x R x C float64, mask: B x R bool. The real rows are packed
    into one (T, C) array in sample order, so every row-wise op runs on
    real rows only. Attention packs the samples into as few rows as fit
    (see pack_rows), and a boolean block-diagonal mask keeps each sample to
    its own tokens. A sample's output depends on its real rows alone, not on
    where the mask puts them, how far the batch is padded or which samples
    share its attention row. Eval mode (train=False) is a deterministic pure
    function of (model, batch); train mode draws dropout masks, for real
    entries only, from a generator seeded with dropout_seed.
    """
    cfg = model.config
    p = model.params
    if tokens.ndim != 3 or tokens.shape[-1] != cfg.input_width:
        raise ModelError(
            f"tokens shape {tokens.shape} incompatible with input_width={cfg.input_width}")
    if mask.shape != tokens.shape[:2]:
        raise ModelError(f"mask shape {mask.shape} != {tokens.shape[:2]}")

    mask = mask.astype(bool)
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise ModelError(f"sample {int(np.argmin(counts))} has no real tokens to pool over")

    drop_rng = np.random.default_rng(dropout_seed) if (train and cfg.dropout_p > 0) else None

    owner, slots = pack_rows(counts)
    # a query attends the keys of its own owner, so a padding query keeps its row's padding
    attend = (owner[:, :, None] == owner[:, None, :])[:, None]
    # a real pair's query and key belong to one sample; dropout draws for real pairs only
    pairs = attend & (owner >= 0)[:, None, :, None]
    if attend.all():
        attend = None  # every graph fills its attention rows alone
    if np.array_equal(slots, np.arange(owner.size)):
        slots = None  # scattering would copy the rows unchanged
    x = ad.linear(Tensor(tokens[mask]), p["input_proj.w"], p["input_proj.b"])

    for i in range(cfg.n_layer):
        normed = ad.layer_norm(x, p[f"layer{i}.ln1.g"], p[f"layer{i}.ln1.b"])
        attn = _attention(normed, slots, attend, pairs, p, f"layer{i}.attn", cfg, drop_rng)
        if drop_rng is not None:
            attn = ad.dropout(attn, cfg.dropout_p, drop_rng)
        x = ad.add(x, attn)

        normed = ad.layer_norm(x, p[f"layer{i}.ln2.g"], p[f"layer{i}.ln2.b"])
        hidden = ad.gelu(ad.linear(normed, p[f"layer{i}.ffn.w1"], p[f"layer{i}.ffn.b1"]))
        out = ad.linear(hidden, p[f"layer{i}.ffn.w2"], p[f"layer{i}.ffn.b2"])
        if drop_rng is not None:
            out = ad.dropout(out, cfg.dropout_p, drop_rng)
        x = ad.add(x, out)

        if not np.all(np.isfinite(x.value)):
            raise ModelError(f"non-finite activation after layer{i}")

    preds = ad.linear(ad.masked_mean(x, counts), p["head.w"], p["head.b"])
    if not np.all(np.isfinite(preds.value)):
        raise ModelError("non-finite activation after head")
    return preds


def compute_target_stats(targets: np.ndarray):
    """Per-column mean/std of a targets matrix; std must be strictly positive."""
    mean = targets.mean(axis=0)
    std = targets.std(axis=0)
    for j, s in enumerate(std):
        if s == 0.0:
            raise StatsDegenerate(f"target column {j} has zero standard deviation")
    return mean, std


def loss_mse(preds: Tensor, targets: np.ndarray, target_stats) -> Tensor:
    """Mean squared error against z-scored targets (stats from the train split)."""
    mean, std = target_stats
    for j, s in enumerate(np.atleast_1d(std)):
        if s == 0.0:
            raise StatsDegenerate(f"target column {j} has zero standard deviation")
    z = (targets - mean) / std
    if preds.shape != z.shape:
        raise ModelError(f"predictions {preds.shape} vs targets {z.shape}")
    return ad.mean_all(ad.square(ad.sub(preds, ad.Tensor(z))))


def backward_pass(model: PredictorModel, tokens: np.ndarray, mask: np.ndarray,
                  targets: np.ndarray, target_stats, dropout_seed: int = 0):
    """Train-mode forward (dropout drawn from dropout_seed) + loss + reverse sweep;
    returns (loss value, grads by name)."""
    preds = encoder_forward(model, tokens, mask, train=True, dropout_seed=dropout_seed)
    loss = loss_mse(preds, targets, target_stats)
    ad.backward(loss)
    grads = {}
    for name, param in model.params.items():
        g = param.grad
        grads[name] = np.zeros_like(param.value) if g is None else g
        if not np.all(np.isfinite(grads[name])):
            raise ModelError(f"non-finite activation after gradient of {name}")
    return float(loss.value), grads


# -- Adam ---------------------------------------------------------------------

def adam_init(model: PredictorModel) -> dict:
    """Step count and the first and second moments of every parameter, held
    flat in parameter order."""
    size = sum(param.value.size for param in model.params.values())
    return {"t": 0, "m": np.zeros(size), "v": np.zeros(size)}


def adam_step(model: PredictorModel, grads: dict, state: dict, lr: float) -> None:
    """In-place Adam update with bias correction, over all parameters at once."""
    for name, param in model.params.items():
        if grads[name].shape != param.value.shape:
            raise ModelError(
                f"gradient for {name}: {grads[name].shape} vs {param.value.shape}")
    state["t"] += 1
    t = state["t"]
    g = np.concatenate([grads[name].reshape(-1) for name in model.params])
    m = state["m"] = ADAM_BETA1 * state["m"] + (1 - ADAM_BETA1) * g
    v = state["v"] = ADAM_BETA2 * state["v"] + (1 - ADAM_BETA2) * g * g
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    step = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    start = 0
    for param in model.params.values():
        end = start + param.value.size
        param.value = param.value - step[start:end].reshape(param.value.shape)
        start = end


# -- Checkpoint I/O -----------------------------------------------------------

def save_model(model: PredictorModel, path) -> None:
    """Magic, `<II` version and config length, JSON config, then every tensor's
    little-endian float64 bytes in `parameter_shapes` order."""
    cfg_json = json.dumps(asdict(model.config)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC + struct.pack("<II", MODEL_FORMAT_VERSION, len(cfg_json)))
        fh.write(cfg_json)
        for name, shape in parameter_shapes(model.config).items():
            value = model.params[name].value
            if value.shape != shape:
                raise ModelError(f"parameter {name}: {value.shape} vs {shape}")
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def load_model(path) -> PredictorModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:7] != MODEL_MAGIC:
        raise CorruptFile("bad magic")
    try:
        version, cfg_len = struct.unpack_from("<II", blob, 7)
        if version != MODEL_FORMAT_VERSION:
            raise VersionMismatch(f"checkpoint version {version}, expected {MODEL_FORMAT_VERSION}")
        offset = 15 + cfg_len
        cfg = EncoderConfig(**json.loads(blob[15:offset].decode("utf-8")))
    except VersionMismatch:
        raise
    except (struct.error, json.JSONDecodeError, TypeError, ValueError) as exc:
        raise CorruptFile(str(exc)) from exc
    # closed form first: a header naming a huge encoder fails without building its layout
    needed = 8 * parameter_count(cfg)
    if len(blob) - offset != needed:
        raise CorruptFile(f"payload is {len(blob) - offset} bytes, config needs {needed}")
    params = {}
    for name, shape in parameter_shapes(cfg).items():
        size = math.prod(shape)
        data = np.frombuffer(blob, dtype="<f8", count=size, offset=offset)
        params[name] = Tensor(data.reshape(shape).astype(np.float64))
        offset += 8 * size
    return PredictorModel(config=cfg, params=params)
