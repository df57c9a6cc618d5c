"""Transformer-encoder regressor: config, forward pass, loss, Adam, checkpoints.

Pre-layer-norm encoder blocks (masked multi-head self-attention +
feed-forward with the tanh form of GELU, both residual), mean pooling over
real tokens, and a single linear head mapping to the four performance
targets. Each sublayer is one autodiff op (autodiff.self_attention and
autodiff.feed_forward). The encoder runs on packed rows: a batch's real token
rows are gathered into one (T, ·) array, so projections, layer norms, the
feed-forward net, residual adds and pooling never touch padding. Attention's
score, softmax and context matmuls run on block-diagonal rows: the batch's
samples are packed, first-fit decreasing, into as few rows of the longest
sample's length as they fit, and each query sees only its own sample's keys
(Krell et al., arXiv:2107.02027): the packing's owner array goes to the
attention op, which builds each score block's mask from it, and the softmax
exponentiates only the pairs it lets through. When every sample fills its
own row (one graph, or graphs of one length), the rows are the batch
reshaped, and nothing is packed, masked or scattered.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict, field, fields
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


@dataclass(eq=False)
class PredictorModel:
    """An encoder's config and one float64 buffer, `flat`, of parameter_count(config)
    values in `parameter_shapes` order; each Tensor in params (by name) views it."""
    config: EncoderConfig
    flat: np.ndarray
    params: dict = field(init=False, repr=False)

    def __post_init__(self):
        size = parameter_count(self.config)
        if self.flat.dtype != np.float64 or self.flat.shape != (size,):
            raise ModelError(f"parameter buffer is {self.flat.dtype} {self.flat.shape}, "
                             f"config needs float64 ({size},)")
        self.params, start = {}, 0
        for name, shape in parameter_shapes(self.config).items():
            end = start + math.prod(shape)
            self.params[name] = Tensor(self.flat[start:end].reshape(shape))
            start = end


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


def init_model(config: EncoderConfig, seed: int) -> PredictorModel:
    """Matrices drawn in checkpoint order; layer-norm gains 1, every other vector 0."""
    rng = np.random.default_rng(seed)
    model = PredictorModel(config, np.empty(parameter_count(config)))
    for name, param in model.params.items():
        shape = param.value.shape
        if len(shape) == 2:  # fan_in + fan_out = sum(shape)
            param.value[...] = rng.normal(0.0, np.sqrt(2.0 / sum(shape)), size=shape)
        else:
            param.value[...] = 1.0 if name.endswith(".g") else 0.0
    return model


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


def encoder_forward(model: PredictorModel, tokens: np.ndarray, mask: np.ndarray,
                    train: bool = False, dropout_seed: int = 0) -> Tensor:
    """Predict targets for a padded batch.

    tokens: B x R x C float64, mask: B x R bool. The real rows are packed
    into one (T, C) array in sample order, so every row-wise op runs on
    real rows only. Attention packs the samples into as few rows as fit
    (see pack_rows), and the packing's owner array keeps each sample to its
    own tokens. A sample's output depends on its real rows alone, not on
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

    b, width = mask.shape
    if np.all(counts == width):
        # every sample fills its own attention row: nothing to pack, mask or scatter
        layout, owner, slots = (b, width), None, None
        rows = tokens.reshape(b * width, tokens.shape[-1])
    else:
        owner, slots = pack_rows(counts)
        layout = owner.shape
        rows = tokens[mask]
    x = ad.linear(Tensor(rows), p["input_proj.w"], p["input_proj.b"])

    for i in range(cfg.n_layer):
        normed = ad.layer_norm(x, p[f"layer{i}.ln1.g"], p[f"layer{i}.ln1.b"])
        weights = [p[f"layer{i}.attn.{kind}{part}"] for part in "qkvo" for kind in "wb"]
        attn = ad.self_attention(normed, weights, cfg.n_heads, layout, slots, owner,
                                 cfg.dropout_p, drop_rng)
        x = ad.add(x, ad.dropout(attn, cfg.dropout_p, drop_rng))

        normed = ad.layer_norm(x, p[f"layer{i}.ln2.g"], p[f"layer{i}.ln2.b"])
        out = ad.feed_forward(normed, p[f"layer{i}.ffn.w1"], p[f"layer{i}.ffn.b1"],
                              p[f"layer{i}.ffn.w2"], p[f"layer{i}.ffn.b2"])
        x = ad.add(x, ad.dropout(out, cfg.dropout_p, drop_rng))

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


def loss_mse(preds: Tensor, z: np.ndarray) -> Tensor:
    """Mean squared error against targets already z-scored with the train split's stats."""
    if preds.shape != z.shape:
        raise ModelError(f"predictions {preds.shape} vs targets {z.shape}")
    return ad.mean_all(ad.square(ad.sub(preds, ad.Tensor(z))))


def backward_pass(model: PredictorModel, tokens: np.ndarray, mask: np.ndarray,
                  z: np.ndarray, *, dropout_seed: int = 0):
    """Train-mode forward (dropout drawn from dropout_seed) + loss against the z-scored
    targets z + reverse sweep; returns (loss value, gradient laid out as model.flat)."""
    preds = encoder_forward(model, tokens, mask, train=True, dropout_seed=dropout_seed)
    loss = loss_mse(preds, z)
    ad.backward(loss)
    params = model.params.values()
    grad = np.concatenate([param.grad.reshape(-1) for param in params])
    for param in params:
        param.grad = None  # the gradient lives in grad alone
    if not np.all(np.isfinite(grad)):
        ends = accumulate(param.value.size for param in params)
        name = next(n for n, end in zip(model.params, ends) if not np.isfinite(grad[:end]).all())
        raise ModelError(f"non-finite activation after gradient of {name}")
    return float(loss.value), grad


# -- Adam ---------------------------------------------------------------------

def adam_init(model: PredictorModel) -> dict:
    """Step count and the first and second moments, each laid out as model.flat."""
    return {"t": 0, "m": np.zeros(model.flat.size), "v": np.zeros(model.flat.size)}


def _check_views(model: PredictorModel) -> None:
    for name, param in model.params.items():
        if not np.shares_memory(param.value, model.flat):
            raise ModelError(f"parameter {name} no longer views the model's buffer")


def adam_step(model: PredictorModel, grad: np.ndarray, state: dict, lr: float) -> None:
    """In-place Adam update with bias correction, over all parameters at once,
    on model.flat, from a gradient laid out as model.flat (see backward_pass)."""
    _check_views(model)
    if grad.shape != model.flat.shape:
        raise ModelError(f"gradient shape {grad.shape}, parameter buffer {model.flat.shape}")
    state["t"] += 1
    t = state["t"]
    m, v = state["m"], state["v"]
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += ((1 - ADAM_BETA2) * grad) * grad
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    model.flat -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- Checkpoint I/O -----------------------------------------------------------

def save_model(model: PredictorModel, path) -> None:
    """Magic, `<II` version and config length, JSON config, then model.flat's
    little-endian float64 bytes, which lay the tensors out in `parameter_shapes` order."""
    _check_views(model)
    cfg_json = json.dumps(asdict(model.config)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC + struct.pack("<II", MODEL_FORMAT_VERSION, len(cfg_json))
                 + cfg_json + model.flat.astype("<f8").tobytes())


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
        header = json.loads(blob[15:offset].decode("utf-8"))
        names = [f.name for f in fields(EncoderConfig)]
        if not isinstance(header, dict) or set(header) != set(names):
            raise CorruptFile(f"header must hold exactly the keys {', '.join(names)}")
        cfg = EncoderConfig(**header)
    except (VersionMismatch, CorruptFile):
        raise
    except (struct.error, json.JSONDecodeError, TypeError, ValueError, RecursionError) as exc:
        raise CorruptFile(str(exc)) from exc
    # closed form first: a header naming a huge encoder fails without building its layout
    needed = 8 * parameter_count(cfg)
    if len(blob) - offset != needed:
        raise CorruptFile(f"payload is {len(blob) - offset} bytes, config needs {needed}")
    return PredictorModel(cfg, np.frombuffer(blob, dtype="<f8", offset=offset).astype(np.float64))
