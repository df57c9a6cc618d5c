"""Flat dotted-key run configuration with documented defaults.

Config files are plain text, one `key = value` per line, `#` comments.
Unknown keys are rejected so typos fail loudly.
"""
from __future__ import annotations

from .harness import TrainConfig
from .tokens import MODES


class ConfigError(ValueError):
    pass


_TRAIN = TrainConfig()
_MODEL = _TRAIN.model

# key -> (default, parser, help); model and train defaults live on the dataclasses
DEFAULTS = {
    "model.n_layer": (_MODEL.n_layer, int, "encoder layers"),
    "model.d_model": (_MODEL.d_model, int, "embedding width"),
    "model.n_heads": (_MODEL.n_heads, int, "attention heads (must divide d_model)"),
    "model.d_ff": (_MODEL.d_ff, int, "feed-forward hidden width"),
    "model.dropout": (_MODEL.dropout_p, float, "dropout probability in [0, 1)"),
    "train.epochs": (_TRAIN.epochs, int, "training epochs"),
    "train.batch_size": (_TRAIN.batch_size, int, "minibatch size"),
    "train.lr": (_TRAIN.lr, float, "Adam learning rate"),
    "train.mode": (_TRAIN.mode, str, "tokenization mode: tart (LAP) or pure (node-only)"),
    "tokenizer.d_p": (_MODEL.d_p, int, "tart positional feature width (no effect on pure)"),
    "harness.trials": (5, int, "trials per experiment (averaged)"),
}

# checked at parse time: `compare` overrides train.mode, so no later check sees a bad value
_VALID_CHOICES = {"train.mode": MODES}


def default_config() -> dict:
    return {key: spec[0] for key, spec in DEFAULTS.items()}


def parse_value(key: str, raw: str):
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key: {key!r}")
    _, parser, _ = DEFAULTS[key]
    try:
        value = parser(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    if key in _VALID_CHOICES and value not in _VALID_CHOICES[key]:
        raise ConfigError(f"{key!r} must be one of {_VALID_CHOICES[key]}, got {value!r}")
    return value


def load_config(path=None) -> dict:
    """Defaults, then file values."""
    cfg = default_config()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
                key, raw = (part.strip() for part in stripped.split("=", 1))
                cfg[key] = parse_value(key, raw)
    return cfg


def reference_doc() -> str:
    """Human-readable listing of every key with default and description."""
    lines = ["Configuration keys (key = default  # description):"]
    for key, (default, _, help_text) in DEFAULTS.items():
        lines.append(f"  {key} = {default}  # {help_text}")
    return "\n".join(lines)
