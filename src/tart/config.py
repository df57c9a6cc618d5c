"""Flat dotted-key run configuration with documented defaults.

Config files are plain text, one `key = value` per line, `#` comments.
Unknown keys are rejected so typos fail loudly.
"""
from __future__ import annotations

from .tokens import MODES


class ConfigError(ValueError):
    pass


# key -> (default, parser, help)
DEFAULTS = {
    "model.n_layer": (2, int, "encoder layers"),
    "model.d_model": (32, int, "embedding width"),
    "model.n_heads": (4, int, "attention heads (must divide d_model)"),
    "model.d_ff": (128, int, "feed-forward hidden width"),
    "model.dropout": (0.1, float, "dropout probability in [0, 1)"),
    "train.epochs": (30, int, "training epochs"),
    "train.batch_size": (32, int, "minibatch size"),
    "train.lr": (1e-3, float, "Adam learning rate"),
    "train.mode": ("tart", str, "tokenization mode: tart (LAP) or pure (node-only)"),
    "tokenizer.d_p": (3, int, "positional feature width"),
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


def load_config(path=None, overrides=None) -> dict:
    """Defaults, then file values, then explicit overrides."""
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
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key!r}")
        cfg[key] = value
    return cfg


def reference_doc() -> str:
    """Human-readable listing of every key with default and description."""
    lines = ["Configuration keys (key = default  # description):"]
    for key, (default, _, help_text) in DEFAULTS.items():
        lines.append(f"  {key} = {default}  # {help_text}")
    return "\n".join(lines)
