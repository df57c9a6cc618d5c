"""Flat dotted-key run configuration with documented defaults.

Config files are plain UTF-8 text, one `key = value` per line, `#` comments.
A key the command does not read, or one set twice, is rejected so that no
value is silently dropped.
"""
from __future__ import annotations

from .harness import TrainConfig


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
    "train.mode": (_MODEL.mode, str, "tokenization mode: tart (LAP) or pure (node-only)"),
    "tokenizer.d_p": (_MODEL.d_p, int, "tart positional feature width (not read by pure)"),
}


def default_config() -> dict:
    return {key: spec[0] for key, spec in DEFAULTS.items()}


def load_config(path=None, unread=()) -> dict:
    """Defaults, then file values; the file sets each key at most once.

    A key not in DEFAULTS or in unread (keys the calling command sets itself:
    compare runs both modes), a repeated key, an undecodable line, an
    unparsable value and a tokenizer.d_p that a pure train.mode would not
    read raise ConfigError naming path:line. The dataclasses the values build
    check their ranges.
    """
    cfg = default_config()
    if path is None:
        return cfg
    set_on = {}
    with open(path, "rb") as fh:
        for line_no, raw_line in enumerate(fh, start=1):
            where = f"{path}:{line_no}"
            try:
                stripped = raw_line.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{where}: not UTF-8: {exc}") from exc
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{where}: expected 'key = value'")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{where}: unknown config key: {key!r}")
            if key in unread:
                raise ConfigError(f"{where}: this command does not read {key!r}")
            if key in set_on:
                raise ConfigError(f"{where}: {key!r} is already set on line {set_on[key]}")
            set_on[key] = line_no
            try:
                cfg[key] = DEFAULTS[key][1](raw)
            except ValueError as exc:
                raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    if cfg["train.mode"] == "pure" and "tokenizer.d_p" in set_on:
        raise ConfigError(f"{path}:{set_on['tokenizer.d_p']}: a pure model does not read "
                          "'tokenizer.d_p'")
    return cfg


def reference_doc() -> str:
    """Human-readable listing of every key with default and description."""
    lines = ["Configuration keys (key = default  # description):"]
    for key, (default, _, help_text) in DEFAULTS.items():
        lines.append(f"  {key} = {default}  # {help_text}")
    return "\n".join(lines)
