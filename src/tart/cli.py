"""Command-line entry point: gen, tokenize, train, eval, compare.

Every command is reproducible: (flags, config file, seed) fully determine
the outputs. Exit codes: 0 success, 1 runtime/I-O error, 2 invalid input,
3 degenerate statistics.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import graphs as gc
from . import tokens as tk
from .config import ConfigError, load_config, reference_doc
from .harness import (HarnessError, TrainConfig, compare_modes, evaluate_predictor,
                      train_predictor)
from .model import EncoderConfig, ModelError, StatsDegenerate, load_model, save_model

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3

HISTORY_HEADER = "epoch,loss,tau_clean,tau_noisy,tau_inf,tau_conv"


def _non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a removed flag must fail, not be read as a prefix of another one
    common = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter, allow_abbrev=False)
    # a string default goes through the option's type, so TART_SEED gets --seed's check
    seed_default = os.environ.get("TART_SEED", "0")
    parser = argparse.ArgumentParser(
        prog="tart",
        description="Tokenize architecture graphs and train/evaluate performance predictors.",
        **common,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic labeled dataset (JSONL)", **common)
    p.add_argument("--count", type=int, default=400, help="number of graphs")
    p.add_argument("--max-nodes", type=int, default=16, help="upper bound on nodes per graph")
    p.add_argument("--density", type=float, default=0.3,
                   help="edge inclusion probability in (0, 1]")
    p.add_argument("--noise", type=float, default=0.02, help="label noise sigma")
    p.add_argument("--seed", type=_non_negative_int, default=seed_default,
                   help="RNG seed (TART_SEED env if set)")
    p.add_argument("--out", required=True, help="output JSONL path")

    p = sub.add_parser("tokenize", help="dump binary token matrices for a dataset", **common)
    p.add_argument("--in", dest="input", required=True, help="input JSONL dataset")
    p.add_argument("--out", required=True, help="output binary token file")
    p.add_argument("--mode", choices=tk.MODES, default="tart", help="tokenization mode")
    p.add_argument("--d-p", type=_non_negative_int, default=None,
                   help=f"tart positional feature width, {tk.DEFAULT_D_P} if not given; "
                        "an error with --mode pure")

    p = sub.add_parser("train", help="train a predictor and write checkpoint + history CSV",
                       epilog=reference_doc(), **common)
    p.add_argument("--config", default=None, help="config file (key = value lines)")
    p.add_argument("--data", required=True, help="labeled JSONL dataset")
    p.add_argument("--seed", type=_non_negative_int, default=seed_default,
                   help="training seed (TART_SEED env if set)")
    p.add_argument("--train-frac", type=float, default=0.5,
                   help="fraction of records used for training, in (0, 1]; rest is held out")
    p.add_argument("--out-model", required=True, help="checkpoint output path")
    p.add_argument("--history", required=True, help="per-epoch history CSV output path")

    p = sub.add_parser("eval", help="evaluate a checkpoint: per-target Kendall-Tau JSON", **common)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="labeled JSONL dataset")

    p = sub.add_parser("compare",
                       help="run the node-only (pure) baseline vs tart tokens at equal epochs",
                       epilog=reference_doc(), **common)
    p.add_argument("--config", default=None, help="config file (key = value lines)")
    p.add_argument("--data", required=True, help="labeled JSONL dataset")
    p.add_argument("--trials", type=int, default=5, help="trials per mode, averaged")
    p.add_argument("--seed", type=_non_negative_int, default=seed_default,
                   help="seed of the split and the first trial (TART_SEED env if set)")
    p.add_argument("--train-frac", type=float, default=0.5,
                   help="fraction of records used for training, in (0, 1]")
    p.add_argument("--out-csv", default=None, help="write long-format comparison CSV here")
    return parser


def _load_split(path: str, train_frac: float, seed: int) -> gc.DatasetSplit:
    if not 0.0 < train_frac <= 1.0:
        raise gc.InvalidSpec(f"--train-frac must be in (0, 1], got {train_frac}")
    records = gc.read_dataset(path)
    n_train = int(round(train_frac * len(records)))
    return gc.split_dataset(records, n_train, seed)


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    try:
        model = EncoderConfig(
            n_layer=cfg["model.n_layer"], d_model=cfg["model.d_model"],
            n_heads=cfg["model.n_heads"], d_ff=cfg["model.d_ff"],
            dropout_p=cfg["model.dropout"],
            mode=cfg["train.mode"], d_p=cfg["tokenizer.d_p"],
        )
    except ModelError as exc:
        raise ConfigError(f"invalid model settings: {exc}") from exc
    return TrainConfig(
        epochs=cfg["train.epochs"], batch_size=cfg["train.batch_size"], seed=seed, model=model,
        mode=model.mode, lr=cfg["train.lr"],
    )


def _history_csv(history) -> str:
    lines = [HISTORY_HEADER]
    for entry in history:
        tau = entry.get("tau")
        if tau is None:
            taus = ["", "", "", ""]
        else:
            taus = [f"{tau[name]:.10f}" for name in gc.TARGET_NAMES]
        lines.append(f"{entry['epoch']},{entry['loss']:.10f}," + ",".join(taus))
    return "\n".join(lines) + "\n"


def cmd_gen(args) -> int:
    # the arguments are checked here, before the output file is opened
    records = gc.iter_synthetic(args.count, args.max_nodes, args.density, args.noise, args.seed)
    node_hist = Counter()
    edge_hist = Counter()

    def counted():  # each record is counted and written as it is generated
        for rec in records:
            node_hist[rec.graph.num_nodes] += 1
            edge_hist[rec.graph.num_edges] += 1
            yield rec

    gc.write_dataset(counted(), args.out)
    print(f"wrote {node_hist.total()} graphs to {args.out}")
    print("nodes: " + " ".join(f"{k}:{node_hist[k]}" for k in sorted(node_hist)))
    print("edges: " + " ".join(f"{k}:{edge_hist[k]}" for k in sorted(edge_hist)))
    return EXIT_OK


def cmd_tokenize(args) -> int:
    if args.mode == "pure" and args.d_p is not None:
        raise ConfigError("--d-p sets the tart positional width; --mode pure does not read it")
    records = gc.read_dataset(args.input)
    mats = tk.tokenize_many([r.graph for r in records], args.mode, d_p=args.d_p)
    token_elements = 0
    onehot_elements = 0
    for rec, m in zip(records, mats):
        print(f"{rec.id}: {m.shape[0]} x {m.shape[1]}")
        token_elements += m.size
        onehot_elements += tk.one_hot_element_count(rec.graph)
    tk.write_token_file(args.out, [(r.id, m) for r, m in zip(records, mats)])
    ratio = token_elements / onehot_elements if onehot_elements else float("nan")
    print(f"corpus token elements: {token_elements}, one-hot elements: {onehot_elements}, "
          f"reduction ratio: {ratio:.4f}")
    return EXIT_OK


def cmd_train(args) -> int:
    tcfg = _train_config(load_config(args.config), args.seed)
    split = _load_split(args.data, args.train_frac, args.seed)
    model, history = train_predictor(split, tcfg)
    save_model(model, args.out_model)
    with open(args.history, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_history_csv(history))
    last = history[-1]
    print(f"trained {tcfg.model.mode} model: {tcfg.epochs} epochs, final loss {last['loss']:.6f}")
    if "tau" in last:
        print("test tau: " + json.dumps(last["tau"]))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    records = gc.read_dataset(args.data)
    print(json.dumps(evaluate_predictor(model, records), indent=2))
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _train_config(load_config(args.config, unread={"train.mode"}), args.seed)
    split = _load_split(args.data, args.train_frac, args.seed)
    comparison = compare_modes(split, cfg, n_trials=args.trials)
    print(comparison.to_text())
    csv_text = comparison.to_csv()
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
    else:
        print(csv_text, end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "tokenize": cmd_tokenize, "train": cmd_train,
                "eval": cmd_eval, "compare": cmd_compare}
    try:
        return handlers[args.command](args)
    except StatsDegenerate as exc:
        print(f"error: degenerate statistics: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (gc.InvalidSpec, gc.ParseError, ConfigError, HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
