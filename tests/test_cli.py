import inspect
import json
import struct
from dataclasses import replace
from types import SimpleNamespace

import pytest

from tart import cli
from tart import config
from tart import graphs as gc
from tart import harness as hn
from tart import model as md
from tart import tokens as tk
from tart.harness import TrainConfig, evaluate_predictor
from tart.model import load_model


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY_CONFIG = """\
# tiny settings for fast tests
model.n_layer = 1
model.d_model = 8
model.n_heads = 2
model.d_ff = 16
model.dropout = 0.0
train.epochs = 1
train.batch_size = 8
train.lr = 0.001
"""


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    records = gc.generate_synthetic(24, 8, 0.4, 0.05, seed=3)
    gc.write_dataset(records, path)
    return path


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestGen:
    def test_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        code, stdout, _ = run(capsys, "gen", "--count", "40", "--max-nodes", "16",
                              "--seed", "7", "--out", str(out))
        assert code == 0
        assert "wrote 40 graphs" in stdout
        assert len(out.read_text().splitlines()) == 40

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            code, _, _ = run(capsys, "gen", "--count", "15", "--seed", "9",
                             "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags,named", [
        (["--density", "0"], "edge_density"), (["--noise", "nan"], "noise_sigma"),
        (["--noise", "inf"], "noise_sigma"), (["--seed", "-1"], "--seed"),
    ], ids=["density-0", "noise-nan", "noise-inf", "seed-minus-1"])
    def test_zero_density_exit_2(self, tmp_path, capsys, flags, named):
        try:
            code = cli.main(["gen", *flags, "--out", str(tmp_path / "x.jsonl")])
        except SystemExit as exc:  # argparse rejects a bad --seed before gen runs
            code = exc.code
        assert code == 2
        assert named in capsys.readouterr().err

    def test_invalid_env_seed_exit_2(self, tmp_path, capsys, monkeypatch):
        # TART_SEED is --seed's default, so it gets the same check
        monkeypatch.setenv("TART_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--out", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestTokenize:
    def test_lap_shape_report(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        g = {"id": "g0", "num_nodes": 5, "node_ops": [1, 4, 4, 7, 15],
             "edges": [[0, 1], [1, 2], [1, 3], [2, 4]]}
        data.write_text(json.dumps(g) + "\n")
        out = tmp_path / "t.bin"
        code, stdout, _ = run(capsys, "tokenize", "--in", str(data), "--out", str(out),
                              "--mode", "tart")
        assert code == 0
        assert "g0: 9 x 11" in stdout
        assert len(tk.read_token_file(out)) == 1

    def test_node_only_shape(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        g = {"id": "g0", "num_nodes": 5, "node_ops": [1, 4, 4, 7, 15],
             "edges": [[0, 1], [1, 2], [1, 3], [2, 4]]}
        data.write_text(json.dumps(g) + "\n")
        code, stdout, _ = run(capsys, "tokenize", "--in", str(data),
                              "--out", str(tmp_path / "t.bin"), "--mode", "pure")
        assert code == 0
        assert "g0: 5 x 5" in stdout

    def test_cyclic_graph_exit_2_names_id(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        g = {"id": "bad1", "num_nodes": 2, "node_ops": [1, 1],
             "edges": [[0, 1], [1, 0]]}
        data.write_text(json.dumps(g) + "\n")
        code, _, err = run(capsys, "tokenize", "--in", str(data),
                           "--out", str(tmp_path / "t.bin"))
        assert code == 2
        assert "bad1" in err

    @pytest.mark.parametrize("field,value", [
        ("num_nodes", 2.7), ("node_ops", [1, 4.9]), ("edges", [[0, 1.5]])])
    def test_non_integer_graph_field_exit_2(self, tmp_path, capsys, field, value):
        data = tmp_path / "d.jsonl"
        g = {"id": "bad2", "num_nodes": 2, "node_ops": [1, 4], "edges": [[0, 1]]}
        g[field] = value
        data.write_text(json.dumps(g) + "\n")
        code, _, err = run(capsys, "tokenize", "--in", str(data),
                           "--out", str(tmp_path / "t.bin"))
        assert code == 2
        assert "line 1" in err and "must be an integer" in err

    def test_negative_d_p_exit_2(self, dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tokenize", "--in", str(dataset), "--out", str(tmp_path / "t.bin"),
                      "--d-p", "-1"])
        assert exc.value.code == 2
        assert "--d-p" in capsys.readouterr().err

    def test_reduction_ratio_printed(self, dataset, tmp_path, capsys):
        code, stdout, _ = run(capsys, "tokenize", "--in", str(dataset),
                              "--out", str(tmp_path / "t.bin"))
        assert code == 0
        assert "reduction ratio" in stdout


class TestTrain:
    def test_history_csv_one_epoch(self, dataset, config_file, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        code, _, _ = run(capsys, "train", "--config", str(config_file),
                         "--data", str(dataset), "--seed", "1",
                         "--out-model", str(tmp_path / "m.ckpt"), "--history", str(hist))
        assert code == 0
        lines = hist.read_text().splitlines()
        assert lines[0] == "epoch,loss,tau_clean,tau_noisy,tau_inf,tau_conv"
        assert len(lines) == 2

    def test_same_seed_identical_checkpoint(self, dataset, config_file, tmp_path, capsys):
        paths = []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"{tag}.ckpt"
            code, _, _ = run(capsys, "train", "--config", str(config_file),
                             "--data", str(dataset), "--seed", "4",
                             "--out-model", str(ckpt),
                             "--history", str(tmp_path / f"{tag}.csv"))
            assert code == 0
            paths.append(ckpt)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_missing_data_exit_1(self, config_file, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--config", str(config_file),
                           "--data", str(tmp_path / "nope.jsonl"),
                           "--out-model", str(tmp_path / "m.ckpt"),
                           "--history", str(tmp_path / "h.csv"))
        assert code == 1
        assert "nope.jsonl" in err

    def test_unknown_config_key_exit_2(self, dataset, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.n_layers = 3\n")
        code, _, err = run(capsys, "train", "--config", str(bad),
                           "--data", str(dataset),
                           "--out-model", str(tmp_path / "m.ckpt"),
                           "--history", str(tmp_path / "h.csv"))
        assert code == 2
        assert "n_layers" in err

    @pytest.mark.parametrize("frac", ["-0.5", "0", "1.5"])
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_train_frac_out_of_range_exit_2(self, command, frac, dataset, config_file,
                                            tmp_path, capsys):
        outputs = (["--out-model", str(tmp_path / "m.ckpt"), "--history", str(tmp_path / "h.csv")]
                   if command == "train" else ["--out-csv", str(tmp_path / "c.csv")])
        code, _, err = run(capsys, command, "--config", str(config_file),
                           "--data", str(dataset), "--train-frac", frac, *outputs)
        assert code == 2
        assert "--train-frac" in err

    @pytest.mark.parametrize("setting,named", [("model.n_heads = 3", "n_heads"),
                                               ("tokenizer.d_p = -1", "d_p"),
                                               ("model.d_model = 0", "d_model"),
                                               ("model.n_heads = 0", "n_heads"),
                                               ("model.d_ff = 0", "d_ff"),
                                               ("model.n_layer = -1", "n_layer"),
                                               ("train.batch_size = -1", "batch_size"),
                                               ("train.batch_size = 0", "batch_size"),
                                               ("train.lr = -0.01", "lr"),
                                               ("train.lr = 0", "lr"),
                                               ("train.lr = nan", "lr")])
    def test_invalid_model_setting_exit_2(self, setting, named, dataset, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG + setting + "\n")
        code, _, err = run(capsys, "train", "--config", str(cfg), "--data", str(dataset),
                           "--out-model", str(tmp_path / "m.ckpt"),
                           "--history", str(tmp_path / "h.csv"))
        assert code == 2
        assert named in err

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_constant_target_exit_3(self, command, config_file, tmp_path, capsys):
        data = tmp_path / "flat.jsonl"
        records = gc.generate_synthetic(12, 8, 0.4, 0.05, seed=3)
        gc.write_dataset([replace(r, targets=replace(r.targets, inference_speed=0.5))
                          for r in records], data)
        outputs = (["--out-model", str(tmp_path / "m.ckpt"), "--history", str(tmp_path / "h.csv")]
                   if command == "train" else ["--out-csv", str(tmp_path / "c.csv")])
        code, _, err = run(capsys, command, "--config", str(config_file),
                           "--data", str(data), *outputs)
        assert code == 3
        assert "target column 2 has zero standard deviation" in err

    def test_zero_epochs_exit_2(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(TINY_CONFIG.replace("train.epochs = 1", "train.epochs = 0"))
        code, _, err = run(capsys, "train", "--config", str(cfg), "--data", str(dataset),
                           "--out-model", str(tmp_path / "m.ckpt"),
                           "--history", str(tmp_path / "h.csv"))
        assert code == 2
        assert "epochs" in err


# A valid non-default value for every config key.
NON_DEFAULT = {
    "model.n_layer": "3",
    "model.d_model": "16",
    "model.n_heads": "2",
    "model.d_ff": "64",
    "model.dropout": "0.2",
    "train.epochs": "7",
    "train.batch_size": "8",
    "train.lr": "0.01",
    "train.mode": "pure",
    "tokenizer.d_p": "4",
    "harness.trials": "2",
}


@pytest.mark.parametrize("key", sorted(config.DEFAULTS))
def test_every_config_key_has_an_effect(key, dataset, tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "one.cfg"
    cfg_path.write_text(f"{key} = {NON_DEFAULT[key]}\n")
    cfg = config.load_config(cfg_path)
    assert cfg[key] != config.DEFAULTS[key][0]
    if key != "harness.trials":
        assert cli._train_config(cfg, 0) != cli._train_config(config.default_config(), 0)
        return

    trial_counts = []

    def fake_compare_modes(split, cfg_pure, cfg_tart, n_trials, base_seed):
        trial_counts.append(n_trials)
        return SimpleNamespace(to_text=lambda: "", to_csv=lambda: "")

    monkeypatch.setattr(cli, "compare_modes", fake_compare_modes)
    assert run(capsys, "compare", "--data", str(dataset))[0] == 0
    assert run(capsys, "compare", "--data", str(dataset), "--config", str(cfg_path))[0] == 0
    assert trial_counts == [config.DEFAULTS[key][0], cfg[key]]


def test_default_config_builds_the_dataclass_defaults():
    assert cli._train_config(config.default_config(), 0) == TrainConfig(seed=0)


class TestEvalAndCompare:
    def test_eval_prints_tau_json(self, dataset, config_file, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        code, _, _ = run(capsys, "train", "--config", str(config_file),
                         "--data", str(dataset), "--seed", "0",
                         "--out-model", str(ckpt), "--history", str(tmp_path / "h.csv"))
        assert code == 0
        code, stdout, _ = run(capsys, "eval", "--model", str(ckpt),
                              "--data", str(dataset))
        assert code == 0
        table = json.loads(stdout)
        assert set(table) == set(gc.TARGET_NAMES)

    def test_eval_uses_the_checkpoint_tokenizer(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "pure.cfg"
        cfg.write_text(TINY_CONFIG + "train.mode = pure\ntokenizer.d_p = 4\n")
        ckpt = tmp_path / "m.ckpt"
        code, _, _ = run(capsys, "train", "--config", str(cfg), "--data", str(dataset),
                         "--out-model", str(ckpt), "--history", str(tmp_path / "h.csv"))
        assert code == 0
        code, stdout, _ = run(capsys, "eval", "--model", str(ckpt), "--data", str(dataset))
        assert code == 0
        expected = evaluate_predictor(load_model(ckpt), gc.read_dataset(dataset))
        assert stdout == json.dumps(expected, indent=2) + "\n"

    # a version-3 file, a header whose n_layer is a float, and a pure header over the
    # 11-wide input_proj that pure checkpoints had before their rows were 5 wide
    @pytest.mark.parametrize("version,header",
                             [(3, {}), (md.MODEL_FORMAT_VERSION, {"n_layer": 1.0}),
                              (md.MODEL_FORMAT_VERSION, {"mode": "pure"})])
    def test_eval_bad_checkpoint_exit_1(self, version, header, dataset, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        md.save_model(md.init_model(md.EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=16),
                                    seed=0), ckpt)
        blob = ckpt.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", blob, 11)
        cfg_json = json.dumps({**json.loads(blob[15:15 + cfg_len]), **header}).encode()
        ckpt.write_bytes(blob[:7] + struct.pack("<II", version, len(cfg_json)) + cfg_json
                         + blob[15 + cfg_len:])
        code, _, err = run(capsys, "eval", "--model", str(ckpt), "--data", str(dataset))
        assert code == 1
        assert err.startswith("error: ")

    # without allow_abbrev=False, eval's --mode would be read as a prefix of --model
    @pytest.mark.parametrize("argv", [["eval", "--model", "m.ckpt", "--mode", "pure"],
                                      ["compare", "--epochs", "3"]],
                             ids=["eval-mode", "compare-epochs"])
    def test_eval_removed_mode_flag_exit_2(self, argv, dataset, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--data", str(dataset)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_eval_empty_dataset_exit_2(self, dataset, config_file, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        code, _, _ = run(capsys, "train", "--config", str(config_file), "--data", str(dataset),
                         "--out-model", str(ckpt), "--history", str(tmp_path / "h.csv"))
        assert code == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, err = run(capsys, "eval", "--model", str(ckpt), "--data", str(empty))
        assert code == 2
        assert "empty test set" in err

    def test_compare_csv_row_count(self, dataset, config_file, tmp_path, capsys):
        csv_path = tmp_path / "c.csv"
        code, stdout, _ = run(capsys, "compare", "--config", str(config_file),
                              "--data", str(dataset), "--trials", "2",
                              "--seed", "0", "--out-csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2 * 4  # header + modes x seeds x targets
        assert "not reproduced" in stdout

    def test_compare_deterministic_csv(self, dataset, config_file, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"{tag}.csv"
            code, _, _ = run(capsys, "compare", "--config", str(config_file),
                             "--data", str(dataset), "--trials", "1",
                             "--seed", "3", "--out-csv", str(csv_path))
            assert code == 0
            outs.append(csv_path.read_bytes())
        assert outs[0] == outs[1]

    def test_env_seed_used_as_default(self, dataset, config_file, tmp_path,
                                      capsys, monkeypatch):
        monkeypatch.setenv("TART_SEED", "11")
        csv_env = tmp_path / "env.csv"
        code, _, _ = run(capsys, "compare", "--config", str(config_file),
                         "--data", str(dataset), "--trials", "1",
                         "--out-csv", str(csv_env))
        assert code == 0
        csv_flag = tmp_path / "flag.csv"
        code, _, _ = run(capsys, "compare", "--config", str(config_file),
                         "--data", str(dataset), "--trials", "1", "--seed", "11",
                         "--out-csv", str(csv_flag))
        assert code == 0
        assert csv_env.read_bytes() == csv_flag.read_bytes()


# every exception class the package defines, and the exit code the CLI gives it
EXIT_CODES = {
    gc.GraphError: 1, gc.InvalidSpec: 2, gc.ParseError: 2, gc.ValidationError: 2,
    tk.TokenizerError: 1, md.ModelError: 1, md.StatsDegenerate: 3, md.VersionMismatch: 1,
    md.CorruptFile: 1, hn.HarnessError: 2, hn.DegenerateInput: 3, config.ConfigError: 2,
}
# constructor arguments of the classes that take more than a message
ERROR_ARGS = {gc.ParseError: (3, "bad value"), gc.ValidationError: ("r1", gc.InvalidSpec("x")),
              md.StatsDegenerate: (0,)}


class TestExitCodes:
    def test_every_error_class_has_an_exit_code(self):
        defined = {cls for module in (gc, tk, md, hn, config)
                   for _, cls in inspect.getmembers(module, inspect.isclass)
                   if issubclass(cls, Exception) and cls.__module__ == module.__name__}
        assert defined == set(EXIT_CODES)

    @pytest.mark.parametrize("error", EXIT_CODES, ids=lambda cls: cls.__name__)
    def test_error_exit_code(self, error, capsys, monkeypatch):
        exc = error(*ERROR_ARGS.get(error, ("bad value",)))

        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_eval", fail)
        code, stdout, err = run(capsys, "eval", "--model", "m.ckpt", "--data", "d.jsonl")
        assert code == EXIT_CODES[error]
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and err.endswith(f"{exc}\n")


class TestHelp:
    @pytest.mark.parametrize("command", ["gen", "tokenize", "train", "eval", "compare"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        stdout = capsys.readouterr().out
        assert "--" in stdout
