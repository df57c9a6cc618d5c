import hashlib
import inspect
import json
import struct
from dataclasses import replace

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


def command_outputs(command, tmp_path):
    if command == "train":
        return ["--out-model", str(tmp_path / "m.ckpt"), "--history", str(tmp_path / "h.csv")]
    return ["--out-csv", str(tmp_path / "c.csv")]


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
        out = tmp_path / "x.jsonl"
        out.write_text("old\n")
        try:
            code = cli.main(["gen", *flags, "--out", str(out)])
        except SystemExit as exc:  # argparse rejects a bad --seed before gen runs
            code = exc.code
        assert code == 2
        assert named in capsys.readouterr().err
        assert out.read_text() == "old\n"  # checked before the file is opened

    def test_histograms_and_bytes_are_pinned(self, tmp_path, capsys):
        # stdout and file SHA-256 as written before gen streamed its records
        out = tmp_path / "d.jsonl"
        code, stdout, _ = run(capsys, "gen", "--count", "40", "--max-nodes", "16",
                              "--seed", "7", "--out", str(out))
        assert code == 0
        assert stdout == (
            f"wrote 40 graphs to {out}\n"
            "nodes: 2:2 3:4 4:4 5:5 6:3 7:4 8:1 9:1 10:1 11:1 12:3 13:3 14:2 15:2 16:4\n"
            "edges: 0:5 2:3 3:3 4:3 5:3 6:2 8:2 9:1 12:1 13:1 14:2 16:1 17:1 18:1 19:1 "
            "22:1 23:1 29:2 30:2 32:1 35:1 41:2\n")
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "2e6629b07f366af8d14b97e1b4dd09f0e7310186a10c2decb130ebc673719c46")

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

    def test_d_p_with_pure_exit_2(self, dataset, tmp_path, capsys):
        out = tmp_path / "t.bin"
        code, stdout, err = run(capsys, "tokenize", "--in", str(dataset), "--out", str(out),
                                "--mode", "pure", "--d-p", "9")
        assert (code, stdout) == (2, "")
        assert err.startswith("error: --d-p sets the tart positional width")
        assert not out.exists()

    def test_reduction_ratio_printed(self, dataset, tmp_path, capsys):
        code, stdout, _ = run(capsys, "tokenize", "--in", str(dataset),
                              "--out", str(tmp_path / "t.bin"))
        assert code == 0
        assert "reduction ratio" in stdout


GOOD_LINE = '{"id": "g0", "num_nodes": 2, "node_ops": [1, 4], "edges": [[0, 1]]}'
# a faulty second line of each kind the dataset reader rejects
FAULTY_LINES = {
    "missing-field": '{"id": "bad", "node_ops": [1, 4], "edges": []}',
    "wrong-type": '{"id": "bad", "num_nodes": 2.5, "node_ops": [1, 4], "edges": []}',
    "cycle": '{"id": "bad", "num_nodes": 2, "node_ops": [1, 4], "edges": [[0, 1], [1, 0]]}',
    "edge-out-of-range": '{"id": "bad", "num_nodes": 2, "node_ops": [1, 4], "edges": [[0, 2]]}',
    "nan-target": '{"id": "bad", "num_nodes": 1, "node_ops": [3], "edges": [], "targets": '
                  '{"clean_acc": NaN, "noisy_acc": 0, "inference_speed": 0, '
                  '"convergence_speed": 0}}',
    "targets-not-object": '{"id": "bad", "num_nodes": 1, "node_ops": [3], "edges": [], '
                          '"targets": [0, 0, 0, 0]}',
    "not-an-object": '["bad"]',
    "huge-integer": '{"id": "bad", "num_nodes": ' + "1" * 5000 + ', "node_ops": [], "edges": []}',
    "duplicate-id": GOOD_LINE,
}


@pytest.mark.parametrize("command", ["tokenize", "eval"])
@pytest.mark.parametrize("kind", FAULTY_LINES)
def test_faulty_record_exit_2_names_its_line_and_id(command, kind, tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    data.write_text(GOOD_LINE + "\n" + FAULTY_LINES[kind] + "\n")
    if command == "tokenize":
        argv = ["tokenize", "--in", str(data), "--out", str(tmp_path / "t.bin")]
    else:
        ckpt = tmp_path / "m.ckpt"
        md.save_model(md.init_model(md.EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=16),
                                    seed=0), ckpt)
        argv = ["eval", "--model", str(ckpt), "--data", str(data)]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err.startswith("error: line 2: ") and len(err.splitlines()) == 1
    assert {"duplicate-id": "'g0'", "not-an-object": "JSON object",
            "huge-integer": "4300 digits"}.get(kind, "'bad'") in err


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
        code, _, err = run(capsys, command, "--config", str(config_file),
                           "--data", str(dataset), "--train-frac", frac,
                           *command_outputs(command, tmp_path))
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
                                               ("train.lr = nan", "lr"),
                                               ("train.mode = foo", "mode")])
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
        code, _, err = run(capsys, command, "--config", str(config_file),
                           "--data", str(data), *command_outputs(command, tmp_path))
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
}


class HandedOn(Exception):
    pass


def handed_on(monkeypatch, tmp_path, command, dataset, *flags):
    """What command hands the harness: train_predictor's or compare_modes' arguments
    after the split."""
    def capture(split, *args, **kwargs):
        raise HandedOn(args, kwargs)

    monkeypatch.setattr(cli, "train_predictor" if command == "train" else "compare_modes",
                        capture)
    with pytest.raises(HandedOn) as exc:
        cli.main([command, "--data", str(dataset), *flags, *command_outputs(command, tmp_path)])
    return exc.value.args


# compare runs both modes and rejects train.mode; train's ids are the bare keys
@pytest.mark.parametrize("command,key", [
    *(pytest.param("train", key, id=key) for key in sorted(config.DEFAULTS)),
    *(pytest.param("compare", key, id=f"compare-{key}") for key in sorted(config.DEFAULTS)
      if key != "train.mode")])
def test_every_config_key_has_an_effect(command, key, dataset, tmp_path, monkeypatch):
    cfg_path = tmp_path / "one.cfg"
    cfg_path.write_text(f"{key} = {NON_DEFAULT[key]}\n")
    assert config.load_config(cfg_path)[key] != config.DEFAULTS[key][0]
    default = handed_on(monkeypatch, tmp_path, command, dataset)
    assert handed_on(monkeypatch, tmp_path, command, dataset, "--config", str(cfg_path)) != default


def test_compare_runs_5_trials_by_default(dataset, tmp_path, monkeypatch):
    assert handed_on(monkeypatch, tmp_path, "compare", dataset)[1]["n_trials"] == 5


class TestConfigFile:
    """A config the command could only partly honour (a key it does not read, a key set
    twice, a line it cannot decode) exits 2 naming path:line."""

    @pytest.mark.parametrize("command,tail,message", [
        ("train", b"harness.trials = 2\n", "unknown config key: 'harness.trials'"),
        ("train", b"train.epochs = 2\n", "'train.epochs' is already set on line 7"),
        ("compare", b"train.mode = tart\n", "this command does not read 'train.mode'"),
        ("train", b"# caf\xe9\n", "not UTF-8: 'utf-8' codec can't decode byte 0xe9"),
        ("train", b"tokenizer.d_p = 4\ntrain.mode = pure\n",
         "a pure model does not read 'tokenizer.d_p'"),
    ], ids=["train-harness-trials", "key-set-twice", "compare-train-mode", "not-utf-8",
            "pure-d-p"])
    def test_config_exit_2(self, command, tail, message, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(TINY_CONFIG.encode() + tail)
        code, stdout, err = run(capsys, command, "--config", str(cfg), "--data", str(dataset),
                                *command_outputs(command, tmp_path))
        assert code == 2
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {cfg}:10: {message}")


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
        cfg.write_text(TINY_CONFIG + "train.mode = pure\n")
        ckpt = tmp_path / "m.ckpt"
        code, _, _ = run(capsys, "train", "--config", str(cfg), "--data", str(dataset),
                         "--out-model", str(ckpt), "--history", str(tmp_path / "h.csv"))
        assert code == 0
        code, stdout, _ = run(capsys, "eval", "--model", str(ckpt), "--data", str(dataset))
        assert code == 0
        expected = evaluate_predictor(load_model(ckpt), gc.read_dataset(dataset))
        assert stdout == json.dumps(expected, indent=2) + "\n"

    # a version-3 file, a header whose n_layer is a float, a pure header over the
    # 11-wide input_proj that pure checkpoints had before their rows were 5 wide, and a
    # header of 100,000 nested arrays, written as bytes: deeper than json.dumps can write
    @pytest.mark.parametrize("version,header",
                             [(3, {}), (md.MODEL_FORMAT_VERSION, {"n_layer": 1.0}),
                              (md.MODEL_FORMAT_VERSION, {"mode": "pure"}),
                              (md.MODEL_FORMAT_VERSION, b"[" * 100_000 + b"]" * 100_000)],
                             ids=["version-3", "float-n_layer", "pure-header-over-tart-rows",
                                  "deeply-nested-header"])
    def test_eval_bad_checkpoint_exit_1(self, version, header, dataset, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        md.save_model(md.init_model(md.EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=16),
                                    seed=0), ckpt)
        blob = ckpt.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", blob, 11)
        if isinstance(header, dict):
            header = json.dumps({**json.loads(blob[15:15 + cfg_len]), **header}).encode()
        ckpt.write_bytes(blob[:7] + struct.pack("<II", version, len(header)) + header
                         + blob[15 + cfg_len:])
        code, _, err = run(capsys, "eval", "--model", str(ckpt), "--data", str(dataset))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

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


# every exception class the package defines, by name, and the exit code the CLI gives it;
# keyed by name so that a class added or deleted fails one test, not the module's collection
EXIT_CODES = {
    "GraphError": 1, "InvalidSpec": 2, "ParseError": 2, "TokenizerError": 1, "ModelError": 1,
    "StatsDegenerate": 3, "VersionMismatch": 1, "CorruptFile": 1, "HarnessError": 2,
    "ConfigError": 2,
}
# constructor arguments of the classes that take more than a message
ERROR_ARGS = {"ParseError": (3, "bad value")}


def error_classes():
    """Every exception class defined in a tart module, by name."""
    return {cls.__name__: cls for module in (gc, tk, md, hn, config)
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__ == module.__name__}


class TestExitCodes:
    def test_every_error_class_has_an_exit_code(self):
        assert set(error_classes()) == set(EXIT_CODES)

    @pytest.mark.parametrize("name", EXIT_CODES)
    def test_error_exit_code(self, name, capsys, monkeypatch):
        exc = error_classes()[name](*ERROR_ARGS.get(name, ("bad value",)))

        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_eval", fail)
        code, stdout, err = run(capsys, "eval", "--model", "m.ckpt", "--data", "d.jsonl")
        assert code == EXIT_CODES[name]
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
