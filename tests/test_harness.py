import ctypes
import dataclasses
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tart
from tart import harness as hn
from tart import tokens as tk
from tart.model import EncoderConfig


def brute_force_tau_b(x, y):
    """Independent O(n^2) pair enumeration oracle for tau_b."""
    n = len(x)
    concordant = discordant = tied_x_only = tied_y_only = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = int(x[i] > x[j]) - int(x[i] < x[j])
            dy = int(y[i] > y[j]) - int(y[i] < y[j])
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
            elif dx == 0 and dy != 0:
                tied_x_only += 1
            elif dy == 0 and dx != 0:
                tied_y_only += 1
    return (concordant - discordant) / np.sqrt(
        (concordant + discordant + tied_x_only) * (concordant + discordant + tied_y_only))


def small_split(count=24, seed=0, n_train=16):
    records = tart.generate_synthetic(count, 8, 0.4, 0.05, seed=seed)
    return tart.split_dataset(records, n_train, seed=seed)


def tiny_train_config(mode="tart", **overrides):
    base = dict(
        epochs=1, batch_size=8, seed=0, lr=1e-3, mode=mode,
        model=EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=16,
                            dropout_p=0.0, mode=mode))
    base.update(overrides)
    return hn.TrainConfig(**base)


class TestKendallTau:
    def test_identical_ranking(self):
        assert hn.kendall_tau_b([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == pytest.approx(1.0)

    def test_reversed_ranking(self):
        x = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert hn.kendall_tau_b(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_hand_case(self):
        # pairs of [1,2,3,4] vs [1,3,2,4]: C=5, D=1, tau = 4/6
        assert hn.kendall_tau_b([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6, abs=1e-12)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            # coarse quantization forces ties
            x = np.round(rng.normal(size=n) * 2) / 2
            y = np.round(rng.normal(size=n) * 2) / 2
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert hn.kendall_tau_b(x, y) == brute_force_tau_b(x, y)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        base = hn.kendall_tau_b(x, y)
        assert hn.kendall_tau_b(np.exp(x), y) == base
        assert hn.kendall_tau_b(3.0 * x + 7.0, y) == base
        assert hn.kendall_tau_b(x, np.exp(y)) == base

    def test_symmetry_and_negation(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert hn.kendall_tau_b(x, y) == hn.kendall_tau_b(y, x)
        assert hn.kendall_tau_b(x, -y) == pytest.approx(-hn.kendall_tau_b(x, y), abs=1e-15)

    def test_degenerate_inputs(self):
        with pytest.raises(hn.DegenerateInput):
            hn.kendall_tau_b([1, 1, 1], [1, 2, 3])
        with pytest.raises(hn.DegenerateInput):
            hn.kendall_tau_b([1, 2, 3], [5, 5, 5])
        with pytest.raises(hn.DegenerateInput):
            hn.kendall_tau_b([1], [2])

    def test_length_mismatch(self):
        with pytest.raises(hn.HarnessError, match=r"shapes \(2,\) and \(3,\)"):
            hn.kendall_tau_b([1, 2], [1, 2, 3])

    @given(pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          min_size=2, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_under_heavy_ties(self, pairs):
        x = [float(a) for a, _ in pairs]
        y = [float(b) for _, b in pairs]
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        assert hn.kendall_tau_b(x, y) == brute_force_tau_b(x, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(hn.HarnessError):
            hn.kendall_tau_b([1.0, bad, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(hn.HarnessError):
            hn.kendall_tau_b([1.0, 2.0, 3.0], [bad, 2.0, 3.0])

    def test_large_n_under_one_second(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=100_000)
        y = np.round(x + rng.normal(size=x.size), 1)  # y has many ties
        start = time.perf_counter()
        tau = hn.kendall_tau_b(x, y)
        assert time.perf_counter() - start < 1.0
        assert 0.0 < tau < 1.0


class TestTauTable:
    def test_oracle_predictions(self):
        rng = np.random.default_rng(3)
        targets = rng.normal(size=(20, 4))
        table = hn.tau_table(targets.copy(), targets)
        assert all(v == pytest.approx(1.0) for v in table.values())

    def test_anti_oracle(self):
        rng = np.random.default_rng(4)
        targets = rng.normal(size=(20, 4))
        table = hn.tau_table(-targets, targets)
        assert all(v == pytest.approx(-1.0) for v in table.values())

    def test_constant_predictions_degenerate(self):
        rng = np.random.default_rng(5)
        targets = rng.normal(size=(20, 4))
        with pytest.raises(hn.DegenerateInput):
            hn.tau_table(np.zeros((20, 4)), targets)


class TestPredictBatching:
    @pytest.fixture(scope="class")
    def scored(self):
        model = tart.init_model(EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=16,
                                              dropout_p=0.0), seed=0)
        graphs = [r.graph for r in tart.generate_synthetic(40, 12, 0.4, 0.0, seed=9)]
        return model, graphs

    def test_permuted_input_gives_permuted_output(self, scored):
        model, graphs = scored
        perm = np.random.default_rng(1).permutation(len(graphs))
        base = hn.predict(model, graphs, "tart", batch_size=8)
        permuted = hn.predict(model, [graphs[i] for i in perm], "tart", batch_size=8)
        assert np.max(np.abs(permuted - base[perm])) <= 1e-12

    def test_mixed_size_batch_matches_each_graph_alone(self, scored):
        model, graphs = scored
        together = hn.predict(model, graphs, "tart", batch_size=len(graphs))
        alone = np.concatenate([hn.predict(model, [g], "tart") for g in graphs])
        assert np.max(np.abs(together - alone)) <= 1e-10

    def test_each_batch_padded_to_its_own_longest(self, scored, monkeypatch):
        model, graphs = scored
        padded = []  # (r_max asked for, longest matrix in the batch)

        def recording_pad_batch(matrices, r_max):
            padded.append((r_max, max(len(m) for m in matrices)))
            return tk.pad_batch(matrices, r_max)

        monkeypatch.setattr(hn, "pad_batch", recording_pad_batch)
        hn.predict(model, graphs, "tart", batch_size=8)
        assert len(padded) == 5
        assert all(r_max == longest for r_max, longest in padded)
        assert [r for r, _ in padded] == sorted(r for r, _ in padded)

    def test_tokenizes_one_batch_at_a_time(self, scored, monkeypatch):
        model, graphs = scored
        sizes = []

        def recording_tokenize_many(batch, mode, d_p):
            sizes.append(len(batch))
            return tk.tokenize_many(batch, mode, d_p=d_p)

        monkeypatch.setattr(hn, "tokenize_many", recording_tokenize_many)
        hn.predict(model, graphs, "tart", batch_size=16)
        assert sizes == [16, 16, 8]

    def test_history_tau_matches_predict(self):
        split = small_split()
        model, history = tart.train_predictor(split, tiny_train_config(epochs=2))
        preds = hn.predict(model, [r.graph for r in split.test], "tart")
        truth = np.stack([r.targets.as_array() for r in split.test])
        assert hn.tau_table(preds, truth) == history[-1]["tau"]


def has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


@pytest.mark.skipif(not has_mallopt(), reason="the allocator policy needs glibc's mallopt")
def test_repeated_predict_reuses_freed_memory():
    """A second identical scoring pass finds its temporaries' pages still mapped."""
    import resource
    model = tart.init_model(EncoderConfig(n_layer=2, d_model=32, n_heads=4, d_ff=256), seed=0)
    graphs = [r.graph for r in tart.generate_synthetic(256, 16, 0.3, 0.0, 0)]
    hn.predict(model, graphs, "tart")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    hn.predict(model, graphs, "tart")
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


class TestTrainPredictor:
    def test_history_length_matches_epochs(self):
        split = small_split()
        _, history = tart.train_predictor(split, tiny_train_config())
        assert len(history) == 1
        assert "loss" in history[0] and "tau" in history[0]

    def test_deterministic_history(self):
        split = small_split()
        _, h1 = tart.train_predictor(split, tiny_train_config(epochs=2))
        _, h2 = tart.train_predictor(split, tiny_train_config(epochs=2))
        assert h1 == h2

    def test_test_labels_never_touch_parameters(self):
        split = small_split()
        stripped = tart.DatasetSplit(
            train=split.train,
            test=tuple(tart.LabeledGraph(graph=r.graph, targets=None, id=r.id)
                       for r in split.test))
        m1, _ = tart.train_predictor(split, tiny_train_config(epochs=2))
        m2, _ = tart.train_predictor(stripped, tiny_train_config(epochs=2))
        for name in m1.params:
            assert np.array_equal(m1.params[name].value, m2.params[name].value)

    def test_pure_mode_is_edge_blind(self):
        split = small_split()
        rewired = tart.DatasetSplit(
            train=tuple(
                tart.LabeledGraph(
                    graph=tart.make_graph(r.graph.num_nodes, r.graph.node_ops, []),
                    targets=r.targets, id=r.id)
                for r in split.train),
            test=tuple(
                tart.LabeledGraph(
                    graph=tart.make_graph(r.graph.num_nodes, r.graph.node_ops, []),
                    targets=r.targets, id=r.id)
                for r in split.test))
        cfg = tiny_train_config(mode="pure", epochs=2)
        m1, h1 = tart.train_predictor(split, cfg)
        m2, h2 = tart.train_predictor(rewired, cfg)
        for name in m1.params:
            assert np.array_equal(m1.params[name].value, m2.params[name].value)
        assert h1 == h2

    def test_unlabeled_train_rejected(self):
        split = small_split()
        broken = tart.DatasetSplit(
            train=tuple(tart.LabeledGraph(graph=r.graph, targets=None, id=r.id)
                        for r in split.train),
            test=split.test)
        with pytest.raises(hn.HarnessError):
            tart.train_predictor(broken, tiny_train_config())


class TestTrainConfig:
    @pytest.mark.parametrize("name,value", [("epochs", 2.5), ("batch_size", 2.5),
                                            ("epochs", True), ("batch_size", True),
                                            ("epochs", "2"), ("epochs", np.float64(2.0)),
                                            ("batch_size", np.bool_(True))])
    def test_non_integer_size_rejected(self, name, value):
        with pytest.raises(hn.HarnessError, match=name):
            tiny_train_config(**{name: value})

    @pytest.mark.parametrize("seed", [True, -1, 2.5, "3"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(hn.HarnessError, match="seed"):
            tiny_train_config(seed=seed)

    def test_numpy_integers_accepted_and_stored_as_int(self, tmp_path):
        n = np.int64
        model_cfg = EncoderConfig(n_layer=n(1), d_model=n(8), n_heads=n(2), d_ff=n(16), d_p=n(2))
        cfg = tiny_train_config(epochs=n(1), batch_size=n(8), seed=n(3), model=model_cfg)
        stored = [cfg.epochs, cfg.batch_size, cfg.seed, model_cfg.n_layer, model_cfg.d_model,
                  model_cfg.n_heads, model_cfg.d_ff, model_cfg.d_p]
        assert all(type(value) is int for value in stored)
        records = tart.generate_synthetic(n(24), n(8), 0.4, 0.05, seed=n(0))
        assert records == tart.generate_synthetic(24, 8, 0.4, 0.05, seed=0)
        split = tart.split_dataset(records, n(16), seed=n(0))
        assert split == small_split()
        model, _ = tart.train_predictor(split, cfg)
        tart.save_model(model, tmp_path / "m.ckpt")  # the config's JSON header takes only ints
        graphs = [r.graph for r in split.test]
        assert np.array_equal(hn.predict(model, graphs, "tart", batch_size=n(4)),
                              hn.predict(model, graphs, "tart", batch_size=4))

    def test_checks_cannot_be_bypassed_by_assignment(self):
        cfg = tiny_train_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lr = -0.5
        with pytest.raises(hn.HarnessError):
            dataclasses.replace(cfg, lr=-0.5)


class TestTokenizerMode:
    def test_train_config_mode_must_match_encoder(self):
        with pytest.raises(hn.HarnessError):
            hn.TrainConfig(mode="pure")

    def test_predict_rejects_other_mode(self):
        pure = tart.init_model(EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=16,
                                             mode="pure"), seed=0)
        graphs = [r.graph for r in small_split().test]
        assert hn.predict(pure, graphs, "pure").shape == (len(graphs), 4)
        with pytest.raises(hn.HarnessError):
            hn.predict(pure, graphs, "tart")

    def test_predict_rejects_no_graphs(self):
        model = tart.init_model(EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=16), seed=0)
        with pytest.raises(hn.HarnessError):
            hn.predict(model, [], "tart")

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, True])
    def test_predict_rejects_batch_size_below_one(self, batch_size):
        model = tart.init_model(EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=16), seed=0)
        graphs = [r.graph for r in small_split().test]
        with pytest.raises(hn.HarnessError):
            hn.predict(model, graphs, "tart", batch_size=batch_size)


class TestRunExperiment:
    def test_trial_count_and_mean(self):
        split = small_split()
        report = tart.run_experiment(split, tiny_train_config(), n_trials=3, base_seed=5)
        assert len(report.per_seed) == 3
        assert [t["seed"] for t in report.per_seed] == [5, 6, 7]
        for name, mean in report.mean_tau.items():
            values = [t["tau"][name] for t in report.per_seed]
            assert mean == pytest.approx(np.mean(values))

    def test_single_trial_mean_equals_trial(self):
        split = small_split()
        report = tart.run_experiment(split, tiny_train_config(), n_trials=1, base_seed=2)
        assert report.mean_tau == report.per_seed[0]["tau"]

    @pytest.mark.parametrize("n_trials,base_seed,named", [
        (0, 0, "n_trials"), (True, 0, "n_trials"), (1.5, 0, "n_trials"),
        (1, True, "base_seed"), (1, -1, "base_seed")])
    def test_invalid_trial_count_or_seed_rejected(self, n_trials, base_seed, named):
        with pytest.raises(hn.HarnessError, match=named):
            tart.run_experiment(small_split(), tiny_train_config(), n_trials=n_trials,
                                base_seed=base_seed)

    def test_deterministic_report(self):
        split = small_split()
        a = tart.run_experiment(split, tiny_train_config(), n_trials=2, base_seed=1)
        b = tart.run_experiment(split, tiny_train_config(), n_trials=2, base_seed=1)
        assert (a.per_seed, a.mean_tau) == (b.per_seed, b.mean_tau)


class TestCompareModes:
    def test_identical_configs_zero_difference(self):
        split = small_split()
        cfg = tiny_train_config()
        comparison = hn.compare_modes(split, cfg, cfg, n_trials=1, base_seed=0)
        for name, p in comparison.pure.mean_tau.items():
            assert comparison.tart.mean_tau[name] == p

    def test_csv_row_count(self):
        split = small_split()
        comparison = hn.compare_modes(split, tiny_train_config(mode="pure"),
                                      tiny_train_config(mode="tart"),
                                      n_trials=2, base_seed=0)
        lines = comparison.to_csv().strip().split("\n")
        assert lines[0] == "target,mode,seed,tau"
        assert len(lines) == 1 + 2 * 2 * 4  # modes x seeds x targets

    def test_unequal_epochs_rejected(self):
        split = small_split()
        with pytest.raises(hn.HarnessError):
            hn.compare_modes(split, tiny_train_config(epochs=1),
                             tiny_train_config(epochs=2), n_trials=1)

    def test_text_table_mentions_reference_results(self):
        split = small_split()
        cfg = tiny_train_config()
        comparison = hn.compare_modes(split, cfg, cfg, n_trials=1, base_seed=0)
        text = comparison.to_text()
        assert "not reproduced" in text
        assert "0.266" in text and "0.210" in text
