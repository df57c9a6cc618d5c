import ctypes
import dataclasses
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tart
from tart import autodiff as ad
from tart import harness as hn
from tart import model as md
from tart import tokens as tk
from tart.model import EncoderConfig, ModelError, StatsDegenerate


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
        with pytest.raises(StatsDegenerate):
            hn.kendall_tau_b([1, 1, 1], [1, 2, 3])
        with pytest.raises(StatsDegenerate):
            hn.kendall_tau_b([1, 2, 3], [5, 5, 5])
        with pytest.raises(StatsDegenerate):
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
        with pytest.raises(StatsDegenerate):
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
        # on one CPU the batches pad in the order predict forms them; on more, as they finish
        with_cpus(monkeypatch, 1)
        hn.predict(model, graphs, "tart", batch_size=8)
        assert len(padded) == 5
        assert all(r_max == longest for r_max, longest in padded)
        assert [r for r, _ in padded] == sorted(r for r, _ in padded)

    # 40 graphs in batches of 16: the default chunk holds them all, one of 2 batches 32
    @pytest.mark.parametrize("chunk_batches,sizes", [(None, [40]), (2, [32, 8])],
                             ids=["one-chunk", "two-chunks"])
    def test_tokenizes_chunks_on_the_calling_thread(self, scored, chunk_batches, sizes,
                                                    monkeypatch):
        model, graphs = scored
        calls = []  # (graphs tokenized, thread it ran on)

        def recording_tokenize_many(batch, mode, d_p):
            calls.append((len(batch), threading.current_thread()))
            return tk.tokenize_many(batch, mode, d_p=d_p)

        monkeypatch.setattr(hn, "tokenize_many", recording_tokenize_many)
        if chunk_batches is not None:
            monkeypatch.setattr(hn, "PREDICT_CHUNK_BATCHES", chunk_batches)
        with_cpus(monkeypatch, 2)
        hn.predict(model, graphs, "tart", batch_size=16)
        assert calls == [(size, threading.current_thread()) for size in sizes]

    def test_chunks_predict_as_each_chunk_alone(self, scored, monkeypatch):
        model, graphs = scored
        monkeypatch.setattr(hn, "PREDICT_CHUNK_BATCHES", 2)  # chunks of 16, 16 and 8 graphs
        with_cpus(monkeypatch, 2)
        alone = [hn.predict(model, graphs[start:start + 16], "tart", batch_size=8)
                 for start in range(0, len(graphs), 16)]
        assert np.array_equal(hn.predict(model, graphs, "tart", batch_size=8),
                              np.concatenate(alone))

    def test_history_tau_matches_predict(self, monkeypatch):
        """Every epoch's tau, the ones scored beside the next epoch's training
        included, is predict's on a model trained that many epochs."""
        split = small_split()
        truth = np.stack([r.targets.as_array() for r in split.test])
        with_cpus(monkeypatch, 2)
        _, history = tart.train_predictor(split, tiny_train_config(epochs=3))
        for epochs in (1, 2, 3):
            model, _ = tart.train_predictor(
                split, tiny_train_config(epochs=epochs, eval_each_epoch=False))
            preds = hn.predict(model, [r.graph for r in split.test], "tart")
            assert hn.tau_table(preds, truth) == history[epochs - 1]["tau"]

    def test_history_scores_in_predict_chunks(self, monkeypatch):
        """The last epoch's eval cuts the test split into predict's chunks, so
        its predictions are predict's bit for bit when the split spans several."""
        split = small_split(count=300, n_train=40)  # 260 test graphs: 5 chunks of 64
        monkeypatch.setattr(hn, "PREDICT_CHUNK_BATCHES", 1)
        scored, tau_table = [], hn.tau_table

        def recording_tau_table(predictions, targets):
            scored.append(predictions)
            return tau_table(predictions, targets)

        monkeypatch.setattr(hn, "tau_table", recording_tau_table)
        with_cpus(monkeypatch, 2)
        model, _ = tart.train_predictor(split, tiny_train_config(epochs=2))
        assert np.array_equal(scored[-1], hn.predict(model, [r.graph for r in split.test], "tart"))


def with_cpus(monkeypatch, n):
    """Make the process look as if its affinity mask held n CPUs."""
    monkeypatch.setattr(hn.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestPredictThreads:
    """Batches run on one thread per usable CPU; the output and errors are the serial run's."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return [r.graph for r in tart.generate_synthetic(45, 12, 0.4, 0.0, seed=4)]

    @staticmethod
    def model(mode):
        return tart.init_model(EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=16,
                                             dropout_p=0.0, mode=mode), seed=0)

    @pytest.mark.parametrize("mode", ["tart", "pure"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_equal_to_batches_run_one_by_one(self, graphs, mode, cpus, monkeypatch):
        model = self.model(mode)
        order = np.argsort([len(tk.tokenize_graph(g, mode)) for g in graphs], kind="stable")
        serial = np.empty((len(graphs), 4))
        for start in range(0, len(order), 8):  # 6 batches, the last one short
            idx = order[start:start + 8]
            serial[idx] = hn.predict(model, [graphs[i] for i in idx], mode, batch_size=8)
        with_cpus(monkeypatch, cpus)
        assert np.array_equal(hn.predict(model, graphs, mode, batch_size=8), serial)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_non_finite_parameter_raises_as_serial(self, graphs, cpus, monkeypatch):
        model = self.model("tart")
        model.params["head.b"].value[0] = np.nan
        with_cpus(monkeypatch, cpus)
        with pytest.raises(ModelError, match="^non-finite activation after head$"):
            hn.predict(model, graphs, "tart", batch_size=8)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_failing_batch_in_order_raises(self, graphs, cpus, monkeypatch):
        """Batch 3 fails before batch 1 does, yet batch 1's error surfaces, as
        it does serially; the batches still queued then never run."""
        forward = hn.encoder_forward
        widths = []
        lock = threading.Lock()

        def failing_forward(model, tokens, mask, train):
            width = tokens.shape[1]
            with lock:
                widths.append(width)
            if width == batch_widths[1]:
                time.sleep(0.05)
                raise ModelError("batch 1")
            if width == batch_widths[3]:
                raise ModelError("batch 3")
            time.sleep(0.02)
            return forward(model, tokens, mask, train=train)

        rows = sorted(len(tk.tokenize_graph(g, "tart")) for g in graphs)
        batch_widths = rows[2::3]  # each batch of 3 is padded to its last, longest graph
        assert len(set(batch_widths[:4])) == 4 and len(batch_widths) == 15
        monkeypatch.setattr(hn, "encoder_forward", failing_forward)
        with_cpus(monkeypatch, cpus)
        with pytest.raises(ModelError, match="^batch 1$"):
            hn.predict(self.model("tart"), graphs, "tart", batch_size=3)
        assert len(widths) < len(batch_widths)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_forwards_record_no_tape(self, graphs, cpus, monkeypatch):
        forward = hn.encoder_forward
        parents = []

        def recording_forward(*args, **kwargs):
            out = forward(*args, **kwargs)
            parents.append(out.parents)
            return out

        monkeypatch.setattr(hn, "encoder_forward", recording_forward)
        with_cpus(monkeypatch, cpus)
        hn.predict(self.model("tart"), graphs, "tart", batch_size=8)
        assert parents == [()] * 6

    def test_threads_are_joined_on_return(self, graphs, monkeypatch):
        before = threading.active_count()
        with_cpus(monkeypatch, 3)
        hn.predict(self.model("tart"), graphs, "tart", batch_size=8)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus,count", [(4, 1), (1, 45)])
    def test_one_batch_or_one_cpu_starts_no_thread(self, graphs, cpus, count, monkeypatch):
        def no_start(thread):
            raise AssertionError("a thread was started")

        with_cpus(monkeypatch, cpus)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        assert hn.predict(self.model("tart"), graphs[:count], "tart",
                          batch_size=8).shape == (count, 4)

    def test_cpu_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(hn.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(hn.os, "cpu_count", lambda: 3)
        assert hn._usable_cpus() == 3
        monkeypatch.setattr(hn.os, "cpu_count", lambda: None)
        assert hn._usable_cpus() == 1


def has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


@pytest.mark.skipif(not has_mallopt(), reason="the allocator policy needs glibc's mallopt")
def test_repeated_predict_reuses_freed_memory(monkeypatch):
    """A second identical scoring pass finds its temporaries' pages still mapped.

    The passes run serially: threads interleave their allocations in one arena,
    so a threaded pass's high-water mark, and its fault count, vary from run to run.
    """
    import resource
    with_cpus(monkeypatch, 1)
    model = tart.init_model(EncoderConfig(n_layer=2, d_model=32, n_heads=4, d_ff=256), seed=0)
    graphs = [r.graph for r in tart.generate_synthetic(256, 16, 0.3, 0.0, 0)]
    hn.predict(model, graphs, "tart")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    hn.predict(model, graphs, "tart")
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


class TestPassMemory:
    """Peak bytes a scoring pass allocates, as tracemalloc counts numpy's buffers:
    the encoder holds one row block of FFN hidden values or attention scores at
    a time, not the batch's whole hidden layer and score tensor."""

    @pytest.fixture(scope="class")
    def scored(self):
        model = tart.init_model(EncoderConfig(n_layer=2, d_model=32, n_heads=4, d_ff=256), seed=0)
        return model, [r.graph for r in tart.generate_synthetic(3000, 16, 0.3, 0.0, 0)]

    @staticmethod
    def peak_mib(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_eval_forward_on_long_graphs(self, scored):
        # the 64 longest graphs, 3,680 rows in 67-slot attention rows: 10.1 MiB
        # measured, 33.0 MiB with the whole hidden layer and score tensor built at once
        model, graphs = scored
        mats = sorted(tk.tokenize_many(graphs, "tart"), key=len)[-64:]
        batch = tk.pad_batch(mats, len(mats[-1]))

        def forward():
            with ad.no_tape():
                md.encoder_forward(model, batch.tokens, batch.mask)

        assert self.peak_mib(forward) < 16

    def test_eval_forward_builds_no_whole_batch_mask(self, scored):
        # the 64 longest graphs of `tart gen --count 2500 --max-nodes 32 --seed 5`, R = 199:
        # 30.97 MiB measured, 33.39 MiB with the (rows, 1, R, R) attention mask built
        # for the whole batch
        model, _ = scored
        graphs = [r.graph for r in tart.generate_synthetic(2500, 32, 0.3, 0.02, 5)]
        longest = sorted(graphs, key=lambda g: g.num_nodes + g.num_edges)[-64:]
        mats = tk.tokenize_many(longest, "tart")
        batch = tk.pad_batch(mats, len(mats[-1]))
        assert batch.tokens.shape[1] == 199

        def forward():
            with ad.no_tape():
                md.encoder_forward(model, batch.tokens, batch.mask)

        assert self.peak_mib(forward) < 32

    def test_two_thread_predict(self, scored, monkeypatch):
        # 1,024 graphs' tokens included: 17.2-18.0 MiB measured, 41.7-49.3 MiB without
        # row blocks
        model, graphs = scored
        with_cpus(monkeypatch, 2)
        assert self.peak_mib(hn.predict, model, graphs[:1024], "tart") < 28


def test_row_blocks_move_no_bit(monkeypatch):
    """One attention row and two FFN rows per block give the default's bits."""
    graphs = [r.graph for r in tart.generate_synthetic(45, 12, 0.4, 0.0, seed=4)]
    split = small_split(count=120, n_train=40)
    cfg = tiny_train_config(epochs=3, model=EncoderConfig(
        n_layer=1, d_model=8, n_heads=2, d_ff=16, dropout_p=0.1))
    with_cpus(monkeypatch, 2)
    runs = []
    for block_values in (ad.BLOCK_VALUES, 1):
        monkeypatch.setattr(ad, "BLOCK_VALUES", block_values)
        model, history = tart.train_predictor(split, cfg)
        runs.append((hn.predict(model, graphs, "tart", batch_size=8), history, model.params))
    (preds, history, params), blocked = runs
    assert np.array_equal(blocked[0], preds) and blocked[1] == history
    for name, param in params.items():
        assert np.array_equal(blocked[2][name].value, param.value)


class TestTrainPredictor:
    def test_history_length_matches_epochs(self):
        split = small_split()
        _, history = tart.train_predictor(split, tiny_train_config())
        assert len(history) == 1
        assert "loss" in history[0] and "tau" in history[0]

    def test_returned_model_holds_no_gradients(self):
        model, _ = tart.train_predictor(small_split(), tiny_train_config(epochs=2))
        assert all(param.grad is None for param in model.params.values())

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

    def test_history_and_parameters_independent_of_cpus(self, monkeypatch):
        split = small_split(count=120, n_train=40)  # 80 test graphs: two predict batches
        cfg = tiny_train_config(epochs=3, model=EncoderConfig(
            n_layer=1, d_model=8, n_heads=2, d_ff=16, dropout_p=0.1))
        runs = []
        for cpus in (1, 2, 3):
            with_cpus(monkeypatch, cpus)
            runs.append(tart.train_predictor(split, cfg))
        (m1, h1), *others = runs
        for model, history in others:
            assert history == h1
            for name in m1.params:
                assert np.array_equal(model.params[name].value, m1.params[name].value)

    @pytest.mark.parametrize("cpus,epochs,eval_each_epoch,labeled", [
        (1, 3, True, True), (2, 1, True, True), (2, 3, False, True), (2, 3, True, False)])
    def test_no_thread_when_overlap_cannot_help(self, cpus, epochs, eval_each_epoch, labeled,
                                                monkeypatch):
        def no_start(thread):
            raise AssertionError("a thread was started")

        split = small_split()  # 8 test graphs: the last epoch's eval is one batch, run inline
        if not labeled:
            split = tart.DatasetSplit(
                train=split.train,
                test=tuple(tart.LabeledGraph(graph=r.graph, targets=None, id=r.id)
                           for r in split.test))
        with_cpus(monkeypatch, cpus)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        _, history = tart.train_predictor(split, tiny_train_config(
            epochs=epochs, eval_each_epoch=eval_each_epoch))
        assert len(history) == epochs

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("eval_fails,raised", [(True, "eval 1"), (False, "train 2")])
    def test_errors_surface_in_serial_order(self, cpus, eval_fails, raised, monkeypatch):
        """Epoch 1's eval fails after epoch 2's training has failed, yet the eval's
        error is raised, as it is serially; no thread outlives the call."""
        forward, backward = hn.encoder_forward, hn.backward_pass
        steps = []

        def failing_forward(model, tokens, mask, train):
            time.sleep(0.1)
            if eval_fails:
                raise ModelError("eval 1")
            return forward(model, tokens, mask, train=train)

        def failing_backward(*args, **kwargs):
            steps.append(None)
            if len(steps) == 3:  # 16 training graphs in batches of 8: epoch 2's first step
                raise ModelError("train 2")
            return backward(*args, **kwargs)

        monkeypatch.setattr(hn, "encoder_forward", failing_forward)
        monkeypatch.setattr(hn, "backward_pass", failing_backward)
        with_cpus(monkeypatch, cpus)
        before = threading.active_count()
        with pytest.raises(ModelError, match=f"^{raised}$"):
            tart.train_predictor(small_split(), tiny_train_config(epochs=3))
        assert threading.active_count() == before
        assert len(steps) == (2 if cpus == 1 and eval_fails else 3)

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

    @pytest.mark.parametrize("lr", [True, False, 0.0, -1e-3, float("inf"), float("nan"), "1e-3"])
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(hn.HarnessError, match="lr"):
            tiny_train_config(lr=lr)

    def test_lr_stored_as_float(self):
        cfg = tiny_train_config(lr=np.float32(0.5))
        assert type(cfg.lr) is float and cfg.lr == 0.5
        assert type(tiny_train_config(lr=1).lr) is float

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
        report = tart.run_experiment(split, tiny_train_config(seed=5), n_trials=3)
        assert len(report.per_seed) == 3
        assert [t["seed"] for t in report.per_seed] == [5, 6, 7]
        for name, mean in report.mean_tau.items():
            values = [t["tau"][name] for t in report.per_seed]
            assert mean == pytest.approx(np.mean(values))

    def test_single_trial_mean_equals_trial(self):
        split = small_split()
        report = tart.run_experiment(split, tiny_train_config(seed=2), n_trials=1)
        assert report.mean_tau == report.per_seed[0]["tau"]

    # a bad seed is TrainConfig's to reject (TestTrainConfig::test_bad_seed_rejected)
    @pytest.mark.parametrize("n_trials,seed,named", [
        (0, 0, "n_trials"), (True, 0, "n_trials"), (1.5, 0, "n_trials")])
    def test_invalid_trial_count_or_seed_rejected(self, n_trials, seed, named):
        with pytest.raises(hn.HarnessError, match=named):
            tart.run_experiment(small_split(), tiny_train_config(seed=seed), n_trials=n_trials)

    def test_deterministic_report(self):
        split = small_split()
        a = tart.run_experiment(split, tiny_train_config(seed=1), n_trials=2)
        b = tart.run_experiment(split, tiny_train_config(seed=1), n_trials=2)
        assert (a.per_seed, a.mean_tau) == (b.per_seed, b.mean_tau)


class TestCompareModes:
    def test_csv_row_count(self):
        split = small_split()
        comparison = hn.compare_modes(split, tiny_train_config(), n_trials=2)
        lines = comparison.to_csv().strip().split("\n")
        assert lines[0] == "target,mode,seed,tau"
        assert len(lines) == 1 + 2 * 2 * 4  # modes x seeds x targets

    def test_pure_config_rejected(self):
        with pytest.raises(hn.HarnessError, match="compare needs a tart config"):
            hn.compare_modes(small_split(), tiny_train_config("pure"), n_trials=1)

    @pytest.mark.parametrize("unlabeled", [False, True])
    def test_unusable_test_split_raises_before_training(self, unlabeled, monkeypatch):
        # `tart compare --train-frac 1.0` leaves no test split; neither case may train a model
        split = small_split()
        test = tuple(tart.LabeledGraph(graph=r.graph, targets=None, id=r.id)
                     for r in split.test) if unlabeled else ()

        def no_training(*args, **kwargs):
            raise AssertionError("train_predictor called")

        monkeypatch.setattr(hn, "train_predictor", no_training)
        with pytest.raises(hn.HarnessError, match="unlabeled" if unlabeled else "empty test set"):
            hn.compare_modes(tart.DatasetSplit(split.train, test), tiny_train_config(), n_trials=1)

    def test_text_table_mentions_reference_results(self):
        comparison = hn.compare_modes(small_split(), tiny_train_config(), n_trials=1)
        text = comparison.to_text()
        assert "not reproduced" in text
        assert "0.266" in text and "0.210" in text
