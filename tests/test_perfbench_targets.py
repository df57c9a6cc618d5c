"""The benchmark calls tart's API from `perfbench/`: tracer targets and workloads.

Installing its tracer looks up every wrapped name, and running each workload
at its smoke size calls everything else the benchmark uses, so a rename,
deletion or signature change that breaks the benchmark fails here, in the
main suite, and not only in the benchmark's own self-test. A traced `tart`
predict must also pass through the wrapped Laplacian, eigensolver and token
assembly once per stack, that is once per node count in each chunk it
tokenizes, its batches on one thread or on several: a tokenizer that calls
them by another name would leave those per-layer metrics reading 0. Token
assembly calls the two spectral layers, so its span must hold theirs:
`tokens.assemble_s` is its self time, and it is assembly alone only then.
"""
from collections import Counter
from pathlib import Path

import pytest

from tart import autodiff, graphs, harness, model, tokens

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patch_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    targets = [(mod, attr) for mod, attr, _ in tracing.PLAIN_SPANS]
    targets += [(autodiff, op) for op in tracing.AUTODIFF_OPS] + [(harness, "pad_batch")]
    originals = [getattr(mod, attr) for mod, attr in targets]
    with tracing.Tracer().installed():
        for (mod, attr), original in zip(targets, originals):
            assert getattr(mod, attr) is not original
    assert [getattr(mod, attr) for mod, attr in targets] == originals


@pytest.mark.parametrize("name", ["train", "score_batch", "score_online"])
def test_workload_runs_at_smoke_size(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS[name](tmp_path, 0, workloads.SMOKE)
    workload.setup()
    units = []
    for _ in range(workload.min_units + 1):
        workloads._run_checked(workload, units)
    workload.quality(units)
    assert workload.failures == []


def predict_stacks(graph_list, batch_size):
    """Stacks that predict tokenizes: one per node count in each of its chunks of
    PREDICT_CHUNK_BATCHES batches, with at most STACK_CAP graphs in each."""
    chunk = harness.PREDICT_CHUNK_BATCHES * batch_size
    stacks = 0
    for start in range(0, len(graph_list), chunk):
        sizes = Counter(g.num_nodes for g in graph_list[start:start + chunk])
        stacks += sum(-(-count // tokens.STACK_CAP) for count in sizes.values())
    return stacks


def test_traced_predict_reaches_token_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # one CPU: spans from two worker threads would nest into each other's
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    import tracing

    records = graphs.generate_synthetic(5, 8, 0.4, 0.0, seed=0)
    encoder = model.EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=8, dropout_p=0.0)
    tracer = tracing.Tracer()
    with tracer.installed():
        harness.predict(model.init_model(encoder, seed=0), [r.graph for r in records], "tart")
    stacks = predict_stacks([r.graph for r in records], harness.PREDICT_BATCH_SIZE)
    assert (tracer.calls["tokens.assemble"] == tracer.calls["spectral.laplacian"]
            == tracer.calls["spectral.eigh"] == stacks)
    assert (tracer.total["tokens.assemble"]
            >= tracer.total["spectral.laplacian"] + tracer.total["spectral.eigh"])


def test_traced_predict_on_two_threads_counts_each_graph_once(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    import tracing

    records = graphs.generate_synthetic(30, 8, 0.4, 0.0, seed=0)
    encoder = model.EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=8, dropout_p=0.0)
    tracer = tracing.Tracer()
    with tracer.installed():
        harness.predict(model.init_model(encoder, seed=0), [r.graph for r in records], "tart",
                        batch_size=4)
    stacks = predict_stacks([r.graph for r in records], 4)
    assert stacks < len(records)  # some node count holds two graphs
    assert tracer.calls["tokens.assemble"] == tracer.calls["spectral.eigh"] == stacks
    assert tracer.calls["model.encoder_forward"] == 8


def test_traced_train_spans_every_step(monkeypatch):
    # every step's backward pass and Adam update run inside the traced `train` unit's
    # spans: 20 graphs in batches of 8 make 3 steps an epoch
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    import tracing

    records = graphs.generate_synthetic(30, 8, 0.4, 0.05, seed=0)
    split = graphs.split_dataset(records, 20, seed=0)
    encoder = model.EncoderConfig(n_layer=1, d_model=8, n_heads=2, d_ff=8, dropout_p=0.1)
    cfg = harness.TrainConfig(epochs=2, batch_size=8, seed=0, lr=1e-3, mode="tart",
                              model=encoder)
    tracer = tracing.Tracer()
    with tracer.installed():
        harness.train_predictor(split, cfg)
    assert tracer.calls["harness.train_predictor"] == 1
    assert tracer.calls["model.backward_pass"] == tracer.calls["model.adam_step"] == 6
