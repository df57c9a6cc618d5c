"""The benchmark's workloads: set-up, one measured unit of work, and its checks.

Every call into `tart` goes through a module attribute (`harness.predict`,
`model.load_model`, ...) so that the traced run can wrap it in place.
"""
from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import stats

from tart import graphs, harness, model
from tart.graphs import TARGET_NAMES
from tracing import Tracer

DENSITY = 0.3
NOISE = 0.02
BATCH_SIZE = 16
LR = 2e-3
ENCODER = model.EncoderConfig(n_layer=2, d_model=32, n_heads=4, d_ff=256, dropout_p=0.0)
# The scoring checkpoint is trained on a corpus that does not depend on the
# workload seed, so the score workloads' taus vary only with the graphs scored.
CHECKPOINT_SEED = 424242
TAU_TOLERANCE = 1e-12
ONLINE_TOLERANCE = 1e-10
# Small batches keep the online cross-check's memory well below the workload's own.
CROSS_CHECK_BATCH = 8


@dataclass(frozen=True)
class Sizes:
    train_graphs: int = 400      # A5-shaped corpus: generate_synthetic(400, 16, 0.3, 0.02)
    n_train: int = 200
    epochs: int = 6
    train_corpora: int = 3       # train units cycle over this many corpora
    checkpoint_epochs: int = 3
    batch_graphs: int = 2500
    online_graphs: int = 1500
    setups: int = 3              # set-up repeats, at least; setup_s is their median
    setup_seconds: float = 1.5   # ...and until this much set-up time has accumulated


FULL = Sizes()
SMOKE = Sizes(train_graphs=24, n_train=12, epochs=1, train_corpora=2, checkpoint_epochs=1,
              batch_graphs=40, online_graphs=12, setups=2, setup_seconds=0.0)


@dataclass
class Unit:
    """One measured unit of work."""
    seconds: float               # wall time of the timed region
    graphs: int                  # graphs processed in the timed region
    attempted: int
    output: dict                 # arrays compared bit for bit across repeats
    latencies: list              # seconds per latency sample
    failed: int = 0
    context: dict = field(default_factory=dict)  # what the checks need


def _truths(records) -> np.ndarray:
    return np.stack([r.targets.as_array() for r in records])


def check_taus(preds, truths, taus, label, failures) -> None:
    """harness.kendall_tau_b must match scipy's tau-b and be finite."""
    for j, name in enumerate(TARGET_NAMES):
        ref = stats.kendalltau(preds[:, j], truths[:, j], variant="b").statistic
        value = taus[name]
        if not math.isfinite(value) or abs(value - ref) > TAU_TOLERANCE:
            failures.append(f"{label}: tau[{name}]={value!r} but scipy gives {ref!r}")


def same_output(a: Unit, b: Unit) -> bool:
    return a.output.keys() == b.output.keys() and all(
        np.array_equal(a.output[k], b.output[k]) for k in a.output)


class Workload:
    name = ""
    warmup_units = 0  # leading units that fill caches; not in the timing metrics

    def __init__(self, workdir: Path, seed: int, sizes: Sizes):
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.failures = []

    @property
    def min_units(self) -> int:
        return self.warmup_units + 1

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self, index: int) -> Unit:
        raise NotImplementedError

    def repeat_of(self, index: int):
        """Index of the earlier unit with the same inputs, or None."""
        return 0 if index else None

    def check(self, index: int, unit: Unit) -> None:
        raise NotImplementedError

    def quality(self, units) -> dict:
        """final_loss and the four taus that the end-to-end metrics report."""
        raise NotImplementedError


class Train(Workload):
    """`tart train` on an A5-shaped corpus: read, split, train with eval, save."""
    name = "train"

    @property
    def min_units(self):
        return self.sizes.train_corpora

    def corpus_seed(self, k: int) -> int:
        return self.seed * 1000 + k

    def corpus_path(self, k: int) -> Path:
        return self.workdir / f"corpus{k}.jsonl"

    def setup(self):
        s = self.sizes
        for k in range(s.train_corpora):
            records = graphs.generate_synthetic(s.train_graphs, 16, DENSITY, NOISE,
                                                self.corpus_seed(k))
            graphs.write_dataset(records, self.corpus_path(k))

    def run_unit(self, index):
        s = self.sizes
        k = index % s.train_corpora
        records = graphs.read_dataset(self.corpus_path(k))
        split = graphs.split_dataset(records, s.n_train, seed=self.corpus_seed(k))
        cfg = harness.TrainConfig(epochs=s.epochs, batch_size=BATCH_SIZE, seed=self.corpus_seed(k),
                                  model=ENCODER, mode="tart", lr=LR)
        start = perf_counter()
        trained, history = harness.train_predictor(split, cfg)
        seconds = perf_counter() - start
        path = self.workdir / "train.ckpt"
        model.save_model(trained, path)
        loaded = model.load_model(path)
        output = {
            "loss": np.array([h["loss"] for h in history]),
            "tau": np.array([[h["tau"][n] for n in TARGET_NAMES] for h in history]),
        }
        steps = s.epochs * -(-s.n_train // BATCH_SIZE)
        return Unit(seconds=seconds, graphs=s.epochs * s.n_train, attempted=steps,
                    output=output, latencies=[seconds],
                    context={"split": split, "trained": trained, "loaded": loaded})

    def repeat_of(self, index):
        return index - self.sizes.train_corpora if index >= self.sizes.train_corpora else None

    def check(self, index, unit):
        label = f"train unit {index}"
        trained, loaded = unit.context["trained"], unit.context["loaded"]
        if not np.all(np.isfinite(unit.output["loss"])):
            self.failures.append(f"{label}: non-finite loss {unit.output['loss']}")
        if any(not np.array_equal(p.value, loaded.params[name].value)
               for name, p in trained.params.items()):
            self.failures.append(f"{label}: the checkpoint round trip changed parameters")
        test = unit.context["split"].test
        preds = harness.predict(trained, [r.graph for r in test], "tart")
        truths = _truths(test)
        taus = harness.tau_table(preds, truths)
        if [taus[n] for n in TARGET_NAMES] != list(unit.output["tau"][-1]):
            self.failures.append(f"{label}: re-evaluated tau {taus} differs from the history")
        check_taus(preds, truths, taus, label, self.failures)

    def quality(self, units):
        first = units[: self.sizes.train_corpora]
        taus = np.mean([u.output["tau"][-1] for u in first], axis=0)
        return {"final_loss": float(np.mean([u.output["loss"][-1] for u in first])),
                "tau": dict(zip(TARGET_NAMES, map(float, taus)))}


class _Scoring(Workload):
    """Set-up shared by the score workloads: a checkpoint and a scored corpus."""
    max_nodes = 16
    # A first score_batch pass runs about 20% slower than the passes after it.
    warmup_units = 1

    @property
    def corpus_size(self) -> int:
        raise NotImplementedError

    @property
    def checkpoint_path(self) -> Path:
        return self.workdir / "score.ckpt"

    @property
    def data_path(self) -> Path:
        return self.workdir / "graphs.jsonl"

    def setup(self):
        s = self.sizes
        records = graphs.generate_synthetic(s.train_graphs, 16, DENSITY, NOISE, CHECKPOINT_SEED)
        split = graphs.split_dataset(records, s.n_train, seed=CHECKPOINT_SEED)
        cfg = harness.TrainConfig(epochs=s.checkpoint_epochs, batch_size=BATCH_SIZE, seed=0,
                                  model=ENCODER, mode="tart", lr=LR, eval_each_epoch=False)
        trained, history = harness.train_predictor(split, cfg)
        model.save_model(trained, self.checkpoint_path)
        self.checkpoint = {"loss": history[-1]["loss"], "trained": trained, "test": split.test}
        records = graphs.generate_synthetic(self.corpus_size, self.max_nodes, DENSITY, NOISE,
                                            self.seed)
        graphs.write_dataset(records, self.data_path)


class ScoreBatch(_Scoring):
    """`tart eval`: read JSONL, load the checkpoint, predict, four taus."""
    name = "score_batch"

    @property
    def corpus_size(self):
        return self.sizes.batch_graphs

    def run_unit(self, index):
        start = perf_counter()
        records = graphs.read_dataset(self.data_path)
        scorer = model.load_model(self.checkpoint_path)
        preds = harness.predict(scorer, [r.graph for r in records], "tart")
        truths = _truths(records)
        taus = harness.tau_table(preds, truths)
        seconds = perf_counter() - start
        return Unit(seconds=seconds, graphs=len(records), attempted=len(records),
                    output={"preds": preds, "tau": np.array([taus[n] for n in TARGET_NAMES])},
                    latencies=[seconds], context={"truths": truths})

    def check(self, index, unit):
        taus = dict(zip(TARGET_NAMES, unit.output["tau"]))
        check_taus(unit.output["preds"], unit.context["truths"], taus,
                   f"score_batch pass {index}", self.failures)

    def quality(self, units):
        return {"final_loss": self.checkpoint["loss"],
                "tau": dict(zip(TARGET_NAMES, map(float, units[0].output["tau"])))}


class ScoreOnline(_Scoring):
    """One client in a closed loop: read requests, load the checkpoint, then
    one single-graph predict call per request."""
    name = "score_online"
    max_nodes = 32

    @property
    def corpus_size(self):
        return self.sizes.online_graphs

    def run_unit(self, index):
        records = graphs.read_dataset(self.data_path)
        scorer = model.load_model(self.checkpoint_path)
        preds = np.full((len(records), len(TARGET_NAMES)), np.nan)
        latencies = []
        failed = 0
        start = perf_counter()
        for i, rec in enumerate(records):
            sent = perf_counter()
            try:
                preds[i] = harness.predict(scorer, [rec.graph], "tart")[0]
            except Exception:  # a failed request misses every latency limit
                failed += 1
                latencies.append(math.inf)
                continue
            latencies.append(perf_counter() - sent)
        seconds = perf_counter() - start
        return Unit(seconds=seconds, graphs=len(records), attempted=len(records),
                    output={"preds": preds}, latencies=latencies, failed=failed,
                    context={"records": records, "scorer": scorer})

    def check(self, index, unit):
        label = f"score_online pass {index}"
        if unit.failed:
            self.failures.append(f"{label}: {unit.failed} requests failed")
            return
        # Batched predictions for the same graphs. Size-sorted batches mix
        # graphs of different sizes without padding each to the largest request.
        records, online = unit.context["records"], unit.output["preds"]
        order = sorted(range(len(records)),
                       key=lambda i: records[i].graph.num_nodes + records[i].graph.num_edges)
        batched = np.empty_like(online)
        for start in range(0, len(order), CROSS_CHECK_BATCH):
            chunk = order[start:start + CROSS_CHECK_BATCH]
            batched[chunk] = harness.predict(unit.context["scorer"],
                                             [records[i].graph for i in chunk], "tart")
        gap = float(np.max(np.abs(batched - online)))
        if not gap <= ONLINE_TOLERANCE:
            self.failures.append(f"{label}: online and batched predictions differ by {gap!r}")
        truths = _truths(records)
        check_taus(online, truths, harness.tau_table(online, truths), label, self.failures)

    def quality(self, units):
        # Taus of the serving checkpoint on its held-out split: the responses'
        # own taus are low and seed-noisy, as the requests are larger than
        # any graph the checkpoint was trained on. Batches of 16 keep this
        # side computation from setting the process's peak memory.
        test = self.checkpoint["test"]
        preds = harness.predict(self.checkpoint["trained"], [r.graph for r in test], "tart",
                                batch_size=BATCH_SIZE)
        truths = _truths(test)
        taus = harness.tau_table(preds, truths)
        check_taus(preds, truths, taus, "score_online checkpoint", self.failures)
        return {"final_loss": self.checkpoint["loss"], "tau": taus}


WORKLOADS = {cls.name: cls for cls in (Train, ScoreBatch, ScoreOnline)}


def _run_checked(workload: Workload, units: list) -> None:
    index = len(units)
    unit = workload.run_unit(index)
    repeat = workload.repeat_of(index)
    if repeat is None:
        workload.check(index, unit)
    elif not same_output(units[repeat], unit):
        workload.failures.append(f"{workload.name} unit {index} does not reproduce unit {repeat}")
    units.append(unit)


def _percentile_ms(values, q) -> float:
    return 1e3 * float(np.percentile(values, q, method="higher"))


def measure(workload: Workload, seconds: float, setup_times: list):
    """Untraced units until `seconds` have passed; returns (units, end-to-end values)."""
    units = []
    start = perf_counter()
    while len(units) < workload.min_units or perf_counter() - start < seconds:
        _run_checked(workload, units)
    timed_units = units[workload.warmup_units:]
    quality = workload.quality(units)
    values = {
        "setup_s": statistics.median(setup_times),
        "graphs_per_s": statistics.median(u.graphs / u.seconds for u in timed_units),
        "latency_p50_ms": statistics.median(_percentile_ms(u.latencies, 50) for u in timed_units),
        "latency_p99_ms": statistics.median(_percentile_ms(u.latencies, 99) for u in timed_units),
        "tau_mean": statistics.fmean(quality["tau"].values()),
        "tau_inference_speed": quality["tau"]["inference_speed"],
        "final_loss": quality["final_loss"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name in ("tau_mean", "tau_inference_speed", "final_loss"):
        if not math.isfinite(values[name]):
            workload.failures.append(f"{name} is not finite: {values[name]!r}")
    print(f"# samples: {len(timed_units)} timed units after {workload.warmup_units} warm-up, "
          f"{[len(u.latencies) for u in timed_units]} latency samples per unit; "
          f"unit seconds {[round(u.seconds, 4) for u in units]}; "
          f"set-up seconds {[round(t, 4) for t in setup_times]}")
    return units, values


def timed(fn, *args):
    """(fn(*args), wall seconds it took)."""
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def measure_traced(workload: Workload):
    """Unit 0 untraced, traced, then untraced again; returns (units, per-layer values).

    The overhead is the traced time minus the mean of the two untraced times,
    which cancels a steady drift in machine speed.
    """
    before, before_s = timed(workload.run_unit, 0)
    workload.check(0, before)
    tracer = Tracer()
    with tracer.installed():
        traced, traced_s = timed(workload.run_unit, 0)
    after, after_s = timed(workload.run_unit, 0)
    if not same_output(before, traced):
        workload.failures.append(f"{workload.name}: traced outputs differ from the untraced run")
    if not same_output(before, after):
        workload.failures.append(f"{workload.name}: repeated unit does not reproduce unit 0")
    untraced_s = (before_s + after_s) / 2
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    print(f"# unit seconds: untraced {before_s:.4f}, traced {traced_s:.4f}, "
          f"untraced {after_s:.4f}")
    return [before, traced, after], values
