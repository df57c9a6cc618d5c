"""Span tracing for the benchmark's traced run, installed from outside `src/`.

Each public function that the benchmark measures is replaced, in the module
namespace where its caller looks it up, by a wrapper that records a span.
Spans nest through a stack of open spans, so a layer's self time is its
duration minus the time its child spans cover. Totals are aggregated as spans
close, and no span is kept. The wrapped arithmetic is untouched, so traced
outputs are bit-identical to untraced ones.
"""
from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

from tart import autodiff, graphs, harness, model, spectral, tokens

# autodiff ops that the encoder, loss and backward pass call.
AUTODIFF_OPS = ("linear", "matmul", "gelu", "layer_norm", "softmax_masked",
                "masked_mean", "add", "reshape", "transpose", "scale",
                "sub", "square", "mean_all")

# (module whose global the caller looks up, attribute, span name)
PLAIN_SPANS = (
    (graphs, "read_dataset", "graphs.read_dataset"),
    (spectral, "build_normalized_laplacian", "spectral.laplacian"),
    (spectral, "lap_features", "spectral.eigh"),
    (harness, "tokenize_many", "tokens.tokenize"),
    (tokens, "tokenize_lap", "tokens.assemble"),
    (harness, "encoder_forward", "model.encoder_forward"),
    (model, "encoder_forward", "model.encoder_forward"),
    (harness, "backward_pass", "model.backward_pass"),
    (harness, "adam_step", "model.adam_step"),
    (model, "save_model", "model.save_model"),
    (model, "load_model", "model.load_model"),
    (autodiff, "backward", "autodiff.backward"),
    (harness, "train_predictor", "harness.train_predictor"),
    (harness, "predict", "harness.predict"),
    (harness, "kendall_tau_b", "harness.kendall_tau"),
)


class Tracer:
    """Accumulates inclusive time, self time and call counts per span name."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.real_rows = 0
        self.padded_rows = 0
        self._open = []  # child seconds of each open span, innermost last

    def span(self, name, fn):
        """Wrap fn so that each call records a span called name."""
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._open.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children[0]
                self.calls[name] += 1
                if self._open:
                    self._open[-1][0] += elapsed
        return wrapper

    def _autodiff_op(self, op, fn):
        """Time an op's forward call and each vjp closure it leaves on the tape."""
        forward = self.span(f"autodiff.{op}.fwd", fn)
        backward_name = f"autodiff.{op}.bwd"

        def wrapper(*args, **kwargs):
            out = forward(*args, **kwargs)
            out.parents = tuple((parent, self.span(backward_name, vjp))
                                for parent, vjp in out.parents)
            return out
        return wrapper

    def _pad_batch(self, fn):
        padded = self.span("tokens.pad_batch", fn)

        def wrapper(matrices, r_max):
            batch = padded(matrices, r_max)
            self.real_rows += int(batch.mask.sum())
            self.padded_rows += batch.mask.size
            return batch
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block, then restore."""
        patches = [(mod, attr, self.span(name, getattr(mod, attr)))
                   for mod, attr, name in PLAIN_SPANS]
        patches += [(autodiff, op, self._autodiff_op(op, getattr(autodiff, op)))
                    for op in AUTODIFF_OPS]
        patches.append((harness, "pad_batch", self._pad_batch(harness.pad_batch)))
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in originals:
                setattr(mod, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer values keyed by the names in BENCHMARK.json's per_layer list."""
        t, s, c = self.total, self.self_time, self.calls
        out = {
            "graphs.read_dataset_s": t["graphs.read_dataset"],
            "spectral.laplacian_s": t["spectral.laplacian"],
            "spectral.eigh_s": t["spectral.eigh"],
            "spectral.calls": c["spectral.eigh"],
            "tokens.tokenize_s": t["tokens.tokenize"],
            "tokens.assemble_s": s["tokens.assemble"],
            "tokens.pad_batch_s": t["tokens.pad_batch"],
            "tokens.real_rows": self.real_rows,
            "tokens.padded_rows": self.padded_rows,
            "tokens.real_row_frac": (self.real_rows / self.padded_rows
                                     if self.padded_rows else 0.0),
        }
        for op in AUTODIFF_OPS:
            out[f"autodiff.{op}.fwd_s"] = t[f"autodiff.{op}.fwd"]
            out[f"autodiff.{op}.bwd_s"] = t[f"autodiff.{op}.bwd"]
            out[f"autodiff.{op}.calls"] = c[f"autodiff.{op}.fwd"]
        out.update({
            "autodiff.backward_s": t["autodiff.backward"],
            "autodiff.backward.self_s": s["autodiff.backward"],
            "model.encoder_forward_s": t["model.encoder_forward"],
            "model.backward_pass.self_s": s["model.backward_pass"],
            "model.adam_step_s": t["model.adam_step"],
            "model.save_model_s": t["model.save_model"],
            "model.load_model_s": t["model.load_model"],
            "harness.train_predictor_s": t["harness.train_predictor"],
            "harness.predict_s": t["harness.predict"],
            "harness.kendall_tau_s": t["harness.kendall_tau"],
            "harness.kendall_tau_calls": c["harness.kendall_tau"],
        })
        return out
