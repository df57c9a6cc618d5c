"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Just enough ops for a transformer encoder: linear maps, batched matmul, layer
norm, masked softmax, GELU in its tanh form (arXiv:1606.08415), dropout, the
feed-forward net and the self-attention sublayer (projections, score loop and
output projection) fused from those, mean pooling over packed rows, and the
elementwise arithmetic needed for losses. Each op records vector-Jacobian
closures; backward() walks the tape in reverse topological order and spends
it, dropping each op's closures, and the arrays they saved, once they have
run. A fused op is one Tensor with its own vjps, so an encoder layer builds
six Tensors, not one per elementary step; it saves only what its vjps read
and runs forward and backward in row blocks. Inside no_tape() a thread
records nothing, so an eval forward frees each intermediate once the next op
has read it, and a fused op holds one row block's temporaries at a time.
"""
from __future__ import annotations

import contextlib
import ctypes
import threading

import numpy as np


def _keep_freed_memory() -> None:
    """Stop glibc from handing large freed blocks back to the OS.

    By default a large temporary (a 512 KB row block of FFN hidden values or
    attention scores, a packed-row array of up to about 1 MB) is mmap'd and
    munmap'd, or trimmed off the top of the heap, when it is freed, so the
    next batch page-faults the same memory back in and the kernel zero-fills
    it: a scoring pass of 2,500 graphs took about 31,000 faults and 0.07-0.10
    s of system time. Serving blocks below 32 MiB from the heap, and trimming
    it only past 256 MiB of free space at the top, keeps those pages in the
    process: 11-25 faults a pass (64 MiB left 36,000 before the row blocks,
    12-537 since). One arena serves every thread: with an arena per thread,
    each worker of a parallel predict would keep a high-water heap of its
    own. A no-op where the C library has no mallopt (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, its 64-bit maximum
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


_keep_freed_memory()

_GELU_A = np.sqrt(2.0 / np.pi)  # gelu(x) = 0.5 x (1 + tanh(a x + b x^3))
_GELU_B = 0.044715 * _GELU_A
LAYER_NORM_EPS = 1e-5
BLOCK_VALUES = 1 << 16  # float64s (512 KB) in a row block of a fused op's temporaries


class _Tape(threading.local):
    recording = True


_tape = _Tape()


@contextlib.contextmanager
def no_tape():
    """Record no parents for tensors this thread builds inside the block.

    Outputs hold only their values, so nothing can be differentiated through
    them, and each intermediate is freed once nothing reads it. The setting
    is per thread and is restored on exit, exceptions included.
    """
    recording = _tape.recording
    _tape.recording = False
    try:
        yield
    finally:
        _tape.recording = recording


class Tensor:
    """An array, its gradient and the (parent, vjp) pairs that made it; parents
    is () for a leaf or an untaped result, and None once backward has spent it."""
    __slots__ = ("value", "grad", "parents")

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents if _tape.recording else ()

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def add(a: Tensor, b: Tensor) -> Tensor:
    assert a.value.shape == b.value.shape
    return Tensor(a.value + b.value, ((a, lambda g: g), (b, lambda g: g)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    assert a.value.shape == b.value.shape
    return Tensor(a.value - b.value, ((a, lambda g: g), (b, lambda g: -g)))


def scale(a: Tensor, c: float) -> Tensor:
    return Tensor(a.value * c, ((a, lambda g: g * c),))


def square(a: Tensor) -> Tensor:
    return Tensor(a.value ** 2, ((a, lambda g: 2.0 * a.value * g),))


def mean_all(a: Tensor) -> Tensor:
    size = a.value.size
    return Tensor(a.value.mean(), ((a, lambda g: np.full_like(a.value, g / size)),))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.value.shape
    return Tensor(a.value.reshape(shape), ((a, lambda g: g.reshape(old)),))


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)
    return Tensor(a.value.transpose(axes), ((a, lambda g: g.transpose(inverse)),))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis; x may have any number of leading axes."""
    y = x.value @ w.value
    y += b.value

    def vjp_x(g):
        return g @ w.value.T

    def vjp_w(g):
        x2 = x.value.reshape(-1, x.value.shape[-1])
        g2 = g.reshape(-1, g.shape[-1])
        return x2.T @ g2

    def vjp_b(g):
        return g.reshape(-1, g.shape[-1]).sum(axis=0)

    return Tensor(y, ((x, vjp_x), (w, vjp_w), (b, vjp_b)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul; leading axes of a and b must match exactly."""
    assert a.value.shape[:-2] == b.value.shape[:-2]
    y = a.value @ b.value

    def vjp_a(g):
        return g @ np.swapaxes(b.value, -1, -2)

    def vjp_b(g):
        return np.swapaxes(a.value, -1, -2) @ g

    return Tensor(y, ((a, vjp_a), (b, vjp_b)))


def _gelu_gate(x: np.ndarray, out=None) -> np.ndarray:
    """0.5 (1 + tanh(a x + b x^3)), so that gelu(x) = x * gate."""
    gate = np.square(x, out=out)
    gate *= _GELU_B
    gate += _GELU_A
    gate *= x
    np.tanh(gate, out=gate)
    gate += 1.0
    gate *= 0.5
    return gate


def _gelu_slope(x: np.ndarray, gate: np.ndarray, out=None) -> np.ndarray:
    """d gelu / dx = gate + 2u' x gate (1 - gate), u' = a + 3 b x^2; 2u' is 6b x^2 + 2a exactly."""
    out = np.square(x, out=out)
    out *= 6.0 * _GELU_B
    out += 2.0 * _GELU_A
    out *= x
    out *= gate
    out *= 1.0 - gate
    out += gate
    return out


def gelu(x: Tensor) -> Tensor:
    gate = _gelu_gate(x.value)
    return Tensor(x.value * gate, ((x, lambda g: _gelu_slope(x.value, gate) * g),))


def _once(fn):
    """fn(g), computed once for the g that an op's vjps are all handed."""
    memo = [None, None]

    def shared(g):
        if memo[0] is not g:
            memo[:] = g, fn(g)
        return memo[1]

    return shared


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(gelu(linear(x, w1, b1)), w2, b2) for x (T, D), bit for bit.

    The hidden layer runs in blocks of BLOCK_VALUES // d_ff rows, at least 2,
    and a 1-row tail joins the block before it: BLAS multiplies a single row
    by another path, with other bits. Only one block's pre-activations and
    GELU gates exist at a time. Untaped, so do its hidden values; taped, the
    blocks fill the two (T, d_ff) arrays that the vjps read, the hidden
    values and the GELU slope.
    """
    n, ff = x.value.shape[0], w1.value.shape[1]
    size = max(2, BLOCK_VALUES // ff)
    taped = _tape.recording
    block = min(n, size + 1)  # a block has at most size + 1 rows
    pre, gate = np.empty((block, ff)), np.empty((block, ff))
    hidden = np.empty((n if taped else block, ff))
    slope = np.empty((n, ff)) if taped else None
    y = np.empty((n, w2.value.shape[1]))
    starts = list(range(0, n, size))
    if n > 1 and n - starts[-1] == 1:
        starts.pop()
    for start, end in zip(starts, starts[1:] + [n]):
        rows = slice(0, end - start)
        at = slice(start, end) if taped else rows
        np.matmul(x.value[start:end], w1.value, out=pre[rows])
        pre[rows] += b1.value
        _gelu_gate(pre[rows], out=gate[rows])
        np.multiply(pre[rows], gate[rows], out=hidden[at])
        if taped:
            _gelu_slope(pre[rows], gate[rows], out=slope[at])
        np.matmul(hidden[at], w2.value, out=y[start:end])
    y += b2.value
    if not taped:
        return Tensor(y)

    def pre_grad(g):
        d_pre = g @ w2.value.T
        d_pre *= slope
        return d_pre

    d_pre = _once(pre_grad)
    return Tensor(y, ((x, lambda g: d_pre(g) @ w1.value.T),
                      (w1, lambda g: x.value.T @ d_pre(g)),
                      (b1, lambda g: d_pre(g).sum(axis=0)),
                      (w2, lambda g: hidden.T @ g),
                      (b2, lambda g: g.sum(axis=0))))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    d = x.value.shape[-1]
    xhat = x.value - np.add.reduce(x.value, axis=-1, keepdims=True) / d
    y = np.square(xhat)
    var = np.add.reduce(y, axis=-1, keepdims=True) / d  # the arithmetic of np.var
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gain.value, out=y)
    y += bias.value

    def vjp_x(g):
        # inv * (gh - mean(gh) - xhat * mean(gh * xhat)), gh = g * gain
        gh = g * gain.value
        t = gh * xhat
        mean_t = np.add.reduce(t, axis=-1, keepdims=True) / d
        np.multiply(xhat, mean_t, out=t)
        gh -= np.add.reduce(gh, axis=-1, keepdims=True) / d
        gh -= t
        gh *= inv
        return gh

    def vjp_gain(g):
        return (g * xhat).reshape(-1, g.shape[-1]).sum(axis=0)

    def vjp_bias(g):
        return g.reshape(-1, g.shape[-1]).sum(axis=0)

    return Tensor(y, ((x, vjp_x), (gain, vjp_gain), (bias, vjp_bias)))


def _softmax(scores: np.ndarray, mask) -> np.ndarray:
    if mask is None:
        p = scores - np.max(scores, axis=-1, keepdims=True)
        np.exp(p, out=p)
    else:
        top = np.max(scores, axis=-1, keepdims=True, where=mask, initial=-np.inf)
        p = np.zeros(scores.shape)
        np.subtract(scores, top, out=p, where=mask)
        np.exp(p, out=p, where=mask)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return p


def _softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """p * (g - sum(g * p))"""
    out = g * p
    np.subtract(g, np.add.reduce(out, axis=-1, keepdims=True), out=out)
    out *= p
    return out


def softmax_masked(scores: Tensor, mask) -> Tensor:
    """Softmax over the last axis of scores, over the entries where the boolean
    mask (broadcastable to scores) is True; masked entries get probability 0.
    Every row must keep an entry. mask None attends every entry.

    Only attended entries reach exp, and masked ones keep a zeroed buffer's
    zeros: exponentiating a masked entry would underflow, which takes numpy's
    slow path.
    """
    p = _softmax(scores.value, mask)
    return Tensor(p, ((scores, lambda g: _softmax_vjp(p, g)),))


def _dropout_keep(shape, p: float, rng, where) -> np.ndarray:
    """0 or 1 / (1 - p) for each entry; only the entries selected by `where`
    draw from rng, in row-major order, and every other entry is 0."""
    if where is True:  # every entry draws: the same values without the mask scatter
        return (rng.random(shape) >= p) / (1.0 - p)
    where = np.broadcast_to(where, shape)
    keep = np.zeros(shape)
    keep[where] = (rng.random(np.count_nonzero(where)) >= p) / (1.0 - p)
    return keep


def dropout(x: Tensor, p: float, rng) -> Tensor:
    """Inverted dropout with a caller-supplied generator, every entry drawing
    in row-major order; with no generator (rng None: eval mode, or no
    dropout) x is returned unchanged."""
    if rng is None:
        return x
    keep = _dropout_keep(x.value.shape, p, rng, True)
    return Tensor(x.value * keep, ((x, lambda g: g * keep),))


def _scatter(values: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((n,) + values.shape[1:])
    out[index] = values
    return out


def self_attention(x: Tensor, weights, n_heads: int, layout: tuple, slots, owner,
                   p: float, rng) -> Tensor:
    """Multi-head self-attention over packed rows x (T, D), through the output
    projection; weights are the Tensors (wq, bq, wk, bk, wv, bv, wo, bo).

    q, k and v come from one projection by [c wq | wk | wv] and [c bq | bk |
    bv], c = 1 / sqrt(D / n_heads), so the scores need no scale. Its rows are
    scattered to the flat `slots` of `layout`'s (rows, R) attention rows
    (slots None: x's rows fill them in order), and gathered back after the
    heads merge. owner (rows, R) names each slot's sample, -1 for padding: a
    query sees only its own owner's keys, so a padding query keeps its row's
    padding, and dropout draws, from rng, for the pairs of one sample's real
    slots (owner None: every key and every score). Bit for bit, value and
    gradients are those of the unfused op chain, `attention_chain` in
    tests/test_model.py. The scores run in blocks of BLOCK_VALUES // (H R^2)
    whole attention rows (at least one), each building its own mask and
    dropout pairs and drawing in row-major order, which continues one draw
    over all the scores; the vjp runs in the same blocks and writes the q, k
    and v gradients into one buffer. Untaped, one block's scores exist at a
    time, and the scattered q, k, v and the head-major context are freed
    before the output rows are built.
    """
    wq, bq, wk, bk, wv, bv, wo, bo = weights
    rows, r = layout
    d = x.value.shape[1]
    dh = d // n_heads
    c = 1.0 / np.sqrt(dh)
    w = np.concatenate([wq.value * c, wk.value, wv.value], axis=-1)
    qkv = x.value @ w
    qkv += np.concatenate([bq.value * c, bk.value, bv.value])
    if slots is not None:
        qkv = _scatter(qkv, slots, rows * r)
    q, k, v = qkv.reshape(rows, r, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    taped = _tape.recording
    step = max(1, BLOCK_VALUES // (n_heads * r * r))
    blocks = [slice(start, start + step) for start in range(0, rows, step)]
    probs = np.empty((rows, n_heads, r, r)) if taped else None
    keep = np.empty(probs.shape) if taped and rng is not None else None
    ctx = np.empty(v.shape)
    for at in blocks:
        mask = None if owner is None else (owner[at, :, None] == owner[at, None, :])[:, None]
        block = _softmax(q[at] @ np.swapaxes(k[at], -1, -2), mask)
        if taped:
            probs[at] = block
        if rng is not None:
            pairs = True if owner is None else mask & (owner[at] >= 0)[:, None, :, None]
            block_keep = _dropout_keep(block.shape, p, rng, pairs)
            if taped:
                keep[at] = block_keep
            block *= block_keep
        np.matmul(block, v[at], out=ctx[at])
    if not taped:
        del qkv, q, k, v
    merged = ctx.transpose(0, 2, 1, 3).reshape(rows * r, d)
    del ctx
    if slots is not None:
        merged = merged[slots]
    y = merged @ wo.value
    y += bo.value
    if not taped:
        return Tensor(y)

    def backward_rows(g):
        """The gradients of x, of the joined q/k/v weights and of their bias."""
        d_ctx = g @ wo.value.T
        if slots is not None:
            d_ctx = _scatter(d_ctx, slots, rows * r)
        d_ctx = d_ctx.reshape(rows, r, n_heads, dh).transpose(0, 2, 1, 3)
        d_qkv = np.empty((rows, r, 3, n_heads, dh))
        dq, dk, dv = d_qkv.transpose(2, 0, 3, 1, 4)
        for at in blocks:
            d_probs = d_ctx[at] @ np.swapaxes(v[at], -1, -2)
            dropped = probs[at]
            if keep is not None:
                d_probs *= keep[at]
                dropped = dropped * keep[at]
            d_scores = _softmax_vjp(probs[at], d_probs)
            dq[at] = d_scores @ k[at]
            dk[at] = np.swapaxes(np.swapaxes(q[at], -1, -2) @ d_scores, -1, -2)
            dv[at] = np.swapaxes(dropped, -1, -2) @ d_ctx[at]
        d_qkv = d_qkv.reshape(rows * r, 3 * d)
        if slots is not None:
            d_qkv = d_qkv[slots]
        return d_qkv @ w.T, x.value.T @ d_qkv, d_qkv.sum(axis=0)

    shared = _once(backward_rows)
    return Tensor(y, ((x, lambda g: shared(g)[0]),
                      (wq, lambda g: shared(g)[1][:, :d] * c),
                      (bq, lambda g: shared(g)[2][:d] * c),
                      (wk, lambda g: shared(g)[1][:, d:2 * d]),
                      (bk, lambda g: shared(g)[2][d:2 * d]),
                      (wv, lambda g: shared(g)[1][:, 2 * d:]),
                      (bv, lambda g: shared(g)[2][2 * d:]),
                      (wo, lambda g: merged.T @ g),
                      (bo, lambda g: g.sum(axis=0))))


def masked_mean(x: Tensor, counts: np.ndarray) -> Tensor:
    """Mean of each sample's real rows: x (T, D) packs sample b's counts[b] rows
    contiguously, samples in order; returns (B, D)."""
    ends = np.cumsum(counts)
    assert counts.min() > 0 and ends[-1] == x.value.shape[0]
    starts = ends - counts
    y = np.add.reduceat(x.value, starts, axis=0) / counts[:, None]

    def vjp(g):
        return np.repeat(g / counts[:, None], counts, axis=0)

    return Tensor(y, ((x, vjp),))


def backward(out: Tensor) -> None:
    """Accumulate gradients of a scalar output into every reachable tensor.

    The sweep spends the tape: a node's (parent, vjp) pairs, and the arrays
    they saved, are dropped once they have run, so a layer's saved arrays are
    freed before the layer below computes. A later backward through a spent
    node raises RuntimeError.
    """
    assert out.value.ndim == 0, "backward expects a scalar"
    order = []
    seen = set()
    stack = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.parents is None:
            raise RuntimeError("backward through a spent tape: an earlier backward "
                               "already released it")
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    for node in order:
        node.grad = None
    out.grad = np.ones(())
    while order:
        node = order.pop()
        pairs = node.parents
        if pairs:
            node.parents = None
        if node.grad is None:
            continue
        for parent, vjp in pairs:
            g = vjp(node.grad)
            parent.grad = g if parent.grad is None else parent.grad + g
