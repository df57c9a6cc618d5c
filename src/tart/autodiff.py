"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Just enough ops for a transformer encoder: linear maps, batched matmul, layer
norm, masked softmax, GELU in its tanh form (arXiv:1606.08415), dropout,
concatenation and unstacking, row gather and scatter between packed and padded
layouts, mean pooling over packed rows, and the elementwise arithmetic needed
for losses. Each op records vector-Jacobian closures; backward() walks the
tape in reverse topological order. Inside no_tape() a thread records nothing,
so an eval forward frees each intermediate as soon as the next op has read it.
"""
from __future__ import annotations

import contextlib
import ctypes
import threading

import numpy as np


def _keep_freed_memory() -> None:
    """Stop glibc from handing large freed blocks back to the OS.

    By default a large temporary (FFN hidden rows, attention scores: 1-3 MB)
    is mmap'd and munmap'd, or trimmed off the top of the heap, when it is
    freed, so the next batch page-faults the same memory back in and the
    kernel zero-fills it: 0.3-0.4 s of a 1.5 s scoring pass of 2,500 graphs
    went to system time. Serving blocks below 32 MiB from the heap, and
    trimming it only past 256 MiB of free space at the top (64 MiB still left
    36,000 faults per pass), keeps those pages in the process. One arena
    serves every thread: with an arena per thread, each worker of a parallel
    predict would keep a high-water heap of its own. A no-op where the C
    library has no mallopt (not glibc).
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


def concat(tensors) -> Tensor:
    """The tensors joined along their last axis."""
    parents, start = [], 0
    for t in tensors:
        end = start + t.value.shape[-1]
        parents.append((t, lambda g, start=start, end=end: g[..., start:end]))
        start = end
    return Tensor(np.concatenate([t.value for t in tensors], axis=-1), tuple(parents))


def unstack(x: Tensor) -> tuple:
    """The tensors x[0], x[1], ... along the first axis."""
    def piece(i):
        def vjp(g):
            out = np.zeros(x.value.shape)
            out[i] = g
            return out
        return vjp

    return tuple(Tensor(x.value[i], ((x, piece(i)),)) for i in range(x.value.shape[0]))


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


def gelu(x: Tensor) -> Tensor:
    gate = np.square(x.value)
    gate *= _GELU_B
    gate += _GELU_A
    gate *= x.value
    np.tanh(gate, out=gate)
    gate += 1.0
    gate *= 0.5

    def vjp(g):
        # g * (gate + 2u' x gate (1 - gate)), u' = a + 3 b x^2; 2u' is 6b x^2 + 2a exactly
        out = np.square(x.value)
        out *= 6.0 * _GELU_B
        out += 2.0 * _GELU_A
        out *= x.value
        out *= gate
        out *= 1.0 - gate
        out += gate
        out *= g
        return out

    return Tensor(x.value * gate, ((x, vjp),))


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


def softmax_masked(scores: Tensor, mask) -> Tensor:
    """Softmax over the last axis of scores, over the entries where the boolean
    mask (broadcastable to scores) is True; masked entries get probability 0.
    Every row must keep an entry. mask None attends every entry.

    Only attended entries reach exp, and masked ones keep a zeroed buffer's
    zeros: exponentiating a masked entry would underflow, which takes numpy's
    slow path.
    """
    if mask is None:
        p = scores.value - np.max(scores.value, axis=-1, keepdims=True)
        np.exp(p, out=p)
    else:
        top = np.max(scores.value, axis=-1, keepdims=True, where=mask, initial=-np.inf)
        p = np.zeros(scores.value.shape)
        np.subtract(scores.value, top, out=p, where=mask)
        np.exp(p, out=p, where=mask)
    p /= np.add.reduce(p, axis=-1, keepdims=True)

    def vjp(g):
        # p * (g - sum(g * p))
        out = g * p
        np.subtract(g, np.add.reduce(out, axis=-1, keepdims=True), out=out)
        out *= p
        return out

    return Tensor(p, ((scores, vjp),))


def dropout(x: Tensor, p: float, rng, where=True) -> Tensor:
    """Inverted dropout with a caller-supplied generator (train mode only).

    Only the entries selected by `where` (broadcastable to x) draw from rng,
    in row-major order; every other entry is zeroed.
    """
    if p <= 0.0:
        return x
    where = np.broadcast_to(where, x.value.shape)
    keep = np.zeros(x.value.shape)
    keep[where] = (rng.random(np.count_nonzero(where)) >= p) / (1.0 - p)
    return Tensor(x.value * keep, ((x, lambda g: g * keep),))


def _scatter(values: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((n,) + values.shape[1:])
    out[index] = values
    return out


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows x[index] of x (N, ...); index holds distinct row numbers. Each of
    gather_rows and scatter_rows is the vjp of the other."""
    n = x.value.shape[0]
    return Tensor(x.value[index], ((x, lambda g: _scatter(g, index, n)),))


def scatter_rows(x: Tensor, index: np.ndarray, n: int) -> Tensor:
    """An (n, ...) tensor, zero except row index[i] = x[i]; index holds distinct row numbers."""
    return Tensor(_scatter(x.value, index, n), ((x, lambda g: g[index]),))


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
    """Accumulate gradients of a scalar output into every reachable tensor."""
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
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    for node in order:
        node.grad = None
    out.grad = np.ones(())
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, vjp in node.parents:
            g = vjp(node.grad)
            parent.grad = g if parent.grad is None else parent.grad + g
