import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tart
from tart import autodiff as ad
from tart import model as md


def tiny_config(**overrides):
    base = dict(n_layer=2, d_model=16, n_heads=2, d_ff=24, dropout_p=0.0)
    base.update(overrides)
    return md.EncoderConfig(**base)


def random_batch(rng, b=3, r=6, c=11, holes=True):
    tokens = rng.normal(size=(b, r, c))
    mask = np.ones((b, r), dtype=bool)
    if holes:
        mask[0, r - 2:] = False
        tokens[0, r - 2:] = 0.0
    return tokens, mask


def shared_row_batch(rng):
    """Graphs of 6, 2, 4 and 1 real rows, padded to 6. Packed first-fit decreasing
    into rows of 6, the 2- and 4-row graphs share one attention row."""
    tokens = rng.normal(size=(4, 6, 11))
    mask = np.arange(6) < np.array([6, 2, 4, 1])[:, None]
    tokens[~mask] = 0.0
    return tokens, mask


def grad_by_name(model, grad):
    """Name -> view of grad, a gradient laid out as model.flat, cut by parameter_shapes."""
    views, start = {}, 0
    for name, shape in md.parameter_shapes(model.config).items():
        end = start + math.prod(shape)
        views[name] = grad[start:end].reshape(shape)
        start = end
    return views


def finite_difference_check(model, tokens, mask, targets, stats,
                            n_coords=200, eps=1e-5, seed=0):
    """Central finite differences against analytic gradients, on the targets
    z-scored with stats (mean, std).

    Relative error uses a 1e-3 floor on the denominator so near-zero
    gradients are compared absolutely.
    """
    mean, std = stats
    z = (targets - mean) / std
    _, grad = md.backward_pass(model, tokens, mask, z)
    grads = grad_by_name(model, grad)
    names = list(model.params)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_coords):
        name = names[rng.integers(len(names))]
        param = model.params[name]
        idx = tuple(rng.integers(s) for s in param.value.shape)
        orig = param.value[idx]
        param.value[idx] = orig + eps
        preds = md.encoder_forward(model, tokens, mask)
        up = float(md.loss_mse(preds, z).value)
        param.value[idx] = orig - eps
        preds = md.encoder_forward(model, tokens, mask)
        down = float(md.loss_mse(preds, z).value)
        param.value[idx] = orig
        fd = (up - down) / (2 * eps)
        analytic = grads[name][idx]
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-3)
        worst = max(worst, rel)
    return worst


UNIT_STATS = (np.zeros(4), np.ones(4))
TART_V4_CHECKPOINT = Path(__file__).resolve().parent / "data" / "tart_v4.ckpt"
# a 1-layer tart model (d_model 4, 2 heads, d_ff 8, d_p 3, dropout 0.1) trained one epoch
TART_V5_CHECKPOINT = Path(__file__).resolve().parent / "data" / "tart_v5.ckpt"


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("checkpoint") / "m.ckpt"
    md.save_model(md.init_model(tiny_config(n_layer=1, d_model=4, d_ff=4), seed=1), path)
    return path


def load_bytes(path, blob):
    path.write_bytes(blob)
    return md.load_model(path)


def rewrite_header(blob, header, drop=()):
    """The checkpoint with `header` merged into its JSON config and the `drop`
    keys taken out, payload unchanged."""
    (cfg_len,) = struct.unpack_from("<I", blob, 11)
    merged = {**json.loads(blob[15:15 + cfg_len]), **header}
    cfg_json = json.dumps({k: v for k, v in merged.items() if k not in drop}).encode()
    return blob[:11] + struct.pack("<I", len(cfg_json)) + cfg_json + blob[15 + cfg_len:]


def concat(tensors):
    """The tensors joined along their last axis."""
    parents, start = [], 0
    for t in tensors:
        end = start + t.value.shape[-1]
        parents.append((t, lambda g, start=start, end=end: g[..., start:end]))
        start = end
    return ad.Tensor(np.concatenate([t.value for t in tensors], axis=-1), tuple(parents))


def unstack(x):
    """The tensors x[0], x[1], ... along the first axis."""
    def piece(i):
        def vjp(g):
            out = np.zeros(x.value.shape)
            out[i] = g
            return out
        return vjp

    return tuple(ad.Tensor(x.value[i], ((x, piece(i)),)) for i in range(x.value.shape[0]))


def scatter(values, index, n):
    out = np.zeros((n,) + values.shape[1:])
    out[index] = values
    return out


def gather_rows(x, index):
    """Rows x[index] of x (N, ...); index holds distinct row numbers. Each of
    gather_rows and scatter_rows is the vjp of the other."""
    n = x.value.shape[0]
    return ad.Tensor(x.value[index], ((x, lambda g: scatter(g, index, n)),))


def scatter_rows(x, index, n):
    """An (n, ...) tensor, zero except row index[i] = x[i]; index holds distinct row numbers."""
    return ad.Tensor(scatter(x.value, index, n), ((x, lambda g: g[index]),))


class TestAutodiffOps:
    def check_op(self, build, shapes, seed=0, eps=1e-6, tol=1e-7):
        rng = np.random.default_rng(seed)
        leaves = [ad.Tensor(rng.normal(size=s)) for s in shapes]
        out = ad.mean_all(ad.square(build(*leaves)))
        ad.backward(out)
        for leaf in leaves:
            flat = leaf.value.reshape(-1)
            gflat = leaf.grad.reshape(-1)
            for k in range(min(flat.size, 10)):
                orig = flat[k]
                flat[k] = orig + eps
                up = float(ad.mean_all(ad.square(build(*leaves))).value)
                flat[k] = orig - eps
                down = float(ad.mean_all(ad.square(build(*leaves))).value)
                flat[k] = orig
                fd = (up - down) / (2 * eps)
                assert abs(fd - gflat[k]) <= tol * max(1.0, abs(fd))

    def test_linear(self):
        self.check_op(lambda x, w, b: ad.linear(x, w, b), [(2, 3, 4), (4, 5), (5,)])

    def test_matmul(self):
        self.check_op(ad.matmul, [(2, 2, 3, 4), (2, 2, 4, 3)])

    def test_gelu(self):
        self.check_op(ad.gelu, [(3, 4)])

    def test_layer_norm(self):
        self.check_op(lambda x, g, b: ad.layer_norm(x, g, b), [(2, 3, 6), (6,), (6,)])

    def test_softmax_masked(self):
        mask = np.ones((2, 1, 1, 4), dtype=bool)
        mask[0, ..., -1] = False
        self.check_op(lambda s: ad.softmax_masked(s, mask), [(2, 2, 4, 4)])

    def test_feed_forward(self):
        self.check_op(ad.feed_forward, [(5, 3), (3, 6), (6,), (6, 3), (3,)])

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_attention(self, p):
        # two attention rows, the first shared by samples of 3 and 1 tokens, the second
        # holding a sample of 2 and two padding slots
        owner, slots = md.pack_rows(np.array([3, 1, 2]))
        self.check_op(lambda x, *weights: ad.self_attention(
            x, weights, 2, owner.shape, slots, owner, p,
            np.random.default_rng(3) if p else None),
            [(6, 4)] + [(4, 4), (4,)] * 4)

    def test_masked_mean(self):
        # two samples packed as rows 0-1 and 2-4
        self.check_op(lambda x: ad.masked_mean(x, np.array([2, 3])), [(5, 4)])
        x = np.random.default_rng(1).normal(size=(5, 4))
        pooled = ad.masked_mean(ad.Tensor(x), np.array([2, 3])).value
        assert np.allclose(pooled, [x[:2].mean(axis=0), x[2:].mean(axis=0)], atol=1e-15)

    # the reference ops of self_attention's chain
    def test_gather_rows(self):
        self.check_op(lambda x: gather_rows(x, np.array([3, 0, 2])), [(5, 4)])

    def test_scatter_rows(self):
        self.check_op(lambda x: scatter_rows(x, np.array([3, 0, 2]), 5), [(3, 4)])

    def test_concat(self):
        self.check_op(lambda a, b: concat([a, ad.scale(b, 3.0), a]), [(2, 3), (2, 4)])

    def test_unstack(self):
        # the middle piece is unused, so its part of the gradient is zero
        self.check_op(lambda x: ad.add(unstack(x)[0], ad.scale(unstack(x)[2], 2.0)),
                      [(3, 2, 4)])

    def test_scatter_then_gather_is_identity(self):
        x = np.random.default_rng(2).normal(size=(3, 2, 2))
        index = np.array([4, 1, 2])
        padded = scatter_rows(ad.Tensor(x), index, 6)
        assert np.array_equal(padded.value[[0, 3, 5]], np.zeros((3, 2, 2)))
        assert np.array_equal(gather_rows(padded, index).value, x)

    def test_shared_input_accumulates(self):
        x = ad.Tensor(np.array([1.5]))
        out = ad.mean_all(ad.add(x, x))
        ad.backward(out)
        assert x.grad[0] == pytest.approx(2.0)


def vjps(out, g):
    """The vjp of every parent of out, applied to g."""
    return [vjp(g) for _, vjp in out.parents]


class TestKernelsMatchReference:
    """The in-place kernels give bit for bit what the plain numpy expressions give."""

    @staticmethod
    def gelu_reference(x, g):
        a = np.sqrt(2.0 / np.pi)
        b = 0.044715 * a
        gate = 0.5 * (1.0 + np.tanh(x * (a + b * x ** 2)))  # tanh(a x + b x^3)
        du = a + 3 * b * x ** 2
        return x * gate, g * (gate + 2.0 * du * x * gate * (1.0 - gate))

    @staticmethod
    def layer_norm_reference(x, gain, bias, g):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + ad.LAYER_NORM_EPS)
        xhat = (x - mu) * inv
        gh = g * gain
        term = gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
        return xhat * gain + bias, inv * term

    @staticmethod
    def softmax_reference(scores, mask, g):
        z = scores + np.where(mask, 0.0, -1e30)
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
        return p, p * (g - (g * p).sum(axis=-1, keepdims=True))

    @staticmethod
    def scores_with_underflow(rng, shape):
        scores = rng.normal(scale=3.0, size=shape)
        scores[0, 0, 1, 1:] = -1000.0  # real scores whose exp underflows to 0
        return scores

    def test_linear(self):
        rng = np.random.default_rng(0)
        x, w, b, g = (rng.normal(size=s) for s in [(5, 7, 6), (6, 9), (9,), (5, 7, 9)])
        out = ad.linear(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
        assert np.array_equal(out.value, x @ w + b)
        assert np.array_equal(vjps(out, g)[0], g @ w.T)

    def test_gelu(self):
        rng = np.random.default_rng(1)
        x = rng.normal(scale=4.0, size=(40, 33))
        g = rng.normal(size=x.shape)
        out = ad.gelu(ad.Tensor(x))
        y, dx = self.gelu_reference(x, g)
        assert np.array_equal(out.value, y)
        assert np.array_equal(vjps(out, g)[0], dx)

    def test_layer_norm(self):
        rng = np.random.default_rng(2)
        x = rng.normal(loc=3.0, scale=2.0, size=(37, 32))
        gain, bias, g = rng.normal(size=32), rng.normal(size=32), rng.normal(size=x.shape)
        out = ad.layer_norm(ad.Tensor(x), ad.Tensor(gain), ad.Tensor(bias))
        y, dx = self.layer_norm_reference(x, gain, bias, g)
        assert np.array_equal(out.value, y)
        assert np.array_equal(vjps(out, g)[0], dx)

    def test_softmax_unmasked(self):
        rng = np.random.default_rng(3)
        scores = self.scores_with_underflow(rng, (3, 4, 9, 9))
        g = rng.normal(size=scores.shape)
        out = ad.softmax_masked(ad.Tensor(scores), None)
        p, dscores = self.softmax_reference(scores, np.ones(scores.shape, dtype=bool), g)
        assert np.array_equal(out.value, p)
        assert np.array_equal(vjps(out, g)[0], dscores)

    def test_softmax_masked(self):
        # two attention rows as encoder_forward lays them out: samples of 4 and 3
        # tokens share the first, a sample of 5 and 2 padding slots fill the second
        rng = np.random.default_rng(4)
        owner = np.array([[0, 0, 0, 0, 1, 1, 1], [2, 2, 2, 2, 2, -1, -1]])
        attend = (owner[:, :, None] == owner[:, None, :])[:, None]
        scores = self.scores_with_underflow(rng, (2, 4, 7, 7))
        g = rng.normal(size=scores.shape)
        out = ad.softmax_masked(ad.Tensor(scores), attend)
        real_query = np.broadcast_to((owner >= 0)[:, None, :, None], scores.shape)
        p, dscores = self.softmax_reference(scores, attend & real_query, g)
        assert np.all(out.value[~np.broadcast_to(attend, scores.shape)] == 0.0)
        assert np.array_equal(out.value[real_query], p[real_query])
        assert np.array_equal(vjps(out, g)[0][real_query], dscores[real_query])

    @pytest.mark.parametrize("partial", [False, True])
    def test_dropout_keep(self, partial):
        # the values and generator state of the boolean-mask scatter, for every entry or some
        shape = (3, 4, 7, 7)
        where = np.random.default_rng(6).random((3, 1, 7, 1)) < 0.6 if partial else True
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        keep = ad._dropout_keep(shape, 0.1, rng, where)
        selected = np.broadcast_to(where, shape)
        reference = np.zeros(shape)
        reference[selected] = (ref_rng.random(np.count_nonzero(selected)) >= 0.1) / 0.9
        assert np.array_equal(keep, reference)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_adam_steps(self):
        def reference_step(values, grads, m, v, t, lr):
            for name in values:
                g = grads[name]
                m[name] = md.ADAM_BETA1 * m[name] + (1 - md.ADAM_BETA1) * g
                v[name] = md.ADAM_BETA2 * v[name] + (1 - md.ADAM_BETA2) * g * g
                m_hat = m[name] / (1 - md.ADAM_BETA1 ** t)
                v_hat = v[name] / (1 - md.ADAM_BETA2 ** t)
                values[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + md.ADAM_EPS)

        model = md.init_model(tiny_config(n_layer=1, d_model=8, n_heads=2, d_ff=8), seed=0)
        values = {k: p.value.copy() for k, p in model.params.items()}
        m = {k: np.zeros_like(x) for k, x in values.items()}
        v = {k: np.zeros_like(x) for k, x in values.items()}
        state = md.adam_init(model)
        grng = np.random.default_rng(5)
        for t in range(1, 6):
            grads = {k: grng.normal(size=x.shape) for k, x in values.items()}
            md.adam_step(model, np.concatenate([g.reshape(-1) for g in grads.values()]),
                         state, lr=1e-2)
            reference_step(values, grads, m, v, t, lr=1e-2)
        for name, param in model.params.items():
            assert np.array_equal(param.value, values[name])


def feed_forward_chain(x, w1, b1, w2, b2):
    return ad.linear(ad.gelu(ad.linear(x, w1, b1)), w2, b2)


def attention_chain(x, weights, n_heads, layout, slots, owner, p, rng):
    """The op chain that self_attention fuses, with the whole batch's masks built
    from owner: a query attends its own owner's keys, and dropout draws for the
    pairs whose query and key are one sample's real slots."""
    wq, bq, wk, bk, wv, bv, wo, bo = weights
    rows, r = layout
    d = x.shape[1]
    dh = d // n_heads
    c = 1.0 / np.sqrt(dh)
    w = concat([ad.scale(wq, c), wk, wv])
    b = concat([ad.scale(bq, c), bk, bv])
    qkv = ad.linear(x, w, b)
    if slots is not None:
        qkv = scatter_rows(qkv, slots, rows * r)
    q, k, v = unstack(ad.transpose(ad.reshape(qkv, (rows, r, 3, n_heads, dh)), (2, 0, 3, 1, 4)))
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2)))
    mask, pairs = None, True
    if owner is not None:
        mask = (owner[:, :, None] == owner[:, None, :])[:, None]
        pairs = mask & (owner >= 0)[:, None, :, None]
    probs = ad.softmax_masked(scores, mask)
    if rng is not None:
        keep = ad._dropout_keep(probs.shape, p, rng, pairs)
        probs = ad.Tensor(probs.value * keep, ((probs, lambda g: g * keep),))
    ctx = ad.reshape(ad.transpose(ad.matmul(probs, v), (0, 2, 1, 3)), (rows * r, d))
    if slots is not None:
        ctx = gather_rows(ctx, slots)
    return ad.linear(ctx, wo, bo)


def value_and_grads(build, values):
    """build's output value and the gradient of mean(out^2) in each of its inputs."""
    leaves = [ad.Tensor(value.copy()) for value in values]
    out = build(*leaves)
    ad.backward(ad.mean_all(ad.square(out)))
    return [out.value] + [leaf.grad for leaf in leaves]


def assert_same_bits(fused, chain):
    assert len(fused) == len(chain)
    for a, b in zip(fused, chain):
        assert a.shape == b.shape and np.array_equal(a, b)


class TestFusedOps:
    """feed_forward and attention give the bits of the op chains they fuse,
    forward and backward, however many row blocks they run in."""

    @pytest.mark.parametrize("block_values", [None, 64])
    @pytest.mark.parametrize("rows", [1, 2, 5, 257, 600])
    def test_feed_forward_matches_chain(self, rows, block_values, monkeypatch):
        # the benchmark's d_model 32 and d_ff 256; blocks of 256 rows by default and
        # of 2 rows at 64 values, so 257 rows and 5 rows leave a 1-row tail
        if block_values is not None:
            monkeypatch.setattr(ad, "BLOCK_VALUES", block_values)
        rng = np.random.default_rng(rows)
        values = [rng.normal(size=s) for s in [(rows, 32), (32, 256), (256,), (256, 32), (32,)]]
        assert_same_bits(value_and_grads(ad.feed_forward, values),
                         value_and_grads(feed_forward_chain, values))

    @pytest.mark.parametrize("block_values", [None, 1, 144])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_attention_matches_chain(self, p, masked, block_values, monkeypatch):
        # pack_rows packs 7 samples into 5 attention rows of 6 slots; x holds only their rows
        # (scattered to slots) or one row per slot. At 1 value a block is one row, and
        # at 144 values (2 heads' 6 x 6 scores) two rows, with a 1-row tail
        if block_values is not None:
            monkeypatch.setattr(ad, "BLOCK_VALUES", block_values)
        rng = np.random.default_rng(5)
        owner, packed = md.pack_rows(np.array([6, 2, 4, 1, 3, 6, 5]))
        weights = [rng.normal(size=(8, 8)) if i % 2 == 0 else rng.normal(size=8)
                   for i in range(8)]
        for slots in (packed, None):
            x = rng.normal(size=(owner.size if slots is None else packed.size, 8))

            def run(op):
                def build(x, *weights):
                    return op(x, weights, 2, owner.shape, slots, owner if masked else None,
                              p, np.random.default_rng(9) if p else None)
                return build

            assert_same_bits(value_and_grads(run(ad.self_attention), [x] + weights),
                             value_and_grads(run(attention_chain), [x] + weights))

    def test_taped_feed_forward_keeps_two_hidden_arrays(self):
        # the hidden values and the GELU slope; pre-activations and gates live one
        # 256-row block at a time
        rng = np.random.default_rng(8)
        t, d, ff = 600, 32, 256
        leaves = [ad.Tensor(rng.normal(size=s)) for s in [(t, d), (d, ff), (ff,), (ff, d), (d,)]]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.feed_forward(*leaves)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.parents
        assert retained <= 8 * (2 * t * ff + 4 * t * d)

    def test_untaped_calls_keep_no_parents(self, monkeypatch):
        monkeypatch.setattr(ad, "BLOCK_VALUES", 1)
        rng = np.random.default_rng(6)
        ffn = [ad.Tensor(rng.normal(size=s)) for s in [(7, 4), (4, 8), (8,), (8, 4), (4,)]]
        x = ad.Tensor(rng.normal(size=(15, 4)))
        weights = [ad.Tensor(rng.normal(size=(4, 4) if i % 2 == 0 else 4)) for i in range(8)]

        def attention():
            return ad.self_attention(x, weights, 2, (3, 5), None, None, 0.5,
                                     np.random.default_rng(7))

        taped = [ad.feed_forward(*ffn), attention()]
        with ad.no_tape():
            untaped = [ad.feed_forward(*ffn), attention()]
        for a, b in zip(taped, untaped):
            assert a.parents != () and b.parents == ()
            assert np.array_equal(a.value, b.value)


def test_import_loads_no_scipy():
    # the package and its command run on numpy alone; scipy is a test dependency
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, tart, tart.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestGradientFidelity:
    def test_full_model_finite_differences(self):
        rng = np.random.default_rng(42)
        model = md.init_model(tiny_config(), seed=7)
        tokens, mask = random_batch(rng, b=4, r=6)
        targets = rng.normal(size=(4, 4))
        worst = finite_difference_check(model, tokens, mask, targets, UNIT_STATS)
        assert worst <= 1e-6

    def test_packed_rows_finite_differences(self):
        # counts 6, 2, 4, 1: the 2- and 4-row graphs share an attention row
        rng = np.random.default_rng(43)
        model = md.init_model(tiny_config(), seed=8)
        tokens, mask = shared_row_batch(rng)
        targets = rng.normal(size=(4, 4))
        worst = finite_difference_check(model, tokens, mask, targets, UNIT_STATS)
        assert worst <= 1e-6

    def test_zero_head_blocks_encoder_gradients(self):
        rng = np.random.default_rng(1)
        model = md.init_model(tiny_config(), seed=3)
        model.params["head.w"].value[:] = 0.0
        tokens, mask = random_batch(rng)
        targets = rng.normal(size=(3, 4))
        _, grad = md.backward_pass(model, tokens, mask, targets)
        for name, g in grad_by_name(model, grad).items():
            if name.startswith("head"):
                continue
            assert np.all(g == 0.0), name

    def test_non_finite_gradient_names_the_first_parameter(self):
        # targets of 1e308 leave the forward finite, and twice the residual overflows
        rng = np.random.default_rng(2)
        model = md.init_model(tiny_config(), seed=4)
        tokens, mask = random_batch(rng)
        with np.errstate(all="ignore"):
            with pytest.raises(md.ModelError,
                               match=r"^non-finite activation after gradient of input_proj.w$"):
                md.backward_pass(model, tokens, mask, np.full((3, 4), 1e308))

    def test_gradient_is_laid_out_as_the_buffer(self):
        # dropout on and graphs sharing an attention row: every path of the sweep runs
        rng = np.random.default_rng(6)
        model = md.init_model(tiny_config(dropout_p=0.1), seed=5)
        tokens, mask = shared_row_batch(rng)
        z = rng.normal(size=(4, 4))
        loss, grad = md.backward_pass(model, tokens, mask, z, dropout_seed=9)
        assert all(param.grad is None for param in model.params.values())
        raw = md.loss_mse(md.encoder_forward(model, tokens, mask, train=True, dropout_seed=9), z)
        ad.backward(raw)
        expected = np.concatenate([model.params[name].grad.reshape(-1)
                                   for name in md.parameter_shapes(model.config)])
        assert grad.dtype == np.float64 and grad.shape == model.flat.shape
        assert grad.tobytes() == expected.tobytes() and loss == float(raw.value)


class TestNoTape:
    def test_eval_forward_keeps_no_parents_and_same_value(self):
        rng = np.random.default_rng(3)
        model = md.init_model(tiny_config(), seed=1)
        tokens, mask = shared_row_batch(rng)
        taped = md.encoder_forward(model, tokens, mask)
        with ad.no_tape():
            untaped = md.encoder_forward(model, tokens, mask)
        assert taped.parents != () and untaped.parents == ()
        assert np.array_equal(untaped.value, taped.value)

    def test_setting_is_per_thread(self):
        a, b = ad.Tensor(np.ones(2)), ad.Tensor(np.ones(2))
        seen = {}

        def build(name):
            seen[name] = ad.add(a, b).parents

        with ad.no_tape():
            other = threading.Thread(target=build, args=("other thread",))
            other.start()
            other.join(timeout=10)
            build("inside")
        assert not other.is_alive()
        assert seen["inside"] == () and len(seen["other thread"]) == 2

        def build_untaped():
            with ad.no_tape():
                build("untaped thread")

        worker = threading.Thread(target=build_untaped)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        build("after")
        assert seen["untaped thread"] == () and len(seen["after"]) == 2

    def test_restored_after_an_exception(self):
        with pytest.raises(md.ModelError):
            with ad.no_tape():
                with ad.no_tape():
                    pass
                assert ad.add(ad.Tensor(1.0), ad.Tensor(2.0)).parents == ()
                raise md.ModelError("boom")
        assert len(ad.add(ad.Tensor(1.0), ad.Tensor(2.0)).parents) == 2

    def test_backward_pass_gradients_unchanged(self):
        rng = np.random.default_rng(4)
        model = md.init_model(tiny_config(), seed=2)
        tokens, mask = shared_row_batch(rng)
        targets = rng.normal(size=(4, 4))
        loss, grad = md.backward_pass(model, tokens, mask, targets)
        with ad.no_tape():
            md.encoder_forward(model, tokens, mask)
        loss_after, grad_after = md.backward_pass(model, tokens, mask, targets)
        assert loss_after == loss
        assert all(np.any(g != 0.0) for g in grad_by_name(model, grad).values())
        assert np.array_equal(grad, grad_after)


class TestSpentTape:
    def test_backward_frees_every_saved_array(self):
        # samples of 30, 20, 10, 25 and 5 rows packed into 3 attention rows of 30: the
        # tape saves (90, 256) FFN arrays and (3, 4, 30, 30) probabilities and dropout
        # factors, and holding the loss and predictions must keep none of them
        rng = np.random.default_rng(10)
        model = md.init_model(tiny_config(n_heads=4, d_ff=256, dropout_p=0.1), seed=3)
        counts = np.array([30, 20, 10, 25, 5])
        mask = np.arange(30) < counts[:, None]
        tokens = np.where(mask[..., None], rng.normal(size=(5, 30, 11)), 0.0)
        z = rng.normal(size=(5, 4))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            preds = md.encoder_forward(model, tokens, mask, train=True, dropout_seed=3)
            loss = md.loss_mse(preds, z)
            taped = tracemalloc.get_traced_memory()[0] - before
            ad.backward(loss)
            grads = sum(param.grad.nbytes for param in model.params.values())
            held = tracemalloc.get_traced_memory()[0] - before - grads
        finally:
            tracemalloc.stop()
        assert taped > 8 * 90 * 256 * 2
        assert held < 8 * 3 * 4 * 30 * 30
        assert preds.parents is None and loss.parents is None

    def test_second_backward_names_the_spent_tape(self):
        x = ad.Tensor(np.array([1.5, -2.0]))
        out = ad.mean_all(ad.square(x))
        ad.backward(out)
        grad = x.grad.copy()
        for spent in (out, ad.scale(out, 2.0)):  # the output itself, or a tensor built on it
            with pytest.raises(RuntimeError, match="spent tape"):
                ad.backward(spent)
        assert np.array_equal(x.grad, grad)
        # leaves keep no tape, so a new output over them differentiates afresh
        ad.backward(ad.mean_all(ad.square(x)))
        assert np.array_equal(x.grad, grad)


class TestForward:
    def test_single_token_attention_is_identity_weighting(self):
        # one real token: softmax over one position is 1, pooling returns it
        cfg = tiny_config(n_layer=1)
        model = md.init_model(cfg, seed=0)
        rng = np.random.default_rng(5)
        tokens = np.zeros((1, 4, 11))
        tokens[0, 0] = rng.normal(size=11)
        mask = np.zeros((1, 4), dtype=bool)
        mask[0, 0] = True
        preds_padded = md.encoder_forward(model, tokens, mask)
        preds_solo = md.encoder_forward(model, tokens[:, :1], mask[:, :1])
        assert np.allclose(preds_padded.value, preds_solo.value, atol=1e-12)

    def test_mask_empty(self):
        model = md.init_model(tiny_config(), seed=0)
        tokens = np.zeros((2, 3, 11))
        mask = np.zeros((2, 3), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(md.ModelError, match="sample 1 has no real tokens to pool over"):
            md.encoder_forward(model, tokens, mask)

    def test_batch_independence(self):
        rng = np.random.default_rng(9)
        model = md.init_model(tiny_config(), seed=2)
        tokens, mask = random_batch(rng, b=2, holes=False)
        tokens[1] = tokens[0]
        preds = md.encoder_forward(model, tokens, mask)
        assert np.allclose(preds.value[0], preds.value[1], atol=1e-12)

        # graphs of 6, 2, 4 and 1 real rows in one batch, one with its padding in the middle
        tokens, mask = random_batch(rng, b=4, r=6, holes=False)
        mask[1, 2:] = False
        mask[2, [1, 4]] = False
        mask[3, 1:] = False
        tokens[~mask] = 0.0
        preds = md.encoder_forward(model, tokens, mask).value
        for i in range(4):
            solo = md.encoder_forward(model, tokens[i][mask[i]][None], mask[i][mask[i]][None])
            assert np.max(np.abs(preds[i] - solo.value[0])) <= 1e-12

    def test_mask_invariance_under_extra_padding(self):
        rng = np.random.default_rng(10)
        model = md.init_model(tiny_config(), seed=4)
        tokens, mask = random_batch(rng, b=3, r=5, holes=False)
        preds = md.encoder_forward(model, tokens, mask)
        padded_tokens = np.concatenate([tokens, np.zeros((3, 4, 11))], axis=1)
        padded_mask = np.concatenate([mask, np.zeros((3, 4), dtype=bool)], axis=1)
        preds_padded = md.encoder_forward(model, padded_tokens, padded_mask)
        assert np.max(np.abs(preds.value - preds_padded.value)) <= 1e-12

    def test_token_permutation_invariance_of_pooled_output(self):
        rng = np.random.default_rng(11)
        model = md.init_model(tiny_config(), seed=6)
        tokens, mask = random_batch(rng, b=1, r=6, holes=False)
        preds = md.encoder_forward(model, tokens, mask)
        perm = rng.permutation(6)
        preds_perm = md.encoder_forward(model, tokens[:, perm], mask[:, perm])
        assert np.max(np.abs(preds.value - preds_perm.value)) <= 1e-12

    def test_eval_mode_deterministic(self):
        rng = np.random.default_rng(12)
        model = md.init_model(tiny_config(dropout_p=0.5), seed=8)
        tokens, mask = random_batch(rng)
        a = md.encoder_forward(model, tokens, mask, train=False)
        b = md.encoder_forward(model, tokens, mask, train=False)
        assert np.array_equal(a.value, b.value)
        # eval mode draws no dropout: the same weights at dropout_p = 0 give the same bits
        c = md.encoder_forward(md.init_model(tiny_config(dropout_p=0.0), seed=8), tokens, mask)
        assert np.array_equal(a.value, c.value)

    def test_train_mode_dropout_seeded(self):
        rng = np.random.default_rng(13)
        model = md.init_model(tiny_config(dropout_p=0.5), seed=8)
        tokens, mask = random_batch(rng)
        a = md.encoder_forward(model, tokens, mask, train=True, dropout_seed=3)
        b = md.encoder_forward(model, tokens, mask, train=True, dropout_seed=3)
        c = md.encoder_forward(model, tokens, mask, train=True, dropout_seed=4)
        assert np.array_equal(a.value, b.value)
        assert not np.array_equal(a.value, c.value)
        # the seed is keyword-only: a fifth positional argument is refused, not read as a seed
        with pytest.raises(TypeError, match="positional argument"):
            md.backward_pass(model, tokens, mask, np.zeros((3, 4)), 3)

    def test_train_mode_dropout_ignores_padding(self):
        # A8's bound in train mode: padding draws no dropout randomness
        rng = np.random.default_rng(14)
        model = md.init_model(tiny_config(dropout_p=0.5), seed=8)
        tokens, mask = random_batch(rng, b=3, r=5)
        preds = md.encoder_forward(model, tokens, mask, train=True, dropout_seed=3)
        padded_tokens = np.concatenate([tokens, np.zeros((3, 4, 11))], axis=1)
        padded_mask = np.concatenate([mask, np.zeros((3, 4), dtype=bool)], axis=1)
        preds_padded = md.encoder_forward(model, padded_tokens, padded_mask,
                                          train=True, dropout_seed=3)
        assert np.max(np.abs(preds.value - preds_padded.value)) <= 1e-12

    def test_one_graph_eval_forward_builds_16_tensors(self, monkeypatch):
        # the benchmark's model shape: per layer, two layer norms, the attention and
        # feed-forward ops and two residual adds; then input rows and projection, pooling
        # and head. Each Tensor is a Python-level op, the fixed cost of a one-graph request
        model = md.init_model(md.EncoderConfig(n_layer=2, d_model=32, n_heads=4, d_ff=256),
                              seed=0)
        tokens = np.random.default_rng(0).normal(size=(1, 15, 11))
        built = []
        init = ad.Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting)
        with ad.no_tape():
            md.encoder_forward(model, tokens, np.ones((1, 15), dtype=bool))
        assert len(built) == 16

    def test_shape_mismatch(self):
        model = md.init_model(tiny_config(), seed=0)
        with pytest.raises(md.ModelError,
                           match=r"tokens shape \(1, 3, 7\) incompatible with input_width=11"):
            md.encoder_forward(model, np.zeros((1, 3, 7)), np.ones((1, 3), dtype=bool))


class TestPacking:
    @given(sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_pack_rows_keeps_samples_whole_and_apart(self, sizes):
        counts = np.array(sizes)
        owner, slots = md.pack_rows(counts)
        rows, capacity = owner.shape
        assert capacity == counts.max() and rows <= counts.size
        assert np.unique(slots).size == slots.size == counts.sum()
        samples = np.repeat(np.arange(counts.size), counts)
        assert np.array_equal(owner.ravel()[slots], samples)
        assert np.count_nonzero(owner >= 0) == slots.size
        ends = np.cumsum(counts)
        for start, end in zip(ends - counts, ends):
            mine = slots[start:end]
            assert np.array_equal(mine, np.arange(mine[0], mine[0] + mine.size))
            assert mine[0] // capacity == mine[-1] // capacity
        # first fit: a row was opened only when no earlier row had room
        fill = np.count_nonzero(owner >= 0, axis=1)
        first, second = np.triu_indices(rows, k=1)
        assert np.all(fill[first] + fill[second] > capacity)

    @given(sizes=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_mixed_batch_matches_graphs_scored_alone(self, sizes, seed):
        rng = np.random.default_rng(seed)
        model = md.init_model(tiny_config(), seed=11)
        r = max(sizes) + int(rng.integers(3))
        tokens = rng.normal(size=(len(sizes), r, 11))
        mask = np.zeros((len(sizes), r), dtype=bool)
        for b, n in enumerate(sizes):
            mask[b, rng.choice(r, n, replace=False)] = True
        preds = md.encoder_forward(model, tokens, mask).value
        for b in range(len(sizes)):
            solo = md.encoder_forward(model, tokens[b][mask[b]][None], mask[b][mask[b]][None])
            assert np.max(np.abs(preds[b] - solo.value[0])) <= 1e-12

    @pytest.mark.parametrize("train", [False, True])
    def test_graph_sharing_a_row_cannot_move_its_neighbour(self, train):
        rng = np.random.default_rng(16)
        model = md.init_model(tiny_config(dropout_p=0.5), seed=9)
        tokens, mask = shared_row_batch(rng)
        owner, _ = md.pack_rows(mask.sum(axis=1))
        assert any({1, 2} <= set(row) for row in owner.tolist())
        before = md.encoder_forward(model, tokens, mask, train=train, dropout_seed=5).value
        tokens[2, :4] = 10.0 * rng.normal(size=(4, 11))
        after = md.encoder_forward(model, tokens, mask, train=train, dropout_seed=5).value
        assert np.max(np.abs(after[[0, 1, 3]] - before[[0, 1, 3]])) <= 1e-12
        assert np.max(np.abs(after[2] - before[2])) > 1e-6

    def test_packed_gradients_are_the_mean_of_single_graph_gradients(self):
        rng = np.random.default_rng(17)
        model = md.init_model(tiny_config(), seed=10)
        tokens, mask = shared_row_batch(rng)
        targets = rng.normal(size=(4, 4))
        grads = grad_by_name(model, md.backward_pass(model, tokens, mask, targets)[1])
        singles = [grad_by_name(model, md.backward_pass(
            model, tokens[b][mask[b]][None], mask[b][mask[b]][None], targets[b][None])[1])
            for b in range(4)]
        # relative to the largest gradient entry: some entries (the key biases') are zero
        # up to rounding in both
        largest = max(np.max(np.abs(g)) for g in grads.values())
        for name, g in grads.items():
            mean = np.mean([single[name] for single in singles], axis=0)
            assert np.max(np.abs(g - mean)) <= 1e-12 * largest, name

    @pytest.mark.parametrize("train", [False, True])
    def test_equal_length_batch_skips_packing_bit_for_bit(self, train, monkeypatch):
        # graphs that fill their own rows take their rows with a reshape; one more,
        # all-padding, column sends the same batch through pack_rows and the masks
        rng = np.random.default_rng(18)
        model = md.init_model(tiny_config(dropout_p=0.1), seed=12)
        tokens = rng.normal(size=(3, 5, 11))
        z = rng.normal(size=(3, 4))

        def run(tokens, mask):
            preds = md.encoder_forward(model, tokens, mask, train=train, dropout_seed=5)
            ad.backward(md.loss_mse(preds, z))
            return [preds.value] + [param.grad for param in model.params.values()]

        padded = run(np.concatenate([tokens, np.zeros((3, 1, 11))], axis=1),
                     np.arange(6) < np.full((3, 1), 5))
        with monkeypatch.context() as patch:
            patch.setattr(md, "pack_rows", None)
            alone = run(tokens, np.ones((3, 5), dtype=bool))
        assert_same_bits(alone, padded)

    def test_packing_halves_attention_work_on_training_batches(self):
        # the train benchmark's corpus and train_predictor's batches for seed 0, batch
        # 16, 6 epochs: packed attention work sum(rows * R^2) against one row per graph
        records = tart.generate_synthetic(400, 16, 0.3, 0.02, 0)
        split = tart.split_dataset(records, 200, seed=0)
        mats = tart.tokenize_many([r.graph for r in split.train], "tart")
        lengths = np.array([len(m) for m in mats])
        rng = np.random.default_rng(0)
        packed = padded = 0
        for _ in range(6):
            perm = rng.permutation(lengths.size)
            for start in range(0, perm.size, 16):
                counts = lengths[perm[start:start + 16]]
                owner, _ = md.pack_rows(counts)
                packed += owner.size * owner.shape[1]
                padded += counts.size * counts.max() ** 2
        assert packed <= 0.55 * padded


class TestLoss:
    def test_zero_when_equal(self):
        preds = ad.Tensor(np.ones((2, 4)))
        loss = md.loss_mse(preds, np.ones((2, 4)))
        assert float(loss.value) == 0.0

    def test_constant_offset(self):
        targets = np.zeros((3, 4))
        preds = ad.Tensor(targets + 1.0)
        loss = md.loss_mse(preds, targets)
        assert float(loss.value) == pytest.approx(1.0)

    def test_hand_case(self):
        preds = ad.Tensor(np.zeros((1, 2)))
        loss = md.loss_mse(preds, np.array([[3.0, 4.0]]))
        assert float(loss.value) == pytest.approx(12.5)

    def test_degenerate_stats(self):
        with pytest.raises(md.StatsDegenerate):
            md.compute_target_stats(np.ones((5, 4)))


class TestAdam:
    def _model(self):
        return md.init_model(tiny_config(n_layer=1, d_model=8, n_heads=2, d_ff=8), seed=0)

    def test_zero_gradient_no_change(self):
        model = self._model()
        before = {k: v.value.copy() for k, v in model.params.items()}
        state = md.adam_init(model)
        md.adam_step(model, np.zeros_like(model.flat), state, lr=1e-3)
        assert state["t"] == 1
        for k, v in model.params.items():
            assert np.array_equal(v.value, before[k])

    def test_first_step_unit_gradient(self):
        # single scalar, g=1: bias-corrected first step is -lr * 1/(1 + eps)
        model = self._model()
        state = md.adam_init(model)
        before = model.params["head.b"].value.copy()
        grad = np.zeros_like(model.flat)
        grad_by_name(model, grad)["head.b"][...] = 1.0
        md.adam_step(model, grad, state, lr=0.01)
        delta = model.params["head.b"].value - before
        assert np.allclose(delta, -0.01 / (1.0 + 1e-8), atol=1e-12)

    def test_deterministic_updates(self):
        results = []
        for _ in range(2):
            model = self._model()
            state = md.adam_init(model)
            grng = np.random.default_rng(77)
            for _ in range(5):
                md.adam_step(model, grng.normal(size=model.flat.shape), state, lr=1e-3)
            results.append(model.flat.copy())
        assert np.array_equal(results[0], results[1])

    def test_parameters_are_updated_in_one_buffer(self):
        model = self._model()
        state = md.adam_init(model)
        assert set(state) == {"t", "m", "v"}
        views = [model.params[name].value for name in md.parameter_shapes(model.config)]
        assert np.array_equal(np.concatenate([v.reshape(-1) for v in views]), model.flat)
        md.adam_step(model, np.ones_like(model.flat), state, lr=1e-3)
        for name, view in zip(md.parameter_shapes(model.config), views):
            assert model.params[name].value is view and np.shares_memory(view, model.flat)
        assert np.array_equal(np.concatenate([v.reshape(-1) for v in views]), model.flat)

    def test_init_leaves_every_parameter_in_place(self):
        model = self._model()
        values = {name: param.value for name, param in model.params.items()}
        before = model.flat.copy()
        md.adam_init(model)
        assert all(model.params[name].value is value for name, value in values.items())
        assert np.array_equal(model.flat, before)

    def test_parameter_rebound_off_the_buffer(self):
        model = self._model()
        state = md.adam_init(model)
        model.params["layer0.ffn.b1"].value = model.params["layer0.ffn.b1"].value.copy()
        with pytest.raises(md.ModelError,
                           match="layer0.ffn.b1 no longer views the model's buffer"):
            md.adam_step(model, np.zeros_like(model.flat), state, lr=1e-3)

    def test_shape_mismatch(self):
        # a gradient of the wrong size, or of the right size and the wrong rank
        model = self._model()
        state = md.adam_init(model)
        size = model.flat.size
        for shape, shown in [((99,), r"\(99,\)"), ((1, size), rf"\(1, {size}\)")]:
            with pytest.raises(md.ModelError,
                               match=rf"^gradient shape {shown}, parameter buffer \({size},\)$"):
                md.adam_step(model, np.zeros(shape), state, lr=1e-3)
        assert state["t"] == 0 and not state["m"].any()


class TestEncoderConfig:
    @pytest.mark.parametrize("overrides", [
        {"mode": "lap"}, {"mode": "node-only"}, {"d_p": -1}, {"n_heads": 3},
        {"d_model": 0}, {"n_heads": 0}, {"d_ff": 0}, {"n_layer": -1}, {"n_layer": 1.0},
        {"n_layer": True}, {"d_model": np.float64(8.0)}, {"d_p": np.bool_(True)},
        {"d_ff": "16"}, {"dropout_p": False}, {"dropout_p": True}, {"dropout_p": 1.0},
        {"dropout_p": -0.1}, {"dropout_p": float("nan")}, {"dropout_p": "0.1"},
    ])
    def test_invalid_settings_rejected(self, overrides):
        with pytest.raises(md.ModelError):
            tiny_config(**overrides)

    def test_dropout_stored_as_float(self, tmp_path):
        cfg = tiny_config(dropout_p=0)
        assert type(cfg.dropout_p) is float and cfg == tiny_config(dropout_p=0.0)
        path = tmp_path / "m.ckpt"
        md.save_model(md.init_model(tiny_config(dropout_p=np.float32(0.5)), seed=0), path)
        assert type(md.load_model(path).config.dropout_p) is float

    def test_pure_models_differing_only_in_d_p_are_equal(self, tmp_path):
        blobs = []
        for d_p in (3, 7):
            cfg = tiny_config(mode="pure", d_p=d_p)
            assert cfg.d_p == 0 and cfg == tiny_config(mode="pure", d_p=0)
            path = tmp_path / f"pure{d_p}.ckpt"
            md.save_model(md.init_model(cfg, seed=1), path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestParameterBuffer:
    # every Tensor would copy a float32 buffer, and no parameter would view it
    @pytest.mark.parametrize("delta,dtype", [(-1, np.float64), (1, np.float64), (0, np.float32)],
                             ids=["short", "long", "float32"])
    def test_wrong_buffer_rejected(self, delta, dtype):
        cfg = tiny_config()
        size = md.parameter_count(cfg)
        with pytest.raises(md.ModelError, match=rf"config needs float64 \({size},\)"):
            md.PredictorModel(cfg, np.zeros(size + delta, dtype=dtype))

    @staticmethod
    def assert_views_flat(model):
        start = 0
        for name, shape in md.parameter_shapes(model.config).items():
            value = model.params[name].value
            end = start + value.size
            assert value.shape == shape and np.shares_memory(value, model.flat)
            value += 1.0  # a write through the parameter lands in its slice of flat
            assert np.array_equal(model.flat[start:end], value.reshape(-1))
            start = end
        assert start == model.flat.size

    def test_initialized_parameters_view_the_buffer(self):
        self.assert_views_flat(md.init_model(tiny_config(), seed=2))

    def test_loaded_parameters_view_the_buffer(self, tmp_path):
        path = tmp_path / "m.ckpt"
        md.save_model(md.init_model(tiny_config(), seed=2), path)
        self.assert_views_flat(md.load_model(path))

    def test_save_rejects_a_rebound_parameter(self, tmp_path):
        model = md.init_model(tiny_config(), seed=2)
        model.params["head.w"].value = model.params["head.w"].value + 1.0
        path = tmp_path / "m.ckpt"
        with pytest.raises(md.ModelError, match="head.w no longer views the model's buffer"):
            md.save_model(model, path)
        assert not path.exists()


class TestParameterCount:
    @pytest.mark.parametrize("cfg", [
        tiny_config(),
        tiny_config(n_layer=1, d_model=8, n_heads=2, d_ff=8),
        tiny_config(n_layer=3, d_model=32, n_heads=4, d_ff=64),
        tiny_config(mode="pure", d_p=5),
    ])
    def test_closed_form_matches_actual(self, cfg):
        model = md.init_model(cfg, seed=0)
        actual = sum(p.value.size for p in model.params.values())
        assert md.parameter_count(cfg) == actual


class TestCheckpoint:
    @pytest.mark.parametrize("mode,d_p", [("tart", 3), ("pure", 4)])
    def test_round_trip_forward_identical(self, tmp_path, mode, d_p):
        rng = np.random.default_rng(15)
        model = md.init_model(tiny_config(mode=mode, d_p=d_p), seed=1)
        tokens, mask = random_batch(rng, c=model.config.input_width)
        before = md.encoder_forward(model, tokens, mask).value
        path = tmp_path / "m.ckpt"
        md.save_model(model, path)
        loaded = md.load_model(path)
        after = md.encoder_forward(loaded, tokens, mask).value
        assert np.array_equal(before, after)
        assert loaded.config == model.config

    @given(cut=st.integers(min_value=0))
    @settings(max_examples=50, deadline=None)
    def test_truncated_file(self, small_checkpoint, cut):
        blob = small_checkpoint.read_bytes()
        with pytest.raises(md.CorruptFile):
            load_bytes(small_checkpoint.with_name("cut.ckpt"), blob[:cut % len(blob)])

    @given(extra=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_appended_bytes(self, small_checkpoint, extra):
        blob = small_checkpoint.read_bytes()
        with pytest.raises(md.CorruptFile):
            load_bytes(small_checkpoint.with_name("long.ckpt"), blob + extra)

    @given(position=st.integers(min_value=0), value=st.integers(min_value=1, max_value=255))
    @settings(max_examples=200, deadline=None)
    def test_single_byte_corruption(self, small_checkpoint, position, value):
        blob = bytearray(small_checkpoint.read_bytes())
        position %= len(blob)
        blob[position] ^= value
        try:
            loaded = load_bytes(small_checkpoint.with_name("flip.ckpt"), bytes(blob))
        except (md.CorruptFile, md.VersionMismatch):
            return
        assert {k: v.value.shape for k, v in loaded.params.items()} == \
            md.parameter_shapes(loaded.config)

    # a wider encoder, a header too large to lay out, a non-integer size, a pure header
    # over an 11-wide input_proj (the layout pure checkpoints had before their rows lost
    # the always-zero positional columns), and a key that no config field reads
    @pytest.mark.parametrize("header", [{"d_model": 8}, {"n_layer": 10**9}, {"n_layer": 1.0},
                                        {"mode": "pure"}, {"pooling": "mean"}])
    def test_header_not_matching_payload(self, small_checkpoint, header):
        blob = rewrite_header(small_checkpoint.read_bytes(), header)
        with pytest.raises(md.CorruptFile):
            load_bytes(small_checkpoint.with_name("edited.ckpt"), blob)

    # a lost key would take its default: a header without dropout_p would train at 0.1,
    # and a 2-head header without n_heads would load, as 4 heads, a payload of the same size
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(md.EncoderConfig)])
    def test_header_missing_a_field(self, small_checkpoint, field):
        blob = rewrite_header(small_checkpoint.read_bytes(), {}, drop={field})
        with pytest.raises(md.CorruptFile, match="exactly the keys"):
            load_bytes(small_checkpoint.with_name("lost.ckpt"), blob)

    def test_header_nested_too_deeply(self, small_checkpoint):
        blob = small_checkpoint.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", blob, 11)
        header = b"[" * 100_000 + b"]" * 100_000  # deeper than json.dumps can write
        with pytest.raises(md.CorruptFile):
            load_bytes(small_checkpoint.with_name("nested.ckpt"),
                       blob[:11] + struct.pack("<I", len(header)) + header + blob[15 + cfg_len:])

    # version 1 predates the tokenizer fields, so its mode cannot be known; version 2's
    # header names the deleted pooling and n_targets fields; version 3 carries per-tensor
    # name, rank and dims records (version 4 is the committed file below)
    @pytest.mark.parametrize("version", [99, 1, 2, 3])
    def test_version_mismatch(self, tmp_path, version):
        model = md.init_model(tiny_config(), seed=1)
        path = tmp_path / "m.ckpt"
        md.save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[7:11] = version.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(md.VersionMismatch):
            md.load_model(path)

    def test_committed_tart_v4_file_rejected(self):
        # version 4 predicts with the erf form of GELU; its weights would load under the
        # tanh form and predict something else
        with pytest.raises(md.VersionMismatch, match="checkpoint version 4, expected 5"):
            md.load_model(TART_V4_CHECKPOINT)

    def test_committed_tart_v5_file_round_trips(self, tmp_path):
        path = tmp_path / "again.ckpt"
        md.save_model(md.load_model(TART_V5_CHECKPOINT), path)
        assert path.read_bytes() == TART_V5_CHECKPOINT.read_bytes()

    def test_committed_tart_v5_file_parses_by_hand(self):
        # the format read without load_model: magic, version, header, then each
        # tensor's little-endian float64s at its parameter_shapes offset
        blob = TART_V5_CHECKPOINT.read_bytes()
        assert blob[:7] == b"TARTMDL"
        version, cfg_len = struct.unpack_from("<II", blob, 7)
        assert version == 5
        cfg = md.EncoderConfig(**json.loads(blob[15:15 + cfg_len]))
        loaded = md.load_model(TART_V5_CHECKPOINT)
        assert loaded.config == cfg
        offset = 15 + cfg_len
        for name, shape in md.parameter_shapes(cfg).items():
            count = int(np.prod(shape))
            expected = np.array(struct.unpack_from(f"<{count}d", blob, offset)).reshape(shape)
            assert np.array_equal(loaded.params[name].value, expected)
            offset += 8 * count
        assert offset == len(blob)

    def test_pure_checkpoint_with_nonzero_d_p_header_loads(self, tmp_path):
        # a pure checkpoint written before pure configs set d_p to 0 names the d_p it was given
        model = md.init_model(tiny_config(mode="pure"), seed=1)
        path = tmp_path / "pure.ckpt"
        md.save_model(model, path)
        loaded = load_bytes(tmp_path / "old.ckpt", rewrite_header(path.read_bytes(), {"d_p": 3}))
        assert loaded.config == model.config and loaded.config.d_p == 0
        for name, param in model.params.items():
            assert np.array_equal(loaded.params[name].value, param.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"GARBAGE!" * 4)
        with pytest.raises(md.CorruptFile):
            md.load_model(path)
