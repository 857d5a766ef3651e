"""The fused tape nodes against the composite ops they replace.

The composites below are the oracle: each forward must match its fused node
bit for bit, and each gradient to 1e-12 relative (the fused backward sums in
another order). Every fused node also passes a central-difference check.
"""

import math

import numpy as np
import pytest

from semspeech.nn.gradcheck import grad_check
from semspeech.nn.layers import EncoderConfig, causal_mask, padding_mask
from semspeech.nn.tensor import (
    Tensor,
    _gelu_slope,
    _gelu_tanh,
    _gelu_value,
    attention,
    ffn,
    gather_last,
    linear,
    log_softmax,
    nll,
    softmax,
)
from semspeech.tokenizer import CLS, SEP
from semspeech.wavembed import WavEmbedModel


def composite_linear(x, w, b):
    return x @ w + b


def composite_attention(q_in, kv_in, params, heads, mask=None):
    wq, bq, wk, bk, wv, bv, wo, bo = params
    b, t, d = q_in.shape
    s = kv_in.shape[1]
    dh = d // heads
    q = composite_linear(q_in, wq, bq).reshape(b, t, heads, dh).transpose(0, 2, 1, 3)
    k = composite_linear(kv_in, wk, bk).reshape(b, s, heads, dh).transpose(0, 2, 1, 3)
    v = composite_linear(kv_in, wv, bv).reshape(b, s, heads, dh).transpose(0, 2, 1, 3)
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(dh))
    if mask is not None:
        scores = scores + Tensor(mask)
    out = (softmax(scores, axis=-1) @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
    return composite_linear(out, wo, bo)


def gelu(x):
    """Smooth tanh-form gelu as its own node; kink-free so finite differences
    stay honest."""
    t = _gelu_tanh(x.data)

    def backward(g):
        x._accumulate(g * _gelu_slope(x.data, t))

    return Tensor._make(_gelu_value(x.data, t), (x,), backward)


def composite_ffn(x, w1, b1, w2, b2):
    return composite_linear(gelu(composite_linear(x, w1, b1)), w2, b2)


def composite_nll(logits, targets, mask):
    logp = gather_last(log_softmax(logits, axis=-1), targets)
    return -(logp * Tensor(mask.astype(np.float64))).sum() * (1.0 / int(mask.sum()))


def _leaf(rng, *shape, scale=1.0):
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


def _attention_params(rng, d):
    return [_leaf(rng, *shape, scale=0.5) for _ in range(4) for shape in ((d, d), (d,))]


def _grads(loss_fn, leaves):
    for t in leaves:
        t.grad = None
    loss_fn().backward()
    grads = [None if t.grad is None else t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    return grads


def _assert_matches(fused, composite, leaves, upstream):
    """Bit-equal forwards, gradients within 1e-12 relative of the oracle."""
    assert np.array_equal(fused().data, composite().data)
    got = _grads(lambda: (fused() * upstream).sum(), leaves)
    want = _grads(lambda: (composite() * upstream).sum(), leaves)
    for g, w in zip(got, want):
        assert g is not None and w is not None
        assert np.max(np.abs(g - w)) <= 1e-12 * max(1.0, np.max(np.abs(w)))


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lead", [(7,), (3, 5), (2, 3, 4)])
def test_linear_matches_composite(lead):
    rng = np.random.default_rng(1)
    x, w, b = _leaf(rng, *lead, 6), _leaf(rng, 6, 5), _leaf(rng, 5)
    upstream = Tensor(rng.standard_normal((*lead, 5)))
    _assert_matches(
        lambda: linear(x, w, b), lambda: composite_linear(x, w, b), [x, w, b], upstream
    )


def test_linear_grad_check():
    rng = np.random.default_rng(2)
    x, w, b = _leaf(rng, 2, 3, 4), _leaf(rng, 4, 3), _leaf(rng, 3)
    c = Tensor(rng.standard_normal((2, 3, 3)))
    assert grad_check(lambda: (linear(x, w, b) * c).sum(), [x, w, b]) < 1e-6


def test_linear_input_without_grad_gets_none():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    w, b = _leaf(rng, 4, 3), _leaf(rng, 3)
    linear(x, w, b).sum().backward()
    assert x.grad is None and w.grad is not None and b.grad is not None


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def _padding(b, s):
    valid = np.ones((b, s), dtype=bool)
    valid[0, s - 2 :] = False
    return padding_mask(valid)


@pytest.mark.parametrize("mask_kind", ["none", "causal", "padding"])
def test_self_attention_matches_composite(mask_kind):
    rng = np.random.default_rng(4)
    b, t, d = 2, 5, 8
    x = _leaf(rng, b, t, d)
    params = _attention_params(rng, d)
    mask = {"none": None, "causal": causal_mask(t), "padding": _padding(b, t)}[mask_kind]
    upstream = Tensor(rng.standard_normal((b, t, d)))
    _assert_matches(
        lambda: attention(x, x, params, 2, mask),
        lambda: composite_attention(x, x, params, 2, mask),
        [x, *params],
        upstream,
    )


@pytest.mark.parametrize("s", [1, 4])
def test_cross_attention_matches_composite(s):
    rng = np.random.default_rng(5)
    b, t, d = 3, 4, 8
    q, kv = _leaf(rng, b, t, d), _leaf(rng, b, s, d)
    params = _attention_params(rng, d)
    mask = causal_mask(t) if s == t else None
    upstream = Tensor(rng.standard_normal((b, t, d)))
    _assert_matches(
        lambda: attention(q, kv, params, 4, mask),
        lambda: composite_attention(q, kv, params, 4, mask),
        [q, kv, *params],
        upstream,
    )


def test_self_attention_sums_the_input_gradient_once():
    """q_in is kv_in gives the input the sum of the query and key/value
    paths, the same gradient as two distinct tensors holding equal data."""
    rng = np.random.default_rng(6)
    x = _leaf(rng, 2, 3, 4)
    params = _attention_params(rng, 4)
    (g_self,) = _grads(lambda: attention(x, x, params, 2, causal_mask(3)).sum(), [x])
    q, kv = Tensor(x.data.copy(), requires_grad=True), Tensor(x.data.copy(), requires_grad=True)
    g_q, g_kv = _grads(lambda: attention(q, kv, params, 2, causal_mask(3)).sum(), [q, kv])
    assert np.allclose(g_self, g_q + g_kv, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize(
    "case", ["self-causal", "self-padding", "cross", "cross-frozen-memory"]
)
def test_attention_grad_check(case):
    rng = np.random.default_rng(7)
    b, t, d = 2, 3, 4
    params = _attention_params(rng, d)
    q = _leaf(rng, b, t, d)
    c = Tensor(rng.standard_normal((b, t, d)))
    if case.startswith("self"):
        mask = causal_mask(t) if case == "self-causal" else _padding(b, t)
        err = grad_check(lambda: (attention(q, q, params, 2, mask) * c).sum(), [q, *params])
    else:
        kv = _leaf(rng, b, 2, d)
        wrt = [q, kv, *params]
        if case == "cross-frozen-memory":
            kv.requires_grad = False
            wrt.remove(kv)
        err = grad_check(lambda: (attention(q, kv, params, 2) * c).sum(), wrt)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# ffn and nll
# ---------------------------------------------------------------------------

def test_gelu_oracle_grad_check():
    # the composite ffn's gradient is only an oracle if its gelu node is right
    rng = np.random.default_rng(5)
    a = _leaf(rng, 4, 4)
    assert grad_check(lambda: gelu(a).sum(), [a]) < 1e-5


def test_ffn_matches_composite_and_grad_checks():
    rng = np.random.default_rng(8)
    x = _leaf(rng, 2, 3, 4)
    params = [_leaf(rng, 4, 6), _leaf(rng, 6), _leaf(rng, 6, 4), _leaf(rng, 4)]
    upstream = Tensor(rng.standard_normal((2, 3, 4)))
    _assert_matches(
        lambda: ffn(x, *params), lambda: composite_ffn(x, *params), [x, *params], upstream
    )
    assert grad_check(lambda: (ffn(x, *params) * upstream).sum(), [x, *params]) < 1e-5


@pytest.mark.parametrize("masked", [False, True])
def test_nll_matches_composite_and_grad_checks(masked):
    rng = np.random.default_rng(9)
    logits = _leaf(rng, 3, 4, 7, scale=2.0)
    targets = rng.integers(0, 7, size=(3, 4))
    mask = rng.random((3, 4)) < 0.6 if masked else np.ones((3, 4), dtype=bool)
    mask[0, 0] = True
    fused = nll(logits, targets, mask)
    assert np.array_equal(fused.data, composite_nll(logits, targets, mask).data)
    (got,) = _grads(lambda: nll(logits, targets, mask), [logits])
    (want,) = _grads(lambda: composite_nll(logits, targets, mask), [logits])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert grad_check(lambda: nll(logits, targets, mask), [logits]) < 1e-6


# ---------------------------------------------------------------------------
# the tape of one training step
# ---------------------------------------------------------------------------

def _tape_nodes(loss: Tensor) -> int:
    """Tensors with a backward closure reachable from ``loss``."""
    seen, stack, count = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward is not None
        stack.extend(node._parents)
    return count


def test_wavembed_step_tape_nodes():
    """Default dims, dropout on: per block one layer norm, one fused node and
    one dropout per sublayer, plus the residual adds."""
    model = WavEmbedModel.create(d_in=8, vocab=20, encoder_cfg=EncoderConfig(), seed=0)
    rng = np.random.default_rng(0)
    frames = [rng.standard_normal((n, 8)) for n in (5, 7, 6)]
    tokens = [np.array([CLS, *rng.integers(5, 20, size=n), SEP]) for n in (3, 4, 2)]
    loss = model.batch_loss(frames, tokens, train_mode=True, rng=np.random.default_rng(1))
    assert _tape_nodes(loss) == 59
