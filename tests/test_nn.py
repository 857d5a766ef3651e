import math
import threading
import weakref

import numpy as np
import pytest

from gradcheck import grad_check
from semspeech import training
from semspeech.errors import FileFormatError, ValidationError
from semspeech.nn.checkpoint import load, load_checkpoint, save_checkpoint
from semspeech.nn.layers import (
    DecodeCache,
    EncoderConfig,
    attention_pool,
    causal_mask,
    decode_tokens,
    decoder_step,
    init_attention,
    init_encoder,
    init_linear,
    init_token_decoder,
    sinusoidal_positions,
    apply_attention,
    apply_linear,
    transformer_encode,
)
from semspeech.nn.losses import infonce_batch, mse
from semspeech.nn.optim import ParamStore, adamw_step
from semspeech.nn.tensor import (
    NEG_INF,
    Packing,
    Tensor,
    _softmax,
    concat,
    dropout,
    grad_enabled,
    layer_norm,
    nll,
    no_grad,
    softmax,
    take_rows,
)
from semspeech.tokenizer import PAD


def rand_t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def pad_nll(logits, targets):
    """``nll`` over the positions whose target is not PAD."""
    targets = np.asarray(targets)
    return nll(logits, targets, targets != PAD)


# ---------------------------------------------------------------------------
# elementary op gradients vs central differences
# ---------------------------------------------------------------------------

def test_arithmetic_grads():
    rng = np.random.default_rng(0)
    a, b = rand_t(rng, 3, 4), rand_t(rng, 3, 4)
    assert grad_check(lambda: ((a * b + a / (b * b + 3.0) - b) ** 2).sum(), [a, b]) < 1e-5


def test_broadcast_grads():
    rng = np.random.default_rng(1)
    a, b = rand_t(rng, 3, 4), rand_t(rng, 4)
    c = rand_t(rng, 3, 1)
    assert grad_check(lambda: ((a + b) * c).sum(), [a, b, c]) < 1e-6


def test_matmul_grads():
    rng = np.random.default_rng(2)
    a, b = rand_t(rng, 3, 4), rand_t(rng, 4, 5)
    assert grad_check(lambda: (a @ b).sum(), [a, b]) < 1e-6
    # batched with broadcast
    c, d = rand_t(rng, 2, 3, 4), rand_t(rng, 4, 5)
    assert grad_check(lambda: ((c @ d) ** 2).sum(), [c, d]) < 1e-5


def test_shape_op_grads():
    rng = np.random.default_rng(3)
    a = rand_t(rng, 2, 3, 4)
    assert grad_check(lambda: (a.reshape(6, 4) ** 2).sum(), [a]) < 1e-6
    assert grad_check(lambda: (a.transpose(2, 0, 1) ** 2).sum(), [a]) < 1e-6
    assert grad_check(lambda: (a[1, 1:, :] ** 2).sum(), [a]) < 1e-6


def test_reduction_grads():
    rng = np.random.default_rng(4)
    a = rand_t(rng, 3, 5)
    assert grad_check(lambda: (a.sum(axis=0) ** 2).sum(), [a]) < 1e-6
    assert grad_check(lambda: (a.mean(axis=1) ** 2).sum(), [a]) < 1e-6
    assert grad_check(lambda: a.mean(), [a]) < 1e-6


def test_softmax_grads_and_rows():
    rng = np.random.default_rng(6)
    a = rand_t(rng, 3, 7)
    s = softmax(a, axis=-1)
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(s.data >= 0)
    w = Tensor(rng.standard_normal((3, 7)))
    assert grad_check(lambda: (softmax(a, -1) * w).sum(), [a]) < 1e-5


@pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 16, 17, 40, 129])
def test_softmax_of_a_padded_row_keeps_its_bytes(length):
    """A row of scores padded with NEG_INF columns, to any length, alone or
    among other rows, has the bytes it has unpadded on its valid columns,
    and exact zeros on the others."""
    rng = np.random.default_rng(length)
    row = 4.0 * rng.standard_normal(length)
    alone = _softmax(row)
    for pad in (1, 3, 8, 23, 64, 200):
        padded = np.concatenate([row, np.full(pad, NEG_INF)])
        batch = np.stack([rng.standard_normal(length + pad), padded, padded[::-1]])
        for probs in (_softmax(padded), _softmax(batch)[1], _softmax(batch.T, axis=0)[:, 1]):
            assert np.array_equal(probs[:length], alone)
            assert not probs[length:].any()


def test_layer_norm_grads():
    rng = np.random.default_rng(7)
    x, g, b = rand_t(rng, 4, 6), rand_t(rng, 6), rand_t(rng, 6)
    assert grad_check(lambda: (layer_norm(x, g, b) ** 2).sum(), [x, g, b]) < 1e-5


def test_gather_ops_grads():
    rng = np.random.default_rng(8)
    table = rand_t(rng, 10, 4)
    idx = np.array([[1, 3, 3], [0, 9, 2]])
    assert grad_check(lambda: (take_rows(table, idx) ** 2).sum(), [table]) < 1e-6


def test_concat_grads():
    rng = np.random.default_rng(9)
    a, b = rand_t(rng, 2, 3), rand_t(rng, 4, 3)
    assert grad_check(lambda: (concat([a, b], axis=0) ** 2).sum(), [a, b]) < 1e-6


def test_dropout_grad_with_fixed_mask():
    rng = np.random.default_rng(10)
    a = rand_t(rng, 5, 5)

    def loss():
        return (dropout(a, 0.4, np.random.default_rng(77), Packing.from_lengths([5])) ** 2).sum()

    assert grad_check(loss, [a]) < 1e-6


def test_dropout_scales_preserve_expectation():
    rng = np.random.default_rng(11)
    x = Tensor(np.ones((200, 200)))
    y = dropout(x, 0.3, rng, Packing.from_lengths([200]))
    kept = y.data[y.data > 0]
    assert kept[0] == pytest.approx(1.0 / 0.7)
    assert abs(y.data.mean() - 1.0) < 0.02


def test_no_grad_blocks_graph():
    a = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        b = a * 2.0
    assert not b.requires_grad


def test_no_grad_is_per_thread():
    """Thread A enters no_grad, then B, then A leaves: B's block still
    records no tape, and each thread records again once it has left."""
    a = Tensor(np.ones(3), requires_grad=True)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def thread_a():
        with no_grad():
            a_in.set()
            b_in.wait(10)
        seen["a records after"] = (a * 2.0).requires_grad
        a_out.set()

    def thread_b():
        a_in.wait(10)
        with no_grad():
            b_in.set()
            a_out.wait(10)
            seen["b records inside"] = (a * 2.0).requires_grad
        seen["b records after"] = (a * 2.0).requires_grad

    threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    assert seen == {"a records after": True, "b records inside": False, "b records after": True}
    assert grad_enabled() and (a * 2.0).requires_grad


def test_backward_requires_scalar():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValidationError):
        (a * 2).backward()


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_nll_uniform_logits_is_log_vocab():
    vocab = 11
    logits = Tensor(np.zeros((6, vocab)))
    targets = np.array([1, 2, 3, 4, 5, 6])
    loss = pad_nll(logits, targets)
    assert loss.data == pytest.approx(math.log(vocab), abs=1e-12)


def test_nll_confident_logits_near_zero():
    vocab = 100
    targets = np.array([7, 3, 42])
    logits_np = np.zeros((3, vocab))
    for i, t in enumerate(targets):
        logits_np[i, t] = 20.0
    loss = pad_nll(Tensor(logits_np), targets)
    # exact closed form at gap 20: ln(1 + 99 e^-20) per position
    assert loss.data == pytest.approx(math.log(1 + 99 * math.exp(-20.0)), rel=1e-9)
    assert loss.data < 1e-6
    # gap 40 (one-hot +-20) drives the loss below 1e-8
    wide = np.where(logits_np > 0, 20.0, -20.0)
    assert pad_nll(Tensor(wide), targets).data < 1e-8


def test_nll_masks_pad():
    vocab = 5
    rng = np.random.default_rng(12)
    logits = Tensor(rng.standard_normal((4, vocab)))
    # positions 2,3 are PAD and must not contribute
    targets = np.array([2, 3, 0, 0])
    full = pad_nll(logits, targets)
    manual = 0.0
    for i in (0, 1):
        row = logits.data[i]
        manual -= row[targets[i]] - math.log(np.exp(row - row.max()).sum()) - row.max()
    assert full.data == pytest.approx(manual / 2, rel=1e-9)


def test_nll_pad_only_errors():
    logits = Tensor(np.zeros((3, 4)))
    with pytest.raises(ValidationError):
        pad_nll(logits, np.array([0, 0, 0]))


def test_nll_length_mismatch_errors():
    logits = Tensor(np.zeros((3, 4)))
    with pytest.raises(ValidationError):
        pad_nll(logits, np.array([1, 2]))


def test_nll_grad():
    rng = np.random.default_rng(13)
    logits = rand_t(rng, 4, 6)
    targets = np.array([1, 0, 3, 5])
    assert grad_check(lambda: pad_nll(logits, targets), [logits]) < 1e-5


def test_nll_matches_brute_force():
    rng = np.random.default_rng(14)
    for _ in range(30):
        s, v = int(rng.integers(2, 8)), int(rng.integers(3, 10))
        logits = rng.standard_normal((s, v))
        targets = rng.integers(1, v, size=s)
        loss = pad_nll(Tensor(logits), targets)
        brute = 0.0
        for i in range(s):
            p = np.exp(logits[i]) / np.exp(logits[i]).sum()
            brute -= math.log(p[targets[i]])
        assert loss.data == pytest.approx(brute / s, abs=1e-9)


def test_nll_mask_selects_positions():
    rng = np.random.default_rng(15)
    logits = rand_t(rng, 2, 5, 7)
    targets = rng.integers(0, 7, size=(2, 5))
    mask = np.zeros((2, 5), dtype=bool)
    mask[0, 1] = mask[1, 4] = True
    loss = nll(logits, targets, mask)
    # gradient w.r.t. unmasked logits rows is exactly zero
    loss.backward()
    g = logits.grad.copy()
    assert np.all(g[0, 0] == 0) and np.all(g[0, 2:] == 0) and np.all(g[1, :4] == 0)
    assert np.any(g[0, 1] != 0) and np.any(g[1, 4] != 0)
    with pytest.raises(ValidationError):
        nll(logits, targets, np.zeros((2, 5), dtype=bool))


@pytest.mark.parametrize(
    "targets, mask, field",
    [
        ([[1, 2], [3, 4]], None, "targets"),
        ([[1, 2, 3], [4, 0, 1]], np.ones((3, 2), dtype=bool), "mask"),
        ([[1, 2, 3], [4, 0, 1]], np.zeros((2, 3), dtype=bool), "mask"),
        ([[1, 2, 3], [4, -1, 1]], None, "targets"),
        ([[1, 2, 3], [4, 5, 1]], None, "targets"),
        ([[1, 2, 3], [4, -1, 1]], np.array([[1, 1, 1], [1, 0, 1]], dtype=bool), "targets"),
    ],
    ids=["targets-shape", "mask-shape", "empty-mask", "negative-id", "id-at-vocab",
         "masked-negative-id"],
)
def test_nll_refuses_malformed_input(targets, mask, field):
    """Each malformed input is one ValidationError from the kernel itself,
    checked at every position, masked ones included."""
    logits = Tensor(np.zeros((2, 3, 5)))
    targets = np.asarray(targets)
    with pytest.raises(ValidationError) as e:
        nll(logits, targets, np.ones(targets.shape, dtype=bool) if mask is None else mask)
    assert e.value.field == field


def test_mse_examples_and_grad():
    assert mse(Tensor([1.0, 0.0]), Tensor([1.0, 0.0])).data == 0.0
    assert mse(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).data == pytest.approx(1.0)
    rng = np.random.default_rng(16)
    z, t = rand_t(rng, 8), Tensor(rng.standard_normal(8))
    loss = mse(z, t)
    loss.backward()
    assert np.allclose(z.grad, 2.0 * (z.data - t.data) / 8, atol=1e-12)
    with pytest.raises(ValidationError):
        mse(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# infonce
# ---------------------------------------------------------------------------

def infonce(z, pos, negatives, tau=0.05):
    """InfoNCE of one anchor: a one-row infonce_batch whose bank is the
    negatives."""
    bank = concat([n.reshape(1, -1) for n in negatives], axis=0) if negatives else None
    return infonce_batch(z.reshape(1, -1), pos.reshape(1, -1), tau=tau, bank=bank)


def test_infonce_positive_is_anchor_orthogonal_negatives():
    d = 64
    z = Tensor(np.eye(d)[0])
    negatives = [Tensor(np.eye(d)[i + 1]) for i in range(63)]
    loss = infonce(z, Tensor(np.eye(d)[0]), negatives, tau=0.05)
    expected = math.log(1 + 63 * math.exp(-20.0))
    assert loss.data == pytest.approx(expected, rel=1e-9)
    assert loss.data == pytest.approx(1.30e-7, rel=0.01)


def test_infonce_symmetric_case_ln2():
    z = Tensor([1.0, 0.0, 0.0])
    pos = Tensor([0.0, 1.0, 0.0])
    neg = Tensor([0.0, 0.0, 1.0])
    assert infonce(z, pos, [neg], tau=0.05).data == pytest.approx(math.log(2.0), abs=1e-12)


def test_infonce_monte_carlo_baseline():
    # random unit vectors have cosines ~ N(0, 1/d); with tau=1 the candidate
    # scores stay well inside the linear regime of the softmax, so the
    # expected loss is ~= ln(K+1)
    rng = np.random.default_rng(17)
    d, k, trials = 64, 127, 1000
    total = 0.0
    for _ in range(trials):
        vecs = rng.standard_normal((k + 2, d))
        z, pos = Tensor(vecs[0]), Tensor(vecs[1])
        negs = [Tensor(v) for v in vecs[2:]]
        total += float(infonce(z, pos, negs, tau=1.0).data)
    mean = total / trials
    assert abs(mean - math.log(k + 1)) / math.log(k + 1) < 0.10


def test_infonce_requires_negatives_and_positive_tau():
    z = Tensor([1.0, 0.0])
    with pytest.raises(ValidationError):
        infonce(z, z, [], tau=0.05)
    # at tau = inf every score is 0: the loss is log B with a zero gradient
    for tau in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="tau must be > 0"):
            infonce(z, z, [Tensor([0.0, 1.0])], tau=tau)


def test_infonce_zero_norm_errors():
    z = Tensor([1.0, 0.0])
    with pytest.raises(ValidationError):
        infonce(Tensor([0.0, 0.0]), z, [z])
    with pytest.raises(ValidationError):
        infonce(z, Tensor([0.0, 0.0]), [z])
    with pytest.raises(ValidationError):
        infonce(z, z, [Tensor([0.0, 0.0])])


def test_infonce_nonnegative_and_scale_invariant():
    rng = np.random.default_rng(18)
    for _ in range(20):
        z = Tensor(rng.standard_normal(8))
        pos = Tensor(rng.standard_normal(8))
        negs = [Tensor(rng.standard_normal(8)) for _ in range(5)]
        base = infonce(z, pos, negs).data
        assert base >= 0
        # power-of-two rescaling is exact in floating point
        scaled = infonce(Tensor(4.0 * z.data), pos, negs).data
        assert scaled == base


def test_infonce_grad():
    rng = np.random.default_rng(19)
    z, pos = rand_t(rng, 6), rand_t(rng, 6)
    negs = [rand_t(rng, 6) for _ in range(4)]
    assert grad_check(lambda: infonce(z, pos, negs), [z, pos] + negs) < 1e-5


def test_infonce_batch_matches_single():
    """The batched loss is the mean of each anchor's single-anchor InfoNCE,
    computed here in plain Python: its positive against the other in-batch
    positives and the bank."""
    rng = np.random.default_rng(20)
    b, d, k, tau = 5, 8, 7, 0.05
    anchors = rng.standard_normal((b, d))
    positives = rng.standard_normal((b, d))
    bank = rng.standard_normal((k, d))
    batch_loss = infonce_batch(Tensor(anchors), Tensor(positives), tau=tau, bank=Tensor(bank))

    def cos(u, v):
        return float(u @ v) / math.sqrt(float(u @ u) * float(v @ v))

    singles = []
    for i in range(b):
        negs = [positives[j] for j in range(b) if j != i] + list(bank)
        sims = [cos(anchors[i], positives[i]) / tau] + [cos(anchors[i], n) / tau for n in negs]
        m = max(sims)
        singles.append(m + math.log(sum(math.exp(s - m) for s in sims)) - sims[0])
    assert batch_loss.data == pytest.approx(np.mean(singles), abs=1e-9)


def test_infonce_batch_rejects_no_negatives():
    rng = np.random.default_rng(21)
    one = Tensor(rng.standard_normal((1, 4)))
    with pytest.raises(ValidationError):
        infonce_batch(one, one)
    # fine with a non-empty bank
    infonce_batch(one, one, bank=Tensor(rng.standard_normal((3, 4))))


# ---------------------------------------------------------------------------
# attention pooling
# ---------------------------------------------------------------------------

def test_attention_pool_zero_weight_is_mean():
    rng = np.random.default_rng(22)
    h = Tensor(rng.standard_normal((5, 4)))
    z = attention_pool(h, Tensor(np.zeros(4)))
    assert np.allclose(z.data, h.data.mean(axis=0), atol=1e-12)


def test_attention_pool_single_row():
    rng = np.random.default_rng(23)
    h = Tensor(rng.standard_normal((1, 4)))
    z = attention_pool(h, Tensor(rng.standard_normal(4)))
    assert np.allclose(z.data, h.data[0], atol=1e-12)


def test_attention_pool_hand_computed():
    h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    w = Tensor(np.array([10.0, 0.0]))
    z = attention_pool(h, w)
    w0 = 1.0 / (1.0 + math.exp(-10.0))
    assert z.data[0] == pytest.approx(w0, rel=1e-12)
    assert z.data[1] == pytest.approx(1.0 - w0, rel=1e-9)
    assert z.data[0] == pytest.approx(0.99995, abs=1e-5)


def test_attention_pool_matches_brute_force():
    rng = np.random.default_rng(24)
    for _ in range(20):
        t, d = int(rng.integers(1, 7)), int(rng.integers(2, 6))
        h = rng.standard_normal((t, d))
        w = rng.standard_normal(d)
        z = attention_pool(Tensor(h), Tensor(w))
        scores = h @ w
        e = np.exp(scores - scores.max())
        weights = e / e.sum()
        assert np.allclose(z.data, weights @ h, atol=1e-12)


def test_attention_pool_empty_errors():
    with pytest.raises(ValidationError):
        attention_pool(Tensor(np.zeros((0, 4))), Tensor(np.zeros(4)))


def test_attention_pool_grad():
    rng = np.random.default_rng(25)
    h, w = rand_t(rng, 4, 6), rand_t(rng, 6)
    assert grad_check(lambda: (attention_pool(h, w) ** 2).sum(), [h, w]) < 1e-3


def test_attention_pool_batched_matches_loop():
    rng = np.random.default_rng(26)
    lengths = [5, 2, 4]
    h = rng.standard_normal((sum(lengths), 4))
    w = rng.standard_normal(4)
    batched = attention_pool(Tensor(h), Tensor(w), Packing.from_lengths(lengths))
    starts = np.cumsum(lengths) - lengths
    for i, (start, n) in enumerate(zip(starts, lengths)):
        single = attention_pool(Tensor(h[start : start + n]), Tensor(w))
        assert np.array_equal(batched.data[i], single.data)


# ---------------------------------------------------------------------------
# layers and encoder
# ---------------------------------------------------------------------------

def test_linear_grad_tight():
    rng = np.random.default_rng(27)
    store = ParamStore()
    init_linear(store, rng, "lin", 5, 3)
    x = rand_t(rng, 4, 5)
    params = [store["lin.w"], store["lin.b"]]
    err = grad_check(lambda: (apply_linear(store, "lin", x) ** 2).sum(), params + [x])
    assert err < 1e-4


def test_attention_grad():
    rng = np.random.default_rng(28)
    store = ParamStore()
    init_attention(store, rng, "attn", 8)
    x = rand_t(rng, 3, 8)
    params = [p for _, p in store.items()]
    pack = Packing.from_lengths([3])
    err = grad_check(
        lambda: (apply_attention(store, "attn", x, x, 2, pack) ** 2).sum(), params + [x]
    )
    assert err < 1e-3


def test_encoder_shapes_and_determinism():
    rng = np.random.default_rng(29)
    cfg = EncoderConfig(layers=2, model_dim=16, heads=4, ff_dim=32, dropout_rate=0.1)
    store = ParamStore()
    init_encoder(store, rng, cfg, d_in=6)
    x = Tensor(rng.standard_normal((16, 6)))
    h1 = transformer_encode(x, store, cfg)
    h2 = transformer_encode(x, store, cfg)
    assert h1.shape == (16, 16)
    assert np.array_equal(h1.data, h2.data)
    # packed rows of a ragged batch come back as packed states
    pack = Packing.from_lengths([10, 6])
    assert transformer_encode(x, store, cfg, pack=pack).shape == (16, 16)
    # single-row input
    x1 = Tensor(rng.standard_normal((1, 6)))
    assert transformer_encode(x1, store, cfg).shape == (1, 16)


def test_encoder_rejects_overlong():
    rng = np.random.default_rng(30)
    cfg = EncoderConfig(layers=1, model_dim=8, heads=2, ff_dim=16, max_positions=4)
    store = ParamStore()
    init_encoder(store, rng, cfg, d_in=3)
    with pytest.raises(ValidationError):
        transformer_encode(Tensor(np.zeros((5, 3))), store, cfg)


def test_encoder_grad():
    rng = np.random.default_rng(31)
    cfg = EncoderConfig(layers=1, model_dim=8, heads=2, ff_dim=12, dropout_rate=0.0)
    store = ParamStore()
    init_encoder(store, rng, cfg, d_in=4)
    x = rand_t(rng, 3, 4)
    params = [p for _, p in store.items()]
    err = grad_check(lambda: (transformer_encode(x, store, cfg) ** 2).sum(), params + [x])
    assert err < 1e-3


def test_encoder_padding_mask_blocks_pad_frames():
    rng = np.random.default_rng(32)
    cfg = EncoderConfig(layers=1, model_dim=8, heads=2, ff_dim=12, dropout_rate=0.0)
    store = ParamStore()
    init_encoder(store, rng, cfg, d_in=4)
    x = rng.standard_normal((8, 4))  # packed rows: 5 frames, then 3
    pack = Packing.from_lengths([5, 3])
    h = transformer_encode(Tensor(x), store, cfg, pack=pack)
    # the second sequence's keys, padded to length 5 inside attention, are
    # masked from the first: changing its frames leaves the first unchanged
    x2 = x.copy()
    x2[5:] = 99.0
    h2 = transformer_encode(Tensor(x2), store, cfg, pack=pack)
    assert np.array_equal(h.data[:5], h2.data[:5])
    # and the padding of the second changes nothing against encoding it alone
    alone = transformer_encode(Tensor(x[5:]), store, cfg)
    assert np.array_equal(h.data[5:], alone.data)


def test_config_validation():
    with pytest.raises(ValidationError):
        EncoderConfig(model_dim=10, heads=4).validate()
    with pytest.raises(ValidationError):
        EncoderConfig(dropout_rate=1.0).validate()
    with pytest.raises(ValidationError):
        EncoderConfig(layers=0).validate()


def test_sinusoidal_positions_shape_and_range():
    p = sinusoidal_positions(12, 16)
    assert p.shape == (12, 16)
    assert np.all(np.abs(p) <= 1.0)
    q = sinusoidal_positions(5, 7)
    assert q.shape == (5, 7)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

def make_decoder(rng, vocab=7, dropout_rate=0.0):
    cfg = EncoderConfig(layers=1, model_dim=8, heads=2, ff_dim=12, dropout_rate=dropout_rate)
    store = ParamStore()
    init_token_decoder(store, rng, cfg, vocab)
    return store, cfg


def test_decoder_logit_shapes():
    rng = np.random.default_rng(33)
    store, cfg = make_decoder(rng)
    z = Tensor(rng.standard_normal(8))
    for prefix_len in (1, 2, 5):
        logits = decoder_step(np.arange(prefix_len) % 7, z, store, cfg, vocab=7)
        assert logits.shape == (7,)


def test_decoder_rejects_bad_token():
    rng = np.random.default_rng(34)
    store, cfg = make_decoder(rng)
    z = Tensor(rng.standard_normal(8))
    with pytest.raises(ValidationError):
        decoder_step(np.array([9]), z, store, cfg, vocab=7)


def test_decoder_sensitive_to_z():
    rng = np.random.default_rng(35)
    store, cfg = make_decoder(rng)
    prefix = np.array([1, 5, 2])
    z1 = Tensor(rng.standard_normal(8))
    z2 = Tensor(rng.standard_normal(8))
    l1 = decoder_step(prefix, z1, store, cfg, vocab=7)
    l2 = decoder_step(prefix, z2, store, cfg, vocab=7)
    assert np.linalg.norm(l1.data - l2.data) > 0


def test_decoder_causal():
    # changing a later token must not affect earlier positions' logits
    rng = np.random.default_rng(36)
    store, cfg = make_decoder(rng)
    z = Tensor(rng.standard_normal(8))
    a = decode_tokens(np.array([1, 2, 3, 4]), z, store, cfg, vocab=7)
    b = decode_tokens(np.array([1, 2, 6, 4]), z, store, cfg, vocab=7)
    assert np.allclose(a.data[:2], b.data[:2], atol=1e-12)
    assert not np.allclose(a.data[2:], b.data[2:], atol=1e-12)


def test_decoder_nll_grad_wrt_z():
    rng = np.random.default_rng(37)
    store, cfg = make_decoder(rng)
    z = rand_t(rng, 8)
    tokens = np.array([1, 4, 2])
    targets = np.array([4, 2, 2])

    def loss():
        return pad_nll(decode_tokens(tokens, z, store, cfg, vocab=7), targets)

    assert grad_check(loss, [z]) < 1e-3


def test_causal_mask_layout():
    m = causal_mask(3)[0, 0]
    assert m[0, 0] == 0 and m[0, 1] < -1e8 and m[2, 2] == 0 and m[1, 0] == 0
    # two new queries after three cached keys see those keys and themselves
    m = causal_mask(2, past=3)[0, 0]
    assert m.shape == (2, 5)
    assert np.all(m[:, :4] == 0) and m[0, 4] < -1e8 and m[1, 4] == 0


@pytest.mark.parametrize("first", [1, 3, 4], ids=lambda first: f"memory-{first}")
def test_cached_decoder_step_matches_the_full_prefix(first):
    """Fed ``first`` ids, then one at a time, a cached decoder gives the
    logits of decoding the whole prefix at every step."""
    rng = np.random.default_rng(38)
    cfg = EncoderConfig(layers=2, model_dim=8, heads=2, ff_dim=12, dropout_rate=0.0)
    store = ParamStore()
    init_token_decoder(store, rng, cfg, 7)
    z = Tensor(rng.standard_normal(8))
    ids = rng.integers(0, 7, size=9)
    cache = DecodeCache(cfg.layers)
    got = decode_tokens(ids[:first], z, store, cfg, 7, cache=cache)
    want = decode_tokens(ids[:first], z, store, cfg, 7)
    assert len(cache) == first
    assert np.max(np.abs(got.data - want.data)) <= 1e-12
    for n in range(first + 1, len(ids) + 1):
        step = decoder_step(ids[n - 1 : n], z, store, cfg, 7, cache=cache)
        full = decoder_step(ids[:n], z, store, cfg, 7)
        assert len(cache) == n
        assert np.max(np.abs(step.data - full.data)) <= 1e-12


def test_cached_decoder_counts_cached_positions_against_the_limit():
    rng = np.random.default_rng(39)
    cfg = EncoderConfig(layers=1, model_dim=8, heads=2, ff_dim=12, max_positions=3)
    store = ParamStore()
    init_token_decoder(store, rng, cfg, 7)
    z = Tensor(rng.standard_normal(8))
    cache = DecodeCache(cfg.layers)
    decoder_step(np.array([1, 5, 6]), z, store, cfg, 7, cache=cache)
    with pytest.raises(ValidationError) as e:
        decoder_step(np.array([2]), z, store, cfg, 7, cache=cache)
    assert e.value.field == "max_positions"


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adamw_zero_grad_no_change():
    store = ParamStore()
    p = store.add("w", Tensor(np.array([1.0, -2.0])))
    p.grad = np.zeros(2)
    adamw_step(store, lr=0.1)
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adamw_first_step_sign():
    store = ParamStore()
    p = store.add("w", Tensor(np.array([0.5])))
    p.grad = np.array([3.7])
    adamw_step(store, lr=0.01)
    assert p.data[0] == pytest.approx(0.5 - 0.01, rel=1e-6)
    store2 = ParamStore()
    q = store2.add("w", Tensor(np.array([0.5])))
    q.grad = np.array([-0.02])
    adamw_step(store2, lr=0.01)
    assert q.data[0] == pytest.approx(0.5 + 0.01, rel=1e-4)


def test_adamw_decoupled_decay():
    store = ParamStore()
    p = store.add("w", Tensor(np.array([4.0, -8.0])))
    p.grad = np.zeros(2)
    adamw_step(store, lr=0.1, weight_decay=0.5)
    assert np.allclose(p.data, np.array([4.0, -8.0]) * (1 - 0.1 * 0.5), atol=1e-15)


def test_adamw_nan_aborts_whole_step():
    store = ParamStore()
    a = store.add("a", Tensor(np.array([1.0])))
    b = store.add("b", Tensor(np.array([2.0])))
    a.grad = np.array([0.5])
    b.grad = np.array([np.nan])
    with pytest.raises(ValidationError) as e:
        adamw_step(store, lr=0.1)
    assert "b" in str(e.value)
    # nothing moved, step counter untouched
    assert a.data[0] == 1.0 and b.data[0] == 2.0
    assert store.step_count == 0
    # the error names the optimizer step it aborted
    assert "step 1 aborted" in str(e.value)
    b.grad = np.array([0.25])
    adamw_step(store, lr=0.1)
    moved = (a.data.copy(), b.data.copy())
    a.grad = np.array([np.inf])
    with pytest.raises(ValidationError, match="'a'; step 2 aborted"):
        adamw_step(store, lr=0.1)
    assert np.array_equal(a.data, moved[0]) and np.array_equal(b.data, moved[1])
    assert store.step_count == 1


def test_param_store_rejects_duplicates():
    store = ParamStore()
    store.add("w", Tensor(np.zeros(2)))
    with pytest.raises(ValidationError):
        store.add("w", Tensor(np.zeros(2)))


def test_adamw_converges_on_quadratic():
    store = ParamStore()
    p = store.add("w", Tensor(np.array([5.0, -3.0])))
    target = np.array([1.0, 2.0])
    for _ in range(500):
        store.zero_grad()
        loss = ((p - Tensor(target)) ** 2).sum()
        loss.backward()
        adamw_step(store, lr=0.05)
    assert np.allclose(p.data, target, atol=1e-2)


def reference_adamw(params, state, lr, t, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """The former per-parameter AdamW loop: (data, grad) pairs, m/v per parameter."""
    b1, b2 = betas
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for k, (data, g) in enumerate(params):
        if g is None:
            g = np.zeros_like(data)
        if weight_decay:
            data *= 1.0 - lr * weight_decay
        m, v = state.setdefault(k, (np.zeros_like(data), np.zeros_like(data)))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        data -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


def test_flat_adamw_matches_per_parameter_loop_bitwise():
    rng = np.random.default_rng(60)
    shapes = {"w": (5, 3), "b": (3,), "idle": (2, 2), "s": ()}
    stores, refs = [], []
    for _ in range(2):  # two stores stepped in turn keep separate state
        store = ParamStore()
        ref = {}
        for name, shape in shapes.items():
            init = rng.standard_normal(shape)
            store.add(name, Tensor(init.copy()))
            ref[name] = init.copy()
        stores.append(store)
        refs.append((ref, {}))
    for t in range(1, 7):
        for store, (ref, state) in zip(stores, refs):
            grads = {
                "w": rng.standard_normal((3, 5)).T,  # a transposed view
                "b": rng.standard_normal(3) * 1e-3,
                "idle": None,  # never gets a gradient; still decays and moves
                "s": rng.standard_normal(()) if t % 2 else None,
            }
            store.zero_grad()
            for name, g in grads.items():
                store[name].grad = g
            adamw_step(store, lr=3e-2, weight_decay=0.1)
            reference_adamw([(ref[n], grads[n]) for n in shapes], state, 3e-2, t,
                            weight_decay=0.1)
            assert store.step_count == t
            for name in shapes:
                assert store[name].data.tobytes() == ref[name].tobytes(), (t, name)


def test_params_are_views_of_one_buffer_after_load_state_dict():
    rng = np.random.default_rng(61)
    store = ParamStore()
    init_linear(store, rng, "lin", 4, 3)
    kept = {name: p for name, p in store.items()}
    state = {name: rng.standard_normal(p.shape).astype(np.float32) for name, p in kept.items()}
    store.load_state_dict(state)
    for name, p in store.items():
        assert np.shares_memory(p.data, store._flat), name
        assert p.data.tobytes() == state[name].astype(np.float64).tobytes()
    assert store._m.size == 0  # no optimizer state until the first step
    views = [p.data for _, p in store.items()]
    store.load_state_dict({name: s * 2 for name, s in state.items()})
    # a second load copies into the same views instead of rebinding
    assert all(p.data is v for (_, p), v in zip(store.items(), views))
    assert all(store[name] is p for name, p in kept.items())
    with pytest.raises(ValidationError):
        store.load_state_dict({"lin.w": state["lin.w"]})


def test_rebound_param_data_is_still_trained():
    store = ParamStore()
    w = store.add("w", Tensor(np.array([1.0, -2.0])))
    u = store.add("u", Tensor(np.array([0.5])))
    ref_w, ref_u, state = w.data.copy(), u.data.copy(), {}
    for t in range(1, 5):
        if t == 3:
            w.data = w.data + 10.0  # rebinding replaces the array the store made
            ref_w = ref_w + 10.0
        gw, gu = np.array([0.3, -0.1 * t]), np.array([t * 1.0])
        w.grad, u.grad = gw, gu  # the step consumes .grad, so keep the arrays
        adamw_step(store, lr=0.1, weight_decay=0.01)
        reference_adamw([(ref_w, gw), (ref_u, gu)], state, 0.1, t, weight_decay=0.01)
        assert w.data.tobytes() == ref_w.tobytes() and u.data.tobytes() == ref_u.tobytes()
        assert np.shares_memory(w.data, store._flat)


def test_parameter_added_after_a_step_is_refused_until_the_optimizer_resets():
    store = ParamStore()
    a = store.add("a", Tensor(np.array([1.0, 2.0])))
    ref_a = a.data.copy()
    a.grad = ga = np.array([0.5, -0.5])  # the step consumes .grad
    adamw_step(store, lr=0.1)
    reference_adamw([(ref_a, ga)], {}, 0.1, 1)
    b = store.add("b", Tensor(np.array([3.0])))
    ref_b = b.data.copy()
    a.grad, b.grad = ga, gb = np.array([0.1, 0.2]), np.array([-1.0])
    with pytest.raises(ValidationError, match="a parameter added mid-run has no moments"):
        adamw_step(store, lr=0.1)
    assert store.step_count == 1 and a.data.tobytes() == ref_a.tobytes()
    # a new run makes its moments at the store's full size, from step 1
    store.reset_optimizer()
    a.grad, b.grad = ga, gb
    adamw_step(store, lr=0.1)
    reference_adamw([(ref_a, ga), (ref_b, gb)], {}, 0.1, 1)
    assert store.step_count == 1
    assert a.data.tobytes() == ref_a.tobytes() and b.data.tobytes() == ref_b.tobytes()


@pytest.mark.parametrize("transposed_data", [False, True])
def test_first_gradient_copy_matches_zero_fill_and_add(transposed_data):
    rng = np.random.default_rng(62)
    data = rng.standard_normal((3, 4))
    t = Tensor(data.T if transposed_data else data.T.copy())
    grad = rng.standard_normal((3, 4)).T  # arrives as a transposed view
    grad[0, 0] = -0.0
    grad[1, 2] = 0.0
    t._accumulate(grad)
    # the former first write
    ref = np.zeros_like(t.data)
    ref += grad
    assert t.grad.strides == ref.strides
    assert t.grad.tobytes(order="A") == ref.tobytes(order="A")
    assert np.signbit(t.grad[0, 0]) == np.signbit(ref[0, 0])
    w = rng.standard_normal((3, 5))
    assert (t.grad @ w).tobytes() == (ref @ w).tobytes()


def _former_accumulate(self, grad):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += grad


def _former_backward(self):
    topo, seen, stack = [], set(), [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    self.grad = np.ones_like(self.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _former_zero_grad(self):
    for p in self._params.values():
        p.grad = None


def _encoder_decoder_step(seed):
    """One optimizer step, as ``fit`` takes it, on a small encoder-decoder loss: the leaf
    gradients as adamw_step received them, the logits and the updated
    parameter bytes."""
    rng = np.random.default_rng(seed)
    cfg = EncoderConfig(layers=2, model_dim=8, heads=2, ff_dim=12, dropout_rate=0.2)
    store = ParamStore()
    init_encoder(store, rng, cfg, d_in=4)
    init_token_decoder(store, rng, cfg, 7)
    valid = np.array([[True] * 5, [True, True, True, False, False]])
    x = Tensor(rng.standard_normal((2, 5, 4))[valid])
    drop = np.random.default_rng(seed + 1)
    h = transformer_encode(x, store, cfg, train_mode=True, rng=drop, pack=Packing(valid))
    z = attention_pool(h[0:5], h[5])
    logits = decode_tokens(np.array([1, 4, 2, 6]), z, store, cfg, vocab=7,
                           train_mode=True, rng=drop)
    loss = pad_nll(logits, np.array([4, 2, 6, 2]))
    grads = {}

    store.zero_grad()
    loss.backward()
    # the step spends the flat gradient buffer, so keep a copy of each
    grads.update((name, p.grad.copy(order="K")) for name, p in store.items())
    adamw_step(store, lr=1e-2, weight_decay=0.01)
    return grads, logits, {name: p.data.tobytes() for name, p in store.items()}


def test_leaf_grads_match_former_tape_bitwise(monkeypatch):
    grads, logits, params = _encoder_decoder_step(63)
    assert logits.grad is None  # the tape frees non-leaf gradients
    with monkeypatch.context() as m:
        # fresh leaf gradients that adamw_step copies into its buffer
        m.setattr(Tensor, "_accumulate", _former_accumulate)
        m.setattr(Tensor, "backward", _former_backward)
        m.setattr(ParamStore, "zero_grad", _former_zero_grad)
        ref, ref_logits, ref_params = _encoder_decoder_step(63)
    assert ref_logits.grad is not None
    assert grads.keys() == ref.keys()
    for name, g in grads.items():
        assert g is not None and g.strides == ref[name].strides, name
        assert g.tobytes(order="A") == ref[name].tobytes(order="A"), name
    assert params == ref_params


def _intermediate_loss():
    """A loss, and a weak reference to the output array of an intermediate
    Tensor that only the loss's graph holds."""
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    h = w * 2.0
    return (h * h).sum(), weakref.ref(h.data), w


def test_backward_frees_the_graph_the_loss_held():
    loss, h, w = _intermediate_loss()
    assert h() is not None  # the graph keeps it alive until backward
    loss.backward()
    assert h() is None
    assert loss._parents == () and loss._backward is None
    assert np.array_equal(w.grad, 8.0 * w.data)


def test_a_fit_step_accumulates_into_the_flat_buffer_and_consumes_it(monkeypatch):
    rng = np.random.default_rng(64)
    cfg = EncoderConfig(layers=1, model_dim=8, heads=2, ff_dim=12, dropout_rate=0.0)
    store = ParamStore()
    init_encoder(store, rng, cfg, d_in=4)
    seen, spent = [], []

    def step(store, **kw):
        seen.extend(np.shares_memory(p.grad, store._grad) for _, p in store.items())
        adamw_step(store, **kw)
        spent.extend(p.grad is None for _, p in store.items())

    def loss(chunk):
        h = transformer_encode(Tensor(chunk[0]), store, cfg, pack=Packing.from_lengths([5]))
        return (h * h).mean()

    monkeypatch.setattr(training, "adamw_step", step)
    xs = [rng.standard_normal((5, 4)) for _ in range(2)]
    training.fit(store, xs, 1, np.random.default_rng(0), loss, 1e-2, 0.0, epochs=1)
    assert len(seen) == len(spent) == 2 * len(store) and all(seen) and all(spent)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class _ToyModel:
    """The least a class needs for ``load``: a kind, a rebuild, a store."""

    KIND = "test-model"

    def __init__(self, dim: int):
        self.store = ParamStore()
        self.store.add("a.w", Tensor(np.zeros((3, dim))))
        self.store.add("a.b", Tensor(np.zeros(dim)))

    @classmethod
    def from_config(cls, config: dict) -> "_ToyModel":
        return cls(config["dim"])


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(38)
    store = ParamStore()
    store.add("a.w", Tensor(rng.standard_normal((3, 4))))
    store.add("a.b", Tensor(rng.standard_normal(4)))
    path = tmp_path / "m.semm"
    save_checkpoint(path, kind="test-model", config={"dim": 4}, store=store)
    kind, config, params = load_checkpoint(path)
    assert kind == "test-model"
    assert config == {"dim": 4}
    assert set(params) == {"a.w", "a.b"}
    assert np.array_equal(params["a.w"], store["a.w"].data.astype(np.float32))

    # load back into a fresh store with the same structure
    store2 = load(path, _ToyModel).store
    assert np.array_equal(store2["a.w"].data, store["a.w"].data.astype(np.float32).astype(np.float64))


def test_checkpoint_deterministic_bytes(tmp_path):
    store = ParamStore()
    store.add("w", Tensor(np.ones((2, 2))))
    p1, p2 = tmp_path / "a.semm", tmp_path / "b.semm"
    save_checkpoint(p1, "k", {"x": 1}, store)
    save_checkpoint(p2, "k", {"x": 1}, store)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.semm"
    path.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(FileFormatError) as e:
        load_checkpoint(path)
    assert e.value.offset == 0


def test_checkpoint_truncated_buffer(tmp_path):
    store = ParamStore()
    store.add("w", Tensor(np.ones((4, 4))))
    path = tmp_path / "m.semm"
    save_checkpoint(path, "k", {}, store)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FileFormatError):
        load_checkpoint(path)


def test_checkpoint_wrong_kind(tmp_path):
    store = ParamStore()
    store.add("w", Tensor(np.ones(2)))
    path = tmp_path / "m.semm"
    save_checkpoint(path, "kind-a", {}, store)
    with pytest.raises(FileFormatError):
        load(path, _ToyModel)


