"""The fused tape nodes against the composite ops they replace, and the
packed models against the padded path they replace.

The composites below are the oracle: each forward must match its fused node
bit for bit, and each gradient to 1e-12 relative (the fused backward sums in
another order). Every fused node also passes a central-difference check.
Digests pin the bytes of inference outputs and of every training loss's
gradients, and each kernel is checked to write only into its own buffers.
"""

import hashlib
import math
import threading

import numpy as np
import pytest

from gradcheck import grad_check
from semspeech.distill import StudentModel
from semspeech.errors import ValidationError
from semspeech.nn import checkpoint, layers
from semspeech.nn.layers import (
    EncoderConfig,
    apply_block,
    causal_mask,
    decode_tokens,
    init_block,
    init_encoder,
    init_token_decoder,
    pool_states,
    sinusoidal_positions,
    transformer_encode,
)
from semspeech.nn.losses import infonce_batch
from semspeech.nn.optim import ParamStore
from semspeech.nn.tensor import (
    NEG_INF,
    Packing,
    Tensor,
    _gelu_slope,
    _gelu_tanh,
    _gelu_value,
    _log_softmax,
    attention,
    concat,
    ffn,
    layer_norm,
    linear,
    nll,
    no_grad,
    pad_rows,
    softmax,
    take_rows,
)
from semspeech.teachers import SequenceEncoder, Teacher, mlm_forward
from semspeech.tokenizer import CLS, MASK, PAD, SEP
from semspeech.wavembed import WavEmbedModel, decode_loss, encode_frames


def composite_linear(x, w, b):
    return x @ w + b


def composite_attention(q_in, kv_in, params, heads, mask=None, key_bias=None):
    """Padded attention over (Wq, bq, Wk, Wv, bv, Wo, bo); ``key_bias`` is
    a bias for the key projection, which the fused node has not."""
    wq, bq, wk, wv, bv, wo, bo = params
    b, t, d = q_in.shape
    s = kv_in.shape[1]
    dh = d // heads
    q = composite_linear(q_in, wq, bq).reshape(b, t, heads, dh).transpose(0, 2, 1, 3)
    k = kv_in @ wk if key_bias is None else composite_linear(kv_in, wk, key_bias)
    k = k.reshape(b, s, heads, dh).transpose(0, 2, 1, 3)
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


def log_softmax(x, axis=-1):
    """log softmax along ``axis`` as its own node."""
    out_data = _log_softmax(x.data, axis)
    soft = np.exp(out_data)

    def backward(g):
        grad = soft * g.sum(axis=axis, keepdims=True)
        x._accumulate(np.subtract(g, grad, out=grad))

    return Tensor._make(out_data, (x,), backward)


def gather_last(x, idx):
    """One entry along the last axis: out[...] = x[..., idx[...]]."""
    expanded = np.expand_dims(idx, -1)

    def backward(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, expanded, np.expand_dims(g, -1), axis=-1)
        x._accumulate(full)

    return Tensor._make(np.take_along_axis(x.data, expanded, axis=-1).squeeze(-1), (x,), backward)


def composite_nll(logits, targets, mask):
    logp = gather_last(log_softmax(logits, axis=-1), targets)
    return -(logp * Tensor(mask.astype(np.float64))).sum() * (1.0 / int(mask.sum()))


def _leaf(rng, *shape, scale=1.0):
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


ATTENTION_PARTS = ("q.w", "q.b", "k.w", "v.w", "v.b", "o.w", "o.b")


def _attention_params(rng, d):
    shapes = [(d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)]
    return [_leaf(rng, *shape, scale=0.5) for shape in shapes]


def _grads(loss_fn, leaves):
    for t in leaves:
        t.grad = None
    loss_fn().backward()
    grads = [None if t.grad is None else t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    return grads


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _assert_matches(fused, composite, leaves, upstream, exact=True):
    """Bit-equal forwards (within 1e-12 relative when not ``exact``),
    gradients within 1e-12 relative of the oracle."""
    got, want = fused().data, composite().data
    assert np.array_equal(got, want) if exact else _close(got, want)
    got = _grads(lambda: (fused() * upstream).sum(), leaves)
    want = _grads(lambda: (composite() * upstream).sum(), leaves)
    for g, w in zip(got, want):
        assert g is not None and w is not None
        assert _close(g, w)


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
# attention: packed rows against the padded composite
# ---------------------------------------------------------------------------

def key_mask(valid):
    """The padded oracle's (B, 1, 1, T) additive mask over invalid keys."""
    return np.where(valid[:, None, None, :], 0.0, NEG_INF)


def padded(x, pack, rng):
    """Packed rows scattered into (B, T, d) with arbitrary values at the
    invalid positions, which the padded path must mask out."""
    junk = rng.standard_normal((pack.batch, pack.length, x.shape[-1])) * ~pack.valid[..., None]
    return pad_rows(x, pack) + Tensor(junk)


def oracle_attention(q, kv, params, heads, pack, kv_pack=None, mask=None, key_bias=None):
    """composite_attention over the padded batch, its valid query rows."""
    kv_pack = pack if kv_pack is None else kv_pack
    rng = np.random.default_rng(99)
    q_pad = padded(q, pack, rng)
    kv_pad = q_pad if kv is q else padded(kv, kv_pack, rng)
    if kv_pack.index is not None:
        mask = key_mask(kv_pack.valid) if mask is None else mask + key_mask(kv_pack.valid)
    return composite_attention(q_pad, kv_pad, params, heads, mask, key_bias)[pack.valid]


@pytest.mark.parametrize("mask_kind", ["none", "causal", "padding", "causal-padding"])
def test_self_attention_matches_composite(mask_kind):
    rng = np.random.default_rng(4)
    d = 8
    lengths = [5, 3] if mask_kind.endswith("padding") else [5, 5]
    pack = Packing.from_lengths(lengths)
    x = _leaf(rng, sum(lengths), d)
    params = _attention_params(rng, d)
    mask = causal_mask(5) if mask_kind.startswith("causal") else None
    upstream = Tensor(rng.standard_normal((sum(lengths), d)))
    _assert_matches(
        lambda: attention(x, x, params, 2, pack, mask=mask),
        lambda: oracle_attention(x, x, params, 2, pack, mask=mask),
        [x, *params],
        upstream,
    )


def test_cross_attention_matches_composite():
    rng = np.random.default_rng(5)
    d = 8
    pack = Packing.from_lengths([4, 2, 3])
    kv_pack = Packing.from_lengths([4, 1, 3])  # ragged keys of their own
    q, kv = _leaf(rng, pack.rows, d), _leaf(rng, kv_pack.rows, d)
    params = _attention_params(rng, d)
    mask = causal_mask(4)
    upstream = Tensor(rng.standard_normal((pack.rows, d)))
    _assert_matches(
        lambda: attention(q, kv, params, 4, pack, kv_pack, mask),
        lambda: oracle_attention(q, kv, params, 4, pack, kv_pack, mask),
        [q, kv, *params],
        upstream,
    )


def test_self_attention_sums_the_input_gradient_once():
    """q_in is kv_in gives the input the sum of the query and key/value
    paths, the same gradient as two distinct tensors holding equal data."""
    rng = np.random.default_rng(6)
    pack = Packing.from_lengths([3, 2])
    x = _leaf(rng, 5, 4)
    params = _attention_params(rng, 4)
    mask = causal_mask(3)
    (g_self,) = _grads(lambda: attention(x, x, params, 2, pack, mask=mask).sum(), [x])
    q, kv = Tensor(x.data.copy(), requires_grad=True), Tensor(x.data.copy(), requires_grad=True)
    g_q, g_kv = _grads(lambda: attention(q, kv, params, 2, pack, mask=mask).sum(), [q, kv])
    assert np.allclose(g_self, g_q + g_kv, rtol=1e-12, atol=1e-14)


def test_a_key_bias_changes_no_attention_output():
    """Why attention has no key bias: it adds the same q·b to every score
    of a query, which the softmax cancels. With a random one the output and
    the gradients match the fused node's to 1e-12, and the bias's own
    gradient is rounding residue."""
    rng = np.random.default_rng(30)
    pack = Packing.from_lengths([5, 3])
    x = _leaf(rng, pack.rows, 8)
    params = _attention_params(rng, 8)
    key_bias = _leaf(rng, 8)
    mask = causal_mask(5)
    _assert_matches(
        lambda: attention(x, x, params, 2, pack, mask=mask),
        lambda: oracle_attention(x, x, params, 2, pack, mask=mask, key_bias=key_bias),
        [x, *params],
        Tensor(rng.standard_normal((pack.rows, 8))),
        exact=False,
    )
    (g,) = _grads(
        lambda: oracle_attention(x, x, params, 2, pack, mask=mask, key_bias=key_bias).sum(),
        [key_bias],
    )
    assert np.max(np.abs(g)) < 1e-12


@pytest.mark.parametrize(
    "case",
    ["self-causal", "self-padding", "self-all-valid", "cross", "cross-frozen-memory"],
)
def test_attention_grad_check(case):
    rng = np.random.default_rng(7)
    d = 4
    params = _attention_params(rng, d)
    # a ragged batch holds a length-1 sequence; an all-valid one copies nothing
    lengths = [3, 1, 2] if case == "self-padding" else [3, 3]
    pack = Packing.from_lengths(lengths)
    q = _leaf(rng, pack.rows, d)
    c = Tensor(rng.standard_normal((pack.rows, d)))
    if case.startswith("self"):
        mask = causal_mask(3) if case == "self-causal" else None
        if case == "self-all-valid":
            assert pack.index is None and np.shares_memory(pack.pad(q.data), q.data)
        err = grad_check(
            lambda: (attention(q, q, params, 2, pack, mask=mask) * c).sum(), [q, *params],
            eps=1e-4,
        )
    else:
        kv_pack = Packing.from_lengths([2, 1])
        kv = _leaf(rng, kv_pack.rows, d)
        wrt = [q, kv, *params]
        if case == "cross-frozen-memory":
            kv.requires_grad = False
            wrt.remove(kv)
        err = grad_check(
            lambda: (attention(q, kv, params, 2, pack, kv_pack) * c).sum(), wrt, eps=1e-4
        )
    assert err < 1e-5


# ---------------------------------------------------------------------------
# ffn and nll
# ---------------------------------------------------------------------------

def test_gelu_oracle_grad_check():
    # the composite ffn's gradient is only an oracle if its gelu node is right
    rng = np.random.default_rng(5)
    a = _leaf(rng, 4, 4)
    assert grad_check(lambda: gelu(a).sum(), [a]) < 1e-5


def test_nll_oracle_nodes_grad_check():
    # likewise composite_nll's log_softmax and gather_last nodes
    rng = np.random.default_rng(6)
    a = _leaf(rng, 3, 7)
    w = Tensor(rng.standard_normal((3, 7)))
    assert grad_check(lambda: (log_softmax(a, -1) * w).sum(), [a]) < 1e-5
    x = _leaf(rng, 3, 5)
    assert grad_check(lambda: (gather_last(x, np.array([0, 4, 2])) ** 2).sum(), [x]) < 1e-6


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
    one dropout per sublayer, plus the residual adds; a decoder block's
    cross-attention is its V linear, a reshape, its O linear and the row
    gather. Attention pooling pads the packed rows in one node."""
    model = WavEmbedModel.create(d_in=8, vocab=20, encoder_cfg=EncoderConfig(), seed=0)
    rng = np.random.default_rng(0)
    frames = [rng.standard_normal((n, 8)) for n in (5, 7, 6)]
    tokens = [np.array([CLS, *rng.integers(5, 20, size=n), SEP]) for n in (3, 4, 2)]
    loss = model.batch_loss(frames, tokens, train_mode=True, rng=np.random.default_rng(1))
    assert _tape_nodes(loss) == 64


# ---------------------------------------------------------------------------
# packed models against the padded path
# ---------------------------------------------------------------------------
#
# The padded path is the oracle: the models as they ran before packing, built
# from the composites. Every sequence is padded to the batch's longest, keys
# outside a sequence are masked, and dropout draws its mask for the padded
# shape. On the valid rows a packed forward matches it bit for bit.

CFG = EncoderConfig(layers=2, model_dim=8, heads=2, ff_dim=12, dropout_rate=0.1)
LENGTHS = [5, 1, 7, 3]


def _ln(store, name, x):
    return layer_norm(x, store[f"{name}.g"], store[f"{name}.b"])


def _weights(store, name, parts):
    return [store[f"{name}.{part}"] for part in parts]


def one_slot_attention(store, name, h, memory):
    """The decoder's attention to its one memory slot: o(v(z)) at every
    position, V projecting the (B, d) slots as one product."""
    b, t, d = h.shape
    v = composite_linear(memory.reshape(b, d), *_weights(store, f"{name}.xattn", ("v.w", "v.b")))
    row = composite_linear(v, *_weights(store, f"{name}.xattn", ("o.w", "o.b")))
    return row.reshape(b, 1, d) * Tensor(np.ones((1, t, 1)))


def padded_block(store, name, h, cfg, mask, memory, drop, cross=one_slot_attention):
    """One pre-norm block; self-attention also reads the key bias of a store
    that holds one."""
    a = _ln(store, f"{name}.ln1", h)
    attn = _weights(store, f"{name}.attn", ATTENTION_PARTS)
    key_bias = store[f"{name}.attn.k.b"] if f"{name}.attn.k.b" in store else None
    h = h + drop(composite_attention(a, a, attn, cfg.heads, mask, key_bias))
    if memory is not None:
        h = h + drop(cross(store, name, h, memory))
    a = _ln(store, f"{name}.ln2", h)
    ffn_params = _weights(store, name, ("ff1.w", "ff1.b", "ff2.w", "ff2.b"))
    return h + drop(composite_ffn(a, *ffn_params))


def padded_blocks(store, prefix, h, cfg, mask, memory, train_mode, rng):
    def drop(t):  # inverted dropout, its mask drawn for the padded shape
        if train_mode and cfg.dropout_rate > 0.0:
            return t * Tensor((rng.random(t.shape) >= cfg.dropout_rate) / (1.0 - cfg.dropout_rate))
        return t

    h = drop(h)
    for layer in range(cfg.layers):
        h = padded_block(store, f"{prefix}.block{layer}", h, cfg, mask, memory, drop)
    return _ln(store, f"{prefix}.ln_f", h)


def padded_encode(x, store, cfg, valid, train_mode=False, rng=None):
    """(B, T, d_in) frames or (B, T) ids -> (B, T, d) states."""
    if isinstance(x, Tensor):
        h = composite_linear(x, store["enc.in.w"], store["enc.in.b"])
    else:
        h = take_rows(store["tok"], x)
    h = h + Tensor(sinusoidal_positions(valid.shape[1], cfg.model_dim))
    mask = None if valid.all() else key_mask(valid)
    return padded_blocks(store, "enc", h, cfg, mask, None, train_mode, rng)


def padded_pool(h, store, pooling, valid, mask=None):
    b, t, d = h.shape
    if pooling == "cls":
        return h[:, 0]
    if pooling == "self_attention":
        scores = (h @ store["pool.W"].reshape(d, 1)).reshape(b, t)
        weights = softmax(scores + Tensor(np.where(valid, 0.0, NEG_INF)), axis=-1)
        return (h * weights.reshape(b, t, 1)).sum(axis=1)
    mask = valid if mask is None else mask
    weights = mask / mask.sum(axis=1)[:, None]
    return (h * Tensor(weights[:, :, None])).sum(axis=1)


def padded_decode(tokens, z, store, cfg, train_mode=False, rng=None):
    """(B, S) ids and (B, d) z -> (B, S, vocab) logits."""
    b, s = tokens.shape
    h = take_rows(store["dec.tok"], tokens) + Tensor(sinusoidal_positions(s, cfg.model_dim))
    memory = z.reshape(b, 1, z.shape[-1])
    h = padded_blocks(store, "dec", h, cfg, causal_mask(s), memory, train_mode, rng)
    return composite_linear(h, store["dec.out.w"], store["dec.out.b"])


def pad_ids(seqs):
    """The id sequences as one (B, S) matrix, PAD after each."""
    ids, pack = Packing.of(seqs)
    out = np.full((pack.batch, pack.length), PAD)
    out[pack.valid] = ids
    return out


def padded_frames(frames, with_lead=None):
    """The frame list padded to its longest with arbitrary values, and its
    valid mask; ``with_lead`` is a (d_in,) frame put in front of each row."""
    pack = Packing.from_lengths([len(f) for f in frames])
    x, valid = padded(Tensor(np.concatenate(frames)), pack, np.random.default_rng(4)), pack.valid
    if with_lead is not None:
        b, _, d = x.shape
        lead = take_rows(with_lead.reshape(1, d), np.zeros((b, 1), dtype=np.int64))
        x = concat([lead, x], axis=1)
        valid = np.concatenate([np.ones((b, 1), dtype=bool), valid], axis=1)
    return x, valid


def _store_params(store, skip=()):
    return [p for name, p in store.items() if not name.startswith(skip)]


@pytest.mark.parametrize("pooling", ["mean", "cls", "self_attention"])
def test_packed_frame_encoder_matches_padded_path(pooling):
    rng = np.random.default_rng(11)
    store = ParamStore()
    init_encoder(store, rng, CFG, d_in=3, pooling=pooling)
    if pooling == "self_attention":
        store["pool.W"].data[:] = rng.standard_normal(CFG.model_dim)  # zero would pool a mean
    frames = [rng.standard_normal((n, 3)) for n in LENGTHS]
    pack = Packing.from_lengths(LENGTHS)

    def drop():
        return np.random.default_rng(3)

    _assert_matches(
        lambda: transformer_encode(Tensor(np.concatenate(frames)), store, CFG, True, drop(), pack),
        lambda: padded_encode(padded_frames(frames)[0], store, CFG, pack.valid, True, drop())[
            pack.valid
        ],
        _store_params(store, skip="pool."),
        Tensor(rng.standard_normal((pack.rows, CFG.model_dim))),
    )

    def padded_pooled():
        lead = store["pool.cls"] if pooling == "cls" else None
        x, valid = padded_frames(frames, with_lead=lead)
        return padded_pool(padded_encode(x, store, CFG, valid, True, drop()), store, pooling, valid)

    _assert_matches(
        lambda: encode_frames(store, CFG, pooling, frames, True, drop()),
        padded_pooled,
        _store_params(store),
        Tensor(rng.standard_normal((len(LENGTHS), CFG.model_dim))),
    )


@pytest.mark.parametrize("pooling", ["mean", "self_attention"])
def test_packed_id_encoder_matches_padded_path(pooling):
    rng = np.random.default_rng(12)
    store = ParamStore()
    init_encoder(store, rng, CFG, vocab=11, pooling=pooling)
    if pooling == "self_attention":
        store["pool.W"].data[:] = rng.standard_normal(CFG.model_dim)
    pack = Packing.from_lengths(LENGTHS)
    ids = rng.integers(0, 11, size=pack.rows)
    mask = None
    if pooling == "mean":  # the teachers average content positions only
        mask = rng.random(pack.rows) < 0.6
        mask[pack.starts] = True

    def drop():
        return np.random.default_rng(3)

    def packed():
        h = transformer_encode(ids, store, CFG, True, drop(), pack)
        return concat([h, pool_states(h, store, pooling, pack, mask)], axis=0)

    def padded_path():
        h = padded_encode(pack.pad(ids), store, CFG, pack.valid, True, drop())
        mask_padded = None if mask is None else pack.pad(mask)
        pooled = padded_pool(h, store, pooling, pack.valid, mask_padded)
        return concat([h[pack.valid], pooled], axis=0)

    _assert_matches(
        packed, padded_path, _store_params(store),
        Tensor(rng.standard_normal((pack.rows + len(LENGTHS), CFG.model_dim))),
    )


def test_cls_pooling_reads_frames_only():
    with pytest.raises(ValidationError) as e:
        init_encoder(ParamStore(), np.random.default_rng(0), CFG, vocab=11, pooling="cls")
    assert e.value.field == "pooling"


def test_packed_decoder_matches_padded_path():
    rng = np.random.default_rng(13)
    store = ParamStore()
    init_token_decoder(store, rng, CFG, 11)
    pack = Packing.from_lengths(LENGTHS)
    ids = rng.integers(0, 11, size=pack.rows)
    z = _leaf(rng, len(LENGTHS), CFG.model_dim)

    def drop():
        return np.random.default_rng(3)

    _assert_matches(
        lambda: decode_tokens(ids, z, store, CFG, 11, True, drop(), pack=pack),
        lambda: padded_decode(pack.pad(ids), z, store, CFG, True, drop())[pack.valid],
        [*_store_params(store), z],
        Tensor(rng.standard_normal((pack.rows, 11))),
    )


def test_one_slot_cross_attention_folds_to_its_value_row():
    """Why a decoder block has no lnx norm and no cross-attention Q or K:
    attention to one memory slot has softmax 1 at every query, so with any
    lnx, Q, K and key bias it returns o(v(z)). The block as it was, those
    drawn at random, matches the folded block to 1e-12, forward and in the
    gradients to its input rows and to z."""
    rng = np.random.default_rng(31)
    d = CFG.model_dim
    store = ParamStore()
    init_block(store, rng, "b", CFG, cross_attention=True)
    pack = Packing.from_lengths([4, 1, 3])
    x, z = _leaf(rng, pack.rows, d), _leaf(rng, pack.batch, 1, d)
    lnx = [_leaf(rng, d), _leaf(rng, d)]
    wq, bq, wk, bk = _leaf(rng, d, d), _leaf(rng, d), _leaf(rng, d, d), _leaf(rng, d)
    mask = causal_mask(pack.length)

    def unfolded(store, name, h, memory):
        v_o = _weights(store, f"{name}.xattn", ("v.w", "v.b", "o.w", "o.b"))
        return composite_attention(layer_norm(h, *lnx), memory, [wq, bq, wk, *v_o], CFG.heads,
                                   key_bias=bk)

    _assert_matches(
        lambda: apply_block(store, "b", x, CFG, pack, mask, memory=z),
        lambda: padded_block(
            store, "b", padded(x, pack, np.random.default_rng(4)), CFG, mask, z, lambda t: t,
            cross=unfolded,
        )[pack.valid],
        [x, z],
        Tensor(rng.standard_normal((pack.rows, d))),
        exact=False,
    )


# ---------------------------------------------------------------------------
# random streams and inference bytes
# ---------------------------------------------------------------------------

def test_simcse_step_draws_as_the_padded_path():
    """Two dropout passes over a ragged batch leave the generator where the
    padded path leaves it, with the same loss."""
    enc = SequenceEncoder.create(vocab=20, cfg=CFG, seed=0)
    rng = np.random.default_rng(14)
    seqs = [np.array([CLS, *rng.integers(5, 20, size=n), SEP]) for n in (4, 1, 6)]
    stream = np.random.default_rng(5)
    ids, pack = Packing.of(seqs)
    loss = infonce_batch(enc._embed(ids, pack, True, stream), enc._embed(ids, pack, True, stream))
    loss.backward()

    ref = np.random.default_rng(5)
    tokens = pad_ids(seqs)
    valid = tokens != PAD

    def padded_embed():
        h = padded_encode(tokens, enc.store, CFG, valid, True, ref)
        return padded_pool(h, enc.store, "mean", valid, ~np.isin(tokens, (PAD, CLS, SEP, MASK)))

    ref_loss = infonce_batch(padded_embed(), padded_embed())
    ref_loss.backward()
    assert stream.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(loss.data, ref_loss.data)


def test_wavembed_step_draws_as_the_padded_path():
    """Encoder and decoder dropout over a ragged batch leave the generator
    where the padded path leaves it; the loss, a mean over fewer zeros, agrees
    to 1e-12."""
    model = WavEmbedModel.create(d_in=3, vocab=12, encoder_cfg=CFG, seed=0)
    rng = np.random.default_rng(15)
    frames = [rng.standard_normal((n, 3)) for n in LENGTHS]
    tokens = [np.array([CLS, *rng.integers(5, 12, size=n), SEP]) for n in (2, 5, 1, 3)]
    stream = np.random.default_rng(5)
    loss = model.batch_loss(frames, tokens, train_mode=True, rng=stream)
    loss.backward()

    ref = np.random.default_rng(5)
    x, valid = padded_frames(frames)
    h = padded_encode(x, model.store, CFG, valid, True, ref)
    z = padded_pool(h, model.store, "self_attention", valid)
    inputs = pad_ids([t[:-1] for t in tokens])
    logits = padded_decode(inputs, z, model.store, CFG, True, ref)
    ref_targets = pad_ids([t[1:] for t in tokens])
    ref_loss = nll(logits, ref_targets, ref_targets != PAD)
    ref_loss.backward()
    assert stream.bit_generator.state == ref.bit_generator.state
    assert float(loss.data) == pytest.approx(float(ref_loss.data), rel=1e-12)


# sha256 of embed_batch's float64 bytes on the batch below; the padded
# oracle gives the same bytes. Re-pinned when the softmax came to add its
# denominator in order (every model) and attention pooling to sum its
# weighted rows over the T axis (student self_attention, wavembed); each
# moved by <= 1.9e-15
EMBED_GOLDEN = {
    "student-self_attention": "ec8eb7126240468b52a9f76fe974735d84ca0ce65b0e4f85d07f9d4894854306",
    "student-cls": "569b9ecdbb52747bb113c7b76949e8afa5b6e54af97a75d29f3ac2706bd4a689",
    "wavembed": "272ca6a343551aeb085ae24f4eb0af339ef604996b3fbd9f22dea7b578edaabc",
    "teacher-mean": "52e8d7f7ed75371c80ae9b4597b780960e79bd94ffc8b5083cdd25947fa75ac7",
}


def _golden_batch():
    rng = np.random.default_rng(2024)
    frames = [rng.standard_normal((n, 8)) for n in (7, 3, 12, 5, 12, 1, 9)]
    rng = np.random.default_rng(2024)
    seqs = [[CLS, *rng.integers(5, 30, size=n), SEP] for n in (6, 1, 14, 3, 9)]
    return frames, seqs


def _golden_model(name):
    kind, _, pooling = name.partition("-")
    if kind == "student":
        return StudentModel.create(d_in=8, pooling=pooling, seed=3)
    if kind == "wavembed":
        return WavEmbedModel.create(d_in=8, vocab=12, seed=3)
    return SequenceEncoder.create(vocab=30, seed=3)


@pytest.mark.parametrize("name", sorted(EMBED_GOLDEN))
def test_packed_inference_keeps_the_padded_bytes(name):
    frames, seqs = _golden_batch()
    embs = _golden_model(name).embed_batch(seqs if name.startswith("teacher") else frames)
    assert hashlib.sha256(embs.tobytes()).hexdigest() == EMBED_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(EMBED_GOLDEN))
def test_every_row_has_the_bytes_of_its_input_alone(name):
    """Batch invariance: on random ragged batches, 1-frame sequences among
    them and one batch of one, every embed_batch row is bit-equal to
    embed_batch([x])[0] and, where the model has it, to embed(x). The batch
    of 40 spans two chunks."""
    model = _golden_model(name)
    rng = np.random.default_rng(29)
    for size in (1, 2, 9, 40):
        lengths = rng.integers(1, 45, size=size)
        lengths[rng.integers(size)] = 1
        if name.startswith("teacher"):
            items = [[CLS, *rng.integers(5, 30, size=n), SEP] for n in lengths]
        else:
            items = [rng.standard_normal((n, 8)) for n in lengths]
        batch = model.embed_batch(items)
        for row, x in zip(batch, items):
            assert np.array_equal(row, model.embed_batch([x])[0])
            if hasattr(model, "embed"):
                assert np.array_equal(row, model.embed(x))


def _encoder_threads(monkeypatch, workers):
    """Run the encoder on ``workers`` threads; returns the list each body
    call appends (its batch size, whether it ran off the calling thread) to."""
    monkeypatch.setattr(layers, "WORKERS", workers)
    calls, body, caller = [], layers._encode_rows, threading.get_ident()

    def spy(x, store, cfg, pack, train_mode, rng):
        calls.append((pack.batch, threading.get_ident() != caller))
        return body(x, store, cfg, pack, train_mode, rng)

    monkeypatch.setattr(layers, "_encode_rows", spy)
    return calls


def _golden_items(name, lengths, rng):
    if name.startswith("teacher"):
        return [[CLS, *rng.integers(5, 30, size=n), SEP] for n in lengths]
    return [rng.standard_normal((n, 8)) for n in lengths]


def _golden_encoder_input(name, lengths, rng):
    """What transformer_encode reads for the golden model ``name``: packed
    frames or ids of the given lengths, and their layout."""
    if name.startswith("teacher"):
        return Packing.of([rng.integers(5, 30, size=n) for n in lengths])
    x, pack = Packing.of([rng.standard_normal((n, 8)) for n in lengths])
    return Tensor(x), pack


# batch sizes 1, 2, 3 and 33, then two batches whose split makes one group
# a single one-frame sequence, first or last (embed_batch sorts it first)
SPLIT_LENGTHS = [
    [9], [4, 11], [6, 1, 13], [int(n) for n in np.arange(33) % 17 + 1], [1, 20], [20, 1],
]


@pytest.mark.parametrize("name", sorted(EMBED_GOLDEN))
def test_a_split_batch_has_the_serial_bytes(name, monkeypatch):
    """Two encoder threads give every row of embed_batch and of
    transformer_encode the bytes the one-thread path gives, and the
    batches of two or more sequences do run half on the worker."""
    model = _golden_model(name)
    store = model.store
    cfg = getattr(model, "encoder_cfg", None) or model.cfg
    for lengths in SPLIT_LENGTHS:
        items = _golden_items(name, lengths, np.random.default_rng(41))
        x, pack = _golden_encoder_input(name, lengths, np.random.default_rng(41))
        out = {}
        for workers in (1, 2):
            calls = _encoder_threads(monkeypatch, workers)
            with no_grad():
                states = transformer_encode(x, store, cfg, pack=pack).data
            out[workers] = model.embed_batch(items), states
            assert any(off for _, off in calls) == (workers == 2 and len(lengths) > 1)
        assert np.array_equal(out[2][0], out[1][0])
        assert np.array_equal(out[2][1], out[1][1])
    calls = _encoder_threads(monkeypatch, 2)
    x, pack = _golden_encoder_input(name, [20, 1], np.random.default_rng(5))
    with no_grad():
        transformer_encode(x, store, cfg, pack=pack)
    assert sorted(calls) == [(1, False), (1, True)]


def test_a_taped_or_train_mode_encode_is_never_split(monkeypatch):
    calls = _encoder_threads(monkeypatch, 2)
    model = StudentModel.create(d_in=8, pooling="self_attention", seed=3)
    x, pack = _golden_encoder_input("student", [5, 9, 2, 7], np.random.default_rng(6))
    transformer_encode(x, model.store, model.cfg, pack=pack)
    with no_grad():
        transformer_encode(x, model.store, model.cfg, True, np.random.default_rng(0), pack)
    transformer_encode(x, model.store, model.cfg, True, np.random.default_rng(0), pack)
    assert calls == [(4, False)] * 3


def test_the_workers_half_records_no_tape(monkeypatch):
    """The worker enters no_grad itself: the half it encodes, from
    parameters that want gradients, comes back with no tape."""
    monkeypatch.setattr(layers, "WORKERS", 2)
    halves, body, caller = [], layers._encode_rows, threading.get_ident()

    def spy(*args):
        out = body(*args)
        halves.append((threading.get_ident() != caller, out.requires_grad, bool(out._parents)))
        return out

    monkeypatch.setattr(layers, "_encode_rows", spy)
    model = StudentModel.create(d_in=8, pooling="self_attention", seed=3)
    assert all(p.requires_grad for _, p in model.store.items())
    x, pack = _golden_encoder_input("student", [5, 9, 2, 7], np.random.default_rng(6))
    with no_grad():
        transformer_encode(x, model.store, model.cfg, pack=pack)
    assert sorted(halves) == [(False, False, False), (True, False, False)]


def test_an_error_in_the_workers_half_is_the_serial_error(monkeypatch):
    """An id outside the table in the second half, which the worker runs,
    is the one ValidationError the serial path raises."""
    enc = SequenceEncoder.create(vocab=30, seed=3)
    ids, pack = Packing.of([np.full(n, 7) for n in (5, 4, 6, 3)])
    ids[-1] = 30
    errors = {}
    for workers in (1, 2):
        calls = _encoder_threads(monkeypatch, workers)
        with no_grad(), pytest.raises(ValidationError) as e:
            transformer_encode(ids, enc.store, enc.cfg, pack=pack)
        errors[workers] = (type(e.value), str(e.value), e.value.field)
        assert any(off for _, off in calls) == (workers == 2)
    assert errors[2] == errors[1]


def test_an_empty_sequence_in_a_split_batch_is_the_serial_error(monkeypatch):
    """Sorted first, an empty sequence leaves no cut with rows on both
    sides; inside a group it reaches pooling. Either way it is pooling's
    one ValidationError."""
    model = StudentModel.create(d_in=8, pooling="self_attention", seed=3)
    for frames in ([np.zeros((0, 8)), np.ones((5, 8))],
                   [np.ones((5, 8)), np.zeros((0, 8)), np.ones((3, 8))]):
        for workers in (1, 2):
            monkeypatch.setattr(layers, "WORKERS", workers)
            with pytest.raises(ValidationError, match="cannot pool an empty sequence"):
                model.embed_batch(frames)


def _with_dead_parameters(store, rng, key_bias):
    """``store``'s parameters laid out as a checkpoint held them before the
    dead ones went: each attention's K weight followed by a key bias of
    ``key_bias`` times normal draws, and in each decoder block an lnx norm
    and cross-attention Q and K, all random, before its V."""
    out = ParamStore()
    for name, p in store.items():
        d = p.shape[-1]
        if name.endswith(".xattn.v.w"):
            block = name[: -len("xattn.v.w")]
            for dead in ("lnx.g", "lnx.b", "xattn.q.w", "xattn.q.b", "xattn.k.w", "xattn.k.b"):
                shape = (d, d) if dead.endswith(".w") else (d,)
                out.add(block + dead, Tensor(rng.standard_normal(shape)))
        out.add(name, Tensor(p.data.copy()))
        if name.endswith(".attn.k.w"):
            out.add(name[:-1] + "b", Tensor(key_bias * rng.standard_normal(d)))
    return out


def _padded_embed(kind, store, frames, seqs):
    """The padded oracle's embeddings of the golden batch at default dims,
    reading the key biases ``store`` holds. Frames run in ``embed_batch``'s
    length order."""
    cfg = EncoderConfig()
    if kind == "teacher":
        tokens = pad_ids([np.array(s) for s in seqs])
        valid = tokens != PAD
        h = padded_encode(tokens, store, cfg, valid)
        return padded_pool(h, store, "mean", valid, ~np.isin(tokens, (PAD, CLS, SEP, MASK))).data
    order = np.argsort([len(f) for f in frames], kind="stable")
    x, valid = padded_frames([frames[i] for i in order])
    z = padded_pool(padded_encode(x, store, cfg, valid), store, "self_attention", valid)
    if kind == "student":
        z = composite_linear(z, store["proj.w"], store["proj.b"])
    out = np.empty_like(z.data)
    out[order] = z.data
    return out


@pytest.mark.parametrize("key_bias", [0.0, 0.5])
@pytest.mark.parametrize("kind", ["wavembed", "teacher", "student"])
def test_a_checkpoint_with_the_dead_parameters_loads(tmp_path, kind, key_bias):
    """A .semm that still holds key biases, lnx norms and cross-attention Q
    and K loads with those names dropped. Its embeddings are the ones the
    file's parameters gave with them, by the padded oracle: exactly when the
    key biases are zero, and to 1e-12 otherwise."""
    name = {"wavembed": "wavembed", "teacher": "teacher-mean", "student": "student-self_attention"}
    model = _golden_model(name[kind])
    cls, config = type(model), model.config_dict()
    if kind == "teacher":
        cls, config["teacher_kind"] = Teacher, "tsdae"
    path = tmp_path / "old.semm"
    old = _with_dead_parameters(model.store, np.random.default_rng(6), key_bias)
    checkpoint.save_checkpoint(path, cls.KIND, config, old)
    loaded = checkpoint.load(path, cls)
    assert [n for n, _ in loaded.store.items()] == [n for n, _ in model.store.items()]
    frames, seqs = _golden_batch()
    got = loaded.embed_batch(seqs if kind == "teacher" else frames)
    _, _, params = checkpoint.load_checkpoint(path)
    want = _padded_embed(kind, {n: Tensor(a) for n, a in params.items()}, frames, seqs)
    if key_bias == 0.0:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# gradient bytes of the training losses
# ---------------------------------------------------------------------------
#
# One backward() of each training loss on fixed tiny inputs, dropout on. The
# digest covers the loss and every leaf gradient in store order, so a kernel
# that reorders a float operation in any backward pass shows here.

def _ragged_tokens(rng, lengths, vocab):
    return [np.array([CLS, *rng.integers(5, vocab, size=n), SEP]) for n in lengths]


def _wavembed_loss():
    model = WavEmbedModel.create(d_in=3, vocab=12, encoder_cfg=CFG, seed=0)
    rng = np.random.default_rng(15)
    frames = [rng.standard_normal((n, 3)) for n in LENGTHS]
    tokens = _ragged_tokens(rng, (2, 5, 1, 3), 12)
    return model.store, model.batch_loss(frames, tokens, True, np.random.default_rng(5))


def _mlm_loss():
    enc = SequenceEncoder.create(vocab=20, cfg=CFG, seed=0)
    rng = np.random.default_rng(16)
    seqs = _ragged_tokens(rng, (4, 1, 6), 20)
    ids, pack = Packing.of(seqs)
    # picks drawn for the padded (B, S) batch, as they were pinned
    chosen = pack.unpad(rng.random((pack.batch, pack.length)) < 0.4) & (ids >= 5)
    chosen[1] = True
    logits = mlm_forward(enc, np.where(chosen, MASK, ids), pack, True, np.random.default_rng(5))
    return enc.store, nll(logits, ids, chosen)


def _tsdae_loss():
    enc = SequenceEncoder.create(vocab=20, cfg=CFG, seed=0)
    init_token_decoder(enc.store, np.random.default_rng(1), CFG, 20)
    rng = np.random.default_rng(17)
    originals = _ragged_tokens(rng, (5, 2, 7), 20)
    corrupted = [t[::2] for t in originals]
    stream = np.random.default_rng(5)
    ids, pack = Packing.of(corrupted)
    z = enc.pool(enc.encode(ids, pack, True, stream), ids, pack)
    return enc.store, decode_loss(z, originals, enc.store, CFG, 20, train_mode=True, rng=stream)


def _simcse_loss():
    enc = SequenceEncoder.create(vocab=20, cfg=CFG, seed=0)
    seqs = _ragged_tokens(np.random.default_rng(14), (4, 1, 6), 20)
    stream = np.random.default_rng(5)
    ids, pack = Packing.of(seqs)
    z1, z2 = enc._embed(ids, pack, True, stream), enc._embed(ids, pack, True, stream)
    return enc.store, infonce_batch(z1, z2)


def _distill_loss():
    student = StudentModel.create(d_in=3, cfg=CFG, seed=0)
    rng = np.random.default_rng(18)
    frames = [rng.standard_normal((n, 3)) for n in LENGTHS]
    teacher = Tensor(rng.standard_normal((len(LENGTHS), CFG.model_dim)))
    bank = Tensor(rng.standard_normal((6, CFG.model_dim)))
    z = student.embed_train(frames, np.random.default_rng(5))
    return student.store, infonce_batch(z, teacher, bank=bank)


GRAD_LOSSES = {
    "wavembed": _wavembed_loss,
    "mlm": _mlm_loss,
    "tsdae": _tsdae_loss,
    "simcse": _simcse_loss,
    "distill": _distill_loss,
}

# sha256 of the loss and every leaf gradient's float64 bytes. Re-pinned for
# three summation orders, which moved a gradient by <= 3.6e-15: the
# softmax's in-order denominator (mlm, simcse, tsdae), attention pooling's
# sum over T (distill, wavembed), and V of the decoder's memory slots as one
# GEMM rather than one product per slot (tsdae, wavembed).
GRAD_GOLDEN = {
    "distill": "bb4718228740fe19ffa9405fad645434cd72f489ff2b9e636ddfd8319ecd60eb",
    "mlm": "0d97b685c1fd383275d576f501d89549bafe16c77bd1da20fd7e1d3531030309",
    "simcse": "e280169bd9001596b7381a9d4118209c9d4b4922d26f7cd90520aca6ee73614b",
    "tsdae": "a9b6a9e81db74a007a8f1daaccba51947814e37519bcb3f316a5eba0b476cbe4",
    "wavembed": "a784cab740f34f86313756b4ea27fde78b3177df95fd6f8731d8d6df30d7fb91",
}


def _grad_digest(store, loss):
    loss.backward()
    digest = hashlib.sha256(np.asarray(loss.data).tobytes())
    for name, p in store.items():
        digest.update(name.encode())
        digest.update(b"none" if p.grad is None else p.grad.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GRAD_LOSSES))
def test_training_gradients_keep_their_bytes(name):
    assert _grad_digest(*GRAD_LOSSES[name]()) == GRAD_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GRAD_LOSSES))
def test_every_parameter_gets_a_gradient(name):
    """No parameter is dead: each one's gradient is more than rounding
    residue."""
    store, loss = GRAD_LOSSES[name]()
    loss.backward()
    for pname, p in store.items():
        assert p.grad is not None and np.max(np.abs(p.grad)) > 1e-10, pname


# ---------------------------------------------------------------------------
# what a kernel may write into
# ---------------------------------------------------------------------------
#
# A kernel writes only into arrays its own call allocated: never into an
# input's .data, a parameter, or the upstream gradient it is handed.

def _attention_case(kind):
    def build(rng):
        d = 8
        params = _attention_params(rng, d)
        if kind == "cross":
            pack, kv_pack = Packing.from_lengths([4, 2]), Packing.from_lengths([3, 1])
            q, kv = _leaf(rng, pack.rows, d), _leaf(rng, kv_pack.rows, d)
            return (lambda: attention(q, kv, params, 2, pack, kv_pack)), [q, kv, *params]
        lengths = [5, 3] if kind == "packed" else [4, 4]
        pack = Packing.from_lengths(lengths)
        x = _leaf(rng, pack.rows, d)
        mask = causal_mask(pack.length) if kind == "masked" else None
        return (lambda: attention(x, x, params, 2, pack, mask=mask)), [x, *params]

    return build


def _leaves_case(op, *shapes):
    """A case calling ``op`` on fresh leaves of the given shapes."""

    def build(rng):
        leaves = [_leaf(rng, *shape) for shape in shapes]
        return (lambda: op(*leaves)), leaves

    return build


def _nll(logits):
    targets = np.array([[1, 0, 4], [2, 2, 3]])
    return nll(logits, targets, np.array([[True, False, True], [True, True, True]]))


OWNERSHIP_CASES = {
    "linear": _leaves_case(linear, (5, 4), (4, 3), (3,)),
    "attention-self": _attention_case("self"),
    "attention-cross": _attention_case("cross"),
    "attention-masked": _attention_case("masked"),
    "attention-packed": _attention_case("packed"),
    "ffn": _leaves_case(ffn, (5, 4), (4, 6), (6,), (6, 4), (4,)),
    "layer_norm": _leaves_case(layer_norm, (5, 6), (6,), (6,)),
    "softmax": _leaves_case(softmax, (3, 5)),
    "log_softmax": _leaves_case(log_softmax, (3, 5)),
    "nll": _leaves_case(_nll, (2, 3, 5)),
    "pad_rows": _leaves_case(lambda x: pad_rows(x, Packing.from_lengths([4, 2])), (6, 4)),
}


def _forward_backward(name):
    """Build the case on fresh leaves, run its forward and its backward with
    a fixed upstream gradient, and check that no input or upstream byte
    moved. Returns the output and the leaf gradients."""
    forward, leaves = OWNERSHIP_CASES[name](np.random.default_rng(21))
    before = [t.data.tobytes() for t in leaves]
    out = forward()
    upstream = np.random.default_rng(22).standard_normal(out.shape)
    upstream_bytes = upstream.tobytes()
    out._backward(upstream)
    assert [t.data.tobytes() for t in leaves] == before
    assert upstream.tobytes() == upstream_bytes
    return out.data.copy(), [t.grad for t in leaves]


@pytest.mark.parametrize("name", sorted(OWNERSHIP_CASES))
def test_kernels_write_only_into_their_own_buffers(name):
    out, grads = _forward_backward(name)
    again, grads_again = _forward_backward(name)
    assert out.tobytes() == again.tobytes()
    assert all(g is not None for g in grads)
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in grads_again]
