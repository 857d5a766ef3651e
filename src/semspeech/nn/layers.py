"""Transformer building blocks: linear, embeddings, multi-head attention,
pre-norm encoder/decoder stacks, sinusoidal positions, pooling.

The encoder is the one skeleton every model embeds with: ``init_encoder``,
``transformer_encode`` over frames or token ids, and ``pool_states``.

Parameters are registered into a ParamStore under hierarchical names at init
time; apply functions are pure given the store contents.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ValidationError
from .optim import ParamStore
from .tensor import (
    NEG_INF,
    Packing,
    Tensor,
    attention,
    concat,
    dropout,
    ffn,
    grad_enabled,
    layer_norm,
    linear,
    no_grad,
    pad_rows,
    softmax,
    take_rows,
)

@dataclass
class EncoderConfig:
    layers: int = 2
    model_dim: int = 64
    heads: int = 4
    ff_dim: int = 128
    dropout_rate: float = 0.1
    max_positions: int = 1024

    def validate(self) -> None:
        for name in ("layers", "model_dim", "heads", "ff_dim", "max_positions"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1", field=name)
        if self.model_dim % self.heads != 0:
            raise ValidationError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}",
                field="heads",
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError("dropout_rate must be in [0, 1)", field="dropout_rate")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        cfg = cls(**d)
        cfg.validate()
        return cfg


# -- initialization ----------------------------------------------------------

def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_linear(
    store: ParamStore,
    rng: np.random.Generator,
    name: str,
    d_in: int,
    d_out: int,
    scale: float = 1.0,
):
    store.add(f"{name}.w", Tensor(scale * xavier_uniform(rng, d_in, d_out)))
    store.add(f"{name}.b", Tensor(np.zeros(d_out)))


def init_layer_norm(store: ParamStore, name: str, dim: int):
    store.add(f"{name}.g", Tensor(np.ones(dim)))
    store.add(f"{name}.b", Tensor(np.zeros(dim)))


def init_embedding(store: ParamStore, rng: np.random.Generator, name: str, vocab: int, dim: int):
    store.add(name, Tensor(0.02 * rng.standard_normal((vocab, dim))))


def init_attention(store: ParamStore, rng: np.random.Generator, name: str, dim: int):
    # K has no bias: it would add the same score to every key of a query,
    # which the softmax cancels
    init_linear(store, rng, f"{name}.q", dim, dim)
    store.add(f"{name}.k.w", Tensor(xavier_uniform(rng, dim, dim)))
    init_linear(store, rng, f"{name}.v", dim, dim)
    init_linear(store, rng, f"{name}.o", dim, dim)


def init_block(
    store: ParamStore,
    rng: np.random.Generator,
    name: str,
    cfg: EncoderConfig,
    cross_attention: bool = False,
):
    init_layer_norm(store, f"{name}.ln1", cfg.model_dim)
    init_attention(store, rng, f"{name}.attn", cfg.model_dim)
    if cross_attention:
        # Cross-attention to one memory slot: its softmax is 1, so only the V
        # and output projections act. Q and K are still drawn, and dropped,
        # so every later parameter keeps its initial bytes.
        for _ in ("q", "k"):
            xavier_uniform(rng, cfg.model_dim, cfg.model_dim)
        for proj in ("v", "o"):
            init_linear(store, rng, f"{name}.xattn.{proj}", cfg.model_dim, cfg.model_dim)
    init_layer_norm(store, f"{name}.ln2", cfg.model_dim)
    init_linear(store, rng, f"{name}.ff1", cfg.model_dim, cfg.ff_dim)
    init_linear(store, rng, f"{name}.ff2", cfg.ff_dim, cfg.model_dim)


# -- forward pieces ----------------------------------------------------------

def apply_linear(store: ParamStore, name: str, x: Tensor) -> Tensor:
    return linear(x, store[f"{name}.w"], store[f"{name}.b"])


def apply_layer_norm(store: ParamStore, name: str, x: Tensor) -> Tensor:
    return layer_norm(x, store[f"{name}.g"], store[f"{name}.b"])


def sinusoidal_positions(n: int, dim: int, start: int = 0) -> np.ndarray:
    """The (n - start, dim) encodings of positions start .. n-1; each row
    holds the same bytes whatever ``start`` is."""
    pos = np.arange(start, n)[:, None].astype(np.float64)
    half = (dim + 1) // 2
    i = np.arange(half)[None, :].astype(np.float64)
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    out = np.zeros((n - start, dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles[:, : dim // 2])
    return out


def causal_mask(n: int, past: int = 0) -> np.ndarray:
    """(1, 1, n, past + n) additive mask hiding future positions from n new
    queries that follow ``past`` earlier keys, which every query sees."""
    m = np.where(np.triu(np.ones((n, past + n), dtype=bool), k=past + 1), NEG_INF, 0.0)
    return m[None, None, :, :]


def apply_attention(
    store: ParamStore,
    name: str,
    q_in: Tensor,
    kv_in: Tensor,
    heads: int,
    pack: Packing,
    kv_pack: Packing | None = None,
    mask: np.ndarray | None = None,
) -> Tensor:
    params = [store[f"{name}.{p}"] for p in ("q.w", "q.b", "k.w", "v.w", "v.b", "o.w", "o.b")]
    return attention(q_in, kv_in, params, heads, pack, kv_pack, mask)


def apply_ffn(store: ParamStore, name: str, x: Tensor) -> Tensor:
    params = [store[f"{name}.{layer}.{part}"] for layer in ("ff1", "ff2") for part in "wb"]
    return ffn(x, *params)


def apply_block(
    store: ParamStore,
    name: str,
    x: Tensor,
    cfg: EncoderConfig,
    pack: Packing,
    self_mask: np.ndarray | None = None,
    memory: Tensor | None = None,
    train: bool = False,
    rng: np.random.Generator | None = None,
    cache: DecodeCache | None = None,
    layer: int = 0,
) -> Tensor:
    """One pre-norm block over the packed rows ``pack`` lays out. Attention
    to the one (B, 1, d) ``memory`` slot of each sequence is o(v(slot)) at
    every query: that row is added to the sequence's rows. With a
    ``cache``, the rows are the next positions of one sequence,
    self-attention reads the cached ``ln1`` rows of block ``layer`` before
    them as keys and values, and o(v(slot)) is computed once and kept."""

    def drop(t: Tensor) -> Tensor:
        if train and cfg.dropout_rate > 0.0:
            return dropout(t, cfg.dropout_rate, rng, pack)
        return t

    h = apply_layer_norm(store, f"{name}.ln1", x)
    kv, kv_pack = h, None
    if cache is not None:
        kv, kv_pack = cache.extend(layer, h)
    x = x + drop(
        apply_attention(store, f"{name}.attn", h, kv, cfg.heads, pack, kv_pack, self_mask)
    )
    if memory is not None:
        folded = None if cache is None else cache.folded[layer]
        if folded is None:
            v = apply_linear(store, f"{name}.xattn.v", memory).reshape(pack.batch, cfg.model_dim)
            folded = apply_linear(store, f"{name}.xattn.o", v)
            if cache is not None:
                cache.folded[layer] = folded
        x = x + drop(take_rows(folded, pack.segments))
    h = apply_layer_norm(store, f"{name}.ln2", x)
    x = x + drop(apply_ffn(store, name, h))
    return x


# -- the encoder: input layer, positions, blocks, pooling ----------------------

def _check_sequence(n: int, cfg: EncoderConfig, train_mode: bool, rng) -> None:
    if n < 1:
        raise ValidationError("empty sequence", field="x")
    if n > cfg.max_positions:
        raise ValidationError(
            f"sequence length {n} exceeds max_positions {cfg.max_positions}",
            field="max_positions",
        )
    if train_mode and cfg.dropout_rate > 0.0 and rng is None:
        raise ValidationError("train_mode with dropout requires an rng", field="rng")


def _run_blocks(
    store: ParamStore,
    prefix: str,
    h: Tensor,
    cfg: EncoderConfig,
    pack: Packing,
    mask: np.ndarray | None,
    memory: Tensor | None,
    train_mode: bool,
    rng: np.random.Generator | None,
    cache: DecodeCache | None = None,
) -> Tensor:
    """Input dropout, the pre-norm blocks and the final layer norm."""
    if train_mode and cfg.dropout_rate > 0.0:
        h = dropout(h, cfg.dropout_rate, rng, pack)
    for layer in range(cfg.layers):
        h = apply_block(
            store, f"{prefix}.block{layer}", h, cfg, pack,
            self_mask=mask, memory=memory, train=train_mode, rng=rng, cache=cache, layer=layer,
        )
    return apply_layer_norm(store, f"{prefix}.ln_f", h)


def init_encoder(
    store: ParamStore,
    rng: np.random.Generator,
    cfg: EncoderConfig,
    d_in: int | None = None,
    vocab: int | None = None,
    pooling: str = "mean",
):
    """Encoder parameters in saved order: the input layer (``enc.in`` over
    ``d_in``-dim frames, or the ``tok`` table over ``vocab`` ids), the
    blocks, ``enc.ln_f``, then what ``pooling`` needs: ``pool.W`` for
    self-attention, and ``pool.cls`` for cls pooling, which reads frames
    only."""
    cfg.validate()
    if pooling == "cls" and vocab is not None:
        raise ValidationError("cls pooling needs frames, not token ids", field="pooling")
    if vocab is None:
        init_linear(store, rng, "enc.in", d_in, cfg.model_dim)
    else:
        init_embedding(store, rng, "tok", vocab, cfg.model_dim)
    for layer in range(cfg.layers):
        init_block(store, rng, f"enc.block{layer}", cfg)
    init_layer_norm(store, "enc.ln_f", cfg.model_dim)
    if pooling == "self_attention":
        # zero pooling weight starts at plain mean pooling
        store.add("pool.W", Tensor(np.zeros(cfg.model_dim)))
    elif pooling == "cls":
        # a learnable pseudo-frame, prepended so its contextual state can
        # summarize the sequence
        store.add("pool.cls", Tensor(0.02 * rng.standard_normal(d_in)))


def _positions(pack: Packing, dim: int, start: int = 0) -> Tensor:
    """The sinusoidal encoding of each packed row's position, counted from
    ``start``."""
    return Tensor(sinusoidal_positions(start + pack.length, dim, start)[pack.positions])


# Encoder threads: the caller's own and, with two usable CPUs, one worker,
# which the executor starts on the first split
WORKERS = min(2, len(os.sched_getaffinity(0)))
_worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="encode")


def _encode_rows(
    x, store: ParamStore, cfg: EncoderConfig, pack: Packing, train_mode: bool, rng
) -> Tensor:
    """The encoder body over the packed rows ``pack`` lays out: the input
    layer, positions, blocks and final norm."""
    h = apply_linear(store, "enc.in", x) if isinstance(x, Tensor) else take_rows(store["tok"], x)
    h = h + _positions(pack, cfg.model_dim)
    return _run_blocks(store, "enc", h, cfg, pack, None, None, train_mode, rng)


def _encode_rows_untaped(x, store: ParamStore, cfg: EncoderConfig, pack: Packing) -> Tensor:
    """``_encode_rows`` in eval mode under this thread's own ``no_grad``."""
    with no_grad():
        return _encode_rows(x, store, cfg, pack, False, None)


def _group(valid: np.ndarray) -> Packing:
    """The layout of some sequences of a batch, without the trailing
    positions that none of them holds."""
    return Packing(valid[:, : np.flatnonzero(valid.any(axis=0))[-1] + 1])


def _encode_halves(x, store: ParamStore, cfg: EncoderConfig, pack: Packing) -> Tensor | None:
    """An untaped forward of two contiguous groups of sequences at once,
    cut where the rows balance: the worker runs the second, this thread the
    first. Each row keeps the bytes it has in the whole batch, since the
    forward is batch-invariant. None when there is one usable CPU, or no
    cut leaves rows on both sides."""
    if WORKERS < 2 or pack.batch < 2:
        return None
    cut = int(np.argmin(np.abs(pack.starts[1:] - pack.rows / 2))) + 1
    r = int(pack.starts[cut])
    if not 0 < r < pack.rows:
        return None
    if isinstance(x, Tensor):
        head, tail = Tensor(x.data[:r]), Tensor(x.data[r:])
    else:
        head, tail = x[:r], x[r:]
    later = _worker.submit(_encode_rows_untaped, tail, store, cfg, _group(pack.valid[cut:]))
    try:
        first = _encode_rows(head, store, cfg, _group(pack.valid[:cut]), False, None)
    finally:
        wait([later])  # the worker is done before this call returns or raises
    return concat([first, later.result()])


def transformer_encode(
    x,
    store: ParamStore,
    cfg: EncoderConfig,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    pack: Packing | None = None,
) -> Tensor:
    """Contextual states of packed frames or token ids.

    ``x`` is an (N, d_in) frame Tensor, read through ``enc.in``, or an (N,)
    integer id array, read through the ``tok`` table. Its rows are the valid
    positions ``pack`` lays out, or one sequence when ``pack`` is None. The
    states come back as the same (N, d) packed rows; attention sees only the
    keys of each row's own sequence.

    A call that records no tape (under ``no_grad``, not ``train_mode``)
    runs two halves of a batch at once, on this thread and one worker.
    """
    if not isinstance(x, Tensor):
        x = np.asarray(x, dtype=np.int64)
    if pack is None:
        pack = Packing.from_lengths([x.shape[0]])
    _check_sequence(pack.length, cfg, train_mode, rng)
    if not (train_mode or grad_enabled()):
        h = _encode_halves(x, store, cfg, pack)
        if h is not None:
            return h
    return _encode_rows(x, store, cfg, pack, train_mode, rng)


def attention_pool(h: Tensor, w: Tensor, pack: Packing | None = None) -> Tensor:
    """z = Softmax(w.H^T).H over each sequence's packed rows of ``h``:
    (T, d) -> (d,) when ``pack`` is None, else (N, d) -> (B, d). Like
    attention, it pads inside: the softmax and the weighted sum run over
    (B, T), which keeps their summation order."""
    if h.shape[0] < 1:
        raise ValidationError("cannot pool an empty sequence", field="h")
    d = h.shape[-1]
    if w.shape != (d,):
        raise ValidationError(f"pool weight shape {w.shape} does not match dim {d}", field="w")
    layout = Packing.from_lengths([h.shape[0]]) if pack is None else pack
    b, t = layout.batch, layout.length
    padded = pad_rows(h, layout)
    scores = (padded @ w.reshape(d, 1)).reshape(b, t)
    if layout.index is not None:
        scores = scores + Tensor(np.where(layout.valid, 0.0, NEG_INF))
    weights = softmax(scores, axis=-1)
    z = (padded * weights.reshape(b, t, 1)).sum(axis=1)
    return z.reshape(d) if pack is None else z


def pool_states(
    h: Tensor, store: ParamStore, pooling: str, pack: Packing, mask: np.ndarray | None = None
) -> Tensor:
    """One vector per sequence of packed (N, d) states.

    ``cls`` takes each sequence's first row, ``mean`` averages the rows where
    the packed (N,) ``mask`` is True (every row when None), and
    ``self_attention`` attends over the rows with ``pool.W``. The mean, like
    attention pooling, sums over the padded (B, T) layout.
    """
    if np.any(pack.counts == 0):
        raise ValidationError("cannot pool an empty sequence", field="h")
    if pooling == "cls":
        return h[pack.starts]
    if pooling == "self_attention":
        return attention_pool(h, store["pool.W"], pack)
    padded = pack.pad(np.ones(pack.rows, dtype=bool) if mask is None else mask)
    counts = padded.sum(axis=1)
    if np.any(counts == 0):
        raise ValidationError("sequence has no content to mean-pool", field="tokens")
    weights = padded / counts[:, None]
    return (pad_rows(h, pack) * Tensor(weights[:, :, None])).sum(axis=1)


# -- autoregressive decoder over tokens ---------------------------------------

def init_token_decoder(store: ParamStore, rng: np.random.Generator, cfg: EncoderConfig, vocab: int):
    cfg.validate()
    init_embedding(store, rng, "dec.tok", vocab, cfg.model_dim)
    for layer in range(cfg.layers):
        init_block(store, rng, f"dec.block{layer}", cfg, cross_attention=True)
    init_layer_norm(store, "dec.ln_f", cfg.model_dim)
    # small output head keeps initial logits near uniform (loss starts at ~ln V)
    init_linear(store, rng, "dec.out", cfg.model_dim, vocab, scale=0.1)


class DecodeCache:
    """What decoding one sequence position by position keeps between calls:
    for each decoder block, the ``ln1`` rows of the positions already run,
    which its self-attention re-projects to keys and values, and the folded
    cross-attention row o(v(z)) of the sequence's one ``z``, made by the
    first call."""

    def __init__(self, layers: int):
        self.rows: list[Tensor | None] = [None] * layers
        self.folded: list[Tensor | None] = [None] * layers
        self._pack = Packing.from_lengths([0])

    def __len__(self) -> int:
        """Positions run so far."""
        last = self.rows[-1]
        return 0 if last is None else last.shape[0]

    def extend(self, layer: int, rows: Tensor) -> tuple[Tensor, Packing]:
        """Append block ``layer``'s new ``ln1`` rows; returns all of them
        and their layout, which every block shares."""
        past = self.rows[layer]
        self.rows[layer] = rows if past is None else concat([past, rows])
        n = self.rows[layer].shape[0]
        if self._pack.length != n:
            self._pack = Packing.from_lengths([n])
        return self.rows[layer], self._pack


def decode_tokens(
    tokens: np.ndarray,
    z: Tensor,
    store: ParamStore,
    cfg: EncoderConfig,
    vocab: int,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    pack: Packing | None = None,
    cache: DecodeCache | None = None,
) -> Tensor:
    """Teacher-forced forward: next-token logits at every prefix position.

    ``tokens`` holds packed (N,) ids laid out by ``pack`` with one (d,) row
    of the (B, d) ``z`` per sequence; or, when ``pack`` is None, one (S,)
    sequence with a (d,) ``z``. The logits come back as packed (N, vocab)
    rows. Each sequence's row of ``z`` is the one slot its cross-attention
    reads.

    With a ``cache`` (one sequence, ``pack`` None), ``tokens`` are the next
    positions after the ``len(cache)`` already run: only they go through
    the blocks, their self-attention also sees the cached positions, and
    the cache is extended by them.
    """
    tokens = np.asarray(tokens)
    start = 0 if cache is None else len(cache)
    if pack is None:
        pack = Packing.from_lengths([tokens.shape[0]])
        z = z.reshape(1, *z.shape)
    _check_sequence(start + pack.length, cfg, train_mode, rng)
    h = take_rows(store["dec.tok"], tokens) + _positions(pack, cfg.model_dim, start)
    memory = z.reshape(pack.batch, 1, z.shape[-1])
    mask = causal_mask(pack.length, start) if pack.length > 1 else None  # one sees all
    h = _run_blocks(store, "dec", h, cfg, pack, mask, memory, train_mode, rng, cache)
    return apply_linear(store, "dec.out", h)


def decoder_step(
    prev_tokens: np.ndarray,
    z: Tensor,
    store: ParamStore,
    cfg: EncoderConfig,
    vocab: int,
    cache: DecodeCache | None = None,
) -> Tensor:
    """Next-token logits after ``prev_tokens``; eval mode. Without a
    ``cache`` they are the whole prefix; with one, the positions after the
    cached ones."""
    logits = decode_tokens(np.asarray(prev_tokens), z, store, cfg, vocab, cache=cache)
    return logits[-1]
