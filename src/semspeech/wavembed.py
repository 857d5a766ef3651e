"""Sequence autoencoder: encode frames, pool to one vector, reconstruct tokens.

The model earns its embedding by having to regenerate the utterance's discrete
target sequence from a single pooled vector. Embedding extraction only ever
reads encoder and pooling parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, FeatureSequence
from .errors import ValidationError
from .fileformat import write_csv
from .nn import checkpoint
from .nn.layers import (
    DecodeCache,
    EncoderConfig,
    decode_tokens,
    decoder_step,
    init_encoder,
    init_token_decoder,
    pool_states,
    transformer_encode,
)
from .nn.optim import ParamStore
from .nn.tensor import Packing, Tensor, concat, nll, no_grad, take_rows
from .random_utils import derive_rng
from .tokenizer import CLS, PAD, SEP, token_array
from .training import _chunks, fit, mean_loss, split_dev

EMBED_CHUNK = 32  # sequences per forward pass in embed_batch


@dataclass
class TrainRunConfig:
    epochs: int = 10
    lr: float = 5e-4
    batch_size: int = 16
    seed: int = 0
    dev_fraction: float = 0.1

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1", field="epochs")
        if not 0.0 < self.lr < np.inf:
            raise ValidationError("lr must be positive and finite", field="lr")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1", field="batch_size")
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ValidationError("dev_fraction must be in [0, 1)", field="dev_fraction")


@dataclass
class CurvePoint:
    step: int
    train_loss: float
    dev_loss: float


def _as_frames(x) -> np.ndarray:
    if isinstance(x, FeatureSequence):
        return np.asarray(x.data, dtype=np.float64)
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError("features must be a 2-D (T, d) matrix", field="features")
    return arr


def encode_frames(
    store: ParamStore,
    cfg: EncoderConfig,
    pooling: str,
    frame_list: Sequence,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Pack frame sequences into one batch of rows, encode it and pool each
    sequence to one (B, d) vector; cls pooling first puts ``pool.cls`` in
    front of each sequence."""
    frames = [_as_frames(f) for f in frame_list]
    d_in = store["enc.in.w"].shape[0]
    for f in frames:
        if f.shape[1] != d_in:
            raise ValidationError(
                f"features have {f.shape[1]} dimensions, the model takes {d_in}", field="features"
            )
    # cls pooling makes each sequence one row longer: the pseudo-frame heads it
    pack = Packing.from_lengths([len(f) + (pooling == "cls") for f in frames])
    x = Tensor(np.concatenate(frames))
    if pooling == "cls":
        # row 0 of the table is the pseudo-frame
        rows = np.arange(pack.rows) - pack.segments
        rows[pack.starts] = 0
        x = take_rows(concat([store["pool.cls"].reshape(1, d_in), x], axis=0), rows)
    h = transformer_encode(x, store, cfg, train_mode=train_mode, rng=rng, pack=pack)
    return pool_states(h, store, pooling, pack)


def decode_loss(
    z: Tensor,
    token_list: Sequence[np.ndarray],
    store: ParamStore,
    cfg: EncoderConfig,
    vocab: int,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Mean NLL of decoding each token sequence from its row of ``z``. A
    sequence holding PAD is refused."""
    inputs, pack = Packing.of([t[:-1] for t in token_list])
    targets = np.concatenate([t[1:] for t in token_list])
    if (inputs == PAD).any() or (targets == PAD).any():
        raise ValidationError("a target sequence holds PAD", field="tokens")
    logits = decode_tokens(inputs, z, store, cfg, vocab, train_mode, rng, pack)
    return nll(logits, targets, np.ones(len(targets), dtype=bool))


class WavEmbedModel:
    """Feature encoder + attention pooling + token decoder in one store. The
    decoder has the encoder's shape and reads the pooled vector as the one
    slot of its cross-attention."""

    KIND = "wavembed"

    def __init__(self, store: ParamStore, encoder_cfg: EncoderConfig, d_in: int, vocab: int):
        self.store = store
        self.encoder_cfg = encoder_cfg
        self.d_in = d_in
        self.vocab = vocab

    @classmethod
    def create(
        cls,
        d_in: int,
        vocab: int,
        encoder_cfg: EncoderConfig | None = None,
        seed: int = 0,
    ) -> "WavEmbedModel":
        if vocab < 6:
            raise ValidationError(
                "vocabulary must cover the 5 special ids plus content", field="vocab"
            )
        encoder_cfg = encoder_cfg or EncoderConfig()
        rng = derive_rng(seed, "wavembed", "init")
        store = ParamStore()
        init_encoder(store, rng, encoder_cfg, d_in=d_in, pooling="self_attention")
        init_token_decoder(store, rng, encoder_cfg, vocab)
        return cls(store, encoder_cfg, d_in, vocab)

    # -- embedding ----------------------------------------------------------

    def _encode(
        self,
        frame_list: Sequence,
        train_mode: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        return encode_frames(
            self.store, self.encoder_cfg, "self_attention", frame_list, train_mode, rng
        )

    def embed(self, features) -> np.ndarray:
        return self.embed_batch([features])[0]

    def embed_batch(self, features: Iterable) -> np.ndarray:
        return _embed_frames(
            lambda frames: self._encode(frames).data, features, self.encoder_cfg.model_dim
        )

    # -- reconstruction -----------------------------------------------------

    def batch_loss(
        self,
        frame_list: Sequence[np.ndarray],
        token_list: Sequence[np.ndarray],
        train_mode: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        if len(frame_list) != len(token_list) or not frame_list:
            raise ValidationError(
                "need equal, non-zero numbers of feature and target sequences",
                field="batch",
            )
        tokens = [token_array(t) for t in token_list]
        z = self._encode(frame_list, train_mode, rng)
        return decode_loss(z, tokens, self.store, self.encoder_cfg, self.vocab, train_mode, rng)

    def greedy_decode(self, features, max_len: int = 64) -> np.ndarray:
        """Ids from CLS up to SEP or ``max_len``. Each step runs the one new
        position through the decoder, its self-attention reading the cached
        earlier positions."""
        if max_len < 2:
            raise ValidationError("max_len must be >= 2", field="max_len")
        # the last id is never fed back, so max_len - 1 positions are run
        cfg = self.encoder_cfg
        if max_len - 1 > cfg.max_positions:
            raise ValidationError(
                f"max_len {max_len} needs {max_len - 1} decoder positions, "
                f"more than max_positions {cfg.max_positions}",
                field="max_len",
            )
        z = Tensor(self.embed(features))
        with no_grad():
            out = [CLS]
            cache = DecodeCache(cfg.layers)
            while len(out) < max_len:
                logits = decoder_step(
                    np.asarray(out[-1:]), z, self.store, cfg, self.vocab, cache=cache
                )
                nxt = int(np.argmax(logits.data))
                out.append(nxt)
                if nxt == SEP:
                    break
        return np.asarray(out, dtype=np.int64)

    # -- persistence --------------------------------------------------------

    def config_dict(self) -> dict:
        return {
            "encoder": self.encoder_cfg.to_dict(),
            "d_in": self.d_in,
            "vocab": self.vocab,
        }

    @classmethod
    def from_config(cls, config: dict) -> "WavEmbedModel":
        """Rebuild from a header. Older headers also name the decoder's shape
        and how it reads the pooled vector; they load only if those are what
        the decoder now always is: the encoder's shape, one memory slot."""
        legacy = {"decoder": config["encoder"], "condition_mode": "memory"}
        found = {key: config[key] for key in legacy if key in config}
        if any(found[key] != legacy[key] for key in found):
            raise ValidationError(
                f"header names a decoder other than the encoder's shape reading one "
                f"memory slot: {found}",
                field="decoder",
            )
        return cls.create(
            d_in=int(config["d_in"]),
            vocab=int(config["vocab"]),
            encoder_cfg=EncoderConfig.from_dict(config["encoder"]),
        )

    def save(self, path: str | Path) -> None:
        checkpoint.save_checkpoint(path, self.KIND, self.config_dict(), self.store)

    @classmethod
    def load(cls, path: str | Path) -> "WavEmbedModel":
        return checkpoint.load(path, cls)


def _embed_by_length(forward, items: Sequence, lengths: Sequence[int], dim: int) -> np.ndarray:
    """Embed items in length-sorted chunks, off the tape; rows keep input order.

    Padding every item to the longest one in the whole input wastes most of
    the forward pass, so items are sorted by ``lengths`` (stably) and run
    ``EMBED_CHUNK`` at a time through ``forward``, which maps a list of items
    to one (len, dim) array. The forward is batch-invariant, so a row has
    the bytes it has alone, whatever its chunk.
    """
    order = sorted(range(len(items)), key=lambda i: lengths[i])
    out = np.zeros((len(items), dim))
    with no_grad():
        for chunk in _chunks(order, EMBED_CHUNK):
            out[chunk] = forward([items[i] for i in chunk])
    return out


def _embed_frames(forward, features: Iterable, dim: int) -> np.ndarray:
    """``_embed_by_length`` over (T, d) feature matrices, which must share d;
    each is converted to float64 frames in its chunk's forward."""
    seqs = list(features)
    shapes = [np.shape(f.data if isinstance(f, FeatureSequence) else f) for f in seqs]
    if any(len(shape) != 2 for shape in shapes):
        raise ValidationError("features must be a 2-D (T, d) matrix", field="features")
    if len({shape[1] for shape in shapes}) > 1:
        raise ValidationError("inconsistent feature dimensions in batch", field="batch")
    return _embed_by_length(forward, seqs, [shape[0] for shape in shapes], dim)


def train_wavembed(
    model: WavEmbedModel,
    corpus: Corpus,
    targets: Mapping[str, Sequence[int]],
    cfg: TrainRunConfig,
) -> list[CurvePoint]:
    """Optimize reconstruction over the corpus; keep the best-dev-loss params.

    Returns the loss curve; the model is left holding the best parameters.
    """
    cfg.validate()
    ids = [u.id for u in corpus]
    if not ids:
        raise ValidationError("corpus is empty", field="corpus")
    token_map: dict[str, np.ndarray] = {}
    frame_map: dict[str, np.ndarray] = {}
    for u in corpus:
        if u.id not in targets:
            raise ValidationError(f"no target sequence for utterance {u.id!r}", field=u.id)
        t = token_array(targets[u.id])
        # the decoder reads every id but the last, one position each
        if len(t) - 1 > model.encoder_cfg.max_positions:
            raise ValidationError(
                f"target for {u.id!r} needs {len(t) - 1} decoder positions, "
                f"more than max_positions {model.encoder_cfg.max_positions}",
                field=u.id,
            )
        if t.min() < 0 or t.max() >= model.vocab:
            raise ValidationError(
                f"target for {u.id!r} contains ids outside vocab {model.vocab}",
                field=u.id,
            )
        token_map[u.id] = t
        frame_map[u.id] = _as_frames(u.features)

    split_rng = derive_rng(cfg.seed, "wavembed", "split")
    train_ids, dev_ids = split_dev(ids, cfg.dev_fraction, split_rng)
    train_rng = derive_rng(cfg.seed, "wavembed", "train")

    def batch_loss(chunk, train_mode=False, rng=None) -> Tensor:
        return model.batch_loss(
            [frame_map[i] for i in chunk], [token_map[i] for i in chunk], train_mode, rng
        )

    init_train = mean_loss(batch_loss, train_ids, cfg.batch_size)
    evals, _, _ = fit(
        model.store, train_ids, cfg.batch_size, train_rng,
        lambda chunk: batch_loss(chunk, True, train_rng), cfg.lr,
        evaluate=lambda: mean_loss(batch_loss, dev_ids, cfg.batch_size),
        epochs=cfg.epochs,
    )
    return [CurvePoint(s, init_train if t is None else t, d) for s, t, d in evals]


_CURVE_HEADER = ["step", "train_loss", "dev_loss"]


def save_loss_curve(path: str | Path, curve: Sequence[CurvePoint]) -> None:
    write_csv(path, _CURVE_HEADER, ((p.step, p.train_loss, p.dev_loss) for p in curve))
