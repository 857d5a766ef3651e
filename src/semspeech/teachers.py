"""Sequence-embedding teachers trained on discrete token sequences.

Three recipes share one encoder skeleton: masked-token pretraining, a
denoising autoencoder that reconstructs the uncorrupted sequence from a single
pooled vector, and a dropout-contrastive objective where a second stochastic
forward pass of the same sequence is the positive.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .corpus import ScoredPairSet
from .evaluation import pair_spearman
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .nn.layers import (
    EncoderConfig,
    apply_block,
    apply_layer_norm,
    apply_linear,
    decode_tokens,
    init_block,
    init_layer_norm,
    init_linear,
    init_embedding,
    init_token_decoder,
    padding_mask,
    sinusoidal_positions,
)
from .nn.losses import infonce_batch, masked_cross_entropy, nll_loss
from .nn.optim import ParamStore
from .nn.tensor import Tensor, dropout, no_grad, take_rows
from .random_utils import derive_rng
from .tokenizer import CLS, MASK, N_SPECIALS, PAD, SEP, TokenSequence
from .training import EarlyStopper  # noqa: F401  (the benchmark imports it from here)
from .training import fit, mean_loss, optimizer_step, split_dev
from .wavembed import CurvePoint, _pad_targets

logger = logging.getLogger(__name__)

# positions that carry content for pooling and masking purposes; UNK counts
# as content, the structural specials do not
_STRUCTURAL = (PAD, CLS, SEP, MASK)


def _content_mask(tokens: np.ndarray) -> np.ndarray:
    return ~np.isin(tokens, _STRUCTURAL)


def _as_token_array(seq) -> np.ndarray:
    arr = np.asarray(getattr(seq, "tokens", seq), dtype=np.int64)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ValidationError("expected a 1-D token sequence of length >= 2", field="tokens")
    return arr


def _pad_batch(seqs: Sequence[np.ndarray]) -> np.ndarray:
    s_max = max(len(s) for s in seqs)
    out = np.full((len(seqs), s_max), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out


class SequenceEncoder:
    """Token embedding + transformer + pooling into one vector per sequence."""

    def __init__(
        self,
        store: ParamStore,
        cfg: EncoderConfig,
        vocab: int,
        pooling: str = "mean",
    ):
        if pooling not in ("mean", "cls"):
            raise ValidationError(
                f"pooling must be 'mean' or 'cls', got {pooling!r}", field="pooling"
            )
        self.store = store
        self.cfg = cfg
        self.vocab = vocab
        self.pooling = pooling

    @classmethod
    def create(
        cls,
        vocab: int,
        cfg: EncoderConfig | None = None,
        pooling: str = "mean",
        seed: int = 0,
    ) -> "SequenceEncoder":
        if vocab <= N_SPECIALS:
            raise ValidationError(
                "vocabulary must extend beyond the special ids", field="vocab"
            )
        cfg = cfg or EncoderConfig()
        cfg.validate()
        rng = derive_rng(seed, "seq-encoder", "init")
        store = ParamStore()
        init_embedding(store, rng, "tok", vocab, cfg.model_dim)
        for layer in range(cfg.layers):
            init_block(store, rng, f"enc.block{layer}", cfg)
        init_layer_norm(store, "enc.ln_f", cfg.model_dim)
        return cls(store, cfg, vocab, pooling=pooling)

    def _check_tokens(self, tokens: np.ndarray) -> None:
        if tokens.shape[1] > self.cfg.max_positions:
            raise ValidationError(
                f"sequence length {tokens.shape[1]} exceeds max_positions "
                f"{self.cfg.max_positions}",
                field="max_positions",
            )
        if tokens.min() < 0 or tokens.max() >= self.vocab:
            raise ValidationError(
                f"token id outside vocabulary of size {self.vocab}", field="tokens"
            )

    def encode(
        self,
        tokens: np.ndarray,
        train_mode: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Contextual states (B, S, d) for a padded (B, S) id matrix."""
        tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
        self._check_tokens(tokens)
        if train_mode and self.cfg.dropout_rate > 0.0 and rng is None:
            raise ValidationError("train_mode with dropout requires an rng", field="rng")
        s = tokens.shape[1]
        h = take_rows(self.store["tok"], tokens) + Tensor(
            sinusoidal_positions(s, self.cfg.model_dim)
        )
        if train_mode and self.cfg.dropout_rate > 0.0:
            h = dropout(h, self.cfg.dropout_rate, rng)
        valid = tokens != PAD
        mask = padding_mask(valid) if not valid.all() else None
        for layer in range(self.cfg.layers):
            h = apply_block(
                self.store,
                f"enc.block{layer}",
                h,
                self.cfg,
                self_mask=mask,
                train=train_mode,
                rng=rng,
            )
        return apply_layer_norm(self.store, "enc.ln_f", h)

    def pool(self, states: Tensor, tokens: np.ndarray) -> Tensor:
        """One vector per row: CLS state or the mean over content positions."""
        tokens = np.atleast_2d(tokens)
        if self.pooling == "cls":
            return states[:, 0]
        content = _content_mask(tokens)
        counts = content.sum(axis=1)
        if np.any(counts == 0):
            raise ValidationError(
                "sequence has no content tokens to mean-pool", field="tokens"
            )
        weights = content.astype(np.float64) / counts[:, None]
        return (states * Tensor(weights[:, :, None])).sum(axis=1)

    def embed_train(
        self, tokens: np.ndarray, rng: np.random.Generator
    ) -> Tensor:
        tokens = np.atleast_2d(tokens)
        return self.pool(self.encode(tokens, train_mode=True, rng=rng), tokens)

    def embed(self, seq) -> np.ndarray:
        arr = _as_token_array(seq)
        with no_grad():
            z = self.pool(self.encode(arr[None, :]), arr[None, :])
        return z.data[0].copy()

    def embed_batch(self, seqs: Sequence) -> np.ndarray:
        arrs = [_as_token_array(s) for s in seqs]
        if not arrs:
            return np.zeros((0, self.cfg.model_dim))
        tokens = _pad_batch(arrs)
        with no_grad():
            z = self.pool(self.encode(tokens), tokens)
        return z.data.copy()

    def config_dict(self) -> dict:
        return {
            "encoder": self.cfg.to_dict(),
            "vocab": self.vocab,
            "pooling": self.pooling,
        }

    def save(self, path: str | Path) -> None:
        save_checkpoint(path, kind="seq-encoder", config=self.config_dict(), store=self.store)

    @classmethod
    def load(cls, path: str | Path) -> "SequenceEncoder":
        """Rebuild from a checkpoint; auxiliary heads (mlm/decoder) in the
        file are dropped, only the embedding-relevant parameters survive."""
        kind, config, params = load_checkpoint(path)
        if kind != "seq-encoder":
            raise ValidationError(
                f"checkpoint kind {kind!r} is not 'seq-encoder'", field="kind"
            )
        enc = cls.create(
            vocab=int(config["vocab"]),
            cfg=EncoderConfig.from_dict(config["encoder"]),
            pooling=config["pooling"],
        )
        enc.store.load_state_dict(params)
        return enc


# ---------------------------------------------------------------------------
# masked-token pretraining
# ---------------------------------------------------------------------------

def _mask_batch(
    tokens: np.ndarray,
    mask_rate: float,
    vocab: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt a padded batch in place-copy; returns (corrupted, mask_bool)."""
    corrupted = tokens.copy()
    chosen = np.zeros_like(tokens, dtype=bool)
    for row in range(tokens.shape[0]):
        eligible = np.flatnonzero(_content_mask(tokens[row]))
        if len(eligible) == 0:
            continue
        n_mask = max(1, int(round(mask_rate * len(eligible))))
        picks = rng.choice(eligible, size=min(n_mask, len(eligible)), replace=False)
        for p in picks:
            chosen[row, p] = True
            u = rng.random()
            if u < 0.8:
                corrupted[row, p] = MASK
            elif u < 0.9:
                corrupted[row, p] = rng.integers(N_SPECIALS, vocab)
            # else: keep the original token, loss still applies
    return corrupted, chosen


def mlm_forward(encoder: SequenceEncoder, tokens: np.ndarray, train_mode: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
    """Per-position vocabulary logits; creates the prediction head on first use."""
    if "mlm.out.w" not in encoder.store:
        head_rng = derive_rng(0, "mlm", "head", encoder.vocab)
        init_linear(
            encoder.store, head_rng, "mlm.out", encoder.cfg.model_dim, encoder.vocab,
            scale=0.1,
        )
    h = encoder.encode(tokens, train_mode=train_mode, rng=rng)
    return apply_linear(encoder.store, "mlm.out", h)


def mlm_pretrain(
    encoder: SequenceEncoder,
    corpus: Sequence,
    mask_rate: float = 0.15,
    steps: int = 500,
    seed: int = 0,
    lr: float = 5e-4,
    batch_size: int = 16,
) -> list[float]:
    """Train the encoder to recover masked content tokens. Returns loss history."""
    if not 0.0 < mask_rate <= 1.0:
        raise ValidationError(
            "mask_rate must be in (0, 1]; rate 0 would mask nothing", field="mask_rate"
        )
    if steps < 1:
        raise ValidationError("steps must be >= 1", field="steps")
    arrs = []
    for seq in corpus:
        arr = _as_token_array(seq)
        if not _content_mask(arr).any():
            source = getattr(seq, "source_id", "") or "<unnamed>"
            logger.warning("skipping %s: sequence holds only special tokens", source)
            continue
        arrs.append(arr)
    if not arrs:
        raise ValidationError("no usable sequences in the corpus", field="corpus")

    rng = derive_rng(seed, "mlm", "train")

    def step(chunk) -> float:
        batch = _pad_batch(chunk)
        corrupted, mask = _mask_batch(batch, mask_rate, encoder.vocab, rng)
        logits = mlm_forward(encoder, corrupted, train_mode=True, rng=rng)
        loss = masked_cross_entropy(logits, batch, mask)
        return optimizer_step(encoder.store, loss, lr, 0.01)

    _, history, _ = fit(encoder.store, arrs, batch_size, rng, step, max_steps=steps)
    return history


# ---------------------------------------------------------------------------
# token deletion
# ---------------------------------------------------------------------------

def delete_tokens(seq: TokenSequence, ratio: float, rng_or_seed=0) -> TokenSequence:
    """Drop interior tokens independently; the CLS/SEP frame always survives.

    If every interior token would vanish, one uniformly chosen survivor stays.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValidationError("deletion ratio must be in [0, 1]", field="ratio")
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, np.random.Generator)
        else derive_rng(int(rng_or_seed), "delete")
    )
    toks = list(seq.tokens)
    interior = toks[1:-1]
    if not interior:
        return TokenSequence(toks, source_id=seq.source_id)
    keep = rng.random(len(interior)) >= ratio
    if not keep.any():
        keep[rng.integers(0, len(interior))] = True
    kept = [t for t, k in zip(interior, keep) if k]
    return TokenSequence([toks[0]] + kept + [toks[-1]], source_id=seq.source_id)


# ---------------------------------------------------------------------------
# teacher training
# ---------------------------------------------------------------------------

@dataclass
class TeacherConfig:
    kind: str
    deletion_ratio: float = 0.0
    dropout_rate: float = 0.1
    tau: float = 0.05
    batch_size: int = 32
    lr: float = 5e-4
    epochs: int = 10
    seed: int = 0
    dev_fraction: float = 0.1
    patience: int = 80
    eval_every_steps: int = 10

    def validate(self) -> None:
        if self.kind not in ("tsdae", "simcse"):
            raise ValidationError(
                f"kind must be 'tsdae' or 'simcse', got {self.kind!r}", field="kind"
            )
        if not 0.0 <= self.deletion_ratio <= 1.0:
            raise ValidationError("deletion_ratio must be in [0, 1]", field="deletion_ratio")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError("dropout_rate must be in [0, 1)", field="dropout_rate")
        if self.tau <= 0:
            raise ValidationError("tau must be positive", field="tau")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1", field="batch_size")
        if self.lr <= 0:
            raise ValidationError("lr must be positive", field="lr")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1", field="epochs")
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ValidationError("dev_fraction must be in [0, 1)", field="dev_fraction")
        if self.patience < 1:
            raise ValidationError("patience must be >= 1", field="patience")
        if self.eval_every_steps < 1:
            raise ValidationError("eval_every_steps must be >= 1", field="eval_every_steps")


@dataclass
class Teacher:
    encoder: SequenceEncoder
    kind: str
    info: dict = field(default_factory=dict)

    def embed(self, seq) -> np.ndarray:
        return self.encoder.embed(seq)

    def embed_batch(self, seqs: Sequence) -> np.ndarray:
        return self.encoder.embed_batch(seqs)

    def save(self, path: str | Path) -> None:
        # only what embedding needs survives: the decoder and any pretraining
        # head are discarded
        slim = ParamStore()
        for name, p in self.encoder.store.items():
            if not name.startswith(("dec.", "mlm.")):
                slim.add(name, Tensor(p.data.copy()))
        config = self.encoder.config_dict()
        config["teacher_kind"] = self.kind
        save_checkpoint(path, kind="teacher", config=config, store=slim)

    @classmethod
    def load(cls, path: str | Path) -> "Teacher":
        kind, config, params = load_checkpoint(path)
        if kind != "teacher":
            raise ValidationError(f"checkpoint kind {kind!r} is not 'teacher'", field="kind")
        encoder = SequenceEncoder.create(
            vocab=int(config["vocab"]),
            cfg=EncoderConfig.from_dict(config["encoder"]),
            pooling=config["pooling"],
        )
        encoder.store.load_state_dict(params)
        return cls(encoder=encoder, kind=config["teacher_kind"])


def _tsdae_batch_loss(
    encoder: SequenceEncoder,
    decoder_cfg: EncoderConfig,
    corrupted: Sequence[np.ndarray],
    originals: Sequence[np.ndarray],
    train_mode: bool,
    rng: np.random.Generator | None,
) -> Tensor:
    tokens = _pad_batch(list(corrupted))
    z = encoder.pool(encoder.encode(tokens, train_mode=train_mode, rng=rng), tokens)
    inputs, targets = _pad_targets(list(originals))
    logits = decode_tokens(
        inputs,
        z,
        encoder.store,
        decoder_cfg,
        encoder.vocab,
        train_mode=train_mode,
        rng=rng,
    )
    return nll_loss(logits, targets, pad_id=PAD)


def train_tsdae(
    encoder: SequenceEncoder,
    corpus: Sequence[TokenSequence],
    cfg: TeacherConfig,
    decoder_cfg: EncoderConfig | None = None,
) -> tuple[Teacher, list[CurvePoint]]:
    """Denoising autoencoder: embed a corrupted sequence, decode the original."""
    cfg.validate()
    if cfg.kind != "tsdae":
        raise ValidationError("config kind must be 'tsdae'", field="kind")
    seqs = [TokenSequence(list(_as_token_array(s)), getattr(s, "source_id", "")) for s in corpus]
    if not seqs:
        raise ValidationError("corpus is empty", field="corpus")
    decoder_cfg = decoder_cfg or encoder.cfg
    if decoder_cfg.model_dim != encoder.cfg.model_dim:
        raise ValidationError("decoder must share the encoder model_dim", field="model_dim")
    if "dec.tok" not in encoder.store:
        dec_rng = derive_rng(cfg.seed, "tsdae", "decoder-init")
        init_token_decoder(
            encoder.store, dec_rng, decoder_cfg, encoder.vocab, prefix="dec",
            condition_mode="memory",
        )

    split_rng = derive_rng(cfg.seed, "tsdae", "split")
    train_seqs, dev_seqs = split_dev(seqs, cfg.dev_fraction, split_rng)
    rng = derive_rng(cfg.seed, "tsdae", "train")

    def corrupt(seqs, source: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
        """(corrupted, original) token arrays, drawing deletions from ``source``."""
        return [
            (np.asarray(delete_tokens(s, cfg.deletion_ratio, source).tokens), np.asarray(s.tokens))
            for s in seqs
        ]

    def batch_loss(examples, train_mode=False, rng=None) -> Tensor:
        corrupted, originals = zip(*examples)
        return _tsdae_batch_loss(encoder, decoder_cfg, corrupted, originals, train_mode, rng)

    def step(chunk) -> float:
        loss = batch_loss(corrupt(chunk, rng), True, rng)
        return optimizer_step(encoder.store, loss, cfg.lr, 0.01)

    # dev corruption drawn once so epoch-to-epoch dev losses are comparable
    dev_examples = corrupt(dev_seqs, derive_rng(cfg.seed, "tsdae", "dev-corrupt"))
    init_train = mean_loss(
        batch_loss, corrupt(train_seqs, derive_rng(cfg.seed, "tsdae", "init-eval")), cfg.batch_size
    )
    evals, _, best_dev = fit(
        encoder.store, train_seqs, cfg.batch_size, rng, step,
        evaluate=lambda: mean_loss(batch_loss, dev_examples, cfg.batch_size),
        epochs=cfg.epochs,
    )
    curve = [CurvePoint(s, init_train if t is None else t, d) for s, t, d in evals]
    return Teacher(encoder=encoder, kind="tsdae", info={"best_dev_loss": best_dev}), curve


def train_simcse(
    encoder: SequenceEncoder,
    corpus: Sequence[TokenSequence],
    cfg: TeacherConfig,
    dev_pairs: ScoredPairSet,
) -> tuple[Teacher, list[tuple[int, float]]]:
    """Dropout-contrastive training; the same sequence under a second dropout
    draw is the positive, the rest of the batch the negatives."""
    cfg.validate()
    if cfg.kind != "simcse":
        raise ValidationError("config kind must be 'simcse'", field="kind")
    if cfg.dropout_rate <= 0.0:
        raise ValidationError(
            "dropout_rate must be positive: with no dropout both passes collapse "
            "to the same embedding",
            field="dropout_rate",
        )
    if cfg.batch_size < 2:
        raise ValidationError(
            "batch_size must be >= 2 to provide in-batch negatives", field="batch_size"
        )
    seqs = [TokenSequence(list(_as_token_array(s)), getattr(s, "source_id", "")) for s in corpus]
    if not seqs:
        raise ValidationError("corpus is empty", field="corpus")
    by_id = {s.source_id: np.asarray(s.tokens) for s in seqs if s.source_id}
    for id_a, id_b, _ in dev_pairs.pairs:
        for utt_id in (id_a, id_b):
            if utt_id not in by_id:
                raise ValidationError(
                    f"dev pair references id {utt_id!r} with no sequence in the corpus",
                    field=utt_id,
                )

    rng = derive_rng(cfg.seed, "simcse", "train")

    def step(chunk) -> float | None:
        if len(chunk) < 2:
            return None  # a lone trailing sequence has no in-batch negatives
        tokens = _pad_batch([np.asarray(s.tokens) for s in chunk])
        z1 = encoder.embed_train(tokens, rng)
        z2 = encoder.embed_train(tokens, rng)
        loss = infonce_batch(z1, z2, tau=cfg.tau)
        return optimizer_step(encoder.store, loss, cfg.lr, 0.01)

    # train under the recipe's dropout without touching the caller's config
    own_cfg = encoder.cfg
    encoder.cfg = replace(own_cfg, dropout_rate=cfg.dropout_rate)
    try:
        evals, _, best_metric = fit(
            encoder.store, seqs, cfg.batch_size, rng, step,
            evaluate=lambda: pair_spearman(encoder.embed_batch, dev_pairs, by_id.__getitem__),
            epochs=cfg.epochs, maximize=True, eval_every=cfg.eval_every_steps,
            patience=cfg.patience,
        )
    finally:
        encoder.cfg = own_cfg
    teacher = Teacher(encoder=encoder, kind="simcse", info={"best_dev_spearman": best_metric})
    return teacher, [(s, v) for s, _, v in evals]
