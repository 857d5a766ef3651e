"""Sequence-embedding teachers trained on discrete token sequences.

Three recipes share one encoder skeleton: masked-token pretraining, a
denoising autoencoder that reconstructs the uncorrupted sequence from a single
pooled vector, and a dropout-contrastive objective where a second stochastic
forward pass of the same sequence is the positive.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .corpus import ScoredPairSet
from .evaluation import pair_spearman
from .nn import checkpoint
from .nn.layers import (
    EncoderConfig,
    apply_linear,
    init_encoder,
    init_linear,
    init_token_decoder,
    pool_states,
    transformer_encode,
)
from .nn.losses import infonce_batch
from .nn.optim import ParamStore
from .nn.tensor import Packing, Tensor, nll
from .random_utils import derive_rng
from .tokenizer import MASK, N_SPECIALS, PAD, SEP, TokenSequence, token_array
from .training import EarlyStopper  # noqa: F401  (the benchmark imports it from here)
from .training import fit, mean_loss, split_dev
from .wavembed import CurvePoint, _embed_by_length, decode_loss

logger = logging.getLogger(__name__)

# positions that carry content for pooling and masking purposes; UNK counts
# as content, the structural specials (PAD, CLS, SEP, MASK) do not
def _content_mask(tokens: np.ndarray) -> np.ndarray:
    return (tokens > SEP) & (tokens != MASK)


class SequenceEncoder:
    """Token embedding + transformer + mean pooling over content positions
    into one vector per sequence."""

    KIND = "seq-encoder"

    def __init__(self, store: ParamStore, cfg: EncoderConfig, vocab: int):
        self.store = store
        self.cfg = cfg
        self.vocab = vocab

    @classmethod
    def create(
        cls, vocab: int, cfg: EncoderConfig | None = None, seed: int = 0
    ) -> "SequenceEncoder":
        if vocab <= N_SPECIALS:
            raise ValidationError(
                "vocabulary must extend beyond the special ids", field="vocab"
            )
        cfg = cfg or EncoderConfig()
        rng = derive_rng(seed, "seq-encoder", "init")
        store = ParamStore()
        init_encoder(store, rng, cfg, vocab=vocab)
        return cls(store, cfg, vocab)

    def encode(
        self,
        ids: np.ndarray,
        pack: Packing,
        train_mode: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Contextual states of a batch of id sequences packed by
        ``Packing.of``, as packed (N, d) rows. A sequence holding PAD is
        refused."""
        if (ids == PAD).any():
            raise ValidationError("an id sequence holds PAD", field="tokens")
        return transformer_encode(ids, self.store, self.cfg, train_mode, rng, pack)

    def pool(self, states: Tensor, ids: np.ndarray, pack: Packing) -> Tensor:
        """One vector per sequence from its packed ``states``: the mean over
        content positions."""
        return pool_states(states, self.store, "mean", pack, _content_mask(ids))

    def _embed(
        self,
        ids: np.ndarray,
        pack: Packing,
        train_mode: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        return self.pool(self.encode(ids, pack, train_mode, rng), ids, pack)

    def embed_batch(self, seqs: Sequence) -> np.ndarray:
        arrs = [token_array(s) for s in seqs]
        return _embed_by_length(
            lambda chunk: self._embed(*Packing.of(chunk)).data,
            arrs, [len(a) for a in arrs], self.cfg.model_dim,
        )

    def config_dict(self) -> dict:
        return {"encoder": self.cfg.to_dict(), "vocab": self.vocab}

    @classmethod
    def from_config(cls, config: dict) -> "SequenceEncoder":
        """Rebuild from a header. Older headers also name the pooling; they
        load only if it is the mean pooling every token encoder now uses."""
        if config.get("pooling", "mean") != "mean":
            raise ValidationError(
                f"header names pooling {config['pooling']!r}; token encoders mean-pool",
                field="pooling",
            )
        return cls.create(
            vocab=int(config["vocab"]), cfg=EncoderConfig.from_dict(config["encoder"])
        )

    def save(self, path: str | Path, kind: str = KIND, **config) -> None:
        """Write the encoder alone: a TSDAE decoder (``dec.*``) or MLM head
        (``mlm.*``) in the store is left out. ``kind`` and the ``config``
        entries added to the header let ``Teacher`` save through here."""
        slim = ParamStore()
        for name, p in self.store.items():
            if not name.startswith(("dec.", "mlm.")):
                slim.add(name, p)
        checkpoint.save_checkpoint(path, kind, {**self.config_dict(), **config}, slim)

    @classmethod
    def load(cls, path: str | Path) -> "SequenceEncoder":
        """Rebuild from a checkpoint; parameters of an older file that the
        encoder lacks (an MLM head) are dropped."""
        return checkpoint.load(path, cls)


# ---------------------------------------------------------------------------
# masked-token pretraining
# ---------------------------------------------------------------------------

def _mask_batch(
    ids: np.ndarray,
    pack: Packing,
    mask_rate: float,
    vocab: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt a batch of id sequences packed by ``Packing.of``; returns the
    corrupted ids and the mask of the positions picked, both packed."""
    corrupted = ids.copy()
    chosen = np.zeros(len(ids), dtype=bool)
    content = _content_mask(ids)
    for start, n in zip(pack.starts.tolist(), pack.counts.tolist()):
        eligible = start + np.flatnonzero(content[start : start + n])
        if len(eligible) == 0:
            continue
        n_mask = max(1, int(round(mask_rate * len(eligible))))
        picks = rng.choice(eligible, size=min(n_mask, len(eligible)), replace=False)
        for p in picks:
            chosen[p] = True
            u = rng.random()
            if u < 0.8:
                corrupted[p] = MASK
            elif u < 0.9:
                corrupted[p] = rng.integers(N_SPECIALS, vocab)
            # else: keep the original token, loss still applies
    return corrupted, chosen


def mlm_forward(encoder: SequenceEncoder, ids: np.ndarray, pack: Packing,
                train_mode: bool = False, rng: np.random.Generator | None = None,
                seed: int = 0) -> Tensor:
    """Vocabulary logits at each position of a batch packed by
    ``Packing.of``, as packed rows; creates the prediction head on first
    use, drawn from the run ``seed``."""
    if "mlm.out.w" not in encoder.store:
        head_rng = derive_rng(seed, "mlm", "head", encoder.vocab)
        init_linear(
            encoder.store, head_rng, "mlm.out", encoder.cfg.model_dim, encoder.vocab,
            scale=0.1,
        )
    h = encoder.encode(ids, pack, train_mode=train_mode, rng=rng)
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
    if batch_size < 1:
        raise ValidationError("batch_size must be >= 1", field="batch_size")
    if not 0.0 < lr < np.inf:
        raise ValidationError("lr must be positive and finite", field="lr")
    arrs = []
    for seq in corpus:
        arr = token_array(seq)
        if not _content_mask(arr).any():
            source = getattr(seq, "source_id", "") or "<unnamed>"
            logger.warning("skipping %s: sequence holds only special tokens", source)
            continue
        arrs.append(arr)
    if not arrs:
        raise ValidationError("no usable sequences in the corpus", field="corpus")

    rng = derive_rng(seed, "mlm", "train")

    def loss(chunk) -> Tensor:
        ids, pack = Packing.of(chunk)
        corrupted, mask = _mask_batch(ids, pack, mask_rate, encoder.vocab, rng)
        logits = mlm_forward(encoder, corrupted, pack, train_mode=True, rng=rng, seed=seed)
        return nll(logits, ids, mask)

    _, history, _ = fit(encoder.store, arrs, batch_size, rng, loss, lr, 0.01, max_steps=steps)
    return history


# ---------------------------------------------------------------------------
# token deletion
# ---------------------------------------------------------------------------

def delete_tokens(seq: TokenSequence, ratio: float, rng: np.random.Generator) -> TokenSequence:
    """Drop interior tokens independently; the CLS/SEP frame always survives.

    If every interior token would vanish, one uniformly chosen survivor stays.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValidationError("deletion ratio must be in [0, 1]", field="ratio")
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
        if not 0.0 <= self.deletion_ratio <= 1.0:
            raise ValidationError("deletion_ratio must be in [0, 1]", field="deletion_ratio")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError("dropout_rate must be in [0, 1)", field="dropout_rate")
        if not 0.0 < self.tau < np.inf:
            raise ValidationError("tau must be positive and finite", field="tau")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1", field="batch_size")
        if not 0.0 < self.lr < np.inf:
            raise ValidationError("lr must be positive and finite", field="lr")
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

    KIND = "teacher"

    @property
    def store(self) -> ParamStore:
        return self.encoder.store

    def embed_batch(self, seqs: Sequence) -> np.ndarray:
        return self.encoder.embed_batch(seqs)

    def save(self, path: str | Path) -> None:
        self.encoder.save(path, self.KIND, teacher_kind=self.kind)

    @classmethod
    def from_config(cls, config: dict) -> "Teacher":
        return cls(encoder=SequenceEncoder.from_config(config), kind=config["teacher_kind"])

    @classmethod
    def load(cls, path: str | Path) -> "Teacher":
        return checkpoint.load(path, cls)


def train_tsdae(
    encoder: SequenceEncoder,
    corpus: Sequence[TokenSequence],
    cfg: TeacherConfig,
) -> tuple[Teacher, list[CurvePoint]]:
    """Denoising autoencoder: embed a corrupted sequence, decode the original."""
    cfg.validate()
    seqs = [TokenSequence(list(token_array(s)), getattr(s, "source_id", "")) for s in corpus]
    if not seqs:
        raise ValidationError("corpus is empty", field="corpus")
    if "dec.tok" not in encoder.store:
        dec_rng = derive_rng(cfg.seed, "tsdae", "decoder-init")
        init_token_decoder(encoder.store, dec_rng, encoder.cfg, encoder.vocab)

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
        z = encoder._embed(*Packing.of(corrupted), train_mode, rng)
        return decode_loss(z, originals, encoder.store, encoder.cfg, encoder.vocab, train_mode, rng)

    # dev corruption drawn once so epoch-to-epoch dev losses are comparable
    dev_examples = corrupt(dev_seqs, derive_rng(cfg.seed, "tsdae", "dev-corrupt"))
    init_train = mean_loss(
        batch_loss, corrupt(train_seqs, derive_rng(cfg.seed, "tsdae", "init-eval")), cfg.batch_size
    )
    evals, _, _ = fit(
        encoder.store, train_seqs, cfg.batch_size, rng,
        lambda chunk: batch_loss(corrupt(chunk, rng), True, rng), cfg.lr, 0.01,
        evaluate=lambda: mean_loss(batch_loss, dev_examples, cfg.batch_size),
        epochs=cfg.epochs,
    )
    curve = [CurvePoint(s, init_train if t is None else t, d) for s, t, d in evals]
    return Teacher(encoder=encoder, kind="tsdae"), curve


def train_simcse(
    encoder: SequenceEncoder,
    corpus: Sequence[TokenSequence],
    cfg: TeacherConfig,
    dev_pairs: ScoredPairSet,
) -> tuple[Teacher, list[tuple[int, float]]]:
    """Dropout-contrastive training; the same sequence under a second dropout
    draw is the positive, the rest of the batch the negatives."""
    cfg.validate()
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
    seqs = [TokenSequence(list(token_array(s)), getattr(s, "source_id", "")) for s in corpus]
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
    # trains the caller's parameters under the recipe's dropout, leaving the
    # caller's config as it was
    train_encoder = SequenceEncoder(
        encoder.store, replace(encoder.cfg, dropout_rate=cfg.dropout_rate), encoder.vocab
    )

    def loss(chunk) -> Tensor | None:
        if len(chunk) < 2:
            return None  # a lone trailing sequence has no in-batch negatives
        ids, pack = Packing.of([np.asarray(s.tokens) for s in chunk])
        z1 = train_encoder._embed(ids, pack, True, rng)
        z2 = train_encoder._embed(ids, pack, True, rng)
        return infonce_batch(z1, z2, tau=cfg.tau)

    evals, _, _ = fit(
        encoder.store, seqs, cfg.batch_size, rng, loss, cfg.lr, 0.01,
        evaluate=lambda: pair_spearman(encoder.embed_batch, dev_pairs, by_id),
        epochs=cfg.epochs, maximize=True, eval_every=cfg.eval_every_steps,
        patience=cfg.patience,
    )
    return Teacher(encoder=encoder, kind="simcse"), [(s, v) for s, _, v in evals]
