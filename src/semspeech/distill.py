"""Contrastive distillation of a frame encoder against a frozen teacher.

The student embeds raw frame sequences; the teacher embeds the paired discrete
sequences. InfoNCE pulls each student embedding toward its own teacher
embedding, pushing away the other in-batch teacher embeddings plus a FIFO
memory bank of recent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, ScoredPairSet
from .errors import ValidationError
from .evaluation import pair_spearman
from .fileformat import write_text
from .nn import checkpoint
from .nn.layers import EncoderConfig, apply_linear, init_encoder, init_linear
from .nn.losses import _normalize_rows, infonce_batch, mse
from .nn.optim import ParamStore
from .nn.tensor import Tensor
from .random_utils import derive_rng
from .teachers import Teacher
from .training import fit
from .wavembed import _embed_frames, encode_frames

DEFAULT_BANK_CAPACITY = 256


class MemoryBank:
    """Bounded FIFO of unit-normalized embeddings, held in a (capacity, d) ring."""

    def __init__(self, capacity: int = DEFAULT_BANK_CAPACITY):
        if capacity < 1:
            raise ValidationError("capacity must be >= 1", field="capacity")
        self.capacity = capacity
        self._rows: np.ndarray | None = None  # allocated by the first push
        self._next = 0  # ring slot the next row goes to
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def dim(self) -> int | None:
        return None if self._rows is None else self._rows.shape[1]

    def push(self, embeddings) -> None:
        arr = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        if arr.shape[0] == 0:
            return
        if self._rows is None:
            self._rows = np.empty((self.capacity, arr.shape[1]))
        elif arr.shape[1] != self.dim:
            raise ValidationError(
                f"embedding dim {arr.shape[1]} does not match bank dim {self.dim}",
                field="embeddings",
            )
        norms = np.sqrt((arr * arr).sum(axis=1))
        if np.any(norms == 0.0):
            raise ValidationError("cannot bank a zero embedding", field="embeddings")
        rows = (arr / norms[:, None])[-self.capacity:]
        slots = (self._next + np.arange(len(rows))) % self.capacity
        self._rows[slots] = rows
        self._next = (self._next + len(rows)) % self.capacity
        self._count = min(self._count + len(rows), self.capacity)

    def contents(self) -> np.ndarray:
        """A copy of the banked rows, oldest first."""
        if self._rows is None:
            return np.zeros((0, 0))
        if self._count < self.capacity:
            return self._rows[: self._count].copy()
        return np.roll(self._rows, -self._next, axis=0)


class StudentModel:
    """Frame encoder + pooling + one projection layer."""

    KIND = "student"

    def __init__(
        self,
        store: ParamStore,
        cfg: EncoderConfig,
        d_in: int,
        pooling: str = "self_attention",
    ):
        if pooling not in ("self_attention", "cls"):
            raise ValidationError(
                f"pooling must be 'self_attention' or 'cls', got {pooling!r}",
                field="pooling",
            )
        self.store = store
        self.cfg = cfg
        self.d_in = d_in
        self.pooling = pooling

    @classmethod
    def create(
        cls,
        d_in: int,
        cfg: EncoderConfig | None = None,
        pooling: str = "self_attention",
        seed: int = 0,
    ) -> "StudentModel":
        cfg = cfg or EncoderConfig()
        rng = derive_rng(seed, "student", "init")
        store = ParamStore()
        init_encoder(store, rng, cfg, d_in=d_in, pooling=pooling)
        init_linear(store, rng, "proj", cfg.model_dim, cfg.model_dim)
        return cls(store, cfg, d_in, pooling=pooling)

    def _forward(
        self,
        frame_list: Sequence[np.ndarray],
        train_mode: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        pooled = encode_frames(self.store, self.cfg, self.pooling, frame_list, train_mode, rng)
        return apply_linear(self.store, "proj", pooled)

    def embed_train(
        self, frame_list: Sequence[np.ndarray], rng: np.random.Generator
    ) -> Tensor:
        return self._forward(frame_list, True, rng)

    def embed(self, features) -> np.ndarray:
        return self.embed_batch([features])[0]

    def embed_batch(self, features: Sequence) -> np.ndarray:
        return _embed_frames(lambda frames: self._forward(frames).data, features, self.cfg.model_dim)

    def config_dict(self) -> dict:
        return {
            "encoder": self.cfg.to_dict(),
            "d_in": self.d_in,
            "pooling": self.pooling,
        }

    @classmethod
    def from_config(cls, config: dict) -> "StudentModel":
        return cls.create(
            d_in=int(config["d_in"]),
            cfg=EncoderConfig.from_dict(config["encoder"]),
            pooling=config["pooling"],
        )

    def save(self, path: str | Path) -> None:
        checkpoint.save_checkpoint(path, self.KIND, self.config_dict(), self.store)

    @classmethod
    def load(cls, path: str | Path) -> "StudentModel":
        return checkpoint.load(path, cls)


@dataclass
class DistillConfig:
    loss: str = "infonce"
    tau: float = 0.05
    batch_size: int = 32
    lr: float = 1e-4
    epochs: int = 10
    seed: int = 0
    bank_capacity: int = DEFAULT_BANK_CAPACITY
    weight_decay: float = 0.01

    def validate(self) -> None:
        if self.loss not in ("infonce", "mse"):
            raise ValidationError(
                f"loss must be 'infonce' or 'mse', got {self.loss!r}", field="loss"
            )
        if not 0.0 < self.tau < np.inf:
            raise ValidationError("tau must be positive and finite", field="tau")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1", field="batch_size")
        if not 0.0 < self.lr < np.inf:
            raise ValidationError("lr must be positive and finite", field="lr")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1", field="epochs")
        if self.bank_capacity < 1:
            raise ValidationError("bank_capacity must be >= 1", field="bank_capacity")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValidationError("weight_decay must be >= 0 and finite", field="weight_decay")


def distill_step(
    student: StudentModel,
    frames: Sequence[np.ndarray],
    teacher_embs: np.ndarray,
    bank: MemoryBank,
    cfg: DistillConfig,
    rng: np.random.Generator,
) -> Tensor:
    """The student's loss on a batch of frame sequences toward the frozen
    teacher's (B, d) embeddings of their targets. The loss reads the bank,
    then the embeddings are banked; ``fit`` takes the step."""
    cfg.validate()
    if not frames:
        raise ValidationError("batch is empty", field="batch")
    if teacher_embs.shape != (len(frames), student.cfg.model_dim):
        raise ValidationError(
            f"teacher embeddings of shape {teacher_embs.shape} for {len(frames)} sequences "
            f"and a student of dim {student.cfg.model_dim}",
            field="model_dim",
        )
    z = student.embed_train(frames, rng)
    if cfg.loss == "infonce":
        bank_tensor = Tensor(bank.contents()) if len(bank) else None
        loss = infonce_batch(z, Tensor(teacher_embs), tau=cfg.tau, bank=bank_tensor)
    else:
        targets = teacher_embs / np.sqrt((teacher_embs**2).sum(axis=1, keepdims=True))
        loss = mse(_normalize_rows(z, "student embedding"), Tensor(targets))
    bank.push(teacher_embs)
    return loss


def distill_train(
    student: StudentModel,
    teacher: Teacher,
    corpus: Corpus,
    targets: Mapping[str, object],
    cfg: DistillConfig,
    dev_pairs: ScoredPairSet,
    bank: MemoryBank | None = None,
) -> tuple[list[tuple[int, float]], dict]:
    """Epochs of distillation with keep-best on dev rank correlation.

    Returns (history of (step, dev_spearman), info); the student is left at
    its best checkpoint. ``info`` holds ``best_dev_spearman`` and the mean
    student-teacher dev cosine at step 0 (``cosine_start``) and at the kept
    evaluation (``cosine_best``). The bank persists across epoch boundaries.
    The frozen teacher embeds every target once, into a table the steps,
    the bank and the dev cosines read.
    """
    cfg.validate()
    if student.cfg.model_dim != teacher.encoder.cfg.model_dim:
        raise ValidationError(
            f"student dim {student.cfg.model_dim} != teacher dim "
            f"{teacher.encoder.cfg.model_dim}",
            field="model_dim",
        )
    ids = [u.id for u in corpus]
    if not ids:
        raise ValidationError("corpus is empty", field="corpus")
    for utt_id in ids:
        if utt_id not in targets:
            raise ValidationError(
                f"no paired target for utterance {utt_id!r}", field=utt_id
            )
    for id_a, id_b, _ in dev_pairs.pairs:
        for utt_id in (id_a, id_b):
            if utt_id not in corpus:
                raise ValidationError(
                    f"dev pair references unknown utterance {utt_id!r}", field=utt_id
                )

    table = teacher.embed_batch([targets[i] for i in ids])
    row = {utt_id: k for k, utt_id in enumerate(ids)}
    dev_ids = sorted({i for a, b, _ in dev_pairs.pairs for i in (a, b)})
    dev_frames = {i: corpus[i].features.data for i in dev_ids}
    # the unit dev targets, in the sorted order pair_vectors embeds
    t = table[[row[i] for i in dev_ids]]
    t = t / np.linalg.norm(t, axis=1, keepdims=True)
    teacher_cosines: list[float] = []  # mean student-teacher cosine per evaluation

    def embed_dev(frames) -> np.ndarray:
        s = student.embed_batch(frames)
        unit = s / np.linalg.norm(s, axis=1, keepdims=True)
        teacher_cosines.append(float((unit * t).sum(axis=1).mean()))
        return s

    rng = derive_rng(cfg.seed, "distill", "train")
    if bank is None:
        bank = MemoryBank(cfg.bank_capacity)

    def batch_loss(chunk) -> Tensor | None:
        if cfg.loss == "infonce" and len(chunk) == 1 and len(bank) == 0:
            return None  # nothing to contrast against yet
        frames = [corpus[i].features.data for i in chunk]
        return distill_step(student, frames, table[[row[i] for i in chunk]], bank, cfg, rng)

    evals, _, kept = fit(
        student.store, ids, cfg.batch_size, rng, batch_loss, cfg.lr, cfg.weight_decay,
        evaluate=lambda: pair_spearman(embed_dev, dev_pairs, dev_frames),
        epochs=cfg.epochs, maximize=True,
    )
    info = {
        "cosine_start": teacher_cosines[0],
        "cosine_best": teacher_cosines[kept],
        "best_dev_spearman": evals[kept][2],
    }
    return [(s, v) for s, _, v in evals], info


# ---------------------------------------------------------------------------
# paired-data manifest
# ---------------------------------------------------------------------------

def save_paired_manifest(pairs: Sequence[tuple[str, int]], path: str | Path) -> None:
    """TSV rows of utterance id and the line index of its target sequence."""
    lines = [f"{utt_id}\t{line_ref}" for utt_id, line_ref in pairs]
    write_text(path, "\n".join(lines) + "\n")
