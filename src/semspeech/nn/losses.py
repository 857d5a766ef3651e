"""Training objectives: masked NLL, masked cross-entropy, InfoNCE, MSE."""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .tensor import Tensor, concat, nll


def nll_loss(logits: Tensor, targets: np.ndarray, pad_id: int = 0) -> Tensor:
    """Mean negative log-likelihood of targets; PAD positions are masked out."""
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValidationError(
            f"target shape {targets.shape} does not match logits {logits.shape[:-1]}",
            field="targets",
        )
    vocab = logits.shape[-1]
    if targets.min() < 0 or targets.max() >= vocab:
        raise ValidationError(f"target id outside vocabulary of size {vocab}", field="targets")
    mask = targets != pad_id
    n_live = int(mask.sum())
    if n_live == 0:
        raise ValidationError("all target positions are PAD", field="targets")
    return nll(logits, targets, mask)


def masked_cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean cross-entropy over exactly the positions where mask is True."""
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=bool)
    if targets.shape != logits.shape[:-1] or mask.shape != targets.shape:
        raise ValidationError("logits, targets, and mask shapes must agree", field="mask")
    n_live = int(mask.sum())
    if n_live == 0:
        raise ValidationError("mask selects no positions", field="mask")
    vocab = logits.shape[-1]
    safe = np.where(mask, targets, 0)
    if safe.min() < 0 or safe.max() >= vocab:
        raise ValidationError(f"target id outside vocabulary of size {vocab}", field="targets")
    return nll(logits, safe, mask)


def mse(z: Tensor, target: Tensor) -> Tensor:
    if z.shape != target.shape:
        raise ValidationError(
            f"shape mismatch {z.shape} vs {target.shape}", field="target"
        )
    diff = z - target
    return (diff * diff).mean()


def _normalize_rows(x: Tensor, what: str) -> Tensor:
    norms_sq = (x * x).sum(axis=-1, keepdims=True)
    if np.any(norms_sq.data == 0.0):
        raise ValidationError(f"zero-norm vector in {what}", field=what)
    return x / norms_sq.sqrt()


def infonce_batch(
    anchors: Tensor,
    positives: Tensor,
    tau: float = 0.05,
    bank: Tensor | None = None,
) -> Tensor:
    """Mean InfoNCE over a batch: positives[i] pairs with anchors[i]; the
    denominator for row i holds its positive, the other in-batch positives,
    and every bank entry. It is the cross-entropy (``nll``) of each row's
    scores at its positive's column."""
    if tau <= 0:
        raise ValidationError("tau must be > 0", field="tau")
    b = anchors.shape[0]
    if positives.shape != anchors.shape:
        raise ValidationError("anchors and positives must share a shape", field="positives")
    if b < 2 and (bank is None or bank.shape[0] == 0):
        raise ValidationError(
            "no negatives: batch of 1 with an empty bank", field="negatives"
        )
    an = _normalize_rows(anchors, "anchors")
    pn = _normalize_rows(positives, "positives")
    cols = pn
    if bank is not None and bank.shape[0] > 0:
        cols = concat([pn, _normalize_rows(bank, "bank")], axis=0)
    sims = (an @ cols.transpose(1, 0)) * (1.0 / tau)
    return nll(sims, np.arange(b), np.ones(b, dtype=bool))
