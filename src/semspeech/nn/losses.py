"""Training objectives besides token cross-entropy (``tensor.nll``): InfoNCE,
scored through ``nll``, and MSE."""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .tensor import Tensor, concat, nll


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
    if not 0.0 < tau < np.inf:
        raise ValidationError("tau must be > 0 and finite", field="tau")
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
