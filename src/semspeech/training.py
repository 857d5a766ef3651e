"""The one training loop every trainer runs.

A trainer prepares its data and hands ``fit`` two closures: ``loss``, which
returns a batch's loss, and ``evaluate``, which scores the current
parameters. ``fit`` owns the rest: the per-epoch shuffle, batching, every
optimizer step, the evaluation schedule, keep-best and early stopping.
"""

from __future__ import annotations

import itertools
import logging
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .nn.optim import ParamStore, adamw_step
from .nn.tensor import Tensor, no_grad

logger = logging.getLogger(__name__)

WEIGHT_DECAY = 0.01  # AdamW's decoupled decay, the same in every trainer


def _chunks(seq: Sequence, size: int):
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


def _item_name(item, position: int) -> str:
    """An item as an error message names it: the item itself if it is an id,
    else its ``source_id``, else its position in the items."""
    if isinstance(item, str):
        return item
    return getattr(item, "source_id", "") or f"#{position}"


def mean_loss(batch_loss: Callable[[list], Tensor], items: Sequence, batch_size: int) -> float:
    """Item-weighted mean of ``batch_loss`` over ``items`` in order, without gradients."""
    total, count = 0.0, 0
    with no_grad():
        for chunk in _chunks(list(items), batch_size):
            total += float(batch_loss(chunk).data) * len(chunk)
            count += len(chunk)
    return total / count


def split_dev(items: Sequence, dev_fraction: float, rng: np.random.Generator):
    """(train, dev) from one permutation; a dev share that rounds to zero
    judges on the training items rather than skipping keep-best."""
    order = [items[i] for i in rng.permutation(len(items))]
    n_dev = int(round(dev_fraction * len(items)))
    dev, train = order[:n_dev], order[n_dev:]
    if not train:
        raise ValidationError("dev split leaves no training items", field="dev_fraction")
    return train, dev or train


def fit(
    store: ParamStore,
    items: Sequence,
    batch_size: int,
    rng: np.random.Generator,
    loss: Callable[[list], Tensor | None],
    lr: float,
    evaluate: Callable[[], float] | None = None,
    epochs: int | None = None,
    max_steps: int | None = None,
    maximize: bool = False,
    eval_every: int | None = None,
    patience: int | None = None,
):
    """Train until ``epochs`` epochs or ``max_steps`` steps, whichever ends
    first; with neither set the run would never end and is refused.

    Each epoch feeds ``items`` in the order of ``rng.permutation``,
    ``batch_size`` at a time, to ``loss``, which returns the batch's loss
    Tensor or ``None`` to skip the batch; ``fit`` backpropagates it and takes
    one AdamW step at ``lr`` and ``WEIGHT_DECAY``, from an optimizer state
    each run starts afresh. A first epoch that skips every batch raises
    ``ValidationError``: the run would train nothing. ``evaluate`` runs at
    step 0, then after every epoch, or every ``eval_every`` steps if that is
    set. A NaN or infinite evaluation raises ``ValidationError`` naming its
    step. Keep-best holds the kept evaluation's index and one
    ``store.snapshot()`` of its parameters, taken at each strict improvement
    (lower, or higher with ``maximize``); ``store`` ends restored to it, and
    the kept evaluation is logged. ``patience`` stops the run once that many
    evaluations have followed the kept one. A ``ValidationError`` from the
    loss or the step is raised again naming the epoch (from 1) and the
    batch's items.

    Returns ``(evals, losses, kept)``: one ``(step, mean train loss since
    the previous evaluation or None, value)`` per evaluation, the loss of
    every step taken, and the kept evaluation's index (None without
    ``evaluate``).
    """
    if epochs is None and max_steps is None:
        raise ValidationError("fit needs epochs or max_steps to end", field="epochs")
    evals: list[tuple[int, float | None, float]] = []
    losses: list[float] = []
    kept = None
    total, count = 0.0, 0
    store.reset_optimizer()

    def evaluate_now() -> bool:
        """Record an evaluation and keep the best parameters; True ends the run."""
        nonlocal kept, total, count
        value = evaluate()
        if not np.isfinite(value):
            raise ValidationError(
                f"evaluation at step {len(losses)} is not finite: {value}", field="evaluate"
            )
        evals.append((len(losses), total / count if count else None, value))
        total, count = 0.0, 0
        if kept is None or (value > evals[kept][2] if maximize else value < evals[kept][2]):
            kept = len(evals) - 1
            store.snapshot()
        return patience is not None and len(evals) - 1 - kept >= patience

    stop = evaluate is not None and evaluate_now()
    for epoch in range(epochs) if epochs is not None else itertools.count():
        if stop or len(losses) == max_steps:
            break
        for positions in _chunks(rng.permutation(len(items)), batch_size):
            chunk = [items[i] for i in positions]
            try:
                batch = loss(chunk)
                if batch is None:
                    continue
                store.zero_grad()
                batch.backward()
                adamw_step(store, lr=lr, weight_decay=WEIGHT_DECAY)
            except ValidationError as e:
                names = [_item_name(item, int(i)) for item, i in zip(chunk, positions)]
                raise ValidationError(
                    f"{e}; epoch {epoch + 1}, batch items {names}", field=e.field
                ) from e
            losses.append(float(batch.data))
            del batch  # backward freed its graph; the Tensor goes before the next batch
            total += losses[-1] * len(chunk)
            count += len(chunk)
            if eval_every is not None and len(losses) % eval_every == 0:
                stop = evaluate_now()
            if stop or len(losses) == max_steps:
                break
        if epoch == 0 and not losses:
            raise ValidationError(
                f"the first epoch skipped all {len(items)} items in batches of "
                f"{batch_size} and took no optimizer step",
                field="batch_size",
            )
        if evaluate is not None and eval_every is None and not stop:
            stop = evaluate_now()
    if kept is not None:
        store.restore()
        logger.info("kept the evaluation at step %d: %.4f", evals[kept][0], evals[kept][2])
        if kept == 0:
            logger.warning("no evaluation beat the untrained model")
    return evals, losses, kept
