"""The one training loop every trainer runs.

A trainer prepares its data and hands ``fit`` two closures: ``step``, which
takes one optimizer step on a batch, and ``evaluate``, which scores the
current parameters. ``fit`` owns the rest: the per-epoch shuffle, batching,
the evaluation schedule, keep-best and early stopping.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .nn.optim import ParamStore, adamw_step
from .nn.tensor import Tensor, no_grad


class EarlyStopper:
    """Stop after `patience` consecutive evaluations without improvement."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ValidationError("patience must be >= 1", field="patience")
        self.patience = patience
        self.best = -np.inf
        self.stale = 0

    def update(self, value: float) -> bool:
        if value > self.best:
            self.best = value
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


def _chunks(seq: Sequence, size: int):
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


def _item_name(item, position: int) -> str:
    """An item as an error message names it: the item itself if it is an id,
    else its ``source_id``, else its position in the items."""
    if isinstance(item, str):
        return item
    return getattr(item, "source_id", "") or f"#{position}"


def optimizer_step(store: ParamStore, loss: Tensor, lr: float, weight_decay: float) -> float:
    """Backpropagate ``loss`` into ``store`` and take one AdamW step.

    Returns the loss as a float, so the caller can drop the Tensor and with
    it the step's autograd graph.
    """
    store.zero_grad()
    loss.backward()
    adamw_step(store, lr=lr, weight_decay=weight_decay)
    return float(loss.data)


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
    step: Callable[[list], float | None],
    evaluate: Callable[[], float] | None = None,
    epochs: int | None = None,
    max_steps: int | None = None,
    maximize: bool = False,
    eval_every: int | None = None,
    patience: int | None = None,
):
    """Train until ``epochs`` epochs or ``max_steps`` steps, whichever ends first.

    Each epoch feeds ``items`` in the order of ``rng.permutation``,
    ``batch_size`` at a time, to ``step``, which returns the batch loss or
    ``None`` for a batch it skips. A first epoch that skips every batch
    raises ``ValidationError``: the run would train nothing. ``evaluate``
    runs at step 0, then after every epoch, or every ``eval_every`` steps if
    that is set. ``store`` ends at the parameters of the best evaluation: the
    lowest, or the highest with ``maximize``, taking only strict
    improvements. ``patience`` stops the run once that many evaluations in a
    row fail to improve. A ``ValidationError`` from ``step``, such as a
    non-finite gradient, is raised again naming the epoch (from 1) and the
    batch's items.

    Returns ``(evals, losses, best)``: one ``(step, mean train loss since the
    previous evaluation or None, value)`` per evaluation, the loss of every
    step taken, and the best value.
    """
    evals: list[tuple[int, float | None, float]] = []
    losses: list[float] = []
    best, best_state = None, None
    stopper = EarlyStopper(patience) if patience is not None else None
    total, count = 0.0, 0

    def evaluate_now() -> bool:
        """Record an evaluation and keep the best parameters; True ends the run."""
        nonlocal best, best_state, total, count
        value = evaluate()
        evals.append((len(losses), total / count if count else None, value))
        total, count = 0.0, 0
        if best is None or (value > best if maximize else value < best):
            best, best_state = value, store.state_dict()
        return stopper is not None and stopper.update(value if maximize else -value)

    stop = evaluate is not None and evaluate_now()
    for epoch in range(epochs) if epochs is not None else itertools.count():
        if stop or len(losses) == max_steps:
            break
        for positions in _chunks(rng.permutation(len(items)), batch_size):
            chunk = [items[i] for i in positions]
            try:
                loss = step(chunk)
            except ValidationError as e:
                names = [_item_name(item, int(i)) for item, i in zip(chunk, positions)]
                raise ValidationError(
                    f"{e}; epoch {epoch + 1}, batch items {names}", field=e.field
                ) from e
            if loss is None:
                continue
            losses.append(loss)
            total += loss * len(chunk)
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
    if best_state is not None:
        store.load_state_dict(best_state)
    return evals, losses, best
