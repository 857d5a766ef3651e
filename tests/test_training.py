"""The shared fit loop: evaluation records, strict keep-best and the step.

The trainers' own tests compare each trainer on ``fit`` with the loop it ran
before; these cover what those comparisons cannot pin down.
"""

import logging

import numpy as np
import pytest

from semspeech.errors import ValidationError
from semspeech.nn.optim import ParamStore
from semspeech.nn.tensor import Tensor
from semspeech.training import fit


def _counting_loss(w):
    """A loss of the batch size with a zero gradient, so AdamW leaves ``w``
    where the loss puts it: one more than before each step."""

    def loss(chunk):
        w.data = w.data + 1.0
        return (w * 0.0).sum() + float(len(chunk))

    return loss


@pytest.mark.parametrize(
    "maximize, values, kept",
    [
        (False, [1.0, 0.5, 0.5], 2.0),  # a tie does not replace the kept state
        (True, [1.0, 1.0, 2.0], 4.0),
        (False, [1.0, 2.0, 3.0], 0.0),  # no improvement keeps the step-0 state
    ],
)
def test_fit_keeps_the_first_strictly_best_evaluation(maximize, values, kept):
    # w counts the steps taken, so its kept value names the kept evaluation
    store = ParamStore()
    w = store.add("w", Tensor(np.zeros(1)))
    scores = iter(values)
    evals, losses, kept_index = fit(
        store, ["a", "b", "c"], 2, np.random.default_rng(0), _counting_loss(w), 1e-3, 0.0,
        evaluate=lambda: next(scores), epochs=2, maximize=maximize,
    )
    # batches of 2 and 1: the loss-weighted mean is (2*2 + 1*1) / 3
    assert evals == [(0, None, values[0]), (2, 5 / 3, values[1]), (4, 5 / 3, values[2])]
    assert losses == [2.0, 1.0, 2.0, 1.0]
    assert evals[kept_index][0] == w.data[0] == kept
    assert evals[kept_index][2] == (max(values) if maximize else min(values))


@pytest.mark.parametrize("values, warned", [([1.0, 2.0, 3.0], True), ([1.0, 0.5, 0.7], False)])
def test_fit_logs_the_kept_evaluation_and_warns_when_it_is_step_0(caplog, values, warned):
    store = ParamStore()
    w = store.add("w", Tensor(np.zeros(1)))
    scores = iter(values)
    with caplog.at_level(logging.INFO, logger="semspeech.training"):
        _, _, kept = fit(
            store, ["a", "b", "c"], 2, np.random.default_rng(0), _counting_loss(w), 1e-3, 0.0,
            evaluate=lambda: next(scores), epochs=2,
        )
    assert kept == (0 if warned else 1)
    step = 0 if warned else 2
    infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert infos == [f"kept the evaluation at step {step}: {values[kept]:.4f}"]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == (["no evaluation beat the untrained model"] if warned else [])


def test_each_fit_starts_a_fresh_optimizer_state():
    def run(store, w):
        fit(store, list(range(6)), 2, np.random.default_rng(0),
            lambda chunk: ((w - Tensor(np.full(3, float(len(chunk))))) ** 2).sum(),
            0.1, 0.01, epochs=2)

    worn, fresh = ParamStore(), ParamStore()
    w = worn.add("w", Tensor(np.array([1.0, -2.0, 0.5])))
    run(worn, w)
    assert worn.step_count == 6
    start = w.data.copy()
    v = fresh.add("w", Tensor(start.copy()))
    run(worn, w)
    run(fresh, v)
    assert worn.step_count == fresh.step_count == 6
    assert w.data.tobytes() == v.data.tobytes()


def test_non_finite_gradient_names_the_epoch_and_the_batch_items():
    store = ParamStore()
    w = store.add("w", Tensor(np.ones(2)))
    poisoned = "utt-7"
    calls = []

    def loss(chunk):
        # ten items in batches of 4 make three steps an epoch; poison epoch 2
        calls.append(chunk)
        scale = np.inf if len(calls) > 3 and poisoned in chunk else 1.0
        return (w * Tensor(np.full(2, scale))).sum()

    items = [f"utt-{i}" for i in range(10)]
    with pytest.raises(ValidationError, match="non-finite gradient for parameter 'w'") as e:
        fit(store, items, 4, np.random.default_rng(0), loss, 1e-3, 0.0, epochs=3)
    message = str(e.value)
    assert "epoch 2" in message
    assert f"batch items {calls[-1]}" in message and poisoned in calls[-1]
    assert e.value.field == "w"
