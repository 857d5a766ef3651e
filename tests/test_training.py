"""The shared fit loop: evaluation records and strict keep-best.

The trainers' own tests compare each trainer on ``fit`` with the loop it ran
before; these cover what those comparisons cannot pin down.
"""

import numpy as np
import pytest

from semspeech.errors import ValidationError
from semspeech.nn.optim import ParamStore
from semspeech.nn.tensor import Tensor
from semspeech.training import fit, optimizer_step


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

    def step(chunk):
        w.data = w.data + 1.0
        return float(len(chunk))

    scores = iter(values)
    evals, losses, best = fit(
        store, ["a", "b", "c"], 2, np.random.default_rng(0), step,
        evaluate=lambda: next(scores), epochs=2, maximize=maximize,
    )
    # batches of 2 and 1: the loss-weighted mean is (2*2 + 1*1) / 3
    assert evals == [(0, None, values[0]), (2, 5 / 3, values[1]), (4, 5 / 3, values[2])]
    assert losses == [2.0, 1.0, 2.0, 1.0]
    assert best == (max(values) if maximize else min(values))
    assert w.data[0] == kept


def test_non_finite_gradient_names_the_epoch_and_the_batch_items():
    store = ParamStore()
    w = store.add("w", Tensor(np.ones(2)))
    poisoned = "utt-7"
    calls = []

    def step(chunk):
        # ten items in batches of 4 make three steps an epoch; poison epoch 2
        calls.append(chunk)
        scale = np.inf if len(calls) > 3 and poisoned in chunk else 1.0
        return optimizer_step(store, (w * Tensor(np.full(2, scale))).sum(), 1e-3, 0.0)

    items = [f"utt-{i}" for i in range(10)]
    with pytest.raises(ValidationError, match="non-finite gradient for parameter 'w'") as e:
        fit(store, items, 4, np.random.default_rng(0), step, epochs=3)
    message = str(e.value)
    assert "epoch 2" in message
    assert f"batch items {calls[-1]}" in message and poisoned in calls[-1]
    assert e.value.field == "w"
