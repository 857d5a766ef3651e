"""The shared fit loop: evaluation records and strict keep-best.

The trainers' own tests compare each trainer on ``fit`` with the loop it ran
before; these cover what those comparisons cannot pin down.
"""

import numpy as np
import pytest

from semspeech.nn.optim import ParamStore
from semspeech.nn.tensor import Tensor
from semspeech.training import fit


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
