"""The shared fit loop: evaluation records, strict keep-best and the step.

The trainers' own tests compare each trainer on ``fit`` with the loop it ran
before; these cover what those comparisons cannot pin down.
"""

import logging

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semspeech.errors import ValidationError
from semspeech.nn.optim import ParamStore
from semspeech.nn.tensor import Tensor
from semspeech.teachers import EarlyStopper
from semspeech.training import fit


def _counting_loss(w):
    """A loss of the batch size with a zero gradient. At lr 0 AdamW, weight
    decay included, leaves ``w`` where the loss puts it: one more than before
    each step."""

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
        store, ["a", "b", "c"], 2, np.random.default_rng(0), _counting_loss(w), 0.0,
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
            store, ["a", "b", "c"], 2, np.random.default_rng(0), _counting_loss(w), 0.0,
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
            0.1, epochs=2)

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
        fit(store, items, 4, np.random.default_rng(0), loss, 1e-3, epochs=3)
    message = str(e.value)
    assert "epoch 2" in message
    assert f"batch items {calls[-1]}" in message and poisoned in calls[-1]
    assert e.value.field == "w"


@pytest.mark.parametrize(
    "values, step",
    [([math.nan, 1.0, 2.0, 3.0], 0), ([1.0, 2.0, math.inf], 4), ([1.0, -math.inf], 2)],
)
def test_a_non_finite_evaluation_is_refused_naming_its_step(values, step):
    # at the parent a NaN at step 0 was kept over every later improvement
    store = ParamStore()
    w = store.add("w", Tensor(np.zeros(1)))
    scores = iter(values)
    with pytest.raises(ValidationError, match=f"evaluation at step {step} is not finite") as e:
        fit(
            store, ["a", "b", "c"], 2, np.random.default_rng(0), _counting_loss(w), 0.0,
            evaluate=lambda: next(scores), epochs=6, maximize=True,
        )
    assert e.value.field == "evaluate"


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(0, 3), min_size=12, max_size=12),
    maximize=st.booleans(),
    eval_every=st.sampled_from([None, 2]),
    patience=st.integers(1, 4),
)
def test_patience_stops_where_an_early_stopper_replay_of_the_values_stops(
    values, maximize, eval_every, patience
):
    # three items in batches of one: 3 steps an epoch and, over 3 epochs,
    # 4 evaluations per epoch or 5 every 2 steps; small integers make ties
    def run(patience):
        store = ParamStore()
        w = store.add("w", Tensor(np.zeros(1)))
        scores = iter(values)
        evals, losses, kept = fit(
            store, ["a", "b", "c"], 1, np.random.default_rng(0), _counting_loss(w), 0.0,
            evaluate=lambda: float(next(scores)), epochs=3, maximize=maximize,
            eval_every=eval_every, patience=patience,
        )
        return evals, losses, kept, w.data[0]

    n_evals = len(run(None)[0])
    stopper = EarlyStopper(patience)
    signed = [v if maximize else -v for v in values[:n_evals]]
    stops = [i for i, v in enumerate(signed) if stopper.update(v)]
    expected = stops[0] + 1 if stops else n_evals
    evals, losses, kept, w = run(patience)
    assert len(evals) == expected
    if stops:
        assert len(losses) == evals[-1][0]  # no step after the stopping evaluation
    best = max(signed[:expected])
    assert kept == signed.index(best) and w == evals[kept][0]


def test_snapshot_and_restore_round_trip_bit_equal():
    rng = np.random.default_rng(5)
    store = ParamStore()
    a = store.add("a", Tensor(rng.standard_normal((3, 2))))
    b = store.add("b", Tensor(rng.standard_normal(4)))
    store.snapshot()
    saved = {name: p.data.copy() for name, p in store.items()}
    views = {name: p.data for name, p in store.items()}
    a.data += 1.0  # in place, in the view
    b.data = rng.standard_normal(4)  # rebound to a fresh array
    store.restore()
    for name, p in store.items():
        assert p.data is views[name], name  # restore copies, it never rebinds
        assert p.data.tobytes() == saved[name].tobytes(), name
    # the saved buffer is the store's own: a later change leaves it alone
    a.data *= 3.0
    store.restore()
    assert a.data.tobytes() == saved["a"].tobytes()


@pytest.mark.parametrize("grow", [False, True])
def test_restore_without_a_snapshot_of_the_store_as_it_is_names_both_sizes(grow):
    # at the parent numpy's broadcast error came out of np.copyto instead
    store = ParamStore()
    store.add("a", Tensor(np.ones((3, 2))))
    if grow:
        store.snapshot()
        store.add("b", Tensor(np.ones(4)))
    before = {name: p.data.copy() for name, p in store.items()}
    saved, size = (6, 10) if grow else (0, 6)
    with pytest.raises(ValidationError, match=f"holds {saved} values, the store {size}") as e:
        store.restore()
    assert e.value.field == "snapshot"
    for name, p in store.items():
        assert p.data.tobytes() == before[name].tobytes(), name


def test_fit_with_neither_epochs_nor_max_steps_is_refused_before_it_evaluates():
    # without patience such a run never returned: a 4-item toy was still
    # stepping after 5,000 steps. Patience ends this one, so a missing
    # refusal fails the test instead of hanging it.
    store = ParamStore()
    w = store.add("w", Tensor(np.zeros(1)))
    evaluations = []

    def evaluate():
        evaluations.append(w.data[0])
        return 0.0

    with pytest.raises(ValidationError, match="epochs or max_steps") as e:
        fit(store, ["a", "b", "c", "d"], 2, np.random.default_rng(0), _counting_loss(w), 0.0,
            evaluate=evaluate, patience=3)
    assert e.value.field == "epochs"
    assert evaluations == [] and w.data[0] == 0.0
