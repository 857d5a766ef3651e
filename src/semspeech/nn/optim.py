"""Named parameter store with AdamW (decoupled weight decay)."""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..errors import ValidationError
from .tensor import Tensor


class ParamStore:
    """Insertion-ordered named parameters over flat float64 buffers.

    Parameters, Adam's m and Adam's v each live in one contiguous buffer in
    insertion order, and every parameter's ``.data`` is a view into the
    first. The buffers are (re)built lazily: an added parameter, or a
    ``.data`` rebound to a fresh array, is copied in by ``_sync`` before the
    next optimizer step or state load, and m and v are made at full size by
    a run's first ``zero_grad`` or step; ``reset_optimizer`` starts a run.

    Gradients live in a fourth flat buffer: ``zero_grad`` zeroes it and binds
    every parameter's ``.grad`` to its view, so backward accumulates into it
    in place. ``adamw_step`` consumes them: it reuses the buffer as scratch
    and leaves every ``.grad`` None.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._flat = np.zeros(0)
        self._bounds = [0]
        self._views: list[np.ndarray] = []
        # Adam's moments and the update's scratch, made by the first step:
        # a store that only runs inference holds the parameter buffer alone
        self.reset_optimizer()
        self._grad = np.zeros(0)  # the gradients, then the update's denominator
        self._tmp = np.zeros(0)
        self._grad_views: list[np.ndarray] = []

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValidationError(f"duplicate parameter name {name!r}", field="name")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def reset_optimizer(self) -> None:
        """Drop Adam's moments and step count, so the next step starts a run."""
        self.step_count = 0
        self._m = self._v = np.zeros(0)

    def zero_grad(self) -> None:
        """Zero the flat gradient buffer and bind each ``.grad`` to its view."""
        self._sync()
        grad = self._adam_buffers()[2]
        grad.fill(0.0)
        for p, view in zip(self._params.values(), self._grad_views):
            p.grad = view

    def _cut(self, buf: np.ndarray) -> list[np.ndarray]:
        bounds = zip(self._bounds[:-1], self._bounds[1:])
        return [buf[a:b].reshape(p.shape) for (a, b), p in zip(bounds, self._params.values())]

    def _sync(self) -> None:
        """Make every parameter's ``.data`` its view of the flat buffer."""
        if len(self._views) != len(self._params):
            self._bounds = list(accumulate((p.size for p in self._params.values()), initial=0))
            self._flat = np.empty(self._bounds[-1])
            self._views = self._cut(self._flat)
        for p, view in zip(self._params.values(), self._views):
            if p.data is not view:
                np.copyto(view, p.data)
                p.data = view

    def _adam_buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """m, v and two scratch buffers, each the size of the synced flat buffer."""
        n = self._flat.size
        if self._m.size != n:
            if self.step_count:  # the run's moments were made without the new parameters
                raise ValidationError("a parameter added mid-run has no moments", field="params")
            self._m = np.zeros(n)
            self._v = np.zeros(n)
            self._grad = np.empty(n)
            self._tmp = np.empty(n)
            self._grad_views = self._cut(self._grad)
        return self._m, self._v, self._grad, self._tmp

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the parameters' views; nothing loads unless all fit."""
        arrays = []
        for name, p in self._params.items():
            if name not in state:
                raise ValidationError(f"missing parameter {name!r} in state", field=name)
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValidationError(
                    f"shape mismatch for {name!r}: {arr.shape} vs {p.data.shape}",
                    field=name,
                )
            arrays.append(arr)
        self._sync()
        for p, arr in zip(self._params.values(), arrays):
            np.copyto(p.data, arr)


def adamw_step(
    store: ParamStore,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """One decoupled-weight-decay Adam update over every parameter.

    The gradients are the ``.grad`` views ``zero_grad`` bound; a ``.grad``
    rebound to another array is copied in, and a parameter whose ``.grad`` is
    None counts as a zero gradient: its moments still decay and it still
    moves. The step consumes the gradients: the buffer becomes scratch, and
    every ``.grad`` is left None. The update runs as in-place ufuncs over
    the store's flat buffers, in the operand order of the per-parameter form
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p -= lr*(m/bias1) / (sqrt(v/bias2) + eps)``, so every element is
    bit-equal to it. The whole step aborts, updating nothing, if any gradient
    is non-finite.
    """
    b1, b2 = betas
    store._sync()
    m, v, g, tmp = store._adam_buffers()
    for p, view in zip(store._params.values(), store._grad_views):
        if p.grad is None:
            view.fill(0.0)
        elif p.grad is not view:
            np.copyto(view, p.grad)
    if not np.isfinite(g).all():
        for (name, p), view in zip(store.items(), store._grad_views):
            if not np.isfinite(view).all():
                raise ValidationError(
                    f"non-finite gradient for parameter {name!r}; "
                    f"step {store.step_count + 1} aborted",
                    field=name,
                )
    store.step_count += 1
    t = store.step_count
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    flat = store._flat
    if weight_decay:
        np.multiply(flat, 1.0 - lr * weight_decay, out=flat)
    np.multiply(m, b1, out=m)
    np.multiply(g, 1.0 - b1, out=tmp)
    np.add(m, tmp, out=m)
    np.multiply(v, b2, out=v)
    np.multiply(g, 1.0 - b2, out=tmp)
    np.multiply(tmp, g, out=tmp)
    np.add(v, tmp, out=v)
    # g is spent: it holds the denominator from here on
    np.divide(v, bias2, out=g)
    np.sqrt(g, out=g)
    np.add(g, eps, out=g)
    np.divide(m, bias1, out=tmp)
    np.multiply(tmp, lr, out=tmp)
    np.divide(tmp, g, out=tmp)
    np.subtract(flat, tmp, out=flat)
    for p in store._params.values():
        p.grad = None
