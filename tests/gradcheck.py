"""Central-difference gradient verification."""

from __future__ import annotations

import numpy as np

from semspeech.errors import ValidationError
from semspeech.nn.tensor import Tensor, no_grad

# relative-error denominator floor: keeps noise in near-zero gradients from
# registering as huge relative errors
_DENOM_FLOOR = 1e-4


def grad_check(
    loss_fn,
    wrt: list[Tensor],
    eps: float = 1e-3,
    max_entries_per_tensor: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must be a pure deterministic function of the tensors in
    ``wrt`` (call it with no arguments). Every entry of every tensor is
    perturbed unless ``max_entries_per_tensor`` caps the sample.
    """
    if eps <= 0:
        raise ValidationError("eps must be > 0", field="eps")
    for t in wrt:
        t.requires_grad = True
        t.grad = None
    loss = loss_fn()
    if loss.size != 1:
        raise ValidationError("loss_fn must return a scalar", field="loss")
    loss.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in wrt]

    rng = np.random.default_rng(seed)
    worst = 0.0
    with no_grad():
        for t, a in zip(wrt, analytic):
            flat = t.data.reshape(-1)
            n = flat.size
            if max_entries_per_tensor is not None and n > max_entries_per_tensor:
                entries = rng.choice(n, size=max_entries_per_tensor, replace=False)
            else:
                entries = range(n)
            a_flat = a.reshape(-1)
            for i in entries:
                orig = flat[i]
                flat[i] = orig + eps
                hi = float(loss_fn().data)
                flat[i] = orig - eps
                lo = float(loss_fn().data)
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * eps)
                denom = max(abs(a_flat[i]), abs(numeric), _DENOM_FLOOR)
                worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst
