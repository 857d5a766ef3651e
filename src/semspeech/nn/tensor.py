"""Reverse-mode automatic differentiation over numpy arrays.

Computation happens in float64 so analytic gradients can be validated against
central finite differences at tight tolerances; persisted surfaces down-cast
to float32. Gradients accumulate in fixed topological order, keeping training
bitwise reproducible.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..errors import ValidationError

NEG_INF = -1e9  # additive mask value; exp() of it underflows to exactly 0


# idents of the threads inside a no_grad block; while it is empty, as in
# training, recording costs Tensor._make one global read
_untaped_threads: set[int] = set()


class no_grad:
    """Context manager disabling graph construction on the calling thread.

    The flag is per thread: another thread's ``no_grad`` neither stops this
    one recording nor, on leaving, restarts it. Work handed to a worker
    thread enters ``no_grad`` there itself.
    """

    def __enter__(self):
        ident = threading.get_ident()
        self._nested = ident in _untaped_threads
        _untaped_threads.add(ident)
        return self

    def __exit__(self, *exc):
        if not self._nested:
            _untaped_threads.discard(threading.get_ident())
        return False


def grad_enabled() -> bool:
    """Whether operations on this thread record a tape now (no ``no_grad``
    is held on it)."""
    return not _untaped_threads or threading.get_ident() not in _untaped_threads


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out broadcast dimensions so grad matches the original shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if (not _untaped_threads or grad_enabled()) and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # Laid out like self.data, whatever the order of grad, so later
            # matmuls take the same BLAS path; adding 0.0 rather than copying
            # stores -0.0 as +0.0, the bits an accumulation onto zeros gives.
            self.grad = np.add(grad, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += grad

    def backward(self) -> None:
        """Fill the leaves' .grad, consuming the graph as it goes.

        Once a node's closure has run, its .grad, its closure and its parents
        are dropped, so the arrays it saved are freed as soon as backward has
        passed them and the caller's scalar no longer pins the graph. A graph
        therefore takes one backward(); no caller runs two on it.
        """
        if self.size != 1:
            raise ValidationError("backward() requires a scalar", field="shape")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
                node.grad = None
            node._backward = None
            node._parents = ()

    # -- elementwise arithmetic ----------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise ValidationError("power supports scalar exponents only", field="exponent")
        out_data = self.data**exponent

        def backward(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # -- matmul / shape ------------------------------------------------------

    def __matmul__(self, other):
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.shape)
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def reshape(self, *shape):
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            self._accumulate(g.reshape(old_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes):
        inverse = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def backward(g):
            self._accumulate(g.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, key):
        out_data = self.data[key]

        def backward(g):
            full = np.zeros_like(self.data)
            full[key] = g
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.size
        else:
            count = self.shape[axis] if isinstance(axis, int) else int(
                np.prod([self.shape[a] for a in axis])
            )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def sqrt(self):
        return self**0.5


# ---------------------------------------------------------------------------
# composite / fused operations
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(c * (x + a * x*x*x)), the tanh term of tanh-form gelu, in one
    buffer. The cube is ``x*x*x``: numpy's float ``**3`` goes through
    ``pow``, which is about 40x slower and can differ from it in the last
    ulp."""
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu_value(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """0.5 * x * (1 + t)."""
    out = x * 0.5
    out *= t + 1.0
    return out


def _gelu_slope(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """0.5 * (1 + t) + 0.5 * x * (1 - t*t) * c * (1 + 3a * x*x)."""
    du = np.square(x)
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    out = t * t
    np.subtract(1.0, out, out=out)
    half = np.multiply(x, 0.5)
    out *= half
    out *= du
    np.add(t, 1.0, out=half)
    half *= 0.5
    out += half
    return out


def _sum_in_order(e: np.ndarray, axis: int) -> np.ndarray:
    """The sum along ``axis``, kept as a length-1 axis, its terms added first
    to last, so trailing zeros add exactly whatever their number. numpy sums
    a contiguous axis pairwise, grouping the terms by its length; moved
    outermost in a contiguous copy, the axis is added row after row. A lone
    sum would be pairwise again, so it accumulates."""
    t = np.moveaxis(e, axis, 0)
    s = np.cumsum(t, axis=0)[-1] if t[0].size == 1 else np.ascontiguousarray(t).sum(axis=0)
    return np.expand_dims(s, axis)


def _softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along ``axis``, written into ``out`` (which may be ``x``) or
    into a new array. Columns masked with NEG_INF exp to exactly 0 and the
    denominator adds in order, so padding a row leaves its probabilities'
    bytes as they are alone."""
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= _sum_in_order(e, axis)
    return e


def _log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    out_data = _softmax(x.data, axis)

    def backward(g):
        grad = g * out_data
        np.subtract(g, grad.sum(axis=axis, keepdims=True), out=grad)
        grad *= out_data
        x._accumulate(grad)

    return Tensor._make(out_data, (x,), backward)


# -- packed rows -------------------------------------------------------------

class Packing:
    """Where the valid positions of a padded (B, T) batch sit as packed rows.

    Packed arrays hold one row per valid position, in row-major order:
    sequence 0's positions first. Position-wise ops run on the packed rows
    alone; attention and pooling pad inside, and a dropout mask is drawn for
    the padded shape so the random stream advances as for a padded batch.
    When every position is valid, ``index`` is None and padding and packing
    are reshapes that copy nothing.
    """

    def __init__(self, valid: np.ndarray):
        valid = np.asarray(valid, dtype=bool)
        self.batch, self.length = valid.shape
        self.valid = valid
        self.counts = valid.sum(axis=1)
        self.starts = np.cumsum(self.counts) - self.counts
        self.segments, self.positions = np.nonzero(valid)
        self.rows = len(self.segments)
        self.index = None if self.rows == valid.size else np.flatnonzero(valid)

    @classmethod
    def from_lengths(cls, lengths) -> "Packing":
        """Sequences of the given lengths, each starting at position 0."""
        lengths = np.asarray(lengths, dtype=np.int64)
        return cls(np.arange(lengths.max()) < lengths[:, None])

    @classmethod
    def of(cls, seqs) -> tuple[np.ndarray, "Packing"]:
        """A batch of sequences (id arrays or (T, d) frame matrices) as one
        array of their rows, stacked in order, and its layout."""
        return np.concatenate(seqs), cls.from_lengths([len(s) for s in seqs])

    def pad(self, rows: np.ndarray) -> np.ndarray:
        """(rows, ...) -> (B, T, ...), zeros where a position is not valid."""
        tail = rows.shape[1:]
        if self.index is None:
            return rows.reshape(self.batch, self.length, *tail)
        out = np.zeros((self.batch * self.length, *tail), dtype=rows.dtype)
        out[self.index] = rows
        return out.reshape(self.batch, self.length, *tail)

    def unpad(self, padded: np.ndarray) -> np.ndarray:
        """(B, T, ...) -> (rows, ...): the valid positions."""
        flat = padded.reshape(self.batch * self.length, *padded.shape[2:])
        return flat if self.index is None else flat[self.index]

    def key_mask(self) -> np.ndarray | None:
        """(B, 1, 1, T) additive mask hiding invalid key positions; None
        when every position is valid."""
        if self.index is None:
            return None
        return np.where(self.valid[:, None, None, :], 0.0, NEG_INF)


def pad_rows(x: Tensor, pack: Packing) -> Tensor:
    """Packed (rows, d) -> padded (B, T, d) with zeros at invalid positions."""

    def backward(g):
        x._accumulate(pack.unpad(g))

    return Tensor._make(pack.pad(x.data), (x,), backward)


# -- fused nodes ---------------------------------------------------------------
#
# Each is one tape node with a hand-derived backward pass. A forward runs the
# numpy operations of the composite it replaces in the same order, so its
# output keeps its bytes; the backward keeps only what it needs and sums
# gradients in its own order.
#
# Every kernel, forward and backward, writes its results into arrays its own
# call allocated, through ``out=`` or augmented assignment: a bias is added
# into the GEMM result, the scale, mask and softmax go into the scores. Each
# keeps the ufunc, the operands and their order of the expression it
# replaces, so no byte moves. A kernel never writes into a parent's
# ``.data``, a parameter, the upstream gradient or an array a closure saved.
# tests/test_fused.py pins the bytes: embeddings and the gradients of every
# training loss by sha256, and what each kernel may write into.

def _affine_backward(
    x2: np.ndarray, w: Tensor, b: Tensor | None, g2: np.ndarray, need_dx: bool
) -> np.ndarray | None:
    """For y = x@W + b over (N, d_in) rows: accumulate dW = XᵀG and, when
    there is a bias, db = colsum(G); return dX = GWᵀ when ``need_dx``."""
    if w.requires_grad:
        w._accumulate(x2.T @ g2)
    if b is not None and b.requires_grad:
        b._accumulate(g2.sum(axis=0))
    return g2 @ w.data.T if need_dx else None


def _affine(x: np.ndarray, w: Tensor, b: Tensor | None) -> np.ndarray:
    """x @ W (+ b) over the rows of x, whatever its leading axes: one 2-D
    GEMM, the bias added into its result. A lone row runs as a pair, since
    numpy sends a one-row product to a matrix-vector kernel whose sums
    differ from the GEMM's; so every row gets the bytes it gets among
    others."""
    rows = x.reshape(-1, x.shape[-1])
    if len(rows) == 1:
        out = (np.concatenate([rows, rows]) @ w.data)[:1]
    else:
        out = rows @ w.data
    if b is not None:
        out += b.data
    return out.reshape(*x.shape[:-1], w.shape[1])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over any leading axes of x; the backward is one 2-D GEMM
    per gradient over the flattened rows."""
    d_in, d_out = w.shape

    def backward(g):
        dx = _affine_backward(
            x.data.reshape(-1, d_in), w, b, g.reshape(-1, d_out), x.requires_grad
        )
        if dx is not None:
            x._accumulate(dx.reshape(x.shape))

    return Tensor._make(_affine(x.data, w, b), (x, w, b), backward)


def attention(
    q_in: Tensor,
    kv_in: Tensor,
    params,
    heads: int,
    pack: Packing,
    kv_pack: Packing | None = None,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention over packed rows as one node: the Q/K/V
    projections, the scaled and additively masked softmax, P@V, the head
    merge and the output projection. ``params`` is (Wq, bq, Wk, Wv, bv, Wo,
    bo): K has no bias, since a key bias adds the same q·b to every score
    of a query, which the softmax cancels.

    ``q_in`` holds the packed (N, d) query rows ``pack`` lays out, and
    ``kv_in`` the packed key/value rows ``kv_pack`` lays out (``pack`` when
    None). The projections run on the packed rows; Q, K and V are scattered
    into padded (B, heads, T, dh) arrays, keys at invalid positions are
    masked on top of ``mask``, and the output rows are gathered back.

    The backward follows FlashAttention (Dao et al., 2022) without tiling:
    dS = P∘(dP − rowsum(dO∘O)), with the padded O = P@V recomputed rather
    than kept. With ``q_in is kv_in`` the three input gradients are summed
    and accumulated once.
    """
    wq, bq, wk, wv, bv, wo, bo = params
    kv_pack = pack if kv_pack is None else kv_pack
    b, d = pack.batch, q_in.shape[-1]
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(rows: np.ndarray, layout: Packing) -> np.ndarray:
        rows = layout.pad(rows)
        return rows.reshape(b, layout.length, heads, dh).transpose(0, 2, 1, 3)

    def merge(a: np.ndarray, layout: Packing) -> np.ndarray:
        # the valid rows straight from the (B, T, heads, dh) view, one copy
        a = a.transpose(0, 2, 1, 3)
        return (a if layout.index is None else a[layout.valid]).reshape(-1, d)

    qh = split(_affine(q_in.data, wq, bq), pack)
    kh = split(_affine(kv_in.data, wk, None), kv_pack)
    vh = split(_affine(kv_in.data, wv, bv), kv_pack)
    p = qh @ kh.transpose(0, 1, 3, 2)  # the scores, then their softmax
    p *= scale
    key_mask = kv_pack.key_mask()
    if key_mask is not None:
        mask = key_mask if mask is None else mask + key_mask
    if mask is not None:
        p += mask
    _softmax(p, out=p)
    o = merge(p @ vh, pack)
    self_attn = q_in is kv_in

    def backward(g):
        do = split(_affine_backward(o, wo, bo, g, True), pack)
        dv = p.transpose(0, 1, 3, 2) @ do
        ds = do @ vh.transpose(0, 1, 3, 2)
        ds -= (do * (p @ vh)).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        dq = _affine_backward(q_in.data, wq, bq, merge(ds @ kh, pack), q_in.requires_grad)
        dk = merge(ds.transpose(0, 1, 3, 2) @ qh, kv_pack)
        dk = _affine_backward(kv_in.data, wk, None, dk, kv_in.requires_grad)
        dkv = _affine_backward(kv_in.data, wv, bv, merge(dv, kv_pack), kv_in.requires_grad)
        if dkv is not None:
            dkv += dk
            if self_attn:
                dkv += dq
            kv_in._accumulate(dkv)
        if dq is not None and not self_attn:
            q_in._accumulate(dq)

    parents = (q_in, *params) if self_attn else (q_in, kv_in, *params)
    return Tensor._make(_affine(o, wo, bo), parents, backward)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ W1 + b1) @ W2 + b2 as one node. It keeps the pre-activation
    alone, and recomputes its tanh term and the activation in the backward."""
    d_in, d_ff = w1.shape
    a = _affine(x.data, w1, b1).reshape(-1, d_ff)

    def backward(g):
        t = _gelu_tanh(a)
        dh = _affine_backward(_gelu_value(a, t), w2, b2, g.reshape(-1, w2.shape[1]), True)
        dh *= _gelu_slope(a, t)
        dx = _affine_backward(x.data.reshape(-1, d_in), w1, b1, dh, x.requires_grad)
        if dx is not None:
            x._accumulate(dx.reshape(x.shape))

    h = _gelu_value(a, _gelu_tanh(a)).reshape(*x.shape[:-1], d_ff)
    return Tensor._make(_affine(h, w2, b2), (x, w1, b1, w2, b2), backward)


def nll(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean of -log softmax(logits)[..., target] over the positions where
    ``mask`` is True, as one node that keeps only the softmax. ``targets``
    and ``mask`` have the shape ``logits.shape[:-1]``, the mask selects at
    least one position, and every target, masked ones included, is an id in
    ``[0, vocab)``; anything else is a ``ValidationError``."""
    targets, mask = np.asarray(targets), np.asarray(mask, dtype=bool)
    vocab = logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise ValidationError(
            f"target shape {targets.shape} does not match logits {logits.shape[:-1]}",
            field="targets",
        )
    if mask.shape != targets.shape:
        raise ValidationError(
            f"mask shape {mask.shape} does not match targets {targets.shape}", field="mask"
        )
    if not mask.any():
        raise ValidationError("mask selects no positions", field="mask")
    if targets.min() < 0 or targets.max() >= vocab:
        raise ValidationError(f"target id outside vocabulary of size {vocab}", field="targets")
    idx = np.expand_dims(targets, -1)
    weights = mask.astype(np.float64)
    scale = 1.0 / int(mask.sum())
    logp = _log_softmax(logits.data)
    out_data = -(np.take_along_axis(logp, idx, axis=-1).squeeze(-1) * weights).sum() * scale
    soft = np.exp(logp, out=logp)

    def backward(g):
        coef = np.expand_dims(-(g * scale) * weights, -1)
        grad = soft * -coef
        np.put_along_axis(grad, idx, np.take_along_axis(grad, idx, axis=-1) + coef, axis=-1)
        logits._accumulate(grad)

    return Tensor._make(out_data, (logits,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis, then elementwise affine."""
    # x - mu once, for the variance (as np.var computes it) and for xhat; a
    # mean is the sum divided by the count, as ndarray.mean computes it
    d = x.shape[-1]
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
    out_data = np.square(xhat)
    var = out_data.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out_data)
    out_data += bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            # (gh - mean(gh) - xhat * mean(gh * xhat)) * inv, gh = g * gain
            gh = g * gain.data
            tmp = gh * xhat
            np.multiply(xhat, tmp.mean(axis=-1, keepdims=True), out=tmp)
            gh -= gh.mean(axis=-1, keepdims=True)
            gh -= tmp
            gh *= inv
            x._accumulate(gh)

    return Tensor._make(out_data, (x, gain, bias), backward)


def take_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather for embedding lookup: out[..., :] = table[idx[...], :]."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValidationError(
            f"index out of range for table of {table.shape[0]} rows", field="idx"
        )
    out_data = table.data[idx]

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        table._accumulate(full)

    return Tensor._make(out_data, (table,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(g[tuple(sl)])

    return Tensor._make(out_data, tuple(tensors), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, pack: Packing) -> Tensor:
    """Inverted dropout of the packed rows ``pack`` lays out, with a mask
    drawn once from the supplied generator. The mask is drawn for the padded
    (B, T, d) batch and its valid rows kept, so the stream advances as it
    would for the padded batch. It keeps the boolean mask and rebuilds the
    scaled one in the backward."""
    if not 0.0 <= rate < 1.0:
        raise ValidationError("dropout rate must be in [0, 1)", field="rate")
    if rate == 0.0:
        return x
    keep = pack.unpad(rng.random((pack.batch, pack.length, x.shape[-1])) >= rate)
    out_data = x.data * (keep / (1.0 - rate))

    def backward(g):
        x._accumulate(g * (keep / (1.0 - rate)))

    return Tensor._make(out_data, (x,), backward)
