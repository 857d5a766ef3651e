"""Acoustic unit discovery: k-means over frames, frame labeling, and
consecutive-duplicate merging into hidden-unit sequences."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .errors import FileFormatError, ValidationError
from .fileformat import BinaryReader, read_id_ints, write_binary, write_id_ints
from .random_utils import derive_rng

logger = logging.getLogger(__name__)

CODEBOOK_MAGIC = b"SEMK"
CODEBOOK_VERSION = 1

# frames per block of the Lloyd assignment pass: a (block, k) float64 distance
# matrix stays in cache at k of a few hundred
_LLOYD_BLOCK = 1024
# frames per block of the centroid sums: 2048 rows of 16 dimensions take
# 0.25 MiB of bin ids
_SUM_BLOCK = 2048
# rows of the prefix whose distinct count settles the k-distinct-frames check
_DISTINCT_PREFIX_PER_K = 8
_EPS = np.finfo(np.float64).eps
# the smallest normal float64: covers the absolute error of underflowed terms
_TINY = np.finfo(np.float64).tiny


@dataclass
class Codebook:
    centroids: np.ndarray  # (k, d) float
    inertia_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        arr = np.asarray(self.centroids, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError("centroids must be a (k, d) matrix", field="centroids")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("centroids must be finite", field="centroids")
        self.centroids = arr
        for prev, cur in zip(self.inertia_history, self.inertia_history[1:]):
            if cur > prev + 1e-9 * max(abs(prev), 1.0):
                raise ValidationError(
                    "inertia_history must be non-increasing", field="inertia_history"
                )

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


@dataclass
class UnitSequence:
    units: list[int]
    source_id: str

    def __post_init__(self):
        if len(self.units) < 1:
            raise ValidationError("unit sequence must be non-empty", field="units")
        for a, b in zip(self.units, self.units[1:]):
            if a == b:
                raise ValidationError(
                    f"unit sequence {self.source_id!r} has consecutive equal ids",
                    field="units",
                )


def _centroid_terms(centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frame-free terms of |x-c|^2 = |x|^2 - 2 x.c + |c|^2: (2c transposed, |c|^2).

    The product takes the doubled centroids, not doubled frames: scaling one
    operand by two scales every product and partial sum of the same kernel
    exactly, so each distance has the bits of (2x).c without a doubled copy
    of the frames. That holds while no product leaves the normal float64
    range, which values read from float32 features cannot.
    """
    return (2.0 * centroids).T, np.einsum("ij,ij->i", centroids, centroids)


def _sq_dists(
    frames: np.ndarray, sq: np.ndarray, terms: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """(n, k) squared distances of rows with |x|^2 ``sq`` to centroids given
    as _centroid_terms, tiny negatives from cancellation clamped to 0.

    A lone row runs as a pair: numpy sends a one-row product to a
    matrix-vector kernel whose sums differ from the GEMM's, so a row gets the
    bits it gets as one row of a larger product."""
    twice_t, c_sq = terms
    if frames.shape[0] == 1:
        d2 = (np.concatenate([frames, frames]) @ twice_t)[:1]
    else:
        d2 = frames @ twice_t
    np.subtract(sq[:, None], d2, out=d2)
    np.add(d2, c_sq, out=d2)
    return np.maximum(d2, 0.0, out=d2)


def _count_distinct_rows(frames: np.ndarray) -> int:
    """``np.unique(frames, axis=0).shape[0]`` without a copy of the frames:
    each row is viewed as a record of float fields, which sort and compare
    as ``np.unique`` compares them (so -0.0 equals 0.0), and neighbours in
    sorted order are compared a block at a time."""
    n, dim = frames.shape
    if dim == 0:
        return min(n, 1)  # a record view needs a field; every row is the empty row
    records = np.ascontiguousarray(frames).view([("", frames.dtype)] * dim).ravel()
    order = np.argsort(records)
    repeats = 0
    for lo in range(1, n, _LLOYD_BLOCK):
        here = order[lo : lo + _LLOYD_BLOCK]
        before = order[lo - 1 : lo - 1 + here.size]
        repeats += int(np.count_nonzero(records[here] == records[before]))
    return n - repeats


def _cluster_sums(frames: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(k, d) sums of the frames per cluster, each cell added in row order
    from 0.0, as one np.bincount over all n*d cells adds them.

    Rows go in blocks, so the bin ids take one block's memory. Each block's
    bincount takes the running sums as its first weights: 0.0 + s == s for
    any sum that starts at 0.0 (it is never -0.0), so every cell keeps the
    one sequential order. Every block writes its bin ids and weights into
    two buffers made once per call; fresh arrays per block took 2.4 times as
    long at k=100 over 16 dimensions.
    """
    dim = frames.shape[1]
    cells = k * dim
    bins = np.empty(cells + _SUM_BLOCK * dim, dtype=np.intp)
    bins[:cells] = np.arange(cells)
    weights = np.empty(bins.size)
    sums = np.zeros(cells)
    for lo in range(0, frames.shape[0], _SUM_BLOCK):
        rows = slice(lo, lo + _SUM_BLOCK)
        end = cells + frames[rows].size
        np.add(labels[rows, None] * dim, np.arange(dim), out=bins[cells:end].reshape(-1, dim))
        weights[:cells] = sums
        weights[cells:end] = frames[rows].ravel()
        sums = np.bincount(bins[:end], weights=weights[:end], minlength=cells)
    return sums.reshape(k, dim)


def _kmeans_pp_init(
    frames: np.ndarray,
    sq: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    n = frames.shape[0]
    centroids = np.empty((k, frames.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = frames[first]
    closest = _sq_dists(frames, sq, _centroid_terms(centroids[:1])).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            # all remaining mass at existing centroids; pick any unused point
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[c] = frames[idx]
        d_new = _sq_dists(frames, sq, _centroid_terms(centroids[c : c + 1])).ravel()
        closest = np.minimum(closest, d_new)
    return centroids


def _direct_sq_dists(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    # direct differences: the expanded form suffers cancellation
    resid = centroids[labels]
    np.subtract(x, resid, out=resid)
    return np.einsum("ij,ij->i", resid, resid)


def _assign_block(
    x: np.ndarray,
    sq: np.ndarray,
    centroids: np.ndarray,
    terms: tuple[np.ndarray, np.ndarray],
    err: np.ndarray,
    labels: np.ndarray,
    lower: np.ndarray,
    assigned_d2: np.ndarray,
) -> int:
    """One block of the bounded assignment pass, in place on the block's
    ``labels``, ``lower`` bounds and ``assigned_d2``. ``err`` bounds each
    frame's expanded-form distance error. Returns how many frames took the
    full pass."""
    d2 = _direct_sq_dists(x, centroids, labels)
    # with the margin, no other centroid's computed distance can reach the
    # frame's own, so neither the clamp at 0 nor a tie can move its label
    redo = np.flatnonzero(d2 + 2.0 * err >= np.square(lower))
    if redo.size:
        dists = _sq_dists(x[redo], sq[redo], terms)
        near = np.argmin(dists, axis=1)
        dists[np.arange(redo.size), near] = np.inf
        lower[redo] = np.sqrt(np.maximum(dists.min(axis=1) - err[redo], 0.0))
        del dists
        moved = redo[near != labels[redo]]
        labels[redo] = near
        d2[moved] = _direct_sq_dists(x[moved], centroids, labels[moved])
    assigned_d2[:] = d2
    return redo.size


def train_kmeans(
    frames: np.ndarray,
    k: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
) -> Codebook:
    """Lloyd's algorithm with k-means++ initialization, deterministic per seed.

    Stops at max_iters or when relative inertia improvement drops below tol.
    Empty clusters are reseeded to the point farthest from its centroid.

    The assignment pass is bounded, as in Hamerly, "Making k-means even
    faster" (SDM 2010). Each frame keeps a lower bound on its distance to
    every centroid but its own, which shrinks by the largest centroid move
    after each update. A frame keeps its label without the distance product
    when its direct squared distance to its own centroid, plus twice the
    error bound of the computed distances, is below the square of that
    bound; any other frame takes the full pass, which also renews its bound.
    The first pass takes every frame. Labels, centroids and inertia are
    plain Lloyd's bit for bit, as long as the BLAS gives a row the same bits
    in every product of two or more rows (OpenBLAS does at the corpus's 16
    dimensions). An INFO line logs the share of frame assignments that took
    the full pass.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValidationError("frames must be a (n, d) matrix", field="frames")
    if k < 1:
        raise ValidationError("k must be >= 1", field="k")
    if tol < 0:
        raise ValidationError("tol must be >= 0", field="tol")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1", field="max_iters")
    sq = np.einsum("ij,ij->i", frames, frames)
    if not np.all(np.isfinite(sq)):
        bad = int(np.flatnonzero(~np.isfinite(sq))[0])
        raise ValidationError(
            f"frame {bad} or its squared norm is not finite", field="frames"
        )

    rng = derive_rng(seed, "kmeans", k)
    # k distinct rows in a prefix settle it; only a shortfall counts them all
    if _count_distinct_rows(frames[: _DISTINCT_PREFIX_PER_K * k]) < k:
        n_distinct = _count_distinct_rows(frames)
        if n_distinct < k:
            raise ValidationError(
                f"need at least {k} distinct frames, got {n_distinct}", field="frames"
            )

    n, dim = frames.shape
    centroids = _kmeans_pp_init(frames, sq, k, rng)
    labels = np.zeros(n, dtype=np.int32)
    lower = np.zeros(n)  # 0 sends every frame through the first full pass
    assigned_d2 = np.empty(n, dtype=np.float64)
    # The expanded form's error is at most about (d+2)*eps*(|x|^2 + max|c|^2)
    # (Higham's bound for the dot products and norms, plus the two additions).
    # 64 times that also covers the rounding of the direct distance, of a
    # fresh bound and of the skip test, none of which exceeds a few ulps of
    # 2*(|x|^2 + max|c|^2).
    rel = 64 * (dim + 2) * _EPS
    history: list[float] = []
    prev_inertia = np.inf
    full_rows = 0
    for _ in range(max_iters):
        # row blocks keep each (block, k) distance matrix in cache
        terms = _centroid_terms(centroids)
        c_sq_max = terms[1].max()
        for lo in range(0, n, _LLOYD_BLOCK):
            rows = slice(lo, lo + _LLOYD_BLOCK)
            err = rel * (sq[rows] + c_sq_max) + _TINY
            full_rows += _assign_block(
                frames[rows], sq[rows], centroids, terms, err,
                labels[rows], lower[rows], assigned_d2[rows],
            )
        inertia = float(assigned_d2.sum())
        history.append(inertia)

        if inertia == 0.0:
            break
        if np.isfinite(prev_inertia):
            improvement = (prev_inertia - inertia) / max(prev_inertia, 1e-12)
            if improvement < tol:
                break
        prev_inertia = inertia

        # per-(cluster, dimension) sums, added in row order like a mean over axis 0
        counts = np.bincount(labels, minlength=k)
        new = _cluster_sums(frames, labels, k) / np.maximum(counts, 1)[:, None]
        for c in np.flatnonzero(counts == 0):
            far = int(np.argmax(assigned_d2))
            logger.info("kmeans: reseeding empty cluster %d to frame %d", c, far)
            new[c] = frames[far]
        # every bound shrinks by the largest centroid move, rounded up, and is
        # then rounded down itself; a negative bound would square to a positive
        move = new - centroids
        step = np.sqrt(np.einsum("ij,ij->i", move, move).max() + dim * _TINY)
        np.subtract(lower, step * (1.0 + rel), out=lower)
        np.multiply(lower, 1.0 - _EPS, out=lower)
        np.maximum(lower, 0.0, out=lower)
        centroids = new

    logger.info(
        "kmeans: %d iterations over %d frames; %.1f%% of frame assignments "
        "took the full distance pass",
        len(history), n, 100.0 * full_rows / (n * len(history)),
    )
    return Codebook(centroids=centroids, inertia_history=history)


def _nearest(frames: np.ndarray, terms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    # np.argmin returns the first minimum, which is the lowest centroid index
    sq = np.einsum("ij,ij->i", frames, frames)
    return np.argmin(_sq_dists(frames, sq, terms), axis=1)


def deduplicate(labels: np.ndarray | list[int], source_id: str = "") -> UnitSequence:
    """Collapse runs of equal adjacent ids, preserving order."""
    seq = [int(x) for x in labels]
    if not seq:
        raise ValidationError("cannot deduplicate an empty label sequence", field="labels")
    out = [seq[0]]
    for x in seq[1:]:
        if x != out[-1]:
            out.append(x)
    return UnitSequence(units=out, source_id=source_id)


def quantize_corpus(corpus: Corpus, cb: Codebook) -> list[UnitSequence]:
    """Each utterance's frames labelled with their nearest centroid, ties
    going to the lowest index, with runs merged. Consecutive utterances
    share one distance product of about _LLOYD_BLOCK frames; only one
    block's frames are copied at a time."""
    terms = _centroid_terms(cb.centroids)
    utts = corpus.utterances
    out = []
    start = 0
    while start < len(utts):
        stop, n_frames = start, 0
        while stop < len(utts) and n_frames < _LLOYD_BLOCK:
            u = utts[stop]
            if u.features.dim != cb.dim:
                raise ValidationError(
                    f"utterance {u.id!r}: feature dim {u.features.dim} does not "
                    f"match codebook dim {cb.dim}",
                    field="dim",
                )
            n_frames += u.features.n_frames
            stop += 1
        block = utts[start:stop]
        frames = np.concatenate([u.features.data for u in block], axis=0, dtype=np.float64)
        labels = _nearest(frames, terms)
        ends = np.cumsum([u.features.n_frames for u in block[:-1]])
        out.extend(
            deduplicate(lab, source_id=u.id) for u, lab in zip(block, np.split(labels, ends))
        )
        start = stop
    return out


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_codebook(path: str | Path, cb: Codebook) -> None:
    """SEMK format: magic, version u16, k u32, d u32, k*d float32 LE row-major."""
    write_binary(path, CODEBOOK_MAGIC, CODEBOOK_VERSION, (cb.k, cb.dim), arrays=[cb.centroids])


def read_codebook(path: str | Path) -> Codebook:
    with BinaryReader(path, CODEBOOK_MAGIC, CODEBOOK_VERSION, n_fields=2) as reader:
        k, d = reader.fields
        if k < 1:
            raise FileFormatError("codebook declares 0 centroids", offset=6)
        if d < 1:
            raise FileFormatError("codebook declares 0 dimensions", offset=10)
        reader.expect_payload(4 * k * d)
        data = reader.floats(k * d, "centroids")
    return Codebook(centroids=data.reshape(k, d).astype(np.float64))


def save_unit_corpus(units: list[UnitSequence], path: str | Path) -> None:
    """One line per utterance: `<id><TAB><space-separated unit ids>`."""
    write_id_ints(path, ((seq.source_id, seq.units) for seq in units))


def load_unit_corpus(path: str | Path) -> list[UnitSequence]:
    return read_id_ints(path, UnitSequence)
