"""Acoustic unit discovery: k-means over frames, frame labeling, and
consecutive-duplicate merging into hidden-unit sequences."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, FeatureSequence
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
    # rows with |x|^2 ``sq``, centroids as _centroid_terms; clamp tiny
    # negatives from cancellation
    twice_t, c_sq = terms
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
    one sequential order.
    """
    dim = frames.shape[1]
    cells = np.arange(k * dim)
    sums = np.zeros(k * dim)
    for lo in range(0, frames.shape[0], _SUM_BLOCK):
        rows = slice(lo, lo + _SUM_BLOCK)
        bins = (labels[rows, None] * dim + np.arange(dim)).ravel()
        sums = np.bincount(
            np.concatenate((cells, bins)),
            weights=np.concatenate((sums, frames[rows].ravel())),
            minlength=k * dim,
        )
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


def train_kmeans(
    frames: np.ndarray,
    k: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
    max_training_frames: int | None = None,
) -> Codebook:
    """Lloyd's algorithm with k-means++ initialization, deterministic per seed.

    Stops at max_iters or when relative inertia improvement drops below tol.
    Empty clusters are reseeded to the point farthest from its centroid.
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

    rng = derive_rng(seed, "kmeans", k)
    if max_training_frames is not None and frames.shape[0] > max_training_frames:
        pick = rng.choice(frames.shape[0], size=max_training_frames, replace=False)
        frames = frames[np.sort(pick)]

    n_distinct = _count_distinct_rows(frames)
    if n_distinct < k:
        raise ValidationError(
            f"need at least {k} distinct frames, got {n_distinct}", field="frames"
        )

    n = frames.shape[0]
    sq = np.einsum("ij,ij->i", frames, frames)
    centroids = _kmeans_pp_init(frames, sq, k, rng)
    labels = np.empty(n, dtype=np.intp)
    assigned_d2 = np.empty(n, dtype=np.float64)
    history: list[float] = []
    prev_inertia = np.inf
    for _ in range(max_iters):
        # row blocks keep each (block, k) distance matrix in cache; every
        # row's values are the same as from one (n, k) pass
        terms = _centroid_terms(centroids)
        for lo in range(0, n, _LLOYD_BLOCK):
            rows = slice(lo, lo + _LLOYD_BLOCK)
            block_labels = np.argmin(_sq_dists(frames[rows], sq[rows], terms), axis=1)
            labels[rows] = block_labels
            # direct differences: the expanded form suffers cancellation
            resid = centroids[block_labels]
            np.subtract(frames[rows], resid, out=resid)
            assigned_d2[rows] = np.einsum("ij,ij->i", resid, resid)
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
        centroids = _cluster_sums(frames, labels, k) / np.maximum(counts, 1)[:, None]
        for c in np.flatnonzero(counts == 0):
            far = int(np.argmax(assigned_d2))
            logger.info("kmeans: reseeding empty cluster %d to frame %d", c, far)
            centroids[c] = frames[far]

    return Codebook(centroids=centroids, inertia_history=history)


def assign(fs: FeatureSequence | np.ndarray, cb: Codebook) -> np.ndarray:
    """Nearest-centroid label per frame; ties break to the lowest index."""
    frames = fs.data if isinstance(fs, FeatureSequence) else np.asarray(fs)
    frames = frames.astype(np.float64)
    if frames.ndim != 2:
        raise ValidationError("frames must be a (T, d) matrix", field="frames")
    if frames.shape[1] != cb.dim:
        raise ValidationError(
            f"feature dim {frames.shape[1]} does not match codebook dim {cb.dim}",
            field="dim",
        )
    # np.argmin returns the first minimum, which is the lowest centroid index
    sq = np.einsum("ij,ij->i", frames, frames)
    return np.argmin(_sq_dists(frames, sq, _centroid_terms(cb.centroids)), axis=1)


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
    out = []
    for u in corpus.utterances:
        try:
            labels = assign(u.features, cb)
            out.append(deduplicate(labels, source_id=u.id))
        except ValidationError as e:
            raise ValidationError(f"utterance {u.id!r}: {e}", field=e.field) from e
    return out


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_codebook(path: str | Path, cb: Codebook) -> None:
    """SEMK format: magic, version u16, k u32, d u32, k*d float32 LE row-major."""
    write_binary(path, CODEBOOK_MAGIC, CODEBOOK_VERSION, (cb.k, cb.dim), arrays=[cb.centroids])


def read_codebook(path: str | Path) -> Codebook:
    reader = BinaryReader(path, CODEBOOK_MAGIC, CODEBOOK_VERSION, n_fields=2)
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
