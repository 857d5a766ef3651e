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


def _row_terms(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The centroid-free terms of |x-c|^2 = |x|^2 - 2 x.c + |c|^2, per row: (2x, |x|^2)."""
    return 2.0 * frames, np.einsum("ij,ij->i", frames, frames)


def _sq_dists(twice: np.ndarray, sq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # rows given as _row_terms; clamp tiny negatives from cancellation
    d2 = twice @ centroids.T
    np.subtract(sq[:, None], d2, out=d2)
    np.add(d2, np.einsum("ij,ij->i", centroids, centroids), out=d2)
    return np.maximum(d2, 0.0, out=d2)


def _kmeans_pp_init(
    frames: np.ndarray,
    twice: np.ndarray,
    sq: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    n = frames.shape[0]
    centroids = np.empty((k, frames.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = frames[first]
    closest = _sq_dists(twice, sq, centroids[:1]).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            # all remaining mass at existing centroids; pick any unused point
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[c] = frames[idx]
        d_new = _sq_dists(twice, sq, centroids[c : c + 1]).ravel()
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

    n_distinct = np.unique(frames, axis=0).shape[0]
    if n_distinct < k:
        raise ValidationError(
            f"need at least {k} distinct frames, got {n_distinct}", field="frames"
        )

    n, dim = frames.shape
    twice, sq = _row_terms(frames)
    centroids = _kmeans_pp_init(frames, twice, sq, k, rng)
    labels = np.empty(n, dtype=np.intp)
    assigned_d2 = np.empty(n, dtype=np.float64)
    history: list[float] = []
    prev_inertia = np.inf
    for _ in range(max_iters):
        # row blocks keep each (block, k) distance matrix in cache; every
        # row's values are the same as from one (n, k) pass
        for lo in range(0, n, _LLOYD_BLOCK):
            rows = slice(lo, lo + _LLOYD_BLOCK)
            block_labels = np.argmin(_sq_dists(twice[rows], sq[rows], centroids), axis=1)
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
        bins = (labels[:, None] * dim + np.arange(dim)).ravel()
        sums = np.bincount(bins, weights=frames.ravel(), minlength=k * dim).reshape(k, dim)
        centroids = sums / np.maximum(counts, 1)[:, None]
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
    return np.argmin(_sq_dists(*_row_terms(frames), cb.centroids), axis=1)


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
