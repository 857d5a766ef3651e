"""Synthetic feature corpus with a ground-truth semantic oracle.

Each utterance is a sequence of latent symbols rendered into feature frames:
every symbol contributes a run of frames equal to its centroid plus a
per-speaker offset plus i.i.d. Gaussian noise. Because the latent symbols are
stored, semantic similarity between two utterances can be scored exactly
(bag-of-symbols cosine), which stands in for human similarity ratings.

A saved corpus is a manifest, one JSON line per utterance, and one SEMF
feature archive holding every utterance's frames in manifest order; a line's
``rows`` give its utterance's [start, stop) frames there. Externally
computed features can be ingested through the same manifest: a line without
``rows`` names a SEMF file of that utterance alone. Such corpora carry no
oracle.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterator

import numpy as np

from .errors import (
    FileFormatError,
    MissingGroundTruthError,
    PairBinningError,
    ValidationError,
)
from .fileformat import BinaryReader, read_rows, read_text, write_binary, write_text
from .random_utils import derive_rng

FEATURE_MAGIC = b"SEMF"
FEATURE_VERSION = 1
_ARCHIVE = "features.semf"  # a saved corpus's frames

DEFAULT_MAX_FRAMES = 1000

# centroid separation required relative to noise, and retry budget for
# rejection sampling on the unit sphere
_SEPARATION_FACTOR = 4.0
_MAX_CENTROID_TRIES = 500

# Fraction of utterances generated as edited variants of an earlier utterance,
# and the chance a variant is an exact symbol-level copy. Purely independent
# sequences almost never land in the high-similarity bins, so the corpus mimics
# a paraphrase-rich collection; the scored-pair sampler depends on every score
# decile being populable.
_VARIANT_PROB = 0.5
_COPY_PROB = 0.15

# candidate pairs per block, in build_scored_pairs's scoring and in the
# sampler's draw-to-key pass: at 2000 utterances a block's Gram rows and
# scores take about 2 MB each and its int32 keys 1 MB, where all 2M
# candidates at once take about 100 MB. Blocks of 2^16 cut the all-pairs
# peak to about 9.4 MiB, but freeing only smaller arrays leaves glibc's
# dynamic mmap threshold lower for what the process runs next: a later
# embed_batch then maps and faults its MB-sized arrays anew (serve's minor
# page faults rose by about 60%)
_PAIR_BLOCK = 1 << 18

_N_BINS = 10  # equal-width score bins of the scored pairs


@dataclass
class FeatureSequence:
    """A T x d matrix of real-valued frames (the stand-in for a speech signal)."""

    data: np.ndarray  # shape (T, d), float32

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 2:
            raise ValidationError("feature data must be a 2-D (T, d) matrix", field="data")
        if arr.shape[0] < 1:
            raise ValidationError("feature sequence must have at least one frame", field="n_frames")
        if arr.shape[1] < 1:
            raise ValidationError("feature dimension must be at least 1", field="dim")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("feature values must be finite", field="data")
        self.data = arr

    @classmethod
    def _checked(cls, data: np.ndarray) -> FeatureSequence:
        """A sequence over a nonempty (T, d) float32 matrix whose values its
        reader has already found finite, built without checking them again."""
        seq = cls.__new__(cls)
        seq.data = data
        return seq

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass
class Utterance:
    id: str
    speaker_id: int
    features: FeatureSequence
    symbols: list[int] | None = None  # hidden ground truth; absent for ingested data
    # per-frame symbol labels; synthetic corpora only, not persisted
    frame_symbols: list[int] | None = None


@dataclass
class SyntheticSpec:
    """Parameters of the synthetic corpus generator."""

    alphabet_size: int = 16
    feature_dim: int = 16
    frames_per_symbol_range: tuple[int, int] = (2, 5)
    n_speakers: int = 4
    speaker_offset_scale: float = 0.05
    noise_scale: float = 0.05
    utterance_len_range: tuple[int, int] = (3, 10)
    n_utterances: int = 2000
    seed: int = 0
    max_frames: int = DEFAULT_MAX_FRAMES

    def validate(self) -> None:
        if self.alphabet_size < 2:
            raise ValidationError("alphabet_size must be >= 2", field="alphabet_size")
        if self.feature_dim < 2:
            raise ValidationError("feature_dim must be >= 2", field="feature_dim")
        if self.n_speakers < 1:
            raise ValidationError("n_speakers must be >= 1", field="n_speakers")
        if self.n_utterances < 1:
            raise ValidationError("n_utterances must be >= 1", field="n_utterances")
        if self.speaker_offset_scale < 0:
            raise ValidationError("speaker_offset_scale must be >= 0", field="speaker_offset_scale")
        if self.noise_scale < 0:
            raise ValidationError("noise_scale must be >= 0", field="noise_scale")
        for name, rng_pair in (
            ("frames_per_symbol_range", self.frames_per_symbol_range),
            ("utterance_len_range", self.utterance_len_range),
        ):
            lo, hi = rng_pair
            if lo < 1 or lo > hi:
                raise ValidationError(f"{name} must satisfy 1 <= min <= max", field=name)
        if self.max_frames < 1:
            raise ValidationError("max_frames must be >= 1", field="max_frames")
        worst = self.utterance_len_range[1] * self.frames_per_symbol_range[1]
        if worst > self.max_frames:
            raise ValidationError(
                f"utterance_len_range x frames_per_symbol_range can reach {worst} frames,"
                f" above the max_frames cap of {self.max_frames}",
                field="utterance_len_range",
            )


@dataclass
class Corpus:
    utterances: list[Utterance]
    centroids: np.ndarray | None = None  # (S, d); synthetic corpora only
    _by_id: dict[str, Utterance] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._by_id = {u.id: u for u in self.utterances}
        if len(self._by_id) != len(self.utterances):
            raise ValidationError("utterance ids must be unique", field="id")

    def __len__(self) -> int:
        return len(self.utterances)

    def __getitem__(self, utt_id: str) -> Utterance:
        return self._by_id[utt_id]

    def __contains__(self, utt_id: str) -> bool:
        return utt_id in self._by_id

    def __iter__(self):
        return iter(self.utterances)

    @property
    def has_ground_truth(self) -> bool:
        return all(u.symbols is not None for u in self.utterances)


@dataclass
class ScoredPairSet:
    """Pairs of utterance ids with graded similarity scores on a 0-5 scale."""

    pairs: list[tuple[str, str, float]]
    split: str = "dev"

    def __post_init__(self):
        if self.split not in ("dev", "test"):
            raise ValidationError("split must be 'dev' or 'test'", field="split")
        seen: set[frozenset] = set()
        for a, b, score in self.pairs:
            if not 0.0 <= score <= 5.0:
                raise ValidationError(f"score {score} for ({a},{b}) outside [0,5]", field="score")
            key = frozenset((a, b))
            if key in seen:
                raise ValidationError(f"duplicate unordered pair ({a},{b})", field="pairs")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.pairs)


def _sample_centroids(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the unit sphere, rejection-sampled for separation."""
    required = _SEPARATION_FACTOR * spec.noise_scale
    for _ in range(_MAX_CENTROID_TRIES):
        pts = rng.standard_normal((spec.alphabet_size, spec.feature_dim))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        if np.any(norms == 0):
            continue
        pts /= norms
        diffs = pts[:, None, :] - pts[None, :, :]
        dists = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() > required:
            return pts
    raise ValidationError(
        f"could not place {spec.alphabet_size} centroids with pairwise distance"
        f" > {required:.4g} on the unit sphere; lower noise_scale or alphabet_size",
        field="noise_scale",
    )


def _draw_avoiding(rng: np.random.Generator, alphabet_size: int, avoid: int | None) -> int:
    while True:
        s = int(rng.integers(alphabet_size))
        if s != avoid:
            return s


def _fresh_symbols(spec: SyntheticSpec, rng: np.random.Generator) -> list[int]:
    lo_len, hi_len = spec.utterance_len_range
    n = int(rng.integers(lo_len, hi_len + 1))
    out: list[int] = []
    for _ in range(n):
        out.append(_draw_avoiding(rng, spec.alphabet_size, out[-1] if out else None))
    return out


def _fix_adjacent(symbols: list[int], spec: SyntheticSpec, rng: np.random.Generator) -> list[int]:
    # Adjacent duplicate symbols render as one indistinguishable frame run, so
    # sequences are kept free of them; collapse violations and re-pad to the
    # minimum length.
    out = [symbols[0]]
    for s in symbols[1:]:
        if s != out[-1]:
            out.append(s)
    lo_len = spec.utterance_len_range[0]
    while len(out) < lo_len:
        out.append(_draw_avoiding(rng, spec.alphabet_size, out[-1]))
    return out


def _edit_symbols(
    symbols: list[int],
    spec: SyntheticSpec,
    rng: np.random.Generator,
) -> list[int]:
    """Apply a random number of substitute/insert/delete edits, respecting
    the utterance length bounds."""
    out = list(symbols)
    if rng.random() < _COPY_PROB:
        return out
    lo_len, hi_len = spec.utterance_len_range
    n_edits = 1 + int(rng.integers(len(out)))
    for _ in range(n_edits):
        ops = ["sub"]
        if len(out) < hi_len:
            ops.append("ins")
        if len(out) > lo_len:
            ops.append("del")
        op = ops[int(rng.integers(len(ops)))]
        if op == "sub":
            pos = int(rng.integers(len(out)))
            out[pos] = int(rng.integers(spec.alphabet_size))
        elif op == "ins":
            pos = int(rng.integers(len(out) + 1))
            out.insert(pos, int(rng.integers(spec.alphabet_size)))
        else:
            pos = int(rng.integers(len(out)))
            del out[pos]
    return _fix_adjacent(out, spec, rng)


def generate_corpus(spec: SyntheticSpec) -> Corpus:
    """Deterministically render a synthetic corpus from ``spec``.

    Each utterance draws a symbol sequence (fresh, or an edited variant of an
    earlier utterance), then emits per symbol a run of frames equal to
    centroid + speaker offset + Gaussian noise.
    """
    spec.validate()
    rng = derive_rng(spec.seed, "corpus")
    centroids = _sample_centroids(spec, rng)
    speaker_offsets = spec.speaker_offset_scale * rng.standard_normal(
        (spec.n_speakers, spec.feature_dim)
    )

    lo_rep, hi_rep = spec.frames_per_symbol_range
    width = len(str(max(spec.n_utterances - 1, 1)))

    all_symbols: list[list[int]] = []
    utterances = []
    for i in range(spec.n_utterances):
        speaker = int(rng.integers(spec.n_speakers))
        if i > 0 and rng.random() < _VARIANT_PROB:
            anchor = all_symbols[int(rng.integers(i))]
            symbols = _edit_symbols(anchor, spec, rng)
        else:
            symbols = _fresh_symbols(spec, rng)
        all_symbols.append(symbols)
        frames = []
        frame_symbols: list[int] = []
        for sym in symbols:
            reps = int(rng.integers(lo_rep, hi_rep + 1))
            base = centroids[sym] + speaker_offsets[speaker]
            noise = spec.noise_scale * rng.standard_normal((reps, spec.feature_dim))
            frames.append(base[None, :] + noise)
            frame_symbols.extend([sym] * reps)
        data = np.concatenate(frames, axis=0).astype(np.float32)
        utterances.append(
            Utterance(
                id=f"utt-{i:0{width}d}",
                speaker_id=speaker,
                features=FeatureSequence(data),
                symbols=symbols,
                frame_symbols=frame_symbols,
            )
        )
    return Corpus(utterances=utterances, centroids=centroids)


def ground_truth_similarity(a: Utterance, b: Utterance) -> float:
    """Cosine similarity of the bag-of-symbols count vectors; in [0, 1]."""
    if a.symbols is None or b.symbols is None:
        missing = a.id if a.symbols is None else b.id
        raise MissingGroundTruthError(
            f"utterance {missing!r} has no ground-truth symbols; the oracle is unavailable"
        )
    ca, cb = Counter(a.symbols), Counter(b.symbols)
    dot = sum(n * cb.get(sym, 0) for sym, n in ca.items())
    if dot == 0:
        return 0.0
    sq_a = sum(n * n for n in ca.values())
    sq_b = sum(n * n for n in cb.values())
    return dot / math.sqrt(sq_a * sq_b)


def _bin_range(idx: int) -> tuple[float, float]:
    """A score bin's interval on the 0-5 scale."""
    return 5.0 * idx / _N_BINS, 5.0 * (idx + 1) / _N_BINS


def _bin_label(idx: int) -> str:
    lo, hi = _bin_range(idx)
    closer = "]" if idx == _N_BINS - 1 else ")"
    return f"[{lo:.1f}, {hi:.1f}{closer}"


def _draw_pair_keys(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Keys i*n + j, i < j, of a (size, 2) draw of items, in draw order,
    self-pairs dropped. The draw becomes keys block by block, so only the
    draw and the keys are ever whole."""
    draw = rng.integers(n, size=(size, 2))
    keys = np.empty(size, dtype=np.int64)
    count = 0
    for lo in range(0, size, _PAIR_BLOCK):
        a, b = draw[lo : lo + _PAIR_BLOCK].T
        block = (np.minimum(a, b) * n + np.maximum(a, b))[a != b]
        keys[count : count + block.size] = block
        count += block.size
    return keys[:count]


def _new_keys(keys: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The values of ``keys`` not in ``kept`` (ascending), each once, in the
    order they first occur in ``keys``."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    # a value first occurs at the first of its run in the stable sort
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    if kept.size:
        for lo in range(0, keys.size, _PAIR_BLOCK):
            part = ordered[lo : lo + _PAIR_BLOCK]
            at = np.minimum(np.searchsorted(kept, part), kept.size - 1)
            new[lo : lo + _PAIR_BLOCK] &= kept[at] != part
    # each array goes as soon as it is used: a round's peak is a few of them
    del ordered
    firsts = order[new]
    del order, new
    firsts.sort()
    return keys[firsts]


def _sample_pair_keys(rng: np.random.Generator, n: int, max_candidates: int) -> np.ndarray:
    """``max_candidates`` distinct unordered pairs of n items as sorted keys i*n + j, i < j.

    Each round draws a (max_candidates, 2) block and keeps, in draw order, the
    pairs not seen before, until ``max_candidates`` are kept.
    """
    kept = np.empty(0, dtype=np.int64)  # ascending
    while kept.size < max_candidates:
        new = _new_keys(_draw_pair_keys(rng, n, max_candidates), kept)
        kept = np.concatenate((kept, new[: max_candidates - kept.size]))
        del new
        kept.sort()
    return kept


def _cosines(dots: np.ndarray, sq_i: np.ndarray, sq_j: np.ndarray) -> np.ndarray:
    return np.where(dots == 0.0, 0.0, dots / np.sqrt(sq_i * sq_j))


def _candidate_blocks(
    counts: np.ndarray, rng: np.random.Generator, max_candidates: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Candidate pairs as (keys i*n + j, dots) blocks of about ``_PAIR_BLOCK``, keys ascending.

    Every pair when there are at most ``max_candidates``, as row blocks of the
    upper triangle of the Gram matrix; otherwise ``max_candidates`` sampled ones.
    """
    n = len(counts)
    if n * (n - 1) // 2 <= max_candidates:
        # every key is below n*n: 5e6 at the default budget's 2236 utterances
        key_type = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        cols = np.arange(n)
        rows = max(1, _PAIR_BLOCK // n)
        for lo in range(0, n - 1, rows):
            hi = min(lo + rows, n - 1)
            upper = cols > np.arange(lo, hi)[:, None]
            keys = (np.flatnonzero(upper) + lo * n).astype(key_type)
            yield keys, (counts[lo:hi] @ counts.T)[upper]
    else:
        keys = _sample_pair_keys(rng, n, max_candidates)
        # a block's two gathers of count rows take as much as _PAIR_BLOCK scores
        step = max(1, _PAIR_BLOCK // counts.shape[1])
        for lo in range(0, keys.size, step):
            block = keys[lo : lo + step]
            yield block, np.einsum("ij,ij->i", counts[block // n], counts[block % n])


@dataclass
class PairCandidates:
    """One corpus's candidate pairs, scored and binned by the first
    ``build_scored_pairs`` call given this holder, for later calls on the
    same corpus to draw from without scoring them again.

    Only a corpus whose every pair is a candidate is kept: those candidates
    take no random draws, so every split sees the same ones, where sampled
    candidates come from the split's own generator. A draw shuffles copies
    and leaves the kept bins as the scoring made them.
    """

    corpus: Corpus | None = None
    # the count matrix, its rows' squared norms and the bins of keys
    scored: tuple[np.ndarray, np.ndarray, list[np.ndarray]] | None = None


def _symbol_counts(utts: list[Utterance]) -> tuple[np.ndarray, np.ndarray]:
    """The bag-of-symbols count matrix and each row's squared norm.

    Counts are small integers, so float64 dot products are exact in any
    summation order and the vectorized cosine matches
    ground_truth_similarity bit for bit.
    """
    n_symbols = 1 + max(max(u.symbols) for u in utts)
    counts = np.zeros((len(utts), n_symbols), dtype=np.float64)
    for row, u in enumerate(utts):
        for sym in u.symbols:
            counts[row, sym] += 1.0
    return counts, np.einsum("ij,ij->i", counts, counts)


def _binned_candidates(
    counts: np.ndarray, sq: np.ndarray, rng: np.random.Generator, max_candidates: int
) -> list[np.ndarray]:
    """The candidates' keys in ten equal-width score bins over [0, 1], the
    top bin closed, each bin ascending; an empty bin is a PairBinningError."""
    n = len(counts)
    parts: list[list[np.ndarray]] = [[] for _ in range(_N_BINS)]
    for keys, dots in _candidate_blocks(counts, rng, max_candidates):
        scores = _cosines(dots, sq[keys // n], sq[keys % n])
        bin_of = np.minimum((scores * _N_BINS).astype(np.int8), _N_BINS - 1)
        # a stable sort by bin keeps each bin's keys ascending
        order = np.argsort(bin_of, kind="stable")
        bounds = np.cumsum(np.bincount(bin_of, minlength=_N_BINS))[:-1]
        for k, part in enumerate(np.split(keys[order], bounds)):
            parts[k].append(part)
    bins = []
    for part in parts:
        bins.append(np.concatenate(part))
        part.clear()

    populated = [k for k in range(_N_BINS) if bins[k].size]
    for k in range(_N_BINS):
        if not bins[k].size:
            only = ", ".join(_bin_label(p) for p in populated)
            raise PairBinningError(
                f"score bin {_bin_label(k)} has no candidate pairs (populable: {only})",
                bin_range=_bin_range(k),
            )
    return bins


def _draw_binned(bins: list[np.ndarray], n_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """Keys of ``n_pairs`` pairs, a tenth from each bin where it can give
    them and the rest borrowed from the nearest bins, as a new array; the
    bins are left as they are.

    Raises when a bin's deficit cannot be borrowed or when the pairs taken
    from a bin deviate more than 20% from n_pairs/10.
    """
    # the shuffle's draws depend only on a bin's length, so a bin of keys
    # shuffles into the same permutation as a list of its pairs. Each bin is
    # shuffled as an int64 copy, one bin at a time, as numpy shuffles 8-byte
    # items on a fast path (2M keys: 27 ms, against 51 ms for int32 keys
    # shuffled in place and sorted back, on a 2-vCPU VM). A draw reaches at
    # most n_pairs into a bin.
    heads = []
    for b in bins:
        shuffled = b.astype(np.int64)
        rng.shuffle(shuffled)
        heads.append(shuffled[:n_pairs].copy())
        del shuffled

    base, rem = divmod(n_pairs, _N_BINS)
    quotas = [base + (1 if k < rem else 0) for k in range(_N_BINS)]
    # pairs taken from the head of each shuffled bin, for itself or a neighbour
    used = [min(q, h.size) for q, h in zip(quotas, heads)]
    taken = [[h[:u]] for h, u in zip(heads, used)]

    # borrow for deficit bins from the nearest bins that still have candidates
    for k in range(_N_BINS):
        deficit = quotas[k] - taken[k][0].size
        for dist in range(1, _N_BINS):
            for nb in (k - dist, k + dist):
                if deficit > 0 and 0 <= nb < _N_BINS and used[nb] < heads[nb].size:
                    grab = min(deficit, heads[nb].size - used[nb])
                    taken[k].append(heads[nb][used[nb] : used[nb] + grab])
                    used[nb] += grab
                    deficit -= grab
        if deficit > 0:
            raise PairBinningError(
                f"score bin {_bin_label(k)} cannot be filled: {deficit} pairs short"
                " even after borrowing from neighbors",
                bin_range=_bin_range(k),
            )

    target = n_pairs / _N_BINS
    for k in range(_N_BINS):
        if abs(used[k] - target) > 0.2 * target + 1e-9:
            raise PairBinningError(
                f"emitted count {used[k]} in score bin {_bin_label(k)} deviates more than"
                f" 20% from the target {target:.1f}",
                bin_range=_bin_range(k),
            )
    return np.concatenate([part for bucket in taken for part in bucket])


def build_scored_pairs(
    corpus: Corpus,
    n_pairs: int,
    seed: int,
    split: str = "dev",
    max_candidates: int = 2_500_000,
    candidates: PairCandidates | None = None,
) -> ScoredPairSet:
    """Stratify oracle-scored pairs into ten equal-width score bins.

    Candidate pairs are sampled, scored with the oracle, and drawn from each
    bin as evenly as possible; small deficits are borrowed from the nearest
    bins. Raises when a bin has no candidates or when the emitted histogram
    deviates more than 20% from n_pairs/10 in any bin.

    With ``candidates``, calls on one corpus whose every pair is a
    candidate score them once and each draw its own split from them; the
    pairs are those of a call without it.
    """
    if n_pairs < 10:
        raise ValidationError("n_pairs must be >= 10", field="n_pairs")
    if not corpus.has_ground_truth:
        raise MissingGroundTruthError("corpus has no ground-truth symbols; cannot score pairs")

    rng = derive_rng(seed, "pairs", split)
    n = len(corpus)
    utts = corpus.utterances
    total_pairs = n * (n - 1) // 2
    if total_pairs < n_pairs:
        raise ValidationError(
            f"corpus of {n} utterances admits only {total_pairs} pairs, fewer than {n_pairs}",
            field="n_pairs",
        )

    shared = candidates is not None and total_pairs <= max_candidates
    if shared and candidates.corpus is corpus:
        counts, sq, bins = candidates.scored
    else:
        counts, sq = _symbol_counts(utts)
        bins = _binned_candidates(counts, sq, rng, max_candidates)
        if shared:
            candidates.corpus, candidates.scored = corpus, (counts, sq, bins)
    emitted = _draw_binned(bins, n_pairs, rng)

    iu, ju = emitted // n, emitted % n
    scores = _cosines(np.einsum("ij,ij->i", counts[iu], counts[ju]), sq[iu], sq[ju])
    pairs = [
        (utts[i].id, utts[j].id, 5.0 * s)
        for i, j, s in zip(iu.tolist(), ju.tolist(), scores.tolist())
    ]
    return ScoredPairSet(pairs=pairs, split=split)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_features(path: str | Path, *seqs: FeatureSequence) -> None:
    """SEMF format: magic, version u16, T u32, d u32, T*d float32 LE row-major.

    The frames of ``seqs``, one or more sequences of one dimension, go back
    to back, written one sequence at a time with no joined copy.
    """
    dims = {fs.dim for fs in seqs}
    if len(dims) != 1:
        raise ValidationError(
            "SEMF frames need at least one sequence, all of one feature dimension", field="dim"
        )
    n_frames = sum(fs.n_frames for fs in seqs)
    write_binary(path, FEATURE_MAGIC, FEATURE_VERSION, (n_frames, *dims),
                 arrays=(fs.data for fs in seqs))


@contextmanager
def _feature_file(path: str | Path) -> Iterator[BinaryReader]:
    """An open SEMF file whose header and payload length are checked;
    ``fields`` are its (frames, dim)."""
    with BinaryReader(path, FEATURE_MAGIC, FEATURE_VERSION, n_fields=2) as reader:
        n_frames, dim = reader.fields
        if n_frames < 1:
            raise FileFormatError("feature file declares 0 frames", offset=6)
        if dim < 1:
            raise FileFormatError("feature file declares 0 dimensions", offset=10)
        reader.expect_payload(4 * n_frames * dim)
        yield reader


def read_features(path: str | Path) -> FeatureSequence:
    """Every frame of a SEMF file."""
    with _feature_file(path) as reader:
        n_frames, dim = reader.fields
        data = reader.floats(n_frames * dim, "feature frames")
    return FeatureSequence._checked(data.reshape(n_frames, dim))



def save_corpus(corpus: Corpus, out_dir: str | Path) -> Path:
    """Write ``manifest.jsonl`` and ``features.semf``; returns the manifest's path.

    The archive is one SEMF file of every utterance's frames in manifest
    order, and each manifest line's ``rows`` give its utterance's [start,
    stop) rows there. The utterances must share one feature dimension.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_features(out_dir / _ARCHIVE, *(u.features for u in corpus.utterances))
    lines = []
    start = 0
    for u in corpus.utterances:
        stop = start + u.features.n_frames
        record = {"id": u.id, "speaker": u.speaker_id, "path": _ARCHIVE, "rows": [start, stop]}
        if u.symbols is not None:
            record["symbols"] = u.symbols
        lines.append(json.dumps(record, sort_keys=True) + "\n")
        start = stop
    manifest = out_dir / "manifest.jsonl"
    write_text(manifest, "".join(lines))
    return manifest


def _manifest_fault(rec) -> str | None:
    """What is wrong with one parsed manifest line, if anything."""
    if type(rec) is not dict:
        return "is not a JSON object"
    for key, kind in (("id", str), ("speaker", int), ("path", str)):
        if key not in rec:
            return f"missing key {key!r}"
        if type(rec[key]) is not kind:
            return f"key {key!r} is not a JSON {kind.__name__}"
    # ids are written unescaped into the TSV artifacts
    if any(c in rec["id"] for c in "\t\r\n"):
        return f"key 'id' holds a tab or line break: {rec['id']!r}"
    symbols = rec.get("symbols", [])
    if type(symbols) is not list or any(type(s) is not int for s in symbols):
        return "key 'symbols' is not a list of ints"
    rows = rec.get("rows")
    if "rows" in rec and not (
        type(rows) is list and len(rows) == 2 and all(type(r) is int for r in rows)
    ):
        return "key 'rows' is not a list of two ints"
    return None


def load_corpus(corpus_dir: str | Path, ids: Collection[str] | None = None) -> Corpus:
    """The corpus a manifest describes. Every manifest line is parsed and
    checked, ids must be unique and there must be at least one; with
    ``ids``, only those utterances are kept, in manifest order.

    Only the kept lines' frames are read, each into its utterance's own
    array. Consecutive kept lines that name one feature file share one open
    of it, whose header and length are checked once. A line without
    ``rows`` is its whole file; a range that is empty, reversed or past its
    file's frames is a ``FileFormatError`` naming the line.
    """
    corpus_dir = Path(corpus_dir)
    manifest = corpus_dir / "manifest.jsonl"
    if not manifest.exists():
        raise FileFormatError(f"no manifest.jsonl in {corpus_dir}")
    utterances = []
    seen: set[str] = set()
    with ExitStack() as feature_file:
        path = reader = None
        for line_no, line in enumerate(read_text(manifest).split("\n"), 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise FileFormatError(f"manifest line {line_no} is not valid JSON: {e}") from e
            fault = _manifest_fault(rec)
            if fault:
                raise FileFormatError(f"manifest line {line_no} {fault}")
            if rec["id"] in seen:
                raise ValidationError("utterance ids must be unique", field="id")
            seen.add(rec["id"])
            if ids is not None and rec["id"] not in ids:
                continue
            if rec["path"] != path:
                feature_file.close()
                path = rec["path"]
                reader = feature_file.enter_context(_feature_file(corpus_dir / path))
            n_frames, dim = reader.fields
            start, stop = rec.get("rows", (0, n_frames))
            if not 0 <= start < stop <= n_frames:
                raise FileFormatError(
                    f"manifest line {line_no} rows [{start}, {stop}] are not a nonempty"
                    f" range of the {n_frames} frames in {path}"
                )
            reader.offset = reader.payload_at + 4 * start * dim
            data = reader.floats((stop - start) * dim, f"frames of {rec['id']!r}")
            utterances.append(
                Utterance(
                    id=rec["id"],
                    speaker_id=rec["speaker"],
                    features=FeatureSequence._checked(data.reshape(stop - start, dim)),
                    symbols=rec.get("symbols"),
                )
            )
    if not seen:
        raise FileFormatError(f"{manifest} lists no utterances")
    return Corpus(utterances=utterances)


_PAIRS_HEADER = ("id_a", "id_b", "score")


def save_scored_pairs(pairs: ScoredPairSet, path: str | Path) -> None:
    lines = ["\t".join(_PAIRS_HEADER)] + [f"{a}\t{b}\t{s:.6f}" for a, b, s in pairs.pairs]
    write_text(path, "\n".join(lines) + "\n")


def load_scored_pairs(path: str | Path, split: str = "dev") -> ScoredPairSet:
    pairs = []
    for line_no, (a, b, score) in read_rows(path, 3, header=_PAIRS_HEADER):
        try:
            pairs.append((a, b, float(score)))
        except ValueError as e:
            raise FileFormatError(f"{path} line {line_no}: bad score {score!r}") from e
    return ScoredPairSet(pairs=pairs, split=split)
