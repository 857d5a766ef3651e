"""Embedding-quality measurement: rank correlation and geometry.

Everything here is a pure function over vectors; models enter only through an
`embed` callable, so any encoder can be scored the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .corpus import ScoredPairSet
from .errors import FileFormatError, MissingGroundTruthError, ValidationError
from .fileformat import read_text, write_text

POSITIVE_THRESHOLD = 4.0


def average_ranks(xs: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they cover."""
    xs = np.asarray(xs, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(len(xs))
    sorted_vals = xs[order]
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or ys.ndim != 1 or len(xs) != len(ys):
        raise ValidationError("inputs must be 1-D sequences of equal length", field="xs")
    if len(xs) < 2:
        raise ValidationError("need at least 2 observations", field="xs")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ValidationError(
            "rank correlation is undefined for a constant input", field="xs"
        )
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    rxc = rx - rx.mean()
    ryc = ry - ry.mean()
    return float((rxc @ ryc) / math.sqrt((rxc @ rxc) * (ryc @ ryc)))


def l2_normalize(vectors: np.ndarray) -> np.ndarray:
    arr = np.asarray(vectors, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    norms = np.sqrt((arr * arr).sum(axis=1))
    if np.any(norms == 0.0):
        raise ValidationError("cannot normalize a zero vector", field="vectors")
    out = arr / norms[:, None]
    return out[0] if single else out


def alignment(
    embeddings: Mapping[str, np.ndarray],
    pairs: ScoredPairSet,
    pos_threshold: float = POSITIVE_THRESHOLD,
) -> float:
    """Mean squared distance between normalized embeddings of positive pairs."""
    total, count = 0.0, 0
    for id_a, id_b, score in pairs.pairs:
        if score < pos_threshold:
            continue
        for utt_id in (id_a, id_b):
            if utt_id not in embeddings:
                raise MissingGroundTruthError(f"no embedding for utterance {utt_id!r}")
        ea = l2_normalize(embeddings[id_a])
        eb = l2_normalize(embeddings[id_b])
        diff = ea - eb
        total += float(diff @ diff)
        count += 1
    if count == 0:
        raise ValidationError(
            f"no pairs score at or above the positive threshold {pos_threshold}",
            field="pos_threshold",
        )
    return total / count


def uniformity(embeddings) -> float:
    """log mean over unordered pairs of exp(-2 ||f(x)-f(y)||^2), normalized inputs."""
    arr = np.asarray(embeddings, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError("embeddings must form an (N, d) matrix", field="embeddings")
    n = arr.shape[0]
    if n < 2:
        raise ValidationError("uniformity needs at least 2 embeddings", field="embeddings")
    arr = l2_normalize(arr)
    total = 0.0
    for i in range(n - 1):
        diffs = arr[i + 1 :] - arr[i]
        sq = (diffs * diffs).sum(axis=1)
        total += float(np.exp(-2.0 * sq).sum())
    return math.log(total / (n * (n - 1) // 2))


def pair_vectors(
    embed_batch: Callable[[list], np.ndarray],
    pairs: ScoredPairSet,
    items: Mapping[str, object],
) -> dict[str, np.ndarray]:
    """One vector per id in ``pairs``, keyed in sorted id order.

    ``embed_batch`` maps a list of items to an (N, d) array; it is called
    once, over ``items[id]`` for the sorted ids, so each id is embedded once.
    """
    ids = sorted({i for a, b, _ in pairs.pairs for i in (a, b)})
    for utt_id in ids:
        if utt_id not in items:
            raise MissingGroundTruthError(f"no item available for id {utt_id!r}")
    embs = np.asarray(embed_batch([items[i] for i in ids]), dtype=np.float64)
    if embs.ndim != 2 or embs.shape[0] != len(ids):
        raise ValidationError("embed_batch must return one vector per item", field="embed_batch")
    return {i: embs[k] for k, i in enumerate(ids)}


def pair_cosines(vectors: Mapping[str, np.ndarray], pairs: ScoredPairSet) -> list[float]:
    """The cosine of each pair's two vectors, in pair order."""
    out = []
    for id_a, id_b, _ in pairs.pairs:
        a, b = vectors[id_a], vectors[id_b]
        out.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
    return out


def pair_spearman(
    embed_batch: Callable[[list], np.ndarray],
    pairs: ScoredPairSet,
    items: Mapping[str, object],
) -> float:
    """Rank correlation of pair cosines with the human scores."""
    cosines = pair_cosines(pair_vectors(embed_batch, pairs, items), pairs)
    return spearman(cosines, [score for _, _, score in pairs.pairs])


@dataclass
class PairPrediction:
    id_a: str
    id_b: str
    human_score: float
    predicted: float


@dataclass
class EvalReport:
    spearman: float
    n_pairs: int
    alignment: float
    uniformity: float
    metadata: dict = field(default_factory=dict)
    per_pair: list[PairPrediction] = field(default_factory=list)

    def __post_init__(self):
        if not -1.0 - 1e-9 <= self.spearman <= 1.0 + 1e-9:
            raise ValidationError("spearman must lie in [-1, 1]", field="spearman")
        if self.n_pairs < 1:
            raise ValidationError("report needs at least one pair", field="n_pairs")
        if self.alignment < 0:
            raise ValidationError("alignment must be >= 0", field="alignment")

    def to_json(self) -> str:
        payload = {
            "spearman": self.spearman,
            "n_pairs": self.n_pairs,
            "alignment": self.alignment,
            "uniformity": self.uniformity,
            "metadata": self.metadata,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        """The report ``to_json`` wrote; keys it no longer writes are ignored."""
        raw = json.loads(text)
        fields = {key: raw[key] for key in ("spearman", "n_pairs", "alignment", "uniformity")}
        if {type(v) for v in fields.values()} - {int, float} or type(raw["n_pairs"]) is not int:
            raise TypeError("a report value is not a number")
        return cls(**fields, metadata=raw.get("metadata", {}))


def evaluate(
    embed_batch: Callable[[list], np.ndarray],
    pairs: ScoredPairSet,
    items: Mapping[str, object],
    pos_threshold: float = POSITIVE_THRESHOLD,
    metadata: dict | None = None,
) -> EvalReport:
    """Score an embedder against human-scored pairs.

    Each utterance id maps to one item. ``embed_batch`` embeds every scored
    id once, in one call (``pair_vectors``); the pair cosines, alignment and
    uniformity are all read from those vectors.
    """
    if not pairs.pairs:
        raise ValidationError("no pairs to evaluate", field="pairs")
    vectors = pair_vectors(embed_batch, pairs, items)
    per_pair = [
        PairPrediction(id_a=id_a, id_b=id_b, human_score=score, predicted=cos)
        for (id_a, id_b, score), cos in zip(pairs.pairs, pair_cosines(vectors, pairs))
    ]
    rho = spearman([p.predicted for p in per_pair], [p.human_score for p in per_pair])
    return EvalReport(
        spearman=rho,
        n_pairs=len(per_pair),
        alignment=alignment(vectors, pairs, pos_threshold=pos_threshold),
        uniformity=uniformity(np.stack(list(vectors.values()))),
        metadata=metadata or {},
        per_pair=per_pair,
    )


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def save_report(report: EvalReport, path: str | Path) -> None:
    write_text(path, report.to_json())


def load_report(path: str | Path) -> EvalReport:
    """The report ``save_report`` wrote; a damaged one is a ``FileFormatError``."""
    text = read_text(path)
    try:
        return EvalReport.from_json(text)
    except (ValueError, KeyError, TypeError) as e:
        raise FileFormatError(f"{path}: not an evaluation report: {e}") from e


def save_pair_predictions(report: EvalReport, path: str | Path) -> None:
    lines = ["id_a\tid_b\thuman_score\tpredicted"]
    for p in report.per_pair:
        lines.append(f"{p.id_a}\t{p.id_b}\t{p.human_score:.6f}\t{p.predicted:.10f}")
    write_text(path, "\n".join(lines) + "\n")

