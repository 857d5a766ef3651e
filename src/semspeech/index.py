"""Exact cosine-similarity search over stored utterance embeddings.

The index is a plain matrix scan: rows are unit-normalized at build time, so a
query's cosine against every row is one matrix-vector product. No approximate
structures; results are exact and reproducible.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import Corpus
from .errors import FileFormatError, ValidationError

INDEX_MAGIC = b"SEMI"
INDEX_VERSION = 1
SEARCH_BLOCK_SCORES = 1 << 18  # float64 scores (2 MiB) per matrix product in search_batch


@dataclass
class EmbeddingIndex:
    ids: list[str]
    matrix: np.ndarray  # (N, d) float32, rows unit-normalized
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float32)
        if self.matrix.ndim != 2:
            raise ValidationError("matrix must be 2-D (N, d)", field="matrix")
        if len(self.ids) != self.matrix.shape[0]:
            raise ValidationError(
                f"{len(self.ids)} ids for {self.matrix.shape[0]} rows", field="ids"
            )
        if len(set(self.ids)) != len(self.ids):
            raise ValidationError("ids must be unique", field="ids")
        worst = _worst_row(self.matrix)
        if worst is not None:
            norm = np.linalg.norm(self.matrix[worst].astype(np.float64))
            raise ValidationError(
                f"row for {self.ids[worst]!r} has norm {norm:.6f}, not 1", field="matrix"
            )

    def __len__(self) -> int:
        return len(self.ids)

    # Search caches, made on first use so that building or loading an index
    # holds no second copy of the matrix. They assume ``matrix`` and ``ids``
    # are not changed after construction.
    @cached_property
    def _matrix64(self) -> np.ndarray:
        return self.matrix.astype(np.float64)

    @cached_property
    def _row_of(self) -> dict[str, int]:
        return {utt_id: row for row, utt_id in enumerate(self.ids)}

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def _worst_row(matrix: np.ndarray) -> int | None:
    """The row whose norm is furthest from 1, if any is off by more than 1e-5."""
    norms = np.linalg.norm(matrix.astype(np.float64), axis=1)
    if matrix.shape[0] and not np.allclose(norms, 1.0, atol=1e-5):
        return int(np.argmax(np.abs(norms - 1.0)))
    return None


def build_index(
    embed_batch: Callable[[list], np.ndarray],
    corpus: Corpus,
    metadata: dict | None = None,
) -> EmbeddingIndex:
    """Embed every utterance in one batched call, unit-normalize, assemble.

    ``embed_batch`` maps a list of feature sequences to an (N, d) array whose
    rows follow the input order.
    """
    if len(corpus) == 0:
        raise ValidationError("corpus is empty", field="corpus")
    ids = [utt.id for utt in corpus]
    embs = np.asarray(embed_batch([utt.features for utt in corpus]), dtype=np.float64)
    if embs.ndim != 2:
        raise ValidationError(
            f"embedding for {ids[0]!r} is not a vector", field="embedding"
        )
    if embs.shape[0] != len(ids):
        raise ValidationError(
            f"{embs.shape[0]} embeddings for {len(ids)} utterances", field="embedding"
        )
    matrix = np.empty(embs.shape, dtype=np.float32)
    for row, (utt_id, z) in enumerate(zip(ids, embs)):
        norm = np.linalg.norm(z)
        if norm == 0.0:
            raise ValidationError(
                f"embedding for {utt_id!r} has zero norm", field="embedding"
            )
        matrix[row] = z / norm
    return EmbeddingIndex(ids=ids, matrix=matrix, metadata=dict(metadata or {}))


def _check_k(index: EmbeddingIndex, k: int) -> None:
    n = len(index)
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}", field="k")


def _query_vector(index: EmbeddingIndex, query) -> np.ndarray:
    """A query id or embedding as a unit float64 vector."""
    if isinstance(query, str):
        row = index._row_of.get(query)
        if row is None:
            raise ValidationError(f"id {query!r} is not indexed", field="query")
        q = index._matrix64[row]
    else:
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (index.dim,):
            raise ValidationError(
                f"query shape {q.shape} does not match index dim {index.dim}",
                field="query",
            )
        if not np.all(np.isfinite(q)):
            raise ValidationError("query has a non-finite value", field="query")
    norm = np.linalg.norm(q)
    if norm == 0.0:
        raise ValidationError("query has zero norm", field="query")
    return q / norm


def _top_k(ids: list[str], scores: np.ndarray, k: int) -> list[tuple[str, float]]:
    """The k best rows by (-score, id), the order a lexsort of all rows gives.

    ``argpartition`` finds the k-th best score; every row scoring at least
    that much stays a candidate, so ties straddling position k are all
    ordered by id before the cut.
    """
    kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
    candidates = np.flatnonzero(scores >= kth).tolist()
    candidates.sort(key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], float(scores[i])) for i in candidates[:k]]


def search(
    index: EmbeddingIndex, query, k: int
) -> list[tuple[str, float]]:
    """Exact top-k by cosine, descending; ties broken by ascending id.

    The query is either a feature-space embedding vector or the id of an
    indexed item.
    """
    _check_k(index, k)
    q = _query_vector(index, query)
    return _top_k(index.ids, index._matrix64 @ q, k)


def search_batch(
    index: EmbeddingIndex, queries: Sequence, k: int
) -> list[list[tuple[str, float]]]:
    """``search`` for each query, scored with one matrix product per block.

    Scores may differ from ``search``'s in the last bits, because a matrix
    product sums in another order than a matrix-vector product.
    """
    _check_k(index, k)
    vectors = [_query_vector(index, query) for query in queries]
    block = max(1, SEARCH_BLOCK_SCORES // len(index))
    results = []
    for start in range(0, len(vectors), block):
        scores = np.stack(vectors[start : start + block]) @ index._matrix64.T
        results.extend(_top_k(index.ids, row, k) for row in scores)
    return results


# ---------------------------------------------------------------------------
# file format: magic "SEMI", version u16=1, N u32, d u32, JSON block length
# u32 + JSON {"ids", "metadata"}, then N*d float32 row-major
# ---------------------------------------------------------------------------

def save_index(index: EmbeddingIndex, path: str | Path) -> None:
    doc = {"ids": index.ids, "metadata": index.metadata}
    doc_bytes = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    n, d = index.matrix.shape
    with open(path, "wb") as f:
        f.write(INDEX_MAGIC)
        f.write(struct.pack("<H", INDEX_VERSION))
        f.write(struct.pack("<II", n, d))
        f.write(struct.pack("<I", len(doc_bytes)))
        f.write(doc_bytes)
        f.write(np.ascontiguousarray(index.matrix, dtype="<f4").tobytes())


def load_index(path: str | Path) -> EmbeddingIndex:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != INDEX_MAGIC:
        raise FileFormatError(f"bad magic {blob[:4]!r}, expected {INDEX_MAGIC!r}", offset=0)
    if len(blob) < 18:
        raise FileFormatError("truncated header", offset=len(blob))
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != INDEX_VERSION:
        raise FileFormatError(f"unsupported version {version}", offset=4)
    n, d = struct.unpack_from("<II", blob, 6)
    (doc_len,) = struct.unpack_from("<I", blob, 14)
    if len(blob) < 18 + doc_len:
        raise FileFormatError("truncated JSON block", offset=len(blob))
    try:
        doc = json.loads(blob[18 : 18 + doc_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FileFormatError(f"bad JSON block: {e}", offset=18) from e
    if not isinstance(doc, dict):
        raise FileFormatError("JSON block is not an object", offset=18)
    for key in ("ids", "metadata"):
        if key not in doc:
            raise FileFormatError(f"JSON block missing key {key!r}", offset=18)
    ids = doc["ids"]
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise FileFormatError("JSON block ids are not a list of strings", offset=18)
    if not isinstance(doc["metadata"], dict):
        raise FileFormatError("JSON block metadata is not an object", offset=18)
    if len(ids) != n:
        raise FileFormatError(f"JSON block has {len(ids)} ids for {n} rows", offset=18)
    offset = 18 + doc_len
    count = n * d
    if len(blob) < offset + 4 * count:
        raise FileFormatError("truncated embedding matrix", offset=len(blob))
    if len(blob) > offset + 4 * count:
        raise FileFormatError(
            f"{len(blob) - offset - 4 * count} trailing bytes", offset=offset + 4 * count
        )
    matrix = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
    if not np.all(np.isfinite(matrix)):
        bad = int(np.flatnonzero(~np.isfinite(matrix))[0])
        raise FileFormatError("non-finite value in matrix", offset=offset + 4 * bad)
    matrix = matrix.reshape(n, d).copy()
    try:
        return EmbeddingIndex(ids=ids, matrix=matrix, metadata=doc["metadata"])
    except ValidationError as e:
        # duplicate ids sit in the JSON block; a row off unit norm in the matrix
        at = 18 if e.field == "ids" else offset + 4 * d * _worst_row(matrix)
        raise FileFormatError(str(e), offset=at) from e
