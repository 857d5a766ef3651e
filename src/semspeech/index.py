"""Exact cosine-similarity search over stored utterance embeddings.

The index is a plain matrix scan: rows are unit-normalized at build time, so a
query's cosine against every row is one matrix-vector product. No approximate
structures; results are exact and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import Corpus
from .errors import FileFormatError, ValidationError
from .fileformat import BinaryReader, write_binary

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

_DOC_OFFSET = 18  # where the JSON block starts


def save_index(index: EmbeddingIndex, path: str | Path) -> None:
    doc = {"ids": index.ids, "metadata": index.metadata}
    write_binary(path, INDEX_MAGIC, INDEX_VERSION, index.matrix.shape, doc, [index.matrix])


def load_index(path: str | Path) -> EmbeddingIndex:
    with BinaryReader(path, INDEX_MAGIC, INDEX_VERSION, n_fields=2, has_doc=True) as reader:
        n, d = reader.fields
        ids, metadata = reader.doc.get("ids"), reader.doc.get("metadata")
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise FileFormatError(
                "JSON block ids missing or not a list of strings", offset=_DOC_OFFSET
            )
        if not isinstance(metadata, dict):
            raise FileFormatError(
                "JSON block metadata missing or not an object", offset=_DOC_OFFSET
            )
        if len(ids) != n:
            raise FileFormatError(f"JSON block has {len(ids)} ids for {n} rows", offset=_DOC_OFFSET)
        matrix_at = reader.offset
        reader.expect_payload(4 * n * d)
        matrix = reader.floats(n * d, "embedding matrix").reshape(n, d)
    try:
        return EmbeddingIndex(ids=ids, matrix=matrix, metadata=metadata)
    except ValidationError as e:
        # duplicate ids sit in the JSON block; a row off unit norm in the matrix
        at = _DOC_OFFSET if e.field == "ids" else matrix_at + 4 * d * _worst_row(matrix)
        raise FileFormatError(str(e), offset=at) from e
