"""Cosine index: exactness against a full-scan oracle, format, and speed."""

import time

import numpy as np
import pytest

from semspeech.corpus import SyntheticSpec, generate_corpus
from semspeech.errors import FileFormatError, ValidationError
from semspeech.index import (
    EmbeddingIndex,
    build_index,
    load_index,
    save_index,
    search,
    search_batch,
)


def random_index(n: int, d: int, seed: int = 0) -> EmbeddingIndex:
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    ids = [f"item-{i:05d}" for i in range(n)]
    return EmbeddingIndex(ids=ids, matrix=rows.astype(np.float32), metadata={})


def brute_force_top_k(index: EmbeddingIndex, q: np.ndarray, k: int):
    qn = np.asarray(q, dtype=np.float64)
    qn = qn / np.linalg.norm(qn)
    scored = [
        (float(index.matrix[i].astype(np.float64) @ qn), index.ids[i])
        for i in range(len(index))
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(i, s) for s, i in scored[:k]]


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------

def small_corpus(n=12, seed=0):
    spec = SyntheticSpec(
        alphabet_size=6,
        feature_dim=8,
        frames_per_symbol_range=(2, 3),
        n_speakers=2,
        utterance_len_range=(3, 5),
        n_utterances=n,
        seed=seed,
    )
    return generate_corpus(spec)


def mean_embed_batch(features):
    return np.stack([np.asarray(f.data, dtype=np.float64).mean(axis=0) for f in features])


def test_build_covers_corpus_with_unit_rows():
    corpus = small_corpus(n=12)
    index = build_index(mean_embed_batch, corpus)
    assert len(index) == len(corpus)
    assert index.ids == [u.id for u in corpus]
    norms = np.linalg.norm(index.matrix.astype(np.float64), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)


def test_build_rejects_zero_embedding():
    corpus = small_corpus(n=4)
    with pytest.raises(ValidationError) as e:
        build_index(lambda feats: np.zeros((len(feats), 8)), corpus)
    assert corpus.utterances[0].id in str(e.value)


def test_index_rejects_unnormalized_rows():
    rows = np.ones((3, 4), dtype=np.float32)
    with pytest.raises(ValidationError):
        EmbeddingIndex(ids=["a", "b", "c"], matrix=rows)


def test_index_rejects_duplicate_ids():
    rows = np.eye(3, dtype=np.float32)
    with pytest.raises(ValidationError):
        EmbeddingIndex(ids=["a", "a", "c"], matrix=rows)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_self_query_ranks_itself_first():
    index = random_index(50, 16, seed=1)
    for probe in ("item-00000", "item-00017", "item-00049"):
        (top_id, top_score), *_ = search(index, probe, k=3)
        assert top_id == probe
        assert abs(top_score - 1.0) < 1e-6


def test_results_sorted_non_increasing():
    index = random_index(80, 8, seed=2)
    q = np.random.default_rng(3).standard_normal(8)
    results = search(index, q, k=80)
    scores = [s for _, s in results]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_top_k_matches_exhaustive_scan():
    index = random_index(300, 24, seed=4)
    rng = np.random.default_rng(5)
    for k in (1, 7, 300):
        q = rng.standard_normal(24)
        got = search(index, q, k)
        want = brute_force_top_k(index, q, k)
        assert [i for i, _ in got] == [i for i, _ in want]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], atol=1e-12)


def test_tied_scores_break_by_ascending_id():
    row = np.zeros(4, dtype=np.float32)
    row[0] = 1.0
    matrix = np.stack([row, row, row])
    index = EmbeddingIndex(ids=["zeta", "alpha", "mid"], matrix=matrix)
    results = search(index, np.array([1.0, 0, 0, 0]), k=3)
    assert [i for i, _ in results] == ["alpha", "mid", "zeta"]


def test_query_by_vector_matches_query_by_id():
    index = random_index(40, 8, seed=6)
    by_id = search(index, "item-00013", k=10)
    by_vec = search(index, index.matrix[13].astype(np.float64), k=10)
    assert by_id == by_vec


def test_search_validation():
    index = random_index(10, 4, seed=7)
    with pytest.raises(ValidationError):
        search(index, "item-00000", k=0)
    with pytest.raises(ValidationError):
        search(index, "item-00000", k=11)
    with pytest.raises(ValidationError):
        search(index, "no-such-id", k=1)
    with pytest.raises(ValidationError):
        search(index, np.zeros(4), k=1)
    with pytest.raises(ValidationError):
        search(index, np.ones(5), k=1)


def lexsort_top_k(index: EmbeddingIndex, q: np.ndarray, k: int):
    """The full-lexsort selection: every row ordered by (-score, id)."""
    scores = index.matrix.astype(np.float64) @ (q / np.linalg.norm(q))
    order = np.lexsort((np.array(index.ids), -scores))
    return [(index.ids[i], scores[i]) for i in order[:k]]


def test_ties_straddling_k_match_full_lexsort():
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((6, 5))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    # eight copies of one row: a block of exactly tied scores
    matrix = np.concatenate([np.repeat(rows[:1], 8, axis=0), rows[1:]]).astype(np.float32)
    ids = [f"id-{i:02d}" for i in rng.permutation(len(matrix))]
    index = EmbeddingIndex(ids=ids, matrix=matrix)
    for q in (matrix[0].astype(np.float64), -matrix[0].astype(np.float64), rng.standard_normal(5)):
        for k in range(1, len(index) + 1):
            got = search(index, q, k)
            want = lexsort_top_k(index, q, k)
            assert [i for i, _ in got] == [i for i, _ in want]
            assert all(
                np.float64(g).tobytes() == w.tobytes() for (_, g), (_, w) in zip(got, want)
            )


def test_search_batch_matches_single_searches():
    index = random_index(2000, 12, seed=13)
    rng = np.random.default_rng(14)
    queries = [
        index.ids[int(rng.integers(len(index)))] if n % 3 == 0 else rng.standard_normal(12)
        for n in range(600)  # several blocks of queries
    ]
    batch = search_batch(index, queries, k=7)
    assert len(batch) == len(queries)
    for q, hits in zip(queries, batch):
        want = search(index, q, k=7)
        assert [i for i, _ in hits] == [i for i, _ in want]
        assert max(abs(h - w) for (_, h), (_, w) in zip(hits, want)) <= 1e-12


def test_search_batch_validation():
    index = random_index(10, 4, seed=15)
    with pytest.raises(ValidationError):
        search_batch(index, ["item-00001", "no-such-id"], k=1)
    with pytest.raises(ValidationError):
        search_batch(index, [np.ones(4)], k=11)
    with pytest.raises(ValidationError):
        search(index, np.array([1.0, np.nan, 0.0, 0.0]), k=1)
    assert search_batch(index, [], k=1) == []


def test_batch_of_100_queries_on_10k_items_under_2s():
    index = random_index(10_000, 64, seed=8)
    rng = np.random.default_rng(9)
    queries = rng.standard_normal((100, 64))
    start = time.perf_counter()
    results = search_batch(index, queries, k=10)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"batch took {elapsed:.2f}s"
    assert len(results) == 100
    # spot-check three queries against the oracle
    for qi in (0, 41, 99):
        want = brute_force_top_k(index, queries[qi], 10)
        assert [i for i, _ in results[qi]] == [i for i, _ in want]


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_round_trip_and_deterministic_bytes(tmp_path):
    index = random_index(17, 6, seed=10)
    index.metadata["checkpoint_sha256"] = "abc123"
    p1, p2 = tmp_path / "a.semi", tmp_path / "b.semi"
    save_index(index, p1)
    save_index(index, p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = load_index(p1)
    assert loaded.ids == index.ids
    assert loaded.metadata == index.metadata
    np.testing.assert_array_equal(loaded.matrix, index.matrix)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.semi"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FileFormatError) as e:
        load_index(path)
    assert e.value.offset == 0


def test_load_rejects_truncation_and_trailing(tmp_path):
    index = random_index(5, 4, seed=11)
    path = tmp_path / "x.semi"
    save_index(index, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(FileFormatError):
        load_index(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(FileFormatError):
        load_index(path)


def test_load_rejects_wrong_version(tmp_path):
    index = random_index(3, 4, seed=12)
    path = tmp_path / "x.semi"
    save_index(index, path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError):
        load_index(path)


def _three_row_index_bytes(path) -> bytes:
    rows = np.eye(3, 4, dtype=np.float32)
    save_index(EmbeddingIndex(ids=["a", "b", "c"], matrix=rows, metadata={}), path)
    return path.read_bytes()


def test_load_reports_duplicate_ids_as_format_error(tmp_path):
    path = tmp_path / "x.semi"
    blob = _three_row_index_bytes(path)
    path.write_bytes(blob.replace(b'"b"', b'"a"'))
    with pytest.raises(FileFormatError, match="ids must be unique") as e:
        load_index(path)
    assert e.value.offset == 18


def test_load_reports_a_row_off_unit_norm_at_its_offset(tmp_path):
    path = tmp_path / "x.semi"
    blob = bytearray(_three_row_index_bytes(path))
    matrix_at = len(blob) - 4 * 3 * 4
    blob[matrix_at + 4 * 4 + 4 + 2] = 0x00  # row 1 is (0, 1, 0, 0): its 1.0 becomes 0.5
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError, match="row for 'b' has norm") as e:
        load_index(path)
    assert e.value.offset == matrix_at + 4 * 4


