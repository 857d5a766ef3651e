import logging
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semspeech import quantizer
from semspeech.corpus import Corpus, FeatureSequence, SyntheticSpec, Utterance, generate_corpus
from semspeech.errors import FileFormatError, ValidationError
from semspeech.quantizer import (
    Codebook,
    UnitSequence,
    _centroid_terms,
    _nearest,
    _sq_dists,
    deduplicate,
    load_unit_corpus,
    quantize_corpus,
    read_codebook,
    save_unit_corpus,
    train_kmeans,
    write_codebook,
)
from semspeech.random_utils import derive_rng


def nearest(frames, cb):
    """The nearest centroid of each frame, as quantize_corpus labels a block."""
    return _nearest(np.asarray(frames, dtype=np.float64), _centroid_terms(cb.centroids))


def quantize_frames(frames, cb):
    """quantize_corpus's label of each frame, every frame its own utterance."""
    utts = [
        Utterance(id=f"u{i}", speaker_id=0, features=FeatureSequence(f[None].astype(np.float32)))
        for i, f in enumerate(frames)
    ]
    return [seq.units[0] for seq in quantize_corpus(Corpus(utterances=utts), cb)]


def cluster_purity(labels, truths):
    by_cluster = defaultdict(Counter)
    for lab, t in zip(labels, truths):
        by_cluster[int(lab)][int(t)] += 1
    total = sum(sum(c.values()) for c in by_cluster.values())
    return sum(max(c.values()) for c in by_cluster.values()) / total


def check_permutation_recovery(units, corpus):
    """Unit sequences must equal ground-truth symbols under one global bijection."""
    mapping = {}
    for seq in units:
        symbols = corpus[seq.source_id].symbols
        assert len(seq.units) == len(symbols), seq.source_id
        for u, s in zip(seq.units, symbols):
            if u in mapping:
                assert mapping[u] == s
            else:
                mapping[u] = s
    assert len(set(mapping.values())) == len(mapping)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_kmeans_recovers_repeated_points_exactly():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((8, 5))
    frames = np.repeat(points, 100, axis=0)
    cb = train_kmeans(frames, k=8, seed=1)
    assert cb.inertia_history[-1] == 0.0
    # centroids equal the points up to permutation
    found = {tuple(np.round(c, 9)) for c in cb.centroids}
    expected = {tuple(np.round(p, 9)) for p in points}
    assert found == expected


def test_kmeans_inertia_non_increasing():
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((500, 6))
    cb = train_kmeans(frames, k=10, seed=5)
    hist = cb.inertia_history
    assert len(hist) >= 1
    for a, b in zip(hist, hist[1:]):
        assert b <= a + 1e-9 * max(abs(a), 1.0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    frames = rng.standard_normal((300, 4))
    cb1 = train_kmeans(frames, k=7, seed=9)
    cb2 = train_kmeans(frames, k=7, seed=9)
    assert np.array_equal(cb1.centroids, cb2.centroids)
    assert cb1.inertia_history == cb2.inertia_history


def test_kmeans_rejects_too_few_distinct():
    frames = np.tile(np.array([[1.0, 2.0]]), (50, 1))
    with pytest.raises(ValidationError):
        train_kmeans(frames, k=2, seed=0)


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [2.0, 1.0]],
        # -0.0 and 0.0 compare equal, as np.unique compares them
        [[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [-0.0, -0.0], [0.0, 0.0]],
        np.random.default_rng(3).integers(-1, 2, size=(400, 3)) * np.array([0.0, 1.0, -1.0]),
    ],
    ids=["duplicates", "signed-zeros", "many-duplicates"],
)
def test_kmeans_counts_distinct_frames_as_np_unique(rows):
    frames = np.asarray(rows, dtype=np.float64)
    distinct = np.unique(frames, axis=0).shape[0]
    with pytest.raises(ValidationError, match=f"got {distinct}$"):
        train_kmeans(frames, k=distinct + 1)
    assert train_kmeans(frames, k=distinct, max_iters=2).k == distinct


# Besides the frames (5.4 MiB at 2000 utterances), k-means once held a doubled
# copy of them, np.unique's copies and flat bin ids: a 17.9 MiB peak. Now only
# per-frame vectors and blocks remain, 2.0 MiB; the bound adds 25%.
def test_kmeans_peak_memory():
    corpus = generate_corpus(SyntheticSpec(n_utterances=2000, seed=0))
    frames = np.concatenate([u.features.data for u in corpus], axis=0, dtype=np.float64)
    tracemalloc.start()
    try:
        cb = train_kmeans(frames, k=100, max_iters=40, tol=0.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cb.inertia_history) == 40
    assert peak <= 2.5 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_kmeans_purity_on_synthetic_corpus():
    spec = SyntheticSpec(
        alphabet_size=8, feature_dim=16, n_utterances=200, seed=31,
        noise_scale=0.02, speaker_offset_scale=0.01,
    )
    corpus = generate_corpus(spec)
    frames = np.concatenate([u.features.data for u in corpus.utterances]).astype(np.float64)
    truths = np.concatenate([u.frame_symbols for u in corpus.utterances])
    cb = train_kmeans(frames, k=8, seed=6)
    labels = nearest(frames, cb)
    assert cluster_purity(labels, truths) >= 0.95


# ---------------------------------------------------------------------------
# reference k-means: one (n, k) distance pass and a per-cluster mean loop
# ---------------------------------------------------------------------------

def reference_sq_dists(frames, centroids):
    d2 = (
        np.einsum("ij,ij->i", frames, frames)[:, None]
        - 2.0 * frames @ centroids.T
        + np.einsum("ij,ij->i", centroids, centroids)[None, :]
    )
    return np.maximum(d2, 0.0)


def reference_kmeans(frames, k, max_iters, tol, seed):
    frames = np.asarray(frames, dtype=np.float64)
    rng = derive_rng(seed, "kmeans", k)
    n = frames.shape[0]
    centroids = np.empty((k, frames.shape[1]), dtype=np.float64)
    centroids[0] = frames[int(rng.integers(n))]
    closest = reference_sq_dists(frames, centroids[:1]).ravel()
    for c in range(1, k):
        total = closest.sum()
        idx = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=closest / total))
        centroids[c] = frames[idx]
        closest = np.minimum(closest, reference_sq_dists(frames, centroids[c : c + 1]).ravel())

    history, prev = [], np.inf
    for _ in range(max_iters):
        labels = np.argmin(reference_sq_dists(frames, centroids), axis=1)
        resid = frames - centroids[labels]
        assigned_d2 = np.einsum("ij,ij->i", resid, resid)
        inertia = float(assigned_d2.sum())
        history.append(inertia)
        if inertia == 0.0:
            break
        if np.isfinite(prev) and (prev - inertia) / max(prev, 1e-12) < tol:
            break
        prev = inertia
        new = np.empty_like(centroids)
        for c in range(k):
            mask = labels == c
            new[c] = frames[mask].mean(axis=0) if mask.any() else frames[np.argmax(assigned_d2)]
        centroids = new
    return centroids, history


def assert_kmeans_matches_reference(frames, k, max_iters, tol, seed):
    cb = train_kmeans(frames, k=k, max_iters=max_iters, tol=tol, seed=seed)
    ref_centroids, ref_history = reference_kmeans(frames, k, max_iters, tol, seed)
    assert cb.centroids.tobytes() == ref_centroids.tobytes()
    assert cb.inertia_history == ref_history


def test_kmeans_matches_reference_bitwise_across_row_blocks():
    corpus = generate_corpus(SyntheticSpec(n_utterances=200, seed=12))
    frames = np.concatenate([u.features.data for u in corpus.utterances])
    assert frames.shape[0] > 2 * 1024  # several row blocks, the last one partial
    assert_kmeans_matches_reference(frames, k=20, max_iters=15, tol=0.0, seed=3)
    assert_kmeans_matches_reference(frames, k=20, max_iters=100, tol=1e-4, seed=4)
    # full float64 mantissas: centroid sums round, so their order shows in the bits
    frames = np.random.default_rng(6).standard_normal((3000, 5))
    assert_kmeans_matches_reference(frames, k=12, max_iters=10, tol=0.0, seed=5)


def test_kmeans_reseeds_empty_cluster_like_reference(caplog):
    # k-means++ on this weighted lattice leaves cluster 2 empty after one update
    points = np.array([[11, 5], [11, 11], [1, 6], [2, 6], [9, 2]], dtype=np.float64)
    frames = np.repeat(points, [3, 1, 4, 5, 1], axis=0)
    with caplog.at_level(logging.INFO, logger="semspeech.quantizer"):
        assert_kmeans_matches_reference(frames, k=3, max_iters=20, tol=0.0, seed=1069)
    assert any("reseeding empty cluster" in r.getMessage() for r in caplog.records)


def _corpus_frames(n_utterances, seed):
    corpus = generate_corpus(SyntheticSpec(n_utterances=n_utterances, seed=seed))
    return np.concatenate([u.features.data for u in corpus], axis=0, dtype=np.float64)


def _lattice(n, seed):
    # small integers: every distance is exact, so ties are exact and frequent
    return np.random.default_rng(seed).integers(0, 4, size=(n, 3)).astype(np.float64)


# The bounded pass skips most frames; each case checks that the result is
# still plain Lloyd's, bit for bit.
@pytest.mark.parametrize(
    "make, k, max_iters, tol",
    [
        (lambda: np.random.default_rng(21).standard_normal((2500, 16)), 30, 25, 0.0),
        (lambda: _lattice(900, 22), 9, 30, 0.0),
        (lambda: np.repeat(_lattice(40, 23), 7, axis=0)[::-1], 1, 10, 0.0),
        # k equal to the distinct rows of the lattice
        (lambda: _lattice(900, 24), np.unique(_lattice(900, 24), axis=0).shape[0], 30, 0.0),
        (lambda: _corpus_frames(200, 25)[:2048], 100, 20, 0.0),
        (lambda: _corpus_frames(200, 25)[:2049], 100, 20, 0.0),
        (lambda: np.random.default_rng(26).standard_normal((3000, 4)) ** 3, 15, 200, 1e-3),
    ],
    ids=["gaussian", "lattice-ties", "k-1", "k-distinct", "n-2048", "n-2049", "tol"],
)
def test_bounded_kmeans_matches_reference(make, k, max_iters, tol):
    assert_kmeans_matches_reference(make(), k, max_iters, tol, seed=7)


def test_kmeans_prunes_most_frame_assignments(monkeypatch, caplog):
    frames = _corpus_frames(2000, 0)
    rows = []

    def counting(x, sq, terms):
        if terms[1].size == 100:  # the assignment pass, not k-means++
            rows.append(x.shape[0])
        return _sq_dists(x, sq, terms)

    monkeypatch.setattr(quantizer, "_sq_dists", counting)
    with caplog.at_level(logging.INFO, logger="semspeech.quantizer"):
        cb = train_kmeans(frames, k=100, max_iters=40, tol=0.0, seed=0)
    assert len(cb.inertia_history) == 40
    share = sum(rows) / (frames.shape[0] * 40)
    assert share < 0.5, share
    assert any(
        f"{100 * share:.1f}% of frame assignments took the full distance pass" in r.getMessage()
        for r in caplog.records
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_kmeans_refuses_a_non_finite_frame(bad):
    # 1e200 is finite, but its square is not
    frames = np.random.default_rng(9).standard_normal((6979, 4))
    frames[4321, 2] = bad
    with pytest.raises(ValidationError, match="frame 4321") as e:
        train_kmeans(frames, k=5)
    assert e.value.field == "frames"


def test_kmeans_counts_every_row_when_a_prefix_is_short_of_k_distinct():
    rng = np.random.default_rng(10)
    frames = np.concatenate([np.zeros((500, 3)), rng.standard_normal((6, 3))])
    assert train_kmeans(frames, k=7, max_iters=3).k == 7
    with pytest.raises(ValidationError, match="got 7$"):
        train_kmeans(frames, k=8)


def test_sq_dists_rows_have_their_bits_in_any_product():
    # the corpus's 16 dimensions and the default 100 centroids
    rng = np.random.default_rng(11)
    frames = rng.standard_normal((1024, 16))
    sq = np.einsum("ij,ij->i", frames, frames)
    terms = _centroid_terms(rng.standard_normal((100, 16)))
    block = _sq_dists(frames, sq, terms)
    for i in range(0, 1024, 37):
        assert _sq_dists(frames[i : i + 1], sq[i : i + 1], terms).tobytes() == block[i].tobytes()
    for m in (2, 3, 17, 300):
        rows = np.sort(rng.choice(1024, m, replace=False))
        assert _sq_dists(frames[rows], sq[rows], terms).tobytes() == block[rows].tobytes()


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------

def test_assign_frame_at_centroid():
    cb = Codebook(centroids=np.eye(4))
    assert quantize_frames(np.eye(4)[[3]], cb) == [3]


def test_assign_tie_breaks_low_index():
    # frame at the origin is exactly equidistant to +e1 and -e1
    cents = np.zeros((5, 3))
    cents[1, 0] = 1.0
    cents[4, 0] = -1.0
    cents[0, 1] = 2.0
    cents[2, 1] = 2.0
    cents[3, 1] = 2.0
    cb = Codebook(centroids=cents)
    assert quantize_frames(np.zeros((1, 3)), cb) == [1]


def test_assign_matches_brute_force():
    rng = np.random.default_rng(12)
    # the frames as the float32 features hold them
    frames = rng.standard_normal((10, 6)).astype(np.float32).astype(np.float64)
    cb = Codebook(centroids=rng.standard_normal((7, 6)))
    labels = quantize_frames(frames, cb)
    for t in range(10):
        dists = [np.sum((frames[t] - c) ** 2) for c in cb.centroids]
        best = min(range(7), key=lambda i: (dists[i], i))
        assert labels[t] == best


def test_assign_dim_mismatch():
    cb = Codebook(centroids=np.zeros((3, 4)))
    with pytest.raises(ValidationError) as e:
        quantize_frames(np.zeros((2, 5)), cb)
    assert e.value.field == "dim"


# ---------------------------------------------------------------------------
# dedup
# ---------------------------------------------------------------------------

def test_dedup_examples():
    assert deduplicate([5, 5, 5, 2, 2, 7]).units == [5, 2, 7]
    assert deduplicate([1, 2, 1, 2]).units == [1, 2, 1, 2]


def test_dedup_empty_errors():
    with pytest.raises(ValidationError):
        deduplicate([])


@given(st.lists(st.integers(0, 5), min_size=1, max_size=50))
def test_dedup_idempotent_and_shrinking(labels):
    once = deduplicate(labels).units
    twice = deduplicate(once).units
    assert once == twice
    assert len(once) <= len(labels)
    for a, b in zip(once, once[1:]):
        assert a != b


# ---------------------------------------------------------------------------
# corpus quantization
# ---------------------------------------------------------------------------

def test_quantize_recovers_noise_free_corpus():
    spec = SyntheticSpec(
        alphabet_size=8, feature_dim=16, n_utterances=150, seed=42,
        noise_scale=0.0, speaker_offset_scale=0.0,
    )
    corpus = generate_corpus(spec)
    frames = np.concatenate([u.features.data for u in corpus.utterances]).astype(np.float64)
    cb = train_kmeans(frames, k=8, seed=0)
    units = quantize_corpus(corpus, cb)
    check_permutation_recovery(units, corpus)


def test_quantize_empty_corpus(tmp_path):
    from semspeech.corpus import Corpus

    units = quantize_corpus(Corpus(utterances=[]), Codebook(centroids=np.zeros((2, 3))))
    assert units == []
    path = tmp_path / "units.tsv"
    save_unit_corpus(units, path)
    assert path.read_text() == ""
    assert load_unit_corpus(path) == []


def test_quantize_deterministic_bytes(tmp_path):
    spec = SyntheticSpec(alphabet_size=6, n_utterances=30, seed=2)
    corpus = generate_corpus(spec)
    frames = np.concatenate([u.features.data for u in corpus.utterances]).astype(np.float64)
    cb = train_kmeans(frames, k=6, seed=3)
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_unit_corpus(quantize_corpus(corpus, cb), p1)
    save_unit_corpus(quantize_corpus(corpus, cb), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_quantize_error_names_utterance():
    from semspeech.corpus import Corpus, Utterance

    fs = FeatureSequence(np.zeros((2, 5), dtype=np.float32))
    corpus = Corpus(utterances=[Utterance(id="bad-dim", speaker_id=0, features=fs)])
    cb = Codebook(centroids=np.zeros((2, 3)))
    with pytest.raises(ValidationError) as e:
        quantize_corpus(corpus, cb)
    assert "bad-dim" in str(e.value)


def test_quantize_error_names_utterance_within_a_block():
    good = FeatureSequence(np.ones((4, 3), dtype=np.float32))
    bad = FeatureSequence(np.zeros((2, 5), dtype=np.float32))
    corpus = Corpus(utterances=[
        Utterance(id="good", speaker_id=0, features=good),
        Utterance(id="bad-dim", speaker_id=0, features=bad),
    ])
    with pytest.raises(ValidationError, match="'bad-dim'") as e:
        quantize_corpus(corpus, Codebook(centroids=np.zeros((2, 3))))
    assert e.value.field == "dim"


def test_quantize_labels_every_frame_as_one_pass_over_all_frames():
    # utterances of 1 to 60 frames, lone frames among them and last, across
    # several blocks of the distance product
    rng = np.random.default_rng(13)
    lengths = [*rng.integers(1, 61, size=90), 1, 1, 5, 1]
    utts = [
        Utterance(id=f"u{i}", speaker_id=0,
                  features=FeatureSequence(rng.standard_normal((t, 16)).astype(np.float32)))
        for i, t in enumerate(lengths)
    ]
    cb = Codebook(centroids=rng.standard_normal((100, 16)))
    units = quantize_corpus(Corpus(utterances=utts), cb)
    everything = nearest(np.concatenate([u.features.data for u in utts]), cb)
    ends = np.cumsum(lengths[:-1])
    for u, seq, labels in zip(utts, units, np.split(everything, ends)):
        assert seq.source_id == u.id
        assert seq.units == deduplicate(labels).units
        assert seq.units == deduplicate(nearest(u.features.data, cb)).units


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_codebook_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    cb = Codebook(centroids=rng.standard_normal((5, 3)).astype(np.float32).astype(np.float64))
    path = tmp_path / "cb.semk"
    write_codebook(path, cb)
    back = read_codebook(path)
    assert back.k == 5 and back.dim == 3
    assert np.array_equal(back.centroids, cb.centroids)


def test_codebook_header_layout(tmp_path):
    cb = Codebook(centroids=np.ones((2, 3)))
    path = tmp_path / "cb.semk"
    write_codebook(path, cb)
    blob = path.read_bytes()
    assert blob[:4] == b"SEMK"
    assert int.from_bytes(blob[4:6], "little") == 1
    assert int.from_bytes(blob[6:10], "little") == 2
    assert int.from_bytes(blob[10:14], "little") == 3
    assert len(blob) == 14 + 4 * 6


def test_codebook_bad_magic(tmp_path):
    path = tmp_path / "cb.semk"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(FileFormatError) as e:
        read_codebook(path)
    assert e.value.offset == 0


def test_codebook_truncated(tmp_path):
    cb = Codebook(centroids=np.ones((2, 2)))
    path = tmp_path / "cb.semk"
    write_codebook(path, cb)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FileFormatError):
        read_codebook(path)


def test_unit_corpus_round_trip(tmp_path):
    units = [
        UnitSequence(units=[3, 1, 4, 1], source_id="u0"),
        UnitSequence(units=[5], source_id="u1"),
    ]
    path = tmp_path / "units.tsv"
    save_unit_corpus(units, path)
    back = load_unit_corpus(path)
    assert [(s.source_id, s.units) for s in back] == [("u0", [3, 1, 4, 1]), ("u1", [5])]


def test_unit_corpus_rejects_adjacent_duplicates(tmp_path):
    path = tmp_path / "units.tsv"
    path.write_text("u0\t1 1 2\n")
    with pytest.raises(FileFormatError):
        load_unit_corpus(path)


def test_unit_corpus_rejects_a_repeated_id_naming_both_lines(tmp_path):
    path = tmp_path / "units.tsv"
    path.write_text("u0\t1 2\nu1\t3\n\nu0\t4 5\n")
    with pytest.raises(FileFormatError, match=r"lines 1 and 4: repeated id 'u0'"):
        load_unit_corpus(path)


def test_unit_sequence_invariants():
    with pytest.raises(ValidationError):
        UnitSequence(units=[], source_id="x")
    with pytest.raises(ValidationError):
        UnitSequence(units=[2, 2], source_id="x")
