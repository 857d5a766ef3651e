import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semspeech.corpus as corpus_module
from damage import poison_frame
from semspeech.corpus import (
    Corpus,
    FeatureSequence,
    PairCandidates,
    ScoredPairSet,
    SyntheticSpec,
    Utterance,
    build_scored_pairs,
    generate_corpus,
    ground_truth_similarity,
    load_corpus,
    load_scored_pairs,
    read_features,
    save_corpus,
    save_scored_pairs,
    write_features,
)
from semspeech.errors import (
    FileFormatError,
    MissingGroundTruthError,
    PairBinningError,
    ValidationError,
)
from semspeech.random_utils import derive_rng


def make_utt(uid, symbols, speaker=0, dim=4):
    rng = np.random.default_rng(abs(hash(uid)) % 2**32)
    feats = FeatureSequence(rng.standard_normal((max(len(symbols), 1), dim)).astype(np.float32))
    return Utterance(id=uid, speaker_id=speaker, features=feats, symbols=symbols)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_fields():
    with pytest.raises(ValidationError) as e:
        SyntheticSpec(alphabet_size=1).validate()
    assert e.value.field == "alphabet_size"
    with pytest.raises(ValidationError) as e:
        SyntheticSpec(feature_dim=1).validate()
    assert e.value.field == "feature_dim"
    with pytest.raises(ValidationError) as e:
        SyntheticSpec(utterance_len_range=(5, 3)).validate()
    assert e.value.field == "utterance_len_range"
    with pytest.raises(ValidationError) as e:
        SyntheticSpec(frames_per_symbol_range=(0, 3)).validate()
    assert e.value.field == "frames_per_symbol_range"
    with pytest.raises(ValidationError) as e:
        SyntheticSpec(noise_scale=-0.1).validate()
    assert e.value.field == "noise_scale"


def test_spec_rejects_frame_budget_overflow():
    spec = SyntheticSpec(utterance_len_range=(3, 300), frames_per_symbol_range=(2, 5))
    with pytest.raises(ValidationError):
        spec.validate()


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_noise_free_single_symbol_frames_equal_centroid():
    spec = SyntheticSpec(
        alphabet_size=4,
        feature_dim=8,
        noise_scale=0.0,
        speaker_offset_scale=0.0,
        utterance_len_range=(1, 1),
        n_utterances=20,
        seed=3,
    )
    corpus = generate_corpus(spec)
    for u in corpus.utterances:
        assert len(u.symbols) == 1
        expected = corpus.centroids[u.symbols[0]].astype(np.float32)
        assert np.array_equal(
            u.features.data, np.tile(expected, (u.features.n_frames, 1))
        )


def test_generation_is_deterministic():
    spec = SyntheticSpec(n_utterances=50, seed=11)
    c1, c2 = generate_corpus(spec), generate_corpus(spec)
    assert np.array_equal(c1.centroids, c2.centroids)
    for u1, u2 in zip(c1.utterances, c2.utterances):
        assert u1.id == u2.id
        assert u1.speaker_id == u2.speaker_id
        assert u1.symbols == u2.symbols
        assert np.array_equal(u1.features.data, u2.features.data)


def test_different_seed_changes_corpus():
    base = SyntheticSpec(n_utterances=10, seed=1)
    other = SyntheticSpec(n_utterances=10, seed=2)
    c1, c2 = generate_corpus(base), generate_corpus(other)
    assert not np.array_equal(c1.centroids, c2.centroids)


def test_nearest_centroid_labeling_recovers_symbols():
    # low noise relative to centroid separation: per-frame argmin labeling,
    # deduplicated, should recover nearly all ground-truth sequences
    spec = SyntheticSpec(
        alphabet_size=8, feature_dim=16, n_utterances=500, seed=7,
        speaker_offset_scale=0.0,
    )
    corpus = generate_corpus(spec)
    cents = corpus.centroids
    k = len(cents)
    min_dist = min(
        np.linalg.norm(cents[i] - cents[j]) for i in range(k) for j in range(i + 1, k)
    )
    assert spec.noise_scale <= 0.1 * min_dist
    recovered = 0
    for u in corpus.utterances:
        dists = np.linalg.norm(
            u.features.data[:, None, :].astype(np.float64) - cents[None, :, :], axis=2
        )
        labels = np.argmin(dists, axis=1)
        dedup = [int(labels[0])]
        for x in labels[1:]:
            if int(x) != dedup[-1]:
                dedup.append(int(x))
        if dedup == list(u.symbols):
            recovered += 1
    assert recovered / len(corpus) >= 0.99


def test_no_adjacent_duplicate_symbols():
    # adjacent duplicates would render as one indistinguishable run
    spec = SyntheticSpec(n_utterances=400, seed=17)
    corpus = generate_corpus(spec)
    for u in corpus.utterances:
        for x, y in zip(u.symbols, u.symbols[1:]):
            assert x != y


def test_max_frames_respected():
    spec = SyntheticSpec(n_utterances=100, seed=5)
    corpus = generate_corpus(spec)
    for u in corpus.utterances:
        assert 1 <= u.features.n_frames <= spec.max_frames
        assert u.features.dim == spec.feature_dim


def test_utterance_lengths_within_range():
    spec = SyntheticSpec(n_utterances=300, seed=9)
    corpus = generate_corpus(spec)
    lo, hi = spec.utterance_len_range
    for u in corpus.utterances:
        assert lo <= len(u.symbols) <= hi


# ---------------------------------------------------------------------------
# ground-truth oracle
# ---------------------------------------------------------------------------

def test_similarity_identical_is_exactly_one():
    a = make_utt("a", [3, 1, 4, 1, 5])
    b = make_utt("b", [3, 1, 4, 1, 5])
    assert ground_truth_similarity(a, b) == 1.0
    # order-insensitive: permuted sequence scores exactly 1.0 too
    c = make_utt("c", [1, 1, 3, 4, 5])
    assert ground_truth_similarity(a, c) == 1.0


def test_similarity_disjoint_is_zero():
    a = make_utt("a", [0, 1, 2])
    b = make_utt("b", [3, 4, 5])
    assert ground_truth_similarity(a, b) == 0.0


def test_similarity_hand_computed():
    # counts a=[2,1,0], b=[1,1,1]: cos = 3 / sqrt(5*3)
    a = make_utt("a", [0, 0, 1])
    b = make_utt("b", [0, 1, 2])
    expected = 3.0 / math.sqrt(15.0)
    assert ground_truth_similarity(a, b) == pytest.approx(expected, abs=1e-12)
    assert abs(expected - 0.7745966692414834) < 1e-15

    # counts a={1:2,2:1,3:1}, b={1:1,2:2}: cos = 4 / sqrt(6*5)
    c = make_utt("c", [1, 1, 2, 3])
    d = make_utt("d", [1, 2, 2])
    assert ground_truth_similarity(c, d) == pytest.approx(4.0 / math.sqrt(30.0), abs=1e-12)


def test_similarity_requires_ground_truth():
    a = make_utt("a", [0, 1])
    b = Utterance(id="b", speaker_id=0, features=a.features, symbols=None)
    with pytest.raises(MissingGroundTruthError):
        ground_truth_similarity(a, b)


@given(
    st.lists(st.integers(0, 9), min_size=1, max_size=12),
    st.lists(st.integers(0, 9), min_size=1, max_size=12),
)
def test_similarity_symmetric_and_bounded(sa, sb):
    a, b = make_utt("a", sa), make_utt("b", sb)
    s1 = ground_truth_similarity(a, b)
    s2 = ground_truth_similarity(b, a)
    assert s1 == s2
    assert 0.0 <= s1 <= 1.0


def test_similarity_ignores_speaker():
    a = make_utt("a", [0, 1, 2], speaker=0)
    b = make_utt("b", [0, 1, 3], speaker=1)
    b2 = make_utt("b2", [0, 1, 3], speaker=3)
    assert ground_truth_similarity(a, b) == ground_truth_similarity(a, b2)


# ---------------------------------------------------------------------------
# stratified pairs
# ---------------------------------------------------------------------------

def test_scored_pairs_histogram_near_uniform():
    spec = SyntheticSpec(n_utterances=400, seed=21)
    corpus = generate_corpus(spec)
    pairs = build_scored_pairs(corpus, n_pairs=100, seed=13)
    assert len(pairs) == 100
    hist = [0] * 10
    for a, b, score in pairs.pairs:
        assert 0.0 <= score <= 5.0
        hist[min(int(score / 5.0 * 10), 9)] += 1
    for count in hist:
        assert 8 <= count <= 12
    # scores match a recomputation through the oracle
    for a, b, score in pairs.pairs:
        assert score == pytest.approx(
            5.0 * ground_truth_similarity(corpus[a], corpus[b]), abs=1e-12
        )


def test_scored_pairs_deterministic():
    spec = SyntheticSpec(n_utterances=300, seed=4)
    corpus = generate_corpus(spec)
    p1 = build_scored_pairs(corpus, n_pairs=50, seed=8)
    p2 = build_scored_pairs(corpus, n_pairs=50, seed=8)
    assert p1.pairs == p2.pairs
    p3 = build_scored_pairs(corpus, n_pairs=50, seed=9)
    assert p1.pairs != p3.pairs


def test_scored_pairs_unique_unordered():
    spec = SyntheticSpec(n_utterances=300, seed=4)
    corpus = generate_corpus(spec)
    pairs = build_scored_pairs(corpus, n_pairs=120, seed=2)
    keys = {frozenset((a, b)) for a, b, _ in pairs.pairs}
    assert len(keys) == len(pairs.pairs)


def test_scored_pairs_degenerate_corpus_errors():
    utts = [make_utt(f"u{i}", [1, 2, 3]) for i in range(30)]
    corpus = Corpus(utterances=utts)
    with pytest.raises(PairBinningError) as e:
        build_scored_pairs(corpus, n_pairs=20, seed=0)
    # every pair scores 1.0, so the first empty bin is named and the only
    # populable interval is the top one
    assert "[4.5, 5.0]" in str(e.value)
    assert e.value.bin_range is not None


def test_scored_pairs_requires_ground_truth():
    fs = FeatureSequence(np.zeros((2, 3), dtype=np.float32))
    utts = [Utterance(id=f"u{i}", speaker_id=0, features=fs, symbols=None) for i in range(20)]
    corpus = Corpus(utterances=utts)
    with pytest.raises(MissingGroundTruthError):
        build_scored_pairs(corpus, n_pairs=10, seed=0)


# reference stratifier: every candidate pair as a Python tuple, per-draw
# candidate sampling into a set, bins as shuffled lists of tuples
def reference_scored_pairs(corpus, n_pairs, seed, split="dev", max_candidates=2_500_000):
    rng = derive_rng(seed, "pairs", split)
    utts = corpus.utterances
    n = len(utts)
    counts = np.zeros((n, 1 + max(max(u.symbols) for u in utts)))
    for row, u in enumerate(utts):
        for sym in u.symbols:
            counts[row, sym] += 1.0
    sq = np.einsum("ij,ij->i", counts, counts)
    if n * (n - 1) // 2 <= max_candidates:
        iu, ju = np.triu_indices(n, k=1)
        dots = (counts @ counts.T)[iu, ju]
    else:
        seen = set()
        while len(seen) < max_candidates:
            for i, j in rng.integers(n, size=(max_candidates, 2)):
                if i == j:
                    continue
                seen.add((min(i, j), max(i, j)))
                if len(seen) >= max_candidates:
                    break
        arr = np.array(sorted(seen), dtype=np.int64)
        iu, ju = arr[:, 0], arr[:, 1]
        dots = np.einsum("ij,ij->i", counts[iu], counts[ju])
    scores = np.where(dots == 0.0, 0.0, dots / np.sqrt(sq[iu] * sq[ju]))
    bin_of = np.minimum((scores * 10).astype(np.int64), 9)
    bins = []
    for k in range(10):
        members = np.flatnonzero(bin_of == k)
        bins.append([(int(iu[m]), int(ju[m]), float(scores[m])) for m in members])
    for k in range(10):
        rng.shuffle(bins[k])
    base, rem = divmod(n_pairs, 10)
    quotas = [base + (1 if k < rem else 0) for k in range(10)]
    taken = []
    for k in range(10):
        taken.append(bins[k][: quotas[k]])
        bins[k] = bins[k][quotas[k] :]
    borrowed = 0
    for k in range(10):
        deficit = quotas[k] - len(taken[k])
        for dist in range(1, 10):
            for nb in (k - dist, k + dist):
                if deficit > 0 and 0 <= nb < 10 and bins[nb]:
                    grab = min(deficit, len(bins[nb]))
                    taken[k].extend(bins[nb][:grab])
                    bins[nb] = bins[nb][grab:]
                    deficit -= grab
                    borrowed += grab
    pairs = [(utts[i].id, utts[j].id, 5.0 * s) for bucket in taken for i, j, s in bucket]
    return pairs, borrowed


def test_scored_pairs_borrowing_matches_reference():
    corpus = generate_corpus(SyntheticSpec(n_utterances=40, seed=0))
    expected, borrowed = reference_scored_pairs(corpus, n_pairs=100, seed=1)
    assert borrowed > 0
    assert build_scored_pairs(corpus, n_pairs=100, seed=1).pairs == expected


def test_scored_pairs_sampled_candidates_match_reference():
    corpus = generate_corpus(SyntheticSpec(n_utterances=150, seed=2))
    # 6000 of 11175 pairs: a (6000, 2) draw holds repeats and self-pairs, and
    # the sampler needs a second round to reach the budget
    expected, _ = reference_scored_pairs(corpus, n_pairs=60, seed=5, max_candidates=6000)
    got = build_scored_pairs(corpus, n_pairs=60, seed=5, max_candidates=6000)
    assert got.pairs == expected


@pytest.mark.parametrize("block", [1, 7, 500])
def test_scored_pairs_match_reference_at_any_block_size(monkeypatch, block):
    monkeypatch.setattr(corpus_module, "_PAIR_BLOCK", block)
    corpus = generate_corpus(SyntheticSpec(n_utterances=150, seed=2))
    expected, _ = reference_scored_pairs(corpus, n_pairs=60, seed=5)
    assert build_scored_pairs(corpus, n_pairs=60, seed=5).pairs == expected
    expected, _ = reference_scored_pairs(corpus, n_pairs=60, seed=5, max_candidates=6000)
    assert build_scored_pairs(corpus, n_pairs=60, seed=5, max_candidates=6000).pairs == expected


# The all-pairs path once held the (n, n) Gram matrix and five arrays over all
# candidates (92 MiB at 2000 utterances), the sampled one (n_candidates, symbols)
# gathers of the count matrix (687 MiB at 3000). Blocked scoring brought them
# to 20.3 and 243.1 MiB; int32 all-pairs keys and a sampler that turns its
# draw into keys block by block to 15.7 and 84.1 MiB. Each bound adds 25%.
@pytest.mark.parametrize("n_utterances, limit_mib", [(2000, 19.5), (3000, 105)],
                         ids=["all-pairs", "sampled"])
def test_scored_pairs_peak_memory(n_utterances, limit_mib):
    corpus = generate_corpus(SyntheticSpec(n_utterances=n_utterances, seed=0))
    tracemalloc.start()
    try:
        pairs = build_scored_pairs(corpus, n_pairs=200, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 200
    assert peak <= limit_mib * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _ascending(bins):
    return all(np.all(b[1:] > b[:-1]) for b in bins)


def test_shared_candidates_draw_the_pairs_of_independent_calls():
    corpus = generate_corpus(SyntheticSpec(n_utterances=150, seed=2))
    candidates = PairCandidates()
    for split, n_pairs in (("dev", 60), ("test", 40), ("dev", 60), ("test", 70)):
        shared = build_scored_pairs(corpus, n_pairs, seed=5, split=split, candidates=candidates)
        assert shared.pairs == build_scored_pairs(corpus, n_pairs, seed=5, split=split).pairs
        assert candidates.corpus is corpus and _ascending(candidates.scored[2])
    bins = candidates.scored[2]
    # another corpus is scored anew, and replaces the kept one
    other = generate_corpus(SyntheticSpec(n_utterances=100, seed=3))
    shared = build_scored_pairs(other, 50, seed=5, candidates=candidates)
    assert shared.pairs == build_scored_pairs(other, 50, seed=5).pairs
    assert candidates.corpus is other and candidates.scored[2] is not bins


def test_shared_candidates_are_left_as_scored_when_a_draw_raises():
    corpus = generate_corpus(SyntheticSpec(n_utterances=40, seed=0))
    candidates = PairCandidates()
    # 120 pairs cannot be drawn within 20% of 12 a bin from these 780
    with pytest.raises(PairBinningError, match="deviates more than 20%"):
        build_scored_pairs(corpus, 120, seed=1, candidates=candidates)
    assert candidates.corpus is corpus and _ascending(candidates.scored[2])
    expected, borrowed = reference_scored_pairs(corpus, n_pairs=100, seed=1)
    assert borrowed > 0
    assert build_scored_pairs(corpus, 100, seed=1, candidates=candidates).pairs == expected


def test_sampled_candidates_are_not_shared():
    corpus = generate_corpus(SyntheticSpec(n_utterances=150, seed=2))
    candidates = PairCandidates()
    for split in ("dev", "test"):
        expected, _ = reference_scored_pairs(corpus, 60, seed=5, split=split, max_candidates=6000)
        got = build_scored_pairs(
            corpus, 60, seed=5, split=split, max_candidates=6000, candidates=candidates
        )
        assert got.pairs == expected
        assert candidates.scored is None


def test_scored_pair_set_validates():
    with pytest.raises(ValidationError):
        ScoredPairSet(pairs=[("a", "b", 6.0)])
    with pytest.raises(ValidationError):
        ScoredPairSet(pairs=[("a", "b", 1.0), ("b", "a", 2.0)])
    with pytest.raises(ValidationError):
        ScoredPairSet(pairs=[("a", "b", 1.0)], split="train")


# ---------------------------------------------------------------------------
# feature file format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_feature_sequence_rejects_non_finite_frames(bad):
    data = np.ones((3, 2), dtype=np.float32)
    data[2, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        FeatureSequence(data)


def test_loaded_frames_are_checked_once(tmp_path, monkeypatch):
    # the reader checks them, at their byte offset; the loaded sequence
    # does not check them again
    corpus = generate_corpus(SyntheticSpec(n_utterances=4, seed=1))
    save_corpus(corpus, tmp_path)
    write_features(tmp_path / "one.semf", corpus.utterances[0].features)
    built = []
    monkeypatch.setattr(FeatureSequence, "__post_init__", lambda self: built.append(self))
    back = load_corpus(tmp_path)
    one = read_features(tmp_path / "one.semf")
    assert built == []
    assert np.array_equal(one.data, corpus.utterances[0].features.data)
    for u in back:
        assert u.features.data.dtype == np.float32
        assert np.array_equal(u.features.data, corpus[u.id].features.data)


def test_feature_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    fs = FeatureSequence(rng.standard_normal((7, 5)).astype(np.float32))
    path = tmp_path / "x.semf"
    write_features(path, fs)
    back = read_features(path)
    assert np.array_equal(back.data, fs.data)
    assert back.data.dtype == np.float32


def test_feature_header_layout(tmp_path):
    fs = FeatureSequence(np.ones((2, 3), dtype=np.float32))
    path = tmp_path / "x.semf"
    write_features(path, fs)
    blob = path.read_bytes()
    assert blob[:4] == b"SEMF"
    assert int.from_bytes(blob[4:6], "little") == 1
    assert int.from_bytes(blob[6:10], "little") == 2
    assert int.from_bytes(blob[10:14], "little") == 3
    assert len(blob) == 14 + 4 * 6


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "x.semf"
    path.write_bytes(b"XXXX" + bytes(10))
    with pytest.raises(FileFormatError) as e:
        read_features(path)
    assert e.value.offset == 0


def test_feature_bad_version(tmp_path):
    path = tmp_path / "x.semf"
    path.write_bytes(b"SEMF" + (2).to_bytes(2, "little") + bytes(8))
    with pytest.raises(FileFormatError) as e:
        read_features(path)
    assert e.value.offset == 4


def test_feature_zero_frames(tmp_path):
    path = tmp_path / "x.semf"
    path.write_bytes(
        b"SEMF" + (1).to_bytes(2, "little") + (0).to_bytes(4, "little") + (3).to_bytes(4, "little")
    )
    with pytest.raises(FileFormatError) as e:
        read_features(path)
    assert e.value.offset == 6


def test_feature_truncated_payload(tmp_path):
    fs = FeatureSequence(np.ones((4, 4), dtype=np.float32))
    path = tmp_path / "x.semf"
    write_features(path, fs)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FileFormatError) as e:
        read_features(path)
    assert e.value.offset == len(blob) - 8
    assert "byte offset" in str(e.value)


def test_feature_non_finite_rejected(tmp_path):
    data = np.ones((2, 2), dtype="<f4")
    data[1, 1] = np.nan
    path = tmp_path / "x.semf"
    blob = (
        b"SEMF"
        + (1).to_bytes(2, "little")
        + (2).to_bytes(4, "little")
        + (2).to_bytes(4, "little")
        + data.tobytes()
    )
    path.write_bytes(blob)
    with pytest.raises(FileFormatError) as e:
        read_features(path)
    assert e.value.offset == 14 + 4 * 3


@settings(max_examples=25)
@given(
    n_frames=st.integers(1, 20),
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_feature_round_trip_property(tmp_path_factory, n_frames, dim, seed):
    rng = np.random.default_rng(seed)
    fs = FeatureSequence(rng.standard_normal((n_frames, dim)).astype(np.float32))
    path = tmp_path_factory.mktemp("semf") / "x.semf"
    write_features(path, fs)
    assert np.array_equal(read_features(path).data, fs.data)


# ---------------------------------------------------------------------------
# corpus round trip
# ---------------------------------------------------------------------------

def test_corpus_save_load_round_trip(tmp_path):
    spec = SyntheticSpec(n_utterances=12, seed=6)
    corpus = generate_corpus(spec)
    save_corpus(corpus, tmp_path)
    back = load_corpus(tmp_path)
    assert len(back) == len(corpus)
    for u1, u2 in zip(corpus.utterances, back.utterances):
        assert u1.id == u2.id
        assert u1.speaker_id == u2.speaker_id
        assert u1.symbols == u2.symbols
        assert np.array_equal(u1.features.data, u2.features.data)
    assert back.has_ground_truth


def test_saved_corpus_is_one_archive_that_rows_index(tmp_path):
    corpus = generate_corpus(SyntheticSpec(n_utterances=5, seed=6))
    manifest = save_corpus(corpus, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.semf", "manifest.jsonl"]
    recs = [json.loads(line) for line in manifest.read_text().splitlines()]
    stops = np.cumsum([u.features.n_frames for u in corpus]).tolist()
    assert [r["rows"] for r in recs] == [[a, b] for a, b in zip([0] + stops[:-1], stops)]
    assert {r["path"] for r in recs} == {"features.semf"}
    archive = read_features(tmp_path / "features.semf")
    assert np.array_equal(archive.data, np.concatenate([u.features.data for u in corpus]))


def test_save_corpus_needs_one_feature_dimension(tmp_path):
    utts = [make_utt("a", [0], dim=4), make_utt("b", [1], dim=3)]
    for corpus in (Corpus(utterances=utts), Corpus(utterances=[])):
        with pytest.raises(ValidationError, match="one feature dimension"):
            save_corpus(corpus, tmp_path)
    assert not list(tmp_path.iterdir())


def test_corpus_load_reads_only_the_named_feature_files(tmp_path):
    corpus = generate_corpus(SyntheticSpec(n_utterances=6, seed=6))
    save_corpus(corpus, tmp_path)
    offset = poison_frame(tmp_path, "utt-1")
    # utt-0 and utt-2 sit on either side of utt-1's rows in the archive
    back = load_corpus(tmp_path, ids={"utt-4", "utt-2", "utt-0"})
    assert [u.id for u in back] == ["utt-0", "utt-2", "utt-4"]  # manifest order
    for u in back:
        assert np.array_equal(u.features.data, corpus[u.id].features.data)
        assert u.symbols == corpus[u.id].symbols
    for ids in ({"utt-1"}, None):
        with pytest.raises(FileFormatError, match="non-finite value in frames of 'utt-1'") as e:
            load_corpus(tmp_path, ids=ids)
        assert e.value.offset == offset


def test_per_file_manifest_loads_like_the_archive(tmp_path):
    corpus = generate_corpus(SyntheticSpec(n_utterances=5, seed=6))
    save_corpus(corpus, tmp_path / "packed")
    per_file = tmp_path / "per-file"
    (per_file / "features").mkdir(parents=True)
    lines = []
    for u in corpus:
        rel = f"features/{u.id}.semf"
        write_features(per_file / rel, u.features)
        record = {"id": u.id, "speaker": u.speaker_id, "path": rel, "symbols": u.symbols}
        lines.append(json.dumps(record) + "\n")
    (per_file / "manifest.jsonl").write_text("".join(lines))
    for ids in (None, {"utt-3", "utt-1"}):
        a, b = load_corpus(per_file, ids=ids), load_corpus(tmp_path / "packed", ids=ids)
        assert [(u.id, u.speaker_id, u.symbols) for u in a] == [
            (u.id, u.speaker_id, u.symbols) for u in b
        ]
        for ua, ub in zip(a, b):
            assert ua.features.data.dtype == ub.features.data.dtype == np.float32
            assert ua.features.data.tobytes() == ub.features.data.tobytes()
    # a file that no kept line names is never opened
    (per_file / "features" / "utt-0.semf").write_bytes(b"damaged")
    assert len(load_corpus(per_file, ids={"utt-1"})) == 1
    with pytest.raises(FileFormatError, match="bad magic"):
        load_corpus(per_file)


@pytest.mark.parametrize(
    "rows", [[5, 5], [5, 3], [-1, 2], "past"], ids=["empty", "reversed", "negative", "past-end"]
)
def test_manifest_rows_outside_the_archive_are_one_format_error(tmp_path, rows):
    corpus = generate_corpus(SyntheticSpec(n_utterances=3, seed=6))
    manifest = save_corpus(corpus, tmp_path)
    total = sum(u.features.n_frames for u in corpus)
    if rows == "past":
        rows = [total - 1, total + 1]
    recs = [json.loads(line) for line in manifest.read_text().splitlines()]
    recs[1]["rows"] = rows
    manifest.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert len(load_corpus(tmp_path, ids={"utt-0", "utt-2"})) == 2
    with pytest.raises(FileFormatError, match=f"manifest line 2 rows .* of the {total} frames"):
        load_corpus(tmp_path)


def test_corpus_load_checks_every_manifest_line(tmp_path):
    corpus = generate_corpus(SyntheticSpec(n_utterances=3, seed=6))
    manifest = save_corpus(corpus, tmp_path)
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(ValidationError, match="unique"):
        load_corpus(tmp_path, ids={"utt-0"})
    manifest.write_text("\n".join(lines + ["5"]) + "\n")
    with pytest.raises(FileFormatError, match="manifest line 4 is not a JSON object"):
        load_corpus(tmp_path, ids={"utt-0"})


def test_corpus_load_missing_manifest(tmp_path):
    with pytest.raises(FileFormatError):
        load_corpus(tmp_path)


def test_manifest_without_utterances_is_a_format_error(tmp_path):
    (tmp_path / "manifest.jsonl").write_text("\n  \n")
    with pytest.raises(FileFormatError, match="lists no utterances"):
        load_corpus(tmp_path)
    # a manifest with utterances, none of them asked for, is an empty corpus
    save_corpus(generate_corpus(SyntheticSpec(n_utterances=3, seed=6)), tmp_path)
    assert len(load_corpus(tmp_path, ids={"utt-9"})) == 0


@pytest.mark.parametrize(
    "line, fault",
    [
        ('{"id": "u0", "speaker": "x", "path": "features/u0.semf"}', "'speaker' is not a JSON int"),
        ('{"id": "u0", "speaker": 0, "path": 5}', "'path' is not a JSON str"),
        ("5", "is not a JSON object"),
        ('{"id": "u0", "speaker": 0, "path": "features/u0.semf", "symbols": 3}', "'symbols'"),
        ('{"id": "a\\tb", "speaker": 0, "path": "features/u0.semf"}', "tab or line break"),
        ('{"id": "a\\nb", "speaker": 0, "path": "features/u0.semf"}', "tab or line break"),
        ('{"id": "a\\rb", "speaker": 0, "path": "features/u0.semf"}', "tab or line break"),
        ('{"id": "u0", "speaker": 0, "path": "features/u0.semf", "rows": 1}', "'rows'"),
        ('{"id": "u0", "speaker": 0, "path": "features/u0.semf", "rows": [0]}', "'rows'"),
        ('{"id": "u0", "speaker": 0, "path": "features/u0.semf", "rows": [0, 1, 2]}', "'rows'"),
        ('{"id": "u0", "speaker": 0, "path": "features/u0.semf", "rows": [0, 1.0]}', "'rows'"),
        ('{"id": "u0", "speaker": 0, "path": "features/u0.semf", "rows": [false, 1]}', "'rows'"),
    ],
    ids=[
        "speaker-a-string",
        "path-a-number",
        "bare-number",
        "symbols-a-number",
        "id-with-tab",
        "id-with-line-feed",
        "id-with-carriage-return",
        "rows-a-number",
        "rows-of-one-int",
        "rows-of-three-ints",
        "rows-with-a-float",
        "rows-with-a-bool",
    ],
)
def test_manifest_line_of_the_wrong_type_is_a_format_error(tmp_path, line, fault):
    (tmp_path / "features").mkdir()
    write_features(tmp_path / "features" / "u0.semf", FeatureSequence(np.ones((2, 3))))
    (tmp_path / "manifest.jsonl").write_text(line + "\n")
    with pytest.raises(FileFormatError, match=f"manifest line 1 .*{fault}"):
        load_corpus(tmp_path)


def test_corpus_rejects_duplicate_ids():
    fs = FeatureSequence(np.zeros((1, 2), dtype=np.float32))
    utts = [Utterance(id="same", speaker_id=0, features=fs, symbols=[0])] * 2
    with pytest.raises(ValidationError):
        Corpus(utterances=utts)


def test_scored_pairs_round_trip(tmp_path):
    pairs = ScoredPairSet(
        pairs=[("u1", "u2", 3.25), ("u1", "u3", 0.0), ("u2", "u3", 5.0)], split="test"
    )
    path = tmp_path / "pairs.tsv"
    save_scored_pairs(pairs, path)
    back = load_scored_pairs(path, split="test")
    assert back.split == "test"
    assert [(a, b) for a, b, _ in back.pairs] == [(a, b) for a, b, _ in pairs.pairs]
    for (_, _, s1), (_, _, s2) in zip(pairs.pairs, back.pairs):
        assert s1 == pytest.approx(s2, abs=1e-6)


def test_scored_pairs_bad_header(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\tc\nu1\tu2\t1.0\n")
    with pytest.raises(FileFormatError):
        load_scored_pairs(path)
