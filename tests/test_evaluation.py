import hashlib
import math

import numpy as np
import pytest

from semspeech.corpus import ScoredPairSet
from semspeech.errors import FileFormatError, MissingGroundTruthError, ValidationError
from semspeech.evaluation import (
    EvalReport,
    alignment,
    average_ranks,
    evaluate,
    l2_normalize,
    load_report,
    pair_cosines,
    save_pair_predictions,
    save_report,
    spearman,
    uniformity,
)


def oracle_ranks(xs):
    # independent implementation: rank = mean of 1-based sorted positions
    xs = list(xs)
    pairs = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(pairs):
        j = i
        while j + 1 < len(pairs) and xs[pairs[j + 1]] == xs[pairs[i]]:
            j += 1
        avg = sum(range(i + 1, j + 2)) / (j - i + 1)
        for p in pairs[i : j + 1]:
            ranks[p] = avg
        i = j + 1
    return ranks


def oracle_spearman(xs, ys):
    rx, ry = oracle_ranks(xs), oracle_ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    )
    return num / den


# ---------------------------------------------------------------------------
# spearman
# ---------------------------------------------------------------------------

def test_spearman_identity_and_reverse():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0]
    assert spearman(xs, xs) == pytest.approx(1.0, abs=1e-12)
    assert spearman(xs, [-v for v in xs]) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_tie_case_matches_oracle():
    xs = [1.0, 2.0, 2.0, 3.0]
    ys = [1.0, 3.0, 2.0, 4.0]
    assert spearman(xs, ys) == pytest.approx(oracle_spearman(xs, ys), abs=1e-12)


def test_spearman_many_random_instances_match_oracle():
    rng = np.random.default_rng(0)
    for _ in range(120):
        n = int(rng.integers(2, 30))
        xs = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        ys = rng.standard_normal(n)
        if np.all(xs == xs[0]):
            continue
        assert spearman(xs, ys) == pytest.approx(oracle_spearman(xs, ys), abs=1e-9)


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    xs = rng.standard_normal(40)
    ys = rng.standard_normal(40)
    base = spearman(xs, ys)
    assert spearman(np.exp(xs), ys) == base
    assert spearman(xs, 3.0 * ys + 7.0) == base


def test_spearman_errors():
    with pytest.raises(ValidationError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        spearman([1.0], [2.0])
    with pytest.raises(ValidationError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


def test_average_ranks_example():
    assert list(average_ranks(np.array([10.0, 20.0, 20.0, 30.0]))) == [1.0, 2.5, 2.5, 4.0]


# ---------------------------------------------------------------------------
# alignment / uniformity
# ---------------------------------------------------------------------------

def pairset(entries):
    return ScoredPairSet(pairs=entries, split="test")


def test_alignment_identical_embeddings_zero():
    embs = {"a": np.array([1.0, 0.0]), "b": np.array([2.0, 0.0])}
    pairs = pairset([("a", "b", 5.0)])
    assert alignment(embs, pairs) == pytest.approx(0.0, abs=1e-15)


def test_alignment_antipodal_is_four():
    embs = {"a": np.array([0.0, 3.0]), "b": np.array([0.0, -7.0])}
    pairs = pairset([("a", "b", 4.5)])
    assert alignment(embs, pairs) == pytest.approx(4.0, abs=1e-12)


def test_alignment_matches_brute_force():
    rng = np.random.default_rng(2)
    ids = [f"u{i}" for i in range(10)]
    embs = {i: rng.standard_normal(6) for i in ids}
    entries = []
    for n, i in enumerate(range(0, 10, 2)):
        score = 4.0 + 0.2 * n if n % 2 == 0 else float(rng.uniform(0, 3.9))
        entries.append((ids[i], ids[i + 1], score))
    pairs = pairset(entries)
    got = alignment(embs, pairs)
    total, count = 0.0, 0
    for a, b, s in entries:
        if s >= 4.0:
            ea = embs[a] / np.linalg.norm(embs[a])
            eb = embs[b] / np.linalg.norm(embs[b])
            total += float(((ea - eb) ** 2).sum())
            count += 1
    assert got == pytest.approx(total / count, abs=1e-9)


def test_alignment_requires_positives():
    embs = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
    with pytest.raises(ValidationError):
        alignment(embs, pairset([("a", "b", 2.0)]))


def test_alignment_missing_embedding_names_id():
    embs = {"a": np.array([1.0, 0.0])}
    with pytest.raises(MissingGroundTruthError) as e:
        alignment(embs, pairset([("a", "zzz", 5.0)]))
    assert "zzz" in str(e.value)


def test_uniformity_identical_pair_zero():
    embs = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert uniformity(embs) == pytest.approx(0.0, abs=1e-15)


def test_uniformity_antipodal_minus_eight():
    embs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert uniformity(embs) == pytest.approx(-8.0, abs=1e-12)


def test_uniformity_matches_double_loop():
    rng = np.random.default_rng(3)
    embs = rng.standard_normal((10, 5))
    got = uniformity(embs)
    unit = embs / np.linalg.norm(embs, axis=1, keepdims=True)
    total, count = 0.0, 0
    for i in range(10):
        for j in range(i + 1, 10):
            total += math.exp(-2.0 * float(((unit[i] - unit[j]) ** 2).sum()))
            count += 1
    assert got == pytest.approx(math.log(total / count), abs=1e-9)


def test_uniformity_needs_two():
    with pytest.raises(ValidationError):
        uniformity(np.ones((1, 4)))


def test_uniformity_nonpositive_for_unit_vectors():
    rng = np.random.default_rng(4)
    embs = rng.standard_normal((8, 4))
    assert uniformity(embs) <= 0.0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def batched(embed):
    """An ``embed_batch`` callable that stacks ``embed`` of each item."""
    return lambda items: np.stack([embed(item) for item in items])


def oracle_cosine(a, b):
    return float(a @ b) / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b)))


def test_evaluate_single_rendering_reduces_to_cosine():
    rng = np.random.default_rng(5)
    vecs = {f"u{i}": rng.standard_normal(8) for i in range(6)}
    items = {i: i for i in vecs}  # item = id itself
    entries = [("u0", "u1", 5.0), ("u2", "u3", 2.0), ("u4", "u5", 4.2)]
    report = evaluate(batched(lambda key: vecs[key]), pairset(entries), items)
    for p in report.per_pair:
        assert p.predicted == pytest.approx(oracle_cosine(vecs[p.id_a], vecs[p.id_b]), abs=1e-12)
    # rho equals spearman recomputed from the assembled vectors
    rho = spearman([p.predicted for p in report.per_pair], [e[2] for e in entries])
    assert report.spearman == pytest.approx(rho, abs=1e-15)


def test_evaluate_missing_rendering_names_id():
    items = {"a": 0}
    with pytest.raises(MissingGroundTruthError) as e:
        evaluate(batched(lambda key: np.ones(3)), pairset([("a", "missing-one", 3.0)]), items)
    assert "missing-one" in str(e.value)


def test_evaluate_embeds_every_rendering_in_one_batch():
    rng = np.random.default_rng(8)
    vecs = {f"u{i}": rng.standard_normal(4) for i in range(4)}
    items = {i: i for i in vecs}
    entries = [("u0", "u1", 5.0), ("u2", "u3", 1.0), ("u1", "u2", 3.0)]
    calls = []

    def embed_batch(items):
        calls.append(list(items))
        return np.stack([vecs[k] for k in items])

    evaluate(embed_batch, pairset(entries), items)
    assert calls == [["u0", "u1", "u2", "u3"]]
    with pytest.raises(ValidationError, match="one vector per item"):
        evaluate(lambda batch: np.ones((1, 4)), pairset(entries), items)


def test_evaluate_scale_invariance():
    rng = np.random.default_rng(7)
    vecs = {f"u{i}": rng.standard_normal(5) for i in range(4)}
    items = {i: i for i in vecs}
    entries = [("u0", "u1", 5.0), ("u2", "u3", 1.0), ("u0", "u2", 3.0)]
    base = evaluate(batched(lambda k: vecs[k]), pairset(entries), items)
    # power-of-two per-id rescaling leaves every cosine bit-identical
    scales = {"u0": 4.0, "u1": 0.5, "u2": 16.0, "u3": 2.0}
    scaled = evaluate(batched(lambda k: scales[k] * vecs[k]), pairset(entries), items)
    assert scaled.spearman == base.spearman
    for p, q in zip(base.per_pair, scaled.per_pair):
        assert p.predicted == q.predicted


def test_pair_cosines_are_bit_equal_to_the_scalar_formula():
    rng = np.random.default_rng(9)
    vecs = {f"u{i}": rng.standard_normal(16) * rng.uniform(0.1, 10.0) for i in range(100)}
    entries = [(f"u{i}", f"u{j}", 1.0) for i in range(100) for j in range(i + 1, 100, 7)]
    got = pair_cosines(vecs, pairset(entries))
    assert got == [oracle_cosine(vecs[a], vecs[b]) for a, b, _ in entries]


def test_evaluate_files_keep_their_bytes(tmp_path):
    # digests of the files written when each id could carry several renderings;
    # per_pair.tsv's is that file's with its always-1 n_combinations column cut
    rng = np.random.default_rng(20)
    ids = [f"u{i:02d}" for i in range(12)]
    vecs = {i: rng.standard_normal(6) for i in ids}
    entries = [
        (ids[i], ids[(i + step) % 12], float(rng.uniform(0.0, 5.0)))
        for step in (1, 3)
        for i in range(12)
    ]
    report = evaluate(
        batched(lambda k: vecs[k]), pairset(entries), {i: i for i in ids},
        metadata={"model_kind": "fixed"},
    )
    save_report(report, tmp_path / "report.json")
    save_pair_predictions(report, tmp_path / "per_pair.tsv")
    digest = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("report.json", "per_pair.tsv")
    }
    assert digest == {
        "report.json": "9f05bc7a0fa8622b4912d2319df2e9905d020145de6151e158ee398cb43fa134",
        "per_pair.tsv": "50c499887952f98cad0b1111e9c8902427cf477a3ba246c7c602779f9d3f5717",
    }


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def test_report_round_trip(tmp_path):
    report = EvalReport(
        spearman=0.61,
        n_pairs=200,
        alignment=0.4,
        uniformity=-2.2,
        metadata={"model": "m1", "split": "test"},
    )
    path = tmp_path / "report.json"
    save_report(report, path)
    back = load_report(path)
    assert back.spearman == report.spearman
    assert back.metadata["model"] == "m1"


def test_report_written_with_a_recall_key_still_loads(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(
        '{"alignment": 0.4, "metadata": {"model": "m1"}, "n_pairs": 200,'
        ' "recall_at_k": {}, "spearman": 0.61, "uniformity": -2.2}\n'
    )
    back = load_report(path)
    assert (back.spearman, back.n_pairs, back.alignment, back.uniformity) == (0.61, 200, 0.4, -2.2)
    assert back.metadata == {"model": "m1"}
    assert "recall_at_k" not in back.to_json()


@pytest.mark.parametrize(
    "text",
    [
        '{"alignment": 0.4, "n_pairs": 200, "spe',
        '{"alignment": 0.4, "n_pairs": 200, "uniformity": -2.2}',
        '{"alignment": 0.4, "n_pairs": 200, "spearman": 0.61, "uniformity": "-2.2"}',
        '{"alignment": 0.4, "n_pairs": 2.5, "spearman": 0.61, "uniformity": -2.2}',
        '{"alignment": 0.4, "n_pairs": 200, "spearman": 7.0, "uniformity": -2.2}',
        '[0.4, 200, 0.61, -2.2]',
    ],
    ids=["truncated", "missing-key", "string-field", "fractional-count", "out-of-range", "list"],
)
def test_a_damaged_report_is_one_format_error(tmp_path, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    with pytest.raises(FileFormatError, match="not an evaluation report"):
        load_report(path)


def test_report_validation():
    with pytest.raises(ValidationError):
        EvalReport(spearman=1.5, n_pairs=10, alignment=0.1, uniformity=-1.0)
    with pytest.raises(ValidationError):
        EvalReport(spearman=0.5, n_pairs=10, alignment=-0.1, uniformity=-1.0)


def test_pair_predictions_file(tmp_path):
    rng = np.random.default_rng(13)
    vecs = {f"u{i}": rng.standard_normal(4) for i in range(4)}
    items = {i: i for i in vecs}
    entries = [("u0", "u1", 5.0), ("u2", "u3", 1.5)]
    report = evaluate(batched(lambda k: vecs[k]), pairset(entries), items)
    path = tmp_path / "pairs.tsv"
    save_pair_predictions(report, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "id_a\tid_b\thuman_score\tpredicted"
    assert len(lines) == 3


def test_l2_normalize_zero_vector_errors():
    with pytest.raises(ValidationError):
        l2_normalize(np.zeros(4))
