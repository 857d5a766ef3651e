"""Package-level acceptance checks, one test per criterion.

Each test pins an end-to-end property at a stated tolerance: gradient
correctness, agreement of the loss/metric formulas with independent
brute-force oracles, quantizer recovery, the training signal of the
autoencoder/teacher/student models on the standard synthetic corpus,
memory-bank semantics, pipeline determinism, and exact search. The
training checks run real (small) models, so this module is the slowest
in the suite; every check prints its measured values.
"""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gradcheck import grad_check
from semspeech.cli import main as cli_main
from semspeech.corpus import (
    ScoredPairSet,
    SyntheticSpec,
    build_scored_pairs,
    generate_corpus,
)
from semspeech.distill import DistillConfig, MemoryBank, StudentModel, distill_train
from semspeech.evaluation import alignment, spearman, uniformity
from semspeech.index import EmbeddingIndex, search_batch
from semspeech.nn.layers import (
    EncoderConfig,
    apply_attention,
    apply_linear,
    attention_pool,
    causal_mask,
    init_attention,
    init_embedding,
    init_linear,
)
from semspeech.nn.losses import infonce_batch
from semspeech.nn.optim import ParamStore
from semspeech.nn.tensor import Packing, Tensor, nll, take_rows
from semspeech.quantizer import train_kmeans, quantize_corpus
from semspeech.teachers import (
    SequenceEncoder,
    TeacherConfig,
    mlm_pretrain,
    train_tsdae,
)
from semspeech.tokenizer import CLS, PAD, SEP, N_SPECIALS, wrap_units
from semspeech.wavembed import TrainRunConfig, WavEmbedModel, train_wavembed

# Model/optimizer settings shared by the training checks. Teacher-side runs
# use the defaults the training functions ship with (lr 5e-4); distillation
# uses its own default (lr 1e-4). Epoch counts were calibrated once on the
# standard corpus and are fixed here.
TEACHER_CFG = EncoderConfig(layers=2, model_dim=32, heads=4, ff_dim=64, dropout_rate=0.1)
WAVEMBED_CFG = EncoderConfig(layers=2, model_dim=64, heads=4, ff_dim=128, dropout_rate=0.1)
VOCAB = 16 + N_SPECIALS  # default corpus alphabet, wrapped
MLM_STEPS = 4000


def _cos(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def _pair_spearman(embed, pairs, render):
    """Spearman of pair cosines against oracle scores; also returns both arrays."""
    ids = sorted({i for a, b, _ in pairs.pairs for i in (a, b)})
    embs = {i: embed(render(i)) for i in ids}
    pred, gold = [], []
    for a, b, score in pairs.pairs:
        pred.append(_cos(embs[a], embs[b]))
        gold.append(score)
    pred, gold = np.array(pred), np.array(gold)
    return spearman(pred, gold), pred, gold


def _store_digest(store: ParamStore) -> str:
    h = hashlib.sha256()
    for name, p in sorted(store.items()):
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def _agree(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def world():
    """The standard synthetic corpus with its unit/token renderings and pair sets."""
    corpus = generate_corpus(SyntheticSpec())
    frames = np.concatenate([u.features.data for u in corpus])
    codebook = train_kmeans(frames, k=16, seed=0)
    units = quantize_corpus(corpus, codebook)
    tokens = {u.source_id: wrap_units(u, 16) for u in units}
    return SimpleNamespace(
        corpus=corpus,
        codebook=codebook,
        tokens=tokens,
        corpus_tokens=[tokens[u.id] for u in corpus],
        feats={u.id: u.features.data for u in corpus},
        dev=build_scored_pairs(corpus, 200, seed=50, split="dev"),
        test=build_scored_pairs(corpus, 200, seed=100, split="test"),
    )


@pytest.fixture(scope="module")
def mlm_bases(world):
    """Masked-LM pretrained encoder states, one per seed."""
    states = {}
    for seed in (0, 1, 2):
        enc = SequenceEncoder.create(vocab=VOCAB, cfg=TEACHER_CFG, seed=seed)
        mlm_pretrain(
            enc, world.corpus_tokens,
            mask_rate=0.15, steps=MLM_STEPS, seed=seed, lr=5e-4, batch_size=16,
        )
        states[seed] = enc.store.state_dict()
    return states


@pytest.fixture(scope="module")
def denoise_teacher(world, mlm_bases):
    """Denoising teacher at deletion ratio 0, from the seed-0 pretrained base."""
    enc = SequenceEncoder.create(vocab=VOCAB, cfg=TEACHER_CFG, seed=0)
    enc.store.load_state_dict(mlm_bases[0])
    teacher, _ = train_tsdae(
        enc, world.corpus_tokens,
        TeacherConfig(deletion_ratio=0.0, epochs=4, batch_size=32, lr=5e-4, seed=0),
    )
    return teacher


# ---------------------------------------------------------------------------
# 1. gradients
# ---------------------------------------------------------------------------

def test_c01_gradients_match_central_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    store = ParamStore()
    init_linear(store, rng, "lin", 5, 4)
    x = Tensor(rng.standard_normal((3, 5)))
    c = Tensor(rng.standard_normal((3, 4)))
    params = [p for _, p in store.items()] + [x]
    err_linear = grad_check(lambda: (apply_linear(store, "lin", x) * c).sum(), params)

    store = ParamStore()
    init_embedding(store, rng, "emb", 7, 4)
    idx = np.array([[0, 3], [6, 2]])
    c = Tensor(rng.standard_normal((2, 2, 4)))
    err_embed = grad_check(
        lambda: (take_rows(store["emb"], idx) * c).sum(), [p for _, p in store.items()]
    )

    store = ParamStore()
    init_attention(store, rng, "att", 4)
    q = Tensor(rng.standard_normal((3, 4)))
    c = Tensor(rng.standard_normal((3, 4)))
    params = [p for _, p in store.items()] + [q]
    one = Packing.from_lengths([3])
    err_attn = grad_check(
        lambda: (apply_attention(store, "att", q, q, 2, one, mask=causal_mask(3)) * c).sum(),
        params,
    )

    micro = EncoderConfig(layers=1, model_dim=4, heads=2, ff_dim=8, dropout_rate=0.0)
    model = WavEmbedModel.create(d_in=3, vocab=7, encoder_cfg=micro, seed=1)
    frames = np.random.default_rng(10).standard_normal((2, 3))
    target = np.array([CLS, 5, 6, SEP])
    err_model = grad_check(
        lambda: model.batch_loss([frames], [target]),
        [p for _, p in model.store.items()],
    )

    elapsed = time.perf_counter() - t0
    print(
        f"gradients: linear={err_linear:.2e} embedding={err_embed:.2e} "
        f"attention={err_attn:.2e} full_model={err_model:.2e} ({elapsed:.1f}s)"
    )
    assert err_linear < 1e-3
    assert err_embed < 1e-3
    assert err_attn < 1e-3
    assert err_model < 5e-3
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. brute-force loss/metric oracles
# ---------------------------------------------------------------------------

def _brute_infonce(z, pos, negs, tau):
    def cos(a, b):
        num = sum(x * y for x, y in zip(a, b))
        return num / math.sqrt(sum(x * x for x in a) * sum(y * y for y in b))

    sims = [cos(z, pos) / tau] + [cos(z, n) / tau for n in negs]
    m = max(sims)
    lse = m + math.log(sum(math.exp(s - m) for s in sims))
    return -(sims[0] - lse)


def _brute_nll(logits, targets, pad_id=0):
    total, count = 0.0, 0
    for b in range(targets.shape[0]):
        for s in range(targets.shape[1]):
            t = int(targets[b, s])
            if t == pad_id:
                continue
            row = [float(v) for v in logits[b, s]]
            m = max(row)
            lse = m + math.log(sum(math.exp(v - m) for v in row))
            total += lse - row[t]
            count += 1
    return total / count


def _brute_attention_pool(h, w):
    scores = [sum(h[t][j] * w[j] for j in range(len(w))) for t in range(len(h))]
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    z = exps_sum = sum(exps)
    weights = [e / exps_sum for e in exps]
    return [sum(weights[t] * h[t][j] for t in range(len(h))) for j in range(len(w))]


def _brute_alignment(embs, pairs, thr):
    def norm(v):
        n = math.sqrt(sum(x * x for x in v))
        return [x / n for x in v]

    total, count = 0.0, 0
    for a, b, score in pairs:
        if score < thr:
            continue
        ea, eb = norm(embs[a]), norm(embs[b])
        total += sum((x - y) ** 2 for x, y in zip(ea, eb))
        count += 1
    return total / count


def _brute_uniformity(arr):
    def norm(v):
        n = math.sqrt(sum(x * x for x in v))
        return [x / n for x in v]

    rows = [norm(list(r)) for r in arr]
    total, count = 0.0, 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            sq = sum((x - y) ** 2 for x, y in zip(rows[i], rows[j]))
            total += math.exp(-2.0 * sq)
            count += 1
    return math.log(total / count)


def _brute_spearman(xs, ys):
    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        out = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def test_c02_losses_match_brute_force_oracles():
    rng = np.random.default_rng(7)
    n_instances = 120
    taus = [0.05, 0.2, 1.0]

    for i in range(n_instances):
        d = int(rng.integers(2, 7))
        n_neg = int(rng.integers(1, 9))
        tau = taus[i % len(taus)]
        z = rng.standard_normal(d)
        pos = rng.standard_normal(d)
        negs = [rng.standard_normal(d) for _ in range(n_neg)]
        # the loss training uses, for one anchor with the negatives as its bank
        bank = Tensor(np.stack(negs))
        got = float(infonce_batch(Tensor(z[None]), Tensor(pos[None]), tau=tau, bank=bank).data)
        want = _brute_infonce(z, pos, negs, tau)
        assert _agree(got, want, 1e-6), f"infonce instance {i}: {got} vs {want}"

    for i in range(n_instances):
        b, s, v = int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(3, 8))
        logits = rng.standard_normal((b, s, v)) * 3.0
        targets = rng.integers(1, v, size=(b, s))
        targets[rng.random((b, s)) < 0.3] = 0
        targets[0, 0] = max(1, int(targets[0, 0]))  # at least one scored position
        got = float(nll(Tensor(logits), targets, targets != PAD).data)
        want = _brute_nll(logits, targets)
        assert _agree(got, want, 1e-6), f"nll instance {i}: {got} vs {want}"

    for i in range(n_instances):
        t, d = int(rng.integers(1, 7)), int(rng.integers(2, 6))
        h = rng.standard_normal((t, d))
        w = rng.standard_normal(d)
        got = attention_pool(Tensor(h), Tensor(w)).data
        want = _brute_attention_pool(h.tolist(), w.tolist())
        assert max(abs(g - v) for g, v in zip(got, want)) <= 1e-6, f"pool instance {i}"

    for i in range(n_instances):
        n, d = int(rng.integers(4, 9)), int(rng.integers(2, 5))
        ids = [f"u{k}" for k in range(n)]
        embs = {k: rng.standard_normal(d) for k in ids}
        pair_ids = [(ids[a], ids[b]) for a in range(n) for b in range(a + 1, n)]
        rng.shuffle(pair_ids)
        raw = [(a, b, float(rng.uniform(0, 5))) for a, b in pair_ids[: int(rng.integers(3, 8))]]
        raw[0] = (raw[0][0], raw[0][1], 4.5)  # guarantee a positive pair
        pairs = ScoredPairSet(pairs=raw, split="dev")
        got = alignment(embs, pairs, pos_threshold=4.0)
        want = _brute_alignment({k: list(v) for k, v in embs.items()}, raw, 4.0)
        assert _agree(got, want, 1e-9), f"alignment instance {i}: {got} vs {want}"

    for i in range(n_instances):
        n, d = int(rng.integers(2, 9)), int(rng.integers(2, 5))
        arr = rng.standard_normal((n, d))
        got = uniformity(arr)
        want = _brute_uniformity(arr.tolist())
        assert _agree(got, want, 1e-9), f"uniformity instance {i}: {got} vs {want}"

    checked = 0
    while checked < n_instances:
        n = int(rng.integers(3, 41))
        if checked % 2 == 0:  # tied ranks half of the time
            xs = rng.integers(0, 6, size=n).astype(float)
            ys = rng.integers(0, 6, size=n).astype(float)
        else:
            xs = rng.standard_normal(n)
            ys = rng.standard_normal(n)
        if len(set(xs.tolist())) < 2 or len(set(ys.tolist())) < 2:
            continue
        got = spearman(xs, ys)
        want = _brute_spearman(xs, ys)
        assert _agree(got, want, 1e-9), f"spearman instance {checked}: {got} vs {want}"
        checked += 1

    print(f"oracles: 6 ops x {n_instances} random instances agree")


# ---------------------------------------------------------------------------
# 3. quantizer recovery
# ---------------------------------------------------------------------------

def test_c03_quantizer_recovers_symbols():
    # zero speaker offsets: "noise-free" must mean one exact point per symbol,
    # otherwise per-speaker sub-clusters make recovery a local-optimum lottery
    spec = SyntheticSpec(
        alphabet_size=8, n_utterances=300, noise_scale=0.0,
        speaker_offset_scale=0.0, seed=7,
    )
    corpus = generate_corpus(spec)
    frames = np.concatenate([u.features.data for u in corpus])
    cb = train_kmeans(frames, k=8, seed=0)
    units = quantize_corpus(corpus, cb)

    # noise-free: unit sequences equal the hidden symbols up to a relabeling
    mapping: dict[int, int] = {}
    for u, seq in zip(corpus, units):
        assert len(seq.units) == len(u.symbols), f"length mismatch on {u.id}"
        for unit, sym in zip(seq.units, u.symbols):
            assert mapping.setdefault(int(unit), sym) == sym, f"inconsistent id map on {u.id}"
    assert sorted(mapping.keys()) == list(range(8))
    assert sorted(mapping.values()) == list(range(8))

    # noisy: same centroids (noise is drawn scaled, so the stream is shared),
    # frame purity under a majority-vote cluster-to-symbol map stays high
    min_dist = np.inf
    cents = corpus.centroids
    for i in range(len(cents)):
        d = np.linalg.norm(cents[i + 1 :] - cents[i], axis=1)
        if d.size:
            min_dist = min(min_dist, float(d.min()))
    noisy = generate_corpus(dataclasses.replace(spec, noise_scale=0.1 * min_dist))
    assert np.array_equal(noisy.centroids, corpus.centroids)
    nframes = np.concatenate([u.features.data for u in noisy])
    ncb = train_kmeans(nframes, k=8, seed=0)
    votes: dict[int, Counter] = {}
    assigned = []
    for u in noisy:
        d = ((u.features.data[:, None, :] - ncb.centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d.argmin(axis=1)
        assigned.append((labels, u.frame_symbols))
        for c, s in zip(labels, u.frame_symbols):
            votes.setdefault(int(c), Counter())[s] += 1
    majority = {c: v.most_common(1)[0][0] for c, v in votes.items()}
    hit = sum(
        sum(majority[int(c)] == s for c, s in zip(labels, syms)) for labels, syms in assigned
    )
    total = sum(len(syms) for _, syms in assigned)
    purity = hit / total
    print(f"quantizer: exact recovery ok; purity at noise 0.1*d_min = {purity:.4f}")
    assert purity >= 0.95


# ---------------------------------------------------------------------------
# 4. deletion-ratio ordering
# ---------------------------------------------------------------------------

def test_c04_deletion_free_denoiser_beats_deletion(world, mlm_bases, denoise_teacher):
    margins = []
    lines = []
    for seed in (0, 1, 2):
        rho = {}
        for ratio in (0.0, 0.6):
            if (seed, ratio) == (0, 0.0):
                teacher = denoise_teacher  # the same run: seed-0 base, ratio 0
            else:
                enc = SequenceEncoder.create(
                    vocab=VOCAB, cfg=TEACHER_CFG, seed=seed
                )
                enc.store.load_state_dict(mlm_bases[seed])
                teacher, _ = train_tsdae(
                    enc, world.corpus_tokens,
                    TeacherConfig(
                        deletion_ratio=ratio, epochs=4, batch_size=32, lr=5e-4, seed=seed
                    ),
                )
            rho[ratio], _, _ = _pair_spearman(
                lambda s: teacher.embed_batch([s])[0], world.dev, lambda i: world.tokens[i]
            )
        margins.append(rho[0.0] - rho[0.6])
        lines.append(
            f"seed {seed}: rho(ratio 0)={rho[0.0]:.4f} rho(ratio 0.6)={rho[0.6]:.4f} "
            f"margin={margins[-1]:+.4f}"
        )
    print("deletion-ratio ordering on dev pairs:")
    for line in lines:
        print("  " + line)
    for seed, margin in zip((0, 1, 2), margins):
        assert margin >= 0.05, (
            f"seed {seed}: ratio 0 must beat ratio 0.6 by >= 0.05, got {margin:+.4f}"
        )


# ---------------------------------------------------------------------------
# 5. speech autoencoder semantic signal
# ---------------------------------------------------------------------------

def test_c05_wavembed_reaches_semantic_signal(world):
    t0 = time.perf_counter()
    model = WavEmbedModel.create(d_in=16, vocab=VOCAB, encoder_cfg=WAVEMBED_CFG, seed=0)
    train_wavembed(
        model, world.corpus, world.tokens,
        TrainRunConfig(epochs=4, lr=5e-4, batch_size=16, seed=0),
    )
    rho, pred, gold = _pair_spearman(model.embed, world.test, lambda i: world.feats[i])

    rng = np.random.default_rng(0)
    n_perm = 1000
    hits = sum(
        spearman(pred, gold[rng.permutation(len(gold))]) >= rho for _ in range(n_perm)
    )
    p_value = (1 + hits) / (n_perm + 1)
    elapsed = time.perf_counter() - t0
    print(
        f"wavembed: test spearman={rho:.4f} permutation p={p_value:.4f} "
        f"({elapsed/60:.1f} min)"
    )
    assert rho >= 0.4
    assert p_value < 0.01
    assert elapsed < 1800.0


# ---------------------------------------------------------------------------
# 6. distillation fidelity
# ---------------------------------------------------------------------------

def test_c06_student_tracks_teacher(world, denoise_teacher):
    teacher_rho, _, _ = _pair_spearman(
        lambda s: denoise_teacher.embed_batch([s])[0], world.test, lambda i: world.tokens[i]
    )
    digest_before = _store_digest(denoise_teacher.encoder.store)

    student = StudentModel.create(d_in=16, cfg=TEACHER_CFG, pooling="self_attention", seed=0)
    distill_train(
        student, denoise_teacher, world.corpus, world.tokens,
        DistillConfig(
            loss="infonce", tau=0.05, batch_size=32, lr=1e-4,
            epochs=12, seed=0, bank_capacity=256,
        ),
        dev_pairs=world.dev,
    )
    student_rho, _, _ = _pair_spearman(student.embed, world.test, lambda i: world.feats[i])
    delta = abs(student_rho - teacher_rho)
    print(
        f"distillation: teacher spearman={teacher_rho:.4f} "
        f"student spearman={student_rho:.4f} |delta|={delta:.4f}"
    )
    assert _store_digest(denoise_teacher.encoder.store) == digest_before
    assert delta <= 0.1


# ---------------------------------------------------------------------------
# 7. pooling/loss ablation grid
# ---------------------------------------------------------------------------

def test_c07_pooling_loss_ablation_grid(world, denoise_teacher):
    cells = {}
    for pooling in ("self_attention", "cls"):
        for loss in ("infonce", "mse"):
            student = StudentModel.create(d_in=16, cfg=TEACHER_CFG, pooling=pooling, seed=0)
            history, info = distill_train(
                student, denoise_teacher, world.corpus, world.tokens,
                DistillConfig(
                    loss=loss, tau=0.05, batch_size=32, lr=1e-4,
                    epochs=2, seed=0, bank_capacity=256,
                ),
                dev_pairs=world.dev,
            )
            assert len(history) == 3  # initial point plus one per epoch
            assert all(math.isfinite(m) for _, m in history)
            cells[(pooling, loss)] = info["best_dev_spearman"]

    print("pooling/loss grid (best dev spearman):")
    print(f"{'':>16} {'infonce':>10} {'mse':>10}")
    for pooling in ("self_attention", "cls"):
        row = [cells[(pooling, loss)] for loss in ("infonce", "mse")]
        print(f"{pooling:>16} {row[0]:>10.4f} {row[1]:>10.4f}")
    assert all(math.isfinite(v) for v in cells.values())
    assert len(cells) == 4


# ---------------------------------------------------------------------------
# 8. memory bank vs reference FIFO
# ---------------------------------------------------------------------------

def test_c08_memory_bank_matches_reference_fifo():
    capacity, dim = 256, 8
    bank = MemoryBank(capacity=capacity)
    oracle: deque = deque(maxlen=capacity)
    rng = np.random.default_rng(3)

    n_ops = 10_000
    for op in range(n_ops):
        if rng.random() < 0.02:
            size = int(rng.integers(capacity + 1, capacity + 45))  # oversize push
        else:
            size = int(rng.integers(1, 17))
        batch = rng.standard_normal((size, dim))
        bank.push(batch)
        for row in batch:
            norm = np.sqrt((row * row).sum())
            oracle.append(row / norm)
        got = bank.contents()
        want = np.stack(list(oracle))
        assert got.shape == want.shape, f"shape diverged at op {op}"
        assert np.array_equal(got, want), f"contents diverged at op {op}"
    print(f"memory bank: {n_ops} randomized operations match the reference FIFO exactly")


# ---------------------------------------------------------------------------
# 9. pipeline determinism
# ---------------------------------------------------------------------------

_DET_CONFIG = """\
[run]
seed = 0

[corpus]
alphabet_size = 8
feature_dim = 8
frames_per_symbol_min = 2
frames_per_symbol_max = 3
n_speakers = 2
utterance_len_min = 3
utterance_len_max = 6
n_utterances = 60

[pairs]
n_dev = 20
n_test = 20

[quantizer]
clusters = 8
max_iters = 50

[tokenizer]
vocab_size = 30

[encoder]
layers = 1
model_dim = 16
heads = 2
ff_dim = 24

[wavembed]
epochs = 1
lr = 0.001
batch_size = 8

[mlm]
steps = 30
batch_size = 8

[tsdae]
epochs = 1
batch_size = 8

[distill]
epochs = 1
batch_size = 8
"""


def _run_toy_pipeline(root, cfg_path):
    def run(*argv):
        rc = cli_main(list(argv))
        assert rc == 0, f"command failed: {argv}"

    c = str(cfg_path)
    data = root / "data"
    run("gen-corpus", "--config", c, "--out", str(data))
    run("quantize", "--config", c, "--out", str(data), "--corpus", str(data / "corpus"))
    run("tokenize", "--config", c, "--out", str(data), "--units", str(data / "units.tsv"))
    run(
        "pretrain-mlm", "--config", c, "--out", str(data),
        "--tokens", str(data / "tokens.tsv"), "--bpe", str(data / "bpe.json"),
    )
    run(
        "train-teacher", "--config", c, "--out", str(root / "teacher"),
        "--tokens", str(data / "tokens.tsv"), "--kind", "tsdae",
        "--base", str(data / "encoder-mlm.semm"),
    )
    run(
        "train-wavembed", "--config", c, "--out", str(root / "wavembed"),
        "--corpus", str(data / "corpus"), "--units", str(data / "units.tsv"),
    )
    run(
        "distill", "--config", c, "--out", str(root / "student"),
        "--corpus", str(data / "corpus"), "--tokens", str(data / "tokens.tsv"),
        "--bpe", str(data / "bpe.json"), "--teacher", str(root / "teacher" / "teacher.semm"),
        "--pairs", str(data / "pairs.dev.tsv"),
    )
    run(
        "evaluate", "--config", c, "--out", str(root / "eval"),
        "--model", str(root / "wavembed" / "wavembed.semm"),
        "--corpus", str(data / "corpus"), "--pairs", str(data / "pairs.test.tsv"),
    )
    run(
        "build-index", "--config", c, "--out", str(root / "index"),
        "--model", str(root / "student" / "student.semm"), "--corpus", str(data / "corpus"),
    )
    run(
        "search", "--config", c, "--out", str(root / "index"),
        "--index", str(root / "index" / "index.semi"), "--query-id", "utt-07", "-k", "5",
    )


def _tree_digests(root):
    # logs carry wall-clock timestamps and are not primary artifacts
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.suffix != ".log":
            rel = str(path.relative_to(root))
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_c09_pipeline_reruns_are_byte_identical(tmp_path, capsys):
    cfg_path = tmp_path / "toy.cfg"
    cfg_path.write_text(_DET_CONFIG)
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    _run_toy_pipeline(run_a, cfg_path)
    _run_toy_pipeline(run_b, cfg_path)
    capsys.readouterr()  # evaluate/search print summaries; not under test here

    digests_a = _tree_digests(run_a)
    digests_b = _tree_digests(run_b)
    assert digests_a, "pipeline produced no artifacts"
    assert set(digests_a) == set(digests_b)
    diffs = [rel for rel in digests_a if digests_a[rel] != digests_b[rel]]
    assert not diffs, f"artifacts differ between reruns: {diffs}"
    print(f"determinism: {len(digests_a)} artifacts byte-identical across reruns of 10 stages")


def test_pipeline_text_writes_name_their_encoding(tmp_path):
    # A text write that leaves the encoding to the locale could write a
    # non-ASCII id in bytes its own UTF-8 reader rejects. Under
    # warn_default_encoding every such open() warns; the run makes that an error.
    cfg_path = tmp_path / "toy.cfg"
    cfg_path.write_text(_DET_CONFIG, encoding="utf-8")
    here = Path(__file__).resolve().parent
    script = (
        "import pathlib, sys\n"
        "from test_acceptance import _run_toy_pipeline\n"
        "_run_toy_pipeline(pathlib.Path(sys.argv[1]), sys.argv[2])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", script, str(tmp_path / "run"), str(cfg_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)])),
        capture_output=True, encoding="utf-8", timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]


# ---------------------------------------------------------------------------
# 10. exact search at scale
# ---------------------------------------------------------------------------

def test_c10_top_k_search_equals_exhaustive_scan():
    n, d, k, n_queries = 10_000, 64, 10, 100
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((n, d))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    ids = [f"item-{i:05d}" for i in range(n)]
    index = EmbeddingIndex(ids=ids, matrix=matrix.astype(np.float32))

    queries = rng.standard_normal((n_queries, d))
    t0 = time.perf_counter()
    results = search_batch(index, queries, k=k)
    elapsed = time.perf_counter() - t0

    mat64 = index.matrix.astype(np.float64)
    for qi, hits in enumerate(results):
        q = queries[qi] / np.linalg.norm(queries[qi])
        scores = mat64 @ q
        want = sorted(zip(ids, scores), key=lambda t: (-t[1], t[0]))[:k]
        assert [h[0] for h in hits] == [w[0] for w in want], f"query {qi} ids diverge"
        assert max(abs(h[1] - w[1]) for h, w in zip(hits, want)) <= 1e-12, f"query {qi} scores"
    print(f"search: batch of {n_queries} queries over {n}x{d} in {elapsed:.2f}s, exact")
    assert elapsed < 2.0
