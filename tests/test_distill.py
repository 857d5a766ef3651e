"""Distillation: memory bank semantics, student model, step and training loop."""

import hashlib
import math
from collections import deque

import numpy as np
import pytest

from semspeech.corpus import (
    Corpus,
    ScoredPairSet,
    SyntheticSpec,
    generate_corpus,
    ground_truth_similarity,
)
from semspeech.distill import (
    DistillConfig,
    MemoryBank,
    StudentModel,
    distill_step,
    distill_train,
    save_paired_manifest,
)
from semspeech.errors import ValidationError
from semspeech.evaluation import spearman
from semspeech.nn.layers import EncoderConfig
from semspeech.nn.losses import infonce_batch
from semspeech.nn.optim import adamw_step
from semspeech.nn.tensor import Tensor
from semspeech.random_utils import derive_rng
from semspeech.teachers import SequenceEncoder, Teacher
from semspeech.tokenizer import wrap_units

TINY = EncoderConfig(layers=1, model_dim=16, heads=2, ff_dim=24, dropout_rate=0.0)


def _unit_rows(n: int, d: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def make_teacher(vocab: int = 13, seed: int = 0) -> Teacher:
    enc = SequenceEncoder.create(vocab=vocab, cfg=TINY, seed=seed)
    return Teacher(encoder=enc, kind="mlm")


def toy_corpus(n: int = 24, seed: int = 0) -> tuple[Corpus, dict]:
    spec = SyntheticSpec(
        alphabet_size=8,
        feature_dim=8,
        frames_per_symbol_range=(2, 3),
        n_speakers=2,
        utterance_len_range=(3, 6),
        n_utterances=n,
        seed=seed,
    )
    corpus = generate_corpus(spec)
    targets = {u.id: wrap_units(u.symbols, spec.alphabet_size) for u in corpus}
    return corpus, targets


def toy_dev_pairs(corpus: Corpus, n_pairs: int = 10, seed: int = 0) -> ScoredPairSet:
    rng = np.random.default_rng(seed)
    utts = corpus.utterances
    seen, entries = set(), []
    while len(entries) < n_pairs:
        i, j = rng.choice(len(utts), size=2, replace=False)
        key = frozenset((int(i), int(j)))
        if key in seen:
            continue
        seen.add(key)
        score = 5.0 * ground_truth_similarity(utts[i], utts[j])
        entries.append((utts[i].id, utts[j].id, score))
    return ScoredPairSet(pairs=entries, split="dev")


def make_student(seed: int = 0, pooling: str = "self_attention") -> StudentModel:
    return StudentModel.create(d_in=8, cfg=TINY, pooling=pooling, seed=seed)


def batch_of(corpus, targets, teacher, ids):
    """distill_step's frames and teacher embeddings for the given ids."""
    frames = [corpus[i].features.data for i in ids]
    return frames, teacher.embed_batch([targets[i] for i in ids])


def take_step(student, loss, cfg) -> None:
    """The optimizer step ``fit`` takes on a batch loss."""
    student.store.zero_grad()
    loss.backward()
    adamw_step(student.store, lr=cfg.lr, weight_decay=0.01)


def store_hash(store) -> str:
    h = hashlib.sha256()
    for name, p in sorted(store.items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# memory bank
# ---------------------------------------------------------------------------

def test_bank_fifo_trace_example():
    bank = MemoryBank(capacity=4)
    first = _unit_rows(3, 6, seed=1) * 2.0  # scaled so normalization is visible
    second = _unit_rows(2, 6, seed=2)
    bank.push(first)
    bank.push(second)
    expected = np.concatenate([first[1:] / 2.0, second], axis=0)
    assert len(bank) == 4
    np.testing.assert_allclose(bank.contents(), expected, rtol=0, atol=1e-12)


def test_bank_single_push_larger_than_capacity():
    bank = MemoryBank(capacity=3)
    rows = _unit_rows(5, 4, seed=3)
    bank.push(rows)
    assert len(bank) == 3
    np.testing.assert_allclose(bank.contents(), rows[2:], atol=1e-12)


def test_bank_stores_normalized_copies():
    bank = MemoryBank(capacity=8)
    row = np.array([[3.0, 4.0, 0.0]])
    bank.push(row)
    got = bank.contents()
    np.testing.assert_allclose(got, [[0.6, 0.8, 0.0]], atol=1e-15)
    row[0, 0] = 99.0  # the bank must hold a copy
    np.testing.assert_allclose(bank.contents(), [[0.6, 0.8, 0.0]], atol=1e-15)
    got[0, 0] = -1.0  # and hand out copies
    np.testing.assert_allclose(bank.contents(), [[0.6, 0.8, 0.0]], atol=1e-15)


def test_bank_dim_mismatch_rejected():
    bank = MemoryBank(capacity=4)
    bank.push(_unit_rows(2, 5))
    with pytest.raises(ValidationError):
        bank.push(_unit_rows(1, 6))


def test_bank_rejects_zero_vector():
    bank = MemoryBank(capacity=4)
    with pytest.raises(ValidationError):
        bank.push(np.zeros((1, 3)))


def test_bank_capacity_validation():
    with pytest.raises(ValidationError):
        MemoryBank(capacity=0)


def test_bank_empty_contents_shape():
    bank = MemoryBank(capacity=4)
    assert bank.contents().shape == (0, 0)
    bank.push(_unit_rows(1, 7))
    assert bank.contents().shape == (1, 7)


def test_bank_randomized_trace_matches_queue_oracle():
    rng = np.random.default_rng(42)
    bank = MemoryBank(capacity=32)
    oracle: deque = deque(maxlen=32)
    for _ in range(1500):
        size = int(rng.integers(1, 9)) if rng.random() < 0.98 else int(rng.integers(33, 50))
        rows = rng.standard_normal((size, 6))
        bank.push(rows)
        for r in rows:
            oracle.append(r / np.linalg.norm(r))
        assert len(bank) == len(oracle)
        np.testing.assert_allclose(bank.contents(), np.stack(list(oracle)), atol=1e-12)


# ---------------------------------------------------------------------------
# student model
# ---------------------------------------------------------------------------

def test_student_embed_shape_and_determinism():
    student = make_student(seed=0)
    x = np.random.default_rng(0).standard_normal((7, 8))
    z1, z2 = student.embed(x), student.embed(x)
    assert z1.shape == (16,)
    assert np.array_equal(z1, z2)


@pytest.mark.parametrize("pooling", ["self_attention", "cls"])
def test_student_batch_matches_single(pooling):
    student = make_student(seed=1, pooling=pooling)
    rng = np.random.default_rng(1)
    frames = [rng.standard_normal((t, 8)) for t in (3, 7, 5)]
    batch = student.embed_batch(frames)
    for i, f in enumerate(frames):
        assert np.array_equal(batch[i], student.embed(f))


@pytest.mark.parametrize("pooling", ["self_attention", "cls"])
def test_student_batch_spanning_chunks_keeps_input_order(pooling):
    student = make_student(seed=2, pooling=pooling)
    rng = np.random.default_rng(2)
    lengths = rng.permutation(np.repeat(np.arange(1, 36), 2))
    frames = [rng.standard_normal((int(t), 8)) for t in lengths]
    batch = student.embed_batch(frames)
    assert batch.shape == (len(frames), 16)
    for i, f in enumerate(frames):
        assert np.array_equal(batch[i], student.embed(f))


@pytest.mark.parametrize("pooling", ["self_attention", "cls"])
def test_student_rejects_features_of_another_dimension(pooling):
    with pytest.raises(ValidationError, match="5 dimensions, the model takes 8") as e:
        make_student(pooling=pooling).embed_batch([np.ones((3, 5))])
    assert e.value.field == "features"


def test_student_pooling_modes_differ():
    a = make_student(seed=5, pooling="self_attention")
    b = make_student(seed=5, pooling="cls")
    x = np.random.default_rng(2).standard_normal((6, 8))
    assert np.linalg.norm(a.embed(x) - b.embed(x)) > 1e-6


def test_student_save_load_round_trip(tmp_path):
    student = make_student(seed=3, pooling="cls")
    x = np.random.default_rng(3).standard_normal((5, 8))
    before = student.embed(x)
    path = tmp_path / "student.semm"
    student.save(path)
    loaded = StudentModel.load(path)
    assert loaded.pooling == "cls"
    np.testing.assert_allclose(loaded.embed(x), before, atol=1e-5)


def test_student_pooling_validation():
    with pytest.raises(ValidationError):
        StudentModel.create(d_in=8, cfg=TINY, pooling="max")


def test_student_cls_embedding_receives_gradient():
    student = make_student(seed=7, pooling="cls")
    rng = np.random.default_rng(7)
    frames = [rng.standard_normal((4, 8)) for _ in range(3)]
    z = student.embed_train(frames, derive_rng(7, "probe"))
    pos = Tensor(_unit_rows(3, 16, seed=8))
    loss = infonce_batch(z, pos, tau=0.05)
    student.store.zero_grad()
    loss.backward()
    grad = student.store["pool.cls"].grad
    assert grad is not None and np.linalg.norm(grad) > 0


# ---------------------------------------------------------------------------
# distill_step
# ---------------------------------------------------------------------------

def test_first_step_loss_near_log_k_plus_one():
    # batch of 8 plus a bank of 16 teacher embeddings: K + 1 = 24 terms
    corpus, targets = toy_corpus(n=40, seed=9)
    ids = [u.id for u in corpus]
    for seed in (0, 1):
        teacher = make_teacher(seed=seed)
        student = make_student(seed=seed)
        bank = MemoryBank(capacity=64)
        bank.push(teacher.embed_batch([targets[i] for i in ids[8:24]]))
        frames, t = batch_of(corpus, targets, teacher, ids[:8])
        cfg = DistillConfig(loss="infonce", tau=0.05, lr=1e-4, batch_size=8, seed=seed)
        loss = float(distill_step(student, frames, t, bank, cfg, derive_rng(seed, "t")).data)
        target = math.log(24)
        assert abs(loss - target) / target < 0.2, loss


def test_denominator_counts_batch_and_bank():
    corpus, targets = toy_corpus(n=12, seed=4)
    ids = [u.id for u in corpus]
    teacher = make_teacher(seed=4)
    student = make_student(seed=4)
    bank = MemoryBank(capacity=16)
    bank.push(teacher.embed_batch([targets[i] for i in ids[3:8]]))

    batch_ids = ids[:3]
    z = student.embed_batch([corpus[i].features.data for i in batch_ids])
    t = teacher.embed_batch([targets[i] for i in batch_ids])
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    tn = t / np.linalg.norm(t, axis=1, keepdims=True)
    cols = np.concatenate([tn, bank.contents()], axis=0)
    tau = 0.05
    total = 0.0
    for i in range(3):
        sims = cols @ zn[i] / tau
        terms = [math.exp(s) for s in sims]
        assert len(terms) == (3 - 1) + 5 + 1  # in-batch negatives + bank + positive
        total += -math.log(terms[i] / sum(terms))
    expected = total / 3

    cfg = DistillConfig(loss="infonce", tau=tau, lr=1e-4, seed=4)
    frames = [corpus[i].features.data for i in batch_ids]
    loss = float(distill_step(student, frames, t, bank, cfg, derive_rng(4, "t")).data)
    assert abs(loss - expected) < 1e-9 * max(1.0, abs(expected))


def test_infonce_needs_negatives():
    corpus, targets = toy_corpus(n=4, seed=5)
    ids = [u.id for u in corpus]
    teacher = make_teacher(seed=5)
    student = make_student(seed=5)
    cfg = DistillConfig(loss="infonce", seed=5)
    frames, t = batch_of(corpus, targets, teacher, ids[:1])
    with pytest.raises(ValidationError):
        distill_step(student, frames, t, MemoryBank(4), cfg, derive_rng(5, "t"))
    # the same singleton batch works once the bank holds a negative
    bank = MemoryBank(4)
    bank.push(teacher.embed_batch([targets[ids[1]]]))
    loss = distill_step(student, frames, t, bank, cfg, derive_rng(5, "t"))
    assert np.isfinite(loss.data)


def test_mse_ignores_bank_but_updates_it():
    corpus, targets = toy_corpus(n=6, seed=6)
    ids = [u.id for u in corpus]
    teacher = make_teacher(seed=6)
    student = make_student(seed=6)
    bank = MemoryBank(capacity=16)
    bank.push(_unit_rows(7, 16, seed=99))  # junk that must not affect the loss

    batch_ids = ids[:2]
    z = student.embed_batch([corpus[i].features.data for i in batch_ids])
    t = teacher.embed_batch([targets[i] for i in batch_ids])
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    tn = t / np.linalg.norm(t, axis=1, keepdims=True)
    expected = float(((zn - tn) ** 2).mean())

    cfg = DistillConfig(loss="mse", seed=6)
    frames = [corpus[i].features.data for i in batch_ids]
    loss = float(distill_step(student, frames, t, bank, cfg, derive_rng(6, "t")).data)
    assert abs(loss - expected) < 1e-9
    assert len(bank) == 9  # the batch was still banked


def test_bank_updated_only_after_the_loss():
    corpus, targets = toy_corpus(n=4, seed=7)
    ids = [u.id for u in corpus]
    teacher = make_teacher(seed=7)
    student = make_student(seed=7)

    batch_ids = ids[:2]
    z = student.embed_batch([corpus[i].features.data for i in batch_ids])
    t = teacher.embed_batch([targets[i] for i in batch_ids])
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    tn = t / np.linalg.norm(t, axis=1, keepdims=True)
    tau = 0.05
    total = 0.0
    for i in range(2):
        sims = tn @ zn[i] / tau  # no bank terms: it is empty during the loss
        total += -math.log(math.exp(sims[i]) / np.exp(sims).sum())
    expected = total / 2

    bank = MemoryBank(capacity=8)
    cfg = DistillConfig(loss="infonce", tau=tau, seed=7)
    frames = [corpus[i].features.data for i in batch_ids]
    loss = float(distill_step(student, frames, t, bank, cfg, derive_rng(7, "t")).data)
    assert abs(loss - expected) < 1e-9
    assert len(bank) == 2
    np.testing.assert_allclose(bank.contents(), tn, atol=1e-12)


def test_hundred_steps_leave_teacher_bit_identical():
    corpus, targets = toy_corpus(n=8, seed=8)
    ids = [u.id for u in corpus]
    teacher = make_teacher(seed=8)
    student = make_student(seed=8)
    before_teacher = store_hash(teacher.encoder.store)
    before_student = store_hash(student.store)

    bank = MemoryBank(capacity=32)
    cfg = DistillConfig(loss="infonce", lr=1e-3, seed=8)
    rng = derive_rng(8, "t")
    for step in range(100):
        chunk = [ids[(step * 4 + k) % len(ids)] for k in range(4)]
        loss = distill_step(student, *batch_of(corpus, targets, teacher, chunk), bank, cfg, rng)
        assert np.isfinite(loss.data)
        take_step(student, loss, cfg)
    assert store_hash(teacher.encoder.store) == before_teacher
    assert store_hash(student.store) != before_student


def test_step_dimension_mismatch_errors():
    corpus, targets = toy_corpus(n=4, seed=1)
    ids = [u.id for u in corpus]
    wide = EncoderConfig(layers=1, model_dim=32, heads=2, ff_dim=24, dropout_rate=0.0)
    student = StudentModel.create(d_in=8, cfg=wide, seed=1)
    teacher = make_teacher(seed=1)
    frames, t = batch_of(corpus, targets, teacher, ids[:2])
    with pytest.raises(ValidationError):
        distill_step(student, frames, t, MemoryBank(4), DistillConfig(), derive_rng(1, "t"))
    # distill_train refuses the pair before the teacher embeds anything
    dev = toy_dev_pairs(corpus, n_pairs=2, seed=1)
    with pytest.raises(ValidationError, match="student dim 32 != teacher dim 16"):
        distill_train(student, teacher, corpus, targets, DistillConfig(epochs=1), dev)


def test_step_empty_batch_errors():
    student = make_student(seed=0)
    with pytest.raises(ValidationError):
        distill_step(
            student, [], np.zeros((0, 16)), MemoryBank(4), DistillConfig(), derive_rng(0, "t")
        )


# ---------------------------------------------------------------------------
# distill_train
# ---------------------------------------------------------------------------

def test_distill_train_improves_teacher_cosine_and_keeps_best():
    # teacher seed picked so the teacher out-ranks the untrained student on dev,
    # giving keep-best something real to select
    corpus, targets = toy_corpus(n=24, seed=10)
    teacher = make_teacher(seed=2)
    student = make_student(seed=2)
    dev = toy_dev_pairs(corpus, n_pairs=10, seed=10)
    cfg = DistillConfig(loss="infonce", lr=3e-3, batch_size=8, epochs=4, seed=2)
    history, info = distill_train(student, teacher, corpus, targets, cfg, dev)
    assert len(history) == 5  # init + one row per epoch
    assert info["cosine_best"] > info["cosine_start"]
    assert info["best_dev_spearman"] == max(m for _, m in history)


def test_distill_train_rerun_is_bit_identical():
    runs = []
    for _ in range(2):
        corpus, targets = toy_corpus(n=12, seed=11)
        teacher = make_teacher(seed=11)
        student = make_student(seed=11)
        dev = toy_dev_pairs(corpus, n_pairs=6, seed=11)
        cfg = DistillConfig(loss="infonce", lr=1e-3, batch_size=4, epochs=2, seed=11)
        history, _ = distill_train(student, teacher, corpus, targets, cfg, dev)
        runs.append((store_hash(student.store), history))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_distill_train_missing_target_names_id():
    corpus, targets = toy_corpus(n=6, seed=12)
    victim = corpus.utterances[3].id
    del targets[victim]
    with pytest.raises(ValidationError) as e:
        distill_train(
            make_student(seed=12),
            make_teacher(seed=12),
            corpus,
            targets,
            DistillConfig(epochs=1),
            toy_dev_pairs(corpus, n_pairs=3, seed=12),
        )
    assert victim in str(e.value)


def test_distill_train_unknown_dev_id_errors():
    corpus, targets = toy_corpus(n=6, seed=13)
    dev = ScoredPairSet(pairs=[(corpus.utterances[0].id, "ghost", 2.0)], split="dev")
    with pytest.raises(ValidationError) as e:
        distill_train(
            make_student(seed=13),
            make_teacher(seed=13),
            corpus,
            targets,
            DistillConfig(epochs=1),
            dev,
        )
    assert "ghost" in str(e.value)


def test_distill_train_bank_persists_across_epochs():
    corpus, targets = toy_corpus(n=10, seed=14)
    bank = MemoryBank(capacity=1000)
    cfg = DistillConfig(loss="infonce", lr=1e-3, batch_size=4, epochs=3, seed=14)
    distill_train(
        make_student(seed=14),
        make_teacher(seed=14),
        corpus,
        targets,
        cfg,
        toy_dev_pairs(corpus, n_pairs=5, seed=14),
        bank=bank,
    )
    assert len(bank) == 30  # every utterance banked once per epoch, never reset


def distill_reference(student, teacher, corpus, targets, cfg, dev_pairs, bank):
    """distill_train's own loop before it ran on the shared fit loop, and
    before it embedded the teacher once per run: the teacher embeds each
    batch's targets when its step runs, and the dev targets apart."""
    ids = [u.id for u in corpus]
    dev_ids = sorted({i for a, b, _ in dev_pairs.pairs for i in (a, b)})
    t = teacher.embed_batch([targets[i] for i in dev_ids])
    t = t / np.linalg.norm(t, axis=1, keepdims=True)

    def dev_metric():
        embs = student.embed_batch([corpus[i].features.data for i in dev_ids])
        vec = {i: embs[k] for k, i in enumerate(dev_ids)}
        preds, human = [], []
        for id_a, id_b, score in dev_pairs.pairs:
            a, b = vec[id_a], vec[id_b]
            preds.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
            human.append(score)
        unit = embs / np.linalg.norm(embs, axis=1, keepdims=True)
        return spearman(preds, human), float((unit * t).sum(axis=1).mean())

    rng = derive_rng(cfg.seed, "distill", "train")
    init_metric, cosine = dev_metric()
    history = [(0, init_metric)]
    best_metric = init_metric
    best_state = {name: p.data.copy() for name, p in student.store.items()}
    info = {"cosine_start": cosine, "cosine_best": cosine}
    step = 0
    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(ids))
        chunked = [ids[i] for i in order]
        for start in range(0, len(chunked), cfg.batch_size):
            chunk = chunked[start : start + cfg.batch_size]
            if cfg.loss == "infonce" and len(chunk) == 1 and len(bank) == 0:
                continue
            loss = distill_step(student, *batch_of(corpus, targets, teacher, chunk), bank, cfg, rng)
            take_step(student, loss, cfg)
            step += 1
        metric, cosine = dev_metric()
        history.append((step, metric))
        if metric > best_metric:
            best_metric = metric
            best_state = {name: p.data.copy() for name, p in student.store.items()}
            info["cosine_best"] = cosine
    student.store.load_state_dict(best_state)
    info["best_dev_spearman"] = best_metric
    return history, info


# batches of one under InfoNCE are all skipped while the bank is empty, and
# nothing fills it, so that run would never step and must fail instead; 9
# items in batches of 4 or 2 end in a singleton that is trained on
@pytest.mark.parametrize("loss, batch_size", [("infonce", 1), ("infonce", 4), ("mse", 2)])
def test_distill_train_matches_reference_loop(loss, batch_size):
    """Bit for bit, including the bank and both teacher cosines: the table
    of teacher embeddings holds the rows each batch would embed."""
    corpus, targets = toy_corpus(n=9, seed=18)
    dev = toy_dev_pairs(corpus, n_pairs=10, seed=18)
    cfg = DistillConfig(loss=loss, lr=3e-3, batch_size=batch_size, epochs=3, seed=18)
    teacher = make_teacher(seed=18)
    student, ref = make_student(seed=18), make_student(seed=18)
    if batch_size == 1:
        with pytest.raises(ValidationError, match="took no optimizer step"):
            distill_train(student, teacher, corpus, targets, cfg, dev)
        return
    bank, ref_bank = MemoryBank(cfg.bank_capacity), MemoryBank(cfg.bank_capacity)
    history, info = distill_train(student, teacher, corpus, targets, cfg, dev, bank=bank)
    ref_history, ref_info = distill_reference(ref, teacher, corpus, targets, cfg, dev, ref_bank)
    assert history == ref_history
    assert info == ref_info
    assert store_hash(student.store) == store_hash(ref.store)
    assert np.array_equal(bank.contents(), ref_bank.contents())
    assert history[-1][0] > 0
    # keep-best chose a trained state, so the parameters compare training
    assert info["best_dev_spearman"] > history[0][1]


def test_distill_train_mse_mode_runs():
    corpus, targets = toy_corpus(n=8, seed=15)
    cfg = DistillConfig(loss="mse", lr=1e-3, batch_size=4, epochs=1, seed=15)
    history, info = distill_train(
        make_student(seed=15),
        make_teacher(seed=15),
        corpus,
        targets,
        cfg,
        toy_dev_pairs(corpus, n_pairs=4, seed=15),
    )
    assert len(history) == 2
    assert np.isfinite(info["cosine_best"])


def test_distill_train_embeds_the_dev_set_once_per_evaluation():
    corpus, targets = toy_corpus(n=12, seed=16)
    dev = toy_dev_pairs(corpus, n_pairs=6, seed=16)
    dev_ids = sorted({i for a, b, _ in dev.pairs for i in (a, b)})
    student, teacher = make_student(seed=16), make_teacher(seed=16)
    student_calls, teacher_calls = [], []

    def student_embed_batch(frames, own=student.embed_batch):
        student_calls.append([id(f) for f in frames])
        return own(frames)

    def teacher_embed_batch(seqs, own=teacher.embed_batch):
        teacher_calls.append([id(x) for x in seqs])
        return own(seqs)

    student.embed_batch, teacher.embed_batch = student_embed_batch, teacher_embed_batch
    cfg = DistillConfig(loss="infonce", lr=1e-3, batch_size=5, epochs=3, seed=16)
    history, _ = distill_train(student, teacher, corpus, targets, cfg, dev)
    assert len(history) == 4
    assert student_calls == [[id(corpus[i].features.data) for i in dev_ids]] * len(history)
    # the frozen teacher embeds every target once per run, the dev ones included
    assert teacher_calls == [[id(targets[u.id]) for u in corpus]]


def mean_teacher_cosine(student, teacher, corpus, targets, dev_pairs) -> float:
    """The mean cosine of student and teacher dev embeddings, computed afresh."""
    dev_ids = sorted({i for a, b, _ in dev_pairs.pairs for i in (a, b)})
    s = student.embed_batch([corpus[i].features.data for i in dev_ids])
    t = teacher.embed_batch([targets[i] for i in dev_ids])
    s = s / np.linalg.norm(s, axis=1, keepdims=True)
    t = t / np.linalg.norm(t, axis=1, keepdims=True)
    return float((s * t).sum(axis=1).mean())


# the infonce run keeps a later evaluation, the mse run its step-0 one
@pytest.mark.parametrize("loss, seed, best_at_start", [("infonce", 2, False), ("mse", 10, True)])
def test_distill_train_teacher_cosines_are_those_of_the_kept_states(loss, seed, best_at_start):
    corpus, targets = toy_corpus(n=24, seed=10)
    dev = toy_dev_pairs(corpus, n_pairs=10, seed=10)
    teacher = make_teacher(seed=seed)
    student = make_student(seed=seed)
    cfg = DistillConfig(loss=loss, lr=3e-3, batch_size=8, epochs=2, seed=seed)
    history, info = distill_train(student, teacher, corpus, targets, cfg, dev)
    assert (info["best_dev_spearman"] == history[0][1]) == best_at_start
    start = mean_teacher_cosine(make_student(seed=seed), teacher, corpus, targets, dev)
    assert info["cosine_start"] == start
    assert info["cosine_best"] == mean_teacher_cosine(student, teacher, corpus, targets, dev)


# ---------------------------------------------------------------------------
# helpers and formats
# ---------------------------------------------------------------------------

def test_paired_manifest_writes_one_tsv_row_per_pair(tmp_path):
    path = tmp_path / "paired.tsv"
    save_paired_manifest([("utt-00", 0), ("utt-01", 17), ("utt-02", 3)], path)
    assert path.read_bytes() == b"utt-00\t0\nutt-01\t17\nutt-02\t3\n"


def test_distill_config_validation():
    for bad in (
        DistillConfig(loss="triplet"),
        DistillConfig(tau=0.0),
        DistillConfig(batch_size=0),
        DistillConfig(epochs=0),
        DistillConfig(lr=0.0),
        DistillConfig(bank_capacity=0),
        DistillConfig(tau=math.inf),  # every score 0: the loss is log B with no gradient
        DistillConfig(tau=math.nan),
        DistillConfig(lr=math.nan),
        DistillConfig(lr=math.inf),
    ):
        with pytest.raises(ValidationError):
            bad.validate()
