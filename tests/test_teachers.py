import hashlib
import itertools
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from semspeech.corpus import ScoredPairSet
from semspeech.errors import FileFormatError, ValidationError
from semspeech.evaluation import pair_spearman, spearman
from semspeech.nn.checkpoint import load_checkpoint, save_checkpoint
from semspeech.nn.layers import EncoderConfig, init_linear
from semspeech.nn.losses import infonce_batch
from semspeech.nn.optim import ParamStore, adamw_step
from semspeech import teachers
from semspeech.nn.tensor import Packing, Tensor, nll
from semspeech.random_utils import derive_rng
from semspeech.teachers import (
    EarlyStopper,
    SequenceEncoder,
    Teacher,
    TeacherConfig,
    _mask_batch,
    delete_tokens,
    mlm_forward,
    mlm_pretrain,
    train_simcse,
    train_tsdae,
)
from semspeech.tokenizer import CLS, MASK, PAD, SEP, UNK, TokenSequence

TINY = EncoderConfig(layers=1, model_dim=16, heads=2, ff_dim=24, dropout_rate=0.1)


def batches(items, size):
    return [items[i : i + size] for i in range(0, len(items), size)]


def assert_same_params(store_a, store_b):
    assert store_a.names() == store_b.names()
    for name in store_a.names():
        assert store_a[name].data.tobytes() == store_b[name].data.tobytes(), name


def make_seqs(n, vocab=20, min_len=3, max_len=8, seed=0):
    rng = np.random.default_rng(seed)
    seqs = []
    for i in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        toks = [CLS] + [int(t) for t in rng.integers(5, vocab, size=length)] + [SEP]
        seqs.append(TokenSequence(toks, source_id=f"u{i:03d}"))
    return seqs


# ---------------------------------------------------------------------------
# sequence encoder
# ---------------------------------------------------------------------------

def test_embed_dimension_and_determinism():
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=0)
    seq = TokenSequence([CLS, 7, 9, 12, SEP])
    z1, z2 = enc.embed_batch([seq])[0], enc.embed_batch([seq])[0]
    assert z1.shape == (16,)
    assert np.array_equal(z1, z2)


def test_mean_pool_single_content_token_is_its_state():
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=1)
    toks = [np.array([CLS, 9, SEP])]
    ids, pack = Packing.of(toks)
    states = enc.encode(ids, pack)
    pooled = enc.pool(states, ids, pack)
    assert np.allclose(pooled.data[0], states.data[1], atol=1e-12)


def test_embed_batch_matches_single():
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=3)
    seqs = make_seqs(5, seed=3)
    batched = enc.embed_batch(seqs)
    for i, s in enumerate(seqs):
        assert np.array_equal(batched[i], enc.embed_batch([s])[0])


def test_a_list_of_id_sequences_is_the_one_input():
    """encode, pool and the training forward _embed take the list
    embed_batch takes, packed by Packing.of: ragged, with a 2-token sequence
    and as a batch of one. The states pooled are embed_batch's rows, bit for
    bit, and without dropout so is the training forward."""
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=9)
    still = SequenceEncoder(enc.store, replace(TINY, dropout_rate=0.0), 20)
    rng = np.random.default_rng(9)
    seqs = [np.array([CLS, *rng.integers(5, 20, size=n - 1)]) for n in (6, 2, 11, 3)]
    for batch in (seqs, seqs[1:2], seqs[2:3]):
        want = enc.embed_batch(batch)
        ids, pack = Packing.of(batch)
        assert np.array_equal(enc.pool(enc.encode(ids, pack), ids, pack).data, want)
        assert np.array_equal(still._embed(ids, pack, True, np.random.default_rng(0)).data, want)
        assert enc._embed(ids, pack, True, np.random.default_rng(0)).shape == want.shape


def test_an_id_sequence_holding_pad_is_refused():
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=9)
    seqs = [np.array([CLS, 7, 9, SEP]), np.array([CLS, 8, PAD, SEP])]
    for call in (
        lambda: enc.encode(*Packing.of(seqs)),
        lambda: enc.embed_batch(seqs),
        lambda: enc._embed(*Packing.of(seqs), True, np.random.default_rng(0)),
    ):
        with pytest.raises(ValidationError, match="holds PAD"):
            call()


def test_mean_pool_rejects_no_content():
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=4)
    with pytest.raises(ValidationError):
        enc.embed_batch([TokenSequence([CLS, SEP])])


def test_encoder_rejects_out_of_vocab():
    enc = SequenceEncoder.create(vocab=10, cfg=TINY, seed=5)
    with pytest.raises(ValidationError):
        enc.embed_batch([np.array([CLS, 15, SEP])])


# ---------------------------------------------------------------------------
# masked pretraining
# ---------------------------------------------------------------------------

def test_mask_rate_zero_rejected():
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=0)
    with pytest.raises(ValidationError):
        mlm_pretrain(enc, make_seqs(4), mask_rate=0.0, steps=1)


@pytest.mark.parametrize(
    "knobs, field",
    [({"batch_size": 0}, "batch_size"), ({"batch_size": -2}, "batch_size"),
     ({"lr": 0.0}, "lr"), ({"lr": -5e-4}, "lr"), ({"lr": math.nan}, "lr"),
     ({"lr": math.inf}, "lr")],
)
def test_mlm_rejects_a_batch_size_below_one_and_a_non_positive_lr(knobs, field):
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=0)
    before = enc.store.names()
    with pytest.raises(ValidationError) as e:
        mlm_pretrain(enc, make_seqs(4), steps=1, **knobs)
    assert e.value.field == field
    assert enc.store.names() == before  # refused before the head is made


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field, message", [("lr", "lr must be positive"), ("tau", "tau must be positive")]
)
def test_teacher_config_refuses_non_finite_settings(field, message, value):
    with pytest.raises(ValidationError, match=f"{message} and finite") as e:
        TeacherConfig(**{field: value}).validate()
    assert e.value.field == field


def test_mask_count_contract():
    rng = derive_rng(0, "test-mask")
    lengths_seen = set()
    for trial in range(200):
        n = int(rng.integers(1, 30))
        lengths_seen.add(n)
        toks = [np.array([CLS] + [7] * n + [SEP])]
        _, mask = _mask_batch(*Packing.of(toks), 0.15, 20, rng)
        n_masked = int(mask.sum())
        assert abs(n_masked - round(0.15 * n)) <= 1
        assert n_masked >= 1
        # never a structural token
        assert not mask[0] and not mask[-1]
    assert min(lengths_seen) <= 3  # short sequences exercised the max(1,...) rule


def test_mask_batch_keeps_its_draws():
    """One content mask per batch picks and draws as the per-row masks did:
    the digest of the corrupted ids, the picks and the generator's next
    draws was taken from the per-row version. UNK is content; PAD, CLS, SEP
    and MASK are not."""
    rng = np.random.default_rng(40)
    seqs = [np.array([CLS, *rng.integers(3, 30, size=n), SEP]) for n in (9, 1, 0, 14, 5)]
    seqs[3][4:7] = (MASK, UNK, PAD)
    stream = np.random.default_rng(41)
    ids, pack = Packing.of(seqs)
    corrupted, chosen = _mask_batch(ids, pack, 0.3, 30, stream)
    assert corrupted.shape == chosen.shape == ids.shape
    # pinned on the padded (B, S) layout, PAD after each sequence
    padded = np.full((pack.batch, pack.length), PAD)
    padded[pack.valid] = corrupted
    digest = hashlib.sha256(padded.tobytes() + pack.pad(chosen).tobytes())
    digest.update(stream.random(4).tobytes())
    assert digest.hexdigest() == "01eb54864dd67c659f3de788f1e4e4a6d7a9c1a3872af3c88a3cd9497bbdaadb"


def test_mask_split_statistics():
    rng = derive_rng(1, "test-mask-split")
    seqs = [np.array([CLS] + [9] * 40 + [SEP])] * 200
    toks, pack = Packing.of(seqs)
    corrupted, mask = _mask_batch(toks, pack, 0.5, 20, rng)
    picked = mask.sum()
    became_mask = ((corrupted == MASK) & mask).sum()
    changed_other = ((corrupted != MASK) & (corrupted != toks) & mask).sum()
    unchanged = ((corrupted == toks) & mask).sum()
    assert abs(became_mask / picked - 0.8) < 0.03
    assert abs(changed_other / picked - 0.09) < 0.03  # ~10% redraws, some hit the original
    assert abs(unchanged / picked - 0.11) < 0.04


def test_mlm_skips_special_only_sequence(caplog):
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=6)
    seqs = make_seqs(4, seed=6) + [TokenSequence([CLS, SEP], source_id="empty-one")]
    with caplog.at_level(logging.WARNING):
        mlm_pretrain(enc, seqs, steps=2, batch_size=2, seed=0)
    assert any("empty-one" in r.message for r in caplog.records)


def test_mlm_loss_below_log_vocab_after_500_steps():
    vocab = 13
    enc = SequenceEncoder.create(vocab=vocab, cfg=TINY, seed=7)
    seqs = make_seqs(30, vocab=vocab, seed=7)
    history = mlm_pretrain(enc, seqs, steps=500, batch_size=8, seed=7, lr=1e-3)
    assert len(history) == 500
    tail = np.mean(history[-20:])
    assert tail < math.log(vocab)


def mlm_reference(encoder, arrs, mask_rate, steps, seed, lr, batch_size):
    """mlm_pretrain's own loop before it ran on the shared fit loop."""
    rng = derive_rng(seed, "mlm", "train")
    history: list[float] = []
    step = 0
    while step < steps:
        order = rng.permutation(len(arrs))
        for chunk in batches(list(order), batch_size):
            if step >= steps:
                break
            batch = [arrs[i] for i in chunk]
            ids, pack = Packing.of(batch)
            corrupted, mask = _mask_batch(ids, pack, mask_rate, encoder.vocab, rng)
            encoder.store.zero_grad()
            logits = mlm_forward(encoder, corrupted, pack, train_mode=True, rng=rng, seed=seed)
            loss = nll(logits, ids, mask)
            loss.backward()
            adamw_step(encoder.store, lr=lr, weight_decay=0.01)
            history.append(float(loss.data))
            step += 1
    return history


def test_mlm_matches_reference_loop_when_steps_end_mid_epoch():
    seqs = make_seqs(10, vocab=13, seed=9)  # batches of 4, 4, 2: three per epoch
    enc = SequenceEncoder.create(vocab=13, cfg=TINY, seed=9)
    ref = SequenceEncoder.create(vocab=13, cfg=TINY, seed=9)
    history = mlm_pretrain(enc, seqs, steps=7, batch_size=4, seed=9, lr=1e-3)
    arrs = [np.asarray(s.tokens, dtype=np.int64) for s in seqs]
    assert history == mlm_reference(ref, arrs, 0.15, 7, 9, 1e-3, 4)
    assert len(history) == 7
    assert_same_params(enc.store, ref.store)


def _mlm_head_init(seed: int, vocab: int) -> np.ndarray:
    store = ParamStore()
    head_rng = derive_rng(seed, "mlm", "head", vocab)
    init_linear(store, head_rng, "mlm.out", TINY.model_dim, vocab, scale=0.1)
    return store["mlm.out.w"].data


def test_mlm_head_draws_from_the_run_seed():
    toks = [np.array([CLS, 7, 9, 12, 6, SEP])]
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=8)
    mlm_forward(enc, *Packing.of(toks))
    # seed 0, the default, keeps the draws of the head it made before
    assert np.array_equal(enc.store["mlm.out.w"].data, _mlm_head_init(0, 20))
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=8)
    mlm_pretrain(enc, make_seqs(4), steps=1, batch_size=4, seed=3, lr=1e-3)
    # one AdamW step moves each weight by at most about lr
    head = enc.store["mlm.out.w"].data
    assert np.max(np.abs(head - _mlm_head_init(3, 20))) < 1.1e-3
    assert np.max(np.abs(head - _mlm_head_init(0, 20))) > 1e-2


def test_mlm_unmasked_positions_get_zero_logit_grads():
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=8)
    rng = derive_rng(8, "probe")
    toks = np.array([CLS, 7, 9, 12, 6, SEP])
    pack = Packing.from_lengths([len(toks)])
    corrupted, mask = _mask_batch(toks, pack, 0.4, 20, rng)
    logits = mlm_forward(enc, corrupted, pack)  # packed: one row per position
    leaf = Tensor(logits.data, requires_grad=True)
    loss = nll(leaf, toks, mask)
    loss.backward()
    g = leaf.grad
    assert np.all(g[~mask] == 0.0)
    assert np.any(g[mask] != 0.0)


# ---------------------------------------------------------------------------
# deletion
# ---------------------------------------------------------------------------

def test_delete_ratio_zero_identity():
    seq = TokenSequence([CLS, 7, 9, 12, SEP], source_id="a")
    out = delete_tokens(seq, 0.0, np.random.default_rng(0))
    assert out.tokens == seq.tokens
    assert out.source_id == "a"


def test_delete_ratio_one_single_survivor():
    seq = TokenSequence([CLS, 7, 9, 12, 6, SEP])
    rng = derive_rng(0, "del")
    survivors = set()
    for _ in range(200):
        out = delete_tokens(seq, 1.0, rng)
        assert out.tokens[0] == CLS and out.tokens[-1] == SEP
        assert len(out.tokens) == 3
        survivors.add(out.tokens[1])
    assert survivors == {7, 9, 12, 6}  # uniform choice reaches every token


def test_delete_preserves_frame_and_min_length():
    rng = derive_rng(1, "del")
    seq = TokenSequence([CLS, 5, 6, 7, 8, 9, SEP])
    for _ in range(300):
        out = delete_tokens(seq, 0.7, rng)
        assert out.tokens[0] == CLS and out.tokens[-1] == SEP
        assert len(out.tokens) >= 3


def test_delete_empirical_rate():
    rng = derive_rng(2, "del")
    interior = list(range(5, 15))  # 10 interior tokens
    seq = TokenSequence([CLS] + interior + [SEP])
    deleted = 0
    trials = 10_000
    for _ in range(trials):
        out = delete_tokens(seq, 0.6, rng)
        deleted += len(interior) - (len(out.tokens) - 2)
    rate = deleted / (trials * len(interior))
    assert abs(rate - 0.6) < 0.02


def test_delete_no_interior_passthrough():
    seq = TokenSequence([CLS, SEP])
    out = delete_tokens(seq, 0.9, np.random.default_rng(0))
    assert out.tokens == [CLS, SEP]


def test_delete_ratio_out_of_range():
    with pytest.raises(ValidationError):
        delete_tokens(TokenSequence([CLS, 5, SEP]), 1.5, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# tsdae
# ---------------------------------------------------------------------------

def test_tsdae_smoke_ratio_zero():
    enc = SequenceEncoder.create(vocab=13, cfg=TINY, seed=9)
    seqs = make_seqs(30, vocab=13, seed=9)
    cfg = TeacherConfig(deletion_ratio=0.0, epochs=3, lr=3e-3, batch_size=8, seed=9)
    teacher, curve = train_tsdae(enc, seqs, cfg)
    assert teacher.kind == "tsdae"
    assert min(p.dev_loss for p in curve) < curve[0].dev_loss
    z = teacher.embed_batch(seqs[:1])
    assert z.shape == (1, 16)


def test_tsdae_keep_best_and_determinism():
    runs = []
    for _ in range(2):
        enc = SequenceEncoder.create(vocab=13, cfg=TINY, seed=10)
        seqs = make_seqs(20, vocab=13, seed=10)
        cfg = TeacherConfig(deletion_ratio=0.4, epochs=2, lr=1e-3, batch_size=8, seed=10)
        teacher, curve = train_tsdae(enc, seqs, cfg)
        runs.append((teacher, curve))
    t1, c1 = runs[0]
    t2, c2 = runs[1]
    for (name, p), (_, q) in zip(t1.encoder.store.items(), t2.encoder.store.items()):
        assert np.array_equal(p.data, q.data), name
    assert [p.dev_loss for p in c1] == [p.dev_loss for p in c2]


# ---------------------------------------------------------------------------
# simcse
# ---------------------------------------------------------------------------

def test_simcse_requires_dropout():
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=0)
    cfg = TeacherConfig(dropout_rate=0.0)
    pairs = ScoredPairSet(pairs=[("u000", "u001", 4.0)], split="dev")
    with pytest.raises(ValidationError):
        train_simcse(enc, make_seqs(4), cfg, pairs)


def test_simcse_requires_batch_of_two():
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=0)
    cfg = TeacherConfig(batch_size=1)
    pairs = ScoredPairSet(pairs=[("u000", "u001", 4.0)], split="dev")
    with pytest.raises(ValidationError):
        train_simcse(enc, make_seqs(4), cfg, pairs)


def test_simcse_over_one_sequence_fails_instead_of_training_nothing(monkeypatch):
    # a lone sequence has no in-batch negatives, so every batch is skipped;
    # one sequence gives no rank correlation either, so the dev score is fixed
    monkeypatch.setattr(teachers, "pair_spearman", lambda *args: 0.0)
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=0)
    pairs = ScoredPairSet(pairs=[("u000", "u000", 4.0)], split="dev")
    with pytest.raises(ValidationError, match="took no optimizer step"):
        train_simcse(enc, make_seqs(1), TeacherConfig(batch_size=2), pairs)


def test_simcse_initial_loss_near_log_batch():
    losses = []
    for seed in range(3):
        enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=seed)
        seqs = make_seqs(16, seed=seed)
        tokens = [np.asarray(s.tokens) for s in seqs]
        rng = derive_rng(seed, "probe")
        ids, pack = Packing.of(tokens)
        z1, z2 = enc._embed(ids, pack, True, rng), enc._embed(ids, pack, True, rng)
        loss = infonce_batch(z1, z2, tau=0.05)
        losses.append(float(loss.data))
    target = math.log(16)
    for value in losses:
        assert abs(value - target) / target < 0.2


def test_simcse_trains_and_keeps_best():
    enc = SequenceEncoder.create(vocab=13, cfg=TINY, seed=11)
    seqs = make_seqs(24, vocab=13, seed=11)
    # dev pairs judged by token overlap so the metric is computable
    rng = np.random.default_rng(11)
    entries = []
    for _ in range(12):
        i, j = rng.choice(24, size=2, replace=False)
        a, b = seqs[i], seqs[j]
        inter = len(set(a.tokens[1:-1]) & set(b.tokens[1:-1]))
        union = len(set(a.tokens[1:-1]) | set(b.tokens[1:-1]))
        entries.append((a.source_id, b.source_id, 5.0 * inter / union))
    pairs = ScoredPairSet(pairs=entries, split="dev")
    cfg = TeacherConfig(epochs=2, lr=1e-3, batch_size=8, seed=11,
                        eval_every_steps=2)
    teacher, history = train_simcse(enc, seqs, cfg, pairs)
    assert teacher.kind == "simcse"
    assert len(history) >= 2
    # the returned encoder holds the parameters of the best evaluation
    by_id = {s.source_id: np.asarray(s.tokens) for s in seqs}
    assert pair_spearman(teacher.embed_batch, pairs, by_id) == max(m for _, m in history)


def test_simcse_leaves_the_callers_encoder_config_alone(tmp_path):
    shared = EncoderConfig(layers=1, model_dim=16, heads=2, ff_dim=24, dropout_rate=0.0)
    enc = SequenceEncoder.create(vocab=13, cfg=shared, seed=3)
    seqs = make_seqs(8, vocab=13, seed=3)
    pairs = ScoredPairSet(
        pairs=[("u000", "u001", 4.0), ("u002", "u003", 1.0), ("u004", "u005", 2.5)], split="dev"
    )
    cfg = TeacherConfig(dropout_rate=0.1, epochs=1, batch_size=4, seed=3,
                        eval_every_steps=1)
    teacher, _ = train_simcse(enc, seqs, cfg, pairs)
    assert shared.dropout_rate == 0.0
    assert enc.cfg is shared
    teacher.save(tmp_path / "teacher.semm")
    assert Teacher.load(tmp_path / "teacher.semm").encoder.cfg.dropout_rate == 0.0
    # a run that fails inside training restores the encoder's config too
    seqs[0] = TokenSequence([CLS, 99, SEP], source_id="u000")
    with pytest.raises(ValidationError):
        train_simcse(enc, seqs, cfg, pairs)
    assert enc.cfg is shared


def test_simcse_never_assigns_the_callers_encoder_config():
    assigned = []

    class Watched(SequenceEncoder):
        def __setattr__(self, name, value):
            if name == "cfg":
                assigned.append(value)
            super().__setattr__(name, value)

    enc = Watched.create(vocab=13, cfg=TINY, seed=3)
    assert assigned == [TINY]  # by __init__ alone
    pairs = ScoredPairSet(pairs=[("u000", "u001", 4.0), ("u002", "u003", 1.0)], split="dev")
    cfg = TeacherConfig(dropout_rate=0.3, epochs=1, batch_size=4, seed=3, eval_every_steps=1)
    train_simcse(enc, make_seqs(8, vocab=13, seed=3), cfg, pairs)
    assert assigned == [TINY]


def test_a_trainer_after_another_on_one_encoder_starts_its_own_optimizer_state():
    # TSDAE on the encoder MLM just trained must equal TSDAE on a fresh
    # encoder given the MLM weights, the route the CLI and the acceptance
    # fixtures take; a saved and loaded checkpoint would round to float32
    seqs = make_seqs(80, vocab=30, seed=11)
    chained = SequenceEncoder.create(vocab=30, cfg=TINY, seed=11)
    mlm_pretrain(chained, seqs, steps=40, batch_size=8, seed=11)
    fresh = SequenceEncoder.create(vocab=30, cfg=TINY, seed=11)
    fresh.store.load_state_dict(chained.store.state_dict())
    cfg = TeacherConfig(deletion_ratio=0.6, epochs=1, batch_size=8, seed=11)
    chained_teacher, chained_curve = train_tsdae(chained, seqs, cfg)
    fresh_teacher, fresh_curve = train_tsdae(fresh, seqs, cfg)
    assert chained_curve == fresh_curve
    assert chained.store.step_count == fresh.store.step_count == 9
    assert chained_teacher.embed_batch(seqs).tobytes() == fresh_teacher.embed_batch(seqs).tobytes()


def simcse_reference(encoder, seqs, cfg, dev_pairs):
    """train_simcse's own loop before it ran on the shared fit loop."""
    encoder.cfg = replace(encoder.cfg, dropout_rate=cfg.dropout_rate)
    by_id = {s.source_id: np.asarray(s.tokens) for s in seqs}

    def dev_metric():
        ids = sorted({i for a, b, _ in dev_pairs.pairs for i in (a, b)})
        embs = encoder.embed_batch([by_id[i] for i in ids])
        vec = {i: embs[k] for k, i in enumerate(ids)}
        preds, human = [], []
        for id_a, id_b, score in dev_pairs.pairs:
            a, b = vec[id_a], vec[id_b]
            preds.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
            human.append(score)
        return spearman(preds, human)

    rng = derive_rng(cfg.seed, "simcse", "train")
    stopper = EarlyStopper(cfg.patience)
    init_metric = dev_metric()
    history = [(0, init_metric)]
    best_metric = init_metric
    best_state = encoder.store.state_dict()
    stopper.update(init_metric)
    step = 0
    stop = False
    for _epoch in range(cfg.epochs):
        if stop:
            break
        order = rng.permutation(len(seqs))
        for chunk in batches([seqs[i] for i in order], cfg.batch_size):
            if len(chunk) < 2:
                continue
            ids, pack = Packing.of([np.asarray(s.tokens) for s in chunk])
            encoder.store.zero_grad()
            z1 = encoder._embed(ids, pack, True, rng)
            z2 = encoder._embed(ids, pack, True, rng)
            loss = infonce_batch(z1, z2, tau=cfg.tau)
            loss.backward()
            adamw_step(encoder.store, lr=cfg.lr, weight_decay=0.01)
            step += 1
            if step % cfg.eval_every_steps == 0:
                metric = dev_metric()
                history.append((step, metric))
                if metric > best_metric:
                    best_metric = metric
                    best_state = encoder.store.state_dict()
                if stopper.update(metric):
                    stop = True
                    break
    encoder.store.load_state_dict(best_state)
    return history, best_metric


def overlap_pairs(seqs, n_pairs, seed):
    """Dev pairs scored by token overlap, so the metric is computable."""
    combos = list(itertools.combinations(range(len(seqs)), 2))
    entries = []
    for k in np.random.default_rng(seed).choice(len(combos), size=n_pairs, replace=False):
        i, j = combos[k]
        a, b = set(seqs[i].tokens[1:-1]), set(seqs[j].tokens[1:-1])
        entries.append((seqs[i].source_id, seqs[j].source_id, 5.0 * len(a & b) / len(a | b)))
    return ScoredPairSet(pairs=entries, split="dev")


def test_simcse_matches_reference_loop_through_a_mid_epoch_early_stop():
    # 13 sequences in batches of 4 leave a lone trailing sequence, so an
    # epoch is 3 steps; evaluating every 2 steps puts evaluations mid-epoch,
    # and with this seed the stopper trips at step 10
    seed = 1
    seqs = make_seqs(13, vocab=13, seed=seed)
    pairs = overlap_pairs(seqs, 10, seed)
    cfg = TeacherConfig(epochs=10, lr=3e-3, batch_size=4,
                        seed=seed, eval_every_steps=2, patience=2)
    enc = SequenceEncoder.create(vocab=13, cfg=TINY, seed=seed)
    ref = SequenceEncoder.create(vocab=13, cfg=TINY, seed=seed)
    teacher, history = train_simcse(enc, seqs, cfg, pairs)
    ref_history, _ = simcse_reference(ref, seqs, cfg, pairs)
    assert history == ref_history
    assert_same_params(enc.store, ref.store)
    last_step = history[-1][0]
    assert last_step < cfg.epochs * 3, "early stopping never fired"
    assert last_step % 3 != 0, "early stopping fired at an epoch boundary"


def test_simcse_missing_dev_id_errors():
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=0)
    pairs = ScoredPairSet(pairs=[("u000", "not-there", 3.0)], split="dev")
    with pytest.raises(ValidationError) as e:
        train_simcse(enc, make_seqs(4), TeacherConfig(batch_size=2), pairs)
    assert "not-there" in str(e.value)


def test_early_stopper_exact_patience():
    stopper = EarlyStopper(patience=80)
    assert not stopper.update(1.0)
    for i in range(79):
        assert not stopper.update(0.9 - i * 0.001), f"stopped early at stale eval {i + 1}"
    assert stopper.update(0.0)  # the 80th consecutive stale evaluation


def test_early_stopper_resets_on_improvement():
    stopper = EarlyStopper(patience=3)
    stopper.update(1.0)
    stopper.update(0.5)
    stopper.update(0.4)
    assert not stopper.update(2.0)  # improvement resets the counter
    assert not stopper.update(1.0)
    assert not stopper.update(1.0)
    assert stopper.update(1.0)


# ---------------------------------------------------------------------------
# teacher embedding + persistence
# ---------------------------------------------------------------------------

def test_teacher_embed_vocab_mismatch():
    enc = SequenceEncoder.create(vocab=10, cfg=TINY, seed=0)
    teacher = Teacher(encoder=enc, kind="tsdae")
    with pytest.raises(ValidationError):
        teacher.embed_batch([np.array([CLS, 55, SEP])])


def test_teacher_save_load_round_trip(tmp_path):
    enc = SequenceEncoder.create(vocab=13, cfg=TINY, seed=12)
    seqs = make_seqs(10, vocab=13, seed=12)
    cfg = TeacherConfig(deletion_ratio=0.0, epochs=1, batch_size=4, seed=12)
    teacher, _ = train_tsdae(enc, seqs, cfg)
    z = teacher.embed_batch(seqs[:1])
    path = tmp_path / "teacher.semm"
    teacher.save(path)
    loaded = Teacher.load(path)
    assert loaded.kind == "tsdae"
    assert np.allclose(loaded.embed_batch(seqs[:1]), z, atol=1e-5)  # float32 storage
    # decoder params were discarded with the checkpoint
    assert not any(n.startswith("dec.") for n in loaded.encoder.store.names())


def _mlm_trained_encoder():
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=13)
    mlm_pretrain(enc, make_seqs(8, seed=13), steps=2, seed=13, batch_size=4)
    assert "mlm.out.w" in enc.store
    return enc


def test_an_encoder_checkpoint_holds_the_encoder_alone(tmp_path):
    enc = _mlm_trained_encoder()
    enc.save(tmp_path / "enc.semm")
    kind, config, params = load_checkpoint(tmp_path / "enc.semm")
    assert kind == SequenceEncoder.KIND and "pooling" not in config
    assert list(params) == [n for n in enc.store.names() if not n.startswith("mlm.")]
    for name, arr in params.items():
        assert arr.tobytes() == enc.store[name].data.astype(np.float32).tobytes(), name


def test_files_in_the_older_format_load_and_embed_bit_equal(tmp_path):
    """Older versions saved the MLM head with the encoder and named mean
    pooling in both headers; such files load, and embed as the new files
    do, bit for bit."""
    enc = _mlm_trained_encoder()
    legacy = {**enc.config_dict(), "pooling": "mean"}
    encoder_only = {n: p for n, p in enc.store.items() if not n.startswith("mlm.")}
    old = {SequenceEncoder: tmp_path / "old-enc.semm", Teacher: tmp_path / "old-teacher.semm"}
    save_checkpoint(old[SequenceEncoder], SequenceEncoder.KIND, legacy, enc.store)
    save_checkpoint(old[Teacher], Teacher.KIND, {**legacy, "teacher_kind": "mlm"}, encoder_only)
    new = {SequenceEncoder: tmp_path / "enc.semm", Teacher: tmp_path / "teacher.semm"}
    enc.save(new[SequenceEncoder])
    Teacher(encoder=enc, kind="mlm").save(new[Teacher])
    seqs = make_seqs(6, seed=14)
    for cls in (SequenceEncoder, Teacher):
        want = cls.load(new[cls]).embed_batch(seqs)
        assert cls.load(old[cls]).embed_batch(seqs).tobytes() == want.tobytes()
    assert "mlm.out.w" in load_checkpoint(old[SequenceEncoder])[2]
    assert Teacher.load(old[Teacher]).kind == "mlm"


@pytest.mark.parametrize("cls", [SequenceEncoder, Teacher])
def test_a_header_naming_cls_pooling_is_a_format_error(tmp_path, cls):
    enc = SequenceEncoder.create(vocab=20, cfg=TINY, seed=13)
    config = {**enc.config_dict(), "pooling": "cls", "teacher_kind": "mlm"}
    save_checkpoint(tmp_path / "cls.semm", cls.KIND, config, enc.store)
    with pytest.raises(FileFormatError, match="pooling 'cls'") as e:
        cls.load(tmp_path / "cls.semm")
    assert e.value.offset == 10
