import math
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import grad_check
from semspeech.corpus import SyntheticSpec, generate_corpus
from semspeech.errors import FileFormatError, ValidationError
from semspeech.nn import layers
from semspeech.nn.checkpoint import save_checkpoint
from semspeech.nn.layers import EncoderConfig
from semspeech.nn.optim import ParamStore, adamw_step
from semspeech.tokenizer import CLS, PAD, SEP, wrap_units
from semspeech.wavembed import (
    TrainRunConfig,
    WavEmbedModel,
    train_wavembed,
)

TINY = EncoderConfig(layers=1, model_dim=16, heads=2, ff_dim=24, dropout_rate=0.1)


def tiny_model(vocab=13, seed=0, encoder_cfg=TINY):
    return WavEmbedModel.create(d_in=4, vocab=vocab, encoder_cfg=encoder_cfg, seed=seed)


def toy_corpus(n=50, seed=0):
    spec = SyntheticSpec(
        alphabet_size=8,
        feature_dim=4,
        n_speakers=2,
        utterance_len_range=(3, 6),
        n_utterances=n,
        seed=seed,
    )
    corpus = generate_corpus(spec)
    targets = {u.id: wrap_units(u.symbols, spec.alphabet_size).tokens for u in corpus}
    return corpus, targets


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def test_embed_dimension_for_any_length():
    model = tiny_model()
    rng = np.random.default_rng(0)
    for t in (1, 3, 17):
        z = model.embed(rng.standard_normal((t, 4)))
        assert z.shape == (16,)


def test_embed_deterministic_and_identity_cosine():
    model = tiny_model()
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 4))
    z1, z2 = model.embed(x), model.embed(x.copy())
    assert np.array_equal(z1, z2)
    cos = z1 @ z2 / (np.linalg.norm(z1) * np.linalg.norm(z2))
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_embed_batch_matches_single():
    model = tiny_model()
    rng = np.random.default_rng(2)
    seqs = [rng.standard_normal((t, 4)) for t in (2, 5, 3)]
    batched = model.embed_batch(seqs)
    for i, s in enumerate(seqs):
        assert np.array_equal(batched[i], model.embed(s))


def test_embed_batch_spanning_chunks_keeps_input_order():
    model = tiny_model()
    rng = np.random.default_rng(4)
    lengths = rng.permutation(np.repeat(np.arange(1, 36), 2))
    seqs = [rng.standard_normal((int(t), 4)) for t in lengths]
    batched = model.embed_batch(seqs)
    assert batched.shape == (len(seqs), 16)
    for i, s in enumerate(seqs):
        assert np.array_equal(batched[i], model.embed(s))


def test_embed_batch_rejects_mixed_feature_dims():
    model = tiny_model()
    rng = np.random.default_rng(5)
    seqs = [rng.standard_normal((3, 4)) for _ in range(40)] + [rng.standard_normal((3, 5))]
    with pytest.raises(ValidationError):
        model.embed_batch(seqs)


def test_embed_rejects_features_of_another_dimension():
    model = tiny_model()
    with pytest.raises(ValidationError, match="6 dimensions, the model takes 4") as e:
        model.embed(np.ones((3, 6)))
    assert e.value.field == "features"


def test_embed_ignores_decoder_params():
    model = tiny_model()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 4))
    z_before = model.embed(x)
    for name, p in model.store.items():
        if name.startswith("dec."):
            p.data = p.data + 123.0
    assert np.array_equal(model.embed(x), z_before)


# ---------------------------------------------------------------------------
# reconstruction loss
# ---------------------------------------------------------------------------

def test_untrained_loss_near_log_vocab():
    vocab = 13
    rng = np.random.default_rng(5)
    losses = []
    for seed in range(5):
        model = tiny_model(vocab=vocab, seed=seed)
        x = rng.standard_normal((6, 4))
        target = np.array([CLS, 7, 9, 5, 11, SEP])
        losses.append(float(model.batch_loss([x], [target]).data))
    mean = np.mean(losses)
    assert abs(mean - math.log(vocab)) / math.log(vocab) < 0.15


def test_reconstruction_rejects_overlong_target():
    # the decoder reads every target id but the last, one position each
    model = tiny_model(encoder_cfg=replace(TINY, max_positions=3))
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4))
    model.batch_loss([x], [np.array([CLS, 5, 6, SEP])])
    with pytest.raises(ValidationError) as e:
        model.batch_loss([x], [np.array([CLS, 5, 6, 7, SEP])])
    assert e.value.field == "max_positions"


def test_reconstruction_refuses_a_target_holding_pad():
    model = tiny_model()
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4))
    model.batch_loss([x], [np.array([CLS, 7, 8, 9, SEP])])
    for target in ([CLS, 7, PAD, 9, SEP], [PAD, 7, 8, 9, SEP], [CLS, 7, 8, 9, PAD]):
        with pytest.raises(ValidationError, match="holds PAD"):
            model.batch_loss([x, x], [np.array([CLS, 5, SEP]), np.array(target)])


def test_batch_loss_matches_singles_equal_lengths():
    model = tiny_model()
    rng = np.random.default_rng(7)
    seqs = [rng.standard_normal((4, 4)) for _ in range(3)]
    targets = [np.array([CLS, 5 + i, 6, SEP]) for i in range(3)]
    batched = float(model.batch_loss(seqs, targets).data)
    singles = [float(model.batch_loss([s], [t]).data) for s, t in zip(seqs, targets)]
    assert batched == pytest.approx(np.mean(singles), abs=1e-9)


def test_batch_loss_pad_positions_contribute_zero():
    # a short sequence padded inside a batch scores identically to solo
    model = tiny_model()
    rng = np.random.default_rng(8)
    seqs = [rng.standard_normal((4, 4)), rng.standard_normal((6, 4))]
    targets = [np.array([CLS, 5, SEP]), np.array([CLS, 6, 7, 8, 9, SEP])]
    batched = model.batch_loss(seqs, targets)
    live = (len(targets[0]) - 1) + (len(targets[1]) - 1)
    singles = sum(
        float(model.batch_loss([s], [t]).data) * (len(t) - 1)
        for s, t in zip(seqs, targets)
    )
    assert float(batched.data) == pytest.approx(singles / live, abs=1e-9)


def test_overfit_single_example():
    model = tiny_model(seed=3)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 4))
    target = np.array([CLS, 7, 5, 9, 6, SEP])
    loss_value = None
    for _ in range(500):
        model.store.zero_grad()
        loss = model.batch_loss([x], [target])
        loss.backward()
        adamw_step(model.store, lr=5e-3)
        loss_value = float(loss.data)
        if loss_value < 0.005:
            break
    assert loss_value < 0.01
    decoded = model.greedy_decode(x, max_len=10)
    assert np.array_equal(decoded, target)


def test_full_model_gradient_check():
    # the end-to-end micro model: every parameter against central differences
    cfg = EncoderConfig(layers=1, model_dim=4, heads=2, ff_dim=8, dropout_rate=0.0)
    model = WavEmbedModel.create(d_in=3, vocab=7, encoder_cfg=cfg, seed=1)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3))
    target = np.array([CLS, 5, 6, SEP])
    params = [p for _, p in model.store.items()]
    err = grad_check(lambda: model.batch_loss([x], [target]), params)
    assert err < 5e-3


# ---------------------------------------------------------------------------
# greedy decode
# ---------------------------------------------------------------------------

def test_greedy_decode_shape_rules():
    model = tiny_model()
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 4))
    out = model.greedy_decode(x, max_len=6)
    assert out[0] == CLS
    assert out[-1] == SEP or len(out) == 6
    assert np.array_equal(out, model.greedy_decode(x, max_len=6))


# ids greedy_decode returned when it re-ran the whole prefix for every token
GREEDY_IDS = {
    0: [1, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8],
    1: [1, 4, 10, 10, 10, 10, 4, 4, 10, 10, 10, 2],
}
DEFAULT_DIMS_IDS = [1, 23, 23, 23, 23, 23, 23, 0, 1, 1, 23, 23, 23, 10, 10] + [23] * 49


@pytest.mark.parametrize("seed", sorted(GREEDY_IDS), ids=lambda seed: f"memory-{seed}")
def test_greedy_decode_keeps_its_ids(seed):
    x = np.random.default_rng(11).standard_normal((6, 4))
    out = tiny_model(seed=seed).greedy_decode(x, max_len=16)
    assert out.tolist() == GREEDY_IDS[seed]


def test_greedy_decode_keeps_its_ids_at_default_dims():
    model = WavEmbedModel.create(d_in=8, vocab=40, seed=0)
    x = np.random.default_rng(7).standard_normal((30, 8))
    assert model.greedy_decode(x).tolist() == DEFAULT_DIMS_IDS


def test_greedy_decode_folds_the_cross_attention_row_once_per_block(monkeypatch):
    cfg = replace(TINY, layers=2)
    model = WavEmbedModel.create(d_in=4, vocab=13, encoder_cfg=cfg, seed=0)
    x = np.random.default_rng(11).standard_normal((6, 4))
    calls = []
    apply_linear = layers.apply_linear

    def counted(store, name, t):
        calls.append(name)
        return apply_linear(store, name, t)

    monkeypatch.setattr(layers, "apply_linear", counted)
    out = model.greedy_decode(x, max_len=16)
    # one dec.out per position run, but xattn.v once per block for the call
    assert calls.count("dec.out") == len(out) - 1 > 1
    assert sum(n.endswith(".xattn.v") for n in calls) == cfg.layers


def test_greedy_decode_rejects_max_len_past_the_positions_before_encoding(monkeypatch):
    cfg = EncoderConfig(layers=1, model_dim=16, heads=2, ff_dim=24, max_positions=8)
    model = WavEmbedModel.create(d_in=4, vocab=13, encoder_cfg=cfg, seed=0)
    x = np.random.default_rng(11).standard_normal((6, 4))
    assert len(model.greedy_decode(x, max_len=9)) <= 9  # 8 decoder positions
    monkeypatch.setattr(model, "_encode", lambda *a, **k: pytest.fail("encoded"))
    with pytest.raises(ValidationError) as e:
        model.greedy_decode(x, max_len=10)
    assert e.value.field == "max_len"


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_smoke_and_keep_best():
    # binary alphabet with no repeated neighbors: strong structure a tiny
    # model can latch onto fast enough to halve the loss in two epochs
    spec = SyntheticSpec(
        alphabet_size=2,
        feature_dim=4,
        n_speakers=2,
        utterance_len_range=(4, 8),
        n_utterances=50,
        seed=0,
    )
    corpus = generate_corpus(spec)
    targets = {u.id: wrap_units(u.symbols, 2).tokens for u in corpus}
    model = WavEmbedModel.create(d_in=4, vocab=7, encoder_cfg=TINY, seed=0)
    cfg = TrainRunConfig(epochs=2, lr=1e-2, batch_size=1, seed=0)
    curve = train_wavembed(model, corpus, targets, cfg)
    assert len(curve) == 3  # init + 2 epochs
    assert curve[0].step == 0
    # smoke: halve the training loss within 2 epochs
    assert curve[-1].train_loss <= 0.5 * curve[0].train_loss
    # keep-best contract
    assert min(p.dev_loss for p in curve) <= curve[0].dev_loss


def test_train_missing_target_names_id():
    corpus, targets = toy_corpus(n=10)
    victim = corpus[list(targets)[3]].id
    del targets[victim]
    model = WavEmbedModel.create(d_in=4, vocab=13, encoder_cfg=TINY, seed=0)
    with pytest.raises(ValidationError) as e:
        train_wavembed(model, corpus, targets, TrainRunConfig(epochs=1))
    assert victim in str(e.value)


def test_train_refuses_an_overlong_target_before_its_first_step():
    corpus, targets = toy_corpus(n=10)
    victim = corpus[list(targets)[4]].id
    targets[victim] = [CLS, *[5] * 64, SEP]  # 65 decoder positions
    # the toy utterances have at most 30 frames
    model = tiny_model(encoder_cfg=replace(TINY, max_positions=64))
    before = {name: p.data.copy() for name, p in model.store.items()}
    with pytest.raises(ValidationError) as e:
        train_wavembed(model, corpus, targets, TrainRunConfig(epochs=1))
    assert e.value.field == victim and repr(victim) in str(e.value)
    after = {name: p.data.copy() for name, p in model.store.items()}
    assert all(np.array_equal(before[name], after[name]) for name in before)


def test_train_rerun_is_bit_identical():
    corpus, targets = toy_corpus(n=20)
    states = []
    for _ in range(2):
        model = WavEmbedModel.create(d_in=4, vocab=13, encoder_cfg=TINY, seed=7)
        train_wavembed(
            model, corpus, targets, TrainRunConfig(epochs=2, lr=1e-3, batch_size=8, seed=7)
        )
        states.append({name: p.data.copy() for name, p in model.store.items()})
    for name in states[0]:
        assert np.array_equal(states[0][name], states[1][name]), name


def test_train_dev_loss_after_training_not_worse_than_init():
    corpus, targets = toy_corpus(n=30, seed=1)
    model = WavEmbedModel.create(d_in=4, vocab=13, encoder_cfg=TINY, seed=2)
    cfg = TrainRunConfig(epochs=3, lr=3e-3, batch_size=8, seed=2)
    curve = train_wavembed(model, corpus, targets, cfg)
    kept_dev = min(p.dev_loss for p in curve)
    assert kept_dev <= curve[0].dev_loss


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    model = tiny_model(seed=5)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((5, 4))
    z = model.embed(x)
    path = tmp_path / "model.semm"
    model.save(path)
    loaded = WavEmbedModel.load(path)
    # float32 persistence: compare at float32 resolution
    assert np.allclose(loaded.embed(x), z, atol=1e-5)
    assert loaded.vocab == model.vocab
    assert loaded.config_dict() == model.config_dict()


def test_load_accepts_checkpoint_with_target_mode(tmp_path):
    # checkpoints written before target_mode left the model still carry it
    model = tiny_model(seed=5)
    path = tmp_path / "model.semm"
    config = dict(model.config_dict(), target_mode="units")
    save_checkpoint(path, kind="wavembed", config=config, store=model.store)
    loaded = WavEmbedModel.load(path)
    x = np.random.default_rng(12).standard_normal((5, 4))
    assert np.allclose(loaded.embed(x), model.embed(x), atol=1e-5)
    assert loaded.config_dict() == model.config_dict()
    assert "target_mode" not in loaded.config_dict()


def test_load_accepts_checkpoint_with_has_decoder_key(tmp_path):
    # checkpoints written while the decoder could be stripped carry this key
    model = tiny_model(seed=6)
    path = tmp_path / "model.semm"
    config = dict(model.config_dict(), has_decoder=True)
    save_checkpoint(path, kind="wavembed", config=config, store=model.store)
    loaded = WavEmbedModel.load(path)
    x = np.random.default_rng(12).standard_normal((5, 4))
    assert np.allclose(loaded.embed(x), model.embed(x), atol=1e-5)
    assert loaded.config_dict() == model.config_dict()


def test_load_accepts_checkpoint_with_max_target_len(tmp_path):
    # checkpoints written while the target length had its own limit carry it
    model = tiny_model(seed=7)
    old, new = tmp_path / "old.semm", tmp_path / "new.semm"
    save_checkpoint(old, kind="wavembed", config=dict(model.config_dict(), max_target_len=256),
                    store=model.store)
    model.save(new)
    rng = np.random.default_rng(13)
    frames = [rng.standard_normal((n, 4)) for n in (3, 7, 1)]
    loaded = WavEmbedModel.load(old)
    assert loaded.config_dict() == model.config_dict()
    assert np.array_equal(loaded.embed_batch(frames), WavEmbedModel.load(new).embed_batch(frames))


def test_encoder_only_checkpoint_is_one_format_error(tmp_path):
    # the stripped layout: no dec.* parameters, so no decoder to rebuild
    model = tiny_model(seed=6)
    encoder_only = ParamStore()
    for name, p in model.store.items():
        if not name.startswith("dec."):
            encoder_only.add(name, p)
    path = tmp_path / "enc.semm"
    config = dict(model.config_dict(), has_decoder=False)
    save_checkpoint(path, kind="wavembed", config=config, store=encoder_only)
    with pytest.raises(FileFormatError, match="missing parameter 'dec.tok'") as e:
        WavEmbedModel.load(path)
    assert e.value.offset == 10  # where the JSON header starts


def _saved_with_decoder_keys(path, model, store, **keys):
    """``model`` saved as older files held it: the header also names the
    decoder's shape and its conditioning, and ``store`` is the parameters."""
    config = dict(model.config_dict(), decoder=model.encoder_cfg.to_dict(), condition_mode="memory")
    save_checkpoint(path, kind="wavembed", config=dict(config, **keys), store=store)


def test_load_accepts_header_naming_the_one_decoder(tmp_path):
    model = tiny_model(seed=8)
    _saved_with_decoder_keys(tmp_path / "old.semm", model, model.store)
    model.save(tmp_path / "new.semm")
    old, new = (WavEmbedModel.load(tmp_path / name) for name in ("old.semm", "new.semm"))
    assert old.config_dict() == model.config_dict()
    x = np.random.default_rng(12).standard_normal((5, 4))
    assert np.array_equal(old.embed(x), new.embed(x))
    assert old.greedy_decode(x, max_len=8).tolist() == new.greedy_decode(x, max_len=8).tolist()


def test_load_rejects_a_deeper_decoder(tmp_path):
    # a 2-layer decoder under a 1-layer encoder: loading it as the one
    # decoder would drop dec.block1.* without a word
    model = tiny_model(seed=8)
    deep = WavEmbedModel.create(d_in=4, vocab=13, encoder_cfg=replace(TINY, layers=2), seed=8)
    store = ParamStore()
    for name, p in model.store.items():
        if not name.startswith("dec."):
            store.add(name, p)
    for name, p in deep.store.items():
        if name.startswith("dec."):
            store.add(name, p)
    path = tmp_path / "model.semm"
    _saved_with_decoder_keys(path, model, store, decoder=deep.encoder_cfg.to_dict())
    with pytest.raises(FileFormatError, match="decoder") as e:
        WavEmbedModel.load(path)
    assert e.value.offset == 10


def test_load_rejects_an_added_conditioning(tmp_path):
    model = tiny_model(seed=8)
    store = ParamStore()
    for name, p in model.store.items():
        if ".lnx." not in name and ".xattn." not in name:
            store.add(name, p)
    path = tmp_path / "model.semm"
    _saved_with_decoder_keys(path, model, store, condition_mode="add")
    with pytest.raises(FileFormatError, match="memory slot") as e:
        WavEmbedModel.load(path)
    assert e.value.offset == 10


def test_wrap_units_layout():
    seq = wrap_units([0, 3, 1], alphabet_size=8)
    assert seq.tokens == [CLS, 5, 8, 6, SEP]
    with pytest.raises(ValidationError):
        wrap_units([9], alphabet_size=8)
    with pytest.raises(ValidationError):
        wrap_units([], alphabet_size=8)


def test_default_dims_hold_no_dead_parameter():
    """No key bias, no lnx norm and no cross-attention Q or K: each would
    only get rounding residue as its gradient."""
    model = WavEmbedModel.create(d_in=16, vocab=400)
    names = [n for n, _ in model.store.items()]
    dead = (".k.b", ".lnx.", ".xattn.q.", ".xattn.k.")
    assert not [n for n in names if any(part in n for part in dead)]
    assert sum(p.size for _, p in model.store.items()) == 203_280


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field, message", [("lr", "lr must be positive")]
)
def test_train_run_config_refuses_non_finite_settings(field, message, value):
    with pytest.raises(ValidationError, match=f"{message} and finite") as e:
        TrainRunConfig(**{field: value}).validate()
    assert e.value.field == field
