import hashlib
import json
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semspeech.cli import main
from semspeech.errors import FileFormatError, ValidationError
from semspeech.quantizer import UnitSequence
from semspeech.tokenizer import (
    CLS,
    MASK,
    N_SPECIALS,
    PAD,
    SEP,
    SPECIALS,
    UNK,
    BpeModel,
    TokenSequence,
    _merge_once,
    _pair_counts,
    decode,
    encode,
    load_bpe_model,
    load_token_corpus,
    save_bpe_model,
    save_token_corpus,
    train_bpe,
)


def no_adjacent_dups(xs):
    return all(a != b for a, b in zip(xs, xs[1:]))


unit_seq_strategy = st.lists(st.integers(0, 7), min_size=1, max_size=30).filter(
    no_adjacent_dups
)


def make_units(rng, n_lines, alphabet=8, max_len=30):
    out = []
    for i in range(n_lines):
        length = int(rng.integers(1, max_len + 1))
        seq = []
        for _ in range(length):
            while True:
                u = int(rng.integers(alphabet))
                if not seq or u != seq[-1]:
                    break
            seq.append(u)
        out.append(UnitSequence(units=seq, source_id=f"u{i}"))
    return out


# ---------------------------------------------------------------------------
# independent greedy-BPE oracle: recounts all pairs from scratch every step
# ---------------------------------------------------------------------------

def oracle_bpe(seqs, n_merges, next_id):
    seqs = [list(s) for s in seqs]
    merges = []
    while len(merges) < n_merges:
        counts = Counter()
        for s in seqs:
            counts.update(zip(s, s[1:]))
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if counts[best] < 2:
            break
        merges.append(best)
        new = []
        for s in seqs:
            out, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and (s[i], s[i + 1]) == best:
                    out.append(next_id)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            new.append(out)
        seqs = new
        next_id += 1
    return merges, seqs


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_first_merge_on_repeating_line():
    units = [UnitSequence(units=[1, 2, 1, 2, 1, 2], source_id="a")]
    model = train_bpe(units, vocab_size=8)
    assert len(model.merges) >= 1
    first_merged_token = 5 + len(model.alphabet)
    assert model.expansion(first_merged_token) == [1, 2]


def test_zero_merge_vocab_is_identity():
    units = [UnitSequence(units=[3, 9, 3], source_id="a")]
    model = train_bpe(units, vocab_size=5 + 2)
    assert model.merges == []
    ts = encode(units[0], model)
    assert ts.tokens[0] == CLS and ts.tokens[-1] == SEP
    assert decode(ts, model) == [3, 9, 3]


def test_vocab_too_small_errors():
    units = [UnitSequence(units=[0, 1, 2], source_id="a")]
    with pytest.raises(ValidationError):
        train_bpe(units, vocab_size=7)


def test_empty_corpus_errors():
    with pytest.raises(ValidationError):
        train_bpe([], vocab_size=100)


def test_training_matches_brute_force_oracle():
    rng = np.random.default_rng(123)
    units = make_units(rng, n_lines=200)
    vocab_size = 5 + 8 + 40
    model = train_bpe(units, vocab_size)

    # independent re-derivation over the same documented id layout
    alphabet = sorted({u for seq in units for u in seq.units})
    unit_to_token = {u: 5 + i for i, u in enumerate(alphabet)}
    seqs = [[unit_to_token[u] for u in seq.units] for seq in units]
    oracle_merges, oracle_seqs = oracle_bpe(seqs, n_merges=40, next_id=5 + len(alphabet))

    assert model.merges == oracle_merges
    for seq, expected in zip(units, oracle_seqs):
        assert encode(seq, model).tokens[1:-1] == expected


def test_merges_stop_below_frequency_two():
    # every pair unique: nothing to merge no matter the budget
    units = [UnitSequence(units=[0, 1, 2, 3, 4, 5], source_id="a")]
    model = train_bpe(units, vocab_size=1000)
    assert model.merges == []


def test_merges_do_not_cross_lines():
    # pair (1,2) occurs once per line; within-line frequency is 1 each,
    # but across the corpus it is 2, so it merges -- while (2,1), which only
    # appears by concatenating lines, must not be counted
    units = [
        UnitSequence(units=[0, 1, 2], source_id="a"),
        UnitSequence(units=[1, 2, 0], source_id="b"),
    ]
    model = train_bpe(units, vocab_size=5 + 3 + 1)
    merged = 5 + 3
    assert model.expansion(merged) == [1, 2]
    assert encode(units[0], model).tokens[1:-1] == [5, merged]


def test_tie_breaks_lexicographically():
    # (0,1) and (1,0) both occur twice; the smaller pair wins
    units = [
        UnitSequence(units=[0, 1, 0, 1, 0], source_id="a"),
    ]
    # pairs: (0,1) x2, (1,0) x2 -> tie -> (0,1) i.e. token pair (5,6)
    model = train_bpe(units, vocab_size=5 + 2 + 1)
    assert model.merges[0] == (5, 6)


def test_training_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(7)
    units = make_units(rng, n_lines=50)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_bpe_model(train_bpe(units, 5 + 8 + 10), p1)
    save_bpe_model(train_bpe(units, 5 + 8 + 10), p2)
    assert p1.read_bytes() == p2.read_bytes()


# the trainer before merges came from a heap: it rescans every pair count for
# each merge, and is the oracle for the heap's choice, ties included
def rescanning_train_bpe(units, vocab_size):
    alphabet = sorted({u for seq in units for u in seq.units})
    model = BpeModel(alphabet=alphabet, merges=[])
    seqs = [[model.token_for_unit(u) for u in seq.units] for seq in units]
    counts = Counter()
    where = defaultdict(set)
    for idx, s in enumerate(seqs):
        for p, c in _pair_counts(s).items():
            counts[p] += c
            where[p].add(idx)
    merges = []
    next_id = N_SPECIALS + len(alphabet)
    while next_id < vocab_size and counts:
        best_pair, best_count = None, 0
        for p, c in counts.items():
            if c > best_count or (c == best_count and (best_pair is None or p < best_pair)):
                best_pair, best_count = p, c
        if best_count < 2:
            break
        merges.append(best_pair)
        for idx in sorted(where[best_pair]):
            old = seqs[idx]
            for p, c in _pair_counts(old).items():
                counts[p] -= c
                if counts[p] <= 0:
                    del counts[p]
                where[p].discard(idx)
            new = _merge_once(old, best_pair, next_id)
            seqs[idx] = new
            for p, c in _pair_counts(new).items():
                counts[p] += c
                where[p].add(idx)
        next_id += 1
    return BpeModel(alphabet=alphabet, merges=merges)


def _dedup_runs(xs):
    return [x for i, x in enumerate(xs) if i == 0 or x != xs[i - 1]]


# three or four units over short lines: most merge choices are ties
@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        st.lists(st.integers(0, 3), min_size=1, max_size=14).map(_dedup_runs),
        min_size=1,
        max_size=30,
    ),
    extra=st.integers(0, 60),
)
def test_heap_merges_equal_the_rescanning_trainer(lines, extra):
    units = [UnitSequence(units=line, source_id=f"u{i}") for i, line in enumerate(lines)]
    vocab_size = N_SPECIALS + len({u for line in lines for u in line}) + extra
    assert train_bpe(units, vocab_size).merges == rescanning_train_bpe(units, vocab_size).merges


def test_model_file_bytes_are_pinned(tmp_path):
    units = make_units(np.random.default_rng(11), n_lines=300, alphabet=6)
    model = train_bpe(units, N_SPECIALS + 6 + 120)
    assert model.merges == rescanning_train_bpe(units, N_SPECIALS + 6 + 120).merges
    path = tmp_path / "bpe.json"
    save_bpe_model(model, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "c8600aaec719862da04cf7966c6bcb0b48971ade0b346d8ccfc1fe4db84c6ebb"


def test_runs_of_one_token_merge_without_overlaps():
    # (1,2) merges to 7, leaving "7 7 7 7" and "7 7 7": (7,7) counts its
    # overlapping occurrences, 3 + 2, and merges left to right into 8
    units = [
        UnitSequence(units=[1, 2] * 4, source_id="a"),
        UnitSequence(units=[1, 2] * 3, source_id="b"),
    ]
    model = train_bpe(units, vocab_size=100)
    # then (8,8) and (8,7) occur once each, and training stops
    assert model.merges == [(5, 6), (7, 7)]
    assert [encode(u, model).tokens[1:-1] for u in units] == [[8, 8], [8, 7]]


def _motif_line(chunks):
    return _dedup_runs([u for motif, repeats in chunks for u in motif * repeats])


# lines of a few repeated motifs over four units: a motif's merges leave runs
# of one token ("x x x x"), whose pairs overlap, and most choices are ties
motif_lines = st.lists(
    st.lists(
        st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=3), st.integers(1, 6)),
        min_size=1,
        max_size=3,
    ).map(_motif_line),
    min_size=1,
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(lines=motif_lines, extra=st.integers(0, 40))
def test_merges_over_repeated_motifs_equal_the_oracle(lines, extra):
    units = [UnitSequence(units=line, source_id=f"u{i}") for i, line in enumerate(lines)]
    alphabet = sorted({u for line in lines for u in line})
    base = N_SPECIALS + len(alphabet)
    model = train_bpe(units, base + extra)
    to_token = {u: N_SPECIALS + i for i, u in enumerate(alphabet)}
    merges, seqs = oracle_bpe([[to_token[u] for u in line] for line in lines], extra, base)
    assert model.merges == merges
    assert [encode(u, model).tokens[1:-1] for u in units] == seqs
    if len(merges) < extra:  # stopped early: no pair is left twice
        counts = Counter(p for s in seqs for p in zip(s, s[1:]))
        assert max(counts.values(), default=0) < 2


def test_default_pipeline_bpe_and_tokens_are_pinned(tmp_path):
    # gen-corpus, quantize and tokenize at the default config: 2000
    # utterances, seed 0, 895 merges
    out = str(tmp_path)
    assert main(["gen-corpus", "--out", out]) == 0
    assert main(["quantize", "--out", out, "--corpus", str(tmp_path / "corpus")]) == 0
    assert main(["tokenize", "--out", out, "--units", str(tmp_path / "units.tsv")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("bpe.json", "tokens.tsv")
    }
    assert digests == {
        "bpe.json": "7dede59a1037ccb18e4c7e4aa9f68d0aefd5d59f425b81c8ff39e6d7177d6219",
        "tokens.tsv": "10d8568f414b93e4f27b206276a8aa04c4e6ddb2ddaae06db9bf8bca2fe63fb0",
    }


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def test_encode_wraps_with_specials():
    model = BpeModel(alphabet=[3, 9], merges=[])
    ts = encode(UnitSequence(units=[3, 9], source_id="x"), model)
    assert ts.tokens == [CLS, 5, 6, SEP]


def test_unknown_unit_becomes_unk():
    model = BpeModel(alphabet=[0, 1], merges=[])
    ts = encode(UnitSequence(units=[0, 77, 1], source_id="x"), model)
    assert ts.tokens == [CLS, 5, UNK, 6, SEP]
    assert decode(ts, model) == [0, -1, 1]


def test_decode_merged_token():
    model = BpeModel(alphabet=[1, 2], merges=[(5, 6)])
    assert model.expansion(7) == [1, 2]
    ts = TokenSequence(tokens=[CLS, 7, SEP], source_id="x")
    assert decode(ts, model) == [1, 2]


def test_decode_empty_expansion_errors():
    model = BpeModel(alphabet=[1], merges=[])
    ts = TokenSequence(tokens=[CLS, SEP], source_id="x")
    with pytest.raises(ValidationError):
        decode(ts, model)


def test_decode_unknown_token_errors():
    model = BpeModel(alphabet=[1], merges=[])
    with pytest.raises(ValidationError):
        model.expansion(99)


@settings(max_examples=80)
@given(seq=unit_seq_strategy)
def test_round_trip_over_base_alphabet(seq):
    corpus = [
        UnitSequence(units=[0, 1, 2, 3, 4, 5, 6, 7], source_id="base"),
        UnitSequence(units=[1, 2, 1, 2, 3, 4, 3, 4], source_id="rep"),
    ]
    model = train_bpe(corpus, vocab_size=5 + 8 + 4)
    x = UnitSequence(units=seq, source_id="q")
    assert decode(encode(x, model), model) == seq


def reference_encode(units, model):
    """Lowest-rank merge first, with the rank table rebuilt on every call."""
    seq = [model.token_for_unit(u) for u in units.units]
    rank = {pair: r for r, pair in enumerate(model.merges)}
    while len(seq) > 1:
        present = [(rank[p], p) for p in zip(seq, seq[1:]) if p in rank]
        if not present:
            break
        r, pair = min(present)
        out, i = [], 0
        while i < len(seq):
            if i + 1 < len(seq) and (seq[i], seq[i + 1]) == pair:
                out.append(N_SPECIALS + len(model.alphabet) + r)
                i += 2
            else:
                out.append(seq[i])
                i += 1
        seq = out
    return [CLS] + seq + [SEP]


def test_encode_matches_per_call_rank_reference(tmp_path):
    rng = np.random.default_rng(17)
    model = train_bpe(make_units(rng, n_lines=150), vocab_size=5 + 8 + 60)
    save_bpe_model(model, tmp_path / "bpe.json")
    loaded = load_bpe_model(tmp_path / "bpe.json")
    # alphabet 10 holds units the model never saw, which encode to UNK
    queries = make_units(rng, n_lines=100, alphabet=10)
    for m in (model, loaded):
        for q in queries:
            assert encode(q, m).tokens == reference_encode(q, m)


def test_compression_bound():
    rng = np.random.default_rng(99)
    units = make_units(rng, n_lines=100)
    model = train_bpe(units, vocab_size=5 + 8 + 30)
    raw = sum(len(u.units) for u in units) / len(units)
    enc = sum(len(encode(u, model).tokens) for u in units) / len(units)
    assert enc <= raw + 2


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    units = make_units(rng, 40)
    model = train_bpe(units, 5 + 8 + 6)
    path = tmp_path / "bpe.json"
    save_bpe_model(model, path)
    back = load_bpe_model(path)
    assert back.alphabet == model.alphabet
    assert back.merges == model.merges
    for u in units:
        assert encode(u, back).tokens == encode(u, model).tokens


def test_model_file_is_json_with_layout(tmp_path):
    model = BpeModel(alphabet=[2, 5], merges=[(5, 6)])
    path = tmp_path / "bpe.json"
    save_bpe_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["alphabet"] == [2, 5]
    assert doc["merges"] == [[5, 6]]
    assert doc["specials"] == {"PAD": 0, "CLS": 1, "SEP": 2, "UNK": 3, "MASK": 4}


def test_model_file_bad_json(tmp_path):
    path = tmp_path / "bpe.json"
    path.write_text("{nope")
    with pytest.raises(FileFormatError):
        load_bpe_model(path)


@pytest.mark.parametrize(
    "doc, fault",
    [
        ("5", "is not a JSON object"),
        ('{"alphabet": [1e999], "merges": [], "specials": SPECIALS}', "malformed model file"),
    ],
    ids=["a-number", "alphabet-entry-infinite"],
)
def test_model_file_of_the_wrong_type_is_a_format_error(tmp_path, doc, fault):
    path = tmp_path / "bpe.json"
    path.write_text(doc.replace("SPECIALS", json.dumps(SPECIALS)) + "\n")
    with pytest.raises(FileFormatError, match=fault):
        load_bpe_model(path)


def test_model_file_missing_key(tmp_path):
    path = tmp_path / "bpe.json"
    path.write_text('{"alphabet": [1]}')
    with pytest.raises(FileFormatError):
        load_bpe_model(path)


def test_token_corpus_round_trip(tmp_path):
    seqs = [
        TokenSequence(tokens=[CLS, 5, 6, SEP], source_id="a"),
        TokenSequence(tokens=[CLS, UNK, SEP], source_id="b"),
    ]
    path = tmp_path / "tokens.tsv"
    save_token_corpus(seqs, path)
    back = load_token_corpus(path)
    assert [(s.source_id, s.tokens) for s in back] == [
        ("a", [CLS, 5, 6, SEP]),
        ("b", [CLS, UNK, SEP]),
    ]


def test_token_corpus_rejects_a_repeated_id_naming_both_lines(tmp_path):
    path = tmp_path / "tokens.tsv"
    path.write_text(f"a\t{CLS} 5 {SEP}\na\t{CLS} 6 {SEP}\n")
    with pytest.raises(FileFormatError, match=r"lines 1 and 2: repeated id 'a'"):
        load_token_corpus(path)


def test_token_sequence_invariants():
    with pytest.raises(ValidationError):
        TokenSequence(tokens=[CLS])
    with pytest.raises(ValidationError):
        TokenSequence(tokens=[5, SEP])
    with pytest.raises(ValidationError):
        TokenSequence(tokens=[CLS, 5])
    with pytest.raises(ValidationError):
        TokenSequence(tokens=[CLS, PAD, SEP])
    with pytest.raises(ValidationError):
        TokenSequence(tokens=[CLS, MASK, SEP])
    # UNK is allowed inside
    TokenSequence(tokens=[CLS, UNK, SEP])
