"""Artifact framing: pinned writer bytes, and what a damaged file does.

Every binary writer's output for a fixed tiny input is pinned by sha256, as
are the row writers' (TSV and CSV), so any change to a byte layout shows
here. A truncated or one-byte-damaged
artifact must load or raise a typed error: ``FileFormatError`` with an
offset for a binary one, and for a text one any ``SemspeechError`` or
``OSError``, the two the CLI turns into one error line.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damage import damaged
from semspeech.config import default_config, load_config
from semspeech.corpus import (
    FeatureSequence,
    ScoredPairSet,
    SyntheticSpec,
    generate_corpus,
    load_corpus,
    load_scored_pairs,
    read_features,
    save_corpus,
    save_scored_pairs,
    write_features,
)
from semspeech.distill import StudentModel
from semspeech.errors import FileFormatError, SemspeechError
from semspeech.evaluation import EvalReport, load_report, save_report
from semspeech.fileformat import BinaryReader, read_rows, read_text, write_binary, write_text
from semspeech.index import EmbeddingIndex, load_index, save_index
from semspeech.nn import checkpoint
from semspeech.nn.layers import EncoderConfig
from semspeech.nn.optim import ParamStore
from semspeech.nn.tensor import Tensor
from semspeech.quantizer import (
    Codebook,
    UnitSequence,
    load_unit_corpus,
    read_codebook,
    save_unit_corpus,
    write_codebook,
)
from semspeech.tokenizer import (
    TokenSequence,
    load_bpe_model,
    load_token_corpus,
    save_bpe_model,
    save_token_corpus,
    train_bpe,
)
from semspeech.wavembed import CurvePoint, save_loss_curve

UNITS = [UnitSequence([3, 1, 4], "u0"), UnitSequence([5], "u1"), UnitSequence([2, 6], "u2")]


def _toy_store() -> ParamStore:
    store = ParamStore()
    store.add("w", Tensor(np.arange(4.0).reshape(2, 2)))
    store.add("b", Tensor(np.array([0.5, -1.0])))
    return store


def _tiny_student(path):
    cfg = EncoderConfig(layers=1, model_dim=4, heads=2, ff_dim=6)
    StudentModel.create(d_in=3, cfg=cfg, pooling="cls", seed=1).save(path)


# writer of a fixed tiny input, per binary format, per text format that
# shares the <id>\t<ints> rows, for the CSV tables, and for the BPE model,
# the pairs TSV and the evaluation report
WRITERS = {
    "semf": lambda p: write_features(p, FeatureSequence(np.arange(6.0).reshape(3, 2))),
    "semk": lambda p: write_codebook(p, Codebook(centroids=np.arange(6.0).reshape(3, 2))),
    "semi": lambda p: save_index(
        EmbeddingIndex(ids=["a", "b", "c"], matrix=np.eye(3, 4), metadata={"m": 1}), p
    ),
    "semm": lambda p: checkpoint.save_checkpoint(p, "toy", {"dim": 2}, _toy_store()),
    "units.tsv": lambda p: save_unit_corpus(UNITS, p),
    "tokens.tsv": lambda p: save_token_corpus(
        [TokenSequence([1, 7, 9, 2], "u0"), TokenSequence([1, 3, 2], "u1")], p
    ),
    "curve.csv": lambda p: save_loss_curve(
        p, [CurvePoint(0, 2.5, 2.6), CurvePoint(10, 1.25, float("nan"))]
    ),
    "bpe.json": lambda p: save_bpe_model(train_bpe(UNITS * 2, vocab_size=14), p),
    "pairs.tsv": lambda p: save_scored_pairs(ScoredPairSet([("a", "b", 1.5), ("a", "c", 4.0)]), p),
    "report.json": lambda p: save_report(
        EvalReport(0.61, 2, 0.4, -2.2, metadata={"model_kind": "student"}), p
    ),
}

# sha256 of each writer's output: a change here is a change of byte layout,
# which every saved artifact would feel
GOLDEN = {
    "semf": "d9af6d1d8776351591cb8a57f6417d5398d0a924aa7d0bc6eabd9e39ab083f93",
    "semk": "7a8836dee10eb0ab5f6020910a8691fa60fbdedee4e5ffab942a9a8e5dda2d79",
    "semi": "5c683a4e2314f1bd2a2017aa89035343b989f59878ccca4f0c4ed9b835c53563",
    "semm": "008bbfaba1563d4f2cd7e17ad878c99091989f19843aeac093608f053b1afc0d",
    "units.tsv": "4e0100e8e65128561f7f568b491ee8b5c54143f9c7a490ee036b5e15299f5cb9",
    "tokens.tsv": "aab378cc74c7fb7197a020ae9de56835d723e4481a9edf0b9b96169ba6cbb8e2",
    "curve.csv": "93ce3a0981e66fc0b8287e4daaf5fef29ce9dcb74b2f05189c96d7efc9ee3b59",
    "bpe.json": "099417edc9f812cc62ee608df4996410e42b38f72d2a40e298475993495a7e41",
    "pairs.tsv": "e43215792628063e3dc2fd35df746dc99eddeb1834cc6ef8946cef4acdca034f",
    "report.json": "902e5c88b4d78b739c34de9d59cdef0140c3f77c809efdacb6eaa0334f134aa6",
}


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_writer_bytes_are_pinned(tmp_path, fmt):
    path = tmp_path / "x"
    WRITERS[fmt](path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[fmt]


# binary format -> (writer of the damaged file's original, loader)
BINARY = {
    "semf": (WRITERS["semf"], read_features),
    "semk": (WRITERS["semk"], read_codebook),
    "semi": (
        lambda p: save_index(EmbeddingIndex(ids=["a", "b", "c"], matrix=np.eye(3, 4)), p),
        load_index,
    ),
    "semm": (_tiny_student, lambda p: checkpoint.load(p, StudentModel)),
}


@pytest.mark.parametrize("fmt", sorted(BINARY))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_damaged_binary_file_loads_or_raises_format_error(tmp_path_factory, data, fmt):
    write, load = BINARY[fmt]
    path = tmp_path_factory.mktemp(fmt) / "x"
    write(path)
    path.write_bytes(data.draw(damaged(path.read_bytes())))
    try:
        load(path)
    except FileFormatError as e:
        assert e.offset is not None


def _write_manifest(p):
    save_corpus(generate_corpus(SyntheticSpec(n_utterances=3, seed=0)), p.parent)
    return p.parent / "manifest.jsonl"


def _write_config(p):
    cfg = default_config()
    cfg.set("run.seed", "3")
    cfg.set("quantizer.clusters", "8")
    cfg.write(p)


# text artifact -> (writer, loader); the manifest's loader reads its directory
TEXT = {
    "units.tsv": (WRITERS["units.tsv"], load_unit_corpus),
    "tokens.tsv": (WRITERS["tokens.tsv"], load_token_corpus),
    "pairs.tsv": (WRITERS["pairs.tsv"], load_scored_pairs),
    "manifest.jsonl": (_write_manifest, lambda p: load_corpus(p.parent)),
    "bpe.json": (WRITERS["bpe.json"], load_bpe_model),
    "config": (_write_config, load_config),
    "report.json": (WRITERS["report.json"], load_report),
}


@pytest.mark.parametrize("fmt", sorted(TEXT))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_text_file_loads_or_raises_a_typed_error(tmp_path_factory, data, fmt):
    write, load = TEXT[fmt]
    path = tmp_path_factory.mktemp(fmt.replace(".", "_")) / fmt
    write(path)
    path.write_bytes(data.draw(damaged(path.read_bytes())))
    try:
        load(path)
    except (SemspeechError, OSError):
        pass


def test_undecodable_byte_is_a_format_error_at_its_offset(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_bytes("é\tb\n".encode() + b"\xff\n")
    with pytest.raises(FileFormatError) as e:
        read_text(path)
    assert e.value.offset == 5


def test_read_text_makes_line_ends_newlines(tmp_path):
    path = tmp_path / "x.txt"
    path.write_bytes(b"a\r\nb\rc\n")
    assert read_text(path) == "a\nb\nc\n"


def test_read_rows_skips_blank_lines_and_checks_the_field_count(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("h1\th2\n\na\tb\n  \nc\td\n")
    assert list(read_rows(path, 2, header=("h1", "h2"))) == [(3, ["a", "b"]), (5, ["c", "d"])]
    with pytest.raises(FileFormatError, match="line 1: 2 tab-separated fields, expected 3"):
        list(read_rows(path, 3))
    with pytest.raises(FileFormatError, match="header"):
        list(read_rows(path, 2, header=("id_a", "id_b")))


def test_binary_reader_walks_fields_doc_and_floats(tmp_path):
    path = tmp_path / "x.bin"
    write_binary(path, b"TEST", 3, (2, 7), {"k": [1]}, [np.array([1.0, 2.0])])
    with BinaryReader(path, b"TEST", 3, n_fields=2, has_doc=True) as reader:
        assert reader.fields == [2, 7]
        assert reader.doc == {"k": [1]}
        assert reader.floats(2, "values").tolist() == [1.0, 2.0]
        reader.end()
    with pytest.raises(FileFormatError) as e:
        BinaryReader(path, b"TEST", 4, n_fields=2, has_doc=True)
    assert e.value.offset == 4


def test_binary_reader_reads_from_where_its_offset_is_set(tmp_path):
    path = tmp_path / "x.bin"
    write_binary(path, b"TEST", 1, (4,), arrays=[np.arange(4.0)])
    with BinaryReader(path, b"TEST", 1, n_fields=1) as reader:
        payload_at = reader.offset
        reader.offset = payload_at + 8
        assert reader.floats(2, "values").tolist() == [2.0, 3.0]
        reader.offset = payload_at
        assert reader.floats(1, "values").tolist() == [0.0]
        with pytest.raises(FileFormatError, match="truncated values") as e:
            reader.floats(4, "values")
        assert e.value.offset == payload_at + 16


def test_binary_reader_rejects_trailing_bytes_at_their_offset(tmp_path):
    path = tmp_path / "x.bin"
    write_binary(path, b"TEST", 1, (1,), arrays=[np.ones(1)])
    path.write_bytes(path.read_bytes() + b"\0")
    with BinaryReader(path, b"TEST", 1, n_fields=1) as reader:
        reader.floats(1, "values")
        with pytest.raises(FileFormatError, match="1 trailing bytes") as e:
            reader.end()
    assert e.value.offset == 14


def test_a_write_that_raises_mid_payload_keeps_the_old_bytes(tmp_path):
    path = tmp_path / "x.bin"
    write_binary(path, b"TEST", 1, (2,), arrays=[np.ones(2)])
    old = path.read_bytes()

    def arrays():
        yield np.zeros(1)
        raise RuntimeError("mid-payload")

    with pytest.raises(RuntimeError, match="mid-payload"):
        write_binary(path, b"TEST", 1, (2,), arrays=arrays())
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


def test_a_text_write_that_cannot_land_leaves_no_temporary_file(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        write_text(tmp_path / "taken", "a\n")  # the rename cannot replace a directory
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    write_text(tmp_path / "x.txt", "old\n")
    write_text(tmp_path / "x.txt", "new\n")
    assert (tmp_path / "x.txt").read_bytes() == b"new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "x.txt"]
