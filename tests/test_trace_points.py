"""Every entry point the benchmark traces still exists, and the program's
threads leave its spans well nested.

The traced benchmark wraps functions and methods by name
(``perfbench/layers.py``) and only notes a missing one on stderr, so a
refactor that renames or moves one would silently drop its spans. Its
tracer keeps one span stack for all threads, so a traced entry point
called off the calling thread would break the nesting its smoke test
checks.
"""

import importlib
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from semspeech.cli import main
from semspeech.distill import StudentModel
from semspeech.nn import layers
from semspeech.teachers import SequenceEncoder, Teacher
from semspeech.tokenizer import CLS, SEP
from semspeech.wavembed import EMBED_CHUNK

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    """The benchmark's tracer, installed on every entry point it wraps."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        importlib.import_module("layers").install(tracer)
        yield tracer
    finally:
        tracer.uninstall()


def test_every_benchmark_entry_point_resolves(tracer):
    assert tracer.missing == []


def test_split_encoding_keeps_the_traced_spans_nested(tracer, monkeypatch, tmp_path):
    """Spans nest by the smoke test's rule while embed_batch runs half of
    each chunk on the encoder's worker thread."""
    check_spans = importlib.import_module("test_smoke").check_spans
    monkeypatch.setattr(layers, "WORKERS", 2)
    rng = np.random.default_rng(0)
    frames = [rng.standard_normal((n, 8)) for n in rng.integers(1, 40, size=2 * EMBED_CHUNK + 5)]
    StudentModel.create(d_in=8, pooling="self_attention", seed=1).embed_batch(frames)
    seqs = [[CLS, *rng.integers(5, 30, size=n), SEP] for n in rng.integers(1, 20, size=40)]
    Teacher(SequenceEncoder.create(vocab=30, seed=1), "tsdae").embed_batch(seqs)
    tracer.dump(tmp_path / "spans.json", 0.0)
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert sum(s["name"] == "nn.encode" for s in spans) >= 5  # 3 student, 2 teacher chunks
    check_spans(spans)


def test_traced_gen_corpus_opens_a_pairs_span_per_split(tracer, tmp_path):
    """gen-corpus scores its candidates once for both splits, inside the
    first split's traced build_scored_pairs."""
    cfg = tmp_path / "pairs.cfg"
    cfg.write_text("[corpus]\nn_utterances = 60\n\n[pairs]\nn_dev = 20\nn_test = 30\n")
    assert main(["gen-corpus", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert [s.name for s in tracer.spans if s.name == "corpus.pairs"] == ["corpus.pairs"] * 2


def test_the_unit_stages_start_no_thread(tmp_path):
    cfg = tmp_path / "units.cfg"
    cfg.write_text(
        "[corpus]\nn_utterances = 40\nfeature_dim = 8\n\n[pairs]\nn_dev = 10\nn_test = 10\n\n"
        "[quantizer]\nclusters = 8\n\n[tokenizer]\nvocab_size = 20\n"
    )
    c, out = str(cfg), str(tmp_path)
    threads = threading.active_count()
    assert main(["gen-corpus", "--config", c, "--out", out]) == 0
    assert main(["quantize", "--config", c, "--out", out, "--corpus", str(tmp_path / "corpus")]) == 0
    assert main(["tokenize", "--config", c, "--out", out, "--units", str(tmp_path / "units.tsv")]) == 0
    assert threading.active_count() == threads
