"""End-to-end command-line pipeline on a toy configuration."""

import json
import shutil
import struct

import numpy as np
import pytest

from semspeech.cli import build_parser, cmd_train_teacher, main
from semspeech.config import default_config
from damage import poison_frame
import semspeech.cli as cli_module
from semspeech.corpus import build_scored_pairs, load_corpus, save_scored_pairs, write_features
from semspeech.errors import ValidationError
from semspeech.evaluation import load_report
from semspeech.index import load_index
from semspeech.nn.checkpoint import load_checkpoint
from semspeech.nn.layers import EncoderConfig
from semspeech.wavembed import WavEmbedModel

TOY_CONFIG = """\
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

[simcse]
epochs = 1
batch_size = 8
eval_every_steps = 5

[distill]
epochs = 1
batch_size = 8
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole toy pipeline once; tests inspect its artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "toy.cfg"
    cfg.write_text(TOY_CONFIG)
    c = str(cfg)

    def run(*argv):
        rc = main(list(argv))
        assert rc == 0, f"command failed: {argv}"

    data = root / "data"
    run("gen-corpus", "--config", c, "--out", str(data))
    run("quantize", "--config", c, "--out", str(data), "--corpus", str(data / "corpus"))
    run("tokenize", "--config", c, "--out", str(data), "--units", str(data / "units.tsv"))
    run(
        "pretrain-mlm", "--config", c, "--out", str(data),
        "--tokens", str(data / "tokens.tsv"), "--bpe", str(data / "bpe.json"),
    )
    teacher_dir = root / "teacher"
    run(
        "train-teacher", "--config", c, "--out", str(teacher_dir),
        "--tokens", str(data / "tokens.tsv"), "--kind", "tsdae",
        "--base", str(data / "encoder-mlm.semm"),
    )
    wav_dir = root / "wavembed"
    run(
        "train-wavembed", "--config", c, "--out", str(wav_dir),
        "--corpus", str(data / "corpus"), "--units", str(data / "units.tsv"),
    )
    student_dir = root / "student"
    run(
        "distill", "--config", c, "--out", str(student_dir),
        "--corpus", str(data / "corpus"), "--tokens", str(data / "tokens.tsv"),
        "--bpe", str(data / "bpe.json"), "--teacher", str(teacher_dir / "teacher.semm"),
        "--pairs", str(data / "pairs.dev.tsv"),
    )
    index_dir = root / "index"
    run(
        "build-index", "--config", c, "--out", str(index_dir),
        "--model", str(student_dir / "student.semm"), "--corpus", str(data / "corpus"),
    )
    return root, c


def test_gen_corpus_artifacts(pipeline):
    root, _ = pipeline
    data = root / "data"
    corpus = load_corpus(data / "corpus")
    assert len(corpus) == 60
    assert (data / "pairs.dev.tsv").is_file()
    assert (data / "pairs.test.tsv").is_file()
    assert (data / "gen_corpus.config.txt").is_file()
    assert (data / "gen_corpus.log").is_file()


def test_gen_corpus_checks_the_pair_counts_before_writing(tmp_path, capsys):
    cfg = tmp_path / "few.cfg"
    cfg.write_text("[corpus]\nn_utterances = 30\n\n[pairs]\nn_dev = 5\n")
    out = tmp_path / "o"
    rc = main(["gen-corpus", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1 and errors[0].startswith("error\tValidationError\t")
    assert not (out / "corpus" / "manifest.jsonl").exists()
    assert not list(out.glob("pairs.*.tsv"))


def _gen_corpus_pairs(tmp_path, n_utterances, n_dev, n_test):
    """gen-corpus's dev and test pair files, and those of two independent
    build_scored_pairs calls over the corpus it wrote (seed 0)."""
    cfg = tmp_path / "pairs.cfg"
    cfg.write_text(
        f"[corpus]\nn_utterances = {n_utterances}\n\n"
        f"[pairs]\nn_dev = {n_dev}\nn_test = {n_test}\n"
    )
    out = tmp_path / "o"
    assert main(["gen-corpus", "--config", str(cfg), "--out", str(out)]) == 0
    corpus = load_corpus(out / "corpus")
    got, expected = {}, {}
    for split, n_pairs in (("dev", n_dev), ("test", n_test)):
        got[split] = (out / f"pairs.{split}.tsv").read_bytes()
        oracle = tmp_path / f"oracle.{split}.tsv"
        save_scored_pairs(cli_module.build_scored_pairs(corpus, n_pairs, 0, split), oracle)
        expected[split] = oracle.read_bytes()
    return got, expected


def test_gen_corpus_pairs_equal_independent_calls_when_bins_borrow(tmp_path):
    # the corpus of test_scored_pairs_borrowing_matches_reference: its 780
    # pairs put 8 in the top score bin, so a dev quota of 10 borrows 2
    got, expected = _gen_corpus_pairs(tmp_path, n_utterances=40, n_dev=100, n_test=80)
    assert got == expected
    scores = [float(line.split("\t")[2]) for line in got["dev"].decode().splitlines()[1:]]
    assert sum(s >= 4.5 for s in scores) == 8


def test_gen_corpus_pairs_equal_independent_calls_when_candidates_are_sampled(
    tmp_path, monkeypatch
):
    # 6000 of the 11175 pairs of 150 utterances: each split samples its own
    real = build_scored_pairs
    monkeypatch.setattr(
        cli_module, "build_scored_pairs",
        lambda *args, **kwargs: real(*args, max_candidates=6000, **kwargs),
    )
    got, expected = _gen_corpus_pairs(tmp_path, n_utterances=150, n_dev=60, n_test=40)
    assert got == expected


def test_gen_corpus_empty_score_bin_exits_before_writing(tmp_path, capsys):
    # one symbol per utterance from two: every pair scores 0 or 5
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(
        "[corpus]\nn_utterances = 40\nalphabet_size = 2\n"
        "utterance_len_min = 1\nutterance_len_max = 1\n\n[pairs]\nn_dev = 10\nn_test = 20\n"
    )
    out = tmp_path / "o"
    rc = main(["gen-corpus", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1 and errors[0].startswith("error\tPairBinningError\tscore bin ")
    assert not (out / "corpus").exists()
    assert not list(out.glob("pairs.*.tsv"))


def test_quantize_and_tokenize_artifacts(pipeline):
    root, _ = pipeline
    data = root / "data"
    assert (data / "codebook.semk").is_file()
    units = (data / "units.tsv").read_text().splitlines()
    assert len(units) == 60
    assert (data / "bpe.json").is_file()
    tokens = (data / "tokens.tsv").read_text().splitlines()
    assert len(tokens) == 60


def test_training_artifacts(pipeline):
    root, _ = pipeline
    assert (root / "data" / "encoder-mlm.semm").is_file()
    assert (root / "data" / "mlm_loss.csv").is_file()
    assert (root / "teacher" / "teacher.semm").is_file()
    assert (root / "teacher" / "tsdae_curve.csv").is_file()
    assert (root / "wavembed" / "wavembed.semm").is_file()
    assert (root / "wavembed" / "wavembed_curve.csv").is_file()
    assert (root / "student" / "student.semm").is_file()
    assert (root / "student" / "distill_history.csv").is_file()
    paired = (root / "student" / "paired.tsv").read_text().splitlines()
    assert len(paired) == 60


def test_mlm_encoder_checkpoint_holds_no_prediction_head(pipeline):
    root, _ = pipeline
    kind, config, params = load_checkpoint(root / "data" / "encoder-mlm.semm")
    assert kind == "seq-encoder" and "pooling" not in config
    assert params and not any(name.startswith("mlm.") for name in params)


def test_evaluate_writes_report(pipeline, capsys):
    root, c = pipeline
    out = root / "eval-wavembed"
    rc = main([
        "evaluate", "--config", c, "--out", str(out),
        "--model", str(root / "wavembed" / "wavembed.semm"),
        "--corpus", str(root / "data" / "corpus"),
        "--pairs", str(root / "data" / "pairs.test.tsv"),
    ])
    assert rc == 0
    assert "spearman=" in capsys.readouterr().out
    report = load_report(out / "report.json")
    assert report.n_pairs == 20
    assert -1.0 <= report.spearman <= 1.0
    assert report.metadata["model_kind"] == "wavembed"
    per_pair = (out / "per_pair.tsv").read_text().splitlines()
    assert len(per_pair) == 21  # header + rows


@pytest.mark.parametrize("scored", [True, False], ids=["scored", "unscored"])
def test_evaluate_reads_only_the_scored_feature_files(pipeline, tmp_path, capsys, scored):
    root, c = pipeline
    data = root / "data"
    pairs = (data / "pairs.test.tsv").read_text().splitlines()[1:]
    in_pairs = {utt_id for line in pairs for utt_id in line.split("\t")[:2]}
    ids = [u.id for u in load_corpus(data / "corpus")]
    damaged = next(i for i in ids if (i in in_pairs) == scored)
    corpus = tmp_path / "corpus"
    shutil.copytree(data / "corpus", corpus)
    offset = poison_frame(corpus, damaged)

    def evaluate(corpus_dir, out):
        return main([
            "evaluate", "--config", c, "--out", str(out),
            "--model", str(root / "wavembed" / "wavembed.semm"),
            "--corpus", str(corpus_dir), "--pairs", str(data / "pairs.test.tsv"),
        ])

    rc = evaluate(corpus, tmp_path / "o")
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    if scored:
        assert rc == 1
        assert len(errors) == 1 and errors[0].startswith("error\tFileFormatError\t")
        assert errors[0].endswith(f"non-finite value in frames of {damaged!r} (byte offset {offset})")
    else:
        assert rc == 0 and not errors
        assert evaluate(data / "corpus", tmp_path / "ref") == 0
        for name in ("report.json", "per_pair.tsv"):
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_index_and_search(pipeline, capsys):
    root, c = pipeline
    out = root / "index"
    index = load_index(out / "index.semi")
    assert len(index) == 60
    assert index.metadata["model_kind"] == "student"
    probe = index.ids[7]
    rc = main([
        "search", "--config", c, "--out", str(out),
        "--index", str(out / "index.semi"), "--query-id", probe, "-k", "5",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    top_id, top_score = lines[0].split("\t")
    assert top_id == probe
    assert abs(float(top_score) - 1.0) < 1e-5
    assert (out / "results.tsv").read_text().strip().splitlines() == lines


def test_search_by_features_matches_self(pipeline, tmp_path, capsys):
    root, c = pipeline
    out = root / "index"
    corpus = load_corpus(root / "data" / "corpus")
    probe = corpus.utterances[3]
    query = tmp_path / f"{probe.id}.semf"
    write_features(query, probe.features)
    rc = main([
        "search", "--config", c, "--out", str(out),
        "--index", str(out / "index.semi"),
        "--query-features", str(query),
        "--model", str(root / "student" / "student.semm"),
        "-k", "1",
    ])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.split("\t")[0] == probe.id


def test_rerun_is_byte_identical(pipeline, tmp_path):
    root, c = pipeline
    again = tmp_path / "again"
    assert main(["gen-corpus", "--config", c, "--out", str(again)]) == 0
    assert main([
        "quantize", "--config", c, "--out", str(again), "--corpus", str(again / "corpus"),
    ]) == 0
    data = root / "data"
    for rel in (
        "corpus/manifest.jsonl",
        "corpus/features.semf",
        "pairs.dev.tsv",
        "pairs.test.tsv",
        "codebook.semk",
        "units.tsv",
    ):
        assert (again / rel).read_bytes() == (data / rel).read_bytes(), rel


def test_seed_flag_changes_outputs(pipeline, tmp_path):
    _, c = pipeline
    out = tmp_path / "seeded"
    assert main(["gen-corpus", "--config", c, "--seed", "9", "--out", str(out)]) == 0
    assert "seed = 9" in (out / "gen_corpus.config.txt").read_text()
    base = load_corpus(out / "corpus")
    assert len(base) == 60


def test_invalid_config_key_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[quantizer]\nclusterz = 8\n")
    rc = main(["gen-corpus", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("error\t")
    assert "quantizer.clusterz" in err


def test_config_setting_the_decoder_conditioning_exits_with_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("[wavembed]\ncondition_mode = memory\n")
    rc = main(["gen-corpus", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == ["error\tConfigError\tunknown config key 'wavembed.condition_mode'"]


@pytest.mark.parametrize("stage", ["quantize", "train-wavembed", "distill"])
def test_empty_manifest_exits_with_one_line_error(pipeline, tmp_path, capsys, stage):
    root, c = pipeline
    data = root / "data"
    empty = tmp_path / "corpus"
    empty.mkdir()
    (empty / "manifest.jsonl").write_text("\n")
    inputs = {
        "quantize": [],
        "train-wavembed": ["--units", str(data / "units.tsv")],
        "distill": [
            "--units", str(data / "units.tsv"), "--pairs", str(data / "pairs.dev.tsv"),
            "--teacher", str(root / "teacher" / "teacher.semm"),
        ],
    }[stage]
    rc = main([stage, "--config", c, "--out", str(tmp_path / "o"), "--corpus", str(empty), *inputs])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1
    assert errors[0].startswith("error\tFileFormatError\t") and "lists no utterances" in errors[0]


def test_manifest_rows_past_the_archive_exit_with_one_line_error(pipeline, tmp_path, capsys):
    root, c = pipeline
    corpus = tmp_path / "corpus"
    shutil.copytree(root / "data" / "corpus", corpus)
    recs = [json.loads(line) for line in (corpus / "manifest.jsonl").read_text().splitlines()]
    total = recs[-1]["rows"][1]
    recs[5]["rows"] = [total - 2, total + 3]
    (corpus / "manifest.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs))
    rc = main(["quantize", "--config", c, "--out", str(tmp_path / "o"), "--corpus", str(corpus)])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1
    assert errors[0].startswith("error\tFileFormatError\tmanifest line 6 rows ")
    assert f"of the {total} frames in features.semf" in errors[0]
    assert not (tmp_path / "o" / "units.tsv").exists()


def test_repeated_unit_id_exits_with_one_line_error(pipeline, tmp_path, capsys):
    root, c = pipeline
    lines = (root / "data" / "units.tsv").read_text().splitlines(keepends=True)
    first_id = lines[0].split("\t")[0]
    units = tmp_path / "units.tsv"
    units.write_text("".join(lines[:3] + lines[:1] + lines[3:]))
    out = tmp_path / "o"
    rc = main(["tokenize", "--config", c, "--out", str(out), "--units", str(units)])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == [f"error\tFileFormatError\t{units} lines 1 and 4: repeated id {first_id!r}"]
    assert not (out / "tokens.tsv").exists()


@pytest.mark.parametrize("knob", ["batch_size = 0", "lr = -0.0005"])
def test_mlm_knob_out_of_range_exits_with_one_line_error(pipeline, tmp_path, capsys, knob):
    root, _ = pipeline
    data = root / "data"
    cfg = tmp_path / "mlm.cfg"
    cfg.write_text(f"[mlm]\nsteps = 3\n{knob}\n")
    out = tmp_path / "o"
    rc = main([
        "pretrain-mlm", "--config", str(cfg), "--out", str(out),
        "--tokens", str(data / "tokens.tsv"), "--bpe", str(data / "bpe.json"),
    ])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1 and errors[0].startswith("error\tValidationError\t")
    assert not list(out.glob("*.semm"))


@pytest.mark.parametrize(
    "section, key, raw",
    [("distill", "tau", "inf"), ("mlm", "lr", "inf"), ("wavembed", "lr", "nan"),
     ("eval", "pos_threshold", "nan")],
)
def test_non_finite_setting_exits_with_one_line_error(
    pipeline, tmp_path, capsys, section, key, raw
):
    root, _ = pipeline
    data = root / "data"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{key} = {raw}\n")
    out = tmp_path / "o"
    rc = main([
        "pretrain-mlm", "--config", str(cfg), "--out", str(out),
        "--tokens", str(data / "tokens.tsv"), "--bpe", str(data / "bpe.json"),
    ])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == [
        f"error\tConfigError\tvalue {raw!r} for key '{section}.{key}' is not a finite float"
    ]
    assert [p.name for p in out.iterdir()] == ["pretrain_mlm.log"]


def test_negative_kmeans_frame_budget_exits_with_one_line_error(pipeline, tmp_path, capsys):
    root, _ = pipeline
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("[quantizer]\nclusters = 8\nmax_training_frames = -3\n")
    rc = main([
        "quantize", "--config", str(cfg), "--out", str(tmp_path / "o"),
        "--corpus", str(root / "data" / "corpus"),
    ])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == ["error\tValidationError\tmax_training_frames must be >= 1"]


def test_missing_input_exits_with_one_line_error(tmp_path, capsys):
    rc = main([
        "quantize", "--out", str(tmp_path / "o"), "--corpus", str(tmp_path / "nowhere"),
    ])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("error\t")
    assert len(err.splitlines()) == 1


def test_out_naming_a_file_exits_with_one_line_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    rc = main(["gen-corpus", "--out", str(taken)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error\tFileExistsError\t")
    assert len(err.strip().splitlines()) == 1
    assert taken.read_text() == "not a directory\n"


def test_directory_as_input_file_exits_with_one_line_error(pipeline, tmp_path, capsys):
    root, c = pipeline
    rc = main([
        "evaluate", "--config", c, "--out", str(tmp_path / "o"),
        "--model", str(root / "wavembed" / "wavembed.semm"),
        "--corpus", str(root / "data" / "corpus"),
        "--pairs", str(root / "data"),
    ])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("error\tIsADirectoryError\t")


def test_search_rejects_ambiguous_query(pipeline, tmp_path, capsys):
    root, c = pipeline
    rc = main([
        "search", "--config", c, "--out", str(tmp_path / "o"),
        "--index", str(root / "index" / "index.semi"),
        "-k", "1",
    ])
    assert rc == 1
    assert "query" in capsys.readouterr().err


def test_mlm_teacher_without_base_exits_before_building_a_model(pipeline, tmp_path, capsys):
    """An mlm teacher is the pretrained encoder as it stands, so without
    ``--base`` there is nothing to save; a fresh tsdae teacher still runs."""
    root, c = pipeline
    data = root / "data"
    inputs = ["--tokens", str(data / "tokens.tsv"), "--bpe", str(data / "bpe.json")]
    out = tmp_path / "mlm"
    rc = main(["train-teacher", "--config", c, "--out", str(out), "--kind", "mlm", *inputs])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1
    assert errors[0].startswith("error\tValidationError\t") and "--base" in errors[0]
    assert not (out / "teacher.semm").exists()
    args = build_parser().parse_args(["train-teacher", "--out", str(out), "--kind", "mlm", *inputs])
    with pytest.raises(ValidationError) as e:
        cmd_train_teacher(default_config(), args, out)
    assert e.value.field == "base"
    fresh = tmp_path / "tsdae"
    rc = main(["train-teacher", "--config", c, "--out", str(fresh), "--kind", "tsdae", *inputs])
    assert rc == 0 and (fresh / "teacher.semm").is_file()


def test_model_of_another_feature_dim_exits_with_one_line_error(pipeline, tmp_path, capsys):
    root, c = pipeline
    model = tmp_path / "wide.semm"
    cfg = EncoderConfig(layers=1, model_dim=16, heads=2, ff_dim=24)
    WavEmbedModel.create(d_in=16, vocab=13, encoder_cfg=cfg).save(model)
    rc = main([
        "evaluate", "--config", c, "--out", str(tmp_path / "o"), "--model", str(model),
        "--corpus", str(root / "data" / "corpus"), "--pairs", str(root / "data" / "pairs.test.tsv"),
    ])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert errors == ["error\tValidationError\tfeatures have 8 dimensions, the model takes 16"]


def _with_header(blob: bytes, edit) -> bytes:
    """The checkpoint ``blob`` with ``edit`` applied to its JSON header."""
    (n,) = struct.unpack_from("<I", blob, 6)
    header = json.loads(blob[10 : 10 + n])
    edit(header)
    raw = json.dumps(header).encode()
    return blob[:6] + struct.pack("<I", len(raw)) + raw + blob[10 + n :]


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.update(params=7),
        lambda h: h.update(params=[["a"]]),
        lambda h: h["params"][0].__setitem__(1, ["x"]),
        lambda h: h["config"].pop("d_in"),
        lambda h: h["config"]["encoder"].update(depth=3),
    ],
    ids=[
        "params-not-a-list", "entry-without-shape", "shape-not-ints", "no-d_in",
        "unknown-encoder-key",
    ],
)
def test_malformed_checkpoint_header_exits_with_one_line_error(
    pipeline, tmp_path, capsys, edit
):
    root, c = pipeline
    bad = tmp_path / "bad.semm"
    bad.write_bytes(_with_header((root / "student" / "student.semm").read_bytes(), edit))
    rc = main([
        "build-index", "--config", c, "--out", str(tmp_path / "o"),
        "--model", str(bad), "--corpus", str(root / "data" / "corpus"),
    ])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1
    assert errors[0].startswith("error\tFileFormatError\t")
    assert errors[0].endswith("(byte offset 10)")
