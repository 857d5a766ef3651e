"""Command-line pipeline: corpus -> units -> tokens -> models -> eval/search.

Every command reads one config document, honors a single seed, writes its
artifacts plus the resolved config and a run log into --out, and exits
nonzero with a one-line machine-parsable error on failure.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .config import PipelineConfig, default_config, load_config
from .corpus import (
    PairCandidates,
    SyntheticSpec,
    build_scored_pairs,
    generate_corpus,
    load_corpus,
    load_scored_pairs,
    read_features,
    save_corpus,
    save_scored_pairs,
)
from .distill import DistillConfig, StudentModel, distill_train, save_paired_manifest
from .errors import SemspeechError, ValidationError
from .evaluation import evaluate, save_pair_predictions, save_report
from .fileformat import write_csv, write_text
from .index import build_index, load_index, save_index, search
from .nn import checkpoint
from .nn.layers import EncoderConfig
from .quantizer import (
    load_unit_corpus,
    quantize_corpus,
    save_unit_corpus,
    train_kmeans,
    write_codebook,
)
from .teachers import (
    SequenceEncoder,
    Teacher,
    TeacherConfig,
    mlm_pretrain,
    train_simcse,
    train_tsdae,
)
from .tokenizer import (
    N_SPECIALS,
    load_bpe_model,
    load_token_corpus,
    save_bpe_model,
    save_token_corpus,
    train_bpe,
    wrap_units,
)
from .tokenizer import encode as bpe_encode
from .wavembed import TrainRunConfig, WavEmbedModel, save_loss_curve, train_wavembed

logger = logging.getLogger("semspeech")


def _encoder_config(cfg: PipelineConfig) -> EncoderConfig:
    return EncoderConfig(
        layers=cfg["encoder.layers"],
        model_dim=cfg["encoder.model_dim"],
        heads=cfg["encoder.heads"],
        ff_dim=cfg["encoder.ff_dim"],
        dropout_rate=cfg["encoder.dropout"],
        max_positions=cfg["encoder.max_positions"],
    )


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_embedder(path: str | Path):
    """A model that embeds feature sequences: WavEmbed or the student."""
    return checkpoint.load(path, WavEmbedModel, StudentModel)


def _load_targets(args, cfg: PipelineConfig):
    """Target sequences for reconstruction/distillation, keyed by utterance id.

    Either raw unit sequences wrapped into token form (vocab = clusters +
    specials) or a BPE token corpus (vocab from its model file).
    """
    if args.units and args.tokens:
        raise ValidationError("pass --units or --tokens, not both", field="targets")
    if args.units:
        alphabet = cfg["quantizer.clusters"]
        units = load_unit_corpus(args.units)
        targets = {u.source_id: wrap_units(u, alphabet) for u in units}
        return targets, alphabet + N_SPECIALS
    if args.tokens:
        if not args.bpe:
            raise ValidationError("--tokens requires --bpe for the vocabulary", field="bpe")
        model = load_bpe_model(args.bpe)
        seqs = load_token_corpus(args.tokens)
        return {s.source_id: s for s in seqs}, model.vocab_size
    raise ValidationError("one of --units or --tokens is required", field="targets")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def cmd_gen_corpus(cfg: PipelineConfig, args, out: Path) -> None:
    spec = SyntheticSpec(
        alphabet_size=cfg["corpus.alphabet_size"],
        feature_dim=cfg["corpus.feature_dim"],
        frames_per_symbol_range=(
            cfg["corpus.frames_per_symbol_min"],
            cfg["corpus.frames_per_symbol_max"],
        ),
        n_speakers=cfg["corpus.n_speakers"],
        speaker_offset_scale=cfg["corpus.speaker_offset_scale"],
        noise_scale=cfg["corpus.noise_scale"],
        utterance_len_range=(
            cfg["corpus.utterance_len_min"],
            cfg["corpus.utterance_len_max"],
        ),
        n_utterances=cfg["corpus.n_utterances"],
        max_frames=cfg["corpus.max_frames"],
        seed=cfg["run.seed"],
    )
    corpus = generate_corpus(spec)
    # both pair sets are built, and so checked, before anything is written;
    # they draw from one scoring of the candidates where they share them
    candidates = PairCandidates()
    pair_sets = {
        split: build_scored_pairs(
            corpus, n_pairs, seed=cfg["run.seed"], split=split, candidates=candidates
        )
        for split, n_pairs in (("dev", cfg["pairs.n_dev"]), ("test", cfg["pairs.n_test"]))
    }
    corpus_dir = save_corpus(corpus, out / "corpus")
    logger.info("wrote %d utterances to %s", len(corpus), corpus_dir)
    for split, pairs in pair_sets.items():
        path = out / f"pairs.{split}.tsv"
        save_scored_pairs(pairs, path)
        logger.info("wrote %d %s pairs to %s", len(pairs), split, path)


def cmd_quantize(cfg: PipelineConfig, args, out: Path) -> None:
    corpus = load_corpus(args.corpus)
    # float64 from the start, so k-means makes no copy of its own
    frames = np.concatenate([u.features.data for u in corpus], axis=0, dtype=np.float64)
    cap = cfg["quantizer.max_training_frames"] or None
    codebook = train_kmeans(
        frames,
        k=cfg["quantizer.clusters"],
        max_iters=cfg["quantizer.max_iters"],
        tol=cfg["quantizer.tol"],
        seed=cfg["run.seed"],
        max_training_frames=cap,
    )
    write_codebook(out / "codebook.semk", codebook)
    units = quantize_corpus(corpus, codebook)
    save_unit_corpus(units, out / "units.tsv")
    mean_len = float(np.mean([len(u.units) for u in units]))
    logger.info(
        "k=%d over %d frames; %d unit sequences, mean length %.1f",
        cfg["quantizer.clusters"], frames.shape[0], len(units), mean_len,
    )


def cmd_tokenize(cfg: PipelineConfig, args, out: Path) -> None:
    units = load_unit_corpus(args.units)
    model = train_bpe(units, vocab_size=cfg["tokenizer.vocab_size"])
    save_bpe_model(model, out / "bpe.json")
    tokens = [bpe_encode(u, model) for u in units]
    save_token_corpus(tokens, out / "tokens.tsv")
    mean_len = float(np.mean([len(t.tokens) for t in tokens]))
    logger.info(
        "vocab %d (%d merges); %d token sequences, mean length %.1f",
        model.vocab_size, len(model.merges), len(tokens), mean_len,
    )


def cmd_pretrain_mlm(cfg: PipelineConfig, args, out: Path) -> None:
    seqs = load_token_corpus(args.tokens)
    model = load_bpe_model(args.bpe)
    encoder = SequenceEncoder.create(
        vocab=model.vocab_size,
        cfg=_encoder_config(cfg),
        seed=cfg["run.seed"],
    )
    history = mlm_pretrain(
        encoder,
        seqs,
        mask_rate=cfg["mlm.mask_rate"],
        steps=cfg["mlm.steps"],
        seed=cfg["run.seed"],
        lr=cfg["mlm.lr"],
        batch_size=cfg["mlm.batch_size"],
    )
    encoder.save(out / "encoder-mlm.semm")
    write_csv(out / "mlm_loss.csv", ["step", "loss"], enumerate(history, start=1))
    logger.info("%d steps; final loss %.4f", len(history), history[-1])


def cmd_train_wavembed(cfg: PipelineConfig, args, out: Path) -> None:
    corpus = load_corpus(args.corpus)
    targets, vocab = _load_targets(args, cfg)
    model = WavEmbedModel.create(
        d_in=corpus.utterances[0].features.dim,
        vocab=vocab,
        encoder_cfg=_encoder_config(cfg),
        seed=cfg["run.seed"],
    )
    run_cfg = TrainRunConfig(
        epochs=cfg["wavembed.epochs"],
        lr=cfg["wavembed.lr"],
        batch_size=cfg["wavembed.batch_size"],
        seed=cfg["run.seed"],
        weight_decay=cfg["wavembed.weight_decay"],
        dev_fraction=cfg["wavembed.dev_fraction"],
    )
    curve = train_wavembed(model, corpus, targets, run_cfg)
    model.save(out / "wavembed.semm")
    save_loss_curve(out / "wavembed_curve.csv", curve)
    best = min(p.dev_loss for p in curve)
    logger.info("%d curve points; best dev loss %.4f", len(curve), best)


def cmd_train_teacher(cfg: PipelineConfig, args, out: Path) -> None:
    if args.kind == "mlm" and not args.base:
        # an mlm teacher is the pretrain-mlm encoder; this stage trains nothing
        raise ValidationError(
            "an mlm teacher needs --base, the pretrain-mlm encoder", field="base"
        )
    seqs = load_token_corpus(args.tokens)
    if args.base:
        encoder = SequenceEncoder.load(args.base)
    else:
        if not args.bpe:
            raise ValidationError(
                "a fresh teacher needs --bpe for the vocabulary (or pass --base)",
                field="bpe",
            )
        encoder = SequenceEncoder.create(
            vocab=load_bpe_model(args.bpe).vocab_size,
            cfg=_encoder_config(cfg),
            seed=cfg["run.seed"],
        )
    if args.kind == "mlm":
        teacher = Teacher(encoder=encoder, kind="mlm")
    elif args.kind == "tsdae":
        tcfg = TeacherConfig(
            deletion_ratio=cfg["tsdae.deletion_ratio"],
            epochs=cfg["tsdae.epochs"],
            lr=cfg["tsdae.lr"],
            batch_size=cfg["tsdae.batch_size"],
            dev_fraction=cfg["tsdae.dev_fraction"],
            seed=cfg["run.seed"],
        )
        teacher, curve = train_tsdae(encoder, seqs, tcfg)
        save_loss_curve(out / "tsdae_curve.csv", curve)
        logger.info("best dev loss %.4f", min(p.dev_loss for p in curve))
    else:  # simcse
        if not args.pairs:
            raise ValidationError("simcse needs --pairs for dev evaluation", field="pairs")
        dev_pairs = load_scored_pairs(args.pairs, split="dev")
        tcfg = TeacherConfig(
            dropout_rate=cfg["simcse.dropout"],
            tau=cfg["simcse.tau"],
            lr=cfg["simcse.lr"],
            batch_size=cfg["simcse.batch_size"],
            epochs=cfg["simcse.epochs"],
            patience=cfg["simcse.patience"],
            eval_every_steps=cfg["simcse.eval_every_steps"],
            seed=cfg["run.seed"],
        )
        teacher, history = train_simcse(encoder, seqs, tcfg, dev_pairs)
        write_csv(out / "simcse_history.csv", ["step", "dev_spearman"], history)
        logger.info("best dev spearman %.4f", max(v for _, v in history))
    teacher.save(out / "teacher.semm")
    logger.info("saved %s teacher", args.kind)


def cmd_distill(cfg: PipelineConfig, args, out: Path) -> None:
    corpus = load_corpus(args.corpus)
    targets, _vocab = _load_targets(args, cfg)
    teacher = Teacher.load(args.teacher)
    dev_pairs = load_scored_pairs(args.pairs, split="dev")
    student = StudentModel.create(
        d_in=corpus.utterances[0].features.dim,
        cfg=_encoder_config(cfg),
        pooling=cfg["distill.pooling"],
        seed=cfg["run.seed"],
    )
    dcfg = DistillConfig(
        loss=cfg["distill.loss"],
        tau=cfg["distill.tau"],
        batch_size=cfg["distill.batch_size"],
        lr=cfg["distill.lr"],
        epochs=cfg["distill.epochs"],
        seed=cfg["run.seed"],
        bank_capacity=cfg["distill.bank_capacity"],
        weight_decay=cfg["distill.weight_decay"],
    )
    history, info = distill_train(student, teacher, corpus, targets, dcfg, dev_pairs)
    student.save(out / "student.semm")
    write_csv(out / "distill_history.csv", ["step", "dev_spearman"], history)
    line_of = {utt_id: i for i, utt_id in enumerate(targets)}
    save_paired_manifest(
        [(u.id, line_of[u.id]) for u in corpus], out / "paired.tsv"
    )
    logger.info(
        "best dev spearman %.4f; teacher cosine %.3f -> %.3f",
        info["best_dev_spearman"], info["cosine_start"], info["cosine_best"],
    )


def cmd_evaluate(cfg: PipelineConfig, args, out: Path) -> None:
    model = _load_embedder(args.model)
    pairs = load_scored_pairs(args.pairs, split="test")
    scored = {utt_id for a, b, _ in pairs.pairs for utt_id in (a, b)}
    corpus = load_corpus(args.corpus, ids=scored)
    report = evaluate(
        model.embed_batch,
        pairs,
        {u.id: u.features for u in corpus},
        pos_threshold=cfg["eval.pos_threshold"],
        metadata={"model_kind": model.KIND, "checkpoint_sha256": _sha256(args.model)},
    )
    save_report(report, out / "report.json")
    save_pair_predictions(report, out / "per_pair.tsv")
    summary = (
        f"spearman={report.spearman:.4f} alignment={report.alignment:.4f} "
        f"uniformity={report.uniformity:.4f} n_pairs={report.n_pairs}"
    )
    logger.info("%s", summary)
    print(summary)


def cmd_build_index(cfg: PipelineConfig, args, out: Path) -> None:
    model = _load_embedder(args.model)
    corpus = load_corpus(args.corpus)
    index = build_index(
        model.embed_batch,
        corpus,
        metadata={"model_kind": model.KIND, "checkpoint_sha256": _sha256(args.model)},
    )
    save_index(index, out / "index.semi")
    logger.info("indexed %d embeddings of dim %d", len(index), index.dim)


def cmd_search(cfg: PipelineConfig, args, out: Path) -> None:
    index = load_index(args.index)
    if (args.query_id is None) == (args.query_features is None):
        raise ValidationError(
            "exactly one of --query-id or --query-features is required", field="query"
        )
    if args.query_id is not None:
        query = args.query_id
    else:
        if not args.model:
            raise ValidationError(
                "--query-features needs --model to embed them", field="model"
            )
        model = _load_embedder(args.model)
        query = model.embed(read_features(args.query_features))
    results = search(index, query, k=args.k)
    lines = [f"{utt_id}\t{score:.6f}" for utt_id, score in results]
    write_text(out / "results.tsv", "\n".join(lines) + "\n")
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------

COMMANDS = {
    "gen-corpus": cmd_gen_corpus,
    "quantize": cmd_quantize,
    "tokenize": cmd_tokenize,
    "pretrain-mlm": cmd_pretrain_mlm,
    "train-wavembed": cmd_train_wavembed,
    "train-teacher": cmd_train_teacher,
    "distill": cmd_distill,
    "evaluate": cmd_evaluate,
    "build-index": cmd_build_index,
    "search": cmd_search,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config file (defaults apply if omitted)")
    common.add_argument("--seed", type=int, help="override the configured seed")
    common.add_argument("--out", required=True, help="output directory")

    parser = argparse.ArgumentParser(prog="semspeech", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-corpus", parents=[common])

    p = sub.add_parser("quantize", parents=[common])
    p.add_argument("--corpus", required=True)

    p = sub.add_parser("tokenize", parents=[common])
    p.add_argument("--units", required=True)

    p = sub.add_parser("pretrain-mlm", parents=[common])
    p.add_argument("--tokens", required=True)
    p.add_argument("--bpe", required=True)

    p = sub.add_parser("train-wavembed", parents=[common])
    p.add_argument("--corpus", required=True)
    p.add_argument("--units")
    p.add_argument("--tokens")
    p.add_argument("--bpe")

    p = sub.add_parser("train-teacher", parents=[common])
    p.add_argument("--tokens", required=True)
    p.add_argument("--kind", required=True, choices=["mlm", "tsdae", "simcse"])
    p.add_argument("--base", help="seq-encoder checkpoint to start from")
    p.add_argument("--bpe", help="BPE model file, for a freshly initialized teacher")
    p.add_argument("--pairs", help="dev pair file (simcse)")

    p = sub.add_parser("distill", parents=[common])
    p.add_argument("--corpus", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--units")
    p.add_argument("--tokens")
    p.add_argument("--bpe")

    p = sub.add_parser("evaluate", parents=[common])
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--pairs", required=True)

    p = sub.add_parser("build-index", parents=[common])
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)

    p = sub.add_parser("search", parents=[common])
    p.add_argument("--index", required=True)
    p.add_argument("--query-id")
    p.add_argument("--query-features", help="SEMF file; embedded with --model")
    p.add_argument("--model")
    p.add_argument("-k", type=int, default=10)

    return parser


def _error_line(e: Exception) -> str:
    return f"error\t{type(e).__name__}\t{e}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    command_slug = args.command.replace("-", "_")
    try:
        out.mkdir(parents=True, exist_ok=True)
        file_handler = logging.FileHandler(
            out / f"{command_slug}.log", mode="w", encoding="utf-8"
        )
    except OSError as e:
        # no log file yet, so the error line goes to stderr alone
        print(_error_line(e), file=sys.stderr)
        return 1
    file_handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)s %(message)s")
    )
    stream_handler = logging.StreamHandler(sys.stderr)
    stream_handler.setFormatter(logging.Formatter("%(message)s"))
    root = logging.getLogger("semspeech")
    root.setLevel(logging.INFO)
    root.addHandler(file_handler)
    root.addHandler(stream_handler)

    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            cfg.set("run.seed", args.seed)
        cfg.write(out / f"{command_slug}.config.txt")
        logger.info("%s starting (seed %d)", args.command, cfg["run.seed"])
        start = time.perf_counter()
        COMMANDS[args.command](cfg, args, out)
        logger.info("%s finished in %.1fs", args.command, time.perf_counter() - start)
        return 0
    except (SemspeechError, OSError) as e:
        # the stream handler puts the line on stderr, the file handler in the log
        logger.error("%s", _error_line(e))
        return 1
    finally:
        root.removeHandler(file_handler)
        root.removeHandler(stream_handler)
        file_handler.close()


if __name__ == "__main__":
    sys.exit(main())
