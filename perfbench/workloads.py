"""The three workloads: set-up, one timed pass, and the checks on its outputs.

Every workload drives the program only through ``semspeech.cli.main`` and the
public API. A pass times its operations, then checks their outputs outside
the timed part; a failed check marks its operation failed and the pass goes
on. Calls go through module attributes (``sindex.search``) rather than names
bound here, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
import traceback
from pathlib import Path

import numpy as np

from semspeech import cli
from semspeech import index as sindex
from semspeech.config import parse_config
from semspeech.corpus import (
    Corpus,
    SyntheticSpec,
    build_scored_pairs,
    generate_corpus,
    load_corpus,
    load_scored_pairs,
    save_corpus,
    save_scored_pairs,
)
from semspeech.distill import StudentModel
from semspeech.evaluation import load_report
from semspeech.nn.layers import EncoderConfig
from semspeech.quantizer import load_unit_corpus, read_codebook
from semspeech.teachers import EarlyStopper, SequenceEncoder, Teacher
from semspeech.tokenizer import CLS, N_SPECIALS, decode, encode, load_bpe_model, load_token_corpus
from semspeech.wavembed import WavEmbedModel

from layers import TRAIN_STAGES, percentile

TOP_K = 10
EMBED_TOL = 1e-12  # embed_batch rows against embed rows
SCORE_TOL = 1e-12  # search scores against the float64 scan
INDEX_ROW_TOL = 1e-6  # float32 index rows against normalized float64 embeddings


class PassResult:
    """Timed seconds, stage metrics, artifact hashes and per-op failures."""

    def __init__(self):
        self.wall = 0.0
        self.metrics: dict[str, float] = {}
        self.hashes: dict[str, dict[str, str]] = {}
        self.ops: dict[str, list[str]] = {}

    def attempt(self, op: str) -> None:
        self.ops.setdefault(op, [])

    def check(self, op: str, ok: bool, message: str) -> None:
        if not ok:
            self.ops.setdefault(op, []).append(message)

    @property
    def failed(self) -> list[str]:
        return [op for op, errors in self.ops.items() if errors]


@contextlib.contextmanager
def checking(res: PassResult, op: str):
    """Checks of one op: an exception in them fails the op, not the run."""
    try:
        yield
    except Exception as e:  # a malformed output is a failed check
        res.check(op, False, f"checking {op} raised {e!r}")


def _scope(tracer, name: str, **info):
    return tracer.span(name, **info) if tracer is not None else contextlib.nullcontext()


def artifacts(root: Path) -> list[Path]:
    """Every file under ``root`` except run logs."""
    return [p for p in sorted(root.rglob("*")) if p.is_file() and p.suffix != ".log"]


def run_stage(res: PassResult, tracer, label: str, argv: list[str], out: Path) -> float:
    """Run one CLI stage into ``out``; returns its wall time.

    ``out`` is reused from earlier passes and runs, so every artifact in it
    must have been written by this call.
    """
    res.attempt(label)
    rc = None
    written_after = time.time() - 0.05  # file times may trail the clock a little
    start = time.perf_counter()
    try:
        with _scope(tracer, "cli", stage=label), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--out", str(out)])
    except Exception:  # an op that raises is counted failed; the run goes on
        traceback.print_exc()
    elapsed = time.perf_counter() - start
    res.wall += elapsed
    res.check(label, rc == 0, f"{label} exited with {rc}")
    if rc == 0:
        files = artifacts(out)
        stale = [p.name for p in files if p.stat().st_mtime < written_after]
        res.check(label, not stale, f"{label} left earlier files in place: {stale[:3]}")
        res.hashes[label] = {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files
        }
    return elapsed


def cli_or_raise(argv: list[str], out: Path) -> None:
    """A set-up stage: the workload cannot run if it fails."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"set-up stage {argv[0]} exited with {rc}")


def config_text(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
    return "\n".join(lines) + "\n"


def write_config(path: Path, sections: dict[str, dict[str, object]]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(config_text(sections))
    return path


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _all_finite(rows: list[dict[str, str]]) -> bool:
    return bool(rows) and all(math.isfinite(float(v)) for r in rows for v in r.values())


def _epoch_chunks(n: int, batch: int, min_size: int = 1) -> list[int]:
    """Sizes of the batches one epoch over ``n`` items turns into steps."""
    sizes = [batch] * (n // batch) + ([n % batch] if n % batch else [])
    return [s for s in sizes if s >= min_size]


def _examples(steps: int, epoch: list[int]) -> int:
    """Examples consumed by ``steps`` steps cycling over epochs of ``epoch``."""
    full, rest = divmod(steps, len(epoch))
    return full * sum(epoch) + sum(epoch[:rest])


def _n_train(n: int, dev_fraction: float) -> int:
    n_dev = int(round(dev_fraction * n))
    return n - n_dev if n_dev else n


# ---------------------------------------------------------------------------
# the unit-discovery stages, shared by `units` and the set-up of `train`
# ---------------------------------------------------------------------------

def unit_stage_argv(config: Path, seed: int, d: Path) -> list[tuple[str, list[str], Path]]:
    common = ["--config", str(config), "--seed", str(seed)]
    return [
        ("gen-corpus", ["gen-corpus", *common], d / "gen-corpus"),
        ("quantize", ["quantize", *common, "--corpus", str(d / "gen-corpus" / "corpus")],
         d / "quantize"),
        ("tokenize", ["tokenize", *common, "--units", str(d / "quantize" / "units.tsv")],
         d / "tokenize"),
    ]


def setup_unit_stages(d: Path, config: dict, seed: int) -> Path:
    cfg = write_config(d / "setup.cfg", config)
    for _, argv, out in unit_stage_argv(cfg, seed, d):
        cli_or_raise(argv, out)
    return d


class Units:
    """gen-corpus -> quantize -> tokenize at the default config's scale:
    2000 utterances, k=100, vocab 1000, with a fixed count of Lloyd iterations.

    Set-up runs the same three stages on a small corpus, so imports, lazy
    initialisation and first-call costs stay out of the timed passes.
    """

    def __init__(self, size: str):
        tiny = size == "tiny"
        # tol 0 runs every Lloyd iteration, so each seed does the same k-means work
        self.config = {"corpus": {"n_utterances": 120 if tiny else 2000},
                       "pairs": {"n_dev": 50 if tiny else 200, "n_test": 50 if tiny else 200},
                       "quantizer": {"tol": 0.0, "max_iters": 10 if tiny else 40}}
        self.warmup = {"corpus": {"n_utterances": 120 if tiny else 300},
                       "pairs": {"n_dev": 50, "n_test": 50}}

    def setup(self, d: Path, seed: int):
        setup_unit_stages(d, self.warmup, seed)
        return write_config(d / "units.cfg", self.config)

    def run_pass(self, config: Path, d: Path, seed: int, tracer) -> PassResult:
        res = PassResult()
        elapsed = sum(
            run_stage(res, tracer, label, argv, out)
            for label, argv, out in unit_stage_argv(config, seed, d)
        )
        frames = self._check(res, d)
        res.metrics["units.frames_per_s"] = frames / elapsed
        return res

    def _check(self, res: PassResult, d: Path) -> int:
        """Checks the three stages' outputs; returns the corpus's frame count."""
        n = self.config["corpus"]["n_utterances"]
        if res.failed:
            return 0
        frames = 0
        with checking(res, "gen-corpus"):
            corpus = load_corpus(d / "gen-corpus" / "corpus")
            frames = sum(u.features.n_frames for u in corpus)
            res.check("gen-corpus", len(corpus) == n, f"{len(corpus)} utterances, want {n}")
            for split in ("dev", "test"):
                pairs = load_scored_pairs(d / "gen-corpus" / f"pairs.{split}.tsv", split=split)
                want = self.config["pairs"][f"n_{split}"]
                res.check("gen-corpus", len(pairs) == want, f"{len(pairs)} {split} pairs")
        units = []
        with checking(res, "quantize"):
            k = read_codebook(d / "quantize" / "codebook.semk").k
            units = load_unit_corpus(d / "quantize" / "units.tsv")
            res.check("quantize", len(units) == n, f"{len(units)} unit sequences, want {n}")
            res.check("quantize", all(0 <= x < k for u in units for x in u.units),
                      "unit id outside the codebook")
        with checking(res, "tokenize"):
            model = load_bpe_model(d / "tokenize" / "bpe.json")
            stored = load_token_corpus(d / "tokenize" / "tokens.tsv")
            res.check("tokenize", len(stored) == len(units),
                      f"{len(stored)} token sequences for {len(units)} unit sequences")
            for u, t in zip(units, stored):
                tokens = encode(u, model)
                res.check("tokenize", decode(tokens, model) == u.units,
                          f"decode(encode(u)) != u.units for {u.source_id}")
                res.check("tokenize", tokens.tokens == t.tokens,
                          f"stored tokens differ from encode() for {u.source_id}")
        return frames


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train:
    """The paper's training chain on a few hundred utterances.

    Default encoder dims; epochs and MLM steps are cut so one pass of the
    five stages fits the run time.
    """

    def __init__(self, size: str):
        tiny = size == "tiny"
        n = 120 if tiny else 300
        self.config = {
            "corpus": {"n_utterances": n},
            "pairs": {"n_dev": 50 if tiny else 200, "n_test": 50 if tiny else 200},
            "mlm": {"steps": 4 if tiny else 40},
            "tsdae": {"epochs": 1 if tiny else 2},
            "simcse": {"epochs": 1 if tiny else 2, "eval_every_steps": 2 if tiny else 10},
            "wavembed": {"epochs": 1 if tiny else 2},
            "distill": {"epochs": 1 if tiny else 2},
        }

    def setup(self, d: Path, seed: int):
        return setup_unit_stages(d, self.config, seed)

    def run_pass(self, s: Path, d: Path, seed: int, tracer) -> PassResult:
        cfg = s / "setup.cfg"
        common = ["--config", str(cfg), "--seed", str(seed)]
        corpus = str(s / "gen-corpus" / "corpus")
        dev = str(s / "gen-corpus" / "pairs.dev.tsv")
        units = str(s / "quantize" / "units.tsv")
        tokens = str(s / "tokenize" / "tokens.tsv")
        bpe = str(s / "tokenize" / "bpe.json")
        mlm = str(d / "pretrain-mlm" / "encoder-mlm.semm")
        stages = [
            ("pretrain-mlm", ["pretrain-mlm", "--tokens", tokens, "--bpe", bpe]),
            ("train-teacher.tsdae",
             ["train-teacher", "--tokens", tokens, "--kind", "tsdae", "--base", mlm]),
            ("train-teacher.simcse",
             ["train-teacher", "--tokens", tokens, "--kind", "simcse", "--base", mlm,
              "--pairs", dev]),
            ("train-wavembed", ["train-wavembed", "--corpus", corpus, "--units", units]),
            ("distill",
             ["distill", "--corpus", corpus, "--tokens", tokens, "--bpe", bpe,
              "--teacher", str(d / "train-teacher.tsdae" / "teacher.semm"), "--pairs", dev]),
        ]
        res = PassResult()
        wall = {
            label: run_stage(res, tracer, label, [argv[0], *common, *argv[1:]], d / label)
            for label, argv in stages
        }
        examples = self._check(res, d)
        for label, stage in TRAIN_STAGES.items():
            res.metrics[f"{stage}.ex_per_s"] = examples.get(label, 0) / wall[label]
        return res

    def _check(self, res: PassResult, d: Path) -> dict[str, int]:
        """Checks every stage's losses and artifact; returns examples consumed."""
        c = parse_config(config_text(self.config))
        n = c["corpus.n_utterances"]
        examples: dict[str, int] = {}

        def stage(label, loss_file, artifact, load):
            if label in res.failed:
                return None
            rows = None
            with checking(res, label):
                rows = _read_rows(d / label / loss_file)
                res.check(label, _all_finite(rows), f"non-finite or missing losses in {loss_file}")
                load(d / label / artifact)
            return rows

        rows = stage("pretrain-mlm", "mlm_loss.csv", "encoder-mlm.semm", SequenceEncoder.load)
        if rows:
            examples["pretrain-mlm"] = _examples(len(rows), _epoch_chunks(n, c["mlm.batch_size"]))
        rows = stage("train-teacher.tsdae", "tsdae_curve.csv", "teacher.semm", Teacher.load)
        if rows:
            epoch = _epoch_chunks(_n_train(n, c["tsdae.dev_fraction"]), c["tsdae.batch_size"])
            examples["train-teacher.tsdae"] = _examples(int(rows[-1]["step"]), epoch)
        rows = stage("train-teacher.simcse", "simcse_history.csv", "teacher.semm", Teacher.load)
        if rows:
            # a lone trailing sequence is skipped; early stopping ends the
            # run at the evaluation that trips the stopper
            epoch = _epoch_chunks(n, c["simcse.batch_size"], min_size=2)
            stopper = EarlyStopper(c["simcse.patience"])
            stopped = any(stopper.update(float(r["dev_spearman"])) for r in rows)
            steps = int(rows[-1]["step"]) if stopped else c["simcse.epochs"] * len(epoch)
            examples["train-teacher.simcse"] = _examples(steps, epoch)
        rows = stage("train-wavembed", "wavembed_curve.csv", "wavembed.semm", WavEmbedModel.load)
        if rows:
            epoch = _epoch_chunks(
                _n_train(n, c["wavembed.dev_fraction"]), c["wavembed.batch_size"]
            )
            examples["train-wavembed"] = _examples(int(rows[-1]["step"]), epoch)
            res.metrics["wavembed.dev_loss"] = min(float(r["dev_loss"]) for r in rows)
        rows = stage("distill", "distill_history.csv", "student.semm", StudentModel.load)
        if rows:
            epoch = _epoch_chunks(n, c["distill.batch_size"])
            examples["distill"] = _examples(int(rows[-1]["step"]), epoch)
            res.metrics["student.dev_spearman"] = max(float(r["dev_spearman"]) for r in rows)
        return examples


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def exhaustive_top_k(mat64: np.ndarray, ids: list[str], query: np.ndarray, k: int):
    """Top-k by a float64 scan of every row, ordered by (-score, id)."""
    q = query / np.linalg.norm(query)
    scores = mat64 @ q
    kth = np.partition(-scores, k - 1)[k - 1]
    tied_or_better = np.flatnonzero(-scores <= kth)
    order = sorted(tied_or_better, key=lambda i: (-scores[i], ids[i]))[:k]
    return [(ids[i], float(scores[i])) for i in order]


def _same_hits(got, want) -> bool:
    return [g[0] for g in got] == [w[0] for w in want] and all(
        abs(g[1] - w[1]) <= SCORE_TOL for g, w in zip(got, want)
    )


class Serve:
    """Inference only: build-index, evaluate, a query stream, greedy decoding.

    Models come from ``create`` with a fixed seed: forward cost does not
    depend on the weights, so no training is needed.
    """

    MODEL_SEED = 0

    def __init__(self, size: str):
        tiny = size == "tiny"
        self.n_index = 300 if tiny else 10_000
        self.n_pair_pool = 200 if tiny else 500
        self.n_pairs = 50 if tiny else 200
        self.n_queries = 40 if tiny else 1000
        self.batch = 20 if tiny else 100
        self.n_decode = 2 if tiny else 8
        self.n_embed_check = 8 if tiny else 32

    def setup(self, d: Path, seed: int) -> dict:
        d.mkdir(parents=True, exist_ok=True)
        corpus = generate_corpus(SyntheticSpec(n_utterances=self.n_index, seed=seed))
        save_corpus(corpus, d / "corpus")
        # test pairs over the head of the corpus: sampling pairs over all
        # 10k utterances takes 30 s and is not what this workload measures
        head = Corpus(utterances=corpus.utterances[: self.n_pair_pool])
        save_scored_pairs(
            build_scored_pairs(head, self.n_pairs, seed=seed, split="test"),
            d / "pairs.test.tsv",
        )
        d_in = corpus.utterances[0].features.dim
        student = StudentModel.create(d_in=d_in, cfg=EncoderConfig(), seed=self.MODEL_SEED)
        student.save(d / "student.semm")
        wav = WavEmbedModel.create(
            d_in=d_in, vocab=100 + N_SPECIALS, encoder_cfg=EncoderConfig(),
            seed=self.MODEL_SEED,
        )
        wav.save(d / "wavembed.semm")

        rng = np.random.default_rng([seed, 7])
        ids = [u.id for u in corpus]
        queries: list[object] = []
        for i in range(self.n_queries):
            if i % 2:
                queries.append(rng.standard_normal(student.cfg.model_dim))
            else:
                queries.append(ids[int(rng.integers(len(ids)))])
        picks = rng.choice(len(ids), size=max(self.n_decode, self.n_embed_check), replace=False)
        return {
            "dir": d,
            "queries": queries,
            "utterances": [corpus.utterances[int(i)] for i in picks],
            "student": StudentModel.load(d / "student.semm"),
            "wav": WavEmbedModel.load(d / "wavembed.semm"),
        }

    def run_pass(self, state: dict, d: Path, seed: int, tracer) -> PassResult:
        s = state["dir"]
        common = ["--seed", str(seed), "--corpus", str(s / "corpus")]
        res = PassResult()
        t_build = run_stage(res, tracer, "build-index",
                            ["build-index", *common, "--model", str(s / "student.semm")],
                            d / "build-index")
        t_eval = run_stage(res, tracer, "evaluate",
                           ["evaluate", *common, "--model", str(s / "wavembed.semm"),
                            "--pairs", str(s / "pairs.test.tsv")],
                           d / "evaluate")
        res.metrics["index_build.utt_per_s"] = self.n_index / t_build
        res.metrics["evaluate.pairs_per_s"] = self.n_pairs / t_eval
        self._check_stages(res, state, d)
        if "build-index" in res.failed:
            return res

        start = time.perf_counter()
        with _scope(tracer, "load"):
            index = sindex.load_index(d / "build-index" / "index.semi")
        res.wall += time.perf_counter() - start
        self._queries(res, tracer, index, state["queries"])
        self._decode(res, tracer, state)
        self._check_embed_batch(res, state)
        return res

    def _check_stages(self, res: PassResult, state: dict, d: Path) -> None:
        if "build-index" not in res.failed:
            with checking(res, "build-index"):
                self._check_index(res, state, d)
        if "evaluate" not in res.failed:
            with checking(res, "evaluate"):
                report = load_report(d / "evaluate" / "report.json")
                res.check("evaluate", report.n_pairs == self.n_pairs, f"{report.n_pairs} pairs")
                res.check("evaluate", math.isfinite(report.spearman), "spearman is not finite")

    def _check_index(self, res: PassResult, state: dict, d: Path) -> None:
        index = sindex.load_index(d / "build-index" / "index.semi")
        res.check("build-index", len(index) == self.n_index, f"{len(index)} rows")
        corpus_ids = {i: n for n, i in enumerate(index.ids)}
        for u in state["utterances"][: self.n_embed_check]:
            z = state["student"].embed(u.features)
            want = z / np.linalg.norm(z)
            got = index.matrix[corpus_ids[u.id]].astype(np.float64)
            res.check("build-index", np.max(np.abs(got - want)) <= INDEX_ROW_TOL,
                      f"index row for {u.id} differs from its embedding")

    def _queries(self, res: PassResult, tracer, index, queries) -> None:
        mat64 = index.matrix.astype(np.float64)
        row = {i: n for n, i in enumerate(index.ids)}
        want = [
            exhaustive_top_k(mat64, index.ids, mat64[row[q]] if isinstance(q, str) else q, TOP_K)
            for q in queries
        ]
        latencies = []
        for n, q in enumerate(queries):
            op = f"search.{n}"
            res.attempt(op)
            start = time.perf_counter()
            with _scope(tracer, "query"):
                hits = sindex.search(index, q, TOP_K)
            latencies.append(time.perf_counter() - start)
            res.check(op, _same_hits(hits, want[n]), f"query {n} differs from the scan")
        batch_time = 0.0
        for b in range(0, len(queries), self.batch):
            op = f"search_batch.{b // self.batch}"
            res.attempt(op)
            start = time.perf_counter()
            with _scope(tracer, "search_batch"):
                got = sindex.search_batch(index, queries[b : b + self.batch], TOP_K)
            batch_time += time.perf_counter() - start
            expected = want[b : b + self.batch]
            res.check(op, len(got) == len(expected)
                      and all(_same_hits(g, w) for g, w in zip(got, expected)),
                      f"search_batch call {b // self.batch} differs from the scan")
        res.wall += sum(latencies) + batch_time
        ms = [1e3 * t for t in latencies]
        res.metrics["search_ms.p50"] = percentile(ms, 50)
        res.metrics["search_ms.p99"] = percentile(ms, 99)
        res.metrics["search_batch.qps"] = len(queries) / batch_time

    def _decode(self, res: PassResult, tracer, state: dict) -> None:
        wav = state["wav"]
        tokens, elapsed = 0, 0.0
        for n, utt in enumerate(state["utterances"][: self.n_decode]):
            op = f"decode.{n}"
            res.attempt(op)
            start = time.perf_counter()
            with _scope(tracer, "decode"):
                out = wav.greedy_decode(utt.features)
            elapsed += time.perf_counter() - start
            tokens += len(out) - 1
            res.check(op, len(out) > 0 and int(out[0]) == CLS, "decode does not start with CLS")
            res.check(op, bool(np.all((out >= 0) & (out < wav.vocab))), "id outside the vocab")
        res.wall += elapsed
        res.metrics["decode.tok_per_s"] = tokens / elapsed

    def _check_embed_batch(self, res: PassResult, state: dict) -> None:
        feats = [u.features for u in state["utterances"][: self.n_embed_check]]
        for name in ("student", "wav"):
            model, op = state[name], f"embed_batch.{name}"
            res.attempt(op)
            batch = model.embed_batch(feats)
            worst = max(float(np.max(np.abs(batch[i] - model.embed(f))))
                        for i, f in enumerate(feats))
            res.check(op, worst <= EMBED_TOL, f"embed_batch differs from embed by {worst:.3g}")


WORKLOADS = {"units": Units, "train": Train, "serve": Serve}
STAGE_METRICS = (
    "units.frames_per_s",
    "mlm.ex_per_s", "tsdae.ex_per_s", "simcse.ex_per_s", "wavembed.ex_per_s",
    "distill.ex_per_s", "wavembed.dev_loss", "student.dev_spearman",
    "index_build.utt_per_s", "evaluate.pairs_per_s", "search_ms.p50", "search_ms.p99",
    "search_batch.qps", "decode.tok_per_s",
)
