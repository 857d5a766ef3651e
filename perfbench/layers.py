"""Which entry points the traced run wraps, and the per-layer metrics.

Layer totals (``*_s``) sum self time: a span's duration minus what its
traced children cover, so no time counts twice. Per-call figures
(``*_ms``) are medians of whole-call durations. The benchmark opens one
``cli`` span around each CLI stage and one span around each query or
decode, so every span below them shares that root's trace id.
"""

from __future__ import annotations

import numpy as np

from spans import Tracer

# CLI stage label -> training stage name used in nn.<stage>.* metrics
TRAIN_STAGES = {
    "pretrain-mlm": "mlm",
    "train-teacher.tsdae": "tsdae",
    "train-teacher.simcse": "simcse",
    "train-wavembed": "wavembed",
    "distill": "distill",
}
CLI_STAGES = (
    "gen-corpus", "quantize", "tokenize", *TRAIN_STAGES, "evaluate", "build-index",
)
FORWARD = ("nn.encode", "nn.decode")
# spans the benchmark opens around the operations it times; program spans
# outside them come from the output checks and are left out of the metrics
ROOTS = ("cli", "query", "search_batch", "decode", "load")


def _frames(args, kwargs, result):
    seqs = args[1] if len(args) > 1 else kwargs.get("frame_list", kwargs.get("features", ()))
    seqs = list(seqs)
    lengths = [np.shape(getattr(f, "data", f))[0] for f in seqs]
    return {"real": sum(lengths), "padded": len(lengths) * max(lengths, default=0)}


def _grad(args, kwargs, result):
    return {"grad": bool(getattr(result, "requires_grad", False))}


def _records_grad(span) -> bool:
    return bool((span.info or {}).get("grad"))


S = "semspeech."
# (module, class or None, attribute, span name, info function)
ENTRY_POINTS = [
    (S + "corpus", None, "generate_corpus", "corpus.generate", None),
    (S + "corpus", None, "build_scored_pairs", "corpus.pairs", None),
    (S + "corpus", None, "save_corpus", "corpus.save", None),
    (S + "corpus", None, "save_scored_pairs", "corpus.save", None),
    (S + "corpus", None, "load_corpus", "corpus.load", None),
    (S + "corpus", None, "load_scored_pairs", "corpus.load", None),
    (S + "quantizer", None, "train_kmeans", "quantizer.kmeans",
     lambda a, k, r: {"iters": len(r.inertia_history)}),
    (S + "quantizer", None, "quantize_corpus", "quantizer.quantize", None),
    (S + "tokenizer", None, "train_bpe", "tokenizer.bpe_train",
     lambda a, k, r: {"merges": len(r.merges)}),
    (S + "tokenizer", None, "encode", "tokenizer.encode", None),
    (S + "nn.tensor", "Tensor", "backward", "nn.backward", None),
    (S + "nn.optim", None, "adamw_step", "nn.optim", None),
    (S + "nn.layers", None, "transformer_encode", "nn.encode", _grad),
    (S + "teachers", "SequenceEncoder", "encode", "nn.encode", _grad),
    (S + "nn.layers", None, "decode_tokens", "nn.decode", _grad),
    (S + "nn.layers", None, "decoder_step", "nn.decode", _grad),
    (S + "nn.checkpoint", None, "save_checkpoint", "checkpoint.save", None),
    (S + "nn.checkpoint", None, "load_checkpoint", "checkpoint.load", None),
    (S + "wavembed", "WavEmbedModel", "embed", "wavembed.embed", None),
    (S + "wavembed", "WavEmbedModel", "embed_batch", "wavembed.embed_batch", _frames),
    (S + "wavembed", "WavEmbedModel", "batch_loss", "wavembed.batch_loss", _frames),
    (S + "wavembed", "WavEmbedModel", "greedy_decode", "wavembed.decode",
     lambda a, k, r: {"tokens": len(r) - 1}),
    (S + "wavembed", None, "train_wavembed", "wavembed.train", None),
    (S + "teachers", "Teacher", "embed_batch", "teachers.embed_batch", None),
    (S + "teachers", "SequenceEncoder", "embed_batch", "teachers.encoder_embed_batch", None),
    (S + "teachers", None, "mlm_pretrain", "teachers.mlm", None),
    (S + "teachers", None, "train_tsdae", "teachers.tsdae", None),
    (S + "teachers", None, "train_simcse", "teachers.simcse", None),
    (S + "distill", "MemoryBank", "push", "distill.bank_push", None),
    (S + "distill", "MemoryBank", "contents", "distill.bank_contents", None),
    (S + "distill", None, "distill_step", "distill.step", None),
    (S + "distill", None, "distill_train", "distill.train", None),
    (S + "distill", "StudentModel", "embed", "student.embed", None),
    (S + "distill", "StudentModel", "embed_batch", "student.embed_batch", _frames),
    (S + "distill", "StudentModel", "embed_train", "student.embed_train", _frames),
    (S + "evaluation", None, "evaluate", "evaluation.evaluate", None),
    (S + "evaluation", None, "uniformity", "evaluation.uniformity", None),
    (S + "evaluation", None, "spearman", "evaluation.spearman", None),
    (S + "index", None, "build_index", "index.build", None),
    (S + "index", None, "save_index", "index.save", None),
    (S + "index", None, "load_index", "index.load", None),
    (S + "index", None, "search", "index.search", None),
    (S + "index", None, "search_batch", "index.search_batch", None),
]


def install(tracer: Tracer) -> None:
    for module, cls, attr, name, info_fn in ENTRY_POINTS:
        if cls is None:
            tracer.wrap_function(module, attr, name, info_fn)
        else:
            tracer.wrap_method(module, cls, attr, name, info_fn)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    own = tracer.self_times()
    timed = {s.trace for s in spans if s.parent < 0 and s.name in ROOTS}
    stage_of_trace = {
        s.trace: s.info["stage"] for s in spans if s.name == "cli" and s.parent < 0
    }

    self_s: dict[str, float] = {}
    calls_ms: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    by_stage: dict[str, list[int]] = {}
    infer_forward = 0.0
    for i, s in enumerate(spans):
        if s.trace not in timed:
            continue
        self_s[s.name] = self_s.get(s.name, 0.0) + own[i]
        calls_ms.setdefault(s.name, []).append(1e3 * s.duration)
        for key, value in (s.info or {}).items():
            if isinstance(value, (int, float)):
                counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value
        stage = stage_of_trace.get(s.trace)
        if stage is not None:
            by_stage.setdefault(stage, []).append(i)
        if s.name in FORWARD and not _records_grad(s):
            p = s.parent
            while p >= 0 and spans[p].name not in FORWARD:
                p = spans[p].parent
            if p < 0:
                infer_forward += s.duration

    def stage_total(stage: str, names: tuple[str, ...]) -> float:
        """Whole-call time of the outermost ``names`` spans inside one stage."""
        total = 0.0
        for i in by_stage.get(stage, ()):
            s = spans[i]
            if s.name in names and not (s.parent >= 0 and spans[s.parent].name in names):
                total += s.duration
        return total

    def pad_efficiency(*names: str) -> float:
        """Real frames over padded frames in the named batched calls."""
        real = sum(counts.get(f"{n}.real", 0) for n in names)
        return _ratio(real, sum(counts.get(f"{n}.padded", 0) for n in names))

    m: dict[str, float] = {
        "corpus.generate_s": self_s.get("corpus.generate", 0.0),
        "corpus.pairs_s": self_s.get("corpus.pairs", 0.0),
        "corpus.save_s": self_s.get("corpus.save", 0.0),
        "corpus.load_s": self_s.get("corpus.load", 0.0),
        "quantizer.kmeans_s": self_s.get("quantizer.kmeans", 0.0),
        "quantizer.lloyd_iters": counts.get("quantizer.kmeans.iters", 0),
        "quantizer.quantize_s": self_s.get("quantizer.quantize", 0.0),
        "tokenizer.bpe_train_s": self_s.get("tokenizer.bpe_train", 0.0),
        "tokenizer.merges": counts.get("tokenizer.bpe_train.merges", 0),
        "tokenizer.encode_s": self_s.get("tokenizer.encode", 0.0),
        "nn.infer.forward_s": infer_forward,
        "checkpoint.save_s": self_s.get("checkpoint.save", 0.0),
        "checkpoint.load_s": self_s.get("checkpoint.load", 0.0),
        "wavembed.embed_ms": percentile(calls_ms.get("wavembed.embed", []), 50),
        "wavembed.pad_efficiency": pad_efficiency("wavembed.embed_batch", "wavembed.batch_loss"),
        "wavembed.decode_tokens": counts.get("wavembed.decode.tokens", 0),
        "wavembed.decode_ms_per_tok": _ratio(
            sum(calls_ms.get("wavembed.decode", [])), counts.get("wavembed.decode.tokens", 0)
        ),
        "teachers.embed_batch_s": stage_total("distill", ("teachers.embed_batch",)),
        "teachers.dev_eval_s": stage_total(
            "train-teacher.simcse", ("teachers.encoder_embed_batch", "evaluation.spearman")
        ),
        "distill.bank_push_s": self_s.get("distill.bank_push", 0.0),
        "distill.bank_contents_s": self_s.get("distill.bank_contents", 0.0),
        "distill.dev_eval_s": stage_total(
            "distill", ("student.embed_batch", "evaluation.spearman")
        ),
        "distill.pad_efficiency": pad_efficiency("student.embed_batch", "student.embed_train"),
        "student.embed_ms": percentile(calls_ms.get("student.embed", []), 50),
        "evaluation.evaluate_s": self_s.get("evaluation.evaluate", 0.0),
        "evaluation.uniformity_s": self_s.get("evaluation.uniformity", 0.0),
        "evaluation.spearman_s": self_s.get("evaluation.spearman", 0.0),
        "index.build_s": self_s.get("index.build", 0.0),
        "index.save_s": self_s.get("index.save", 0.0),
        "index.load_s": self_s.get("index.load", 0.0),
        "cli.overhead_s": self_s.get("cli", 0.0),
        "trace.spans": len(spans),
    }
    m["quantizer.ms_per_iter"] = _ratio(1e3 * m["quantizer.kmeans_s"], m["quantizer.lloyd_iters"])

    search_self = [
        1e3 * own[i] for i, s in enumerate(spans) if s.name == "index.search" and s.trace in timed
    ]
    m["index.search_ms.p50"] = percentile(search_self, 50)
    m["index.search_ms.p99"] = percentile(search_self, 99)

    for label in CLI_STAGES:
        m[f"cli.stage_s.{label}"] = sum(
            spans[i].duration for i in by_stage.get(label, ()) if spans[i].parent < 0
        )

    for label, stage in TRAIN_STAGES.items():
        m.update(_step_metrics(stage, [spans[i] for i in by_stage.get(label, ())]))
    return m


def _step_metrics(stage: str, spans) -> dict[str, float]:
    """Optimizer-step figures for one training stage.

    A step runs from the first gradient-recording forward after the previous
    optimizer update to the end of its own update, so the dev evaluations
    and data preparation between steps stay out of it. ``forward_s`` is the
    step time outside backward and the optimizer: the forward pass and loss.
    """
    steps, backward, optim = [], 0.0, 0.0
    start = None
    for s in spans:
        if s.name in FORWARD and _records_grad(s) and start is None:
            start = s.start
        elif s.name == "nn.backward":
            backward += s.duration
        elif s.name == "nn.optim":
            optim += s.duration
            steps.append(s.end - (s.start if start is None else start))
            start = None
    total = sum(steps)
    p = f"nn.{stage}."
    return {
        p + "forward_s": total - backward - optim,
        p + "backward_s": backward,
        p + "optim_s": optim,
        p + "steps": len(steps),
        p + "step_ms.p50": percentile([1e3 * d for d in steps], 50),
        p + "step_ms.p99": percentile([1e3 * d for d in steps], 99),
        p + "backward_share": _ratio(backward, total),
    }
